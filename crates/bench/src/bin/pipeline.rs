//! Fused-pipeline throughput baseline: run the eight Table-4 analyses over
//! PolyBench kernels **fused** (one instrumentation + execution pass with
//! per-hook dispatch) vs. **sequential** (eight independent
//! `AnalysisSession`s, as the pre-pipeline API forced), and write the
//! comparison as JSON.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin pipeline \
//!     [polybench_n] [kernel_count] [--out <path>] [--smoke]
//! ```
//!
//! Default output path: `BENCH_pipeline.json` in the current directory.
//! `--smoke` shrinks the workload for CI.

use std::fmt::Write as _;
use std::time::Instant;

use wasabi::{stats, AnalysisSession, Wasabi};
use wasabi_analyses::registry;
use wasabi_bench::BenchArgs;
use wasabi_workloads::{compile, polybench};

struct KernelResult {
    name: String,
    fused_ms: f64,
    sequential_ms: f64,
    fused_instrumentations: u64,
    sequential_instrumentations: u64,
}

fn main() {
    let args = BenchArgs::parse("BENCH_pipeline.json");
    let smoke = args.smoke;
    let default_n: u32 = if smoke { 6 } else { 12 };
    let default_kernels: usize = if smoke { 2 } else { 8 };
    let polybench_n: u32 = args.positional(0, default_n);
    let kernel_count: usize = args.positional(1, default_kernels);

    println!(
        "Pipeline baseline: 8 Table-4 analyses fused vs. sequential \
         ({kernel_count} PolyBench kernels at n={polybench_n})"
    );
    println!();
    println!(
        "{:<16} {:>12} {:>14} {:>9} {:>14}",
        "kernel", "fused (ms)", "sequential", "speedup", "instr passes"
    );
    println!("{:-<16} {:->12} {:->14} {:->9} {:->14}", "", "", "", "", "");

    let mut results: Vec<KernelResult> = Vec::new();
    for name in polybench::NAMES.iter().take(kernel_count) {
        let module = compile(&polybench::by_name(name, polybench_n).expect("known kernel"));

        // Fused: one pipeline over all eight analyses.
        let mut analyses = registry::table4();
        let instr_before = stats::instrumentation_passes();
        let start = Instant::now();
        let mut builder = Wasabi::builder();
        for analysis in &mut analyses {
            builder = builder.analysis(analysis.as_mut());
        }
        let mut pipeline = builder.build(&module).expect("instruments");
        pipeline.run("main", &[]).expect("runs");
        let fused_ms = start.elapsed().as_secs_f64() * 1000.0;
        let fused_instrumentations = stats::instrumentation_passes() - instr_before;
        drop(pipeline);

        // Sequential: eight independent instrument+execute passes.
        let instr_before = stats::instrumentation_passes();
        let start = Instant::now();
        for analysis in registry::table4().iter_mut() {
            let session =
                AnalysisSession::for_analysis(&module, analysis.as_ref()).expect("instruments");
            session.run(analysis.as_mut(), "main", &[]).expect("runs");
        }
        let sequential_ms = start.elapsed().as_secs_f64() * 1000.0;
        let sequential_instrumentations = stats::instrumentation_passes() - instr_before;

        println!(
            "{name:<16} {fused_ms:>12.1} {sequential_ms:>14.1} {:>8.2}x {:>6} vs {:>4}",
            sequential_ms / fused_ms,
            fused_instrumentations,
            sequential_instrumentations,
        );
        results.push(KernelResult {
            name: name.to_string(),
            fused_ms,
            sequential_ms,
            fused_instrumentations,
            sequential_instrumentations,
        });
    }

    let total_fused: f64 = results.iter().map(|r| r.fused_ms).sum();
    let total_sequential: f64 = results.iter().map(|r| r.sequential_ms).sum();
    println!();
    println!(
        "total: fused {total_fused:.1} ms vs sequential {total_sequential:.1} ms \
         ({:.2}x)",
        total_sequential / total_fused
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"polybench_n\":{polybench_n},\"analyses\":8,\
         \"total_fused_ms\":{total_fused:.3},\
         \"total_sequential_ms\":{total_sequential:.3},\
         \"speedup\":{:.3},\"kernels\":[",
        total_sequential / total_fused
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"name\":\"{}\",\"fused_ms\":{:.3},\"sequential_ms\":{:.3},\
             \"fused_instrumentation_passes\":{},\
             \"sequential_instrumentation_passes\":{}}}",
            r.name,
            r.fused_ms,
            r.sequential_ms,
            r.fused_instrumentations,
            r.sequential_instrumentations,
        );
    }
    json.push_str("]}");
    std::fs::write(&args.out, &json).expect("write baseline json");
    println!("wrote {}", args.out);
}
