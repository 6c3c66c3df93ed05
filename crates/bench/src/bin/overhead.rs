//! The Fig. 9 **overhead artifact**: runtime of instrumented execution
//! relative to the uninstrumented flat baseline, per hook group and for
//! all hooks at once — with the all-hooks row measured on **three**
//! execution paths:
//!
//! - **direct** (direct-emit): hook calls injected at translate time as
//!   synthetic imports (`AnalysisSession::direct`); under `NoAnalysis`
//!   every plan is a no-op, so the instantiation-time `is_noop` mask drops
//!   each call before argument marshalling,
//! - **intrinsic** (rewrite + intrinsics): the binary-rewritten module on
//!   `Op::HostCall` dispatch plus the runtime's zero-subscriber skip
//!   (`NoAnalysis` listens to nothing, like Fig. 9's no-op analysis),
//! - **generic** (pre-intrinsic): the generic call machinery with full
//!   event construction (`AllHooksNop` subscribes to everything).
//!
//! The recorded `improvement` (generic wall / intrinsic wall) and
//! `direct_vs_rewrite` (direct wall / intrinsic wall, gated ≤ 0.75) are
//! the acceptance numbers; `ci.sh` also gates on the recorded all-hooks
//! overhead not regressing past the committed baseline × 1.1.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin overhead \
//!     [polybench_n] [kernel_count] [--out <path>] [--smoke]
//! ```
//!
//! Default output path: `BENCH_overhead.json`. `--smoke` shrinks the run
//! (3 kernels, all-hooks row only) while keeping `polybench_n` at the full
//! value so the recorded overhead ratio stays comparable to the committed
//! baseline.

use std::fmt::Write as _;

use wasabi::hooks::HookSet;
use wasabi_bench::{
    geomean, run_direct_amortized, run_flat_amortized, run_instrumented_amortized,
    run_instrumented_generic_amortized, BenchArgs, FIGURE_HOOK_GROUPS,
};
use wasabi_vm::TranslatedModule;
use wasabi_workloads::{compile, polybench};

fn main() {
    let args = BenchArgs::parse("BENCH_overhead.json");
    let smoke = args.smoke;
    // Keep n and the invocation count at the full values even in smoke
    // mode: the overhead is a ratio, and the CI gate compares it per
    // kernel against the committed baseline — only the kernel count and
    // the per-hook-group sweep shrink.
    let default_kernels: usize = if smoke { 3 } else { 8 };
    let invocations: usize = 4;
    let polybench_n: u32 = args.positional(0, 12);
    let kernel_count: usize = args.positional(1, default_kernels);

    let kernels: Vec<(&str, wasabi_wasm::Module)> = polybench::NAMES
        .iter()
        .take(kernel_count)
        .map(|name| {
            (
                *name,
                compile(&polybench::by_name(name, polybench_n).expect("known kernel")),
            )
        })
        .collect();

    println!(
        "Overhead of instrumented execution vs. uninstrumented flat \
         ({} PolyBench kernels at n={polybench_n}, {invocations} invocation(s))",
        kernels.len()
    );
    println!();

    // Every gated measurement is best-of-REPEATS (minimum wall time):
    // the per-kernel wall times are milliseconds-scale, so a single
    // sample carries enough scheduler/cache-state noise to trip the CI
    // regression gate; the minimum is the stable estimator of the
    // undisturbed run (same policy as `run_original_repeated`).
    const REPEATS: usize = 5;
    fn best_of(
        repeats: usize,
        mut run: impl FnMut() -> wasabi_bench::RunMeasurement,
    ) -> wasabi_bench::RunMeasurement {
        (0..repeats.max(1))
            .map(|_| run())
            .min_by(|a, b| a.wall.cmp(&b.wall))
            .expect("at least one run")
    }

    // Uninstrumented flat baseline, translated once per kernel. The base
    // is the denominator of every gated ratio and an uninstrumented
    // invocation is sub-millisecond, so it runs BASE_SCALE x more
    // invocations than the instrumented arms and the ratios divide by a
    // per-invocation base time — otherwise base timer noise dominates the
    // recorded overheads.
    const BASE_SCALE: usize = 8;
    let bases: Vec<_> = kernels
        .iter()
        .map(|(_, module)| {
            let translated = TranslatedModule::new(module.clone()).expect("validates");
            best_of(REPEATS, || {
                run_flat_amortized(&translated, "main", invocations * BASE_SCALE)
            })
        })
        .collect();
    // Wall seconds and executed instructions of `invocations` base calls
    // (the unit the instrumented arms are measured in).
    let base_wall =
        |base: &wasabi_bench::RunMeasurement| base.wall.as_secs_f64() / BASE_SCALE as f64;
    let base_instrs =
        |base: &wasabi_bench::RunMeasurement| base.vm_instrs as f64 / BASE_SCALE as f64;

    // Per-hook-group overhead on the intrinsic path (skipped in smoke
    // mode; the all-hooks row is the gated artifact).
    let mut group_rows = Vec::new();
    if !smoke {
        println!("{:<14} {:>12} {:>12}", "hook", "wall", "instrs");
        println!("{:-<14} {:->12} {:->12}", "", "", "");
        for (name, hooks) in FIGURE_HOOK_GROUPS {
            let set = HookSet::of(hooks);
            let mut wall_ratios = Vec::new();
            let mut instr_ratios = Vec::new();
            for ((_, module), base) in kernels.iter().zip(&bases) {
                let run = run_instrumented_amortized(module, set, "main", invocations);
                assert_eq!(run.host_calls_slow, 0, "{name}: intrinsic path only");
                wall_ratios.push(run.wall.as_secs_f64() / base_wall(base));
                instr_ratios.push(run.vm_instrs as f64 / base_instrs(base));
            }
            let wall = geomean(wall_ratios.iter().copied());
            let instrs = geomean(instr_ratios.iter().copied());
            println!("{name:<14} {wall:>11.2}x {instrs:>11.2}x");
            group_rows.push((name, wall, instrs));
        }
        println!();
    }

    // The all-hooks row, on all three paths.
    let mut base_ms = 0.0;
    let mut direct_ms = 0.0;
    let mut intrinsic_ms = 0.0;
    let mut generic_ms = 0.0;
    let mut direct_wall_ratios = Vec::new();
    let mut intrinsic_wall_ratios = Vec::new();
    let mut generic_wall_ratios = Vec::new();
    let mut instr_ratios = Vec::new();
    let mut kernel_rows = Vec::new();
    for ((name, module), base) in kernels.iter().zip(&bases) {
        let intrinsic = best_of(REPEATS, || {
            run_instrumented_amortized(module, HookSet::all(), "main", invocations)
        });
        // The benches must be able to assert the intrinsic path actually
        // fired — that is the artifact being measured.
        assert!(
            intrinsic.host_calls_fast > 0,
            "{name}: intrinsic path did not fire"
        );
        assert_eq!(
            intrinsic.host_calls_slow, 0,
            "{name}: unexpected slow calls"
        );
        let generic = best_of(REPEATS, || {
            run_instrumented_generic_amortized(module, HookSet::all(), "main", invocations)
        });
        assert_eq!(generic.host_calls_fast, 0, "{name}: generic path leaked");
        assert_eq!(
            generic.host_calls_slow, intrinsic.host_calls_fast,
            "{name}: both paths must make the same hook calls"
        );
        assert_eq!(
            generic.vm_instrs, intrinsic.vm_instrs,
            "{name}: instr counts"
        );
        let direct = best_of(REPEATS, || {
            run_direct_amortized(module, HookSet::all(), "main", invocations)
        });
        // Direct-emit must inject the same hook sites as the rewrite and,
        // under NoAnalysis, mask every one of them at instantiation.
        assert_eq!(
            direct.vm_instrs, intrinsic.vm_instrs,
            "{name}: direct-emit instr counts"
        );
        assert_eq!(
            direct.host_calls_fast, intrinsic.host_calls_fast,
            "{name}: direct-emit hook-site counts"
        );
        assert_eq!(direct.host_calls_slow, 0, "{name}: direct-emit slow calls");
        base_ms += base_wall(base) * 1000.0;
        direct_ms += direct.wall.as_secs_f64() * 1000.0;
        intrinsic_ms += intrinsic.wall.as_secs_f64() * 1000.0;
        generic_ms += generic.wall.as_secs_f64() * 1000.0;
        direct_wall_ratios.push(direct.wall.as_secs_f64() / base_wall(base));
        intrinsic_wall_ratios.push(intrinsic.wall.as_secs_f64() / base_wall(base));
        generic_wall_ratios.push(generic.wall.as_secs_f64() / base_wall(base));
        instr_ratios.push(intrinsic.vm_instrs as f64 / base_instrs(base));
        kernel_rows.push((
            *name,
            direct.wall.as_secs_f64() / base_wall(base),
            intrinsic.wall.as_secs_f64() / base_wall(base),
            generic.wall.as_secs_f64() / base_wall(base),
        ));
    }
    let overhead_direct = geomean(direct_wall_ratios.iter().copied());
    let overhead_intrinsic = geomean(intrinsic_wall_ratios.iter().copied());
    let overhead_generic = geomean(generic_wall_ratios.iter().copied());
    let overhead_instrs = geomean(instr_ratios.iter().copied());
    let improvement = generic_ms / intrinsic_ms;
    let direct_vs_rewrite = direct_ms / intrinsic_ms;

    println!("all hooks, geomean overhead vs. uninstrumented flat:");
    println!("  direct    (direct-emit): {overhead_direct:>8.2}x wall");
    println!(
        "  intrinsic (rewrite):     {overhead_intrinsic:>8.2}x wall, {overhead_instrs:.2}x instrs"
    );
    println!("  generic   (pre-PR):      {overhead_generic:>8.2}x wall");
    println!();
    println!(
        "totals: base {base_ms:.1} ms, direct {direct_ms:.1} ms, \
         intrinsic {intrinsic_ms:.1} ms, generic {generic_ms:.1} ms \
         -> improvement {improvement:.2}x, direct/rewrite {direct_vs_rewrite:.2}x"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"polybench_n\":{polybench_n},\"kernel_count\":{},\
         \"invocations\":{invocations},\"kernels\":[",
        kernels.len()
    );
    for (i, (name, direct, intrinsic, generic)) in kernel_rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"name\":\"{name}\",\"overhead_direct\":{direct:.3},\
             \"overhead_intrinsic\":{intrinsic:.3},\
             \"overhead_generic\":{generic:.3}}}"
        );
    }
    json.push_str("],\"hook_groups\":[");
    for (i, (name, wall, instrs)) in group_rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"hook\":\"{name}\",\"wall_overhead\":{wall:.3},\
             \"instr_overhead\":{instrs:.3}}}"
        );
    }
    let _ = write!(
        json,
        "],\"all\":{{\"base_ms\":{base_ms:.3},\
         \"direct_ms\":{direct_ms:.3},\
         \"intrinsic_ms\":{intrinsic_ms:.3},\
         \"generic_ms\":{generic_ms:.3},\
         \"overhead_direct\":{overhead_direct:.3},\
         \"overhead_intrinsic\":{overhead_intrinsic:.3},\
         \"overhead_generic\":{overhead_generic:.3},\
         \"overhead_instrs\":{overhead_instrs:.3},\
         \"improvement\":{improvement:.3},\
         \"direct_vs_rewrite\":{direct_vs_rewrite:.3}}}}}"
    );
    std::fs::write(&args.out, &json).expect("write overhead json");
    println!("wrote {}", args.out);
}
