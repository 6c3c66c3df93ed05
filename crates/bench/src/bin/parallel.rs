//! Parallel-build + persistent-session-cache benchmark (paper §3 /
//! Table 5 at scale): the fused instrument+translate build is swept over
//! thread counts on the PolyBench kernel set, then a cold process start
//! (build + persist) is contrasted with a disk-warm start (load the
//! prepared sessions back from the on-disk cache tier, no rebuild).
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin parallel \
//!     [polybench_n] [kernel_count] [--out <path>] [--smoke]
//! ```
//!
//! Default output path: `BENCH_parallel.json` in the current directory.
//! `--smoke` shrinks the workload for CI. The headline ratios:
//!
//! - **speedup_max_threads** (threads(1) vs threads(max), same builds):
//!   what function-granular fan-out buys — the paper's Table 5 shape.
//!   On a single-core machine this is ~1x by construction; the JSON
//!   records `cores` so the gate in `ci.sh` can judge it in context.
//! - **disk_warm_vs_cold**: what the persistent session cache saves a
//!   fresh process — decoding prepared code from disk instead of
//!   validating + instrumenting + translating from scratch.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wasabi::cache::{content_key, ModuleCache};
use wasabi::hooks::HookSet;
use wasabi::{DiskCache, Instrumenter};
use wasabi_bench::BenchArgs;
use wasabi_wasm::module::Module;
use wasabi_workloads::{compile, polybench};

struct ThreadRow {
    threads: usize,
    wall: Duration,
    speedup: f64,
}

struct DiskRow {
    config: &'static str,
    wall: Duration,
    disk_hits: u64,
    disk_misses: u64,
}

/// Build every kernel `repeats` times at the given thread count; the
/// whole sweep is what Table 5 times (instrumentation, all functions).
fn build_pass(kernels: &[Arc<Module>], repeats: usize, threads: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..repeats {
        for module in kernels {
            let (_translated, info) = Instrumenter::new(HookSet::all())
                .threads(threads)
                .run_direct(Arc::clone(module))
                .expect("kernel builds");
            assert!(!info.hooks.is_empty(), "all-hooks build monomorphizes");
        }
    }
    start.elapsed()
}

/// Median-of-`rounds` wall time for one thread count.
fn measure_threads(
    kernels: &[Arc<Module>],
    repeats: usize,
    threads: usize,
    rounds: usize,
) -> Duration {
    let mut walls: Vec<Duration> = (0..rounds)
        .map(|_| build_pass(kernels, repeats, threads))
        .collect();
    walls.sort();
    walls[walls.len() / 2]
}

/// One process "start": a fresh cache over `dir` prepares a session for
/// every kernel. With an empty dir that is a full build + persist; with a
/// populated one, every session decodes from the disk tier.
fn start_process(
    config: &'static str,
    kernels: &[(String, Arc<Module>)],
    dir: &std::path::Path,
) -> DiskRow {
    let disk = DiskCache::new(dir).expect("disk cache dir");
    let cache = ModuleCache::new().with_disk(disk);
    let start = Instant::now();
    for (key, module) in kernels {
        cache
            .session_for(key, HookSet::all(), module)
            .expect("kernel builds");
    }
    DiskRow {
        config,
        wall: start.elapsed(),
        disk_hits: cache.disk_hits(),
        disk_misses: cache.disk_misses(),
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_parallel.json");
    let smoke = args.smoke;
    let default_n: u32 = if smoke { 4 } else { 6 };
    let default_kernels: usize = if smoke { 2 } else { polybench::NAMES.len() };
    // Enough build repetitions that a pass is comfortably above timer
    // noise even though one kernel builds in well under a millisecond.
    let repeats: usize = if smoke { 3 } else { 20 };
    let rounds: usize = if smoke { 1 } else { 3 };
    let polybench_n: u32 = args.positional(0, default_n);
    let kernel_count: usize = args.positional(1, default_kernels);

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Even on one core, sweep past 1 thread so the fan-out path itself is
    // exercised (its speedup there is ~1x and judged as such).
    let max_threads = cores.max(2);
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t < max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    thread_counts.push(max_threads);

    let named_kernels: Vec<(String, Arc<Module>)> = polybench::NAMES
        .iter()
        .take(kernel_count)
        .map(|name| {
            let program = polybench::by_name(name, polybench_n).expect("known kernel");
            let module = compile(&program);
            let key = content_key(&wasabi_wasm::encode::encode(&module));
            (key, Arc::new(module))
        })
        .collect();
    let kernels: Vec<Arc<Module>> = named_kernels.iter().map(|(_, m)| Arc::clone(m)).collect();
    let functions: usize = kernels.iter().map(|m| m.functions.len()).sum();

    println!(
        "Parallel build: {} kernels ({} functions) x {repeats} repeats per pass \
         (PolyBench n={polybench_n}, {cores} core(s), threads {:?})",
        kernels.len(),
        functions,
        thread_counts,
    );
    println!();
    println!("{:<10} {:>10} {:>9}", "threads", "wall (ms)", "speedup");
    println!("{:-<10} {:->10} {:->9}", "", "", "");

    let base = measure_threads(&kernels, repeats, 1, rounds);
    let mut thread_rows = vec![ThreadRow {
        threads: 1,
        wall: base,
        speedup: 1.0,
    }];
    for &threads in &thread_counts[1..] {
        let wall = measure_threads(&kernels, repeats, threads, rounds);
        thread_rows.push(ThreadRow {
            threads,
            wall,
            speedup: base.as_secs_f64() / wall.as_secs_f64(),
        });
    }
    for row in &thread_rows {
        println!(
            "{:<10} {:>10.1} {:>8.2}x",
            row.threads,
            row.wall.as_secs_f64() * 1000.0,
            row.speedup,
        );
    }
    let speedup_max = thread_rows.last().expect("swept").speedup;

    // Disk tier: cold start (empty dir: build + persist) vs warm start
    // (fresh cache, populated dir: decode only). Median-of-rounds each.
    let dir = std::env::temp_dir().join(format!("wasabi-bench-parallel-{}", std::process::id()));
    let mut colds = Vec::new();
    let mut warms = Vec::new();
    for _ in 0..rounds {
        let _ = std::fs::remove_dir_all(&dir);
        colds.push(start_process("cold_start", &named_kernels, &dir));
        warms.push(start_process("disk_warm_start", &named_kernels, &dir));
    }
    colds.sort_by_key(|row| row.wall);
    warms.sort_by_key(|row| row.wall);
    let cold = colds.swap_remove(colds.len() / 2);
    let warm = warms.swap_remove(warms.len() / 2);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        cold.disk_misses,
        kernels.len() as u64,
        "a cold start must build every kernel"
    );
    assert_eq!(
        warm.disk_hits,
        kernels.len() as u64,
        "a warm start must serve every kernel from disk"
    );
    let disk_warm_vs_cold = cold.wall.as_secs_f64() / warm.wall.as_secs_f64();

    println!();
    println!(
        "{:<18} {:>10} {:>10} {:>11}",
        "config", "wall (ms)", "disk hits", "disk misses"
    );
    println!("{:-<18} {:->10} {:->10} {:->11}", "", "", "", "");
    for row in [&cold, &warm] {
        println!(
            "{:<18} {:>10.2} {:>10} {:>11}",
            row.config,
            row.wall.as_secs_f64() * 1000.0,
            row.disk_hits,
            row.disk_misses,
        );
    }
    println!();
    println!("build speedup at {max_threads} thread(s): {speedup_max:.2}x");
    println!("disk-warm start vs cold start:  {disk_warm_vs_cold:.2}x");
    if cores == 1 {
        println!("note: single-core machine — thread scaling cannot exceed ~1x here");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"polybench_n\":{polybench_n},\"kernels\":{},\"functions\":{functions},\
         \"repeats\":{repeats},\"cores\":{cores},\"max_threads\":{max_threads},\
         \"speedup_max_threads\":{speedup_max:.3},\
         \"disk_warm_vs_cold\":{disk_warm_vs_cold:.3},\"threads\":[",
        kernels.len(),
    );
    for (i, row) in thread_rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"threads\":{},\"wall_ms\":{:.3},\"speedup\":{:.3}}}",
            row.threads,
            row.wall.as_secs_f64() * 1000.0,
            row.speedup,
        );
    }
    json.push_str("],\"disk\":[");
    for (i, row) in [&cold, &warm].into_iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"config\":\"{}\",\"wall_ms\":{:.3},\"disk_hits\":{},\"disk_misses\":{}}}",
            row.config,
            row.wall.as_secs_f64() * 1000.0,
            row.disk_hits,
            row.disk_misses,
        );
    }
    json.push_str("]}");
    std::fs::write(&args.out, &json).expect("write parallel json");
    println!("wrote {}", args.out);
}
