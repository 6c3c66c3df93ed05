//! Batch-throughput baseline for the `wasabi::fleet` engine: the same job
//! list (PolyBench kernels × analyses × repeats) is pushed through a
//! `Fleet` at 1 worker vs. all cores, each on a cold vs. a pre-warmed
//! shared `ModuleCache`, and the jobs/sec of each configuration is
//! recorded as JSON.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin fleet \
//!     [polybench_n] [kernel_count] [--out <path>] [--smoke]
//! ```
//!
//! Default output path: `BENCH_fleet.json` in the current directory.
//! `--smoke` shrinks the workload for CI. The headline ratios:
//!
//! - **amortization** (warm vs. cold at 1 worker): what the shared
//!   translated-module cache saves once every distinct (module, hook set)
//!   has been validated + instrumented + translated exactly once.
//! - **scaling** (1 worker vs. all cores, both warm): what the worker
//!   fleet, claiming jobs from one shared cursor, adds on top. On a single-core machine
//!   this is ~1x by construction — the JSON records `cores` so the gate
//!   in `ci.sh` can judge the numbers in context.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use wasabi::cache::ModuleCache;
use wasabi::fleet::Job;
use wasabi_analyses::registry;
use wasabi_bench::BenchArgs;
use wasabi_wasm::module::Module;
use wasabi_workloads::{compile, polybench};

/// The analyses each job runs. Light hook sets keep per-job execution
/// close to uninstrumented speed, so the cold-vs-warm contrast measures
/// the cache, not the analyses.
const JOB_ANALYSES: [&str; 1] = ["call_graph"];

struct Row {
    config: &'static str,
    workers: usize,
    warm: bool,
    wall: Duration,
    jobs: usize,
    jobs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn job_list(kernels: &[(String, Arc<Module>)], repeats: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for _ in 0..repeats {
        for (name, module) in kernels {
            jobs.push(
                Job::new(name.clone(), Arc::clone(module), "main", vec![])
                    .analyses(JOB_ANALYSES.iter().copied()),
            );
        }
    }
    jobs
}

/// Run the job list through a fleet `rounds` times (fresh cache each
/// round) and keep the median round by wall time.
fn run_config(
    config: &'static str,
    kernels: &[(String, Arc<Module>)],
    repeats: usize,
    workers: usize,
    warm: bool,
    rounds: usize,
) -> Row {
    let mut measured: Vec<Row> = (0..rounds)
        .map(|_| run_once(config, kernels, repeats, workers, warm))
        .collect();
    measured.sort_by_key(|row| row.wall);
    measured.swap_remove(measured.len() / 2)
}

/// One measured batch.
fn run_once(
    config: &'static str,
    kernels: &[(String, Arc<Module>)],
    repeats: usize,
    workers: usize,
    warm: bool,
) -> Row {
    let cache = ModuleCache::shared();
    if warm {
        // Prime every (module, hook set) entry, untimed.
        let mut primer = registry::fleet()
            .workers(workers)
            .cache(Arc::clone(&cache))
            .build();
        for job in job_list(kernels, 1) {
            primer.submit(job);
        }
        assert!(primer.run().all_ok(), "priming batch failed");
    }
    let mut fleet = registry::fleet().workers(workers).cache(cache).build();
    for job in job_list(kernels, repeats) {
        fleet.submit(job);
    }
    let batch = fleet.run();
    assert!(batch.all_ok(), "{config}: a job failed");
    Row {
        config,
        workers: batch.workers,
        warm,
        wall: batch.wall,
        jobs: batch.jobs.len(),
        jobs_per_sec: batch.jobs_per_sec(),
        cache_hits: batch.cache_hits,
        cache_misses: batch.cache_misses,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_fleet.json");
    let smoke = args.smoke;
    // Small n on purpose: per-job execution stays cheap, so the numbers
    // contrast the cache + scheduling, not the kernels.
    let default_n: u32 = if smoke { 4 } else { 6 };
    // Full mode: every PolyBench kernel exactly once per batch, so a cold
    // batch pays one instrument+translate per job and a warm batch pays
    // none — the purest cold-vs-warm contrast. Smoke keeps a repeat so
    // the intra-batch cache path is exercised too.
    let default_kernels: usize = if smoke { 2 } else { polybench::NAMES.len() };
    let repeats: usize = if smoke { 2 } else { 1 };
    let rounds: usize = if smoke { 1 } else { 3 };
    let polybench_n: u32 = args.positional(0, default_n);
    let kernel_count: usize = args.positional(1, default_kernels);

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Even on one core, run the "all cores" configs with >= 2 workers so
    // workers actually contend for the shared cursor.
    let max_workers = cores.max(2);

    let kernels: Vec<(String, Arc<Module>)> = polybench::NAMES
        .iter()
        .take(kernel_count)
        .map(|name| {
            let program = polybench::by_name(name, polybench_n).expect("known kernel");
            (format!("{name}.wasm"), Arc::new(compile(&program)))
        })
        .collect();

    println!(
        "Fleet throughput: {} kernels x {:?} x {repeats} repeats = {} jobs \
         (PolyBench n={polybench_n}, {cores} core(s), max {max_workers} workers)",
        kernels.len(),
        JOB_ANALYSES,
        kernels.len() * repeats,
    );
    println!();
    println!(
        "{:<16} {:>8} {:>6} {:>10} {:>10} {:>6} {:>7}",
        "config", "workers", "warm", "wall (ms)", "jobs/sec", "hits", "misses"
    );
    println!(
        "{:-<16} {:->8} {:->6} {:->10} {:->10} {:->6} {:->7}",
        "", "", "", "", "", "", ""
    );

    let rows = [
        run_config("cold_1worker", &kernels, repeats, 1, false, rounds),
        run_config("warm_1worker", &kernels, repeats, 1, true, rounds),
        run_config(
            "cold_allcores",
            &kernels,
            repeats,
            max_workers,
            false,
            rounds,
        ),
        run_config(
            "warm_allcores",
            &kernels,
            repeats,
            max_workers,
            true,
            rounds,
        ),
    ];
    for row in &rows {
        println!(
            "{:<16} {:>8} {:>6} {:>10.1} {:>10.1} {:>6} {:>7}",
            row.config,
            row.workers,
            row.warm,
            row.wall.as_secs_f64() * 1000.0,
            row.jobs_per_sec,
            row.cache_hits,
            row.cache_misses,
        );
    }

    let by_config = |config: &str| {
        rows.iter()
            .find(|r| r.config == config)
            .expect("config measured")
    };
    let amortization =
        by_config("warm_1worker").jobs_per_sec / by_config("cold_1worker").jobs_per_sec;
    let scaling_warm =
        by_config("warm_allcores").jobs_per_sec / by_config("warm_1worker").jobs_per_sec;
    let warm_allcores_vs_cold_1worker =
        by_config("warm_allcores").jobs_per_sec / by_config("cold_1worker").jobs_per_sec;
    println!();
    println!("cache amortization (warm vs cold, 1 worker):   {amortization:.2}x");
    println!("worker scaling (1 -> {max_workers} workers, warm):        {scaling_warm:.2}x");
    println!("warm all-cores vs cold 1-worker:               {warm_allcores_vs_cold_1worker:.2}x");
    if cores == 1 {
        println!("note: single-core machine — worker scaling cannot exceed ~1x here");
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"polybench_n\":{polybench_n},\"kernels\":{},\"repeats\":{repeats},\
         \"jobs\":{},\"analyses\":[{}],\"cores\":{cores},\"max_workers\":{max_workers},\
         \"amortization_warm_vs_cold_1worker\":{amortization:.3},\
         \"scaling_1worker_to_allcores_warm\":{scaling_warm:.3},\
         \"warm_allcores_vs_cold_1worker\":{warm_allcores_vs_cold_1worker:.3},\
         \"rows\":[",
        kernels.len(),
        kernels.len() * repeats,
        JOB_ANALYSES
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(","),
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"config\":\"{}\",\"workers\":{},\"warm\":{},\"wall_ms\":{:.3},\
             \"jobs\":{},\"jobs_per_sec\":{:.3},\"cache_hits\":{},\"cache_misses\":{}}}",
            row.config,
            row.workers,
            row.warm,
            row.wall.as_secs_f64() * 1000.0,
            row.jobs,
            row.jobs_per_sec,
            row.cache_hits,
            row.cache_misses,
        );
    }
    json.push_str("]}");
    std::fs::write(&args.out, &json).expect("write fleet json");
    println!("wrote {}", args.out);
}
