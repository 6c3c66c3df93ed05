//! Batch analysis with the worker fleet: many (module × analysis-set ×
//! input) jobs, one shared translated-module cache, workers claiming
//! jobs from one shared queue.
//!
//! Each distinct (module, hook set) pair is validated, instrumented, and
//! flat-IR-translated exactly once — every further job on it is a cache
//! hit that only pays instantiation + execution. Results come back in
//! submission order with per-job phase times and cache facts.
//!
//! Run with: `cargo run --release --example batch_fleet`

use std::sync::Arc;

use wasabi_repro::analyses::registry;
use wasabi_repro::core::fleet::Job;
use wasabi_repro::workloads::{compile, polybench};

fn main() {
    // A small corpus: four PolyBench kernels, shared via Arc.
    let kernels: Vec<(String, Arc<wasabi_repro::wasm::Module>)> = ["gemm", "atax", "mvt", "syrk"]
        .iter()
        .map(|name| {
            let program = polybench::by_name(name, 6).expect("known kernel");
            (format!("{name}.wasm"), Arc::new(compile(&program)))
        })
        .collect();

    // Two analysis sets per kernel = 8 jobs over 8 cache entries; running
    // the batch twice shows full warm-cache amortization.
    let mut fleet = registry::fleet().workers(4).build();
    for round in 0..2 {
        for (key, module) in &kernels {
            fleet.submit(
                Job::new(key.clone(), Arc::clone(module), "main", vec![])
                    .analyses(["instruction_mix", "call_graph"]),
            );
            fleet.submit(
                Job::new(key.clone(), Arc::clone(module), "main", vec![])
                    .analyses(["branch_coverage"]),
            );
        }
        let batch = fleet.run();
        assert!(batch.all_ok(), "all jobs succeed");
        println!(
            "round {round}: {} jobs on {} workers in {:.1} ms = {:.0} jobs/sec \
             ({} cache hits, {} misses)",
            batch.jobs.len(),
            batch.workers,
            batch.wall.as_secs_f64() * 1000.0,
            batch.jobs_per_sec(),
            batch.cache_hits,
            batch.cache_misses,
        );
        if round == 0 {
            assert_eq!(batch.cache_misses, 8, "one build per (module, hook set)");
        } else {
            assert_eq!(batch.cache_misses, 0, "second round is fully warm");
        }
    }

    // Reports are per job and in submission order, exactly as a
    // sequential Pipeline would produce them.
    let (key, module) = &kernels[0];
    fleet.submit(
        Job::new(key.clone(), Arc::clone(module), "main", vec![]).analyses(["instruction_mix"]),
    );
    let batch = fleet.run();
    let report = &batch.jobs[0].reports[0];
    println!(
        "sample report for {key}: analysis={}, {} bytes of JSON",
        report.analysis,
        report.to_json().len(),
    );
}
