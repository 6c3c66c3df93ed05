//! Property test for the batch fleet (ISSUE 5 acceptance criterion):
//! N jobs pushed through a `Fleet`, whose workers claim them from one
//! shared cursor — random worker counts, shared `ModuleCache`, random
//! job→module assignment, random analysis subsets — produce report JSON
//! **identical** to the same jobs run sequentially through the `Pipeline`
//! API, and in submission order.
//!
//! Also: the shared cache performs **exactly one** instrument+translate
//! per distinct (module, analysis hook set), no matter how many jobs or
//! workers touch it, observed through the cache's own counters (immune to
//! the process-global stats other tests mutate concurrently).

use std::sync::Arc;

use proptest::prelude::*;

use wasabi_repro::analyses::registry;
use wasabi_repro::core::cache::ModuleCache;
use wasabi_repro::core::fleet::Job;
use wasabi_repro::core::hooks::Analysis;
use wasabi_repro::core::Wasabi;
use wasabi_repro::wasm::Module;
use wasabi_repro::workloads::synthetic::{synthetic_app, SyntheticConfig};

/// Reports of `names` run fused through a sequential [`Wasabi`] pipeline.
fn sequential_reports(module: &Module, names: &[String]) -> Vec<String> {
    let mut analyses: Vec<Box<dyn Analysis>> = names
        .iter()
        .map(|name| registry::by_name(name).expect("registered"))
        .collect();
    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    let mut pipeline = builder.build(module).expect("instruments");
    pipeline.run("main", &[]).expect("runs");
    pipeline
        .reports()
        .iter()
        .map(|report| report.to_json())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::env_cases(10),
        ..ProptestConfig::default()
    })]

    #[test]
    fn fleet_batches_match_sequential_pipelines(
        seed in any::<u64>(),
        module_count in 1usize..4,
        job_count in 1usize..10,
        workers in 1usize..7,
        // Per-job analysis subsets, decoded from bitmasks (0 = no
        // analyses: the job runs uninstrumented).
        masks in proptest::collection::vec(0u32..512, 10),
        picks in proptest::collection::vec(0usize..4, 10),
    ) {
        let modules: Vec<Arc<Module>> = (0..module_count)
            .map(|i| {
                Arc::new(synthetic_app(&SyntheticConfig {
                    seed: seed.wrapping_add(i as u64),
                    function_count: 3,
                    body_statements: 3,
                }))
            })
            .collect();

        // Random job list over the module corpus.
        let jobs: Vec<(usize, Vec<String>)> = (0..job_count)
            .map(|j| {
                let module = picks[j] % module_count;
                let names: Vec<String> = registry::NAMES
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| masks[j] & (1 << i) != 0)
                    .map(|(_, name)| name.to_string())
                    .collect();
                (module, names)
            })
            .collect();

        // Sequential baseline: one pipeline per job, in submission order.
        let expected: Vec<Vec<String>> = jobs
            .iter()
            .map(|(module, names)| sequential_reports(&modules[*module], names))
            .collect();

        // The same jobs through a shared-cache fleet.
        let cache = ModuleCache::shared();
        let mut fleet = registry::fleet()
            .workers(workers)
            .cache(Arc::clone(&cache))
            .build();
        for (module, names) in &jobs {
            fleet.submit(
                Job::new(format!("m{module}"), Arc::clone(&modules[*module]), "main", vec![])
                    .analyses(names.iter().cloned()),
            );
        }
        let batch = fleet.run();

        prop_assert!(batch.all_ok());
        prop_assert_eq!(batch.jobs.len(), job_count);
        for (i, outcome) in batch.jobs.iter().enumerate() {
            prop_assert_eq!(outcome.job, i, "submission order preserved");
            let got: Vec<String> = outcome.reports.iter().map(|r| r.to_json()).collect();
            prop_assert_eq!(
                &got,
                &expected[i],
                "job {} (module {}, workers {})",
                i,
                jobs[i].0,
                workers
            );
        }

        // Exactly one translation per distinct (module, hook set): the
        // cache's own counters say how many builds happened.
        let distinct: std::collections::HashSet<(usize, Vec<String>)> = jobs
            .iter()
            .map(|(module, names)| {
                // The cache keys on the UNION HOOK SET, not the name list;
                // map names to their hook set to count distinct entries.
                let mut hooks: Vec<String> = names
                    .iter()
                    .flat_map(|n| {
                        registry::by_name(n)
                            .expect("registered")
                            .hooks()
                            .iter()
                            .map(|h| h.name().to_string())
                            .collect::<Vec<_>>()
                    })
                    .collect();
                hooks.sort();
                hooks.dedup();
                (*module, hooks)
            })
            .collect();
        prop_assert_eq!(cache.misses(), distinct.len() as u64);
        prop_assert_eq!(cache.hits(), (job_count - distinct.len()) as u64);
        prop_assert_eq!(cache.len(), distinct.len());
    }
}

/// Deterministic (non-property) cache sharing test: J jobs over D modules
/// translate exactly D times, and re-running the same fleet over its warm
/// cache translates zero times more.
#[test]
fn one_translation_per_distinct_module_across_batches() {
    let modules: Vec<Arc<Module>> = (0..3)
        .map(|i| {
            Arc::new(synthetic_app(&SyntheticConfig {
                seed: 17 + i,
                function_count: 3,
                body_statements: 3,
            }))
        })
        .collect();

    let cache = ModuleCache::shared();
    let mut fleet = registry::fleet()
        .workers(4)
        .cache(Arc::clone(&cache))
        .build();
    for round in 0..4 {
        for (i, module) in modules.iter().enumerate() {
            fleet.submit(
                Job::new(format!("m{i}"), Arc::clone(module), "main", vec![])
                    .analyses(["instruction_mix"]),
            );
        }
        let batch = fleet.run();
        assert!(batch.all_ok());
        if round == 0 {
            assert_eq!(batch.cache_misses, 3, "first batch builds each module once");
        } else {
            assert_eq!(batch.cache_misses, 0, "later batches are fully warm");
            assert_eq!(batch.cache_hits, 3);
        }
    }
    assert_eq!(
        cache.misses(),
        3,
        "exactly one translation per distinct module"
    );
    assert_eq!(cache.hits(), 9);

    // A different analysis set on the same modules is a different hook
    // set, hence new entries — still exactly one build each.
    for (i, module) in modules.iter().enumerate() {
        fleet.submit(
            Job::new(format!("m{i}"), Arc::clone(module), "main", vec![])
                .analyses(["memory_tracing"]),
        );
    }
    assert!(fleet.run().all_ok());
    assert_eq!(cache.misses(), 6);
    assert_eq!(cache.len(), 6);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::env_cases(10),
        ..ProptestConfig::default()
    })]

    /// PR 7 satellite: the streaming completion callback delivers the
    /// SAME result set as a submission-ordered batch run — every job
    /// exactly once, payloads identical once re-sorted by submission
    /// index — and the callback fires in completion order (per-outcome
    /// delivery indices exist for every job; nothing is held back until
    /// the end).
    #[test]
    fn streamed_outcomes_match_submission_ordered_batches(
        seed in any::<u64>(),
        module_count in 1usize..3,
        job_count in 1usize..8,
        workers in 1usize..5,
        masks in proptest::collection::vec(0u32..512, 8),
        picks in proptest::collection::vec(0usize..3, 8),
    ) {
        let modules: Vec<Arc<Module>> = (0..module_count)
            .map(|i| {
                Arc::new(synthetic_app(&SyntheticConfig {
                    seed: seed.wrapping_add(i as u64),
                    function_count: 3,
                    body_statements: 3,
                }))
            })
            .collect();
        let jobs: Vec<(usize, Vec<String>)> = (0..job_count)
            .map(|j| {
                let module = picks[j] % module_count;
                let names: Vec<String> = registry::NAMES
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| masks[j] & (1 << i) != 0)
                    .map(|(_, name)| name.to_string())
                    .collect();
                (module, names)
            })
            .collect();

        let build = |cache: &Arc<ModuleCache>| {
            let mut fleet = registry::fleet()
                .workers(workers)
                .cache(Arc::clone(cache))
                .build();
            for (module, names) in &jobs {
                fleet.submit(
                    Job::new(
                        format!("m{module}"),
                        Arc::clone(&modules[*module]),
                        "main",
                        vec![],
                    )
                    .analyses(names.iter().cloned()),
                );
            }
            fleet
        };

        // Reference: the submission-ordered batch API.
        let batch = build(&ModuleCache::shared()).run();
        prop_assert!(batch.all_ok());

        // Same jobs, fresh fleet + cache, through the streaming API.
        let mut streamed = Vec::new();
        let summary = build(&ModuleCache::shared()).run_streaming(|outcome| {
            streamed.push(outcome);
        });

        // Summary agrees with the batch on everything deterministic.
        prop_assert_eq!(summary.jobs, batch.jobs.len());
        prop_assert_eq!(summary.cache_hits, batch.cache_hits);
        prop_assert_eq!(summary.cache_misses, batch.cache_misses);

        // Every job exactly once (completion order is a permutation of
        // the submission indices)...
        let mut seen: Vec<usize> = streamed.iter().map(|o| o.job).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..job_count).collect::<Vec<_>>());

        // ...and payload-identical to the batch once re-sorted into
        // submission order.
        streamed.sort_by_key(|o| o.job);
        for (streamed, batched) in streamed.iter().zip(&batch.jobs) {
            prop_assert_eq!(&streamed.key, &batched.key);
            prop_assert_eq!(&streamed.invoke, &batched.invoke);
            prop_assert_eq!(
                format!("{:?}", streamed.result),
                format!("{:?}", batched.result)
            );
            let streamed_reports: Vec<String> =
                streamed.reports.iter().map(|r| r.to_json()).collect();
            let batched_reports: Vec<String> =
                batched.reports.iter().map(|r| r.to_json()).collect();
            prop_assert_eq!(streamed_reports, batched_reports);
            // NOT compared: per-job cache_hit. Which racing job wins the
            // build slot is scheduling-dependent; only the totals are
            // deterministic (asserted on the summaries above).
        }
    }
}
