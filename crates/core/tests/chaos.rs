//! Chaos differential suite (ISSUE 9 tentpole): run realistic fleet
//! batches under seeded fault injection and resource governance, and
//! assert the robustness invariants the paper's tooling story depends on:
//!
//! 1. Every injected fault surfaces as a *structured* per-job error on a
//!    surviving process — no crash, no hang, no silent wrong answer.
//! 2. Bounded retries actually bound: a persistent transient fault fails
//!    after exactly the configured number of retries.
//! 3. A cancelled or deadline-exceeded job releases its worker promptly;
//!    sibling jobs in the same batch complete.
//! 4. Jobs that survive a faulted run produce results and analysis
//!    reports bit-identical to a fault-free run of the same batch.
//!
//! The fault registry is process-global, so every test here serializes on
//! [`wasabi::fault::test_lock`] — including the ones that inject nothing,
//! because they must observe an *empty* registry.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wasabi::event::{AnalysisCtx, BinaryEvt};
use wasabi::fleet::JobError;
use wasabi::hooks::{Analysis, Hook, HookSet};
use wasabi::{fault, Budget, CancelToken, DiskCache, Fleet, Job, ModuleCache, Report, Wasabi};
use wasabi_vm::Trap;
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;
use wasabi_wasm::types::ValType;

fn square_module() -> Module {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).get_local(0u32).i32_mul();
    });
    builder.finish()
}

fn spin_module() -> Module {
    let mut builder = ModuleBuilder::new();
    builder.function("spin", &[], &[], |f| {
        f.block(None).loop_(None).br(0).end().end();
    });
    builder.finish()
}

/// Counts binary ops — deterministic per input, so its report is a
/// bit-exact differential witness.
#[derive(Default)]
struct Binaries(u64);
impl Analysis for Binaries {
    fn name(&self) -> &str {
        "binaries"
    }
    fn hooks(&self) -> HookSet {
        HookSet::of(&[Hook::Binary])
    }
    fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) {
        self.0 += 1;
    }
    fn report(&self) -> Report {
        Report::new("binaries", self.0.into())
    }
}

fn factory(name: &str) -> Option<Box<dyn Analysis>> {
    match name {
        "binaries" => Some(Box::new(Binaries::default())),
        _ => None,
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Eight governed-but-unfaulted square jobs, analyses attached.
fn square_batch(module: &Arc<Module>) -> Vec<Job> {
    (0..8)
        .map(|i| {
            Job::new("square", Arc::clone(module), "main", vec![Val::I32(i)]).analyses(["binaries"])
        })
        .collect()
}

/// Run a batch on a fresh fleet and return `(result, report-json)` rows.
#[allow(clippy::type_complexity)]
fn run_batch(
    jobs: Vec<Job>,
    disk: Option<DiskCache>,
    retries: u32,
) -> Vec<(Result<Vec<Val>, String>, Vec<String>)> {
    let mut cache = ModuleCache::new();
    if let Some(disk) = disk {
        cache = cache.with_disk(disk);
    }
    let mut fleet = Fleet::builder()
        .workers(2)
        .factory(factory)
        .cache(Arc::new(cache))
        .retries(retries)
        .build();
    for job in jobs {
        fleet.submit(job);
    }
    fleet
        .run()
        .jobs
        .into_iter()
        .map(|o| {
            (
                o.result.map_err(|e| e.to_string()),
                o.reports.iter().map(Report::to_json).collect(),
            )
        })
        .collect()
}

#[test]
fn faulted_runs_degrade_to_structured_errors_and_identical_survivors() {
    let _serial = fault::test_lock();
    fault::clear();
    let module = Arc::new(square_module());
    let baseline = run_batch(square_batch(&module), None, 0);
    assert!(baseline.iter().all(|(r, _)| r.is_ok()), "baseline is clean");

    // Each spec exercises one failpoint site. `disk/*` faults are
    // absorbed (a failed load is a miss, a failed store is a counted
    // warning); `cache/build` and unrecovered `fleet/job` faults must
    // surface as structured per-job errors; retried `fleet/job` faults
    // must recover completely.
    let specs = [
        "disk/load=error",
        "disk/store=error",
        "cache/build=error:0.5",
        "fleet/job=error:0.4",
        "fleet/job=panic:0.4:2",
    ];
    for spec in specs {
        for seed in [1, 42, 1337] {
            let dir = temp_dir("faulted");
            fault::configure(spec, seed).unwrap();
            let out = run_batch(
                square_batch(&module),
                Some(DiskCache::new(&dir).unwrap()),
                2,
            );
            fault::clear();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(out.len(), baseline.len(), "{spec}@{seed}: no lost jobs");
            for (i, (row, want)) in out.iter().zip(&baseline).enumerate() {
                match &row.0 {
                    // Survivor: bit-identical to the fault-free run.
                    Ok(_) => assert_eq!(row, want, "{spec}@{seed}: job {i} diverged"),
                    // Casualty: a structured, printable error.
                    Err(message) => {
                        assert!(!message.is_empty(), "{spec}@{seed}: job {i} lost its error")
                    }
                }
            }
        }
    }
}

#[test]
fn retry_budget_is_a_hard_bound() {
    let _serial = fault::test_lock();
    fault::clear();
    let module = Arc::new(square_module());
    fault::configure("fleet/job=error", 9).unwrap();
    let before = fault::hits("fleet/job");
    let out = run_batch(
        vec![Job::new("square", module, "main", vec![Val::I32(3)])],
        None,
        2,
    );
    let attempts = fault::hits("fleet/job") - before;
    fault::clear();
    assert!(
        matches!(&out[0].0, Err(m) if m.contains("transient")),
        "{:?}",
        out[0].0
    );
    assert_eq!(attempts, 3, "1 try + 2 retries, then the fleet gave up");
}

#[test]
fn deadline_reclaims_a_spinning_job_and_survivors_match_baseline() {
    let _serial = fault::test_lock();
    fault::clear();
    let square = Arc::new(square_module());
    let spin = Arc::new(spin_module());
    let baseline = run_batch(square_batch(&square), None, 0);

    let mut jobs = square_batch(&square);
    jobs.insert(
        4,
        Job::new("spin", spin, "spin", vec![]).deadline(Duration::from_millis(100)),
    );
    let started = Instant::now();
    let out = run_batch(jobs, None, 0);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the spinning job was reclaimed, not leaked"
    );
    assert_eq!(out[4].0, Err(JobError::TimedOut.to_string()));
    let survivors: Vec<_> = out
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 4)
        .map(|(_, row)| row.clone())
        .collect();
    assert_eq!(
        survivors, baseline,
        "governance left survivors bit-identical"
    );
}

#[test]
fn cancellation_releases_the_worker_and_the_batch_completes() {
    let _serial = fault::test_lock();
    fault::clear();
    let square = Arc::new(square_module());
    let spin = Arc::new(spin_module());
    let token = CancelToken::new();

    let mut fleet = Fleet::builder().workers(1).build();
    fleet.submit(Job::new("spin", spin, "spin", vec![]).cancel_token(token.clone()));
    fleet.submit(Job::new("square", square, "main", vec![Val::I32(5)]));

    // One worker: the spin job pins it until the token fires, the square
    // job is stuck behind it. Cancel from outside after a beat.
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        token.cancel();
    });
    let started = Instant::now();
    let batch = fleet.run();
    canceller.join().unwrap();

    assert!(matches!(
        batch.jobs[0].result.as_ref().unwrap_err(),
        JobError::Cancelled
    ));
    assert_eq!(batch.jobs[1].result.as_ref().unwrap(), &vec![Val::I32(25)]);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "cancellation released the worker promptly"
    );
}

#[test]
fn deadline_passing_during_a_stall_outside_the_vm_times_the_job_out() {
    let _serial = fault::test_lock();
    fault::clear();
    let square = Arc::new(square_module());
    let spin = Arc::new(spin_module());

    // Every job stalls 150 ms in the worker before it reaches the VM, so
    // the spin job's 100 ms deadline passes while nothing polls it. Its
    // first budget poll in the VM must see the expired deadline.
    fault::configure("fleet/job=delay150", 11).unwrap();
    let mut fleet = Fleet::builder().workers(1).build();
    fleet.submit(Job::new("spin", spin, "spin", vec![]).deadline(Duration::from_millis(100)));
    fleet.submit(Job::new("square", square, "main", vec![Val::I32(5)]));
    let started = Instant::now();
    let batch = fleet.run();
    fault::clear();

    assert!(
        matches!(
            batch.jobs[0].result.as_ref().unwrap_err(),
            JobError::TimedOut
        ),
        "{:?}",
        batch.jobs[0].result
    );
    assert_eq!(batch.jobs[1].result.as_ref().unwrap(), &vec![Val::I32(25)]);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the stalled job released the worker"
    );
}

/// `main(x)`: spins forever when `x != 0`, otherwise returns `x * x` —
/// one cohort input selects the runaway member.
fn conditional_spin_module() -> Module {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).if_(None);
        f.block(None).loop_(None).br(0).end().end();
        f.end();
        f.get_local(0u32).get_local(0u32).i32_mul();
    });
    builder.finish()
}

/// Run `inputs` through a fresh analysis pipeline as one cohort,
/// returning `(result, executed_instrs)` per member.
#[allow(clippy::type_complexity)]
fn run_cohort(
    module: &Module,
    inputs: &[i32],
    budget: Option<Budget>,
) -> Vec<(Result<Vec<Val>, Trap>, u64)> {
    let mut binaries = Binaries::default();
    let mut builder = Wasabi::builder().analysis(&mut binaries);
    if let Some(budget) = budget {
        builder = builder.budget(budget);
    }
    let mut pipeline = builder.build(module).expect("module validates");
    let args: Vec<Vec<Val>> = inputs.iter().map(|&i| vec![Val::I32(i)]).collect();
    pipeline
        .run_cohort("main", &args)
        .into_iter()
        .map(|o| (o.result, o.executed_instrs))
        .collect()
}

#[test]
fn cohort_step_faults_retire_only_the_struck_member() {
    // An injected error or panic at the `cohort/step` failpoint lands on
    // exactly one member step: that member retires with a structured
    // trap, every sibling stays bit-identical to the fault-free cohort.
    let _serial = fault::test_lock();
    fault::clear();
    let module = square_module();
    let inputs: Vec<i32> = (0..8).collect();
    let baseline = run_cohort(&module, &inputs, None);
    assert!(baseline.iter().all(|(r, _)| r.is_ok()), "baseline is clean");

    let mut casualties = 0;
    for spec in ["cohort/step=error:0.35", "cohort/step=panic:0.35:3"] {
        for seed in [1, 42, 1337] {
            fault::configure(spec, seed).unwrap();
            let out = run_cohort(&module, &inputs, None);
            fault::clear();
            assert_eq!(out.len(), baseline.len(), "{spec}@{seed}: no lost members");
            for (i, (row, want)) in out.iter().zip(&baseline).enumerate() {
                match &row.0 {
                    Ok(_) => assert_eq!(row, want, "{spec}@{seed}: member {i} diverged"),
                    Err(trap) => {
                        casualties += 1;
                        assert!(
                            matches!(trap, Trap::HostError(m) if !m.is_empty()),
                            "{spec}@{seed}: member {i} lost its error: {trap:?}"
                        );
                    }
                }
            }
        }
    }
    assert!(casualties > 0, "the failpoint never fired across all seeds");
}

#[test]
fn cohort_deadline_retires_only_the_runaway_member() {
    // One member spins forever; the pipeline budget's deadline reclaims
    // it while its siblings — already finished in the first round —
    // stay bit-identical to an ungoverned cohort of the same inputs.
    let _serial = fault::test_lock();
    fault::clear();
    let module = conditional_spin_module();
    let baseline = run_cohort(&module, &[0, 0, 0], None);
    assert!(baseline.iter().all(|(r, _)| r.is_ok()), "baseline is clean");

    let started = Instant::now();
    let out = run_cohort(
        &module,
        &[0, 0, 1, 0],
        Some(Budget::new().deadline(Duration::from_millis(100))),
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the spinning member was reclaimed, not leaked"
    );
    assert_eq!(out[2].0, Err(Trap::DeadlineExceeded), "runaway member");
    for (survivor, want) in [&out[0], &out[1], &out[3]].into_iter().zip(&baseline) {
        assert_eq!(survivor, want, "sibling bit-identical to fault-free cohort");
    }
}
