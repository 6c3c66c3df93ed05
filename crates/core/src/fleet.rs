//! Concurrent batch-analysis engine: run many (module × analysis-set ×
//! input) jobs over a work-stealing fleet of worker threads.
//!
//! The paper parallelizes *instrumentation* (§3, Table 5); this module
//! parallelizes *instrumented execution*. Three pieces make that cheap and
//! deterministic:
//!
//! - **Shared translations** — `wasabi_vm::TranslatedModule` is immutable
//!   and `Send + Sync` (asserted at compile time in the VM crate), so a
//!   [`crate::cache::ModuleCache`] hands every worker the same validated,
//!   instrumented, flat-IR-translated session; each job only instantiates
//!   per-run mutable state.
//! - **Registry-driven analyses** — a [`Job`] names its analyses; the
//!   fleet's [`AnalysisFactory`] (e.g. `wasabi_analyses::registry::by_name`)
//!   constructs **fresh instances inside the worker thread**, so analysis
//!   state never crosses threads and per-job reports are exactly what a
//!   sequential [`crate::pipeline::Pipeline`] run would produce.
//! - **Work stealing** — jobs are dealt round-robin onto per-worker FIFO
//!   deques (`crossbeam::deque`); an idle worker steals from the back of a
//!   busy neighbour's queue, so skewed job costs don't serialize the batch.
//!
//! Results come back in **submission order** regardless of which worker
//! ran what, with per-job [`JobStats`]: cache hit/miss, queue latency, and
//! fused build / execute phase times measured *per job* on the worker's
//! own clock (the process-global [`crate::stats`] phase timers aggregate
//! across threads and cannot attribute time to a job — see the caveat
//! there). A consumer that wants results **as they finish** — the
//! `wasabi-server` daemon streaming per-job frames back to a client —
//! uses [`Fleet::run_streaming`] instead, which delivers each
//! [`JobOutcome`] to a completion callback in completion order;
//! [`Fleet::run`] is the batch-at-end convenience built on top of it.
//!
//! # Examples
//!
//! ```
//! use wasabi::fleet::{Fleet, Job};
//! use wasabi_wasm::builder::ModuleBuilder;
//! use wasabi_wasm::{Val, ValType};
//!
//! let mut builder = ModuleBuilder::new();
//! builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
//!     f.get_local(0u32).get_local(0u32).i32_mul();
//! });
//! let module = builder.finish();
//!
//! // Three inputs through one shared module: translate once, execute
//! // three times. (No analyses here, so no factory is needed; see
//! // `wasabi_analyses::registry::fleet()` for a registry-wired builder.)
//! let mut fleet = Fleet::builder().workers(2).build();
//! for i in 1..=3 {
//!     fleet.submit(Job::new("square.wasm", module.clone(), "main", vec![Val::I32(i)]));
//! }
//! let batch = fleet.run();
//! let results: Vec<_> = batch
//!     .jobs
//!     .iter()
//!     .map(|job| job.result.as_ref().unwrap()[0])
//!     .collect();
//! assert_eq!(results, vec![Val::I32(1), Val::I32(4), Val::I32(9)]);
//! assert_eq!(batch.cache_misses, 1, "one translation for all three jobs");
//! assert_eq!(batch.cache_hits, 2);
//! ```

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::deque::{Steal, Stealer, Worker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wasabi_vm::{Budget, CancelToken, Trap};
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;
use wasabi_wasm::ValidationError;

use crate::cache::ModuleCache;
use crate::hooks::{Analysis, HookSet};
use crate::pipeline::Wasabi;
use crate::report::Report;
use crate::runtime::AnalysisError;
use crate::stats;

/// Constructs a fresh analysis instance from its registry name, **inside
/// the worker thread** that will run it. `wasabi_analyses::registry::by_name`
/// has exactly this signature; `None` means the name is unknown.
pub type AnalysisFactory = fn(&str) -> Option<Box<dyn Analysis>>;

/// One unit of batch work: a module, the analyses to run over it, and the
/// export + arguments to invoke.
#[derive(Debug, Clone)]
pub struct Job {
    /// Cache key identifying the module (a path, workload name, or content
    /// hash). Equal keys **must** name equal modules — the
    /// [`ModuleCache`] trusts this.
    pub key: String,
    /// The (uninstrumented) module. Shared, not cloned, across jobs.
    pub module: Arc<Module>,
    /// Registry names of the analyses to run fused over this job
    /// (may be empty: the job then runs uninstrumented).
    pub analyses: Vec<String>,
    /// The export to invoke.
    pub invoke: String,
    /// Arguments for the invoked export.
    pub args: Vec<Val>,
    /// Wall-clock execution deadline, measured from the moment a worker
    /// dequeues the job (each retry attempt gets a fresh deadline). The
    /// fleet watchdog fires it and the VM polls it; an expired job fails
    /// with [`JobError::TimedOut`] without losing the worker.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: fire the token (from any thread) and
    /// the job fails with [`JobError::Cancelled`] within one VM poll
    /// interval.
    pub cancel: Option<CancelToken>,
    /// Cap on the job's linear memory, in 64 KiB pages; `memory.grow`
    /// past it fails the job with [`JobError::MemoryLimit`].
    pub max_memory_pages: Option<u32>,
    /// `Some(inputs)` makes this a **sweep job**: the export is invoked
    /// once per input vector, as one interleaved cohort sharing a single
    /// instrumentation/translation/host-plan build (see
    /// [`crate::pipeline::Pipeline::run_cohort`]), instead of expanding
    /// into N fleet jobs. `args` is unused for sweep jobs. Per-input
    /// results land in [`JobOutcome::sweep`]; governance (deadline,
    /// cancellation, memory cap) applies to every member.
    pub sweep: Option<Vec<Vec<Val>>>,
}

impl Job {
    /// A job with no analyses; add them with [`Job::analyses`].
    pub fn new(
        key: impl Into<String>,
        module: impl Into<Arc<Module>>,
        invoke: impl Into<String>,
        args: Vec<Val>,
    ) -> Self {
        Job {
            key: key.into(),
            module: module.into(),
            analyses: Vec::new(),
            invoke: invoke.into(),
            args,
            deadline: None,
            cancel: None,
            max_memory_pages: None,
            sweep: None,
        }
    }

    /// A sweep job: invoke `invoke` once per entry of `inputs`, as one
    /// cohort (see [`Job::sweep`]).
    pub fn sweep(
        key: impl Into<String>,
        module: impl Into<Arc<Module>>,
        invoke: impl Into<String>,
        inputs: Vec<Vec<Val>>,
    ) -> Self {
        Job {
            sweep: Some(inputs),
            ..Job::new(key, module, invoke, Vec::new())
        }
    }

    /// Set the analyses to run (builder-style).
    pub fn analyses(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.analyses = names.into_iter().map(Into::into).collect();
        self
    }

    /// Execution deadline (builder-style); see [`Job::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cancellation token (builder-style); see [`Job::cancel`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Memory cap in pages (builder-style); see [`Job::max_memory_pages`].
    pub fn max_memory_pages(mut self, pages: u32) -> Self {
        self.max_memory_pages = Some(pages);
        self
    }
}

/// Why a job failed. Failures are per-job: one bad job does not abort the
/// batch.
#[derive(Debug)]
pub enum JobError {
    /// An analysis name the fleet's factory does not know (or no factory
    /// was configured while the job names analyses).
    UnknownAnalysis(String),
    /// The job's module failed validation during instrumentation.
    Invalid(ValidationError),
    /// Instantiation or execution failed.
    Run(AnalysisError),
    /// An analysis (or the job's execution) panicked; the payload's
    /// message. The panic is contained to this job — the rest of the
    /// batch completes normally.
    Panicked(String),
    /// The job's wall-clock deadline passed; the worker survives and
    /// moves on to the next job.
    TimedOut,
    /// The job's [`CancelToken`] was fired.
    Cancelled,
    /// The job grew its linear memory past [`Job::max_memory_pages`].
    MemoryLimit,
    /// A transient infrastructure failure (e.g. an injected fleet
    /// fault). Retried up to [`FleetBuilder::retries`] times before
    /// surfacing.
    Transient(String),
}

impl JobError {
    /// Would retrying the job plausibly succeed? Transient
    /// infrastructure failures and contained panics are retryable;
    /// validation failures, unknown analyses, traps, timeouts, and
    /// cancellations are not (retrying deterministic failures only
    /// burns workers).
    pub fn is_transient(&self) -> bool {
        matches!(self, JobError::Transient(_) | JobError::Panicked(_))
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::UnknownAnalysis(name) => write!(f, "unknown analysis {name:?}"),
            JobError::Invalid(e) => write!(f, "invalid module: {e}"),
            JobError::Run(e) => write!(f, "{e}"),
            JobError::Panicked(message) => write!(f, "job panicked: {message}"),
            JobError::TimedOut => f.write_str("job deadline exceeded"),
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::MemoryLimit => f.write_str("job memory limit exceeded"),
            JobError::Transient(message) => write!(f, "transient failure: {message}"),
        }
    }
}

impl Error for JobError {}

/// Per-job accounting, measured on the executing worker's own clock.
#[derive(Debug, Clone)]
pub struct JobStats {
    /// Whether the module cache already held this job's `(key, hook set)`
    /// entry.
    pub cache_hit: bool,
    /// Time from batch start to this job being dequeued by a worker.
    pub queue: Duration,
    /// Fused session-build time (validate + instrument + translate, the
    /// direct-emit pass) this job paid — zero on a cache hit.
    pub build: Duration,
    /// Instantiate + invoke time.
    pub execute: Duration,
    /// Index of the worker that executed the job.
    pub worker: usize,
    /// `true` if the job was stolen: executed by a different worker than
    /// the one it was dealt to.
    pub stolen: bool,
    /// Retry attempts this job consumed (0 = first attempt succeeded or
    /// failed fatally; the phase times are those of the **last**
    /// attempt).
    pub retries: u32,
}

/// One cohort member's result within a sweep job's [`JobOutcome::sweep`].
#[derive(Debug)]
pub struct SweepOutcome {
    /// Member index = position of the input in [`Job::sweep`].
    pub instance: u32,
    /// The member's invocation results, or why it failed. Failures are
    /// per-member: a trapping member does not fail its siblings.
    pub result: Result<Vec<Val>, JobError>,
    /// Instructions (weight units) the member executed.
    pub executed_instrs: u64,
}

/// The outcome of one [`Job`], in the [`BatchResult`]'s submission-ordered
/// list.
#[derive(Debug)]
pub struct JobOutcome {
    /// Submission index (equals this outcome's position in
    /// [`BatchResult::jobs`]).
    pub job: usize,
    /// The job's module cache key.
    pub key: String,
    /// The invoked export.
    pub invoke: String,
    /// The invocation's results, or why the job failed. For a sweep job
    /// this is `Ok(vec![])` when the cohort ran (per-member results are in
    /// [`JobOutcome::sweep`]); `Err` only for whole-job failures (unknown
    /// analysis, invalid module, injected fleet fault).
    pub result: Result<Vec<Val>, JobError>,
    /// One report per analysis, in the job's analysis order — identical to
    /// what a sequential [`crate::pipeline::Pipeline`] run would report.
    /// For a sweep job, analyses observe every member's events (tagged
    /// with the instance index), so reports aggregate the whole sweep.
    pub reports: Vec<Report>,
    /// Per-job phase times and scheduling facts.
    pub stats: JobStats,
    /// Per-member results of a sweep job, in input order; `None` for
    /// ordinary jobs.
    pub sweep: Option<Vec<SweepOutcome>>,
}

/// Everything a [`Fleet::run`] batch produced.
#[derive(Debug)]
pub struct BatchResult {
    /// One outcome per submitted job, **in submission order** (worker
    /// scheduling never reorders results).
    pub jobs: Vec<JobOutcome>,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Jobs whose `(key, hook set)` entry was already cached.
    pub cache_hits: u64,
    /// Jobs that built (direct-emit instrument+translate) a cache entry. Jobs
    /// that failed before or without a completed cache lookup (unknown
    /// analysis, validation failure, panic) count as neither hit nor
    /// miss.
    pub cache_misses: u64,
}

/// What a [`Fleet::run_streaming`] batch reports once every outcome has
/// been delivered to the completion callback: the batch-level facts of a
/// [`BatchResult`] without the outcomes themselves (those already
/// streamed).
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// Number of jobs the batch delivered.
    pub jobs: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Jobs whose `(key, hook set)` entry was already cached.
    pub cache_hits: u64,
    /// Jobs that built a cache entry (same attribution rules as
    /// [`BatchResult::cache_misses`]).
    pub cache_misses: u64,
}

impl BatchSummary {
    /// Batch throughput: completed jobs per second of wall time.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.jobs == 0 || self.wall.is_zero() {
            return 0.0;
        }
        self.jobs as f64 / self.wall.as_secs_f64()
    }
}

impl BatchResult {
    /// Batch throughput: completed jobs per second of wall time.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.jobs.is_empty() || self.wall.is_zero() {
            return 0.0;
        }
        self.jobs.len() as f64 / self.wall.as_secs_f64()
    }

    /// `true` if every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.result.is_ok())
    }
}

/// Builder for a [`Fleet`] — see the [module docs](crate::fleet) for an
/// end-to-end example.
#[derive(Default)]
pub struct FleetBuilder {
    workers: Option<usize>,
    cache: Option<Arc<ModuleCache>>,
    factory: Option<AnalysisFactory>,
    jobs: Vec<Job>,
    retries: u32,
}

impl FleetBuilder {
    /// Use `workers` threads (clamped to at least 1). Defaults to the
    /// machine's available parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Share `cache` with other fleets and submitters. Defaults to a
    /// fresh private cache.
    pub fn cache(mut self, cache: Arc<ModuleCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// How workers construct analyses from the names a [`Job`] carries
    /// (e.g. `wasabi_analyses::registry::by_name`). Without a factory,
    /// only jobs with an empty analysis list can run.
    pub fn factory(mut self, factory: AnalysisFactory) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Queue a job before building (builder-style; equivalent to
    /// [`Fleet::submit`] after [`FleetBuilder::build`]).
    pub fn submit(mut self, job: Job) -> Self {
        self.jobs.push(job);
        self
    }

    /// Retry a job up to `retries` extra times when it fails with a
    /// *transient* error ([`JobError::is_transient`]), with jittered
    /// exponential backoff between attempts. Deterministic failures
    /// (validation, traps, timeouts, cancellation) are never retried.
    /// Default: 0 (fail fast).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Finish configuration.
    pub fn build(self) -> Fleet {
        Fleet {
            workers: self.workers.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
            cache: self.cache.unwrap_or_else(ModuleCache::shared),
            factory: self.factory,
            pending: self.jobs,
            retries: self.retries,
        }
    }
}

impl fmt::Debug for FleetBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetBuilder")
            .field("workers", &self.workers)
            .field("jobs", &self.jobs.len())
            .field("has_factory", &self.factory.is_some())
            .finish()
    }
}

/// A work-stealing batch executor over a shared [`ModuleCache`]. Build
/// with [`Fleet::builder`], queue with [`Fleet::submit`], execute with
/// [`Fleet::run`].
pub struct Fleet {
    workers: usize,
    cache: Arc<ModuleCache>,
    factory: Option<AnalysisFactory>,
    pending: Vec<Job>,
    retries: u32,
}

/// A job dealt to a worker's deque, remembering its submission index and
/// home worker (to detect steals).
struct QueuedJob {
    idx: usize,
    home: usize,
    job: Job,
}

impl Fleet {
    /// Start building a fleet.
    pub fn builder() -> FleetBuilder {
        FleetBuilder::default()
    }

    /// Queue a job for the next [`Fleet::run`]; returns its submission
    /// index (= its position in [`BatchResult::jobs`]).
    pub fn submit(&mut self, job: Job) -> usize {
        self.pending.push(job);
        self.pending.len() - 1
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if no job is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The fleet's module cache (shared: warm it, inspect hit counts, or
    /// hand it to another fleet).
    pub fn cache(&self) -> &Arc<ModuleCache> {
        &self.cache
    }

    /// Configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run all queued jobs to completion and return their outcomes in
    /// submission order.
    ///
    /// Jobs are dealt round-robin onto per-worker FIFO deques; idle
    /// workers steal from the back of the busiest-looking neighbour.
    /// Failures are per-job ([`JobOutcome::result`]) — including a
    /// *panicking* analysis, which is caught and reported as
    /// [`JobError::Panicked`] — so the batch itself always completes.
    /// The fleet can be reused: submitting and running again keeps the
    /// (shared) cache warm.
    ///
    /// This is the batch-at-end convenience over [`Fleet::run_streaming`]:
    /// it buffers the streamed outcomes and reorders them by submission
    /// index.
    pub fn run(&mut self) -> BatchResult {
        let total = self.pending.len();
        let mut slots: Vec<Option<JobOutcome>> = (0..total).map(|_| None).collect();
        let summary = self.run_streaming(|outcome| {
            let idx = outcome.job;
            slots[idx] = Some(outcome);
        });
        let jobs: Vec<JobOutcome> = slots
            .into_iter()
            .map(|slot| slot.expect("every dealt job produces exactly one outcome"))
            .collect();
        BatchResult {
            jobs,
            wall: summary.wall,
            workers: summary.workers,
            cache_hits: summary.cache_hits,
            cache_misses: summary.cache_misses,
        }
    }

    /// Run all queued jobs, delivering each [`JobOutcome`] to
    /// `on_complete` **as it finishes** — in completion order, not
    /// submission order — and return the batch facts once every outcome
    /// has been delivered.
    ///
    /// The callback runs on the calling thread while the workers keep
    /// executing, so a consumer (the `wasabi-server` daemon streaming
    /// per-job result frames to a client) forwards early results while
    /// later jobs are still running instead of waiting for the whole
    /// batch. [`JobOutcome::job`] carries the submission index; the
    /// union of streamed outcomes is exactly what [`Fleet::run`] would
    /// return, job for job.
    pub fn run_streaming<F>(&mut self, mut on_complete: F) -> BatchSummary
    where
        F: FnMut(JobOutcome),
    {
        let jobs = std::mem::take(&mut self.pending);
        let total = jobs.len();
        let watched = jobs.iter().any(|job| job.deadline.is_some());
        let workers = self.workers.min(total.max(1));
        if total == 0 {
            return BatchSummary {
                jobs: 0,
                wall: Duration::ZERO,
                workers,
                cache_hits: 0,
                cache_misses: 0,
            };
        }

        // Deterministic deal: job i goes to deque i % workers. Stealing
        // may move it; the outcome records where it actually ran.
        let queues: Vec<Worker<QueuedJob>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        for (idx, job) in jobs.into_iter().enumerate() {
            let home = idx % workers;
            queues[home].push(QueuedJob { idx, home, job });
        }
        let stealers: Vec<Stealer<QueuedJob>> = queues.iter().map(Worker::stealer).collect();

        let started = Instant::now();
        let (sender, receiver) = mpsc::channel::<JobOutcome>();
        let cache = &self.cache;
        let factory = self.factory;
        let retries = self.retries;
        let stealers = &stealers;
        let watchdog = &Watchdog::default();

        // Hits and misses are counted from jobs whose cache lookup
        // actually completed; jobs that failed earlier (unknown analysis,
        // validation error) or panicked built nothing and count as
        // neither.
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;

        // The watchdog thread exists only when some job carries a
        // deadline: it fires expired tokens so even a job stuck outside
        // the VM's own deadline poll (e.g. stalled in a host call or an
        // injected delay) is reclaimed, without losing the worker.
        crossbeam::thread::scope(|scope| {
            if watched {
                scope.spawn(move |_| watchdog.run());
            }
            for (me, queue) in queues.into_iter().enumerate() {
                let sender = sender.clone();
                scope.spawn(move |_| {
                    loop {
                        // Own queue first (FIFO), then sweep the other
                        // workers' deques. No job is ever re-enqueued, so
                        // an empty sweep means the batch is drained.
                        let next = queue.pop().or_else(|| {
                            (1..stealers.len()).find_map(|offset| {
                                match stealers[(me + offset) % stealers.len()].steal() {
                                    Steal::Success(job) => Some(job),
                                    Steal::Empty | Steal::Retry => None,
                                }
                            })
                        });
                        let Some(queued) = next else { break };
                        let QueuedJob { idx, home, job } = queued;
                        let outcome = run_with_retries(
                            me, idx, home, &job, started, cache, factory, retries, watchdog,
                        );
                        if sender.send(outcome).is_err() {
                            break;
                        }
                    }
                });
            }

            // Stream outcomes on THIS thread while the workers run: the
            // channel closes once the last worker drops its sender, which
            // is what ends the drain loop.
            drop(sender);
            for outcome in receiver {
                if outcome.stats.cache_hit {
                    cache_hits += 1;
                } else if !matches!(
                    outcome.result,
                    Err(JobError::UnknownAnalysis(_))
                        | Err(JobError::Invalid(_))
                        | Err(JobError::Panicked(_))
                        | Err(JobError::Transient(_))
                ) {
                    cache_misses += 1;
                }
                on_complete(outcome);
            }
            watchdog.shut_down();
        })
        .expect("fleet worker panicked");

        let wall = started.elapsed();
        stats::record_fleet_jobs(total as u64);

        BatchSummary {
            jobs: total,
            wall,
            workers,
            cache_hits,
            cache_misses,
        }
    }
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.workers)
            .field("pending", &self.pending.len())
            .field("cache", &self.cache)
            .finish()
    }
}

/// Render a panic payload's message (the `&str`/`String` payloads
/// `panic!` produces; anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fleet's deadline enforcer: workers register `(expiry, token)`
/// pairs for deadline-carrying attempts; one thread scans every
/// [`Watchdog::TICK`] and fires expired tokens. The VM polls the same
/// tokens, so an expired job unwinds with a structured trap and the
/// worker moves on — nothing is killed, nothing leaks.
#[derive(Default)]
struct Watchdog {
    slots: Mutex<Vec<Option<(Instant, CancelToken)>>>,
    /// Registered-and-unfired entries. When this is zero the scan thread
    /// sleeps without touching the lock: a job that finished (or a cohort
    /// whose members all retired) before its deadline stops consuming
    /// watchdog ticks immediately, instead of its empty slot being
    /// re-scanned until batch end.
    active: AtomicUsize,
    done: AtomicBool,
}

impl Watchdog {
    const TICK: Duration = Duration::from_millis(2);

    fn register(&self, expires: Instant, token: CancelToken) -> usize {
        let mut slots = self.slots.lock().expect("watchdog lock");
        self.active.fetch_add(1, Ordering::Relaxed);
        if let Some(free) = slots.iter().position(Option::is_none) {
            slots[free] = Some((expires, token));
            free
        } else {
            slots.push(Some((expires, token)));
            slots.len() - 1
        }
    }

    fn release(&self, slot: usize) {
        // `take` so a slot the scan already fired is not double-counted.
        if self.slots.lock().expect("watchdog lock")[slot]
            .take()
            .is_some()
        {
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn shut_down(&self) {
        self.done.store(true, Ordering::Relaxed);
    }

    fn run(&self) {
        while !self.done.load(Ordering::Relaxed) {
            if self.active.load(Ordering::Relaxed) > 0 {
                let mut slots = self.slots.lock().expect("watchdog lock");
                let now = Instant::now();
                for slot in slots.iter_mut() {
                    if let Some((expires, token)) = slot {
                        if now >= *expires {
                            token.fire_deadline();
                            *slot = None;
                            self.active.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            std::thread::sleep(Self::TICK);
        }
    }
}

/// Run one job, retrying transient failures with jittered exponential
/// backoff. Panic containment lives here too: each attempt runs under
/// `catch_unwind`, so a panicking analysis (or injected panic fault)
/// fails — or retries — only its own job.
#[allow(clippy::too_many_arguments)]
fn run_with_retries(
    me: usize,
    idx: usize,
    home: usize,
    job: &Job,
    batch_started: Instant,
    cache: &ModuleCache,
    factory: Option<AnalysisFactory>,
    retries: u32,
    watchdog: &Watchdog,
) -> JobOutcome {
    // Deterministic jitter: seeded from the job's identity, not a global
    // RNG, so a chaos run's backoff schedule reproduces from its seed.
    let mut rng = SmallRng::seed_from_u64(0x9e37_79b9 ^ (idx as u64) << 8 ^ me as u64);
    let mut attempt = 0u32;
    loop {
        // Per-attempt governance: a fresh deadline (measured from attempt
        // start) and a token the watchdog can fire. An externally supplied
        // token is shared across attempts — cancelling cancels them all.
        let token = job.cancel.clone();
        let governed = job.deadline.is_some() || token.is_some() || job.max_memory_pages.is_some();
        let budget = governed.then(|| {
            let mut budget = Budget::new();
            let token = token.clone().unwrap_or_default();
            budget = budget.cancel_token(token);
            if let Some(deadline) = job.deadline {
                budget = budget.deadline(deadline);
            }
            if let Some(pages) = job.max_memory_pages {
                budget = budget.max_memory_pages(pages);
            }
            budget
        });
        let slot = match (&budget, job.deadline) {
            (Some(budget), Some(deadline)) => {
                let token = budget.token().expect("governed budget has a token").clone();
                Some(watchdog.register(Instant::now() + deadline, token))
            }
            _ => None,
        };

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(me, idx, home, job, batch_started, cache, factory, budget)
        }))
        .unwrap_or_else(|payload| JobOutcome {
            job: idx,
            key: job.key.clone(),
            invoke: job.invoke.clone(),
            result: Err(JobError::Panicked(panic_message(&*payload))),
            reports: Vec::new(),
            stats: JobStats {
                cache_hit: false,
                queue: batch_started.elapsed(),
                build: Duration::ZERO,
                execute: Duration::ZERO,
                worker: me,
                stolen: me != home,
                retries: 0,
            },
            sweep: None,
        });
        if let Some(slot) = slot {
            watchdog.release(slot);
        }

        let transient = matches!(&outcome.result, Err(e) if e.is_transient());
        if !transient || attempt >= retries {
            match &outcome.result {
                Err(JobError::TimedOut) => stats::record_job_timeout(),
                Err(JobError::Cancelled) => stats::record_job_cancellation(),
                _ => {}
            }
            return JobOutcome {
                stats: JobStats {
                    retries: attempt,
                    ..outcome.stats
                },
                ..outcome
            };
        }

        // Transient failure with budget left: back off (1, 2, 4, ... ms,
        // ±50% jitter, capped) and go again.
        stats::record_job_retry();
        attempt += 1;
        let base_ms = (1u64 << attempt.min(6)).min(50);
        let jitter = rng.gen_range(0..base_ms + 1);
        std::thread::sleep(Duration::from_millis(base_ms / 2 + jitter / 2));
    }
}

/// Execute one job on worker `me`: construct fresh analyses, fetch (or
/// build) the shared session, assemble a per-job pipeline, run, report.
#[allow(clippy::too_many_arguments)]
fn run_job(
    me: usize,
    idx: usize,
    home: usize,
    job: &Job,
    batch_started: Instant,
    cache: &ModuleCache,
    factory: Option<AnalysisFactory>,
    budget: Option<Budget>,
) -> JobOutcome {
    let queue = batch_started.elapsed();
    let mut stats = JobStats {
        cache_hit: false,
        queue,
        build: Duration::ZERO,
        execute: Duration::ZERO,
        worker: me,
        stolen: me != home,
        retries: 0,
    };
    let fail = |error: JobError, stats: JobStats| JobOutcome {
        job: idx,
        key: job.key.clone(),
        invoke: job.invoke.clone(),
        result: Err(error),
        reports: Vec::new(),
        stats,
        sweep: None,
    };

    // Failpoint: `error` → a retryable transient failure, `panic` →
    // contained by the attempt's catch_unwind, `delay` → a stalled
    // worker the deadline machinery has to reclaim.
    if let Some(message) = crate::fault::fire("fleet/job") {
        return fail(JobError::Transient(message), stats);
    }

    // Fresh analysis instances, constructed in THIS thread.
    let mut analyses: Vec<Box<dyn Analysis>> = Vec::with_capacity(job.analyses.len());
    for name in &job.analyses {
        match factory.and_then(|make| make(name)) {
            Some(analysis) => analyses.push(analysis),
            None => return fail(JobError::UnknownAnalysis(name.clone()), stats),
        }
    }
    let union: HookSet = analyses
        .iter()
        .fold(HookSet::empty(), |set, a| set.union(a.hooks()));

    let looked = match cache.session_for(&job.key, union, &job.module) {
        Ok(looked) => looked,
        Err(e) => return fail(JobError::Invalid(e), stats),
    };
    stats.cache_hit = looked.hit;
    stats.build = looked.build;

    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    if let Some(budget) = budget {
        builder = builder.budget(budget);
    }
    let mut pipeline = builder.build_shared(looked.session);

    // A sweep job runs its whole input set as one interleaved cohort:
    // one build, one pipeline, N instances. Per-member outcomes (traps
    // included) land in `JobOutcome::sweep`.
    if let Some(inputs) = &job.sweep {
        let execute_started = Instant::now();
        let outcomes = pipeline.run_cohort(&job.invoke, inputs);
        stats.execute = execute_started.elapsed();
        let reports = pipeline.reports();
        drop(pipeline);
        let sweep = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| SweepOutcome {
                instance: i as u32,
                result: outcome.result.map_err(|trap| match trap {
                    Trap::DeadlineExceeded => JobError::TimedOut,
                    Trap::Cancelled => JobError::Cancelled,
                    Trap::MemoryLimit => JobError::MemoryLimit,
                    other => JobError::Run(AnalysisError::Trap(other)),
                }),
                executed_instrs: outcome.executed_instrs,
            })
            .collect();
        return JobOutcome {
            job: idx,
            key: job.key.clone(),
            invoke: job.invoke.clone(),
            result: Ok(Vec::new()),
            reports,
            stats,
            sweep: Some(sweep),
        };
    }

    let execute_started = Instant::now();
    let result = pipeline.run(&job.invoke, &job.args);
    stats.execute = execute_started.elapsed();
    let reports = pipeline.reports();
    drop(pipeline);

    JobOutcome {
        job: idx,
        key: job.key.clone(),
        invoke: job.invoke.clone(),
        result: result.map_err(|error| match error {
            AnalysisError::Trap(Trap::DeadlineExceeded) => JobError::TimedOut,
            AnalysisError::Trap(Trap::Cancelled) => JobError::Cancelled,
            AnalysisError::Trap(Trap::MemoryLimit) => JobError::MemoryLimit,
            other => JobError::Run(other),
        }),
        reports,
        stats,
        sweep: None,
    }
}

#[cfg(test)]
mod tests {
    // Every job passes the process-global `fleet/job` failpoint, which two
    // tests below arm. So every test that runs jobs holds the fault test
    // lock: an injected fault must neither land in a sibling test's job
    // nor be used up by one.
    use super::*;
    use crate::event::{AnalysisCtx, BinaryEvt};
    use crate::hooks::Hook;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::ValType;

    fn square_module() -> Module {
        let mut builder = ModuleBuilder::new();
        builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
            f.get_local(0u32).get_local(0u32).i32_mul();
        });
        builder.finish()
    }

    /// A tiny factory for tests (core cannot depend on wasabi-analyses).
    fn test_factory(name: &str) -> Option<Box<dyn Analysis>> {
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
        #[derive(Default)]
        struct Panicker;
        impl Analysis for Panicker {
            fn name(&self) -> &str {
                "panicker"
            }
            fn hooks(&self) -> HookSet {
                HookSet::of(&[Hook::Binary])
            }
            fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) {
                panic!("analysis bug");
            }
        }
        match name {
            "binaries" => Some(Box::new(Binaries::default())),
            "panicker" => Some(Box::new(Panicker)),
            _ => None,
        }
    }

    #[test]
    fn empty_fleet_runs_to_an_empty_batch() {
        let mut fleet = Fleet::builder().workers(3).build();
        assert!(fleet.is_empty());
        let batch = fleet.run();
        assert!(batch.jobs.is_empty());
        assert_eq!(batch.jobs_per_sec(), 0.0);
        assert!(batch.all_ok());
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        for workers in [1, 2, 5, 16] {
            let mut fleet = Fleet::builder().workers(workers).build();
            for i in 0..12 {
                fleet.submit(Job::new(
                    "square",
                    Arc::clone(&module),
                    "main",
                    vec![Val::I32(i)],
                ));
            }
            let batch = fleet.run();
            assert!(batch.all_ok());
            for (i, outcome) in batch.jobs.iter().enumerate() {
                assert_eq!(outcome.job, i);
                assert_eq!(
                    outcome.result.as_ref().unwrap(),
                    &vec![Val::I32((i * i) as i32)],
                    "job {i} at {workers} workers"
                );
            }
            assert_eq!(batch.cache_misses, 1);
            assert_eq!(batch.cache_hits, 11);
        }
    }

    #[test]
    fn analyses_are_constructed_fresh_per_job() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(2).factory(test_factory).build();
        for i in 0..4 {
            fleet.submit(
                Job::new("square", Arc::clone(&module), "main", vec![Val::I32(i)])
                    .analyses(["binaries"]),
            );
        }
        let batch = fleet.run();
        assert!(batch.all_ok());
        for outcome in &batch.jobs {
            assert_eq!(outcome.reports.len(), 1);
            // One i32.mul per job — NOT accumulated across jobs, because
            // every job got a fresh instance.
            assert_eq!(
                outcome.reports[0].to_json(),
                r#"{"analysis":"binaries","data":1}"#
            );
        }
    }

    #[test]
    fn unknown_analysis_fails_only_its_job() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(2).factory(test_factory).build();
        fleet.submit(Job::new(
            "square",
            Arc::clone(&module),
            "main",
            vec![Val::I32(2)],
        ));
        fleet.submit(
            Job::new("square", Arc::clone(&module), "main", vec![Val::I32(3)])
                .analyses(["frobnicate"]),
        );
        let batch = fleet.run();
        assert!(batch.jobs[0].result.is_ok());
        let err = batch.jobs[1].result.as_ref().unwrap_err();
        assert!(matches!(err, JobError::UnknownAnalysis(name) if name == "frobnicate"));
        assert!(err.to_string().contains("frobnicate"));
        assert!(!batch.all_ok());
    }

    #[test]
    fn a_panicking_analysis_fails_only_its_job() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(2).factory(test_factory).build();
        fleet.submit(
            Job::new("square", Arc::clone(&module), "main", vec![Val::I32(2)])
                .analyses(["binaries"]),
        );
        fleet.submit(
            Job::new("square", Arc::clone(&module), "main", vec![Val::I32(3)])
                .analyses(["panicker"]),
        );
        fleet.submit(
            Job::new("square", Arc::clone(&module), "main", vec![Val::I32(4)])
                .analyses(["binaries"]),
        );
        let batch = fleet.run();
        assert_eq!(batch.jobs.len(), 3, "the batch completed");
        assert!(batch.jobs[0].result.is_ok());
        let err = batch.jobs[1].result.as_ref().unwrap_err();
        assert!(
            matches!(err, JobError::Panicked(message) if message.contains("analysis bug")),
            "{err}"
        );
        assert_eq!(batch.jobs[2].result.as_ref().unwrap(), &vec![Val::I32(16)]);
        // The panicked job completed no cache lookup attribution: it is
        // neither a hit nor a miss.
        assert_eq!(batch.cache_hits + batch.cache_misses, 2);
    }

    #[test]
    fn no_factory_rejects_jobs_naming_analyses() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(1).build();
        fleet.submit(Job::new("square", module, "main", vec![Val::I32(1)]).analyses(["binaries"]));
        let batch = fleet.run();
        assert!(matches!(
            batch.jobs[0].result.as_ref().unwrap_err(),
            JobError::UnknownAnalysis(_)
        ));
    }

    #[test]
    fn bad_export_fails_only_its_job() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(2).build();
        fleet.submit(Job::new("square", Arc::clone(&module), "nope", vec![]));
        fleet.submit(Job::new(
            "square",
            Arc::clone(&module),
            "main",
            vec![Val::I32(4)],
        ));
        let batch = fleet.run();
        assert!(matches!(
            batch.jobs[0].result.as_ref().unwrap_err(),
            JobError::Run(_)
        ));
        assert_eq!(batch.jobs[1].result.as_ref().unwrap(), &vec![Val::I32(16)]);
    }

    #[test]
    fn builder_chaining_submits_jobs_and_shares_the_cache() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let cache = ModuleCache::shared();
        let mut fleet = Fleet::builder()
            .workers(2)
            .cache(Arc::clone(&cache))
            .submit(Job::new(
                "square",
                Arc::clone(&module),
                "main",
                vec![Val::I32(5)],
            ))
            .submit(Job::new(
                "square",
                Arc::clone(&module),
                "main",
                vec![Val::I32(6)],
            ))
            .build();
        assert_eq!(fleet.len(), 2);
        let batch = fleet.run();
        assert!(batch.all_ok());
        assert_eq!(cache.misses(), 1, "external cache observed the build");

        // A second batch over the same shared cache is all hits.
        fleet.submit(Job::new("square", module, "main", vec![Val::I32(7)]));
        let batch = fleet.run();
        assert_eq!((batch.cache_hits, batch.cache_misses), (1, 0));
    }

    #[test]
    fn stats_record_queue_and_execute_times_and_the_executing_worker() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(3).build();
        for i in 0..9 {
            fleet.submit(Job::new(
                "square",
                Arc::clone(&module),
                "main",
                vec![Val::I32(i)],
            ));
        }
        let batch = fleet.run();
        for outcome in &batch.jobs {
            assert!(outcome.stats.worker < batch.workers);
            assert!(outcome.stats.execute > Duration::ZERO);
            // Stolen jobs record a worker different from their deal slot.
            if !outcome.stats.stolen {
                assert_eq!(outcome.stats.worker, outcome.job % batch.workers);
            }
        }
        // Exactly the cache-missing job paid the fused build time.
        let payers: Vec<_> = batch
            .jobs
            .iter()
            .filter(|j| j.stats.build > Duration::ZERO)
            .collect();
        assert_eq!(payers.len(), 1);
        assert!(!payers[0].stats.cache_hit);
    }

    #[test]
    fn streaming_delivers_every_outcome_exactly_once_with_matching_summary() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        for workers in [1, 3, 8] {
            let mut fleet = Fleet::builder().workers(workers).build();
            for i in 0..10 {
                fleet.submit(Job::new(
                    "square",
                    Arc::clone(&module),
                    "main",
                    vec![Val::I32(i)],
                ));
            }
            let mut seen: Vec<Option<Vec<Val>>> = vec![None; 10];
            let summary = fleet.run_streaming(|outcome| {
                assert!(
                    seen[outcome.job].is_none(),
                    "job {} delivered twice",
                    outcome.job
                );
                seen[outcome.job] = Some(outcome.result.expect("runs"));
            });
            for (i, result) in seen.iter().enumerate() {
                assert_eq!(
                    result.as_ref().expect("delivered"),
                    &vec![Val::I32((i * i) as i32)],
                    "job {i} at {workers} workers"
                );
            }
            assert_eq!(summary.jobs, 10);
            assert_eq!((summary.cache_hits, summary.cache_misses), (9, 1));
            assert!(summary.jobs_per_sec() > 0.0);
        }
    }

    #[test]
    fn streaming_delivers_early_outcomes_before_the_batch_completes() {
        let _serial = crate::fault::test_lock();
        // One worker, FIFO deal: job 0 must reach the callback while job 2
        // has not yet produced an outcome — the callback observes how many
        // outcomes exist at delivery time.
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(1).build();
        for i in 0..3 {
            fleet.submit(Job::new(
                "square",
                Arc::clone(&module),
                "main",
                vec![Val::I32(i)],
            ));
        }
        let mut delivered_at: Vec<(usize, usize)> = Vec::new(); // (job, delivery rank)
        fleet.run_streaming(|outcome| {
            let rank = delivered_at.len();
            delivered_at.push((outcome.job, rank));
        });
        // With one worker the completion order IS the submission order,
        // and each outcome arrived at its own rank: job 0 was delivered
        // when 2 jobs were still outstanding.
        assert_eq!(delivered_at, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn streaming_panics_are_contained_like_batch_runs() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(2).factory(test_factory).build();
        fleet.submit(
            Job::new("square", Arc::clone(&module), "main", vec![Val::I32(3)])
                .analyses(["panicker"]),
        );
        fleet.submit(
            Job::new("square", Arc::clone(&module), "main", vec![Val::I32(4)])
                .analyses(["binaries"]),
        );
        let mut results: Vec<(usize, bool)> = Vec::new();
        let summary = fleet.run_streaming(|o| results.push((o.job, o.result.is_ok())));
        results.sort_unstable();
        assert_eq!(results, vec![(0, false), (1, true)]);
        assert_eq!(summary.cache_hits + summary.cache_misses, 1);
    }

    #[test]
    fn workers_are_clamped_to_the_job_count() {
        let _serial = crate::fault::test_lock();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(64).build();
        fleet.submit(Job::new("square", module, "main", vec![Val::I32(2)]));
        let batch = fleet.run();
        assert_eq!(batch.workers, 1);
        assert!(batch.all_ok());
    }

    fn spin_module() -> Module {
        let mut builder = ModuleBuilder::new();
        builder.function("spin", &[], &[], |f| {
            f.block(None).loop_(None).br(0).end().end();
        });
        builder.finish()
    }

    #[test]
    fn deadline_times_out_a_spinning_job_while_siblings_complete() {
        let _serial = crate::fault::test_lock();
        let spin = Arc::new(spin_module());
        let square = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(2).build();
        fleet.submit(Job::new("spin", spin, "spin", vec![]).deadline(Duration::from_millis(50)));
        for i in 0..3 {
            fleet.submit(Job::new(
                "square",
                Arc::clone(&square),
                "main",
                vec![Val::I32(i)],
            ));
        }
        let started = Instant::now();
        let batch = fleet.run();
        assert!(matches!(
            batch.jobs[0].result.as_ref().unwrap_err(),
            JobError::TimedOut
        ));
        // The worker came back: the spinning job was reclaimed, not leaked,
        // and every sibling still produced its answer.
        assert!(started.elapsed() < Duration::from_secs(10));
        for (i, outcome) in batch.jobs.iter().enumerate().skip(1) {
            let i = (i - 1) as i32;
            assert_eq!(outcome.result.as_ref().unwrap(), &vec![Val::I32(i * i)]);
        }
    }

    #[test]
    fn pre_fired_cancel_token_cancels_the_job() {
        let _serial = crate::fault::test_lock();
        let spin = Arc::new(spin_module());
        let token = CancelToken::new();
        token.cancel();
        let mut fleet = Fleet::builder().workers(1).build();
        fleet.submit(Job::new("spin", spin, "spin", vec![]).cancel_token(token));
        let batch = fleet.run();
        assert!(matches!(
            batch.jobs[0].result.as_ref().unwrap_err(),
            JobError::Cancelled
        ));
    }

    #[test]
    fn memory_cap_fails_the_job_with_memory_limit() {
        let _serial = crate::fault::test_lock();
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("grow", &[], &[ValType::I32], |f| {
            f.i32_const(4).memory_grow();
        });
        let module = Arc::new(builder.finish());
        let mut fleet = Fleet::builder().workers(1).build();
        fleet.submit(Job::new("grow", Arc::clone(&module), "grow", vec![]).max_memory_pages(4));
        fleet.submit(Job::new("grow", module, "grow", vec![]).max_memory_pages(8));
        let batch = fleet.run();
        assert!(matches!(
            batch.jobs[0].result.as_ref().unwrap_err(),
            JobError::MemoryLimit
        ));
        // Under the cap the same grow behaves exactly like an ungoverned one.
        assert_eq!(batch.jobs[1].result.as_ref().unwrap(), &vec![Val::I32(1)]);
    }

    #[test]
    fn transient_faults_are_retried_within_the_budget() {
        let _serial = crate::fault::test_lock();
        crate::fault::configure("fleet/job=error:1:2", 7).unwrap();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(1).retries(3).build();
        fleet.submit(Job::new("square", module, "main", vec![Val::I32(6)]));
        let batch = fleet.run();
        crate::fault::clear();
        // Two injected failures, then the limit is exhausted and the third
        // attempt succeeds — bounded retries recovered the job.
        assert_eq!(batch.jobs[0].result.as_ref().unwrap(), &vec![Val::I32(36)]);
        assert_eq!(batch.jobs[0].stats.retries, 2);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let _serial = crate::fault::test_lock();
        crate::fault::configure("fleet/job=error", 7).unwrap();
        let module = Arc::new(square_module());
        let mut fleet = Fleet::builder().workers(1).retries(1).build();
        fleet.submit(Job::new("square", module, "main", vec![Val::I32(6)]));
        let batch = fleet.run();
        crate::fault::clear();
        let outcome = &batch.jobs[0];
        assert!(matches!(
            outcome.result.as_ref().unwrap_err(),
            JobError::Transient(_)
        ));
        assert!(outcome.result.as_ref().unwrap_err().is_transient());
        assert_eq!(outcome.stats.retries, 1);
        // Transient failures are excluded from cache attribution, like
        // panicked jobs: the job never reached a lookup.
        assert_eq!(batch.cache_hits + batch.cache_misses, 0);
    }
}
