//! Process-wide pass counters.
//!
//! A count that a cache, a batch or the daemon keeps lives there
//! ([`crate::cache::ModuleCache`], [`crate::fleet::BatchSummary`], the
//! `wasabi-server` daemon's `status`); this module holds process-wide
//! numbers with no other owner.
//!
//! The whole point of the fused pipeline (paper §2.4.2 generalized to many
//! analyses) is that *N* analyses cost **one** instrumentation pass and
//! **one** execution pass instead of *N* each. These counters make that
//! property observable, so tests can assert it and the bench bins can
//! report it.

//! Since the host-call intrinsics PR the module also aggregates per-run
//! host-call path counts (fast = VM host-call intrinsic ops, slow = generic
//! call machinery) and instrumentation/translation wall time, so benches
//! can assert the intrinsic path actually fired and the CLI `--time` flag
//! can print a phase breakdown. The host-call counters are folded in once
//! per execution pass from the instance's plain (non-atomic) counters —
//! nothing touches an atomic on the per-call hot path.
//!
//! # Aggregation across build worker threads
//!
//! The build phase timers ([`instrumentation_time`],
//! [`translation_time`], [`fused_build_time`]) measure **wall time on the
//! coordinating thread**, recorded once per build — so the
//! function-granular parallel pipeline (instrumentation and translation
//! workers fanned out per build, paper §3) does not multiply them: a
//! build that keeps 8 workers busy for 1 ms adds 1 ms of wall time, not
//! 8. The workers' cumulative busy time is tracked separately in
//! [`build_worker_time`]: each worker accumulates its own busy nanos
//! locally and the build folds the sum in **once** at the join — no
//! atomics on the per-function path, and `--time` /
//! [`crate::fleet::JobStats`] stay truthful under the parallel pipeline
//! (`build_worker_time / fused_build_time` ≈ effective build
//! parallelism).
//!
//! # Single-run caveat: the phase timers are process-global
//!
//! The timers are still **sums over every build the whole process has
//! performed**. Reading a before/after delta around one run (as the CLI
//! `--time` flag does) is only meaningful while nothing runs concurrently
//! — with a [`crate::fleet::Fleet`] executing jobs on several workers, a
//! delta would attribute other jobs' phases to yours. That is why fleet
//! jobs carry their **own** per-job phase times, measured on the
//! executing worker's clock ([`crate::fleet::JobStats`]), and the global
//! timers here remain what they are: process-lifetime aggregates.
//!
//! The three build timers are *disjoint by construction*: a rewrite-path
//! build feeds [`instrumentation_time`] + [`translation_time`], a
//! direct-emit build feeds only [`fused_build_time`]. A single run never
//! contributes to both sides, so phase breakdowns can print whichever is
//! non-zero without double-counting (pinned by the `fused_stats`
//! integration test).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static INSTRUMENTATION_PASSES: AtomicU64 = AtomicU64::new(0);
static EXECUTION_PASSES: AtomicU64 = AtomicU64::new(0);
static HOST_CALLS_FAST: AtomicU64 = AtomicU64::new(0);
static HOST_CALLS_SLOW: AtomicU64 = AtomicU64::new(0);
static INSTRUMENTATION_NANOS: AtomicU64 = AtomicU64::new(0);
static TRANSLATION_NANOS: AtomicU64 = AtomicU64::new(0);
static FUSED_BUILD_NANOS: AtomicU64 = AtomicU64::new(0);
static BUILD_WORKER_NANOS: AtomicU64 = AtomicU64::new(0);
static DISK_CACHE_WRITE_ERRORS: AtomicU64 = AtomicU64::new(0);
static JOB_TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static JOB_CANCELLATIONS: AtomicU64 = AtomicU64::new(0);
static JOB_RETRIES: AtomicU64 = AtomicU64::new(0);
static SERVER_SHEDS: AtomicU64 = AtomicU64::new(0);
static CLIENT_RECONNECTS: AtomicU64 = AtomicU64::new(0);
static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);

/// Total number of instrumentation passes ([`mod@crate::instrument`] /
/// [`crate::Instrumenter::run`]) this process has performed.
pub fn instrumentation_passes() -> u64 {
    INSTRUMENTATION_PASSES.load(Ordering::Relaxed)
}

/// Total number of analysis execution passes (instantiate + invoke through
/// an [`crate::AnalysisSession`] or [`crate::Pipeline`]).
pub fn execution_passes() -> u64 {
    EXECUTION_PASSES.load(Ordering::Relaxed)
}

/// Host calls dispatched through the VM's host-call intrinsic fast path
/// (`Op::HostCall` — see `wasabi_vm`), summed over all completed
/// [`crate::AnalysisSession`]/[`crate::Pipeline`] runs of this process.
pub fn host_calls_fast() -> u64 {
    HOST_CALLS_FAST.load(Ordering::Relaxed)
}

/// Host calls dispatched through the generic call machinery (the pre-
/// intrinsic path: `call_indirect` to an import, generic-call translation,
/// or the `Reference` oracle), summed like [`host_calls_fast`].
pub fn host_calls_slow() -> u64 {
    HOST_CALLS_SLOW.load(Ordering::Relaxed)
}

/// Total wall time spent in instrumentation passes.
pub fn instrumentation_time() -> Duration {
    Duration::from_nanos(INSTRUMENTATION_NANOS.load(Ordering::Relaxed))
}

/// Total wall time spent validating + translating modules to the flat IR.
pub fn translation_time() -> Duration {
    Duration::from_nanos(TRANSLATION_NANOS.load(Ordering::Relaxed))
}

/// Total wall time spent in *fused* direct-emit builds
/// ([`crate::Instrumenter::run_direct`]): instrumentation and translation
/// in one pass, with no internal phase boundary. Disjoint from
/// [`instrumentation_time`] and [`translation_time`] — a direct-emit build
/// contributes **only** here, so summing all three never double-counts a
/// pass, and a `--time` delta around a direct-emit run shows one non-zero
/// build phase instead of a misleading zero instrument phase.
pub fn fused_build_time() -> Duration {
    Duration::from_nanos(FUSED_BUILD_NANOS.load(Ordering::Relaxed))
}

/// Cumulative **busy** time of build worker threads (instrumentation and
/// translation workers of the function-granular parallel pipeline),
/// summed over all builds. Each worker accumulates its own busy nanos
/// locally; the build folds the total in once at the join. Compare with
/// the wall-clock build timers: `build_worker_time / fused_build_time`
/// approximates the effective parallelism of a build.
pub fn build_worker_time() -> Duration {
    Duration::from_nanos(BUILD_WORKER_NANOS.load(Ordering::Relaxed))
}

/// [`crate::diskcache::DiskCache`] store attempts that failed (create,
/// write, sync, or rename) — the entry is simply not persisted and the
/// next lookup rebuilds, but the failure is no longer silent.
pub fn disk_cache_write_errors() -> u64 {
    DISK_CACHE_WRITE_ERRORS.load(Ordering::Relaxed)
}

/// Fleet jobs that hit their wall-clock deadline
/// (`JobError::TimedOut`).
pub fn job_timeouts() -> u64 {
    JOB_TIMEOUTS.load(Ordering::Relaxed)
}

/// Fleet jobs cancelled through a `CancelToken`
/// (`JobError::Cancelled`).
pub fn job_cancellations() -> u64 {
    JOB_CANCELLATIONS.load(Ordering::Relaxed)
}

/// Transient-failure retries performed by Fleet workers (each retry of
/// each job counts once).
pub fn job_retries() -> u64 {
    JOB_RETRIES.load(Ordering::Relaxed)
}

/// Batches the daemon shed (cancelled to make room) under admission
/// pressure.
pub fn server_sheds() -> u64 {
    SERVER_SHEDS.load(Ordering::Relaxed)
}

/// Successful client auto-reconnects after a broken daemon connection.
pub fn client_reconnects() -> u64 {
    CLIENT_RECONNECTS.load(Ordering::Relaxed)
}

/// Faults deliberately injected by the [`crate::fault`] registry.
pub fn faults_injected() -> u64 {
    FAULTS_INJECTED.load(Ordering::Relaxed)
}

/// Record a shed batch (called by `wasabi-server`).
pub fn record_server_shed() {
    SERVER_SHEDS.fetch_add(1, Ordering::Relaxed);
}

/// Record a successful client reconnect (called by `wasabi-server`).
pub fn record_client_reconnect() {
    CLIENT_RECONNECTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_instrumentation() {
    INSTRUMENTATION_PASSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_execution() {
    EXECUTION_PASSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_host_calls(fast: u64, slow: u64) {
    if fast > 0 {
        HOST_CALLS_FAST.fetch_add(fast, Ordering::Relaxed);
    }
    if slow > 0 {
        HOST_CALLS_SLOW.fetch_add(slow, Ordering::Relaxed);
    }
}

pub(crate) fn record_instrumentation_time(elapsed: Duration) {
    INSTRUMENTATION_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

pub(crate) fn record_translation_time(elapsed: Duration) {
    TRANSLATION_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

pub(crate) fn record_fused_build_time(elapsed: Duration) {
    FUSED_BUILD_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

pub(crate) fn record_build_worker_time(elapsed: Duration) {
    BUILD_WORKER_NANOS.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

pub(crate) fn record_disk_cache_write_error() {
    DISK_CACHE_WRITE_ERRORS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_job_timeout() {
    JOB_TIMEOUTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_job_cancellation() {
    JOB_CANCELLATIONS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_job_retry() {
    JOB_RETRIES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_fault_injected() {
    FAULTS_INJECTED.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let before = instrumentation_passes();
        record_instrumentation();
        assert!(instrumentation_passes() > before);
        let before = execution_passes();
        record_execution();
        assert!(execution_passes() > before);
    }

    #[test]
    fn fused_build_timer_is_monotonic() {
        let before = fused_build_time();
        record_fused_build_time(Duration::from_millis(5));
        assert!(fused_build_time() >= before + Duration::from_millis(5));
    }

    #[test]
    fn parallel_build_counters_are_monotonic() {
        let before = build_worker_time();
        record_build_worker_time(Duration::from_millis(2));
        assert!(build_worker_time() >= before + Duration::from_millis(2));
    }

    #[test]
    fn robustness_counters_are_monotonic() {
        let before = disk_cache_write_errors();
        record_disk_cache_write_error();
        assert!(disk_cache_write_errors() > before);
        let before = job_timeouts();
        record_job_timeout();
        assert!(job_timeouts() > before);
        let before = job_cancellations();
        record_job_cancellation();
        assert!(job_cancellations() > before);
        let before = job_retries();
        record_job_retry();
        assert!(job_retries() > before);
        let before = server_sheds();
        record_server_shed();
        assert!(server_sheds() > before);
        let before = client_reconnects();
        record_client_reconnect();
        assert!(client_reconnects() > before);
        let before = faults_injected();
        record_fault_injected();
        assert!(faults_injected() > before);
    }
}
