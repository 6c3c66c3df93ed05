//! Composable multi-analysis pipelines: instrument **once** for the union
//! of all registered analyses' hook sets, execute **once**, and dispatch
//! each joined event through precomputed per-hook subscriber lists.
//!
//! The paper's selective instrumentation (§2.4.2) makes cost scale with
//! *what is observed* for one analysis; the pipeline generalizes this to
//! many: running the eight Table-4 analyses costs one instrument+execute
//! pass instead of eight, and an analysis subscribed only to `binary`
//! still pays nothing for its neighbours' `load`/`store` traffic.
//!
//! # Examples
//!
//! ```
//! use wasabi::Wasabi;
//! use wasabi::event::{AnalysisCtx, BinaryEvt, ValEvt};
//! use wasabi::hooks::{Analysis, Hook, HookSet};
//! use wasabi_wasm::builder::ModuleBuilder;
//! use wasabi_wasm::{Val, ValType};
//!
//! #[derive(Default)]
//! struct Binaries(u64);
//! impl Analysis for Binaries {
//!     fn name(&self) -> &str { "binaries" }
//!     fn hooks(&self) -> HookSet { HookSet::of(&[Hook::Binary]) }
//!     fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) { self.0 += 1; }
//! }
//!
//! #[derive(Default)]
//! struct Consts(u64);
//! impl Analysis for Consts {
//!     fn name(&self) -> &str { "consts" }
//!     fn hooks(&self) -> HookSet { HookSet::of(&[Hook::Const]) }
//!     fn const_(&mut self, _: &AnalysisCtx, _: &ValEvt) { self.0 += 1; }
//! }
//!
//! let mut builder = ModuleBuilder::new();
//! builder.function("f", &[], &[ValType::I32], |f| {
//!     f.i32_const(20).i32_const(22).i32_add();
//! });
//! let module = builder.finish();
//!
//! let mut binaries = Binaries::default();
//! let mut consts = Consts::default();
//! let mut pipeline = Wasabi::builder()
//!     .analysis(&mut binaries)
//!     .analysis(&mut consts)
//!     .build(&module)?;
//! let results = pipeline.run("f", &[])?;
//! assert_eq!(results, vec![Val::I32(42)]);
//! assert_eq!(pipeline.reports().len(), 2);
//! drop(pipeline);
//! assert_eq!((binaries.0, consts.0), (1, 2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use wasabi_vm::host::Host;
use wasabi_vm::{Budget, CohortRunner, Instance, RunOutcome, Trap, DEFAULT_COHORT_CHUNK};
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;

use crate::hooks::{Analysis, Hook, HookSet};
use crate::instrument::Instrumenter;
use crate::report::Report;
use crate::runtime::{AnalysisError, AnalysisSession, WasabiHost};
use crate::stats;

/// Entry point of the pipeline API: `Wasabi::builder()`.
#[derive(Debug, Clone, Copy)]
pub struct Wasabi;

impl Wasabi {
    /// Start building a multi-analysis [`Pipeline`].
    pub fn builder<'a>() -> PipelineBuilder<'a> {
        PipelineBuilder::new()
    }
}

/// Builder collecting analyses and instrumentation options; `build`
/// instruments the module once for the union of all hook sets.
#[derive(Default)]
pub struct PipelineBuilder<'a> {
    analyses: Vec<&'a mut dyn Analysis>,
    threads: Option<usize>,
    budget: Option<Budget>,
}

impl<'a> PipelineBuilder<'a> {
    /// An empty builder (equivalent to [`Wasabi::builder`]).
    pub fn new() -> Self {
        PipelineBuilder {
            analyses: Vec::new(),
            threads: None,
            budget: None,
        }
    }

    /// Register an analysis. Events are dispatched to analyses in
    /// registration order.
    pub fn analysis(mut self, analysis: &'a mut dyn Analysis) -> Self {
        self.analyses.push(analysis);
        self
    }

    /// Use `threads` worker threads for the instrumentation pass (paper
    /// §3/§4.4). Defaults to all available cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Govern every run of the built pipeline with `budget` (wall-clock
    /// deadline, cancellation token, memory-growth cap): execution traps
    /// with `Trap::{DeadlineExceeded, Cancelled, MemoryLimit}` instead
    /// of running away. Deadlines are resolved when the budget is
    /// *created* (`Budget::deadline` captures an instant), which is what
    /// a per-job budget wants: queue time counts against the job.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The union of all registered analyses' hook sets — exactly what the
    /// single instrumentation pass will instrument for.
    pub fn hooks(&self) -> HookSet {
        self.analyses
            .iter()
            .fold(HookSet::empty(), |set, a| set.union(a.hooks()))
    }

    /// Instrument `module` once for the union hook set and precompute the
    /// per-hook subscriber lists.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn build(self, module: &Module) -> Result<Pipeline<'a>, wasabi_wasm::ValidationError> {
        let union = self.hooks();
        let mut instrumenter = Instrumenter::new(union);
        if let Some(threads) = self.threads {
            instrumenter = instrumenter.threads(threads);
        }
        let (translated, info) = instrumenter.run_direct(module.clone())?;
        Ok(self.assemble(Arc::new(AnalysisSession::from_direct(translated, info))))
    }

    /// Build a pipeline over an **already instrumented** shared session —
    /// no instrumentation or translation happens here. This is how
    /// [`crate::fleet::Fleet`] jobs reuse a [`crate::cache::ModuleCache`]
    /// entry: the expensive per-module work is paid once process-wide, and
    /// each job only assembles its per-job subscriber lists.
    ///
    /// The session must have been instrumented for (at least) the union of
    /// the registered analyses' hook sets, otherwise subscribed events
    /// would silently never fire.
    ///
    /// # Panics
    ///
    /// Panics if a registered analysis subscribes to a hook the session was
    /// not instrumented for.
    pub fn build_shared(self, session: Arc<AnalysisSession>) -> Pipeline<'a> {
        let union = self.hooks();
        assert!(
            union.iter().all(|h| session.info().enabled.contains(h)),
            "session instrumented for {} but analyses subscribe to {}",
            session.info().enabled,
            union,
        );
        self.assemble(session)
    }

    fn assemble(self, session: Arc<AnalysisSession>) -> Pipeline<'a> {
        let mut subscribers: Vec<Vec<usize>> = vec![Vec::new(); Hook::ALL.len()];
        for (idx, analysis) in self.analyses.iter().enumerate() {
            for hook in analysis.hooks().iter() {
                subscribers[hook as usize].push(idx);
            }
        }
        Pipeline {
            session,
            analyses: self.analyses,
            subscribers,
            budget: self.budget,
        }
    }
}

impl std::fmt::Debug for PipelineBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("analyses", &self.analyses.len())
            .field("threads", &self.threads)
            .finish()
    }
}

/// A module instrumented **once** for several analyses, with fused
/// per-hook dispatch. Build with [`Wasabi::builder`]; see the
/// [module docs](crate::pipeline) for an end-to-end example.
pub struct Pipeline<'a> {
    session: Arc<AnalysisSession>,
    analyses: Vec<&'a mut dyn Analysis>,
    /// `subscribers[hook as usize]` = indices (into `analyses`) of the
    /// analyses subscribed to that hook.
    subscribers: Vec<Vec<usize>>,
    /// Resource governance applied to every run (see
    /// [`PipelineBuilder::budget`]); `None` = ungoverned.
    budget: Option<Budget>,
}

impl<'a> Pipeline<'a> {
    /// Start building a pipeline (alias for [`Wasabi::builder`]).
    pub fn builder() -> PipelineBuilder<'a> {
        PipelineBuilder::new()
    }

    /// The shared instrumented session (module + static info).
    pub fn session(&self) -> &AnalysisSession {
        &self.session
    }

    /// The union hook set the module was instrumented for.
    pub fn hooks(&self) -> HookSet {
        self.session.info().enabled
    }

    /// Number of registered analyses.
    pub fn len(&self) -> usize {
        self.analyses.len()
    }

    /// `true` if no analysis is registered.
    pub fn is_empty(&self) -> bool {
        self.analyses.is_empty()
    }

    /// How many analyses are subscribed to `hook`.
    pub fn subscriber_count(&self, hook: Hook) -> usize {
        self.subscribers[hook as usize].len()
    }

    /// Instantiate the instrumented module once and invoke `export`,
    /// dispatching every event to its subscribed analyses.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn run(&mut self, export: &str, args: &[Val]) -> Result<Vec<Val>, AnalysisError> {
        stats::record_execution();
        let mut host = WasabiHost::fused(
            self.session.info(),
            self.analyses.as_mut_slice(),
            &self.subscribers,
        );
        // The session caches the validated, flat-IR-translated module, so
        // repeated runs instantiate without cloning or re-translating it.
        let mut instance = Instance::instantiate_translated(self.session.translated(), &mut host)?;
        instance.set_budget(self.budget.clone());
        let result = instance.invoke_export(export, args, &mut host);
        let (fast, slow) = instance.host_call_counts();
        stats::record_host_calls(fast, slow);
        Ok(result?)
    }

    /// Like [`Pipeline::run`], but with a program host for the module's
    /// own (non-hook) imports.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn run_with_host(
        &mut self,
        program_host: &mut dyn Host,
        export: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, AnalysisError> {
        stats::record_execution();
        let mut host = WasabiHost::fused(
            self.session.info(),
            self.analyses.as_mut_slice(),
            &self.subscribers,
        )
        .with_program_host(program_host);
        let mut instance = Instance::instantiate_translated(self.session.translated(), &mut host)?;
        instance.set_budget(self.budget.clone());
        let result = instance.invoke_export(export, args, &mut host);
        let (fast, slow) = instance.host_call_counts();
        stats::record_host_calls(fast, slow);
        Ok(result?)
    }

    /// Sweep `export` over `inputs` as one **cohort**: the instrumented
    /// module is instantiated once per input from the shared translation,
    /// and the instances are interleaved in chunked rounds by a
    /// [`wasabi_vm::CohortRunner`] — per-job instrumentation, translation,
    /// and host-plan construction are paid once for the whole sweep.
    ///
    /// Every event is delivered to the same subscribed analyses, tagged
    /// with the member index in [`AnalysisCtx::instance`](crate::event::AnalysisCtx),
    /// so analyses aggregate across the sweep or partition per instance.
    /// The pipeline's [`Budget`] is cloned per member: a member that
    /// traps, finishes, or exhausts its budget is retired without
    /// disturbing its siblings — including a member whose step hits the
    /// `cohort/step` failpoint (injected error or panic), which this loop
    /// contains to that one member.
    ///
    /// Returns one [`RunOutcome`] per input, in input order.
    pub fn run_cohort(&mut self, export: &str, inputs: &[Vec<Val>]) -> Vec<RunOutcome> {
        let mut host = WasabiHost::fused(
            self.session.info(),
            self.analyses.as_mut_slice(),
            &self.subscribers,
        );
        let mut cohort = CohortRunner::new(DEFAULT_COHORT_CHUNK);
        for args in inputs {
            cohort.admit(
                self.session.translated(),
                self.budget.clone(),
                export,
                args,
                &mut host,
            );
        }
        // Drive the round-robin loop here rather than via
        // `CohortRunner::run` so every member step passes the
        // `cohort/step` failpoint with panic containment.
        while let Some(idx) = cohort.peek_next() {
            let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(message) = crate::fault::fire("cohort/step") {
                    return Some(message);
                }
                cohort.step_one(&mut host);
                None
            }));
            match step {
                Ok(None) => {}
                Ok(Some(message)) => cohort.retire(idx, Err(Trap::HostError(message))),
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                        .unwrap_or_else(|| "panic".to_string());
                    cohort.retire(
                        idx,
                        Err(Trap::HostError(format!(
                            "cohort member panicked: {message}"
                        ))),
                    );
                }
            }
        }
        let outcomes = cohort.finish();
        let (mut fast, mut slow) = (0, 0);
        for outcome in &outcomes {
            fast += outcome.host_calls_fast;
            slow += outcome.host_calls_slow;
        }
        stats::record_host_calls(fast, slow);
        outcomes
    }

    /// One structured [`Report`] per analysis, in registration order.
    pub fn reports(&self) -> Vec<Report> {
        self.analyses.iter().map(|a| a.report()).collect()
    }
}

impl std::fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("analyses", &self.analyses.len())
            .field("hooks", &self.hooks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AnalysisCtx, BinaryEvt, LoadEvt, StoreEvt};
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::instr::StoreOp;
    use wasabi_wasm::types::ValType;

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
    }

    #[derive(Default)]
    struct MemOps(u64);
    impl Analysis for MemOps {
        fn name(&self) -> &str {
            "mem_ops"
        }
        fn hooks(&self) -> HookSet {
            HookSet::of(&[Hook::Load, Hook::Store])
        }
        fn load(&mut self, _: &AnalysisCtx, _: &LoadEvt) {
            self.0 += 1;
        }
        fn store(&mut self, _: &AnalysisCtx, _: &StoreEvt) {
            self.0 += 1;
        }
    }

    /// Like `Binaries`, but would panic on any event outside its hook set
    /// — proves fused dispatch filters per subscriber.
    #[derive(Default)]
    struct StrictBinaries(u64);
    impl Analysis for StrictBinaries {
        fn hooks(&self) -> HookSet {
            HookSet::of(&[Hook::Binary])
        }
        fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) {
            self.0 += 1;
        }
        fn load(&mut self, _: &AnalysisCtx, _: &LoadEvt) {
            panic!("binary-only analysis must never see a load");
        }
        fn store(&mut self, _: &AnalysisCtx, _: &StoreEvt) {
            panic!("binary-only analysis must never see a store");
        }
    }

    fn module_with_memory() -> Module {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[], &[ValType::I32], |f| {
            f.i32_const(0)
                .i32_const(5)
                .store(StoreOp::I32Store, 0)
                .i32_const(0)
                .load(wasabi_wasm::LoadOp::I32Load, 0)
                .i32_const(2)
                .i32_mul();
        });
        builder.finish()
    }

    #[test]
    fn union_instrumentation_and_filtered_dispatch() {
        let module = module_with_memory();
        let mut strict = StrictBinaries::default();
        let mut mem = MemOps::default();
        let mut pipeline = Wasabi::builder()
            .analysis(&mut strict)
            .analysis(&mut mem)
            .build(&module)
            .unwrap();
        assert_eq!(
            pipeline.hooks(),
            HookSet::of(&[Hook::Binary, Hook::Load, Hook::Store])
        );
        assert_eq!(pipeline.subscriber_count(Hook::Binary), 1);
        assert_eq!(pipeline.subscriber_count(Hook::Load), 1);
        assert_eq!(pipeline.subscriber_count(Hook::Nop), 0);
        let results = pipeline.run("f", &[]).unwrap();
        assert_eq!(results, vec![Val::I32(10)]);
        drop(pipeline);
        assert_eq!(strict.0, 1, "one i32.mul");
        assert_eq!(mem.0, 2, "one store + one load");
    }

    #[test]
    fn one_instrumentation_pass_for_many_analyses() {
        let module = module_with_memory();
        let mut a = Binaries::default();
        let mut b = MemOps::default();
        let mut c = StrictBinaries::default();
        let before = stats::instrumentation_passes();
        let mut pipeline = Wasabi::builder()
            .analysis(&mut a)
            .analysis(&mut b)
            .analysis(&mut c)
            .build(&module)
            .unwrap();
        pipeline.run("f", &[]).unwrap();
        // Other tests run concurrently in this process, so only assert a
        // lower-than-N bound via this thread's own work: exactly one pass
        // would be unobservable globally, but at least the build itself
        // performed no more than... instead, assert through a dedicated
        // single-threaded integration test (tests/pipeline_single_pass.rs).
        // Here: the pipeline exists and ran, and at least one pass
        // happened since `before`.
        assert!(stats::instrumentation_passes() > before);
    }

    #[test]
    fn rewrite_mode_matches_direct_emit_default() {
        // The build goes through direct-emit; a session from the rewrite
        // path must produce identical results, events, and reports.
        let module = module_with_memory();
        let mut direct_mem = MemOps::default();
        let mut rewrite_mem = MemOps::default();
        let direct = {
            let mut p = Wasabi::builder()
                .analysis(&mut direct_mem)
                .build(&module)
                .unwrap();
            p.run("f", &[]).unwrap()
        };
        let rewrite = {
            let session = AnalysisSession::new(&module, rewrite_mem.hooks()).unwrap();
            let mut p = Wasabi::builder()
                .analysis(&mut rewrite_mem)
                .build_shared(Arc::new(session));
            p.run("f", &[]).unwrap()
        };
        assert_eq!(direct, rewrite);
        assert_eq!(direct_mem.0, rewrite_mem.0);
        assert_eq!(direct_mem.0, 2, "one store + one load");
    }

    #[test]
    fn reports_come_in_registration_order() {
        let module = module_with_memory();
        let mut a = Binaries::default();
        let mut b = MemOps::default();
        let mut pipeline = Wasabi::builder()
            .analysis(&mut a)
            .analysis(&mut b)
            .build(&module)
            .unwrap();
        pipeline.run("f", &[]).unwrap();
        let reports = pipeline.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].analysis, "binaries");
        assert_eq!(reports[1].analysis, "mem_ops");
    }

    #[test]
    fn empty_pipeline_is_identity_instrumentation() {
        let module = module_with_memory();
        let mut pipeline = Wasabi::builder().build(&module).unwrap();
        assert!(pipeline.is_empty());
        assert!(pipeline.hooks().is_empty());
        let results = pipeline.run("f", &[]).unwrap();
        assert_eq!(results, vec![Val::I32(10)]);
        assert!(pipeline.reports().is_empty());
    }

    #[test]
    fn builder_reports_union_before_build() {
        let mut a = Binaries::default();
        let mut b = MemOps::default();
        let builder = Pipeline::builder().analysis(&mut a).analysis(&mut b);
        assert_eq!(
            builder.hooks(),
            HookSet::of(&[Hook::Binary, Hook::Load, Hook::Store])
        );
        assert!(format!("{builder:?}").contains("analyses: 2"));
    }
}
