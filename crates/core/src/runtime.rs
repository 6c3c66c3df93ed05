//! The Wasabi runtime (paper Fig. 2, bottom): receives low-level hook calls
//! from the executing instrumented module and converts them into high-level
//! typed [`Event`]s — joining split i64 values, attaching resolved branch
//! targets, replaying `end` hooks for `br_table`, and resolving indirect
//! call targets.
//!
//! Each event is built **once** and then handed to the host's sink: either
//! a single [`Analysis`] (the classic [`AnalysisSession`] path) or the
//! per-hook subscriber lists of a fused [`crate::pipeline::Pipeline`], so
//! that an analysis subscribed only to `binary` pays nothing for
//! `load`/`store` traffic of its pipeline neighbours.
//!
//! Hook dispatch is **allocation-free** on the hot path: hooks resolve at
//! instantiation into the dense index the instrumenter already assigned
//! (no `String`-keyed map), each call borrows its [`LowLevelHook`]
//! descriptor instead of cloning it, and the joined payload / branch-table
//! target buffers are scratch space reused across calls.
//!
//! Dispatch is additionally **monomorphic per low-level hook ordinal**:
//! when the host is constructed, every hook resolves once into a
//! `HookPlan` — its payload shape (which slots are split i64 halves),
//! the flattened-argument offset of the trailing `(func, instr)` location
//! pair, and a `skip` flag. A hook whose high-level event has **zero
//! subscribers** (no analysis in the pipeline listens, or the single
//! analysis does not declare the hook) short-circuits before any location
//! decoding or event construction — the low-level call returns
//! immediately, which together with the VM's host-call intrinsics is what
//! collapses the Fig. 9 "all hooks, no-op analysis" overhead.

use std::error::Error;
use std::fmt;

use wasabi_vm::host::{Host, HostCtx, HostFuncId};
use wasabi_vm::trap::{InstantiationError, Trap};
use wasabi_vm::{Instance, TranslatedModule};
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;
use wasabi_wasm::types::{FuncType, GlobalType, ValType};

use crate::convention::{join_i64, LowLevelHook, HOOK_MODULE};
use crate::event::{
    deliver, AnalysisCtx, BinaryEvt, BlockEvt, BranchEvt, BranchTableEvt, CallEvt, CallPostEvt,
    EndEvt, Event, IfEvt, MemEvt, MemGrowEvt, MemSizeEvt, ReturnEvt, SelectEvt, UnaryEvt, ValEvt,
    VarEvt,
};
use crate::hooks::{Analysis, Hook, HookSet, MemArg};
use crate::info::ModuleInfo;
use crate::instrument::{instrument, Instrumenter};
use crate::location::{BranchTarget, Location};
use crate::stats;

/// Where joined high-level events go: one analysis, or the fused per-hook
/// subscriber lists of a pipeline.
enum Sink<'a, 'p> {
    /// Deliver events to the one analysis — only for the hooks it
    /// declares (undeclared hooks are skipped before event construction,
    /// see [`HookPlan`]).
    Single(&'a mut (dyn Analysis + 'p)),
    /// Deliver each event only to the analyses subscribed to its hook.
    /// `subscribers` is indexed by `Hook as usize`.
    Fused {
        analyses: &'a mut [&'p mut (dyn Analysis + 'p)],
        subscribers: &'a [Vec<usize>],
    },
}

/// The per-ordinal dispatch plan of one low-level hook, resolved once at
/// host construction instead of per call (see the module docs).
struct HookPlan {
    /// No subscriber for this hook's events: the low-level call returns
    /// before any location decoding or event construction.
    skip: bool,
    /// Per pre-flattening payload slot: `true` = an i64, joined back from
    /// two i32 halves.
    splits: Box<[bool]>,
    /// Flattened-argument index of the trailing `(func, instr)` pair.
    loc_at: usize,
}

fn build_plans(info: &ModuleInfo, subscribed: impl Fn(Hook) -> bool) -> Vec<HookPlan> {
    info.hooks
        .iter()
        .map(|hook| {
            let mut splits = Vec::new();
            let mut loc_at = 0;
            hook.for_each_payload_type(|ty| {
                let is_i64 = ty == ValType::I64;
                splits.push(is_i64);
                loc_at += if is_i64 { 2 } else { 1 };
            });
            // A br_table hook also replays `end` hooks, so it must keep
            // firing while anyone subscribes to `end`.
            let fires = subscribed(hook.hook())
                || (matches!(hook, LowLevelHook::BrTable) && subscribed(Hook::End));
            HookPlan {
                skip: !fires,
                splits: splits.into_boxed_slice(),
                loc_at,
            }
        })
        .collect()
}

/// A [`Host`] that dispatches Wasabi's low-level hooks to one or more
/// [`Analysis`] instances and forwards all other imports to an optional
/// program host.
pub struct WasabiHost<'a, 'p> {
    sink: Sink<'a, 'p>,
    info: &'a ModuleInfo,
    /// One [`HookPlan`] per entry of `info.hooks`, same order.
    plans: Vec<HookPlan>,
    /// The hooks some sink actually listens to (the single analysis's
    /// declared set, or the union of non-empty subscriber lists). A
    /// `br_table` hook emits two event kinds, so its arm re-checks this
    /// per event kind — the instrumented set (`info.enabled`) is NOT the
    /// right gate: it says what the module reports, not who listens.
    subscribed: HookSet,
    program_host: Option<&'a mut dyn Host>,
    /// Cursor for ordinal hook resolution: the instrumenter emits hook
    /// imports in `info.hooks` order, so instantiation resolves them by
    /// position (with a linear-scan fallback for out-of-order callers).
    next_hook: usize,
    /// Joined payload values, reused across hook calls.
    scratch_vals: Vec<Val>,
    /// Resolved `br_table` targets, reused across hook calls.
    scratch_targets: Vec<BranchTarget>,
    /// Cohort member currently executing; stamped on every delivered
    /// [`AnalysisCtx`]. 0 outside cohort execution.
    instance: u32,
}

impl fmt::Debug for WasabiHost<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WasabiHost")
            .field("hooks", &self.info.hooks.len())
            .field(
                "analyses",
                &match &self.sink {
                    Sink::Single(_) => 1,
                    Sink::Fused { analyses, .. } => analyses.len(),
                },
            )
            .field("has_program_host", &self.program_host.is_some())
            .finish()
    }
}

impl<'a, 'p> WasabiHost<'a, 'p> {
    /// Create a host dispatching to a single `analysis`, for a module
    /// instrumented with the given `info`.
    pub fn new(info: &'a ModuleInfo, analysis: &'a mut (dyn Analysis + 'p)) -> Self {
        let subscribed = analysis.hooks();
        WasabiHost {
            sink: Sink::Single(analysis),
            info,
            plans: build_plans(info, |hook| subscribed.contains(hook)),
            subscribed,
            program_host: None,
            next_hook: 0,
            scratch_vals: Vec::new(),
            scratch_targets: Vec::new(),
            instance: 0,
        }
    }

    /// Create a host with fused dispatch: each event is delivered to the
    /// analyses listed in `subscribers[event.hook() as usize]`. Used by
    /// [`crate::pipeline::Pipeline`].
    pub fn fused(
        info: &'a ModuleInfo,
        analyses: &'a mut [&'p mut (dyn Analysis + 'p)],
        subscribers: &'a [Vec<usize>],
    ) -> Self {
        debug_assert_eq!(subscribers.len(), Hook::ALL.len());
        let subscribed = Hook::ALL
            .into_iter()
            .filter(|&hook| !subscribers[hook as usize].is_empty())
            .collect();
        WasabiHost {
            sink: Sink::Fused {
                analyses,
                subscribers,
            },
            info,
            plans: build_plans(info, |hook| !subscribers[hook as usize].is_empty()),
            subscribed,
            program_host: None,
            next_hook: 0,
            scratch_vals: Vec::new(),
            scratch_targets: Vec::new(),
            instance: 0,
        }
    }

    /// Forward the program's own (non-hook) imports to `host`.
    pub fn with_program_host(mut self, host: &'a mut dyn Host) -> Self {
        self.program_host = Some(host);
        self
    }

    /// Attribute all following events to cohort member `instance` (see
    /// [`wasabi_vm::CohortHost`]); `Pipeline::run_cohort` calls this
    /// before each member's instantiation and step.
    pub fn set_instance(&mut self, instance: u32) {
        self.instance = instance;
    }

    /// Deliver one joined event to the sink.
    fn emit(&mut self, ctx: &AnalysisCtx, event: &Event<'_>) {
        match &mut self.sink {
            Sink::Single(analysis) => deliver(&mut **analysis, ctx, event),
            Sink::Fused {
                analyses,
                subscribers,
            } => {
                for &i in &subscribers[event.hook() as usize] {
                    deliver(&mut *analyses[i], ctx, event);
                }
            }
        }
    }

    fn dispatch(&mut self, ordinal: usize, args: &[Val]) {
        // Reborrow the descriptor through the long-lived `&ModuleInfo` so
        // the rest of dispatch can take `&mut self` without cloning it.
        let info: &ModuleInfo = self.info;
        let hook = &info.hooks[ordinal];

        // Re-join the flattened payload (i64 halves were split, row 6) into
        // the reused scratch buffer — no allocation per call, and the
        // payload shape comes from the precomputed per-ordinal plan
        // instead of a per-call walk of the hook descriptor.
        let mut vals = std::mem::take(&mut self.scratch_vals);
        vals.clear();
        let loc_at = {
            let plan = &self.plans[ordinal];
            let mut i = 0;
            for &is_i64 in &plan.splits {
                if is_i64 {
                    let low = args[i].as_i32().expect("low i64 half");
                    let high = args[i + 1].as_i32().expect("high i64 half");
                    vals.push(Val::I64(join_i64(low, high)));
                    i += 2;
                } else {
                    vals.push(args[i]);
                    i += 1;
                }
            }
            plan.loc_at
        };

        // Location is the trailing (func, instr) pair, at the offset the
        // plan resolved once at construction.
        let loc = Location::new(
            args[loc_at].as_i32().expect("location func is i32") as u32,
            args[loc_at + 1].as_i32().expect("location instr is i32"),
        );
        let ctx = AnalysisCtx::new(loc, self.info).with_instance(self.instance);

        let as_u32 = |v: Val| v.as_i32().expect("i32 payload") as u32;
        let as_bool = |v: Val| v.as_i32().expect("i32 condition") != 0;

        match hook {
            LowLevelHook::Start => self.emit(&ctx, &Event::Start),
            LowLevelHook::Nop => self.emit(&ctx, &Event::Nop),
            LowLevelHook::Unreachable => self.emit(&ctx, &Event::Unreachable),
            LowLevelHook::If => self.emit(
                &ctx,
                &Event::If(IfEvt {
                    condition: as_bool(vals[0]),
                }),
            ),
            LowLevelHook::Br => {
                let target = BranchTarget {
                    label: as_u32(vals[0]),
                    location: Location::new(loc.func, vals[1].as_i32().expect("target")),
                };
                self.emit(
                    &ctx,
                    &Event::Br(BranchEvt {
                        target,
                        condition: None,
                    }),
                );
            }
            LowLevelHook::BrIf => {
                let target = BranchTarget {
                    label: as_u32(vals[0]),
                    location: Location::new(loc.func, vals[1].as_i32().expect("target")),
                };
                self.emit(
                    &ctx,
                    &Event::BrIf(BranchEvt {
                        target,
                        condition: Some(as_bool(vals[2])),
                    }),
                );
            }
            LowLevelHook::BrTable => {
                // Copy out the &'a ModuleInfo so borrows of the table info
                // do not pin `self` while emitting.
                let info = self.info;
                let info_idx = as_u32(vals[0]) as usize;
                let runtime_idx = as_u32(vals[1]);
                let table_info = &info.br_tables[info_idx];
                let entry = table_info
                    .entries
                    .get(runtime_idx as usize)
                    .unwrap_or(&table_info.default);
                // Replay the end hooks of the blocks this entry leaves
                // (paper §2.4.5: selected inside the low-level hook).
                // Both event kinds gate on the *subscription*, not on the
                // instrumented set: a `br_table` hook call fires whenever
                // either is listened to, and must not leak the other kind
                // to a sink that never declared it.
                if self.subscribed.contains(Hook::End) {
                    for end in &entry.ends {
                        self.emit(
                            &AnalysisCtx::new(end.end, info).with_instance(self.instance),
                            &Event::End(EndEvt {
                                kind: end.kind,
                                begin: end.begin,
                            }),
                        );
                    }
                }
                if self.subscribed.contains(Hook::BrTable) {
                    let mut targets = std::mem::take(&mut self.scratch_targets);
                    targets.clear();
                    targets.extend(table_info.entries.iter().map(|e| e.target));
                    self.emit(
                        &ctx,
                        &Event::BrTable(BranchTableEvt {
                            targets: &targets,
                            default: table_info.default.target,
                            index: runtime_idx,
                        }),
                    );
                    self.scratch_targets = targets;
                }
            }
            LowLevelHook::Begin(kind) => {
                self.emit(&ctx, &Event::Begin(BlockEvt { kind: *kind }));
            }
            LowLevelHook::End(kind) => {
                let begin = Location::new(loc.func, vals[0].as_i32().expect("begin"));
                self.emit(&ctx, &Event::End(EndEvt { kind: *kind, begin }));
            }
            LowLevelHook::MemorySize => self.emit(
                &ctx,
                &Event::MemorySize(MemSizeEvt {
                    pages: as_u32(vals[0]),
                }),
            ),
            LowLevelHook::MemoryGrow => self.emit(
                &ctx,
                &Event::MemoryGrow(MemGrowEvt {
                    delta: as_u32(vals[0]),
                    previous_pages: vals[1].as_i32().expect("prev"),
                }),
            ),
            LowLevelHook::Const(_) => {
                self.emit(&ctx, &Event::Const(ValEvt { value: vals[0] }));
            }
            LowLevelHook::Drop(_) => {
                self.emit(&ctx, &Event::Drop(ValEvt { value: vals[0] }));
            }
            LowLevelHook::Select(_) => self.emit(
                &ctx,
                &Event::Select(SelectEvt {
                    condition: as_bool(vals[2]),
                    first: vals[0],
                    second: vals[1],
                }),
            ),
            LowLevelHook::Unary(op) => self.emit(
                &ctx,
                &Event::Unary(UnaryEvt {
                    op: *op,
                    input: vals[0],
                    result: vals[1],
                }),
            ),
            LowLevelHook::Binary(op) => self.emit(
                &ctx,
                &Event::Binary(BinaryEvt {
                    op: *op,
                    first: vals[0],
                    second: vals[1],
                    result: vals[2],
                }),
            ),
            LowLevelHook::Load(op) => self.emit(
                &ctx,
                &Event::Load(MemEvt {
                    op: *op,
                    memarg: MemArg {
                        addr: as_u32(vals[0]),
                        offset: as_u32(vals[1]),
                    },
                    value: vals[2],
                }),
            ),
            LowLevelHook::Store(op) => self.emit(
                &ctx,
                &Event::Store(MemEvt {
                    op: *op,
                    memarg: MemArg {
                        addr: as_u32(vals[0]),
                        offset: as_u32(vals[1]),
                    },
                    value: vals[2],
                }),
            ),
            LowLevelHook::Local(op, _) => self.emit(
                &ctx,
                &Event::Local(VarEvt {
                    op: *op,
                    index: as_u32(vals[0]),
                    value: vals[1],
                }),
            ),
            LowLevelHook::Global(op, _) => self.emit(
                &ctx,
                &Event::Global(VarEvt {
                    op: *op,
                    index: as_u32(vals[0]),
                    value: vals[1],
                }),
            ),
            LowLevelHook::Return(_) => {
                self.emit(&ctx, &Event::Return(ReturnEvt { results: &vals }));
            }
            LowLevelHook::CallPre { indirect, .. } => {
                let (func, table_index) = if *indirect {
                    let table_idx = as_u32(vals[0]);
                    (
                        self.info.resolve_table(table_idx).unwrap_or(u32::MAX),
                        Some(table_idx),
                    )
                } else {
                    (as_u32(vals[0]), None)
                };
                self.emit(
                    &ctx,
                    &Event::CallPre(CallEvt {
                        func,
                        args: &vals[1..],
                        table_index,
                    }),
                );
            }
            LowLevelHook::CallPost(_) => {
                self.emit(&ctx, &Event::CallPost(CallPostEvt { results: &vals }));
            }
        }
        // Hand the payload buffer back for the next call.
        self.scratch_vals = vals;
    }
}

impl Host for WasabiHost<'_, '_> {
    fn resolve(&mut self, module: &str, name: &str, ty: &FuncType) -> Option<HostFuncId> {
        let hook_count = self.info.hooks.len();
        if module == HOOK_MODULE {
            // The instrumenter emits hook imports in `info.hooks` order and
            // instantiation resolves imports in module order, so the next
            // unresolved hook is almost always the one being asked for —
            // resolving by ordinal avoids any name map. The name check
            // guards the assumption; out-of-order callers fall back to a
            // linear scan.
            let hooks = &self.info.hooks;
            let i = self.next_hook;
            if hooks.get(i).is_some_and(|h| h.name() == name) {
                self.next_hook = i + 1;
                return Some(HostFuncId(i));
            }
            return hooks.iter().position(|h| h.name() == name).map(HostFuncId);
        }
        let inner = self.program_host.as_mut()?.resolve(module, name, ty)?;
        Some(HostFuncId(hook_count + inner.0))
    }

    fn call(&mut self, id: HostFuncId, args: &[Val], ctx: HostCtx<'_>) -> Result<Vec<Val>, Trap> {
        let hook_count = self.info.hooks.len();
        if id.0 < hook_count {
            // Zero-subscriber fast path: nobody listens to this hook's
            // events, so skip location decoding, payload joining, and
            // event construction entirely.
            if self.plans[id.0].skip {
                return Ok(Vec::new());
            }
            self.dispatch(id.0, args);
            Ok(Vec::new())
        } else {
            let inner = self
                .program_host
                .as_mut()
                .ok_or_else(|| Trap::HostError("no program host".to_string()))?;
            inner.call(HostFuncId(id.0 - hook_count), args, ctx)
        }
    }

    fn resolve_global(&mut self, module: &str, name: &str, ty: &GlobalType) -> Option<Val> {
        self.program_host.as_mut()?.resolve_global(module, name, ty)
    }

    fn is_noop(&mut self, id: HostFuncId) -> bool {
        // A hook whose plan says `skip` would reach `call` above only to
        // return an empty result: result-less, observation-free, trap-free.
        // Declaring it a no-op lets the VM retire *synthetic* hook imports
        // (direct-emit path) at the dispatch arm without ever crossing the
        // host boundary. Program-host imports (`id >= hook_count`) are
        // never no-ops.
        id.0 < self.plans.len() && self.plans[id.0].skip
    }
}

impl wasabi_vm::CohortHost for WasabiHost<'_, '_> {
    fn select_instance(&mut self, idx: u32) {
        self.set_instance(idx);
    }
}

/// Error running an analyzed program.
#[derive(Debug)]
pub enum AnalysisError {
    /// The original module failed validation.
    Invalid(wasabi_wasm::ValidationError),
    /// The instrumented module could not be instantiated.
    Instantiation(InstantiationError),
    /// Execution trapped.
    Trap(Trap),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Invalid(e) => write!(f, "invalid module: {e}"),
            AnalysisError::Instantiation(e) => write!(f, "instantiation failed: {e}"),
            AnalysisError::Trap(t) => write!(f, "execution trapped: {t}"),
        }
    }
}

impl Error for AnalysisError {}

impl From<wasabi_wasm::ValidationError> for AnalysisError {
    fn from(e: wasabi_wasm::ValidationError) -> Self {
        AnalysisError::Invalid(e)
    }
}
impl From<InstantiationError> for AnalysisError {
    fn from(e: InstantiationError) -> Self {
        AnalysisError::Instantiation(e)
    }
}
impl From<Trap> for AnalysisError {
    fn from(t: Trap) -> Self {
        AnalysisError::Trap(t)
    }
}

/// An instrumented module bundled with its static info, ready to run under
/// different analyses.
///
/// This is the **single-analysis** entry point; to run several analyses
/// over one instrumentation and execution pass, use
/// [`crate::pipeline::Pipeline`].
///
/// # Examples
///
/// ```
/// use wasabi::{AnalysisSession, event::{AnalysisCtx, ValEvt}, hooks::{Analysis, Hook, HookSet}};
/// use wasabi_wasm::builder::ModuleBuilder;
/// use wasabi_wasm::{ValType, Val};
///
/// #[derive(Default)]
/// struct CountConsts(u64);
/// impl Analysis for CountConsts {
///     fn hooks(&self) -> HookSet { HookSet::of(&[Hook::Const]) }
///     fn const_(&mut self, _: &AnalysisCtx, _: &ValEvt) { self.0 += 1; }
/// }
///
/// let mut builder = ModuleBuilder::new();
/// builder.function("f", &[], &[ValType::I32], |f| {
///     f.i32_const(1).i32_const(2).i32_add();
/// });
/// let module = builder.finish();
///
/// let mut analysis = CountConsts::default();
/// let session = AnalysisSession::new(&module, analysis.hooks())?;
/// let results = session.run(&mut analysis, "f", &[])?;
/// assert_eq!(results, vec![Val::I32(3)]);
/// assert_eq!(analysis.0, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisSession {
    /// The instrumented module, validated and translated to the VM's flat
    /// IR exactly once — every [`AnalysisSession::run`] instantiates from
    /// this without cloning or re-translating the module.
    translated: TranslatedModule,
    info: ModuleInfo,
}

// A session is immutable shared data (translation + static info): the
// module cache hands one `Arc<AnalysisSession>` to every fleet worker.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnalysisSession>();
};

impl AnalysisSession {
    /// Instrument `module` for the given hook set.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn new(module: &Module, hooks: HookSet) -> Result<Self, wasabi_wasm::ValidationError> {
        let (module, info) = instrument(module, hooks)?;
        let start = std::time::Instant::now();
        let translated = TranslatedModule::new(module)?;
        stats::record_translation_time(start.elapsed());
        Ok(AnalysisSession { translated, info })
    }

    /// Build a session via the *direct-emit* path
    /// ([`crate::Instrumenter::run_direct`]): hook calls are emitted
    /// straight into the flat IR from the uninstrumented module — no
    /// binary rewrite, no re-encode, no translation of a bloated module.
    /// Behaviorally equivalent to [`AnalysisSession::new`] (the
    /// differential oracle pins this); the build is cheaper and
    /// [`AnalysisSession::module`] returns the *original* module.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn direct(module: &Module, hooks: HookSet) -> Result<Self, wasabi_wasm::ValidationError> {
        let (translated, info) = Instrumenter::new(hooks).run_direct(module.clone())?;
        Ok(Self::from_direct(translated, info))
    }

    /// Bundle a direct-emit translation with its static info (used by
    /// [`crate::pipeline::PipelineBuilder::build`] and the module cache).
    pub(crate) fn from_direct(translated: TranslatedModule, info: ModuleInfo) -> Self {
        AnalysisSession { translated, info }
    }

    /// Instrument `module` selectively for the hooks `analysis` declares.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn for_analysis(
        module: &Module,
        analysis: &dyn Analysis,
    ) -> Result<Self, wasabi_wasm::ValidationError> {
        Self::new(module, analysis.hooks())
    }

    /// The session's module: the instrumented module for rewrite-path
    /// sessions ([`AnalysisSession::new`]), the *original* module for
    /// direct-emit sessions ([`AnalysisSession::direct`] — hook calls
    /// exist only in the flat IR there).
    pub fn module(&self) -> &Module {
        self.translated.module()
    }

    /// The instrumented module with its cached flat-IR translation, for
    /// instantiating via [`Instance::instantiate_translated`] without
    /// re-validating or re-translating.
    pub fn translated(&self) -> &TranslatedModule {
        &self.translated
    }

    /// The static info for the runtime.
    pub fn info(&self) -> &ModuleInfo {
        &self.info
    }

    /// Instantiate the instrumented module and invoke `export` under
    /// `analysis`.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn run(
        &self,
        analysis: &mut dyn Analysis,
        export: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, AnalysisError> {
        stats::record_execution();
        let mut host = WasabiHost::new(&self.info, analysis);
        let mut instance = Instance::instantiate_translated(&self.translated, &mut host)?;
        let result = instance.invoke_export(export, args, &mut host);
        let (fast, slow) = instance.host_call_counts();
        stats::record_host_calls(fast, slow);
        Ok(result?)
    }

    /// Like [`AnalysisSession::run`], but with a program host for the
    /// module's own (non-hook) imports.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn run_with_host(
        &self,
        analysis: &mut dyn Analysis,
        program_host: &mut dyn Host,
        export: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, AnalysisError> {
        stats::record_execution();
        let mut host = WasabiHost::new(&self.info, analysis).with_program_host(program_host);
        let mut instance = Instance::instantiate_translated(&self.translated, &mut host)?;
        let result = instance.invoke_export(export, args, &mut host);
        let (fast, slow) = instance.host_call_counts();
        stats::record_host_calls(fast, slow);
        Ok(result?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoAnalysis;
    use wasabi_vm::host::HostFunctions;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::types::ValType;

    fn session_with_hooks() -> AnalysisSession {
        let mut builder = ModuleBuilder::new();
        builder.import_function("env", "print", &[ValType::I32], &[]);
        builder.function("f", &[], &[], |f| {
            f.i32_const(1).drop_();
        });
        AnalysisSession::new(&builder.finish(), HookSet::all()).expect("instruments")
    }

    #[test]
    fn resolves_hook_imports_by_name() {
        let session = session_with_hooks();
        let mut analysis = NoAnalysis;
        let mut host = WasabiHost::new(session.info(), &mut analysis);
        let first_hook = &session.info().hooks[0];
        let id = host.resolve(
            crate::convention::HOOK_MODULE,
            &first_hook.name(),
            &first_hook.wasm_type(),
        );
        assert_eq!(id, Some(HostFuncId(0)));
        assert_eq!(
            host.resolve(
                crate::convention::HOOK_MODULE,
                "no_such_hook",
                &FuncType::default()
            ),
            None
        );
    }

    #[test]
    fn non_hook_imports_need_a_program_host() {
        let session = session_with_hooks();
        let mut analysis = NoAnalysis;
        let mut host = WasabiHost::new(session.info(), &mut analysis);
        // Without a program host, the module's own import is unresolved.
        assert_eq!(
            host.resolve("env", "print", &FuncType::new(&[ValType::I32], &[])),
            None
        );
    }

    #[test]
    fn program_host_ids_are_offset_past_hooks() {
        let session = session_with_hooks();
        let hook_count = session.info().hooks.len();
        let mut analysis = NoAnalysis;
        let mut inner = HostFunctions::new();
        inner.register("env", "print", |_, _| Ok(vec![]));
        let mut host = WasabiHost::new(session.info(), &mut analysis).with_program_host(&mut inner);
        let id = host
            .resolve("env", "print", &FuncType::new(&[ValType::I32], &[]))
            .expect("resolves through the program host");
        assert_eq!(id, HostFuncId(hook_count));
    }

    #[test]
    fn analysis_error_display_covers_variants() {
        let invalid: AnalysisError = wasabi_wasm::ValidationError::module("nope").into();
        assert!(invalid.to_string().contains("invalid module"));
        let trap: AnalysisError = Trap::Unreachable.into();
        assert!(trap.to_string().contains("trapped"));
        let inst: AnalysisError = InstantiationError::NoSuchExport("x".to_string()).into();
        assert!(inst.to_string().contains("instantiation failed"));
    }

    #[test]
    fn session_exposes_module_and_info() {
        let session = session_with_hooks();
        assert!(session.module().functions.len() > session.info().original_function_count as usize);
        assert_eq!(session.info().enabled, HookSet::all());
    }

    #[test]
    fn undeclared_hooks_are_skipped_without_event_construction() {
        use crate::event::{AnalysisCtx, LoadEvt, StoreEvt, ValEvt};
        use crate::hooks::Hook;

        // Subscribes only to `const`; any other event delivery panics.
        #[derive(Default)]
        struct OnlyConsts(u64);
        impl Analysis for OnlyConsts {
            fn hooks(&self) -> HookSet {
                HookSet::of(&[Hook::Const])
            }
            fn const_(&mut self, _: &AnalysisCtx, _: &ValEvt) {
                self.0 += 1;
            }
            fn load(&mut self, _: &AnalysisCtx, _: &LoadEvt) {
                panic!("load must be skipped");
            }
            fn store(&mut self, _: &AnalysisCtx, _: &StoreEvt) {
                panic!("store must be skipped");
            }
        }

        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[], &[], |f| {
            f.i32_const(0)
                .i32_const(7)
                .store(wasabi_wasm::StoreOp::I32Store, 0);
            f.i32_const(0).load(wasabi_wasm::LoadOp::I32Load, 0).drop_();
        });
        // Instrumented for ALL hooks, but the analysis declares only
        // `const`: every other low-level hook call short-circuits.
        let session = AnalysisSession::new(&builder.finish(), HookSet::all()).unwrap();
        let mut analysis = OnlyConsts::default();
        session.run(&mut analysis, "f", &[]).unwrap();
        assert_eq!(analysis.0, 3, "one const event per original const");
    }

    #[test]
    fn br_table_emits_only_the_subscribed_event_kinds() {
        use crate::event::{AnalysisCtx, BranchTableEvt, EndEvt};
        use crate::hooks::Hook;

        // A br_table hook call carries two event kinds (the br_table
        // event and the replayed end events); each must reach only sinks
        // that subscribed to it.
        #[derive(Default)]
        struct EndsOnly(u64);
        impl Analysis for EndsOnly {
            fn hooks(&self) -> HookSet {
                HookSet::of(&[Hook::End])
            }
            fn end(&mut self, _: &AnalysisCtx, _: &EndEvt) {
                self.0 += 1;
            }
            fn br_table(&mut self, _: &AnalysisCtx, _: &BranchTableEvt) {
                panic!("br_table must not leak to an end-only analysis");
            }
        }
        #[derive(Default)]
        struct BrTablesOnly(u64);
        impl Analysis for BrTablesOnly {
            fn hooks(&self) -> HookSet {
                HookSet::of(&[Hook::BrTable])
            }
            fn br_table(&mut self, _: &AnalysisCtx, _: &BranchTableEvt) {
                self.0 += 1;
            }
            fn end(&mut self, _: &AnalysisCtx, _: &EndEvt) {
                panic!("end must not leak to a br_table-only analysis");
            }
        }

        let mut builder = ModuleBuilder::new();
        builder.function("f", &[ValType::I32], &[], |f| {
            f.block(None).block(None);
            f.get_local(0u32).br_table(vec![0], 1);
            f.end().end();
        });
        let module = builder.finish();
        let session = AnalysisSession::new(&module, HookSet::all()).unwrap();

        let mut ends = EndsOnly::default();
        session.run(&mut ends, "f", &[Val::I32(0)]).unwrap();
        assert!(ends.0 > 0, "replayed end events delivered");

        let mut tables = BrTablesOnly::default();
        session.run(&mut tables, "f", &[Val::I32(0)]).unwrap();
        assert_eq!(tables.0, 1, "one br_table event delivered");
    }

    #[test]
    fn session_run_records_host_call_stats() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[], &[], |f| {
            f.nop();
        });
        let session = AnalysisSession::new(&builder.finish(), HookSet::all()).unwrap();
        let before_fast = stats::host_calls_fast();
        let mut analysis = NoAnalysis;
        session.run(&mut analysis, "f", &[]).unwrap();
        // The nop/begin/end hook calls went through the intrinsic path.
        assert!(stats::host_calls_fast() > before_fast);
    }

    #[test]
    fn session_run_records_an_execution_pass() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[], &[], |f| {
            f.nop();
        });
        let session = AnalysisSession::new(&builder.finish(), HookSet::empty()).unwrap();
        let before = stats::execution_passes();
        let mut analysis = NoAnalysis;
        session.run(&mut analysis, "f", &[]).unwrap();
        assert!(stats::execution_passes() > before);
    }
}
