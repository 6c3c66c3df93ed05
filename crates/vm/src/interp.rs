//! The interpreter: instantiation and execution of validated modules.
//!
//! This is the execution substrate that stands in for the browser engine in
//! the paper's evaluation (DESIGN.md §3). Since PR 3 the hot loop no longer
//! walks the structured instruction sequence: each function body is
//! translated once into the flat pre-resolved IR of `crate::flat` (dense
//! `Vec<Op>`, absolute branch targets, baked-in branch arities and unwind
//! heights, fused superinstructions), so the per-step work is a single
//! match on a small op — no label stack, no `end`/`else` handling, no
//! `JumpTable` lookups at runtime.
//!
//! Translation is owned by [`TranslatedModule`] and shared by every
//! [`Instance`] created from it ([`Instance::instantiate_translated`]), so
//! benchmark loops and repeated analysis runs translate once, not per run.
//! The previous structured-walk execution survives as a differential-test
//! oracle in [`crate::reference`].
//!
//! Calls of **imported** functions dispatch through the host-call
//! intrinsic ops (see `crate::flat`, "Host-call intrinsics"): the host
//! identity resolves once at instantiation into a dense per-instance
//! table, arguments are gathered from the operand stack, the frame's
//! locals, and the folded immediates with no interpreter frame and no
//! per-call target match, and [`Instance::host_call_counts`] reports how
//! many calls took the intrinsic vs. the generic route.
//!
//! There is one dispatch loop, `Instance::resume_frames`, over an explicit
//! frame stack: [`Instance::invoke`] runs it to completion and
//! [`Instance::resume`] in bounded rounds, so WebAssembly recursion costs
//! heap frames, not native stack.
//!
//! `executed_instrs` counts **original** instructions (each op carries the
//! number of instructions it was fused from), accumulated in a per-round
//! local and flushed once when the round returns, suspends, or traps, so
//! the count — and fuel accounting — is exactly equal to the
//! structured-walk semantics.

use std::sync::Arc;

use wasabi_wasm::instr::{FunctionSpace, GlobalOp, Idx, Instr, Val};
use wasabi_wasm::module::{GlobalKind, Module};
use wasabi_wasm::validate::validate;

use crate::budget::{Budget, BUDGET_POLL_INTERVAL};
use crate::flat::{
    self, ArgSrc, HookImport, InstrumentedFunc, ModuleCode, Op, TranslateOptions, RETURN_TARGET,
};
use crate::host::{Host, HostCtx, HostFuncId};
use crate::memory::LinearMemory;
use crate::numeric;
use crate::table::FuncTable;
use crate::trap::{InstantiationError, Trap};

/// Default limit on nested WebAssembly calls.
///
/// The flat interpreter keeps WebAssembly frames on the heap, so the limit
/// does not guard the native stack there; raise it with
/// [`Instance::set_max_call_depth`] for deeply recursive workloads. The
/// default stays 256 because the trap point is observable behaviour
/// (`recursion_at_exactly_the_depth_limit` pins it) and because the
/// [`crate::Reference`] oracle, which shares the limit, still recurses
/// natively: one Rust frame per WebAssembly call.
pub const DEFAULT_MAX_CALL_DEPTH: usize = 256;

/// Where a function index leads: interpreted code or a host function.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FuncTarget {
    Wasm,
    Host(HostFuncId),
}

/// A validated module together with its flat-IR translation.
///
/// Construct once, instantiate many times: both the validation pass and the
/// per-function translation to the flat op stream happen here, so repeated
/// [`Instance::instantiate_translated`] calls (benchmark iterations,
/// repeated analysis runs over one instrumented module) pay neither again.
///
/// # Sharing across threads
///
/// A `TranslatedModule` is two `Arc`s over **immutable** data (the
/// validated module and its translated code) — it is `Send + Sync`, and
/// [`Clone`] is two reference-count bumps. All mutable execution state
/// (memory, globals, tables, fuel, counters, host-call scratch) lives in
/// the [`Instance`] each thread creates for itself, so any number of
/// threads can instantiate and run the same translation concurrently
/// without synchronization. This is what the `wasabi` core's module cache
/// and batch fleet build on: validate + translate once process-wide, run
/// everywhere.
///
/// ```
/// use std::sync::Arc;
/// use wasabi_vm::{Instance, TranslatedModule, host::EmptyHost};
/// use wasabi_wasm::builder::ModuleBuilder;
/// use wasabi_wasm::{Val, ValType};
///
/// let mut builder = ModuleBuilder::new();
/// builder.function("sq", &[ValType::I32], &[ValType::I32], |f| {
///     f.get_local(0u32).get_local(0u32).i32_mul();
/// });
/// let shared = Arc::new(TranslatedModule::new(builder.finish())?);
///
/// let results: Vec<_> = std::thread::scope(|s| {
///     (0..4)
///         .map(|i| {
///             let shared = Arc::clone(&shared);
///             s.spawn(move || {
///                 // Per-thread instance over the shared translation.
///                 let mut host = EmptyHost;
///                 let mut instance =
///                     Instance::instantiate_translated(&shared, &mut host).unwrap();
///                 instance.invoke_export("sq", &[Val::I32(i)], &mut host).unwrap()
///             })
///         })
///         .collect::<Vec<_>>()
///         .into_iter()
///         .map(|t| t.join().unwrap())
///         .collect()
/// });
/// assert_eq!(results[3], vec![Val::I32(9)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Examples
///
/// ```
/// use wasabi_vm::{Instance, TranslatedModule, host::EmptyHost};
/// use wasabi_wasm::builder::ModuleBuilder;
/// use wasabi_wasm::{Val, ValType};
///
/// let mut builder = ModuleBuilder::new();
/// builder.function("id", &[ValType::I32], &[ValType::I32], |f| {
///     f.get_local(0u32);
/// });
/// let translated = TranslatedModule::new(builder.finish())?;
/// let mut host = EmptyHost;
/// for i in 0..3 {
///     // No re-validation, no re-translation per iteration.
///     let mut instance = Instance::instantiate_translated(&translated, &mut host)?;
///     assert_eq!(instance.invoke_export("id", &[Val::I32(i)], &mut host)?, vec![Val::I32(i)]);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TranslatedModule {
    module: Arc<Module>,
    code: Arc<ModuleCode>,
}

impl TranslatedModule {
    /// Validate `module` and translate every function body to the flat IR.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn new(module: Module) -> Result<Self, wasabi_wasm::ValidationError> {
        Self::with_options(module, TranslateOptions::default())
    }

    /// Like [`TranslatedModule::new`], but fans function bodies out over
    /// `threads` scoped workers (the function-granular parallel build,
    /// paper §3). The output is **bit-identical** to `threads = 1`: bodies
    /// translate independently against local tables, and the join merges
    /// them into the module-global tables in function-index order.
    ///
    /// Also returns the summed worker busy time, for callers that fold
    /// per-thread accumulation into build phase timers once per build.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn new_with_threads(
        module: Module,
        threads: usize,
    ) -> Result<(Self, std::time::Duration), wasabi_wasm::ValidationError> {
        validate(&module)?;
        let (code, busy_nanos) = flat::translate_module_parallel(
            &module,
            None,
            Vec::new(),
            TranslateOptions::default(),
            threads,
        );
        Ok((
            TranslatedModule {
                module: Arc::new(module),
                code: Arc::new(code),
            },
            std::time::Duration::from_nanos(busy_nanos),
        ))
    }

    /// Like [`TranslatedModule::new`], but calls of imported functions go
    /// through the generic call machinery instead of the host-call
    /// intrinsic ops (`crate::flat`, "Host-call intrinsics").
    ///
    /// This is the pre-intrinsic execution path, kept addressable so
    /// benchmarks can report before/after numbers and differential tests
    /// can exercise the generic fallback.
    ///
    /// # Errors
    ///
    /// Fails if the module does not validate.
    pub fn new_without_host_intrinsics(
        module: Module,
    ) -> Result<Self, wasabi_wasm::ValidationError> {
        Self::with_options(
            module,
            TranslateOptions {
                host_call_intrinsics: false,
            },
        )
    }

    fn with_options(
        module: Module,
        opts: TranslateOptions,
    ) -> Result<Self, wasabi_wasm::ValidationError> {
        validate(&module)?;
        let code = Arc::new(flat::translate_module_with(&module, opts));
        Ok(TranslatedModule {
            module: Arc::new(module),
            code,
        })
    }

    /// Direct-emit instrumentation: translate the given pre-instrumented
    /// bodies in place of the **uninstrumented** module's — no binary
    /// rewrite, no re-encode, no validation of a bloated rewritten module.
    ///
    /// `funcs` is aligned with `module.functions` (`None` keeps the
    /// original body); injected hook calls target the synthetic
    /// `hook_imports` at function indices `module.functions.len()..`, are
    /// always emitted as host-call intrinsic ops, and fuse with their
    /// marshalling runs exactly like calls of real imports (`crate::flat`,
    /// "Direct-emit instrumentation"). At instantiation the synthetic
    /// imports resolve against the host after the module's real imports,
    /// and hooks the host declares no-op ([`Host::is_noop`]) retire
    /// without crossing the host boundary.
    ///
    /// The caller has validated `module` and guarantees the instrumented
    /// bodies are valid against it extended by the hook imports: this
    /// constructor checks neither (an instrumenter validates its input
    /// once and type-checks while injecting, so re-checking here would be
    /// pure overhead).
    ///
    /// `module` may be an `Arc<Module>` held elsewhere: the translation
    /// then shares it rather than owning a copy.
    pub fn new_instrumented(
        module: impl Into<Arc<Module>>,
        funcs: &[Option<InstrumentedFunc>],
        hook_imports: Vec<HookImport>,
    ) -> Self {
        Self::new_instrumented_with_threads(module, funcs, hook_imports, 1).0
    }

    /// Like [`TranslatedModule::new_instrumented`], but fans the
    /// pre-instrumented bodies out over `threads` scoped translation
    /// workers — the second half of the fused instrument+translate build,
    /// driven by the same `threads(n)` knob as the instrumenter. Output is
    /// **bit-identical** to `threads = 1` (see
    /// [`TranslatedModule::new_with_threads`]).
    ///
    /// Also returns the summed worker busy time, for callers that fold
    /// per-thread accumulation into build phase timers once per build.
    /// The caller has validated `module`, as for `new_instrumented`.
    pub fn new_instrumented_with_threads(
        module: impl Into<Arc<Module>>,
        funcs: &[Option<InstrumentedFunc>],
        hook_imports: Vec<HookImport>,
        threads: usize,
    ) -> (Self, std::time::Duration) {
        let module = module.into();
        let (code, busy_nanos) = flat::translate_module_parallel(
            &module,
            Some(funcs),
            hook_imports,
            TranslateOptions::default(),
            threads,
        );
        (
            TranslatedModule {
                module,
                code: Arc::new(code),
            },
            std::time::Duration::from_nanos(busy_nanos),
        )
    }

    /// The underlying module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The synthetic hook imports of a direct-emit translation (empty for
    /// plain translations), in resolution order.
    pub fn hook_imports(&self) -> &[HookImport] {
        &self.code.hook_imports
    }

    /// Debug-formatted flat op streams, one `Vec<String>` per function in
    /// module order (imports are empty).
    ///
    /// This is an introspection surface for tests pinning translation
    /// equalities (e.g. "instrumenting for an empty hook set emits
    /// op-for-op the uninstrumented translation"); the formatting is not a
    /// stable API.
    #[doc(hidden)]
    pub fn op_streams(&self) -> Vec<Vec<String>> {
        self.code
            .funcs
            .iter()
            .map(|f| f.ops.iter().map(|op| format!("{op:?}")).collect())
            .collect()
    }

    /// Debug-formatted dump of the *entire* translated module code — ops,
    /// jump destinations, const/args/sigs tables, hook imports. Two
    /// translations are bit-identical iff these strings are equal.
    ///
    /// Introspection surface for the parallel-equivalence tests; the
    /// formatting is not a stable API.
    #[doc(hidden)]
    pub fn code_debug(&self) -> String {
        format!("{:?}", self.code)
    }

    /// Serialize the translated code (ops, jump tables, const/args/sigs
    /// tables, hook imports) to the compact binary form consumed by the
    /// on-disk prepared-session cache. The underlying [`Module`] is *not*
    /// serialized — the cache keys entries by module content hash and
    /// already holds the module bytes.
    pub fn encode_code(&self) -> Vec<u8> {
        crate::codec::encode(&self.code)
    }

    /// Rebuild a translated module from `module` plus code bytes produced
    /// by [`TranslatedModule::encode_code`] — the disk-warm path: no
    /// instrumentation, no translation, just validation plus decoding.
    ///
    /// Returns `None` when the bytes are malformed (truncated, garbled, a
    /// different format) or structurally inconsistent with `module`, or
    /// when the module itself does not validate — callers fall back to a
    /// clean rebuild.
    #[must_use]
    pub fn from_encoded_code(module: impl Into<Arc<Module>>, bytes: &[u8]) -> Option<Self> {
        let module = module.into();
        validate(&module).ok()?;
        let code = crate::codec::decode(bytes)?;
        if code.funcs.len() != module.functions.len() {
            return None;
        }
        Some(TranslatedModule {
            module,
            code: Arc::new(code),
        })
    }
}

// The shared-translation contract the core's cache and fleet rely on: if a
// future change introduces interior mutability or a non-Sync payload into
// the translation, this fails to compile instead of failing at a
// cross-thread use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TranslatedModule>();
};

/// An instantiated module, ready to execute.
///
/// # Examples
///
/// ```
/// use wasabi_vm::{Instance, host::EmptyHost};
/// use wasabi_wasm::builder::ModuleBuilder;
/// use wasabi_wasm::{ValType, Val};
///
/// let mut builder = ModuleBuilder::new();
/// builder.function("add1", &[ValType::I32], &[ValType::I32], |f| {
///     f.get_local(0u32).i32_const(1).i32_add();
/// });
/// let mut host = EmptyHost;
/// let mut instance = Instance::instantiate(builder.finish(), &mut host)?;
/// let results = instance.invoke_export("add1", &[Val::I32(41)], &mut host)?;
/// assert_eq!(results, vec![Val::I32(42)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Instance {
    pub(crate) module: Arc<Module>,
    code: Arc<ModuleCode>,
    pub(crate) func_targets: Vec<FuncTarget>,
    /// Dense host-identity table for the host-call intrinsic ops: for every
    /// imported function index, the [`HostFuncId`] the host resolved it to
    /// (non-import slots hold a never-read placeholder). Resolved once at
    /// instantiation so [`Op::HostCall`] dispatch needs no per-call match
    /// on [`FuncTarget`]. Synthetic hook imports of a direct-emit
    /// translation extend the table past the module's own function count.
    host_ids: Vec<HostFuncId>,
    /// Aligned with `host_ids`: `true` if the host declared the import a
    /// statically-known no-op ([`Host::is_noop`]). Only *synthetic* hook
    /// imports are ever queried — real imports always cross the host
    /// boundary. A masked call still pays its weight, fuel, and depth
    /// check; it just skips argument marshalling and the host call.
    host_noop: Vec<bool>,
    /// Argument scratch for [`Op::HostCall`]: the stack arguments plus the
    /// folded template; reused across calls, so the steady state allocates
    /// nothing.
    host_args: Vec<Val>,
    pub(crate) memory: Option<LinearMemory>,
    pub(crate) table: Option<FuncTable>,
    pub(crate) globals: Vec<Val>,
    pub(crate) fuel: Option<u64>,
    /// Optional resource governance (deadline / cancellation / memory
    /// cap), polled every [`BUDGET_POLL_INTERVAL`] weight units.
    budget: Option<Budget>,
    /// Weight units until the next budget poll; counts down only while a
    /// budget is attached.
    poll_countdown: u64,
    pub(crate) executed_instrs: u64,
    pub(crate) max_call_depth: usize,
    /// Host calls dispatched through the intrinsic fast path
    /// ([`Op::HostCall`]).
    pub(crate) host_calls_fast: u64,
    /// Host calls dispatched through the generic call machinery (generic
    /// `call`, `call_indirect` to an import, direct invocation of an
    /// import, or the [`crate::Reference`] oracle).
    pub(crate) host_calls_slow: u64,
}

impl Instance {
    /// Validate, translate, and instantiate `module` against `host`,
    /// running data and element segment initialization and the start
    /// function (if any).
    ///
    /// To amortize validation and translation over several instantiations,
    /// build a [`TranslatedModule`] once and use
    /// [`Instance::instantiate_translated`].
    ///
    /// # Errors
    ///
    /// See [`InstantiationError`].
    pub fn instantiate(module: Module, host: &mut dyn Host) -> Result<Self, InstantiationError> {
        let translated = TranslatedModule::new(module)?;
        Self::instantiate_translated(&translated, host)
    }

    /// Instantiate a pre-validated, pre-translated module against `host`.
    ///
    /// Imported memories and tables are instantiated fresh with their
    /// declared limits (this embedding is single-instance; see DESIGN.md).
    ///
    /// # Errors
    ///
    /// See [`InstantiationError`].
    pub fn instantiate_translated(
        translated: &TranslatedModule,
        host: &mut dyn Host,
    ) -> Result<Self, InstantiationError> {
        let module = &*translated.module;

        let hook_imports = &translated.code.hook_imports;
        let mut func_targets = Vec::with_capacity(module.functions.len());
        let mut host_ids = Vec::with_capacity(module.functions.len() + hook_imports.len());
        let mut host_noop = Vec::with_capacity(module.functions.len() + hook_imports.len());
        for function in &module.functions {
            match function.import() {
                Some(import) => {
                    let id = host
                        .resolve(&import.module, &import.name, &function.type_)
                        .ok_or_else(|| InstantiationError::UnresolvedFunctionImport {
                            module: import.module.clone(),
                            name: import.name.clone(),
                        })?;
                    func_targets.push(FuncTarget::Host(id));
                    host_ids.push(id);
                    host_noop.push(false);
                }
                None => {
                    func_targets.push(FuncTarget::Wasm);
                    // Placeholder; `Op::HostCall` is only emitted for
                    // imported callees, so this slot is never read.
                    host_ids.push(HostFuncId(usize::MAX));
                    host_noop.push(false);
                }
            }
        }
        // Synthetic hook imports of a direct-emit translation resolve after
        // the module's real imports (same relative order as they appear in
        // the code). They are the only imports the no-op mask is consulted
        // for: a hook the host statically knows it will ignore retires at
        // the dispatch arm without marshalling arguments or crossing the
        // host boundary.
        for hook in hook_imports {
            let id = host
                .resolve(&hook.module, &hook.name, &hook.ty)
                .ok_or_else(|| InstantiationError::UnresolvedFunctionImport {
                    module: hook.module.clone(),
                    name: hook.name.clone(),
                })?;
            host_ids.push(id);
            host_noop.push(host.is_noop(id));
        }

        let mut globals = Vec::with_capacity(module.globals.len());
        for global in &module.globals {
            match &global.kind {
                GlobalKind::Import(import) => {
                    let value = host
                        .resolve_global(&import.module, &import.name, &global.type_)
                        .ok_or_else(|| InstantiationError::UnresolvedGlobalImport {
                            module: import.module.clone(),
                            name: import.name.clone(),
                        })?;
                    globals.push(value);
                }
                GlobalKind::Init(init) => globals.push(eval_const_expr(init, &globals)),
            }
        }

        let mut memory = module
            .memories
            .first()
            .map(|m| LinearMemory::new(m.type_.0));
        if let (Some(mem), Some(memory)) = (module.memories.first(), memory.as_mut()) {
            for data in &mem.data {
                let offset = eval_const_expr(&data.offset, &globals)
                    .as_i32()
                    .expect("validated: i32 offset") as u32;
                memory
                    .init(offset, &data.bytes)
                    .map_err(|_| InstantiationError::DataSegmentOutOfBounds)?;
            }
        }

        let mut table = module.tables.first().map(|t| FuncTable::new(t.type_.0));
        if let (Some(t), Some(table)) = (module.tables.first(), table.as_mut()) {
            for element in &t.elements {
                let offset = eval_const_expr(&element.offset, &globals)
                    .as_i32()
                    .expect("validated: i32 offset") as u32;
                table
                    .init(offset, &element.functions)
                    .map_err(|_| InstantiationError::ElementSegmentOutOfBounds)?;
            }
        }

        let mut instance = Instance {
            module: Arc::clone(&translated.module),
            code: Arc::clone(&translated.code),
            func_targets,
            host_ids,
            host_noop,
            host_args: Vec::new(),
            memory,
            table,
            globals,
            fuel: None,
            budget: None,
            poll_countdown: BUDGET_POLL_INTERVAL,
            executed_instrs: 0,
            max_call_depth: DEFAULT_MAX_CALL_DEPTH,
            host_calls_fast: 0,
            host_calls_slow: 0,
        };

        if let Some(start) = instance.module.start {
            instance
                .invoke(start, &[], host)
                .map_err(InstantiationError::StartTrapped)?;
        }

        Ok(instance)
    }

    /// Set an optional fuel budget: execution traps with [`Trap::OutOfFuel`]
    /// after this many instructions. `None` disables the limit.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
    }

    /// Attach (or detach, with `None`) a resource [`Budget`]: wall-clock
    /// deadline, cooperative cancellation, and/or a memory-growth cap.
    /// With no budget the hot loop pays one hoisted branch, exactly like
    /// disabled fuel.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
        self.poll_countdown = BUDGET_POLL_INTERVAL;
    }

    /// Poll the attached budget's deadline/token and rearm the countdown.
    /// Out of line: it runs at most once per [`BUDGET_POLL_INTERVAL`]
    /// weight units and must not bloat the dispatch loop.
    #[cold]
    #[inline(never)]
    fn check_budget(&mut self) -> Result<(), Trap> {
        self.poll_countdown = BUDGET_POLL_INTERVAL;
        match &self.budget {
            Some(budget) => budget.check(),
            None => Ok(()),
        }
    }

    /// Limit on nested WebAssembly calls (default
    /// [`DEFAULT_MAX_CALL_DEPTH`]).
    pub fn set_max_call_depth(&mut self, depth: usize) {
        self.max_call_depth = depth;
    }

    /// Total number of WebAssembly instructions executed by this instance.
    ///
    /// Superinstructions count as the instructions they were fused from, so
    /// the number is independent of translation choices.
    pub fn executed_instrs(&self) -> u64 {
        self.executed_instrs
    }

    /// Host calls this instance has dispatched, as `(fast, slow)`: `fast`
    /// went through the host-call intrinsic ops (`crate::flat`,
    /// "Host-call intrinsics"), `slow` through the generic call machinery
    /// (generic `call` translation, `call_indirect` to an import, direct
    /// invocation of an import, or the [`crate::Reference`] oracle).
    ///
    /// Benchmarks and tests use this to assert the intrinsic path actually
    /// fired (and that the fallback is exercised where intended).
    pub fn host_call_counts(&self) -> (u64, u64) {
        (self.host_calls_fast, self.host_calls_slow)
    }

    /// The module this instance was created from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The instance's linear memory, if any.
    pub fn memory(&self) -> Option<&LinearMemory> {
        self.memory.as_ref()
    }

    /// Mutable access to the linear memory, if any.
    pub fn memory_mut(&mut self) -> Option<&mut LinearMemory> {
        self.memory.as_mut()
    }

    /// The instance's function table, if any.
    pub fn table(&self) -> Option<&FuncTable> {
        self.table.as_ref()
    }

    /// Current values of all globals.
    pub fn globals(&self) -> &[Val] {
        &self.globals
    }

    /// Invoke an exported function by name.
    ///
    /// # Errors
    ///
    /// Traps propagate; a missing export or argument type mismatch is
    /// reported as a [`Trap::HostError`].
    pub fn invoke_export(
        &mut self,
        name: &str,
        args: &[Val],
        host: &mut dyn Host,
    ) -> Result<Vec<Val>, Trap> {
        let idx = self
            .module
            .export_function(name)
            .ok_or_else(|| Trap::HostError(format!("no exported function {name:?}")))?;
        self.invoke(idx, args, host)
    }

    /// Invoke the function at `func_idx`: a [`Resumable`] run to
    /// completion in one round with no quota.
    ///
    /// # Errors
    ///
    /// Traps propagate; argument count/type mismatches are a
    /// [`Trap::HostError`].
    pub fn invoke(
        &mut self,
        func_idx: Idx<FunctionSpace>,
        args: &[Val],
        host: &mut dyn Host,
    ) -> Result<Vec<Val>, Trap> {
        let mut activation = self.begin_resumable(func_idx, args)?;
        match self.run(&mut activation, host, None)? {
            StepOutcome::Done(results) => Ok(results),
            StepOutcome::Pending => unreachable!("a run without a quota never suspends"),
        }
    }

    /// Call a host function through the generic call machinery (a `call`
    /// or `call_indirect` of an import, or an invoked import): the host
    /// receives `stack[at..]` and its results replace it.
    fn host_call_slow(
        &mut self,
        id: HostFuncId,
        stack: &mut Vec<Val>,
        at: usize,
        host: &mut dyn Host,
    ) -> Result<(), Trap> {
        self.host_calls_slow += 1;
        let ctx = HostCtx {
            memory: self.memory.as_mut(),
            table: self.table.as_mut(),
            globals: &mut self.globals,
        };
        let results = host.call(id, &stack[at..], ctx)?;
        stack.truncate(at);
        stack.extend_from_slice(&results);
        Ok(())
    }

    /// Dispatch one [`Op::HostCall`] intrinsic: the host receives
    /// `stack[at..]` followed by the template's values, gathered from the
    /// frame's locals and the immediates into the reused scratch buffer,
    /// and its results replace `stack[at..]`.
    ///
    /// Never inlined: the host boundary's argument marshalling stays out of
    /// line from the dispatch loop in [`Instance::resume_frames`].
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn host_call_fast(
        &mut self,
        func: u32,
        stack: &mut Vec<Val>,
        at: usize,
        tpl: &[ArgSrc],
        locals: &[Val],
        retc: u32,
        host: &mut dyn Host,
    ) -> Result<(), Trap> {
        self.host_calls_fast += 1;
        let id = self.host_ids[func as usize];
        let mut args = std::mem::take(&mut self.host_args);
        args.clear();
        args.extend_from_slice(&stack[at..]);
        args.extend(tpl.iter().map(|src| match *src {
            ArgSrc::Local(idx) => locals[idx as usize],
            ArgSrc::Value(v) => v,
        }));
        let ctx = HostCtx {
            memory: self.memory.as_mut(),
            table: self.table.as_mut(),
            globals: &mut self.globals,
        };
        let result = host.call(id, &args, ctx);
        self.host_args = args;
        let results = result?;
        debug_assert_eq!(results.len(), retc as usize, "host result arity");
        stack.truncate(at);
        stack.extend_from_slice(&results);
        Ok(())
    }
}

/// What one [`Instance::resume`] round produced.
#[derive(Debug)]
pub enum StepOutcome {
    /// The round's weight quota ran out mid-execution; the activation is
    /// suspended in its [`Resumable`] and can be resumed later.
    Pending,
    /// The invoked function returned these results; the [`Resumable`] is
    /// finished.
    Done(Vec<Val>),
}

/// One activation frame of a [`Resumable`]: a function, its program
/// counter, and where its locals and operand stack begin on the stacks all
/// frames share.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    pc: usize,
    locals_base: usize,
    stack_base: usize,
}

/// A suspended (resumable) invocation of one function, driven in bounded
/// rounds by [`Instance::resume`].
///
/// A `Resumable` keeps its call stack as explicit heap frames, so
/// execution can stop after a weight quota and continue later with zero
/// re-execution and zero double-counting. Every invocation runs this way:
/// [`Instance::invoke`] is one round with no quota, and cohort execution
/// ([`crate::cohort::CohortRunner`]) interleaves N instances in bounded
/// rounds.
///
/// All observable semantics (results, traps and their order, fuel
/// accounting including the out-of-fuel adjustment, budget poll cadence,
/// `executed_instrs`, host-call counters, call-depth limits) are
/// **bit-identical** whatever the quotas; the differential suites
/// (`tests/cohort_vs_sequential.rs`, the repo-level instrumented oracle)
/// pin this equivalence against unbounded `invoke` on random modules.
///
/// A `Resumable` is tied to the [`Instance`] that created it: resuming it
/// against a different instance is a logic error (frames index that
/// instance's translated code).
///
/// # Examples
///
/// ```
/// use wasabi_vm::{Instance, StepOutcome, host::EmptyHost};
/// use wasabi_wasm::builder::ModuleBuilder;
/// use wasabi_wasm::{Val, ValType};
///
/// let mut builder = ModuleBuilder::new();
/// builder.function("sum", &[ValType::I32], &[ValType::I32], |f| {
///     let i = f.local(ValType::I32);
///     let acc = f.local(ValType::I32);
///     f.block(None).loop_(None);
///     f.get_local(i).get_local(0u32).binary(wasabi_wasm::BinaryOp::I32GeS).br_if(1);
///     f.get_local(acc).get_local(i).i32_add().set_local(acc);
///     f.get_local(i).i32_const(1).i32_add().set_local(i);
///     f.br(0).end().end();
///     f.get_local(acc);
/// });
/// let mut host = EmptyHost;
/// let mut instance = Instance::instantiate(builder.finish(), &mut host)?;
/// let mut activation = instance.begin_resumable_export("sum", &[Val::I32(100)])?;
/// // Step in small rounds; a plain run would execute ~700 instructions.
/// let mut rounds = 0;
/// let results = loop {
///     rounds += 1;
///     match instance.resume(&mut activation, &mut host, 64)? {
///         StepOutcome::Pending => continue,
///         StepOutcome::Done(results) => break results,
///     }
/// };
/// assert_eq!(results, vec![Val::I32(4950)]);
/// assert!(rounds > 5, "the quota actually preempted execution");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Resumable {
    /// Suspended frames, innermost last.
    frames: Vec<Frame>,
    /// The operand stack all frames share.
    stack: Vec<Val>,
    /// The locals of all frames, innermost last.
    locals: Vec<Val>,
    /// `Some` when the invoked function itself is a host import: the call
    /// happens wholesale on the first resume (there is no wasm frame to
    /// suspend), with the arguments in `stack`, and counts as one slow
    /// host call.
    entry_host: Option<HostFuncId>,
    done: bool,
}

impl Resumable {
    /// `true` once the activation returned or trapped; resuming a finished
    /// activation is a logic error.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Current wasm call depth (suspended frames).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

impl Instance {
    /// Begin a resumable invocation of the exported function `name`; drive
    /// it with [`Instance::resume`].
    ///
    /// # Errors
    ///
    /// Like [`Instance::invoke_export`]: a missing export or argument
    /// type mismatch is a [`Trap::HostError`] (reported immediately, not
    /// on first resume).
    pub fn begin_resumable_export(&mut self, name: &str, args: &[Val]) -> Result<Resumable, Trap> {
        let idx = self
            .module
            .export_function(name)
            .ok_or_else(|| Trap::HostError(format!("no exported function {name:?}")))?;
        self.begin_resumable(idx, args)
    }

    /// Begin a resumable invocation of the function at `func_idx` —
    /// argument checking as in [`Instance::invoke`], but no execution
    /// happens yet.
    ///
    /// # Errors
    ///
    /// Argument count/type mismatches are a [`Trap::HostError`]; a
    /// call-depth limit of zero is [`Trap::CallStackExhausted`] (the entry
    /// frame itself does not fit).
    pub fn begin_resumable(
        &mut self,
        func_idx: Idx<FunctionSpace>,
        args: &[Val],
    ) -> Result<Resumable, Trap> {
        let ty = &self.module.functions[func_idx.to_usize()].type_;
        if ty.params.len() != args.len() || ty.params.iter().zip(args).any(|(&p, a)| a.ty() != p) {
            return Err(Trap::HostError(format!(
                "invoke arguments {args:?} do not match type {ty}"
            )));
        }
        if self.max_call_depth == 0 {
            return Err(Trap::CallStackExhausted);
        }
        match self.func_targets[func_idx.to_usize()] {
            FuncTarget::Host(id) => Ok(Resumable {
                frames: Vec::new(),
                stack: args.to_vec(),
                locals: Vec::new(),
                entry_host: Some(id),
                done: false,
            }),
            FuncTarget::Wasm => {
                let func = &self.code.funcs[func_idx.to_usize()];
                let mut locals = Vec::with_capacity(args.len() + func.zeros.len());
                locals.extend_from_slice(args);
                locals.extend_from_slice(&func.zeros);
                Ok(Resumable {
                    frames: vec![Frame {
                        func: func_idx.to_usize() as u32,
                        pc: 0,
                        locals_base: 0,
                        stack_base: 0,
                    }],
                    stack: Vec::with_capacity(16),
                    locals,
                    entry_host: None,
                    done: false,
                })
            }
        }
    }

    /// Run the activation for (at least) one op and at most ~`quota`
    /// weight units, then suspend. Returns [`StepOutcome::Pending`] when
    /// the quota preempted execution, [`StepOutcome::Done`] with the
    /// results when the invoked function returned; traps finish the
    /// activation.
    ///
    /// The quota is checked *before* each op executes, so a preempted
    /// round resumes at the saved program counter with no op executed or
    /// accounted twice. An op's full weight is always spent once started
    /// (a round may overshoot the quota by at most one superinstruction).
    ///
    /// # Errors
    ///
    /// Exactly the traps [`Instance::invoke`] would produce.
    ///
    /// # Panics
    ///
    /// Panics if called on a finished [`Resumable`].
    pub fn resume(
        &mut self,
        activation: &mut Resumable,
        host: &mut dyn Host,
        quota: u64,
    ) -> Result<StepOutcome, Trap> {
        self.run(activation, host, Some(quota.max(1)))
    }

    /// One round of `activation`: bounded by `quota` weight units when
    /// `Some` ([`Instance::resume`]), to completion when `None`
    /// ([`Instance::invoke`]).
    fn run(
        &mut self,
        activation: &mut Resumable,
        host: &mut dyn Host,
        quota: Option<u64>,
    ) -> Result<StepOutcome, Trap> {
        assert!(!activation.done, "resume called on a finished Resumable");
        if let Some(id) = activation.entry_host.take() {
            // The invoked function is itself a host import: one slow host
            // call at depth 0, no wasm frames.
            activation.done = true;
            let mut stack = std::mem::take(&mut activation.stack);
            self.host_call_slow(id, &mut stack, 0, host)?;
            return Ok(StepOutcome::Done(stack));
        }
        // Keep the code reachable while `self` is mutated during execution.
        let code = Arc::clone(&self.code);
        // Instructions executed by the round accumulate in a local and are
        // flushed exactly once — including on traps — instead of bumping
        // the shared counter every step.
        let mut steps = 0u64;
        let result = self.resume_frames(&code, activation, host, &mut steps, quota);
        self.executed_instrs += steps;
        if !matches!(result, Ok(StepOutcome::Pending)) {
            activation.done = true;
        }
        result
    }

    /// The flat-IR dispatch loop, the only one: [`Instance::invoke`] runs
    /// it with no quota and [`Instance::resume`] with one. Wasm calls push
    /// a [`Frame`] and returns pop it, so call depth costs heap, not native
    /// stack; a quota suspends the loop between ops.
    ///
    /// All frames share one operand stack and one locals stack. A call
    /// moves its arguments off the operand stack into fresh locals on top
    /// of the locals stack; a return carries its results down to the
    /// callee's stack base, which is where the caller expects them. Once
    /// the two stacks have grown, a call allocates nothing.
    #[allow(clippy::too_many_lines)]
    fn resume_frames(
        &mut self,
        code: &ModuleCode,
        activation: &mut Resumable,
        host: &mut dyn Host,
        steps: &mut u64,
        quota: Option<u64>,
    ) -> Result<StepOutcome, Trap> {
        // Fuel cannot appear mid-run (only `set_fuel` between rounds
        // installs it), so the common no-fuel case pays one predictable
        // branch per op instead of an `Option` inspection. The budget and
        // the quota are hoisted the same way: ungoverned, unbounded runs
        // see never-taken branches, governed runs decrement a countdown
        // and touch the clock/token only when it hits zero.
        let fuel_active = self.fuel.is_some();
        let budget_active = self.budget.is_some();
        let quota_active = quota.is_some();
        let mut remaining = quota.unwrap_or(0);
        // The shared stacks are locals of the loop for the round and go
        // back into the activation when it suspends; a trap finishes the
        // activation, so they are dropped.
        let mut stack = std::mem::take(&mut activation.stack);
        let mut frame_locals = std::mem::take(&mut activation.locals);

        'frames: loop {
            let frame = *activation
                .frames
                .last()
                .expect("resumable has a live frame");
            let depth = activation.frames.len() - 1;
            let func = &code.funcs[frame.func as usize];
            let ops: &[Op] = &func.ops;
            let locals = &mut frame_locals[frame.locals_base..];
            let mut pc = frame.pc;

            'dispatch: loop {
                // Defined inside the labeled loop so `continue 'dispatch` /
                // `continue 'frames` resolve (labels are macro-hygienic).
                macro_rules! pop {
                    () => {
                        stack.pop().expect("validated: operand on stack")
                    };
                }
                macro_rules! pop_i32 {
                    () => {
                        pop!().as_i32().expect("validated: i32 operand")
                    };
                }
                // Pop the top frame with `keep` results, carried down to
                // its stack base: either finish the activation or resume
                // the caller.
                macro_rules! ret {
                    ($keep:expr) => {{
                        unwind(&mut stack, $keep, frame.stack_base);
                        frame_locals.truncate(frame.locals_base);
                        activation.frames.pop();
                        if activation.frames.is_empty() {
                            return Ok(StepOutcome::Done(stack));
                        }
                        continue 'frames;
                    }};
                }
                // Take a resolved branch: either leave the function with the
                // carried values, or unwind the value stack and jump.
                macro_rules! branch_to {
                    ($dest:expr) => {{
                        let dest = $dest;
                        if dest.target == RETURN_TARGET {
                            ret!(dest.keep as usize);
                        }
                        let height = frame.stack_base + dest.height as usize;
                        unwind(&mut stack, dest.keep as usize, height);
                        pc = dest.target as usize;
                        continue 'dispatch;
                    }};
                }
                // Call the wasm function `callee` on the top `params`
                // operands: push its frame, and resume after the call once
                // it returns.
                macro_rules! call_wasm {
                    ($callee:expr, $params:expr) => {{
                        let callee: u32 = $callee;
                        let at = stack.len() - $params as usize;
                        let locals_base = frame_locals.len();
                        frame_locals.extend_from_slice(&stack[at..]);
                        frame_locals.extend_from_slice(&code.funcs[callee as usize].zeros);
                        stack.truncate(at);
                        activation.frames.last_mut().expect("caller frame").pc = pc + 1;
                        activation.frames.push(Frame {
                            func: callee,
                            pc: 0,
                            locals_base,
                            stack_base: at,
                        });
                        continue 'frames;
                    }};
                }
                let op = &ops[pc];
                let w = op.weight();
                if quota_active {
                    // Checked before the op runs, so a preempted round
                    // resumes at this pc with nothing executed twice.
                    if remaining == 0 {
                        activation.frames.last_mut().expect("live frame").pc = pc;
                        activation.stack = stack;
                        activation.locals = frame_locals;
                        return Ok(StepOutcome::Pending);
                    }
                    remaining = remaining.saturating_sub(w);
                }
                *steps += w;
                if fuel_active {
                    let fuel = self.fuel.as_mut().expect("fuel checked active");
                    if *fuel < w {
                        // The structured-walk semantics counts every
                        // instruction it could still afford plus the one
                        // that trapped.
                        *steps = *steps - w + *fuel + 1;
                        *fuel = 0;
                        return Err(Trap::OutOfFuel);
                    }
                    *fuel -= w;
                }
                if budget_active {
                    self.poll_countdown = self.poll_countdown.saturating_sub(w);
                    if self.poll_countdown == 0 {
                        self.check_budget()?;
                    }
                }

                match op {
                    Op::Skip => {}
                    Op::Unreachable => return Err(Trap::Unreachable),
                    Op::Goto(target) => {
                        pc = *target as usize;
                        continue;
                    }
                    Op::IfNot(target) => {
                        if pop_i32!() == 0 {
                            pc = *target as usize;
                            continue;
                        }
                    }
                    Op::Br(dest) => branch_to!(dest),
                    Op::BrIf(dest) => {
                        if pop_i32!() != 0 {
                            branch_to!(dest);
                        }
                    }
                    Op::BrTable(table) => {
                        let idx = pop_i32!() as u32 as usize;
                        let dest = table.dests.get(idx).unwrap_or(&table.default);
                        branch_to!(dest);
                    }
                    Op::Return => ret!(func.arity),

                    Op::Call { callee, params } => {
                        // The callee's depth is checked before the target
                        // match, so host and wasm callees trap alike.
                        if depth + 1 >= self.max_call_depth {
                            return Err(Trap::CallStackExhausted);
                        }
                        match self.func_targets[*callee as usize] {
                            FuncTarget::Host(id) => {
                                let at = stack.len() - *params as usize;
                                self.host_call_slow(id, &mut stack, at, host)?;
                            }
                            FuncTarget::Wasm => call_wasm!(*callee, *params),
                        }
                    }
                    // Host-call intrinsic (see `flat`): the callee's host
                    // identity was resolved at instantiation, the arguments
                    // are the operand-stack prefix plus the folded template
                    // — no interpreter frame, no function-target match.
                    Op::HostCall {
                        func,
                        stack_argc,
                        retc,
                        args_at,
                        args_len,
                    } => {
                        if depth + 1 >= self.max_call_depth {
                            return Err(Trap::CallStackExhausted);
                        }
                        let at = stack.len() - *stack_argc as usize;
                        // No-op mask (direct-emit instrumentation): a hook
                        // the host declared dead retires here — weight,
                        // fuel, and the depth check above were already
                        // paid, so traps and `executed_instrs` are
                        // unchanged; only argument marshalling and the host
                        // boundary are skipped. Hooks return no results
                        // (`retc == 0`), so popping the arguments restores
                        // the stack exactly.
                        if self.host_noop[*func as usize] {
                            debug_assert_eq!(*retc, 0, "no-op mask requires resultless hooks");
                            self.host_calls_fast += 1;
                            stack.truncate(at);
                        } else {
                            let tpl =
                                &code.args[*args_at as usize..(*args_at + *args_len) as usize];
                            self.host_call_fast(*func, &mut stack, at, tpl, locals, *retc, host)?;
                        }
                    }
                    Op::CallIndirect { sig, params } => {
                        // Table lookup and signature check trap before the
                        // depth check.
                        let table_idx = pop_i32!() as u32;
                        let target = self
                            .table
                            .as_ref()
                            .expect("validated: table exists")
                            .lookup(table_idx)?;
                        let expected_ty = &code.sigs[*sig as usize];
                        if &self.module.functions[target.to_usize()].type_ != expected_ty {
                            return Err(Trap::IndirectCallTypeMismatch);
                        }
                        if depth + 1 >= self.max_call_depth {
                            return Err(Trap::CallStackExhausted);
                        }
                        match self.func_targets[target.to_usize()] {
                            FuncTarget::Host(id) => {
                                let at = stack.len() - *params as usize;
                                self.host_call_slow(id, &mut stack, at, host)?;
                            }
                            FuncTarget::Wasm => call_wasm!(target.to_usize() as u32, *params),
                        }
                    }

                    Op::Drop => {
                        pop!();
                    }
                    Op::Select => {
                        let cond = pop_i32!();
                        let second = pop!();
                        let first = pop!();
                        stack.push(if cond != 0 { first } else { second });
                    }

                    Op::LocalGet(idx) => stack.push(locals[*idx as usize]),
                    Op::LocalSet(idx) => locals[*idx as usize] = pop!(),
                    Op::LocalTee(idx) => {
                        locals[*idx as usize] = *stack.last().expect("validated: operand");
                    }
                    Op::GlobalGet(idx) => stack.push(self.globals[*idx as usize]),
                    Op::GlobalSet(idx) => self.globals[*idx as usize] = pop!(),

                    Op::Load { op, offset } => {
                        let addr = pop_i32!() as u32;
                        let memory = self.memory.as_ref().expect("validated: memory exists");
                        stack.push(load_value(memory, *op, addr, *offset)?);
                    }
                    Op::Store { op, offset } => {
                        let value = pop!();
                        let addr = pop_i32!() as u32;
                        let memory = self.memory.as_mut().expect("validated: memory exists");
                        store_value(memory, *op, addr, *offset, value)?;
                    }
                    Op::MemorySize => {
                        let memory = self.memory.as_ref().expect("validated: memory exists");
                        stack.push(Val::I32(memory.size_pages() as i32));
                    }
                    Op::MemoryGrow => {
                        let delta = pop_i32!() as u32;
                        if budget_active {
                            if let Some(cap) = self.budget.as_ref().and_then(Budget::memory_cap) {
                                let current = self
                                    .memory
                                    .as_ref()
                                    .expect("validated: memory exists")
                                    .size_pages();
                                if current.saturating_add(delta) > cap {
                                    return Err(Trap::MemoryLimit);
                                }
                            }
                        }
                        let memory = self.memory.as_mut().expect("validated: memory exists");
                        stack.push(Val::I32(memory.grow(delta)));
                    }

                    Op::Const(val) => stack.push(*val),
                    Op::Unary(op) => {
                        let v = pop!();
                        stack.push(numeric::unary(*op, v)?);
                    }
                    Op::Binary(op) => {
                        let b = pop!();
                        let a = pop!();
                        stack.push(numeric::binary(*op, a, b)?);
                    }

                    Op::ConstBinary { value, op } => {
                        let a = pop!();
                        stack.push(numeric::binary(*op, a, *value)?);
                    }
                    Op::LocalBinary { local, op } => {
                        let a = pop!();
                        stack.push(numeric::binary(*op, a, locals[*local as usize])?);
                    }
                    Op::LocalLocalBinary { a, b, op } => {
                        stack.push(numeric::binary(
                            *op,
                            locals[*a as usize],
                            locals[*b as usize],
                        )?);
                    }
                    Op::LocalConstBinary { a, value, op } => {
                        stack.push(numeric::binary(*op, locals[*a as usize], *value)?);
                    }
                    Op::LocalConstBinarySet { a, value, op, dst } => {
                        locals[*dst as usize] = numeric::binary(*op, locals[*a as usize], *value)?;
                    }
                    Op::CmpBrIf { op, dest } => {
                        let b = pop!();
                        let a = pop!();
                        let taken = numeric::binary(*op, a, b)?
                            .as_i32()
                            .expect("comparison yields i32");
                        if taken != 0 {
                            branch_to!(dest);
                        }
                    }
                    Op::LocalConstCmpBrIf { a, value, op, dest } => {
                        let taken = numeric::binary(*op, locals[*a as usize], *value)?
                            .as_i32()
                            .expect("comparison yields i32");
                        if taken != 0 {
                            branch_to!(dest);
                        }
                    }
                    Op::LocalLocalCmpBrIf { a, b, op, dest } => {
                        let taken = numeric::binary(*op, locals[*a as usize], locals[*b as usize])?
                            .as_i32()
                            .expect("comparison yields i32");
                        if taken != 0 {
                            branch_to!(dest);
                        }
                    }
                    Op::AffineAddr { a, c1, b, c2 } => {
                        stack.push(Val::I32(affine(locals, *a, *c1, *b, *c2)));
                    }
                    Op::AffineLoad {
                        a,
                        c1,
                        b,
                        c2,
                        load,
                        offset,
                    } => {
                        let addr = affine(locals, *a, *c1, *b, *c2) as u32;
                        let memory = self.memory.as_ref().expect("validated: memory exists");
                        stack.push(load_value(memory, *load, addr, *offset)?);
                    }
                }
                pc += 1;
            }
        }
    }
}

/// The fused affine address chain `(locals[a]*c1 + locals[b])*c2` with
/// WebAssembly's wrapping `i32` semantics.
#[inline]
fn affine(locals: &[Val], a: u32, c1: i32, b: u32, c2: i32) -> i32 {
    let av = locals[a as usize].as_i32().expect("validated: i32 local");
    let bv = locals[b as usize].as_i32().expect("validated: i32 local");
    av.wrapping_mul(c1).wrapping_add(bv).wrapping_mul(c2)
}

/// Unwind for a branch: carry the top `keep` values down to `height`.
#[inline]
fn unwind(stack: &mut Vec<Val>, keep: usize, height: usize) {
    if keep == 0 {
        stack.truncate(height);
    } else if stack.len() != height + keep {
        let from = stack.len() - keep;
        for k in 0..keep {
            stack[height + k] = stack[from + k];
        }
        stack.truncate(height + keep);
    }
}

pub(crate) fn eval_const_expr(expr: &[Instr], globals: &[Val]) -> Val {
    match expr {
        [Instr::Const(val), Instr::End] => *val,
        [Instr::Global(GlobalOp::Get, idx), Instr::End] => globals[idx.to_usize()],
        _ => panic!("validated: unsupported constant expression {expr:?}"),
    }
}

pub(crate) fn load_value(
    memory: &LinearMemory,
    op: wasabi_wasm::LoadOp,
    addr: u32,
    offset: u32,
) -> Result<Val, Trap> {
    use wasabi_wasm::LoadOp::*;
    Ok(match op {
        I32Load => Val::I32(i32::from_le_bytes(memory.read::<4>(addr, offset)?)),
        I64Load => Val::I64(i64::from_le_bytes(memory.read::<8>(addr, offset)?)),
        F32Load => Val::F32(f32::from_le_bytes(memory.read::<4>(addr, offset)?)),
        F64Load => Val::F64(f64::from_le_bytes(memory.read::<8>(addr, offset)?)),
        I32Load8S => Val::I32(i32::from(i8::from_le_bytes(
            memory.read::<1>(addr, offset)?,
        ))),
        I32Load8U => Val::I32(i32::from(u8::from_le_bytes(
            memory.read::<1>(addr, offset)?,
        ))),
        I32Load16S => Val::I32(i32::from(i16::from_le_bytes(
            memory.read::<2>(addr, offset)?,
        ))),
        I32Load16U => Val::I32(i32::from(u16::from_le_bytes(
            memory.read::<2>(addr, offset)?,
        ))),
        I64Load8S => Val::I64(i64::from(i8::from_le_bytes(
            memory.read::<1>(addr, offset)?,
        ))),
        I64Load8U => Val::I64(i64::from(u8::from_le_bytes(
            memory.read::<1>(addr, offset)?,
        ))),
        I64Load16S => Val::I64(i64::from(i16::from_le_bytes(
            memory.read::<2>(addr, offset)?,
        ))),
        I64Load16U => Val::I64(i64::from(u16::from_le_bytes(
            memory.read::<2>(addr, offset)?,
        ))),
        I64Load32S => Val::I64(i64::from(i32::from_le_bytes(
            memory.read::<4>(addr, offset)?,
        ))),
        I64Load32U => Val::I64(i64::from(u32::from_le_bytes(
            memory.read::<4>(addr, offset)?,
        ))),
    })
}

pub(crate) fn store_value(
    memory: &mut LinearMemory,
    op: wasabi_wasm::StoreOp,
    addr: u32,
    offset: u32,
    value: Val,
) -> Result<(), Trap> {
    use wasabi_wasm::StoreOp::*;
    match op {
        I32Store => memory.write::<4>(
            addr,
            offset,
            value.as_i32().expect("validated").to_le_bytes(),
        ),
        I64Store => memory.write::<8>(
            addr,
            offset,
            value.as_i64().expect("validated").to_le_bytes(),
        ),
        F32Store => memory.write::<4>(
            addr,
            offset,
            value.as_f32().expect("validated").to_le_bytes(),
        ),
        F64Store => memory.write::<8>(
            addr,
            offset,
            value.as_f64().expect("validated").to_le_bytes(),
        ),
        I32Store8 => memory.write::<1>(
            addr,
            offset,
            [(value.as_i32().expect("validated") & 0xff) as u8],
        ),
        I32Store16 => memory.write::<2>(
            addr,
            offset,
            ((value.as_i32().expect("validated") & 0xffff) as u16).to_le_bytes(),
        ),
        I64Store8 => memory.write::<1>(
            addr,
            offset,
            [(value.as_i64().expect("validated") & 0xff) as u8],
        ),
        I64Store16 => memory.write::<2>(
            addr,
            offset,
            ((value.as_i64().expect("validated") & 0xffff) as u16).to_le_bytes(),
        ),
        I64Store32 => memory.write::<4>(
            addr,
            offset,
            ((value.as_i64().expect("validated") & 0xffff_ffff) as u32).to_le_bytes(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{EmptyHost, HostFunctions};
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::instr::BinaryOp;
    use wasabi_wasm::types::ValType;

    fn run(
        build: impl FnOnce(&mut ModuleBuilder),
        export: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, Trap> {
        let mut builder = ModuleBuilder::new();
        build(&mut builder);
        let mut host = EmptyHost;
        let mut instance =
            Instance::instantiate(builder.finish(), &mut host).expect("instantiates");
        instance.invoke_export(export, args, &mut host)
    }

    #[test]
    fn arithmetic_function() {
        let r = run(
            |b| {
                b.function("mul_add", &[ValType::I32; 3], &[ValType::I32], |f| {
                    f.get_local(0u32)
                        .get_local(1u32)
                        .i32_mul()
                        .get_local(2u32)
                        .i32_add();
                });
            },
            "mul_add",
            &[Val::I32(6), Val::I32(7), Val::I32(8)],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(50)]);
    }

    #[test]
    fn function_at_the_decoders_locals_cap_translates_and_runs() {
        use wasabi_wasm::decode::{decode, MAX_FUNCTION_LOCALS};
        // One `i64` parameter plus locals up to the cap; the result reads
        // the last local (still zero) plus the parameter.
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[ValType::I64], &[ValType::I64], |f| {
            let mut last = f.local(ValType::I64);
            for _ in 2..MAX_FUNCTION_LOCALS {
                last = f.local(ValType::I64);
            }
            f.get_local(last)
                .get_local(0u32)
                .binary(BinaryOp::I64Add)
                .set_local(last)
                .get_local(last);
        });
        let bytes = wasabi_wasm::encode::encode(&builder.finish());
        let module = decode(&bytes).expect("decodes at the cap");
        let translated = TranslatedModule::new(module).expect("translates");
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate_translated(&translated, &mut host).unwrap();
        for x in [5, 7] {
            // A second call starts from fresh zero locals again.
            let result = instance.invoke_export("f", &[Val::I64(x)], &mut host);
            assert_eq!(result, Ok(vec![Val::I64(x)]));
        }
    }

    #[test]
    fn loop_sums_first_n_integers() {
        let r = run(
            |b| {
                b.function("sum", &[ValType::I32], &[ValType::I32], |f| {
                    let i = f.local(ValType::I32);
                    let acc = f.local(ValType::I32);
                    f.block(None).loop_(None);
                    f.get_local(i)
                        .get_local(0u32)
                        .binary(BinaryOp::I32GeS)
                        .br_if(1);
                    f.get_local(acc).get_local(i).i32_add().set_local(acc);
                    f.get_local(i).i32_const(1).i32_add().set_local(i);
                    f.br(0).end().end();
                    f.get_local(acc);
                });
            },
            "sum",
            &[Val::I32(10)],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(45)]);
    }

    #[test]
    fn if_else_branches() {
        let build = |b: &mut ModuleBuilder| {
            b.function("abs", &[ValType::I32], &[ValType::I32], |f| {
                f.get_local(0u32).i32_const(0).binary(BinaryOp::I32LtS);
                f.if_(Some(ValType::I32));
                f.i32_const(0).get_local(0u32).i32_sub();
                f.else_();
                f.get_local(0u32);
                f.end();
            });
        };
        assert_eq!(
            run(build, "abs", &[Val::I32(-5)]).unwrap(),
            vec![Val::I32(5)]
        );
        assert_eq!(
            run(build, "abs", &[Val::I32(7)]).unwrap(),
            vec![Val::I32(7)]
        );
    }

    #[test]
    fn if_without_else_skips() {
        let build = |b: &mut ModuleBuilder| {
            b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                let r = f.local(ValType::I32);
                f.i32_const(1).set_local(r);
                f.get_local(0u32).if_(None);
                f.i32_const(99).set_local(r);
                f.end();
                f.get_local(r);
            });
        };
        assert_eq!(run(build, "f", &[Val::I32(0)]).unwrap(), vec![Val::I32(1)]);
        assert_eq!(run(build, "f", &[Val::I32(1)]).unwrap(), vec![Val::I32(99)]);
    }

    #[test]
    fn paper_figure_4_branch_targets() {
        // block block get_local 0 br_if 1 (X) end (Y) end
        // local = true jumps to after the outer block.
        let build = |b: &mut ModuleBuilder| {
            b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                let r = f.local(ValType::I32);
                f.block(None).block(None);
                f.get_local(0u32).br_if(1);
                f.get_local(r).i32_const(1).i32_add().set_local(r); // skipped if taken
                f.end();
                f.get_local(r).i32_const(10).i32_add().set_local(r); // skipped if taken
                f.end();
                f.get_local(r);
            });
        };
        assert_eq!(run(build, "f", &[Val::I32(1)]).unwrap(), vec![Val::I32(0)]);
        assert_eq!(run(build, "f", &[Val::I32(0)]).unwrap(), vec![Val::I32(11)]);
    }

    #[test]
    fn br_table_dispatch() {
        let build = |b: &mut ModuleBuilder| {
            b.function("classify", &[ValType::I32], &[ValType::I32], |f| {
                f.block(None).block(None).block(None);
                f.get_local(0u32).br_table(vec![0, 1], 2);
                f.end();
                f.i32_const(100).return_();
                f.end();
                f.i32_const(200).return_();
                f.end();
                f.i32_const(300);
            });
        };
        assert_eq!(
            run(build, "classify", &[Val::I32(0)]).unwrap(),
            vec![Val::I32(100)]
        );
        assert_eq!(
            run(build, "classify", &[Val::I32(1)]).unwrap(),
            vec![Val::I32(200)]
        );
        assert_eq!(
            run(build, "classify", &[Val::I32(7)]).unwrap(),
            vec![Val::I32(300)]
        );
    }

    #[test]
    fn memory_roundtrip_and_narrow_accesses() {
        use wasabi_wasm::{LoadOp, StoreOp};
        let r = run(
            |b| {
                b.memory(1, None);
                b.function("f", &[], &[ValType::I32], |f| {
                    f.i32_const(16).i32_const(-2).store(StoreOp::I32Store, 0);
                    f.i32_const(16).load(LoadOp::I32Load8U, 0);
                });
            },
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(0xfe)]);
    }

    #[test]
    fn oob_memory_access_traps() {
        use wasabi_wasm::LoadOp;
        let r = run(
            |b| {
                b.memory(1, None);
                b.function("f", &[], &[ValType::I32], |f| {
                    f.i32_const(65536).load(LoadOp::I32Load, 0);
                });
            },
            "f",
            &[],
        );
        assert_eq!(r.unwrap_err(), Trap::OutOfBoundsMemoryAccess);
    }

    #[test]
    fn memory_grow_and_size() {
        let r = run(
            |b| {
                b.memory(1, None);
                b.function("f", &[], &[ValType::I32], |f| {
                    f.i32_const(2).memory_grow().drop_();
                    f.memory_size();
                });
            },
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(3)]);
    }

    #[test]
    fn direct_calls() {
        let r = run(
            |b| {
                let sq = b.function("", &[ValType::I32], &[ValType::I32], |f| {
                    f.get_local(0u32).get_local(0u32).i32_mul();
                });
                b.function("sq_plus_one", &[ValType::I32], &[ValType::I32], |f| {
                    f.get_local(0u32).call(sq).i32_const(1).i32_add();
                });
            },
            "sq_plus_one",
            &[Val::I32(9)],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(82)]);
    }

    #[test]
    fn indirect_calls_with_type_check() {
        let r = run(
            |b| {
                let id = b.function("", &[ValType::I32], &[ValType::I32], |f| {
                    f.get_local(0u32);
                });
                let dbl = b.function("", &[ValType::I32], &[ValType::I32], |f| {
                    f.get_local(0u32).i32_const(2).i32_mul();
                });
                b.table(2);
                b.elements(0, vec![id, dbl]);
                b.function(
                    "dispatch",
                    &[ValType::I32, ValType::I32],
                    &[ValType::I32],
                    |f| {
                        f.get_local(1u32).get_local(0u32);
                        f.call_indirect(&[ValType::I32], &[ValType::I32]);
                    },
                );
            },
            "dispatch",
            &[Val::I32(1), Val::I32(21)],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(42)]);
    }

    #[test]
    fn indirect_call_type_mismatch_traps() {
        let r = run(
            |b| {
                let nullary = b.function("", &[], &[], |_| {});
                b.table(1);
                b.elements(0, vec![nullary]);
                b.function("f", &[], &[ValType::I32], |f| {
                    f.i32_const(0).i32_const(0);
                    f.call_indirect(&[ValType::I32], &[ValType::I32]);
                });
            },
            "f",
            &[],
        );
        assert_eq!(r.unwrap_err(), Trap::IndirectCallTypeMismatch);
    }

    #[test]
    fn host_function_call() {
        let mut builder = ModuleBuilder::new();
        let log = builder.import_function("env", "log", &[ValType::I32], &[]);
        builder.function("f", &[], &[], |f| {
            f.i32_const(7).call(log);
            f.i32_const(8).call(log);
        });
        let mut host = HostFunctions::new();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = std::rc::Rc::clone(&seen);
        host.register("env", "log", move |args, _ctx| {
            seen2.borrow_mut().push(args[0]);
            Ok(vec![])
        });
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        instance.invoke_export("f", &[], &mut host).unwrap();
        assert_eq!(*seen.borrow(), vec![Val::I32(7), Val::I32(8)]);
    }

    #[test]
    fn host_call_intrinsic_counts_and_returns_values() {
        let mut builder = ModuleBuilder::new();
        let add5 = builder.import_function(
            "env",
            "add5",
            &[ValType::I32, ValType::I32],
            &[ValType::I32],
        );
        builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
            // Mixed stack + const args through the intrinsic fast path.
            f.get_local(0u32).i32_const(5).call(add5);
        });
        let mut host = HostFunctions::new();
        host.register("env", "add5", |args, _ctx| {
            Ok(vec![Val::I32(
                args[0].as_i32().unwrap() + args[1].as_i32().unwrap(),
            )])
        });
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        let r = instance
            .invoke_export("f", &[Val::I32(37)], &mut host)
            .unwrap();
        assert_eq!(r, vec![Val::I32(42)]);
        assert_eq!(instance.host_call_counts(), (1, 0));
    }

    #[test]
    fn host_call_without_intrinsics_uses_the_generic_path() {
        let mut builder = ModuleBuilder::new();
        let log = builder.import_function("env", "log", &[ValType::I32], &[]);
        builder.function("f", &[], &[], |f| {
            f.i32_const(7).call(log);
        });
        let translated = TranslatedModule::new_without_host_intrinsics(builder.finish()).unwrap();
        let mut host = HostFunctions::new();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = std::rc::Rc::clone(&seen);
        host.register("env", "log", move |args, _ctx| {
            seen2.borrow_mut().push(args[0]);
            Ok(vec![])
        });
        let mut instance = Instance::instantiate_translated(&translated, &mut host).unwrap();
        instance.invoke_export("f", &[], &mut host).unwrap();
        assert_eq!(*seen.borrow(), vec![Val::I32(7)]);
        assert_eq!(instance.host_call_counts(), (0, 1));
    }

    #[test]
    fn indirect_call_to_an_import_takes_the_slow_path() {
        let mut builder = ModuleBuilder::new();
        let imp = builder.import_function("env", "id", &[ValType::I32], &[ValType::I32]);
        builder.table(1);
        builder.elements(0, vec![imp]);
        builder.function("f", &[], &[ValType::I32], |f| {
            f.i32_const(21).i32_const(0);
            f.call_indirect(&[ValType::I32], &[ValType::I32]);
        });
        let mut host = HostFunctions::new();
        host.register("env", "id", |args, _ctx| Ok(vec![args[0]]));
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        let r = instance.invoke_export("f", &[], &mut host).unwrap();
        assert_eq!(r, vec![Val::I32(21)]);
        assert_eq!(instance.host_call_counts(), (0, 1));
    }

    #[test]
    fn host_call_intrinsic_respects_the_depth_limit() {
        let mut builder = ModuleBuilder::new();
        let log = builder.import_function("env", "log", &[], &[]);
        builder.function("f", &[], &[], |f| {
            f.call(log);
        });
        let mut host = HostFunctions::new();
        host.register("env", "log", |_, _| Ok(vec![]));
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        // f itself runs at depth 0; the host callee would be depth 1.
        instance.set_max_call_depth(1);
        let err = instance.invoke_export("f", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::CallStackExhausted);
        assert_eq!(instance.host_call_counts(), (0, 0));
    }

    #[test]
    fn host_trap_through_the_intrinsic_counts_the_whole_group() {
        let mut builder = ModuleBuilder::new();
        let boom = builder.import_function("env", "boom", &[ValType::I32, ValType::I32], &[]);
        builder.function("f", &[], &[], |f| {
            f.i32_const(1).i32_const(2).call(boom);
        });
        let mut host = HostFunctions::new();
        host.register("env", "boom", |_, _| {
            Err(Trap::HostError("boom".to_string()))
        });
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        let err = instance.invoke_export("f", &[], &mut host).unwrap_err();
        assert!(matches!(err, Trap::HostError(_)));
        // Both consts and the trapping call are counted, like the
        // structured walk would.
        assert_eq!(instance.executed_instrs(), 3);
        assert_eq!(instance.host_call_counts(), (1, 0));
    }

    #[test]
    fn fuel_exhaustion_inside_a_folded_host_call_matches_the_oracle() {
        let mut builder = ModuleBuilder::new();
        let log = builder.import_function("env", "log", &[ValType::I32, ValType::I32], &[]);
        builder.function("f", &[], &[], |f| {
            f.i32_const(1).i32_const(2).call(log);
        });
        let called = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let called2 = std::rc::Rc::clone(&called);
        let mut host = HostFunctions::new();
        host.register("env", "log", move |_, _| {
            called2.set(called2.get() + 1);
            Ok(vec![])
        });
        let module = builder.finish();
        // Fuel runs out on the call member of the const+const+call group:
        // the structured walk counts both consts plus the instruction that
        // trapped, and the host is never invoked.
        let mut instance = Instance::instantiate(module, &mut host).unwrap();
        instance.set_fuel(Some(2));
        let err = instance.invoke_export("f", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::OutOfFuel);
        assert_eq!(instance.executed_instrs(), 3);
        assert_eq!(called.get(), 0, "host must not run without fuel");
    }

    #[test]
    fn unresolved_import_fails_instantiation() {
        let mut builder = ModuleBuilder::new();
        builder.import_function("env", "missing", &[], &[]);
        let mut host = EmptyHost;
        let err = Instance::instantiate(builder.finish(), &mut host).unwrap_err();
        assert!(matches!(
            err,
            InstantiationError::UnresolvedFunctionImport { .. }
        ));
    }

    #[test]
    fn start_function_runs_at_instantiation() {
        let mut builder = ModuleBuilder::new();
        let g = builder.global(Val::I32(0));
        let start = builder.function("", &[], &[], |f| {
            f.i32_const(42).set_global(g);
        });
        builder.start(start);
        let mut host = EmptyHost;
        let instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        assert_eq!(instance.globals()[0], Val::I32(42));
    }

    #[test]
    fn data_segments_initialize_memory() {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.data(10, vec![0xaa, 0xbb]);
        builder.function("f", &[], &[], |_| {});
        let mut host = EmptyHost;
        let instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        let mem = instance.memory().unwrap();
        assert_eq!(mem.as_slice()[10], 0xaa);
        assert_eq!(mem.as_slice()[11], 0xbb);
    }

    #[test]
    fn out_of_bounds_data_segment_fails() {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.data(65535, vec![1, 2, 3]);
        builder.function("f", &[], &[], |_| {});
        let mut host = EmptyHost;
        let err = Instance::instantiate(builder.finish(), &mut host).unwrap_err();
        assert_eq!(err, InstantiationError::DataSegmentOutOfBounds);
    }

    #[test]
    fn unreachable_traps() {
        let r = run(
            |b| {
                b.function("f", &[], &[], |f| {
                    f.unreachable();
                });
            },
            "f",
            &[],
        );
        assert_eq!(r.unwrap_err(), Trap::Unreachable);
    }

    #[test]
    fn fuel_limits_execution() {
        let mut builder = ModuleBuilder::new();
        builder.function("spin", &[], &[], |f| {
            f.loop_(None).br(0).end();
        });
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        instance.set_fuel(Some(10_000));
        let err = instance.invoke_export("spin", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::OutOfFuel);
    }

    #[test]
    fn call_stack_exhaustion_traps() {
        let mut builder = ModuleBuilder::new();
        // Direct infinite recursion.
        let mut module = {
            builder.function("rec", &[], &[], |_| {});
            builder.finish()
        };
        // Patch the body to call itself (builder has no self-reference).
        let self_idx = module.export_function("rec").unwrap();
        module.functions[self_idx.to_usize()]
            .code_mut()
            .unwrap()
            .body
            .insert(0, Instr::Call(self_idx));
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(module, &mut host).unwrap();
        instance.set_max_call_depth(64);
        let err = instance.invoke_export("rec", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::CallStackExhausted);
    }

    #[test]
    fn executed_instr_count_increases() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[], &[ValType::I32], |f| {
            f.i32_const(1).i32_const(2).i32_add();
        });
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        instance.invoke_export("f", &[], &mut host).unwrap();
        // const, const, add, end — the const+add fusion still counts as two.
        assert_eq!(instance.executed_instrs(), 4);
    }

    #[test]
    fn select_picks_operand() {
        let build = |b: &mut ModuleBuilder| {
            b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                f.i32_const(10).i32_const(20).get_local(0u32).select();
            });
        };
        assert_eq!(run(build, "f", &[Val::I32(1)]).unwrap(), vec![Val::I32(10)]);
        assert_eq!(run(build, "f", &[Val::I32(0)]).unwrap(), vec![Val::I32(20)]);
    }

    #[test]
    fn block_with_result_via_branch() {
        let r = run(
            |b| {
                b.function("f", &[], &[ValType::I32], |f| {
                    f.block(Some(ValType::I32));
                    f.i32_const(5);
                    f.br(0);
                    f.end();
                });
            },
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(r, vec![Val::I32(5)]);
    }

    #[test]
    fn invoke_argument_validation() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[ValType::I32], &[], |_| {});
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();
        let err = instance
            .invoke_export("f", &[Val::F64(1.0)], &mut host)
            .unwrap_err();
        assert!(matches!(err, Trap::HostError(_)));
    }

    #[test]
    fn translated_module_is_reusable() {
        let mut builder = ModuleBuilder::new();
        builder.function("f", &[], &[ValType::I32], |f| {
            f.i32_const(11).i32_const(31).i32_add();
        });
        let translated = TranslatedModule::new(builder.finish()).unwrap();
        let mut host = EmptyHost;
        for _ in 0..3 {
            let mut instance = Instance::instantiate_translated(&translated, &mut host).unwrap();
            assert_eq!(
                instance.invoke_export("f", &[], &mut host).unwrap(),
                vec![Val::I32(42)]
            );
            assert_eq!(instance.executed_instrs(), 4);
        }
    }

    #[test]
    fn invalid_module_fails_translation() {
        // A module with a type-incorrect body must be rejected up front.
        let mut module = Module::new();
        module.add_function(
            wasabi_wasm::FuncType::new(&[], &[ValType::I32]),
            vec![],
            vec![Instr::End],
        );
        assert!(TranslatedModule::new(module).is_err());
    }

    /// `loop (br 0)`: spins forever unless something preempts it.
    fn spin_module() -> Module {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("spin", &[], &[], |f| {
            f.block(None).loop_(None).br(0).end().end();
        });
        builder.finish()
    }

    #[test]
    fn deadline_preempts_an_infinite_loop() {
        use crate::budget::Budget;
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(spin_module(), &mut host).unwrap();
        instance.set_budget(Some(
            Budget::new().deadline(std::time::Duration::from_millis(20)),
        ));
        let start = std::time::Instant::now();
        let err = instance.invoke_export("spin", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::DeadlineExceeded);
        // Generous bound: the poll interval reacts in microseconds; the
        // assertion only guards against the check not firing at all.
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn pre_cancelled_token_stops_execution_within_one_interval() {
        use crate::budget::{Budget, CancelToken};
        let token = CancelToken::new();
        token.cancel();
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(spin_module(), &mut host).unwrap();
        instance.set_budget(Some(Budget::new().cancel_token(token)));
        let err = instance.invoke_export("spin", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::Cancelled);
        // At most one poll interval of work ran (plus the op that tripped).
        assert!(instance.executed_instrs() <= BUDGET_POLL_INTERVAL + 1);
    }

    #[test]
    fn memory_cap_converts_grow_into_a_trap() {
        use crate::budget::Budget;
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[], &[ValType::I32], |f| {
            f.i32_const(4).memory_grow();
        });
        let mut host = EmptyHost;
        let mut instance = Instance::instantiate(builder.finish(), &mut host).unwrap();

        // Under the cap: behaves exactly like an ungoverned grow.
        instance.set_budget(Some(Budget::new().max_memory_pages(8)));
        assert_eq!(
            instance.invoke_export("f", &[], &mut host).unwrap(),
            vec![Val::I32(1)]
        );

        // 5 pages + 4 > 8: trap instead of growing.
        let err = instance.invoke_export("f", &[], &mut host).unwrap_err();
        assert_eq!(err, Trap::MemoryLimit);
        assert_eq!(instance.memory().unwrap().size_pages(), 5);
    }

    #[test]
    fn no_budget_execution_is_bit_identical() {
        use crate::budget::Budget;
        let mut builder = ModuleBuilder::new();
        builder.function("sum", &[ValType::I32], &[ValType::I32], |f| {
            let i = f.local(ValType::I32);
            let acc = f.local(ValType::I32);
            f.block(None).loop_(None);
            f.get_local(i)
                .get_local(0u32)
                .binary(BinaryOp::I32GeS)
                .br_if(1);
            f.get_local(acc).get_local(i).i32_add().set_local(acc);
            f.get_local(i).i32_const(1).i32_add().set_local(i);
            f.br(0).end().end();
            f.get_local(acc);
        });
        let translated = TranslatedModule::new(builder.finish()).unwrap();
        let mut host = EmptyHost;

        let mut plain = Instance::instantiate_translated(&translated, &mut host).unwrap();
        let r1 = plain
            .invoke_export("sum", &[Val::I32(5000)], &mut host)
            .unwrap();

        // An attached-but-unlimited budget must not change results or the
        // instruction count (the budget path only reads the clock).
        let mut governed = Instance::instantiate_translated(&translated, &mut host).unwrap();
        governed.set_budget(Some(
            Budget::new().deadline(std::time::Duration::from_secs(600)),
        ));
        let r2 = governed
            .invoke_export("sum", &[Val::I32(5000)], &mut host)
            .unwrap();

        assert_eq!(r1, r2);
        assert_eq!(plain.executed_instrs(), governed.executed_instrs());
    }
}
