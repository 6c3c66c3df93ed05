//! The binary instrumenter (paper §2.4): inserts calls to low-level hooks
//! between the program's original instructions.
//!
//! Implemented exactly along the paper's design:
//!
//! - one hook call per instruction, with inputs/results captured in freshly
//!   generated locals (Table 3 rows 1–3),
//! - full type checking during instrumentation to monomorphize `drop` and
//!   `select` (row 4, §2.4.3),
//! - an abstract control stack resolving relative branch labels to absolute
//!   instruction locations (§2.4.4, Fig. 6),
//! - explicit `end`-hook calls for all blocks traversed by branches and
//!   returns; `br_table` end lists are extracted statically and replayed by
//!   the runtime (§2.4.5),
//! - `i64` values split into two `i32`s before crossing the host boundary
//!   (row 6, §2.4.6),
//! - selective instrumentation: only instructions with a matching hook in
//!   the analysis' [`HookSet`] are instrumented (§2.4.2),
//! - functions are instrumented in parallel; the only shared mutable state
//!   is the hook map (§3). Each worker collects its functions' `br_table`
//!   info locally; the join merges the lists in function-index order and
//!   patches the baked indices, and renumbers hook ordinals by first use —
//!   so the output is **bit-identical** to a single-threaded run no
//!   matter how workers interleave (see `canonicalize` in this module).

use std::collections::HashMap;
use std::sync::Arc;

use wasabi_wasm::error::ValidationError;
use wasabi_wasm::instr::{BlockType, Idx, Instr, Label, LocalOp, LocalSpace, UnaryOp, Val};
use wasabi_wasm::module::{Function, Module};
use wasabi_wasm::types::ValType;
use wasabi_wasm::validate::{validate, TypeChecker};

use wasabi_vm::{InstrumentedFunc, TranslatedModule};

use crate::convention::{LowLevelHook, HOOK_MODULE};
use crate::hookmap::HookMap;
use crate::hooks::{BlockKind, Hook, HookSet};
use crate::info::{BrTableEntry, BrTableInfo, EndInfo, ModuleInfo};
use crate::location::{BranchTarget, Location};

/// Configurable instrumenter. For the common case use
/// [`fn@crate::instrument`].
#[derive(Debug, Clone)]
pub struct Instrumenter {
    hooks: HookSet,
    threads: usize,
    reuse_temps: bool,
}

impl Instrumenter {
    /// An instrumenter for the given hook set, using all available cores.
    pub fn new(hooks: HookSet) -> Self {
        Instrumenter {
            hooks,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            reuse_temps: true,
        }
    }

    /// Limit instrumentation to `threads` worker threads (≥ 1). Used by the
    /// parallel-speedup experiment of paper §4.4.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Whether the "freshly generated locals" of Table 3 are reused across
    /// instructions (default: true). Disabling this allocates a new local
    /// per captured value — the naive strategy — and exists for the
    /// ablation benchmark (`wasabi-bench`, bin `ablation`).
    pub fn reuse_temps(mut self, reuse: bool) -> Self {
        self.reuse_temps = reuse;
        self
    }

    /// Instrument `module`, returning the instrumented module plus the
    /// static info for the runtime.
    ///
    /// # Errors
    ///
    /// Fails if the input module does not validate.
    pub fn run(&self, module: &Module) -> Result<(Module, ModuleInfo), ValidationError> {
        crate::stats::record_instrumentation();
        let timer = std::time::Instant::now();
        let result = self.run_timed(module);
        crate::stats::record_instrumentation_time(timer.elapsed());
        result
    }

    fn run_timed(&self, module: &Module) -> Result<(Module, ModuleInfo), ValidationError> {
        let (results, info, worker_busy) = self.instrument_functions(module)?;
        crate::stats::record_build_worker_time(worker_busy);
        let function_count = module.functions.len();

        let mut instrumented = module.clone();
        for (func_idx, result) in results.into_iter().enumerate() {
            if let Some((body, extra_locals)) = result {
                let code = instrumented.functions[func_idx]
                    .code_mut()
                    .expect("only local functions produce results");
                code.body = body;
                code.locals.extend(extra_locals);
            }
        }

        for (i, hook) in info.hooks.iter().enumerate() {
            let idx = instrumented.add_function_import(hook.wasm_type(), HOOK_MODULE, &hook.name());
            debug_assert_eq!(idx.to_usize(), function_count + i);
        }

        debug_assert!(validate(&instrumented).is_ok());
        Ok((instrumented, info))
    }

    /// Direct-emit instrumentation (ROADMAP item 2): instrument and
    /// translate in one fused pass, skipping module surgery entirely.
    ///
    /// The per-function instrumentation pass is *shared* with the rewrite
    /// path — the same instrumented bodies are produced — but instead of
    /// cloning the module, patching bodies, and re-walking the bloated
    /// result, the bodies are handed straight to the flat translator
    /// ([`TranslatedModule::new_instrumented`]). Hook callees become
    /// *synthetic imports*: function indices past the end of the original
    /// index space, described by [`wasabi_vm::HookImport`] descriptors and
    /// resolved against the host at instantiation like real imports.
    ///
    /// Timing is recorded as one fused build phase
    /// ([`crate::stats::fused_build_time`]), not as separate
    /// instrumentation/translation phases — there is no meaningful
    /// boundary between the two inside this pass.
    ///
    /// The returned translation keeps `module` itself: a caller that
    /// already holds the module in an `Arc` (a content store, a fleet job)
    /// passes a clone of that `Arc`, and the session shares the module
    /// instead of copying it.
    ///
    /// # Errors
    ///
    /// Fails if the input module does not validate.
    pub fn run_direct(
        &self,
        module: impl Into<Arc<Module>>,
    ) -> Result<(TranslatedModule, ModuleInfo), ValidationError> {
        crate::stats::record_instrumentation();
        let timer = std::time::Instant::now();
        let result = self.run_direct_inner(module.into());
        crate::stats::record_fused_build_time(timer.elapsed());
        result
    }

    fn run_direct_inner(
        &self,
        module: Arc<Module>,
    ) -> Result<(TranslatedModule, ModuleInfo), ValidationError> {
        let (results, info, instrument_busy) = self.instrument_functions(&module)?;

        let funcs: Vec<Option<InstrumentedFunc>> = results
            .into_iter()
            .map(|r| r.map(|(body, extra_locals)| InstrumentedFunc { body, extra_locals }))
            .collect();
        let hook_imports = crate::hookmap::hook_imports(&info.hooks);

        // `instrument_functions` validated `module`.
        let (translated, translate_busy) = TranslatedModule::new_instrumented_with_threads(
            module,
            &funcs,
            hook_imports,
            self.threads,
        );
        crate::stats::record_build_worker_time(instrument_busy + translate_busy);
        Ok((translated, info))
    }

    /// The shared per-function instrumentation pass: returns the
    /// instrumented `(body, extra_locals)` per local function (imports stay
    /// `None`), the fully populated [`ModuleInfo`] (`enabled`, `hooks` in
    /// canonical ordinal order, `br_tables`), and the summed busy time of
    /// the worker threads (each worker accumulates locally; folded into
    /// the phase timers once per build). Both the rewrite and the
    /// direct-emit paths build on this; they differ only in what they do
    /// with the bodies afterwards.
    fn instrument_functions(
        &self,
        module: &Module,
    ) -> Result<InstrumentedFunctions, ValidationError> {
        validate(module)?;

        let mut info = ModuleInfo::from_module(module);
        info.enabled = self.hooks;

        let hook_map = HookMap::new(module.functions.len());

        let function_count = module.functions.len();
        let mut bodies: Vec<Option<InstrumentedBody>> = Vec::new();
        bodies.resize_with(function_count, || None);
        let busy = std::sync::atomic::AtomicU64::new(0);

        if function_count > 0 {
            let chunk_size = function_count.div_ceil(self.threads);
            crossbeam::thread::scope(|scope| {
                for (chunk_idx, out_chunk) in bodies.chunks_mut(chunk_size).enumerate() {
                    let hook_map = &hook_map;
                    let busy = &busy;
                    let hooks = self.hooks;
                    let reuse_temps = self.reuse_temps;
                    scope.spawn(move |_| {
                        let timer = std::time::Instant::now();
                        let base = chunk_idx * chunk_size;
                        for (offset, slot) in out_chunk.iter_mut().enumerate() {
                            let func_idx = base + offset;
                            let function = &module.functions[func_idx];
                            if function.code().is_some() {
                                *slot = Some(instrument_function(
                                    module,
                                    func_idx as u32,
                                    function,
                                    hook_map,
                                    hooks,
                                    reuse_temps,
                                ));
                            }
                        }
                        busy.fetch_add(
                            timer.elapsed().as_nanos() as u64,
                            std::sync::atomic::Ordering::Relaxed,
                        );
                    });
                }
            })
            .expect("instrumentation worker panicked");
        }

        let (hooks, br_tables) = canonicalize(&mut bodies, hook_map.into_hooks(), function_count);
        info.hooks = hooks;
        info.br_tables = br_tables;

        let results = bodies
            .into_iter()
            .map(|b| b.map(|b| (b.body, b.extra_locals)))
            .collect();
        Ok((
            results,
            info,
            std::time::Duration::from_nanos(busy.into_inner()),
        ))
    }
}

/// Result of the shared instrumentation pass: per-function instrumented
/// bodies (`None` for imports), the populated [`ModuleInfo`], and the
/// summed worker busy time.
type InstrumentedFunctions = (
    Vec<Option<(Vec<Instr>, Vec<ValType>)>>,
    ModuleInfo,
    std::time::Duration,
);

/// One function's output of the parallel instrumentation pass, before the
/// deterministic join: hook calls still carry discovery-order ordinals and
/// `br_table` info indices are still function-local.
#[derive(Debug)]
struct InstrumentedBody {
    body: Vec<Instr>,
    extra_locals: Vec<ValType>,
    /// `br_table` infos of this function, in instruction order.
    br_tables: Vec<BrTableInfo>,
    /// Positions in `body` of the `i32.const` pushing each info's index
    /// (parallel to `br_tables`); the join rebases them onto the merged
    /// module-global list.
    br_table_patches: Vec<usize>,
}

/// The deterministic join of the parallel instrumentation pass. Workers
/// interleave nondeterministically, so two artifacts come out in
/// scheduling order: hook-map ordinals (assigned at first
/// [`HookMap::get_or_insert`] across all threads) and, previously, the
/// shared `br_table` info list. This pass renumbers both to exactly what a
/// single-threaded left-to-right run (function-index order, instruction
/// order within a function) would have produced:
///
/// - hook ordinals are remapped by **first use**, walking every emitted
///   `Call` to a hook index (≥ `function_count`; original calls can never
///   reach past the module's own index space) in body order, and the hook
///   list is permuted to match — every map entry was emitted as at least
///   one call, so the walk sees them all;
/// - per-function `br_table` lists are concatenated in function-index
///   order and each baked `i32.const` info index is rebased by its
///   function's offset into the merged list.
///
/// Under `threads(1)` both remaps are the identity, which is what makes
/// the parallel build's output **bit-identical** to the sequential one.
/// The [`HookMap`] itself keeps the paper's upgradable-lock discipline
/// (§3) — this pass only renames its ordinals after the fact.
fn canonicalize(
    bodies: &mut [Option<InstrumentedBody>],
    hooks: Vec<LowLevelHook>,
    function_count: usize,
) -> (Vec<LowLevelHook>, Vec<BrTableInfo>) {
    let mut remap: Vec<Option<u32>> = vec![None; hooks.len()];
    let mut next = 0u32;
    let mut br_tables: Vec<BrTableInfo> = Vec::new();
    for body in bodies.iter_mut().flatten() {
        for instr in &mut body.body {
            if let Instr::Call(idx) = instr {
                let hook_ordinal = idx.to_usize().wrapping_sub(function_count);
                if let Some(slot) = remap.get_mut(hook_ordinal) {
                    let new = *slot.get_or_insert_with(|| {
                        let n = next;
                        next += 1;
                        n
                    });
                    *idx = Idx::from(function_count as u32 + new);
                }
            }
        }
        let base = br_tables.len() as i32;
        if base != 0 {
            for &at in &body.br_table_patches {
                if let Instr::Const(Val::I32(info_idx)) = &mut body.body[at] {
                    *info_idx += base;
                }
            }
        }
        br_tables.append(&mut body.br_tables);
    }
    debug_assert_eq!(next as usize, hooks.len(), "every hook is called");
    let mut canonical: Vec<Option<LowLevelHook>> = vec![None; hooks.len()];
    for (old, hook) in hooks.into_iter().enumerate() {
        if let Some(new) = remap[old] {
            canonical[new as usize] = Some(hook);
        }
    }
    (canonical.into_iter().flatten().collect(), br_tables)
}

/// Instrument `module` for the given hook set (paper Fig. 2, "instrument").
///
/// Convenience wrapper around [`Instrumenter`].
///
/// # Errors
///
/// Fails if the input module does not validate.
pub fn instrument(
    module: &Module,
    hooks: HookSet,
) -> Result<(Module, ModuleInfo), ValidationError> {
    Instrumenter::new(hooks).run(module)
}

/// An abstract control stack entry (paper Fig. 6): block kind, location of
/// the block begin (-1 for the implicit function block), and of the
/// matching `end`.
#[derive(Debug, Clone, Copy)]
struct ControlFrame {
    kind: BlockKind,
    begin: i32,
    end: u32,
}

/// Allocator for the "freshly generated locals" of Table 3. Temporaries are
/// reused across instructions (their liveness is within one instrumented
/// instruction) but never within one instruction.
#[derive(Debug)]
struct TempLocals {
    /// Index of the first temp local (params + original locals).
    base: u32,
    /// Reuse temps across instructions (Table 3 default) or allocate fresh
    /// ones every time (ablation mode).
    reuse: bool,
    /// Types of all allocated temps, in local-index order.
    allocated: Vec<ValType>,
    /// Pool of allocated temp local indices per type.
    pools: HashMap<ValType, Vec<u32>>,
    /// Temps of each type handed out for the current instruction.
    used: HashMap<ValType, usize>,
}

impl TempLocals {
    fn new(base: u32, reuse: bool) -> Self {
        TempLocals {
            base,
            reuse,
            allocated: Vec::new(),
            pools: HashMap::new(),
            used: HashMap::new(),
        }
    }

    /// Start instrumenting the next instruction: all temps are free again.
    fn reset(&mut self) {
        self.used.clear();
    }

    fn get(&mut self, ty: ValType) -> Idx<LocalSpace> {
        if !self.reuse {
            let idx = self.base + self.allocated.len() as u32;
            self.allocated.push(ty);
            return Idx::from(idx);
        }
        let used = self.used.entry(ty).or_insert(0);
        let pool = self.pools.entry(ty).or_default();
        let idx = if let Some(&idx) = pool.get(*used) {
            idx
        } else {
            let idx = self.base + self.allocated.len() as u32;
            self.allocated.push(ty);
            pool.push(idx);
            idx
        };
        *used += 1;
        Idx::from(idx)
    }

    fn into_locals(self) -> Vec<ValType> {
        self.allocated
    }
}

struct FunctionCtx<'a> {
    module: &'a Module,
    function: &'a Function,
    func: u32,
    hooks: HookSet,
    hook_map: &'a HookMap,
    /// This function's `br_table` infos, local to the worker; merged and
    /// rebased by [`canonicalize`] at the join.
    br_tables: Vec<BrTableInfo>,
    /// Positions in `out` of the baked `br_table` info indices.
    br_table_patches: Vec<usize>,
    checker: TypeChecker,
    control: Vec<ControlFrame>,
    temps: TempLocals,
    out: Vec<Instr>,
}

fn instrument_function(
    module: &Module,
    func: u32,
    function: &Function,
    hook_map: &HookMap,
    hooks: HookSet,
    reuse_temps: bool,
) -> InstrumentedBody {
    let code = function.code().expect("local function");
    let body = &code.body;
    let matching_end = match_ends(body);

    let mut ctx = FunctionCtx {
        module,
        function,
        func,
        hooks,
        hook_map,
        br_tables: Vec::new(),
        br_table_patches: Vec::new(),
        checker: TypeChecker::begin_function(function),
        control: vec![ControlFrame {
            kind: BlockKind::Function,
            begin: -1,
            end: body.len().saturating_sub(1) as u32,
        }],
        temps: TempLocals::new(
            (function.param_count() + code.locals.len()) as u32,
            reuse_temps,
        ),
        out: Vec::with_capacity(body.len() * 2),
    };

    // Module start hook: announced at the entry of the start function.
    if hooks.contains(Hook::Start) && module.start.map(Idx::to_u32) == Some(func) {
        ctx.call_hook(LowLevelHook::Start, -1);
    }
    if hooks.contains(Hook::Begin) {
        ctx.call_hook(LowLevelHook::Begin(BlockKind::Function), -1);
    }

    for (pc, instr) in body.iter().enumerate() {
        ctx.temps.reset();
        instrument_instr(&mut ctx, pc as u32, instr, &matching_end);
        ctx.checker
            .step(module, function, instr)
            .expect("module was validated before instrumentation");
    }

    InstrumentedBody {
        body: ctx.out,
        extra_locals: ctx.temps.into_locals(),
        br_tables: ctx.br_tables,
        br_table_patches: ctx.br_table_patches,
    }
}

/// Pre-pass: for each `block`/`loop`/`if`, the index of its matching `end`.
fn match_ends(body: &[Instr]) -> Vec<u32> {
    let mut matching_end = vec![0u32; body.len()];
    let mut open: Vec<usize> = Vec::new();
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => open.push(pc),
            Instr::End => {
                if let Some(start) = open.pop() {
                    matching_end[start] = pc as u32;
                }
            }
            _ => {}
        }
    }
    matching_end
}

impl FunctionCtx<'_> {
    fn emit(&mut self, instr: Instr) {
        self.out.push(instr);
    }

    fn h(&self, hook: Hook) -> bool {
        self.hooks.contains(hook)
    }

    /// Push the location `(func, instr)` and emit the call to `hook`.
    /// The hook's payload must already be on the stack.
    fn call_hook(&mut self, hook: LowLevelHook, instr: i32) {
        self.emit(Instr::Const(Val::I32(self.func as i32)));
        self.emit(Instr::Const(Val::I32(instr)));
        let idx = self.hook_map.get_or_insert(hook);
        self.emit(Instr::Call(idx));
    }

    /// Push the value of a local, splitting i64 into (low, high) i32 halves
    /// (Table 3 row 6).
    fn push_local_split(&mut self, local: Idx<LocalSpace>, ty: ValType) {
        if ty == ValType::I64 {
            self.emit(Instr::Local(LocalOp::Get, local));
            self.emit(Instr::Unary(UnaryOp::I32WrapI64));
            self.emit(Instr::Local(LocalOp::Get, local));
            self.emit(Instr::Const(Val::I64(32)));
            self.emit(Instr::Binary(wasabi_wasm::instr::BinaryOp::I64ShrS));
            self.emit(Instr::Unary(UnaryOp::I32WrapI64));
        } else {
            self.emit(Instr::Local(LocalOp::Get, local));
        }
    }

    /// Push an immediate value, splitting i64 via consts (Table 3 row 6:
    /// constants need no local, the value is just pushed again).
    fn push_const_split(&mut self, val: Val) {
        if let Val::I64(v) = val {
            self.emit(Instr::Const(Val::I64(v)));
            self.emit(Instr::Unary(UnaryOp::I32WrapI64));
            self.emit(Instr::Const(Val::I64(v)));
            self.emit(Instr::Const(Val::I64(32)));
            self.emit(Instr::Binary(wasabi_wasm::instr::BinaryOp::I64ShrS));
            self.emit(Instr::Unary(UnaryOp::I32WrapI64));
        } else {
            self.emit(Instr::Const(val));
        }
    }

    /// Resolved absolute location of the next instruction executed if a
    /// branch to `label` is taken (paper §2.4.4).
    fn resolve_label(&self, label: Label) -> i32 {
        let frame = self.control[self.control.len() - 1 - label.to_usize()];
        match frame.kind {
            // Backward jump: the first instruction inside the loop.
            BlockKind::Loop => frame.begin + 1,
            // Branch to the function block: the implicit return point.
            BlockKind::Function => frame.end as i32,
            // Forward jump: the instruction after the block's end.
            _ => frame.end as i32 + 1,
        }
    }

    /// The blocks left when branching to `label`, innermost first,
    /// target-inclusive (paper §2.4.5).
    fn ended_by_branch(&self, label: Label) -> Vec<EndInfo> {
        let target = self.control.len() - 1 - label.to_usize();
        self.control[target..]
            .iter()
            .rev()
            .map(|frame| EndInfo {
                kind: frame.kind,
                begin: Location::new(self.func, frame.begin),
                end: Location::new(self.func, frame.end as i32),
            })
            .collect()
    }

    /// Emit `end` hook calls for all blocks left by a branch/return.
    fn emit_end_hooks(&mut self, ends: &[EndInfo]) {
        for end in ends {
            self.emit(Instr::Const(Val::I32(end.begin.instr)));
            self.call_hook(LowLevelHook::End(end.kind), end.end.instr);
        }
    }

    /// Capture the `types`-typed top of the stack into temps (top last) and
    /// return the temps in value order (first value first).
    fn capture_stack(&mut self, types: &[ValType]) -> Vec<Idx<LocalSpace>> {
        let temps: Vec<Idx<LocalSpace>> = types.iter().map(|&ty| self.temps.get(ty)).collect();
        for &t in temps.iter().rev() {
            self.emit(Instr::Local(LocalOp::Set, t));
        }
        temps
    }

    /// Push captured values back onto the stack in value order.
    fn restore_stack(&mut self, temps: &[Idx<LocalSpace>]) {
        for &t in temps {
            self.emit(Instr::Local(LocalOp::Get, t));
        }
    }
}

#[allow(clippy::too_many_lines)]
fn instrument_instr(ctx: &mut FunctionCtx<'_>, pc: u32, instr: &Instr, matching_end: &[u32]) {
    use Instr::*;
    let reachable = ctx.checker.reachable();
    let ipc = pc as i32;

    // Dead code is copied verbatim but the control stack stays in sync.
    if !reachable {
        match instr {
            Block(_) | Loop(_) | If(_) => {
                ctx.control.push(ControlFrame {
                    kind: match instr {
                        Block(_) => BlockKind::Block,
                        Loop(_) => BlockKind::Loop,
                        _ => BlockKind::If,
                    },
                    begin: ipc,
                    end: matching_end[pc as usize],
                });
            }
            Else => {
                let frame = ctx.control.last_mut().expect("validated");
                frame.kind = BlockKind::Else;
                frame.begin = ipc;
            }
            End => {
                ctx.control.pop();
            }
            _ => {}
        }
        ctx.emit(instr.clone());
        return;
    }

    match instr {
        Nop => {
            ctx.emit(Nop);
            if ctx.h(Hook::Nop) {
                ctx.call_hook(LowLevelHook::Nop, ipc);
            }
        }
        Unreachable => {
            if ctx.h(Hook::Unreachable) {
                ctx.call_hook(LowLevelHook::Unreachable, ipc);
            }
            ctx.emit(Unreachable);
        }

        Block(bt) | Loop(bt) => {
            let kind = if matches!(instr, Loop(_)) {
                BlockKind::Loop
            } else {
                BlockKind::Block
            };
            ctx.emit(if kind == BlockKind::Loop {
                Loop(*bt)
            } else {
                Block(*bt)
            });
            // Inside the block, so the loop begin hook fires per iteration.
            if ctx.h(Hook::Begin) {
                ctx.call_hook(LowLevelHook::Begin(kind), ipc);
            }
            ctx.control.push(ControlFrame {
                kind,
                begin: ipc,
                end: matching_end[pc as usize],
            });
        }
        If(bt) => {
            if ctx.h(Hook::If) {
                let cond = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Tee, cond));
                ctx.emit(Local(LocalOp::Get, cond));
                ctx.call_hook(LowLevelHook::If, ipc);
            }
            ctx.emit(If(*bt));
            if ctx.h(Hook::Begin) {
                ctx.call_hook(LowLevelHook::Begin(BlockKind::If), ipc);
            }
            ctx.control.push(ControlFrame {
                kind: BlockKind::If,
                begin: ipc,
                end: matching_end[pc as usize],
            });
        }
        Else => {
            // The then-part of the if ends here.
            let frame = *ctx.control.last().expect("validated");
            if ctx.h(Hook::End) {
                ctx.emit(Const(Val::I32(frame.begin)));
                ctx.call_hook(LowLevelHook::End(BlockKind::If), ipc);
            }
            ctx.emit(Else);
            if ctx.h(Hook::Begin) {
                ctx.call_hook(LowLevelHook::Begin(BlockKind::Else), ipc);
            }
            let frame = ctx.control.last_mut().expect("validated");
            frame.kind = BlockKind::Else;
            frame.begin = ipc;
        }
        End => {
            let frame = ctx.control.pop().expect("validated");
            if ctx.h(Hook::End) {
                ctx.emit(Const(Val::I32(frame.begin)));
                ctx.call_hook(LowLevelHook::End(frame.kind), ipc);
            }
            ctx.emit(End);
        }

        Br(label) => {
            if ctx.h(Hook::Br) {
                ctx.emit(Const(Val::I32(label.to_u32() as i32)));
                ctx.emit(Const(Val::I32(ctx.resolve_label(*label))));
                ctx.call_hook(LowLevelHook::Br, ipc);
            }
            if ctx.h(Hook::End) {
                let ends = ctx.ended_by_branch(*label);
                ctx.emit_end_hooks(&ends);
            }
            ctx.emit(Br(*label));
        }
        BrIf(label) => {
            if ctx.h(Hook::BrIf) || ctx.h(Hook::End) {
                let cond = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Set, cond));
                if ctx.h(Hook::BrIf) {
                    ctx.emit(Const(Val::I32(label.to_u32() as i32)));
                    ctx.emit(Const(Val::I32(ctx.resolve_label(*label))));
                    ctx.emit(Local(LocalOp::Get, cond));
                    ctx.call_hook(LowLevelHook::BrIf, ipc);
                }
                if ctx.h(Hook::End) {
                    // End hooks fire only if the branch is taken.
                    ctx.emit(Local(LocalOp::Get, cond));
                    ctx.emit(If(BlockType(None)));
                    let ends = ctx.ended_by_branch(*label);
                    ctx.emit_end_hooks(&ends);
                    ctx.emit(End);
                }
                ctx.emit(Local(LocalOp::Get, cond));
            }
            ctx.emit(BrIf(*label));
        }
        BrTable { table, default } => {
            if ctx.h(Hook::BrTable) || ctx.h(Hook::End) {
                let make_entry = |ctx: &FunctionCtx<'_>, label: Label| BrTableEntry {
                    target: BranchTarget {
                        label: label.to_u32(),
                        location: Location::new(ctx.func, ctx.resolve_label(label)),
                    },
                    ends: ctx.ended_by_branch(label),
                };
                let info = BrTableInfo {
                    location: Location::new(ctx.func, ipc),
                    entries: table.iter().map(|&l| make_entry(ctx, l)).collect(),
                    default: make_entry(ctx, *default),
                };
                // Function-local index, rebased onto the merged module
                // list by `canonicalize` via the recorded patch position.
                let info_idx = ctx.br_tables.len() as i32;
                ctx.br_tables.push(info);
                let idx = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Set, idx));
                ctx.br_table_patches.push(ctx.out.len());
                ctx.emit(Const(Val::I32(info_idx)));
                ctx.emit(Local(LocalOp::Get, idx));
                ctx.call_hook(LowLevelHook::BrTable, ipc);
                ctx.emit(Local(LocalOp::Get, idx));
            }
            ctx.emit(BrTable {
                table: table.clone(),
                default: *default,
            });
        }
        Return => {
            let results = ctx.function.type_.results.clone();
            if ctx.h(Hook::Return) || ctx.h(Hook::End) {
                let temps = ctx.capture_stack(&results);
                if ctx.h(Hook::Return) {
                    for (&t, &ty) in temps.iter().zip(&results) {
                        ctx.push_local_split(t, ty);
                    }
                    ctx.call_hook(LowLevelHook::Return(results.clone()), ipc);
                }
                if ctx.h(Hook::End) {
                    let ends = ctx.ended_by_branch(Label((ctx.control.len() - 1) as u32));
                    ctx.emit_end_hooks(&ends);
                }
                ctx.restore_stack(&temps);
            }
            ctx.emit(Return);
        }

        Call(callee) => {
            let callee_ty = ctx.module.functions[callee.to_usize()].type_.clone();
            if ctx.h(Hook::CallPre) {
                let temps = ctx.capture_stack(&callee_ty.params);
                ctx.emit(Const(Val::I32(callee.to_u32() as i32)));
                for (&t, &ty) in temps.iter().zip(&callee_ty.params) {
                    ctx.push_local_split(t, ty);
                }
                ctx.call_hook(
                    LowLevelHook::CallPre {
                        args: callee_ty.params.clone(),
                        indirect: false,
                    },
                    ipc,
                );
                ctx.restore_stack(&temps);
            }
            ctx.emit(Call(*callee));
            if ctx.h(Hook::CallPost) {
                emit_call_post(ctx, &callee_ty.results, ipc);
            }
        }
        CallIndirect(ty, table_idx) => {
            if ctx.h(Hook::CallPre) {
                let runtime_idx = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Set, runtime_idx));
                let temps = ctx.capture_stack(&ty.params);
                ctx.emit(Local(LocalOp::Get, runtime_idx));
                for (&t, &pty) in temps.iter().zip(&ty.params) {
                    ctx.push_local_split(t, pty);
                }
                ctx.call_hook(
                    LowLevelHook::CallPre {
                        args: ty.params.clone(),
                        indirect: true,
                    },
                    ipc,
                );
                ctx.restore_stack(&temps);
                ctx.emit(Local(LocalOp::Get, runtime_idx));
            }
            ctx.emit(CallIndirect(ty.clone(), *table_idx));
            if ctx.h(Hook::CallPost) {
                emit_call_post(ctx, &ty.results, ipc);
            }
        }

        Drop => {
            if ctx.h(Hook::Drop) {
                let ty = ctx
                    .checker
                    .peek(0)
                    .and_then(wasabi_wasm::validate::InferredType::known)
                    .expect("reachable code has known stack types");
                if ty == ValType::I64 {
                    let t = ctx.temps.get(ty);
                    ctx.emit(Local(LocalOp::Set, t));
                    ctx.push_local_split(t, ty);
                } // else: the hook call itself consumes the value (row 4).
                ctx.call_hook(LowLevelHook::Drop(ty), ipc);
            } else {
                ctx.emit(Drop);
            }
        }
        Select => {
            if ctx.h(Hook::Select) {
                let ty = ctx
                    .checker
                    .peek(1)
                    .and_then(wasabi_wasm::validate::InferredType::known)
                    .or_else(|| {
                        ctx.checker
                            .peek(2)
                            .and_then(wasabi_wasm::validate::InferredType::known)
                    })
                    .expect("reachable code has known stack types");
                let cond = ctx.temps.get(ValType::I32);
                let second = ctx.temps.get(ty);
                let first = ctx.temps.get(ty);
                ctx.emit(Local(LocalOp::Set, cond));
                ctx.emit(Local(LocalOp::Set, second));
                ctx.emit(Local(LocalOp::Set, first));
                ctx.emit(Local(LocalOp::Get, first));
                ctx.emit(Local(LocalOp::Get, second));
                ctx.emit(Local(LocalOp::Get, cond));
                ctx.emit(Select);
                ctx.push_local_split(first, ty);
                ctx.push_local_split(second, ty);
                ctx.emit(Local(LocalOp::Get, cond));
                ctx.call_hook(LowLevelHook::Select(ty), ipc);
            } else {
                ctx.emit(Select);
            }
        }

        Local(op, idx) => {
            ctx.emit(Local(*op, *idx));
            if ctx.h(Hook::Local) {
                let ty = ctx
                    .function
                    .local_type(*idx)
                    .expect("validated local index");
                ctx.emit(Const(Val::I32(idx.to_u32() as i32)));
                // The local now holds the observed value for all three ops.
                ctx.push_local_split(*idx, ty);
                ctx.call_hook(LowLevelHook::Local(*op, ty), ipc);
            }
        }
        Global(op, idx) => {
            ctx.emit(Global(*op, *idx));
            if ctx.h(Hook::Global) {
                let ty = ctx.module.globals[idx.to_usize()].type_.val_type;
                ctx.emit(Const(Val::I32(idx.to_u32() as i32)));
                // Re-read the global: it holds the observed value for both
                // get and set.
                if ty == ValType::I64 {
                    let t = ctx.temps.get(ty);
                    ctx.emit(Global(wasabi_wasm::instr::GlobalOp::Get, *idx));
                    ctx.emit(Local(LocalOp::Set, t));
                    ctx.push_local_split(t, ty);
                } else {
                    ctx.emit(Global(wasabi_wasm::instr::GlobalOp::Get, *idx));
                }
                ctx.call_hook(LowLevelHook::Global(*op, ty), ipc);
            }
        }

        Load(op, memarg) => {
            if ctx.h(Hook::Load) {
                let addr = ctx.temps.get(ValType::I32);
                let value = ctx.temps.get(op.result());
                ctx.emit(Local(LocalOp::Tee, addr));
                ctx.emit(Load(*op, *memarg));
                ctx.emit(Local(LocalOp::Tee, value));
                ctx.emit(Local(LocalOp::Get, addr));
                ctx.emit(Const(Val::I32(memarg.offset as i32)));
                ctx.push_local_split(value, op.result());
                ctx.call_hook(LowLevelHook::Load(*op), ipc);
            } else {
                ctx.emit(Load(*op, *memarg));
            }
        }
        Store(op, memarg) => {
            if ctx.h(Hook::Store) {
                let value = ctx.temps.get(op.value_type());
                let addr = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Set, value));
                ctx.emit(Local(LocalOp::Tee, addr));
                ctx.emit(Local(LocalOp::Get, value));
                ctx.emit(Store(*op, *memarg));
                ctx.emit(Local(LocalOp::Get, addr));
                ctx.emit(Const(Val::I32(memarg.offset as i32)));
                ctx.push_local_split(value, op.value_type());
                ctx.call_hook(LowLevelHook::Store(*op), ipc);
            } else {
                ctx.emit(Store(*op, *memarg));
            }
        }
        MemorySize(idx) => {
            ctx.emit(MemorySize(*idx));
            if ctx.h(Hook::MemorySize) {
                let t = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Tee, t));
                ctx.emit(Local(LocalOp::Get, t));
                ctx.call_hook(LowLevelHook::MemorySize, ipc);
            }
        }
        MemoryGrow(idx) => {
            if ctx.h(Hook::MemoryGrow) {
                let delta = ctx.temps.get(ValType::I32);
                let prev = ctx.temps.get(ValType::I32);
                ctx.emit(Local(LocalOp::Tee, delta));
                ctx.emit(MemoryGrow(*idx));
                ctx.emit(Local(LocalOp::Tee, prev));
                ctx.emit(Local(LocalOp::Get, delta));
                ctx.emit(Local(LocalOp::Get, prev));
                ctx.call_hook(LowLevelHook::MemoryGrow, ipc);
            } else {
                ctx.emit(MemoryGrow(*idx));
            }
        }

        Const(val) => {
            ctx.emit(Const(*val));
            if ctx.h(Hook::Const) {
                ctx.push_const_split(*val);
                ctx.call_hook(LowLevelHook::Const(val.ty()), ipc);
            }
        }
        Unary(op) => {
            if ctx.h(Hook::Unary) {
                let input = ctx.temps.get(op.input());
                let result = ctx.temps.get(op.result());
                ctx.emit(Local(LocalOp::Tee, input));
                ctx.emit(Unary(*op));
                ctx.emit(Local(LocalOp::Tee, result));
                ctx.push_local_split(input, op.input());
                ctx.push_local_split(result, op.result());
                ctx.call_hook(LowLevelHook::Unary(*op), ipc);
            } else {
                ctx.emit(Unary(*op));
            }
        }
        Binary(op) => {
            if ctx.h(Hook::Binary) {
                let second = ctx.temps.get(op.input());
                let first = ctx.temps.get(op.input());
                let result = ctx.temps.get(op.result());
                ctx.emit(Local(LocalOp::Set, second));
                ctx.emit(Local(LocalOp::Tee, first));
                ctx.emit(Local(LocalOp::Get, second));
                ctx.emit(Binary(*op));
                ctx.emit(Local(LocalOp::Tee, result));
                ctx.push_local_split(first, op.input());
                ctx.push_local_split(second, op.input());
                ctx.push_local_split(result, op.result());
                ctx.call_hook(LowLevelHook::Binary(*op), ipc);
            } else {
                ctx.emit(Binary(*op));
            }
        }
    }
}

/// Capture call results, restore them, and call the `call_post` hook.
fn emit_call_post(ctx: &mut FunctionCtx<'_>, results: &[ValType], ipc: i32) {
    let temps = ctx.capture_stack(results);
    ctx.restore_stack(&temps);
    for (&t, &ty) in temps.iter().zip(results) {
        ctx.push_local_split(t, ty);
    }
    ctx.call_hook(LowLevelHook::CallPost(results.to_vec()), ipc);
}

// The unit tests for the instrumenter live in `tests/` of this crate (they
// exercise instrumentation plus execution through the runtime); here we
// only test pure helper behaviour.
#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::encode::encode;

    #[test]
    fn temp_locals_reuse_across_instructions() {
        let mut temps = TempLocals::new(5, true);
        let a = temps.get(ValType::I32);
        let b = temps.get(ValType::I32);
        let c = temps.get(ValType::F64);
        assert_eq!((a.to_u32(), b.to_u32(), c.to_u32()), (5, 6, 7));
        temps.reset();
        // Same types reuse the same locals after reset.
        assert_eq!(temps.get(ValType::I32).to_u32(), 5);
        assert_eq!(temps.get(ValType::F64).to_u32(), 7);
        assert_eq!(
            temps.into_locals(),
            vec![ValType::I32, ValType::I32, ValType::F64]
        );
    }

    #[test]
    fn match_ends_nested() {
        use wasabi_wasm::instr::Instr::*;
        let body = vec![
            Block(BlockType(None)), // 0
            Loop(BlockType(None)),  // 1
            Nop,                    // 2
            End,                    // 3 (loop)
            End,                    // 4 (block)
            End,                    // 5 (function)
        ];
        let ends = match_ends(&body);
        assert_eq!(ends[0], 4);
        assert_eq!(ends[1], 3);
    }

    #[test]
    fn empty_hookset_is_identity() {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
            f.block(None).get_local(0u32).br_if(0).end();
            f.get_local(0u32).i32_const(1).i32_add();
        });
        let module = builder.finish();
        let (instrumented, info) = instrument(&module, HookSet::empty()).expect("instruments");
        assert_eq!(encode(&module), encode(&instrumented));
        assert!(info.hooks.is_empty());
    }

    #[test]
    fn instrumented_module_validates() {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[ValType::I64], &[ValType::I64], |f| {
            f.get_local(0u32)
                .i64_const(2)
                .binary(wasabi_wasm::BinaryOp::I64Mul);
        });
        let module = builder.finish();
        let (instrumented, info) = instrument(&module, HookSet::all()).expect("instruments");
        validate(&instrumented).expect("instrumented module is valid");
        assert!(!info.hooks.is_empty());
        // All hooks are imports from the hook module.
        for f in &instrumented.functions[module.functions.len()..] {
            assert_eq!(f.import().map(|i| i.module.as_str()), Some(HOOK_MODULE));
        }
    }

    #[test]
    fn selective_instrumentation_adds_fewer_hooks() {
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
            f.get_local(0u32).i32_const(1).i32_add();
            f.i32_const(0)
                .load(wasabi_wasm::LoadOp::I32Load, 0)
                .i32_add();
        });
        let module = builder.finish();
        let (_, info_all) = instrument(&module, HookSet::all()).unwrap();
        let (_, info_load) = instrument(&module, HookSet::of(&[Hook::Load])).unwrap();
        assert!(info_load.hooks.len() < info_all.hooks.len());
        assert_eq!(info_load.hooks.len(), 1);
    }

    #[test]
    fn single_threaded_and_parallel_are_bit_identical() {
        // Mixed bodies (loads, br_tables, calls) so hook discovery and
        // br_table collection genuinely race across workers; the
        // canonicalization join must erase any trace of the interleaving.
        let mut builder = ModuleBuilder::new();
        builder.memory(1, None);
        for i in 0..20 {
            builder.function(&format!("f{i}"), &[ValType::I32], &[ValType::I32], |f| {
                if i % 3 == 0 {
                    f.block(None).block(None).block(None);
                    f.get_local(0u32).br_table(vec![0, 1], 2);
                    f.end().end().end();
                }
                if i % 2 == 0 {
                    f.get_local(0u32).load(wasabi_wasm::LoadOp::I32Load, 0);
                    f.drop_();
                }
                f.get_local(0u32).i32_const(i).i32_add();
            });
        }
        let module = builder.finish();
        validate(&module).unwrap();
        let (a, info_a) = Instrumenter::new(HookSet::all())
            .threads(1)
            .run(&module)
            .unwrap();
        for threads in [2, 4, 7] {
            let (b, info_b) = Instrumenter::new(HookSet::all())
                .threads(threads)
                .run(&module)
                .unwrap();
            assert_eq!(encode(&a), encode(&b), "threads={threads}");
            assert_eq!(info_a, info_b, "threads={threads}");
        }
    }
}
