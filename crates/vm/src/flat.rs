//! The flat, pre-translated interpreter IR and its translator.
//!
//! At instantiation time every function body is translated **once** from the
//! structured instruction sequence into a dense `Vec<Op>` in which all
//! control flow is resolved:
//!
//! - branch targets are absolute flat program counters,
//! - branch arities (values carried) and unwind heights (value-stack depth
//!   of the target frame) are baked into each branch as a [`BrDest`],
//! - `block`/`loop`/`end` degenerate to counted no-ops ([`Op::Skip`]) —
//!   the runtime keeps **no label stack** at all,
//! - `else` becomes an unconditional [`Op::Goto`] to the matching `end`,
//! - branches that leave the function ([`RETURN_TARGET`]) return directly.
//!
//! On top of the one-op-per-instruction translation, one peephole pass
//! fuses hot instruction sequences into **superinstructions**. The rules
//! are tried in the table's order and every one matches unfused ops only,
//! so the pass is final: fusing its output again changes nothing.
//!
//! | pattern | fused op | weight |
//! |---|---|---|
//! | (`get_local`\|`T.const`)×k + imported call | [`Op::HostCall`] | k+1 |
//! | affine address chain `(l_a*c1 + l_b)*c2` + load | [`Op::AffineLoad`] | 8 |
//! | affine address chain `(l_a*c1 + l_b)*c2` | [`Op::AffineAddr`] | 7 |
//! | `get_local` + `T.const` + cmp + `br_if` | [`Op::LocalConstCmpBrIf`] | 4 |
//! | `get_local` ×2 + cmp + `br_if` | [`Op::LocalLocalCmpBrIf`] | 4 |
//! | `get_local` + `T.const` + binop + `set_local` | [`Op::LocalConstBinarySet`] | 4 |
//! | `get_local` + `T.const` + binop | [`Op::LocalConstBinary`] | 3 |
//! | `get_local` + `get_local` + binop | [`Op::LocalLocalBinary`] | 3 |
//! | `T.const` + binop | [`Op::ConstBinary`] | 2 |
//! | `get_local` + binop | [`Op::LocalBinary`] | 2 |
//! | comparison + `br_if` | [`Op::CmpBrIf`] | 2 |
//!
//! # Host-call intrinsics
//!
//! Calls to *imported* functions never execute interpreted code, so routing
//! them through the generic call machinery (per-call function-target match,
//! interpreter frame bookkeeping) is pure overhead. The translator instead
//! emits [`Op::HostCall`]: the callee's host identity is resolved once at
//! instantiation into a dense per-instance table, and the arguments are
//! handed to the host from a reused scratch buffer — no frame, no target
//! match, no per-call allocation.
//!
//! Fusion folds a run of `get_local` and `T.const` instructions that feed
//! directly into an imported call into the call's [`Op::HostCall`], with
//! `k` = 0 for a call with nothing folded. That run is exactly the shape an
//! instrumenter emits for every low-level hook call: captured values are
//! re-read from locals, and immediates and the trailing `(func, instr)`
//! location pair are constants baked in at instrumentation time. The run
//! is compiled into an [`ArgSrc`] template in the per-module table
//! [`ModuleCode::args`], so a typical instrumented call site — five to
//! eight marshalling instructions plus the call — executes as **one** op
//! whose host receives the remaining operand-stack arguments followed by
//! the template's values, gathered straight from the frame's locals and
//! the immediates. A function's translation appends each template to a
//! table of its own, with no deduplication; the build's join then interns
//! every template exactly once into the module table, in function-index and
//! op order, where identical templates (bit for bit) share one slice (see
//! [`merge_local`]). The fold is generic over hosts: it keys purely on
//! "locals and constants feeding an imported call", not on any hook naming
//! convention. It obeys the same two legality rules as every other
//! superinstruction (no branch into the interior; the call — the only
//! trap-capable member — is last), it is capped at the call's argument
//! count so values that belong to a deeper stack consumer are left alone,
//! and it applies only to a call with nothing folded yet.
//!
//! Two legality rules keep fusion observationally invisible:
//!
//! 1. **No branch into a group**: a member other than the first must not be
//!    the destination of any branch, so control can only enter a
//!    superinstruction at its head.
//! 2. **Only the last member may trap**: a group's full weight is charged
//!    (and its fuel consumed) up front, which is exactly the structured
//!    walk's accounting only if no instruction *after* a trapping member
//!    was going to execute — so trap-capable instructions (loads, integer
//!    division) never fuse into a non-final position, and
//!    [`Op::LocalConstBinarySet`] is restricted to non-trapping binops.
//!
//! Each op carries a *weight* — the
//! number of original instructions it stands for — so
//! [`crate::Instance::executed_instrs`] and fuel accounting stay exactly
//! equal to the structured-walk semantics (see [`crate::reference`], the
//! oracle the proptest differential suite compares against).
//!
//! # Direct-emit instrumentation
//!
//! [`crate::TranslatedModule::new_instrumented`] feeds pre-instrumented
//! bodies straight into this translator together with a list of *synthetic*
//! [`HookImport`]s occupying function indices past the module's own — no
//! rewritten binary ever exists. Injected hook calls are ordinary imported
//! calls to the translator, so they fold into [`Op::HostCall`] templates
//! under the same two legality rules as everything else (an injected call
//! is trap-capable — the host boundary — so it is always the *last* member
//! of its group, and no branch may enter the marshalling run feeding it).
//! At instantiation the synthetic imports resolve after the module's real
//! imports, and the host may declare any of them a statically-known no-op
//! ([`crate::Host::is_noop`]), in which case the dispatch arm retires the
//! call without crossing the host boundary at all — same weight, same fuel,
//! same depth check, no observable difference.
//!
//! Translation is cached per module by [`crate::TranslatedModule`]: reusing
//! one across [`crate::Instance::instantiate_translated`] calls translates
//! once, not per run.

use std::collections::HashMap;

use wasabi_wasm::instr::{
    BinaryOp, GlobalOp, Instr, Label, LoadOp, LocalOp, StoreOp, UnaryOp, Val,
};
use wasabi_wasm::module::Module;
use wasabi_wasm::types::{FuncType, ValType};

/// Sentinel flat pc: this branch leaves the function (returns).
pub(crate) const RETURN_TARGET: u32 = u32::MAX;

/// A fully resolved branch destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BrDest {
    /// Flat pc of the target op, or [`RETURN_TARGET`].
    pub target: u32,
    /// Number of values the branch carries (the label arity).
    pub keep: u32,
    /// Value-stack height of the target frame to unwind to.
    pub height: u32,
}

/// A `br_table`'s resolved destinations (boxed to keep [`Op`] small).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BrTableOp {
    pub dests: Vec<BrDest>,
    pub default: BrDest,
}

/// One flat, pre-translated instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Counted no-op: `nop`, or a structural marker (`block`, `loop`,
    /// non-function `end`) whose control work was resolved at translation.
    Skip,
    Unreachable,
    /// Unconditional jump (the `else` marker's fall-through edge).
    Goto(u32),
    /// `if` false-edge: pop the condition, jump if zero.
    IfNot(u32),
    Br(BrDest),
    BrIf(BrDest),
    BrTable(Box<BrTableOp>),
    /// `return`, or the function body's own `end`.
    Return,
    Call {
        callee: u32,
        params: u32,
    },
    /// Call of an **imported** function, dispatched straight to the host:
    /// no interpreter frame, no per-call function-target match — the callee
    /// resolves through the instance's dense host-id table. The host
    /// receives `stack[top-stack_argc..]` followed by one value per
    /// [`ArgSrc`] of `args[args_at..args_at+args_len]`, gathered from the
    /// frame's locals and immediates without touching the operand stack
    /// (see the module docs, "Host-call intrinsics").
    HostCall {
        /// Function index of the imported callee.
        func: u32,
        /// Arguments taken from the operand stack.
        stack_argc: u32,
        retc: u32,
        /// Start of the folded argument template in [`ModuleCode::args`].
        args_at: u32,
        /// Length of the folded argument template (0: nothing folded).
        args_len: u32,
    },
    CallIndirect {
        /// Index into [`ModuleCode::sigs`].
        sig: u32,
        params: u32,
    },
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet(u32),
    Load {
        op: LoadOp,
        offset: u32,
    },
    Store {
        op: StoreOp,
        offset: u32,
    },
    MemorySize,
    MemoryGrow,
    Const(Val),
    Unary(UnaryOp),
    Binary(BinaryOp),

    // Superinstructions (fused pairs/triples/quads, see module docs).
    /// `T.const value` + binop: pop one operand, the constant is the
    /// **second** input.
    ConstBinary {
        value: Val,
        op: BinaryOp,
    },
    /// `get_local` + binop: pop one operand, the local is the second input.
    LocalBinary {
        local: u32,
        op: BinaryOp,
    },
    /// `get_local a` + `get_local b` + binop: no stack traffic for inputs.
    LocalLocalBinary {
        a: u32,
        b: u32,
        op: BinaryOp,
    },
    /// `get_local a` + `T.const value` + binop (address arithmetic).
    LocalConstBinary {
        a: u32,
        value: Val,
        op: BinaryOp,
    },
    /// `get_local a` + `T.const value` + binop + `set_local dst`
    /// (the loop-counter increment idiom); touches no stack at all.
    LocalConstBinarySet {
        a: u32,
        value: Val,
        op: BinaryOp,
        dst: u32,
    },
    /// comparison + `br_if`: pop both operands, branch on the comparison.
    CmpBrIf {
        op: BinaryOp,
        dest: BrDest,
    },
    /// `get_local a` + `T.const value` + comparison + `br_if`
    /// (the constant-bound loop condition); touches no stack at all.
    LocalConstCmpBrIf {
        a: u32,
        value: Val,
        op: BinaryOp,
        dest: BrDest,
    },
    /// `get_local a` + `get_local b` + comparison + `br_if`
    /// (the local-bound loop condition); touches no stack at all.
    LocalLocalCmpBrIf {
        a: u32,
        b: u32,
        op: BinaryOp,
        dest: BrDest,
    },
    /// The affine array-address chain `get_local a; i32.const c1; i32.mul;
    /// get_local b; i32.add; i32.const c2; i32.mul` — seven instructions,
    /// one push of `(a*c1 + b)*c2` in native wrapping arithmetic.
    AffineAddr {
        a: u32,
        c1: i32,
        b: u32,
        c2: i32,
    },
    /// [`Op::AffineAddr`] feeding directly into a load: eight instructions,
    /// zero operand-stack traffic for the address.
    AffineLoad {
        a: u32,
        c1: i32,
        b: u32,
        c2: i32,
        load: LoadOp,
        offset: u32,
    },
}

impl Op {
    /// How many original instructions this op stands for (the unit of
    /// `executed_instrs` and fuel).
    #[inline]
    pub fn weight(&self) -> u64 {
        match self {
            Op::ConstBinary { .. } | Op::LocalBinary { .. } | Op::CmpBrIf { .. } => 2,
            Op::LocalLocalBinary { .. } | Op::LocalConstBinary { .. } => 3,
            Op::LocalConstBinarySet { .. }
            | Op::LocalConstCmpBrIf { .. }
            | Op::LocalLocalCmpBrIf { .. } => 4,
            Op::AffineAddr { .. } => 7,
            Op::AffineLoad { .. } => 8,
            Op::HostCall { args_len, .. } => 1 + u64::from(*args_len),
            _ => 1,
        }
    }
}

/// Translated code of one function.
#[derive(Debug, Default)]
pub(crate) struct FuncCode {
    pub ops: Vec<Op>,
    /// Zero values of the explicit locals, appended after the arguments.
    pub zeros: Vec<Val>,
    /// Number of result values.
    pub arity: usize,
}

/// One folded argument of an [`Op::HostCall`] template: where the value
/// comes from when the call executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ArgSrc {
    /// The current value of a local.
    Local(u32),
    /// An immediate.
    Value(Val),
}

/// Translated code of a whole module (imported functions get an empty
/// [`FuncCode`]; they are never executed by the interpreter).
#[derive(Debug, Default)]
pub(crate) struct ModuleCode {
    pub funcs: Vec<FuncCode>,
    /// Deduplicated `call_indirect` expected signatures.
    pub sigs: Vec<FuncType>,
    /// Deduplicated argument templates of [`Op::HostCall`] ops.
    pub args: Vec<ArgSrc>,
    /// Synthetic function imports of the direct-emit instrumentation path
    /// ([`crate::TranslatedModule::new_instrumented`]), occupying function
    /// indices `module.functions.len()..`. Empty for plain translations.
    pub hook_imports: Vec<HookImport>,
}

/// A *synthetic* function import: it exists only in the translated code,
/// not in the underlying [`Module`]. The direct-emit instrumentation path
/// appends one per distinct low-level hook past the module's own function
/// index space; instantiation resolves them against the host exactly like
/// real imports (in order, after the module's own imports).
///
/// Calls to a synthetic import always translate to the host-call intrinsic
/// ops — they have no `FuncTarget` entry, so the generic call machinery
/// could not reach them.
#[derive(Debug, Clone, PartialEq)]
pub struct HookImport {
    /// Import module namespace (e.g. the instrumenter's hook module).
    pub module: String,
    /// Import name within the namespace.
    pub name: String,
    /// Signature the import is resolved and called with.
    pub ty: FuncType,
}

/// A pre-instrumented replacement body for one function, consumed by
/// [`crate::TranslatedModule::new_instrumented`]: the original instruction
/// sequence with hook calls (to [`HookImport`] indices) already woven in,
/// plus the types of any helper locals the injected code references beyond
/// the function's own locals.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentedFunc {
    /// The instrumented body (must be structurally valid against the
    /// original module extended by the hook imports).
    pub body: Vec<Instr>,
    /// Types of extra locals appended after the function's own locals.
    pub extra_locals: Vec<ValType>,
}

/// Translation knobs. The defaults are what [`crate::TranslatedModule::new`]
/// uses; the generic-call mode (no host-call intrinsics) exists for
/// benchmarking the pre-intrinsic path and for differential tests of the
/// fallback.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TranslateOptions {
    /// Emit [`Op::HostCall`] for calls of imported functions (default).
    /// When `false`, imported calls go through the generic [`Op::Call`]
    /// machinery.
    pub host_call_intrinsics: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            host_call_intrinsics: true,
        }
    }
}

/// Bit pattern of an argument source, so NaNs and signed zeros compare
/// exactly (tag 4 = local).
fn arg_key(src: &ArgSrc) -> (u8, u64) {
    match *src {
        ArgSrc::Value(Val::I32(x)) => (0, x as u32 as u64),
        ArgSrc::Value(Val::I64(x)) => (1, x as u64),
        ArgSrc::Value(Val::F32(x)) => (2, u64::from(x.to_bits())),
        ArgSrc::Value(Val::F64(x)) => (3, x.to_bits()),
        ArgSrc::Local(i) => (4, u64::from(i)),
    }
}

/// Intern the argument template `run` into `table`, returning its start:
/// the start of an earlier identical run (bit-pattern equality, per
/// [`arg_key`]), or of a fresh copy appended to the table. `index` maps a
/// 64-bit hash of each indexed run to its start, and a hit counts only if
/// the stored slice matches bit for bit. A run whose hash is taken by a
/// different run is appended without an index entry, so interning stays
/// linear in the run's length even on crafted collisions.
fn intern_run(table: &mut Vec<ArgSrc>, index: &mut HashMap<u64, u32>, run: &[ArgSrc]) -> u32 {
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let hash = run
        .iter()
        .map(arg_key)
        .fold(run.len() as u64, |h, (tag, bits)| {
            mix(mix(h, u64::from(tag)), bits)
        });
    let end = table.len() as u32;
    let at = *index.entry(hash).or_insert(end);
    if at != end {
        let stored = table.get(at as usize..at as usize + run.len());
        if stored.is_some_and(|stored| stored.iter().map(arg_key).eq(run.iter().map(arg_key))) {
            return at;
        }
    }
    table.extend_from_slice(run);
    end
}

/// Structured-control-flow companion table: for each `block`/`loop`/`if`
/// pc, the pc of the matching `end` (and `else`, if any). Shared between
/// the translator and the [`crate::reference`] oracle.
#[derive(Debug, Clone, Default)]
pub(crate) struct JumpTable {
    /// For `block`/`loop`/`if` at pc: index of the matching `end`.
    pub end: Vec<u32>,
    /// For `if` at pc: index of the matching `else` (`u32::MAX` if absent).
    pub else_: Vec<u32>,
}

pub(crate) fn compute_jump_table(body: &[Instr]) -> JumpTable {
    let mut table = JumpTable {
        end: vec![0; body.len()],
        else_: vec![u32::MAX; body.len()],
    };
    let mut open: Vec<usize> = Vec::new();
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => open.push(pc),
            Instr::Else => {
                let if_pc = *open.last().expect("validated: else inside if");
                table.else_[if_pc] = pc as u32;
            }
            Instr::End => {
                if let Some(start) = open.pop() {
                    table.end[start] = pc as u32;
                }
                // else: the function body's own end.
            }
            _ => {}
        }
    }
    table
}

/// Translate every local function of a **validated** module.
pub(crate) fn translate_module_with(module: &Module, opts: TranslateOptions) -> ModuleCode {
    translate_module_parallel(module, None, Vec::new(), opts, 1).0
}

/// Per-function output of the independent translation pass: the function's
/// fused ops with every cross-function table reference
/// ([`Op::CallIndirect`]'s signature id, [`Op::HostCall`]'s argument
/// template) still pointing into these **local** tables. [`merge_local`]
/// interns them into the module-global tables at the deterministic join.
#[derive(Debug, Default)]
struct LocalTranslation {
    code: FuncCode,
    sigs: Vec<FuncType>,
    /// Argument templates, appended by each host-call fold, never
    /// deduplicated here.
    args: Vec<ArgSrc>,
}

/// Module-global interning state built up at the join, in function-index
/// order.
#[derive(Debug, Default)]
struct GlobalTables {
    sigs: Vec<FuncType>,
    sig_ids: HashMap<FuncType, u32>,
    args: Vec<ArgSrc>,
    /// [`intern_run`]'s index of the templates in `args`.
    templates: HashMap<u64, u32>,
}

/// Intern one function's local tables into the global ones and remap its
/// ops. Determinism argument: every table reference lives in the
/// function's own ops — Phase A interns `call_indirect` signatures into the
/// local table, and each host-call fold of Phase B appends its template to
/// the local `args` without deduplicating. The join interns them in
/// function-index order and, within a function, in op order (fusion never
/// reorders ops), each host-call run exactly once. The global tables
/// therefore depend only on the final op streams, never on how many
/// threads translated the bodies or which finished first.
fn merge_local(tables: &mut GlobalTables, local: LocalTranslation) -> FuncCode {
    let LocalTranslation {
        mut code,
        sigs,
        args,
    } = local;
    for op in &mut code.ops {
        match op {
            Op::CallIndirect { sig, .. } => {
                let ty = &sigs[*sig as usize];
                *sig = match tables.sig_ids.get(ty) {
                    Some(&id) => id,
                    None => {
                        let id = tables.sigs.len() as u32;
                        tables.sigs.push(ty.clone());
                        tables.sig_ids.insert(ty.clone(), id);
                        id
                    }
                };
            }
            Op::HostCall {
                args_at, args_len, ..
            } if *args_len > 0 => {
                let at = *args_at as usize;
                let run = &args[at..at + *args_len as usize];
                *args_at = intern_run(&mut tables.args, &mut tables.templates, run);
            }
            _ => {}
        }
    }
    code
}

/// The function-granular build pipeline (paper §3): translate every body as
/// an independent pass — immutable module/type context in, per-function
/// [`FuncCode`] plus its append-only local tables out — fanned out over
/// `threads` scoped workers in contiguous chunks, then intern each
/// function's signatures and host-call runs into the module-global tables
/// in function-index order. That join is the only sequential section, the
/// only place runs are deduplicated, and it makes the output
/// **bit-identical** to `threads = 1` (see [`merge_local`]).
///
/// `funcs` supplies pre-instrumented replacement bodies (the direct-emit
/// path); `None` translates the module as-is.
///
/// Returns the translated module code and the summed worker busy time in
/// nanoseconds (the per-thread accumulation the caller folds into its build
/// phase timers exactly once).
pub(crate) fn translate_module_parallel(
    module: &Module,
    funcs: Option<&[Option<InstrumentedFunc>]>,
    hook_imports: Vec<HookImport>,
    opts: TranslateOptions,
    threads: usize,
) -> (ModuleCode, u64) {
    if let Some(funcs) = funcs {
        debug_assert_eq!(funcs.len(), module.functions.len());
    }
    let function_count = module.functions.len();
    let hook_imports_ref = &hook_imports;
    let translate_one = move |idx: usize| -> LocalTranslation {
        let f = &module.functions[idx];
        let Some(code) = f.code() else {
            return LocalTranslation::default();
        };
        let instrumented = funcs.and_then(|funcs| funcs[idx].as_ref());
        let all_locals: Vec<ValType>;
        let (body, locals): (&[Instr], &[ValType]) = match instrumented {
            Some(inst) => {
                all_locals = code
                    .locals
                    .iter()
                    .chain(&inst.extra_locals)
                    .copied()
                    .collect();
                (&inst.body, &all_locals)
            }
            None => (&code.body, &code.locals),
        };
        translate_function(module, hook_imports_ref, &f.type_, body, locals, opts)
    };

    let threads = threads.max(1).min(function_count.max(1));
    let mut locals: Vec<LocalTranslation> = Vec::with_capacity(function_count);
    let busy_nanos: u64;
    if threads <= 1 {
        let start = std::time::Instant::now();
        locals.extend((0..function_count).map(translate_one));
        busy_nanos = start.elapsed().as_nanos() as u64;
    } else {
        locals.resize_with(function_count, LocalTranslation::default);
        let chunk_size = function_count.div_ceil(threads);
        let busy = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for (chunk_idx, chunk) in locals.chunks_mut(chunk_size).enumerate() {
                let base = chunk_idx * chunk_size;
                let busy = &busy;
                let translate_one = &translate_one;
                scope.spawn(move || {
                    let start = std::time::Instant::now();
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = translate_one(base + offset);
                    }
                    busy.fetch_add(
                        start.elapsed().as_nanos() as u64,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                });
            }
        });
        busy_nanos = busy.into_inner();
    }

    // Deterministic join: merge in function-index order, sequentially.
    let mut tables = GlobalTables::default();
    let merged = locals
        .into_iter()
        .map(|local| merge_local(&mut tables, local))
        .collect();
    (
        ModuleCode {
            funcs: merged,
            sigs: tables.sigs,
            args: tables.args,
            hook_imports,
        },
        busy_nanos,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TKind {
    Func,
    Block,
    Loop,
    IfElse,
}

/// Translation-time control frame (exists only during translation; the
/// runtime has no equivalent).
struct TFrame {
    kind: TKind,
    start_pc: usize,
    end_pc: usize,
    /// Value-stack height at frame entry (after popping the `if` condition).
    height: u32,
    /// Number of result values of the block.
    arity: u32,
    /// Whether the frame was entered from live (reachable) code.
    entry_live: bool,
}

fn dest_for(frames: &[TFrame], label: Label) -> BrDest {
    let fr = &frames[frames.len() - 1 - label.to_usize()];
    match fr.kind {
        TKind::Func => BrDest {
            target: RETURN_TARGET,
            keep: fr.arity,
            height: 0,
        },
        TKind::Loop => BrDest {
            target: (fr.start_pc + 1) as u32,
            keep: 0,
            height: fr.height,
        },
        TKind::Block | TKind::IfElse => BrDest {
            target: (fr.end_pc + 1) as u32,
            keep: fr.arity,
            height: fr.height,
        },
    }
}

#[allow(clippy::too_many_lines)]
fn translate_function(
    module: &Module,
    hook_imports: &[HookImport],
    ty: &FuncType,
    body: &[Instr],
    locals: &[ValType],
    opts: TranslateOptions,
) -> LocalTranslation {
    let mut sigs: Vec<FuncType> = Vec::new();
    let mut sig_ids: HashMap<FuncType, u32> = HashMap::new();
    let mut args: Vec<ArgSrc> = Vec::new();
    let jump = compute_jump_table(body);
    let mut ops: Vec<Op> = Vec::with_capacity(body.len());
    let mut frames: Vec<TFrame> = vec![TFrame {
        kind: TKind::Func,
        start_pc: 0,
        end_pc: body.len().saturating_sub(1),
        height: 0,
        arity: ty.results.len() as u32,
        entry_live: true,
    }];
    // Static value-stack height and reachability. In dead regions (after an
    // unconditional branch, until the enclosing `else`/`end`) heights are
    // not tracked: the emitted ops can never execute, they only keep the
    // one-op-per-instruction mapping intact.
    let mut h: u32 = 0;
    let mut live = true;

    // ---- Phase A: one op per original instruction (flat pc == original pc).
    for (pc, instr) in body.iter().enumerate() {
        let op = match instr {
            Instr::Nop => Op::Skip,
            Instr::Unreachable => {
                live = false;
                Op::Unreachable
            }

            Instr::Block(bt) | Instr::Loop(bt) => {
                frames.push(TFrame {
                    kind: if matches!(instr, Instr::Loop(_)) {
                        TKind::Loop
                    } else {
                        TKind::Block
                    },
                    start_pc: pc,
                    end_pc: jump.end[pc] as usize,
                    height: h,
                    arity: u32::from(bt.0.is_some()),
                    entry_live: live,
                });
                Op::Skip
            }
            Instr::If(bt) => {
                if live {
                    h -= 1; // condition
                }
                let else_pc = jump.else_[pc];
                let end_pc = jump.end[pc] as usize;
                frames.push(TFrame {
                    kind: TKind::IfElse,
                    start_pc: pc,
                    end_pc,
                    height: h,
                    arity: u32::from(bt.0.is_some()),
                    entry_live: live,
                });
                let target = if else_pc != u32::MAX {
                    else_pc + 1
                } else {
                    (end_pc + 1) as u32
                };
                Op::IfNot(target)
            }
            Instr::Else => {
                let fr = frames.last().expect("validated: else inside if");
                h = fr.height;
                live = fr.entry_live;
                // Falling into `else` jumps to the matching `end` marker,
                // which executes as one counted step (seed semantics).
                Op::Goto(fr.end_pc as u32)
            }
            Instr::End => {
                let fr = frames.pop().expect("validated: end matches a frame");
                if fr.kind == TKind::Func {
                    Op::Return
                } else {
                    h = fr.height + fr.arity;
                    live = fr.entry_live;
                    Op::Skip
                }
            }

            Instr::Br(label) => {
                let d = dest_for(&frames, *label);
                live = false;
                Op::Br(d)
            }
            Instr::BrIf(label) => {
                if live {
                    h -= 1; // condition
                }
                Op::BrIf(dest_for(&frames, *label))
            }
            Instr::BrTable { table, default } => {
                if live {
                    h -= 1; // selector
                }
                let dests = table.iter().map(|l| dest_for(&frames, *l)).collect();
                let default = dest_for(&frames, *default);
                live = false;
                Op::BrTable(Box::new(BrTableOp { dests, default }))
            }
            Instr::Return => {
                live = false;
                Op::Return
            }

            Instr::Call(callee) => {
                // Indices past the module's own function space name the
                // synthetic hook imports of the direct-emit path.
                let idx = callee.to_usize();
                let (callee_ty, is_import, is_synthetic) = match module.functions.get(idx) {
                    Some(f) => (&f.type_, f.import().is_some(), false),
                    None => (&hook_imports[idx - module.functions.len()].ty, true, true),
                };
                if live {
                    h = h - callee_ty.params.len() as u32 + callee_ty.results.len() as u32;
                }
                if is_import && (opts.host_call_intrinsics || is_synthetic) {
                    Op::HostCall {
                        func: callee.to_u32(),
                        stack_argc: callee_ty.params.len() as u32,
                        retc: callee_ty.results.len() as u32,
                        args_at: 0,
                        args_len: 0,
                    }
                } else {
                    Op::Call {
                        callee: callee.to_u32(),
                        params: callee_ty.params.len() as u32,
                    }
                }
            }
            Instr::CallIndirect(expected_ty, _) => {
                if live {
                    h = h - 1 - expected_ty.params.len() as u32 + expected_ty.results.len() as u32;
                }
                let sig = *sig_ids.entry(expected_ty.clone()).or_insert_with(|| {
                    sigs.push(expected_ty.clone());
                    (sigs.len() - 1) as u32
                });
                Op::CallIndirect {
                    sig,
                    params: expected_ty.params.len() as u32,
                }
            }

            Instr::Drop => {
                if live {
                    h -= 1;
                }
                Op::Drop
            }
            Instr::Select => {
                if live {
                    h -= 2;
                }
                Op::Select
            }

            Instr::Local(op, idx) => match op {
                LocalOp::Get => {
                    if live {
                        h += 1;
                    }
                    Op::LocalGet(idx.to_u32())
                }
                LocalOp::Set => {
                    if live {
                        h -= 1;
                    }
                    Op::LocalSet(idx.to_u32())
                }
                LocalOp::Tee => Op::LocalTee(idx.to_u32()),
            },
            Instr::Global(op, idx) => match op {
                GlobalOp::Get => {
                    if live {
                        h += 1;
                    }
                    Op::GlobalGet(idx.to_u32())
                }
                GlobalOp::Set => {
                    if live {
                        h -= 1;
                    }
                    Op::GlobalSet(idx.to_u32())
                }
            },

            Instr::Load(op, memarg) => Op::Load {
                op: *op,
                offset: memarg.offset,
            },
            Instr::Store(op, memarg) => {
                if live {
                    h -= 2;
                }
                Op::Store {
                    op: *op,
                    offset: memarg.offset,
                }
            }
            Instr::MemorySize(_) => {
                if live {
                    h += 1;
                }
                Op::MemorySize
            }
            Instr::MemoryGrow(_) => Op::MemoryGrow,

            Instr::Const(val) => {
                if live {
                    h += 1;
                }
                Op::Const(*val)
            }
            Instr::Unary(op) => Op::Unary(*op),
            Instr::Binary(op) => {
                if live {
                    h -= 1;
                }
                Op::Binary(*op)
            }
        };
        ops.push(op);
    }
    debug_assert_eq!(ops.len(), body.len());

    // ---- Phase B: fuse superinstructions and remap branch targets.
    let ops = fuse(&ops, &mut args);

    LocalTranslation {
        code: FuncCode {
            ops,
            zeros: locals.iter().map(|&ty| Val::zero(ty)).collect(),
            arity: ty.results.len(),
        },
        sigs,
        args,
    }
}

/// Whether a binary op can trap (integer division/remainder). Trap-capable
/// instructions may only ever be the **last** member of a fused group: the
/// group's full weight is charged before execution, which matches the
/// structured walk exactly only when nothing after the trapping member was
/// going to execute anyway (and when a fuel shortfall on the group cannot
/// preempt a real trap in an affordable prefix).
fn binop_can_trap(op: BinaryOp) -> bool {
    use BinaryOp::*;
    matches!(
        op,
        I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU
    )
}

/// Mark every flat pc that any branch can jump to.
fn branch_targets(ops: &[Op]) -> Vec<bool> {
    let mut is_target = vec![false; ops.len()];
    let mut mark = |t: u32| {
        if t != RETURN_TARGET {
            is_target[t as usize] = true;
        }
    };
    for op in ops {
        match op {
            Op::Goto(t) | Op::IfNot(t) => mark(*t),
            Op::Br(d)
            | Op::BrIf(d)
            | Op::CmpBrIf { dest: d, .. }
            | Op::LocalConstCmpBrIf { dest: d, .. }
            | Op::LocalLocalCmpBrIf { dest: d, .. } => mark(d.target),
            Op::BrTable(bt) => {
                for d in &bt.dests {
                    mark(d.target);
                }
                mark(bt.default.target);
            }
            _ => {}
        }
    }
    is_target
}

/// The `(a, c1, b, c2)` of the affine address chain `get_local a;
/// i32.const c1; i32.mul; get_local b; i32.add; i32.const c2; i32.mul` at
/// the start of `ops`.
fn affine_chain(ops: &[Op]) -> Option<(u32, i32, u32, i32)> {
    use BinaryOp::{I32Add, I32Mul};
    let [o0, o1, o2, o3, o4, o5, o6] = ops.first_chunk::<7>()?;
    match (o0, o1, o2, o3, o4, o5, o6) {
        (
            Op::LocalGet(a),
            Op::Const(Val::I32(c1)),
            Op::Binary(I32Mul),
            Op::LocalGet(b),
            Op::Binary(I32Add),
            Op::Const(Val::I32(c2)),
            Op::Binary(I32Mul),
        ) => Some((*a, *c1, *b, *c2)),
        _ => None,
    }
}

/// Try to fuse a superinstruction starting at `i`; returns the fused op and
/// the number of ops it consumes. `ops` are unfused, one per original
/// instruction, and `run` is the number of `Const`/`LocalGet` ops starting
/// at `i`. Members after the first must not be branch targets (control may
/// only enter a group at its head), and longer groups are preferred over
/// shorter ones.
fn try_fuse(
    ops: &[Op],
    is_target: &[bool],
    i: usize,
    run: usize,
    args: &mut Vec<ArgSrc>,
) -> Option<(Op, usize)> {
    let fusible = |k: usize| i + k < ops.len() && (1..=k).all(|j| !is_target[i + j]);

    // Host-call intrinsic fold: a run of consts and local reads feeding
    // directly into an imported call becomes one op, the argument sources
    // appended to the function's template table. The fold is capped at the
    // call's argument count — if the run is longer, the leading values
    // belong to a deeper stack consumer and the fold fires later, at the
    // run's suffix.
    if let Some(&Op::HostCall {
        func,
        stack_argc,
        retc,
        args_len: 0,
        ..
    }) = ops.get(i + run)
    {
        if (1..=stack_argc as usize).contains(&run) && fusible(run) {
            let args_at = args.len() as u32;
            args.extend(ops[i..i + run].iter().map(|op| match op {
                Op::Const(v) => ArgSrc::Value(*v),
                Op::LocalGet(idx) => ArgSrc::Local(*idx),
                _ => unreachable!("run contains only consts and local reads"),
            }));
            let op = Op::HostCall {
                func,
                stack_argc: stack_argc - run as u32,
                retc,
                args_at,
                args_len: run as u32,
            };
            return Some((op, run + 1));
        }
    }

    // The affine address chain, plus the load it feeds unless that load is
    // a branch target.
    if let Some((a, c1, b, c2)) = affine_chain(&ops[i..]).filter(|_| fusible(6)) {
        if let Some(&Op::Load { op: load, offset }) = ops.get(i + 7).filter(|_| fusible(7)) {
            let op = Op::AffineLoad {
                a,
                c1,
                b,
                c2,
                load,
                offset,
            };
            return Some((op, 8));
        }
        return Some((Op::AffineAddr { a, c1, b, c2 }, 7));
    }

    // The shorter rules, in the module docs' table order.
    let fused = match ops[i..] {
        // get_local a; const v; cmp; br_if — constant-bound loop exit.
        [Op::LocalGet(a), Op::Const(value), Op::Binary(op), Op::BrIf(dest), ..]
            if fusible(3) && op.is_comparison() =>
        {
            (Op::LocalConstCmpBrIf { a, value, op, dest }, 4)
        }
        // get_local a; get_local b; cmp; br_if — local-bound loop exit.
        [Op::LocalGet(a), Op::LocalGet(b), Op::Binary(op), Op::BrIf(dest), ..]
            if fusible(3) && op.is_comparison() =>
        {
            (Op::LocalLocalCmpBrIf { a, b, op, dest }, 4)
        }
        // get_local a; const v; binop; set_local dst — counter step. Only
        // for binops that cannot trap: a trapping member must be the *last*
        // instruction of its group, or `executed_instrs` and the
        // fuel-vs-real-trap ordering would diverge from the structured-walk
        // oracle.
        [Op::LocalGet(a), Op::Const(value), Op::Binary(op), Op::LocalSet(dst), ..]
            if fusible(3) && !binop_can_trap(op) =>
        {
            (Op::LocalConstBinarySet { a, value, op, dst }, 4)
        }
        [Op::LocalGet(a), Op::Const(value), Op::Binary(op), ..] if fusible(2) => {
            (Op::LocalConstBinary { a, value, op }, 3)
        }
        [Op::LocalGet(a), Op::LocalGet(b), Op::Binary(op), ..] if fusible(2) => {
            (Op::LocalLocalBinary { a, b, op }, 3)
        }
        [Op::Const(value), Op::Binary(op), ..] if fusible(1) => (Op::ConstBinary { value, op }, 2),
        [Op::LocalGet(local), Op::Binary(op), ..] if fusible(1) => {
            (Op::LocalBinary { local, op }, 2)
        }
        [Op::Binary(op), Op::BrIf(dest), ..] if fusible(1) && op.is_comparison() => {
            (Op::CmpBrIf { op, dest }, 2)
        }
        _ => return None,
    };
    Some(fused)
}

/// Peephole-fuse `ops` in one pass and remap all branch targets to the new
/// indices. Every rule matches unfused ops only, and a folded
/// [`Op::HostCall`] never folds again, so fusing the output once more
/// changes nothing.
fn fuse(ops: &[Op], args: &mut Vec<ArgSrc>) -> Vec<Op> {
    let is_target = branch_targets(ops);
    let mut fused: Vec<Op> = Vec::with_capacity(ops.len());
    // `map[old_pc]` = index of the fused op covering that original op.
    // Branch targets only ever point at group heads (enforced by
    // `try_fuse`), so the mapping is unambiguous for them.
    let mut map = vec![0u32; ops.len()];
    // End of the `Const`/`LocalGet` run covering `i`, found once per run so
    // the pass stays linear however long the run is.
    let mut run_end = 0;
    let mut i = 0;
    while i < ops.len() {
        let new_idx = fused.len() as u32;
        if run_end <= i {
            run_end = i + ops[i..]
                .iter()
                .take_while(|op| matches!(op, Op::Const(_) | Op::LocalGet(_)))
                .count();
        }
        if let Some((op, width)) = try_fuse(ops, &is_target, i, run_end - i, args) {
            map[i..i + width].fill(new_idx);
            fused.push(op);
            i += width;
        } else {
            map[i] = new_idx;
            fused.push(ops[i].clone());
            i += 1;
        }
    }
    let remap = |t: &mut u32| {
        if *t != RETURN_TARGET {
            *t = map[*t as usize];
        }
    };
    for op in &mut fused {
        match op {
            Op::Goto(t) | Op::IfNot(t) => remap(t),
            Op::Br(d)
            | Op::BrIf(d)
            | Op::CmpBrIf { dest: d, .. }
            | Op::LocalConstCmpBrIf { dest: d, .. }
            | Op::LocalLocalCmpBrIf { dest: d, .. } => remap(&mut d.target),
            Op::BrTable(bt) => {
                for d in &mut bt.dests {
                    remap(&mut d.target);
                }
                remap(&mut bt.default.target);
            }
            _ => {}
        }
    }
    // Sized for the unfused stream; a translation lives as long as its
    // cache entry, so it keeps only what it uses.
    fused.shrink_to_fit();
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::types::ValType;
    use wasabi_wasm::validate::validate;

    /// Translate a built module, checking on every function that fusion's
    /// one pass is final and that the fused stream holds no spare capacity.
    fn translate(build: impl FnOnce(&mut ModuleBuilder)) -> ModuleCode {
        let mut builder = ModuleBuilder::new();
        build(&mut builder);
        let module = builder.finish();
        validate(&module).expect("validates");
        let code = translate_module_with(&module, TranslateOptions::default());
        for func in &code.funcs {
            assert_fusion_is_final(&func.ops);
            assert_eq!(func.ops.capacity(), func.ops.len(), "fused ops are shrunk");
        }
        code
    }

    /// Fusing a fused stream again changes nothing and folds no template.
    fn assert_fusion_is_final(ops: &[Op]) {
        let mut args = Vec::new();
        assert_eq!(fuse(ops, &mut args), ops);
        assert!(args.is_empty());
    }

    fn host_call(func: u32, stack_argc: u32, retc: u32, args_at: u32, args_len: u32) -> Op {
        Op::HostCall {
            func,
            stack_argc,
            retc,
            args_at,
            args_len,
        }
    }

    fn value(v: i32) -> ArgSrc {
        ArgSrc::Value(Val::I32(v))
    }

    fn br(target: u32) -> Op {
        let (keep, height) = (0, 0);
        Op::Br(BrDest {
            target,
            keep,
            height,
        })
    }

    const LOAD: Op = Op::Load {
        op: wasabi_wasm::LoadOp::F64Load,
        offset: 0,
    };

    /// Unfused `get_local 0; i32.const 12; i32.mul; get_local 1; i32.add;
    /// i32.const 8; i32.mul; f64.load`, then a branch to `target`.
    fn affine_chain_then_branch_to(target: u32) -> Vec<Op> {
        vec![
            Op::LocalGet(0),
            Op::Const(Val::I32(12)),
            Op::Binary(BinaryOp::I32Mul),
            Op::LocalGet(1),
            Op::Binary(BinaryOp::I32Add),
            Op::Const(Val::I32(8)),
            Op::Binary(BinaryOp::I32Mul),
            LOAD,
            br(target),
            Op::Return,
        ]
    }

    /// The [`Op::AffineAddr`] of [`affine_chain_then_branch_to`]'s chain.
    const AFFINE_ADDR: Op = Op::AffineAddr {
        a: 0,
        c1: 12,
        b: 1,
        c2: 8,
    };

    #[test]
    fn const_binop_fuses() {
        // A bare const+binop (operand already on the stack via a call).
        let code = translate(|b| {
            let g = b.function("g", &[], &[ValType::I32], |f| {
                f.i32_const(41);
            });
            b.function("f", &[], &[ValType::I32], |f| {
                f.call(g).i32_const(1).i32_add();
            });
        });
        assert_eq!(
            code.funcs[1].ops,
            vec![
                Op::Call {
                    callee: 0,
                    params: 0
                },
                Op::ConstBinary {
                    value: Val::I32(1),
                    op: BinaryOp::I32Add
                },
                Op::Return,
            ]
        );
    }

    #[test]
    fn local_const_binop_fuses_to_a_triple() {
        let code = translate(|b| {
            b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                f.get_local(0u32).i32_const(1).i32_add();
            });
        });
        assert_eq!(
            code.funcs[0].ops,
            vec![
                Op::LocalConstBinary {
                    a: 0,
                    value: Val::I32(1),
                    op: BinaryOp::I32Add
                },
                Op::Return,
            ]
        );
    }

    #[test]
    fn affine_address_chain_fuses_into_load() {
        // get_local a; const c1; mul; get_local b; add; const c2; mul; load
        // — eight instructions, one op.
        let code = translate(|b| {
            b.memory(1, None);
            b.function("f", &[ValType::I32, ValType::I32], &[ValType::F64], |f| {
                f.get_local(0u32).i32_const(12).i32_mul();
                f.get_local(1u32).i32_add();
                f.i32_const(8).i32_mul();
                f.load(wasabi_wasm::LoadOp::F64Load, 64);
            });
        });
        assert_eq!(
            code.funcs[0].ops,
            vec![
                Op::AffineLoad {
                    a: 0,
                    c1: 12,
                    b: 1,
                    c2: 8,
                    load: wasabi_wasm::LoadOp::F64Load,
                    offset: 64,
                },
                Op::Return,
            ]
        );
        assert_eq!(code.funcs[0].ops[0].weight(), 8);
    }

    #[test]
    fn affine_chain_fuses_in_one_pass() {
        // A branch onto the load keeps the chain apart from it.
        let ops = fuse(&affine_chain_then_branch_to(7), &mut Vec::new());
        assert_eq!(ops, vec![AFFINE_ADDR, LOAD, br(1), Op::Return]);
        assert_fusion_is_final(&ops);
        // A branch into the chain, at `get_local 1`, leaves the groups that
        // do not span it.
        let ops = fuse(&affine_chain_then_branch_to(3), &mut Vec::new());
        let (mul, add) = (BinaryOp::I32Mul, BinaryOp::I32Add);
        let expected = vec![
            Op::LocalConstBinary {
                a: 0,
                value: Val::I32(12),
                op: mul,
            },
            Op::LocalBinary { local: 1, op: add },
            Op::ConstBinary {
                value: Val::I32(8),
                op: mul,
            },
            LOAD,
            br(1),
            Op::Return,
        ];
        assert_eq!(ops, expected);
        assert_fusion_is_final(&ops);
    }

    #[test]
    fn affine_chain_sits_between_host_call_folds() {
        // A hook call before the chain, and one taking the chain's value
        // from the stack plus a folded constant after it.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32, ValType::I32], &[]);
            b.function("g", &[ValType::I32, ValType::I32], &[], |body| {
                body.i32_const(1).i32_const(2).call(f);
                body.get_local(0u32).i32_const(12).i32_mul();
                body.get_local(1u32).i32_add();
                body.i32_const(8).i32_mul();
                body.i32_const(9).call(f);
            });
        });
        let expected = vec![
            host_call(0, 0, 0, 0, 2),
            AFFINE_ADDR,
            host_call(0, 1, 0, 2, 1),
            Op::Return,
        ];
        assert_eq!(code.funcs[1].ops, expected);
        assert_eq!(code.args, vec![value(1), value(2), value(9)]);
    }

    #[test]
    fn local_local_binop_fuses() {
        let code = translate(|b| {
            b.function("f", &[ValType::I32; 2], &[ValType::I32], |f| {
                f.get_local(0u32).get_local(1u32).i32_mul();
            });
        });
        assert_eq!(
            code.funcs[0].ops,
            vec![
                Op::LocalLocalBinary {
                    a: 0,
                    b: 1,
                    op: BinaryOp::I32Mul
                },
                Op::Return,
            ]
        );
    }

    #[test]
    fn cmp_br_if_fuses_and_loop_targets_resolve() {
        let code = translate(|b| {
            b.function("f", &[ValType::I32], &[], |f| {
                f.block(None).loop_(None);
                f.get_local(0u32)
                    .i32_const(10)
                    .binary(BinaryOp::I32GeS)
                    .br_if(1);
                f.br(0).end().end();
            });
        });
        let ops = &code.funcs[0].ops;
        // The whole loop condition fuses: get_local; const; ge_s; br_if.
        assert!(ops.contains(&Op::LocalConstCmpBrIf {
            a: 0,
            value: Val::I32(10),
            op: BinaryOp::I32GeS,
            dest: BrDest {
                target: 6,
                keep: 0,
                height: 0
            },
        }));
        // The back-branch must target the op right after the loop marker.
        let loop_pc = 1u32;
        let back = ops
            .iter()
            .find_map(|op| match op {
                Op::Br(d) => Some(d.target),
                _ => None,
            })
            .expect("br present");
        assert_eq!(back, loop_pc + 1);
    }

    #[test]
    fn compare_br_if_fuses_without_const() {
        let code = translate(|b| {
            b.function("f", &[ValType::I32; 2], &[], |f| {
                f.block(None);
                f.get_local(0u32).get_local(1u32);
                f.binary(BinaryOp::I32LtS).br_if(0);
                f.end();
            });
        });
        let ops = &code.funcs[0].ops;
        // The local/local pair fuses into the triple with the comparison,
        // leaving br_if alone; with only one get_local the CmpBrIf form
        // would fire instead. Either way no bare Binary survives.
        assert!(ops.iter().all(|op| !matches!(op, Op::Binary(_))));
    }

    #[test]
    fn targets_after_a_fused_group_are_remapped() {
        // A fusion before a block shifts every later pc down by one; the
        // branch target into that region must be remapped accordingly.
        let code = translate(|b| {
            b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                f.get_local(0u32).i32_const(1).i32_add(); // fuses (pcs 0-2)
                f.block(None).br(0).end();
            });
        });
        let ops = &code.funcs[0].ops;
        // (get_local+const+add), block-Skip, br, end-Skip, Return
        assert_eq!(ops.len(), 5);
        let d = ops
            .iter()
            .find_map(|op| match op {
                Op::Br(d) => Some(*d),
                _ => None,
            })
            .expect("br present");
        assert_eq!(d.target, 4, "forward branch lands on the remapped end+1");
        assert_eq!(ops[4], Op::Return);
    }

    #[test]
    fn if_else_edges_and_weights() {
        let code = translate(|b| {
            b.function("abs", &[ValType::I32], &[ValType::I32], |f| {
                f.get_local(0u32).i32_const(0).binary(BinaryOp::I32LtS);
                f.if_(Some(ValType::I32));
                f.i32_const(0).get_local(0u32).i32_sub();
                f.else_();
                f.get_local(0u32);
                f.end();
            });
        });
        let ops = &code.funcs[0].ops;
        assert!(ops.iter().any(|op| matches!(op, Op::IfNot(_))));
        assert!(ops.iter().any(|op| matches!(op, Op::Goto(_))));
        let total_weight: u64 = ops.iter().map(Op::weight).sum();
        // Weights must add up to the original instruction count (the ten
        // explicit instructions plus the function body's own `end`).
        assert_eq!(total_weight, 11);
    }

    #[test]
    fn br_table_dests_are_resolved() {
        let code = translate(|b| {
            b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                f.block(None).block(None);
                f.get_local(0u32).br_table(vec![0], 1);
                f.end();
                f.i32_const(1).return_();
                f.end();
                f.i32_const(2);
            });
        });
        let ops = &code.funcs[0].ops;
        let bt = ops
            .iter()
            .find_map(|op| match op {
                Op::BrTable(bt) => Some(bt),
                _ => None,
            })
            .expect("br_table present");
        assert_eq!(bt.dests.len(), 1);
        assert_ne!(bt.dests[0].target, bt.default.target);
    }

    #[test]
    fn branch_to_function_frame_is_return_sentinel() {
        let code = translate(|b| {
            b.function("f", &[], &[ValType::I32], |f| {
                f.i32_const(7);
                f.br(0);
            });
        });
        let ops = &code.funcs[0].ops;
        let d = ops
            .iter()
            .find_map(|op| match op {
                Op::Br(d) => Some(*d),
                _ => None,
            })
            .expect("br present");
        assert_eq!(d.target, RETURN_TARGET);
        assert_eq!(d.keep, 1);
    }

    #[test]
    fn imported_call_becomes_host_call() {
        // The argument is a computed value, so it stays on the operand
        // stack and the call itself is a bare `HostCall`.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32], &[ValType::I32]);
            b.function("g", &[ValType::I32], &[ValType::I32], |body| {
                body.get_local(0u32).get_local(0u32).i32_add().call(f);
            });
        });
        assert_eq!(
            code.funcs[1].ops,
            vec![
                Op::LocalLocalBinary {
                    a: 0,
                    b: 0,
                    op: BinaryOp::I32Add
                },
                host_call(0, 1, 1, 0, 0),
                Op::Return,
            ]
        );
    }

    #[test]
    fn local_and_const_args_fold_into_a_template() {
        // The instrumenter's payload-marshalling shape: captured locals
        // plus immediates feeding an imported call — one op.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32, ValType::I32, ValType::I32], &[]);
            b.function("g", &[ValType::I32, ValType::I32], &[], |body| {
                body.get_local(0u32).i32_const(5).get_local(1u32).call(f);
            });
        });
        assert_eq!(
            code.funcs[1].ops,
            vec![host_call(0, 0, 0, 0, 3), Op::Return,]
        );
        assert_eq!(
            code.args,
            vec![ArgSrc::Local(0), value(5), ArgSrc::Local(1)]
        );
        assert_eq!(code.funcs[1].ops[0].weight(), 4);
    }

    #[test]
    fn const_args_fold_into_host_call_const() {
        // The instrumenter's hook-call shape: constants feeding an import.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32, ValType::I32], &[]);
            b.function("g", &[], &[], |body| {
                body.i32_const(3).i32_const(17).call(f);
            });
        });
        assert_eq!(
            code.funcs[1].ops,
            vec![host_call(0, 0, 0, 0, 2), Op::Return,]
        );
        assert_eq!(code.args, vec![value(3), value(17)]);
        // Weight = the two consts + the call.
        assert_eq!(code.funcs[1].ops[0].weight(), 3);
    }

    #[test]
    fn host_call_const_fold_is_capped_by_argc() {
        // Three consts, a 1-argument import: only the const adjacent to the
        // call is its argument; the two before it feed the caller's result.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32], &[]);
            b.function("g", &[], &[ValType::I32, ValType::I32], |body| {
                body.i32_const(1).i32_const(2).i32_const(99).call(f);
            });
        });
        assert_eq!(
            code.funcs[1].ops,
            vec![
                Op::Const(Val::I32(1)),
                Op::Const(Val::I32(2)),
                host_call(0, 0, 0, 0, 1),
                Op::Return,
            ]
        );
        assert_eq!(code.args, vec![value(99)]);
    }

    #[test]
    fn mixed_stack_and_const_args() {
        // First argument is computed (stays on the stack), second is a
        // constant (folds into the template).
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32, ValType::I32], &[ValType::I32]);
            b.function("g", &[ValType::I32], &[ValType::I32], |body| {
                body.get_local(0u32)
                    .get_local(0u32)
                    .i32_mul()
                    .i32_const(5)
                    .call(f);
            });
        });
        assert_eq!(
            code.funcs[1].ops,
            vec![
                Op::LocalLocalBinary {
                    a: 0,
                    b: 0,
                    op: BinaryOp::I32Mul
                },
                host_call(0, 1, 1, 0, 1),
                Op::Return,
            ]
        );
        assert_eq!(code.args, vec![value(5)]);
    }

    #[test]
    fn identical_const_runs_dedupe_in_the_pool() {
        // Runs are deduplicated only at the join, so a repeat inside one
        // function and a repeat in another must share a slice alike.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32, ValType::I32], &[]);
            b.function("g", &[ValType::I32], &[], |body| {
                body.i32_const(7).i32_const(9).call(f);
                body.i32_const(7).i32_const(9).call(f);
                body.i32_const(8).i32_const(9).call(f);
                body.get_local(0u32).i32_const(5).call(f);
            });
            b.function("h", &[ValType::I32], &[], |body| {
                body.get_local(0u32).i32_const(5).call(f);
                body.i32_const(7).i32_const(9).call(f);
            });
        });
        // Each distinct template is stored once, all-constant or not.
        let templates = [value(7), value(9), value(8), value(9)];
        assert_eq!(code.args[..4], templates);
        assert_eq!(code.args[4..], [ArgSrc::Local(0), value(5)]);
        let slices = |func: usize| -> Vec<u32> {
            code.funcs[func]
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::HostCall { args_at, .. } => Some(*args_at),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(slices(1), vec![0, 0, 2, 4]);
        assert_eq!(slices(2), vec![4, 0]);
    }

    #[test]
    fn intrinsics_can_be_disabled() {
        let mut builder = ModuleBuilder::new();
        let f = builder.import_function("env", "f", &[ValType::I32], &[]);
        builder.function("g", &[], &[], |body| {
            body.i32_const(1).call(f);
        });
        let module = builder.finish();
        validate(&module).expect("validates");
        let code = translate_module_with(
            &module,
            TranslateOptions {
                host_call_intrinsics: false,
            },
        );
        assert_eq!(
            code.funcs[1].ops,
            vec![
                Op::Const(Val::I32(1)),
                Op::Call {
                    callee: 0,
                    params: 1
                },
                Op::Return,
            ]
        );
        assert!(code.args.is_empty());
    }

    #[test]
    fn loop_head_on_const_run_still_folds() {
        // The back-branch of the loop lands on the head of the const run —
        // control entering a group at its head is legal, so the fold fires
        // and the branch target remaps onto the fused op.
        let code = translate(|b| {
            let f = b.import_function("env", "f", &[ValType::I32, ValType::I32], &[]);
            b.function("g", &[ValType::I32], &[], |body| {
                body.loop_(None);
                body.i32_const(1).i32_const(2).call(f);
                body.get_local(0u32).br_if(0);
                body.end();
            });
        });
        let ops = &code.funcs[1].ops;
        assert!(ops
            .iter()
            .any(|op| matches!(op, Op::HostCall { args_len: 2, .. })));
        let back = ops
            .iter()
            .find_map(|op| match op {
                Op::BrIf(d) => Some(d.target),
                _ => None,
            })
            .expect("br_if present");
        // loop marker is op 1 (after the implicit... function starts at 0:
        // Skip for `loop`), the fused call is the op right after it.
        assert_eq!(
            ops[back as usize - 1],
            Op::Skip,
            "target follows the loop marker"
        );
        assert!(matches!(
            ops[back as usize],
            Op::HostCall { args_len: 2, .. }
        ));
    }

    #[test]
    fn imported_functions_translate_empty() {
        let code = translate(|b| {
            b.import_function("env", "f", &[], &[]);
            b.function("g", &[], &[], |_| {});
        });
        assert!(code.funcs[0].ops.is_empty());
        assert_eq!(code.funcs[1].ops, vec![Op::Return]);
    }

    #[test]
    fn call_indirect_signatures_dedupe() {
        let code = translate(|b| {
            let f = b.function("f", &[ValType::I32], &[ValType::I32], |f| {
                f.get_local(0u32);
            });
            b.table(1);
            b.elements(0, vec![f]);
            b.function("g", &[], &[ValType::I32], |f| {
                f.i32_const(1).i32_const(0);
                f.call_indirect(&[ValType::I32], &[ValType::I32]);
                f.drop_().i32_const(2).i32_const(0);
                f.call_indirect(&[ValType::I32], &[ValType::I32]);
            });
        });
        assert_eq!(code.sigs.len(), 1);
    }
}
