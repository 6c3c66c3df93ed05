//! Property-based faithfulness tests (paper RQ2): for *random* well-typed
//! programs and *random* hook sets, the instrumented program must
//!
//! 1. still validate,
//! 2. produce the same results (or the same trap),
//! 3. leave the same final memory and globals
//!
//! as the original program.
//!
//! Programs are generated from stack-neutral statement templates, so they
//! are well-typed and terminating by construction while covering all hook
//! kinds (consts, numeric ops, memory, locals/globals, blocks, loops,
//! branches, br_table, calls, indirect calls, select, drop, return).

use std::collections::BTreeMap;

use proptest::prelude::*;

use wasabi::event::{
    AnalysisCtx, BinaryEvt, BlockEvt, BranchEvt, BranchTableEvt, CallEvt, CallPostEvt, EndEvt,
    GlobalEvt, IfEvt, LoadEvt, LocalEvt, MemGrowEvt, MemSizeEvt, ReturnEvt, SelectEvt, StoreEvt,
    UnaryEvt, ValEvt,
};
use wasabi::hooks::{Analysis, Hook, HookSet, NoAnalysis};
use wasabi::report::{JsonValue, Report};
use wasabi::{instrument, AnalysisSession, Instrumenter, Wasabi, WasabiHost};
use wasabi_vm::{EmptyHost, Instance, Trap};
use wasabi_wasm::builder::{FunctionBuilder, ModuleBuilder};
use wasabi_wasm::instr::{BinaryOp, Instr, UnaryOp, Val};
use wasabi_wasm::types::ValType;
use wasabi_wasm::validate::validate;

/// A stack-neutral statement of the generated program.
#[derive(Debug, Clone)]
enum Stmt {
    ConstDrop(Val),
    BinaryDrop(BinaryOp, Val, Val),
    UnaryDrop(UnaryOp, Val),
    /// `mem[addr] = v` (i64 store, exercising the i64 split path).
    StoreI64 {
        addr: u16,
        value: i64,
    },
    LoadF64Drop {
        addr: u16,
    },
    SetLocal(u8, i32),
    TeeDrop(u8, i32),
    GlobalRoundtrip,
    SelectDrop {
        cond: i32,
        first: f32,
        second: f32,
    },
    MemorySizeDrop,
    IfElse {
        cond: i32,
        then: Vec<Stmt>,
        else_: Vec<Stmt>,
    },
    BlockBrIf {
        cond: i32,
        body: Vec<Stmt>,
    },
    CountedLoop {
        iterations: u8,
        body: Vec<Stmt>,
    },
    BrTable {
        selector: u8,
        arms: Vec<Stmt>,
    },
    Call {
        callee_offset: u8,
        arg: i32,
    },
    CallIndirect {
        slot: u8,
    },
    EarlyReturnIf {
        cond: i32,
    },
    Nop,
}

fn arb_val() -> impl Strategy<Value = Val> {
    prop_oneof![
        any::<i32>().prop_map(Val::I32),
        any::<i64>().prop_map(Val::I64),
        (-1000.0f32..1000.0).prop_map(Val::F32),
        (-1000.0f64..1000.0).prop_map(Val::F64),
    ]
}

/// Binary op plus operands that never trap.
fn arb_binary() -> impl Strategy<Value = (BinaryOp, Val, Val)> {
    let safe_i32 = prop_oneof![proptest::sample::select(vec![
        BinaryOp::I32Add,
        BinaryOp::I32Sub,
        BinaryOp::I32Mul,
        BinaryOp::I32And,
        BinaryOp::I32Or,
        BinaryOp::I32Xor,
        BinaryOp::I32Shl,
        BinaryOp::I32ShrS,
        BinaryOp::I32ShrU,
        BinaryOp::I32Rotl,
        BinaryOp::I32Rotr,
        BinaryOp::I32Eq,
        BinaryOp::I32LtS,
        BinaryOp::I32GtU,
    ])];
    let divisions_i32 = proptest::sample::select(vec![
        BinaryOp::I32DivS,
        BinaryOp::I32DivU,
        BinaryOp::I32RemS,
        BinaryOp::I32RemU,
    ]);
    let safe_i64 = proptest::sample::select(vec![
        BinaryOp::I64Add,
        BinaryOp::I64Mul,
        BinaryOp::I64Xor,
        BinaryOp::I64ShrU,
        BinaryOp::I64LtS,
        BinaryOp::I64Rotl,
    ]);
    let floats = proptest::sample::select(vec![
        BinaryOp::F32Add,
        BinaryOp::F32Mul,
        BinaryOp::F32Min,
        BinaryOp::F64Add,
        BinaryOp::F64Div,
        BinaryOp::F64Max,
        BinaryOp::F64Copysign,
        BinaryOp::F64Lt,
    ]);
    prop_oneof![
        (safe_i32, any::<i32>(), any::<i32>()).prop_map(|(op, a, b)| (
            op,
            Val::I32(a),
            Val::I32(b)
        )),
        (divisions_i32, any::<i32>(), 1i32..1000).prop_map(|(op, a, b)| (
            op,
            Val::I32(a),
            Val::I32(b)
        )),
        (safe_i64, any::<i64>(), any::<i64>()).prop_map(|(op, a, b)| (
            op,
            Val::I64(a),
            Val::I64(b)
        )),
        (floats, -100.0f64..100.0, -100.0f64..100.0).prop_map(|(op, a, b)| {
            if op.input() == ValType::F32 {
                (op, Val::F32(a as f32), Val::F32(b as f32))
            } else {
                (op, Val::F64(a), Val::F64(b))
            }
        }),
    ]
}

/// Unary op plus an operand that never traps (trunc inputs are bounded).
fn arb_unary() -> impl Strategy<Value = (UnaryOp, Val)> {
    prop_oneof![
        (
            proptest::sample::select(vec![
                UnaryOp::I32Eqz,
                UnaryOp::I32Clz,
                UnaryOp::I32Ctz,
                UnaryOp::I32Popcnt,
                UnaryOp::I64ExtendSI32,
                UnaryOp::F64ConvertSI32,
                UnaryOp::F32ReinterpretI32,
            ]),
            any::<i32>()
        )
            .prop_map(|(op, v)| (op, Val::I32(v))),
        (
            proptest::sample::select(vec![
                UnaryOp::I64Eqz,
                UnaryOp::I64Clz,
                UnaryOp::I32WrapI64,
                UnaryOp::F64ConvertSI64,
                UnaryOp::F64ReinterpretI64,
            ]),
            any::<i64>()
        )
            .prop_map(|(op, v)| (op, Val::I64(v))),
        (
            proptest::sample::select(vec![
                UnaryOp::F64Abs,
                UnaryOp::F64Neg,
                UnaryOp::F64Sqrt,
                UnaryOp::F64Nearest,
                UnaryOp::I32TruncSF64,
                UnaryOp::I64TruncSF64,
                UnaryOp::F32DemoteF64,
            ]),
            -1000.0f64..1000.0
        )
            .prop_map(|(op, v)| (op, Val::F64(v))),
    ]
}

/// How deep compound statements nest, so also how many `CountedLoop`s can
/// enclose one another: each nesting depth gets a loop counter of its own.
const NESTING: u32 = 3;

/// The loop counter of the outermost `CountedLoop`; a loop nested `d`
/// loops deep counts in local `LOOP_COUNTER + d`.
const LOOP_COUNTER: u32 = 5;

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        arb_val().prop_map(Stmt::ConstDrop),
        arb_binary().prop_map(|(op, a, b)| Stmt::BinaryDrop(op, a, b)),
        arb_unary().prop_map(|(op, v)| Stmt::UnaryDrop(op, v)),
        (0u16..8000, any::<i64>()).prop_map(|(addr, value)| Stmt::StoreI64 { addr, value }),
        (0u16..8000).prop_map(|addr| Stmt::LoadF64Drop { addr }),
        (0u8..4, any::<i32>()).prop_map(|(l, v)| Stmt::SetLocal(l, v)),
        (0u8..4, any::<i32>()).prop_map(|(l, v)| Stmt::TeeDrop(l, v)),
        Just(Stmt::GlobalRoundtrip),
        (any::<i32>(), any::<f32>(), any::<f32>()).prop_map(|(cond, first, second)| {
            Stmt::SelectDrop {
                cond,
                first,
                second,
            }
        }),
        Just(Stmt::MemorySizeDrop),
        (0u8..4, any::<i32>()).prop_map(|(c, a)| Stmt::Call {
            callee_offset: c,
            arg: a
        }),
        (0u8..4).prop_map(|slot| Stmt::CallIndirect { slot }),
        (0i32..2).prop_map(|cond| Stmt::EarlyReturnIf { cond }),
        Just(Stmt::Nop),
    ];
    leaf.prop_recursive(NESTING, 24, 4, |inner| {
        prop_oneof![
            (
                0i32..2,
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(cond, then, else_)| Stmt::IfElse { cond, then, else_ }),
            (0i32..2, prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(cond, body)| Stmt::BlockBrIf { cond, body }),
            (1u8..4, prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(iterations, body)| Stmt::CountedLoop { iterations, body }),
            (0u8..6, prop::collection::vec(inner, 1..4))
                .prop_map(|(selector, arms)| Stmt::BrTable { selector, arms }),
        ]
    })
}

/// Compile a statement into the function builder. `func_count` is the
/// number of already-defined callable helper functions; `loops` is the
/// number of `CountedLoop`s enclosing the statement.
fn emit(f: &mut FunctionBuilder, stmt: &Stmt, func_count: u32, loops: u32) {
    match stmt {
        Stmt::ConstDrop(v) => {
            f.instr(Instr::Const(*v)).drop_();
        }
        Stmt::BinaryDrop(op, a, b) => {
            f.instr(Instr::Const(*a))
                .instr(Instr::Const(*b))
                .binary(*op)
                .drop_();
        }
        Stmt::UnaryDrop(op, v) => {
            f.instr(Instr::Const(*v)).unary(*op).drop_();
        }
        Stmt::StoreI64 { addr, value } => {
            f.i32_const(i32::from(*addr))
                .i64_const(*value)
                .store(wasabi_wasm::StoreOp::I64Store, 0);
        }
        Stmt::LoadF64Drop { addr } => {
            f.i32_const(i32::from(*addr))
                .load(wasabi_wasm::LoadOp::F64Load, 0)
                .drop_();
        }
        Stmt::SetLocal(l, v) => {
            f.i32_const(*v).set_local(u32::from(*l) + 1);
        }
        Stmt::TeeDrop(l, v) => {
            f.i32_const(*v).tee_local(u32::from(*l) + 1).drop_();
        }
        Stmt::GlobalRoundtrip => {
            f.get_global(0u32).i32_const(13).i32_add().set_global(0u32);
        }
        Stmt::SelectDrop {
            cond,
            first,
            second,
        } => {
            f.f32_const(*first)
                .f32_const(*second)
                .i32_const(*cond)
                .select()
                .drop_();
        }
        Stmt::MemorySizeDrop => {
            f.memory_size().drop_();
        }
        Stmt::IfElse { cond, then, else_ } => {
            f.i32_const(*cond).if_(None);
            for s in then {
                emit(f, s, func_count, loops);
            }
            f.else_();
            for s in else_ {
                emit(f, s, func_count, loops);
            }
            f.end();
        }
        Stmt::BlockBrIf { cond, body } => {
            f.block(None).i32_const(*cond).br_if(0);
            for s in body {
                emit(f, s, func_count, loops);
            }
            f.end();
        }
        Stmt::CountedLoop { iterations, body } => {
            // Each nesting depth counts in a local of its own: an inner
            // loop that shared its outer loop's counter would reset it on
            // every outer iteration, and a lower inner bound would then
            // keep the outer loop from ever reaching its own.
            let counter = LOOP_COUNTER + loops;
            f.i32_const(0).set_local(counter);
            f.block(None).loop_(None);
            f.get_local(counter)
                .i32_const(i32::from(*iterations))
                .binary(BinaryOp::I32GeS)
                .br_if(1);
            f.get_local(counter)
                .i32_const(1)
                .i32_add()
                .set_local(counter);
            for s in body {
                emit(f, s, func_count, loops + 1);
            }
            f.br(0).end().end();
        }
        Stmt::BrTable { selector, arms } => {
            // n nested blocks, br_table over them; each arm then falls
            // through the remaining blocks.
            let n = arms.len() as u32;
            for _ in 0..=n {
                f.block(None);
            }
            f.i32_const(i32::from(*selector));
            f.br_table((0..n).collect(), n);
            f.end();
            for (i, arm) in arms.iter().enumerate() {
                emit(f, arm, func_count, loops);
                let _ = i;
                f.end();
            }
        }
        Stmt::Call { callee_offset, arg } => {
            if func_count > 0 {
                let callee = u32::from(*callee_offset) % func_count;
                f.i32_const(*arg)
                    .call(wasabi_wasm::Idx::from(callee))
                    .drop_();
            }
        }
        Stmt::CallIndirect { slot } => {
            if func_count > 0 {
                let slot = u32::from(*slot) % func_count;
                f.i32_const(7).i32_const(slot as i32);
                f.call_indirect(&[ValType::I32], &[ValType::I32]);
                f.drop_();
            }
        }
        Stmt::EarlyReturnIf { cond } => {
            // All generated functions return one i32.
            f.i32_const(*cond).if_(None).i32_const(99).return_().end();
        }
        Stmt::Nop => {
            f.nop();
        }
    }
}

/// Build a complete module: `helpers` callable functions plus `main`.
fn build_module(functions: &[Vec<Stmt>]) -> wasabi_wasm::Module {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    builder.global(Val::I32(0));

    let mut defined: Vec<wasabi_wasm::Idx<wasabi_wasm::FunctionSpace>> = Vec::new();
    for (i, stmts) in functions.iter().enumerate() {
        let callable = defined.len() as u32;
        let idx = builder.function(
            &format!("helper{i}"),
            &[ValType::I32],
            &[ValType::I32],
            |f| {
                // locals 1..=4 are scratch, the rest loop counters.
                for _ in 0..4 + NESTING {
                    f.local(ValType::I32);
                }
                for stmt in stmts {
                    emit(f, stmt, callable, 0);
                }
                f.get_local(0u32).get_global(0u32).i32_add();
            },
        );
        defined.push(idx);
    }
    if !defined.is_empty() {
        builder.table(defined.len() as u32);
        builder.elements(0, defined.clone());
    }
    let callable = defined.len() as u32;
    builder.function("main", &[], &[ValType::I32], |f| {
        // One more local than the helpers: no parameter occupies index 0,
        // so the scratch locals 1..=4 and the loop counters still line up.
        for _ in 0..5 + NESTING {
            f.local(ValType::I32);
        }
        if let Some(last) = functions.last() {
            for stmt in last {
                emit(f, stmt, callable, 0);
            }
        }
        f.get_global(0u32);
    });
    builder.finish()
}

/// Run a module and capture (result-or-trap, memory checksum, globals).
type Snapshot = (Result<Vec<Val>, Trap>, u64, Vec<Val>);

fn run_original(module: &wasabi_wasm::Module) -> Snapshot {
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(module.clone(), &mut host).expect("valid module");
    instance.set_fuel(Some(5_000_000));
    let result = instance.invoke_export("main", &[], &mut host);
    (
        result,
        instance.memory().map(|m| m.checksum()).unwrap_or(0),
        instance.globals().to_vec(),
    )
}

fn run_instrumented(session: &AnalysisSession) -> Snapshot {
    let mut analysis = NoAnalysis;
    let mut host = WasabiHost::new(session.info(), &mut analysis);
    let mut instance =
        Instance::instantiate(session.module().clone(), &mut host).expect("instantiates");
    instance.set_fuel(Some(500_000_000));
    let result = instance.invoke_export("main", &[], &mut host);
    (
        result,
        instance.memory().map(|m| m.checksum()).unwrap_or(0),
        instance.globals().to_vec(),
    )
}

fn arb_hookset() -> impl Strategy<Value = HookSet> {
    prop::collection::vec(proptest::sample::select(&Hook::ALL[..]), 0..8)
        .prop_map(|hooks| hooks.into_iter().collect())
}

/// Counts every dispatched high-level hook event by name. Its report is a
/// complete behavioural fingerprint of a run: two builds that differ in
/// any op the analysis can observe produce different reports.
struct EventCounter {
    hooks: HookSet,
    counts: BTreeMap<&'static str, u64>,
}

impl EventCounter {
    fn new(hooks: HookSet) -> Self {
        EventCounter {
            hooks,
            counts: BTreeMap::new(),
        }
    }

    fn bump(&mut self, name: &'static str) {
        *self.counts.entry(name).or_insert(0) += 1;
    }
}

impl Analysis for EventCounter {
    fn name(&self) -> &str {
        "event_counter"
    }

    fn hooks(&self) -> HookSet {
        self.hooks
    }

    fn report(&self) -> Report {
        Report::new(
            "event_counter",
            JsonValue::object(self.counts.iter().map(|(k, v)| (*k, JsonValue::from(*v)))),
        )
    }

    fn start(&mut self, _: &AnalysisCtx) {
        self.bump("start");
    }
    fn nop(&mut self, _: &AnalysisCtx) {
        self.bump("nop");
    }
    fn unreachable(&mut self, _: &AnalysisCtx) {
        self.bump("unreachable");
    }
    fn if_(&mut self, _: &AnalysisCtx, _: &IfEvt) {
        self.bump("if");
    }
    fn br(&mut self, _: &AnalysisCtx, _: &BranchEvt) {
        self.bump("br");
    }
    fn br_if(&mut self, _: &AnalysisCtx, _: &BranchEvt) {
        self.bump("br_if");
    }
    fn br_table(&mut self, _: &AnalysisCtx, _: &BranchTableEvt<'_>) {
        self.bump("br_table");
    }
    fn begin(&mut self, _: &AnalysisCtx, _: &BlockEvt) {
        self.bump("begin");
    }
    fn end(&mut self, _: &AnalysisCtx, _: &EndEvt) {
        self.bump("end");
    }
    fn memory_size(&mut self, _: &AnalysisCtx, _: &MemSizeEvt) {
        self.bump("memory_size");
    }
    fn memory_grow(&mut self, _: &AnalysisCtx, _: &MemGrowEvt) {
        self.bump("memory_grow");
    }
    fn const_(&mut self, _: &AnalysisCtx, _: &ValEvt) {
        self.bump("const");
    }
    fn drop_(&mut self, _: &AnalysisCtx, _: &ValEvt) {
        self.bump("drop");
    }
    fn select(&mut self, _: &AnalysisCtx, _: &SelectEvt) {
        self.bump("select");
    }
    fn unary(&mut self, _: &AnalysisCtx, _: &UnaryEvt) {
        self.bump("unary");
    }
    fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) {
        self.bump("binary");
    }
    fn load(&mut self, _: &AnalysisCtx, _: &LoadEvt) {
        self.bump("load");
    }
    fn store(&mut self, _: &AnalysisCtx, _: &StoreEvt) {
        self.bump("store");
    }
    fn local(&mut self, _: &AnalysisCtx, _: &LocalEvt) {
        self.bump("local");
    }
    fn global(&mut self, _: &AnalysisCtx, _: &GlobalEvt) {
        self.bump("global");
    }
    fn return_(&mut self, _: &AnalysisCtx, _: &ReturnEvt<'_>) {
        self.bump("return");
    }
    fn call_pre(&mut self, _: &AnalysisCtx, _: &CallEvt<'_>) {
        self.bump("call_pre");
    }
    fn call_post(&mut self, _: &AnalysisCtx, _: &CallPostEvt<'_>) {
        self.bump("call_post");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::env_cases(12),
        failure_persistence: None,
        .. ProptestConfig::default()
    })]

    #[test]
    fn instrumentation_is_faithful(
        functions in prop::collection::vec(prop::collection::vec(arb_stmt(), 0..6), 1..4),
        hooks in arb_hookset(),
    ) {
        let module = build_module(&functions);
        validate(&module).expect("generated module is valid");

        let original = run_original(&module);

        // Property 1: instrumented module validates — for the random subset
        // AND for full instrumentation.
        for set in [hooks, HookSet::all()] {
            let (instrumented, _) = instrument(&module, set).expect("instruments");
            validate(&instrumented).expect("instrumented module validates (RQ2)");

            // Property 2+3: same behaviour, memory, and globals. The
            // instrumented module keeps its *original* globals at the same
            // indices, so global values are directly comparable.
            let session = AnalysisSession::new(&module, set).expect("instruments");
            let instrumented_run = run_instrumented(&session);
            prop_assert_eq!(&original.0, &instrumented_run.0, "hooks: {}", set);
            prop_assert_eq!(original.1, instrumented_run.1, "memory diverged, hooks: {}", set);
            prop_assert_eq!(&original.2, &instrumented_run.2, "globals diverged, hooks: {}", set);
        }
    }

    #[test]
    fn parallel_fused_build_is_bit_identical(
        functions in prop::collection::vec(prop::collection::vec(arb_stmt(), 0..6), 1..4),
        hooks in arb_hookset(),
        threads in 2usize..9,
    ) {
        // Paper §3 at scale: fanning the fused instrument+translate build
        // out over worker threads is a pure performance knob — the
        // translated code, the static info, and the reports of a run over
        // it must be indistinguishable from the single-threaded build.
        let module = build_module(&functions);

        let (base, base_info) = Instrumenter::new(hooks)
            .threads(1)
            .run_direct(module.clone())
            .expect("single-threaded build");
        let (par, par_info) = Instrumenter::new(hooks)
            .threads(threads)
            .run_direct(module.clone())
            .expect("parallel build");
        prop_assert_eq!(
            base.code_debug(), par.code_debug(),
            "ops diverged at {} thread(s), hooks: {}", threads, hooks
        );
        prop_assert_eq!(
            base.encode_code(), par.encode_code(),
            "encoded code diverged at {} thread(s), hooks: {}", threads, hooks
        );
        prop_assert_eq!(
            &base_info, &par_info,
            "static info diverged at {} thread(s), hooks: {}", threads, hooks
        );

        // And a full run over each build tells the analysis the same story.
        let fingerprint = |n: usize| {
            let mut counter = EventCounter::new(hooks);
            let mut pipeline = Wasabi::builder()
                .analysis(&mut counter)
                .threads(n)
                .build(&module)
                .expect("pipeline builds");
            let outcome = match pipeline.run("main", &[]) {
                Ok(values) => format!("{values:?}"),
                Err(e) => format!("error: {e}"),
            };
            let reports: Vec<String> =
                pipeline.reports().iter().map(Report::to_json).collect();
            (outcome, reports)
        };
        prop_assert_eq!(fingerprint(1), fingerprint(threads));
    }

    #[test]
    fn code_size_grows_monotonically_with_hooks(
        functions in prop::collection::vec(prop::collection::vec(arb_stmt(), 1..6), 1..3),
        hooks in arb_hookset(),
    ) {
        // Selective instrumentation (paper §2.4.2): fewer hooks never
        // produce a larger binary than full instrumentation.
        let module = build_module(&functions);
        let bytes = |set: HookSet| {
            let (m, _) = instrument(&module, set).expect("instruments");
            wasabi_wasm::encode::encode(&m).len()
        };
        let none = bytes(HookSet::empty());
        let some = bytes(hooks);
        let all = bytes(HookSet::all());
        prop_assert!(none <= some, "empty {none} > subset {some}");
        prop_assert!(some <= all, "subset {some} > all {all}");
    }
}
