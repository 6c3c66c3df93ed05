//! Differential property tests: the **flat pre-translated IR** (the
//! production `Instance` path, with superinstruction fusion) must be
//! observationally identical to the **structured-walk** seed semantics
//! (`wasabi_vm::Reference`) on random modules:
//!
//! - same results (or the same trap),
//! - same final linear memory and globals,
//! - same `executed_instrs` count (superinstructions count as the
//!   instructions they were fused from; on fuel traps, as the instructions
//!   the fuel paid for plus the one that trapped).
//!
//! Programs are generated from stack-neutral statement templates covering
//! every control construct the translator resolves (blocks, loops, if/else,
//! `br_table`, early returns, direct and indirect calls), plus targeted
//! edge cases: `br_table` corner entries, recursion at exactly
//! `DEFAULT_MAX_CALL_DEPTH`, superinstruction boundary patterns,
//! fuel-trap equality, and invoking an imported function directly.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use wasabi_vm::host::{EmptyHost, HostFunctions};
use wasabi_vm::{
    CohortRunner, Instance, Reference, TranslatedModule, Trap, DEFAULT_COHORT_CHUNK,
    DEFAULT_MAX_CALL_DEPTH,
};
use wasabi_wasm::builder::{FunctionBuilder, ModuleBuilder};
use wasabi_wasm::instr::{BinaryOp, Instr, Val};
use wasabi_wasm::types::ValType;
use wasabi_wasm::Module;

/// A stack-neutral statement of the generated program.
#[derive(Debug, Clone)]
enum Stmt {
    ConstDrop(Val),
    /// `a op b` dropped; operands chosen so only div/rem can trap, and the
    /// divisor is never zero.
    BinaryDrop(BinaryOp, i32, i32),
    /// `local[1+l] = local[1+l] op v` — feeds the local/const fusion rules.
    LocalConstStep(u8, BinaryOp, i32),
    /// `local[1+l] = local[1+l] div/rem v` with a divisor that is
    /// *sometimes zero*: the shape of the quad fusion rule with a trapping
    /// member, which must stay unfused (a trap may only be the last member
    /// of a group).
    LocalConstDivStep(u8, BinaryOp, i32),
    /// Affine chain + load with **no** bounds wrap: the address is usually
    /// in range but can go far out of bounds (negative indices from helper
    /// arguments), so the fused `AffineLoad` trap path is exercised.
    RawAffineLoadDrop {
        c1: u8,
        c2: u8,
    },
    /// `mem[(a*c1 + b)*c2 + off]` round-trip through the affine chain.
    AffineStore {
        c1: u8,
        c2: u8,
        value: i64,
    },
    AffineLoadDrop {
        c1: u8,
        c2: u8,
    },
    SetLocal(u8, i32),
    TeeDrop(u8, i32),
    GlobalStep(i32),
    SelectDrop {
        cond: i32,
        first: f64,
        second: f64,
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
    Unary(i32),
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

fn arb_i32_op() -> impl Strategy<Value = BinaryOp> {
    proptest::sample::select(vec![
        BinaryOp::I32Add,
        BinaryOp::I32Sub,
        BinaryOp::I32Mul,
        BinaryOp::I32And,
        BinaryOp::I32Or,
        BinaryOp::I32Xor,
        BinaryOp::I32Shl,
        BinaryOp::I32ShrS,
        BinaryOp::I32Rotl,
        BinaryOp::I32Eq,
        BinaryOp::I32LtS,
        BinaryOp::I32GtU,
    ])
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        arb_val().prop_map(Stmt::ConstDrop),
        (arb_i32_op(), any::<i32>(), any::<i32>())
            .prop_map(|(op, a, b)| Stmt::BinaryDrop(op, a, b)),
        (
            proptest::sample::select(vec![
                BinaryOp::I32DivS,
                BinaryOp::I32DivU,
                BinaryOp::I32RemS,
                BinaryOp::I32RemU
            ]),
            any::<i32>(),
            1i32..1000
        )
            .prop_map(|(op, a, b)| Stmt::BinaryDrop(op, a, b)),
        (0u8..4, arb_i32_op(), any::<i32>()).prop_map(|(l, op, v)| Stmt::LocalConstStep(l, op, v)),
        (
            0u8..4,
            proptest::sample::select(vec![
                BinaryOp::I32DivS,
                BinaryOp::I32DivU,
                BinaryOp::I32RemS,
                BinaryOp::I32RemU
            ]),
            0i32..50
        )
            .prop_map(|(l, op, v)| Stmt::LocalConstDivStep(l, op, v)),
        (1u8..32, 1u8..9).prop_map(|(c1, c2)| Stmt::RawAffineLoadDrop { c1, c2 }),
        (1u8..32, 1u8..9, any::<i64>()).prop_map(|(c1, c2, value)| Stmt::AffineStore {
            c1,
            c2,
            value
        }),
        (1u8..32, 1u8..9).prop_map(|(c1, c2)| Stmt::AffineLoadDrop { c1, c2 }),
        (0u8..4, any::<i32>()).prop_map(|(l, v)| Stmt::SetLocal(l, v)),
        (0u8..4, any::<i32>()).prop_map(|(l, v)| Stmt::TeeDrop(l, v)),
        any::<i32>().prop_map(Stmt::GlobalStep),
        (any::<i32>(), -100.0f64..100.0, -100.0f64..100.0).prop_map(|(cond, first, second)| {
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
        any::<i32>().prop_map(Stmt::Unary),
        Just(Stmt::Nop),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
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
/// number of already-defined callable helper functions. Locals 1..=4 are
/// scratch, local 5 the loop counter, locals 6 and 7 affine indices.
fn emit(f: &mut FunctionBuilder, stmt: &Stmt, func_count: u32) {
    match stmt {
        Stmt::ConstDrop(v) => {
            f.instr(Instr::Const(*v)).drop_();
        }
        Stmt::BinaryDrop(op, a, b) => {
            f.i32_const(*a).i32_const(*b).binary(*op).drop_();
        }
        Stmt::LocalConstStep(l, op, v) => {
            // get_local; const; binop; set_local — the quad-fusion shape.
            let l = u32::from(*l) + 1;
            f.get_local(l).i32_const(*v).binary(*op);
            // Comparisons leave an i32 either way; all chosen ops do.
            f.set_local(l);
        }
        Stmt::LocalConstDivStep(l, op, v) => {
            // Same shape, trap-capable op (divisor may be zero).
            let l = u32::from(*l) + 1;
            f.get_local(l).i32_const(*v).binary(*op).set_local(l);
        }
        Stmt::RawAffineLoadDrop { c1, c2 } => {
            // No rem_u wrap: traps out of bounds when the indices are
            // negative or large.
            f.get_local(6u32)
                .i32_const(i32::from(*c1))
                .i32_mul()
                .get_local(7u32)
                .i32_add()
                .i32_const(i32::from(*c2))
                .i32_mul();
            f.load(wasabi_wasm::LoadOp::I64Load, 0).drop_();
        }
        Stmt::AffineStore { c1, c2, value } => {
            // locals 6/7 as indices: (l6*c1 + l7)*c2, wrapped into 8 KiB.
            f.get_local(6u32)
                .i32_const(i32::from(*c1))
                .i32_mul()
                .get_local(7u32)
                .i32_add()
                .i32_const(i32::from(*c2))
                .i32_mul()
                .i32_const(8175)
                .binary(BinaryOp::I32RemU);
            f.i64_const(*value).store(wasabi_wasm::StoreOp::I64Store, 0);
        }
        Stmt::AffineLoadDrop { c1, c2 } => {
            f.get_local(6u32)
                .i32_const(i32::from(*c1))
                .i32_mul()
                .get_local(7u32)
                .i32_add()
                .i32_const(i32::from(*c2))
                .i32_mul()
                .i32_const(8175)
                .binary(BinaryOp::I32RemU);
            f.load(wasabi_wasm::LoadOp::I64Load, 0).drop_();
        }
        Stmt::SetLocal(l, v) => {
            f.i32_const(*v).set_local(u32::from(*l) + 1);
        }
        Stmt::TeeDrop(l, v) => {
            f.i32_const(*v).tee_local(u32::from(*l) + 1).drop_();
        }
        Stmt::GlobalStep(v) => {
            f.get_global(0u32).i32_const(*v).i32_add().set_global(0u32);
        }
        Stmt::SelectDrop {
            cond,
            first,
            second,
        } => {
            f.f64_const(*first)
                .f64_const(*second)
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
                emit(f, s, func_count);
            }
            f.else_();
            for s in else_ {
                emit(f, s, func_count);
            }
            f.end();
        }
        Stmt::BlockBrIf { cond, body } => {
            f.block(None).i32_const(*cond).br_if(0);
            for s in body {
                emit(f, s, func_count);
            }
            f.end();
        }
        Stmt::CountedLoop { iterations, body } => {
            // Local 5 is the reserved loop counter; nested loops share it,
            // resetting before each loop keeps iteration counts bounded.
            // The condition and increment are the superinstruction shapes
            // (get_local;const;cmp;br_if and get_local;const;add;set_local).
            f.i32_const(0).set_local(5u32);
            f.block(None).loop_(None);
            f.get_local(5u32)
                .i32_const(i32::from(*iterations))
                .binary(BinaryOp::I32GeS)
                .br_if(1);
            f.get_local(5u32).i32_const(1).i32_add().set_local(5u32);
            for s in body {
                emit(f, s, func_count);
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
            for arm in arms {
                emit(f, arm, func_count);
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
        Stmt::Unary(v) => {
            f.i32_const(*v)
                .unary(wasabi_wasm::UnaryOp::I32Popcnt)
                .drop_();
        }
        Stmt::Nop => {
            f.nop();
        }
    }
}

/// Build a complete module: helper functions plus `main`.
fn build_module(functions: &[Vec<Stmt>]) -> Module {
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
                // Locals 1..=4 scratch, 5 loop counter, 6/7 affine indices.
                for _ in 0..5 {
                    f.local(ValType::I32);
                }
                let a = f.local(ValType::I32);
                let b = f.local(ValType::I32);
                f.get_local(0u32).i32_const(13).binary(BinaryOp::I32RemS);
                f.set_local(a);
                f.get_local(0u32).i32_const(7).binary(BinaryOp::I32RemS);
                f.set_local(b);
                for stmt in stmts {
                    emit(f, stmt, callable);
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
        // so the scratch locals still line up.
        for _ in 0..8 {
            f.local(ValType::I32);
        }
        f.i32_const(5).set_local(6u32);
        f.i32_const(3).set_local(7u32);
        if let Some(last) = functions.last() {
            for stmt in last {
                emit(f, stmt, callable);
            }
        }
        f.get_global(0u32);
    });
    builder.finish()
}

/// Run a module and capture (result-or-trap, executed count, memory
/// checksum, globals).
type Snapshot = (Result<Vec<Val>, Trap>, u64, u64, Vec<Val>);

fn run_flat(module: &Module, fuel: Option<u64>) -> Snapshot {
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(module.clone(), &mut host).expect("valid module");
    instance.set_fuel(fuel);
    let result = instance.invoke_export("main", &[], &mut host);
    (
        result,
        instance.executed_instrs(),
        instance.memory().map(|m| m.checksum()).unwrap_or(0),
        instance.globals().to_vec(),
    )
}

fn run_reference(module: &Module, fuel: Option<u64>) -> Snapshot {
    let mut host = EmptyHost;
    let reference = Reference::new(module);
    let mut instance = Instance::instantiate(module.clone(), &mut host).expect("valid module");
    instance.set_fuel(fuel);
    let result = reference.invoke_export(&mut instance, "main", &[], &mut host);
    (
        result,
        instance.executed_instrs(),
        instance.memory().map(|m| m.checksum()).unwrap_or(0),
        instance.globals().to_vec(),
    )
}

fn assert_equivalent(module: &Module, fuel: Option<u64>) {
    let flat = run_flat(module, fuel);
    let reference = run_reference(module, fuel);
    assert_eq!(flat.0, reference.0, "results/traps must agree");
    assert_eq!(flat.1, reference.1, "executed_instrs must agree");
    assert_eq!(flat.2, reference.2, "final memory must agree");
    assert_eq!(flat.3, reference.3, "final globals must agree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_modules_execute_identically(
        functions in prop::collection::vec(prop::collection::vec(arb_stmt(), 0..6), 1..4),
    ) {
        let module = build_module(&functions);
        let flat = run_flat(&module, Some(5_000_000));
        let reference = run_reference(&module, Some(5_000_000));
        prop_assert_eq!(&flat.0, &reference.0, "results/traps must agree");
        prop_assert_eq!(flat.1, reference.1, "executed_instrs must agree");
        prop_assert_eq!(flat.2, reference.2, "final memory must agree");
        prop_assert_eq!(&flat.3, &reference.3, "final globals must agree");
    }

    #[test]
    fn fuel_trap_points_agree(
        functions in prop::collection::vec(prop::collection::vec(arb_stmt(), 1..6), 1..3),
        fuel in 1u64..400,
    ) {
        // With a tiny budget, both interpreters must trap out of fuel at
        // the same executed-instruction count — even when the flat IR would
        // have trapped in the middle of a superinstruction.
        let module = build_module(&functions);
        let flat = run_flat(&module, Some(fuel));
        let reference = run_reference(&module, Some(fuel));
        prop_assert_eq!(&flat.0, &reference.0);
        prop_assert_eq!(flat.1, reference.1, "executed_instrs must agree on fuel traps");
    }
}

// ---- Targeted edge cases ----------------------------------------------

#[test]
fn br_table_corner_entries() {
    // Every selector: each arm, the default, and far out of range.
    for selector in [0, 1, 2, 3, 7, -1] {
        let mut builder = ModuleBuilder::new();
        builder.function("main", &[], &[ValType::I32], |f| {
            f.block(None).block(None).block(None).block(None);
            f.i32_const(selector).br_table(vec![0, 1, 2], 3);
            f.end();
            f.i32_const(100).return_();
            f.end();
            f.i32_const(200).return_();
            f.end();
            f.i32_const(300).return_();
            f.end();
            f.i32_const(400);
        });
        let module = builder.finish();
        assert_equivalent(&module, None);
    }
}

#[test]
fn br_table_replays_block_results() {
    // br_table leaving a value-producing block: unwind heights matter.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.block(Some(ValType::I32));
        f.i32_const(41).i32_const(1).i32_add();
        f.get_local(0u32).br_table(vec![0], 0);
        f.end();
    });
    let module = builder.finish();
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(module.clone(), &mut host).unwrap();
    let flat = instance.invoke_export("main", &[Val::I32(0)], &mut host);
    let reference = Reference::new(&module);
    let mut instance2 = Instance::instantiate(module, &mut host).unwrap();
    let refr = reference.invoke_export(&mut instance2, "main", &[Val::I32(0)], &mut host);
    assert_eq!(flat, refr);
    assert_eq!(flat.unwrap(), vec![Val::I32(42)]);
    assert_eq!(instance.executed_instrs(), instance2.executed_instrs());
}

/// Build `main` recursing to the given depth, returning the depth reached.
fn recursion_module() -> Module {
    let mut builder = ModuleBuilder::new();
    let mut module = {
        builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
            // if n <= 0 { return 0 } else { rec(n - 1) + 1 }
            f.get_local(0u32)
                .i32_const(0)
                .binary(BinaryOp::I32LeS)
                .if_(None)
                .i32_const(0)
                .return_()
                .end();
            f.get_local(0u32).i32_const(1).i32_sub();
            // call patched in below
            f.i32_const(1).i32_add();
        });
        builder.finish()
    };
    let self_idx = module.export_function("main").unwrap();
    let body = &mut module.functions[self_idx.to_usize()]
        .code_mut()
        .unwrap()
        .body;
    // Insert the self-call after the `i32.sub` (builder cannot self-refer).
    let sub_pos = body
        .iter()
        .position(|i| matches!(i, Instr::Binary(BinaryOp::I32Sub)))
        .unwrap();
    body.insert(sub_pos + 1, Instr::Call(self_idx));
    module
}

#[test]
fn recursion_at_exactly_the_depth_limit() {
    let module = recursion_module();
    for (depth_arg, expect_trap) in [
        (DEFAULT_MAX_CALL_DEPTH as i32 - 1, false),
        (DEFAULT_MAX_CALL_DEPTH as i32, true),
        (DEFAULT_MAX_CALL_DEPTH as i32 + 10, true),
    ] {
        let mut host = EmptyHost;
        let mut flat = Instance::instantiate(module.clone(), &mut host).unwrap();
        let flat_result = flat.invoke_export("main", &[Val::I32(depth_arg)], &mut host);

        let reference = Reference::new(&module);
        let mut structured = Instance::instantiate(module.clone(), &mut host).unwrap();
        let ref_result =
            reference.invoke_export(&mut structured, "main", &[Val::I32(depth_arg)], &mut host);

        assert_eq!(flat_result, ref_result, "depth {depth_arg}");
        assert_eq!(
            flat.executed_instrs(),
            structured.executed_instrs(),
            "depth {depth_arg}"
        );
        if expect_trap {
            assert_eq!(flat_result.unwrap_err(), Trap::CallStackExhausted);
        } else {
            assert_eq!(flat_result.unwrap(), vec![Val::I32(depth_arg)]);
        }
    }
}

/// A host whose `env.init` and `env.id` (identity) imports log each call.
fn logging_host(log: &Rc<RefCell<Vec<&'static str>>>) -> HostFunctions {
    let mut host = HostFunctions::new();
    let init_log = Rc::clone(log);
    host.register("env", "init", move |_, _| {
        init_log.borrow_mut().push("init");
        Ok(vec![])
    });
    let id_log = Rc::clone(log);
    host.register("env", "id", move |args, _| {
        id_log.borrow_mut().push("id");
        Ok(args.to_vec())
    });
    host
}

/// The module's start function is the import `env.init`, and it
/// re-exports the import `env.id`, so invoking either runs no wasm frame:
/// the host entry of the production loop, the oracle, and cohort members
/// must all call the host directly, once, through the generic route.
#[test]
fn invoking_an_imported_function_directly() {
    let mut builder = ModuleBuilder::new();
    let init = builder.import_function("env", "init", &[], &[]);
    let id = builder.import_function("env", "id", &[ValType::I32], &[ValType::I32]);
    builder.start(init);
    let mut module = builder.finish();
    module.functions[id.to_usize()]
        .export
        .push("id".to_string());
    let translated = TranslatedModule::new(module.clone()).unwrap();
    let arg = Val::I32(7);

    let check = |path: &str, log: &RefCell<Vec<&str>>, result, counts| {
        assert_eq!(result, Ok(vec![arg]), "{path}");
        assert_eq!(
            counts,
            (0, 2),
            "{path}: (fast, slow) host calls, start included"
        );
        assert_eq!(*log.borrow(), ["init", "id"], "{path}");
    };

    let log = Rc::new(RefCell::new(Vec::new()));
    let mut host = logging_host(&log);
    let mut instance = Instance::instantiate_translated(&translated, &mut host).unwrap();
    let result = instance.invoke_export("id", &[arg], &mut host);
    check("invoke_export", &log, result, instance.host_call_counts());

    let log = Rc::new(RefCell::new(Vec::new()));
    let mut host = logging_host(&log);
    let mut instance = Instance::instantiate_translated(&translated, &mut host).unwrap();
    let result = Reference::new(&module).invoke_export(&mut instance, "id", &[arg], &mut host);
    check("Reference", &log, result, instance.host_call_counts());

    let log = Rc::new(RefCell::new(Vec::new()));
    let mut host = logging_host(&log);
    let mut cohort = CohortRunner::new(DEFAULT_COHORT_CHUNK);
    cohort.admit(&translated, None, "id", &[arg], &mut host);
    cohort.run(&mut host);
    let outcome = cohort.finish().pop().unwrap();
    let counts = (outcome.host_calls_fast, outcome.host_calls_slow);
    check("CohortRunner", &log, outcome.result, counts);
}

#[test]
fn superinstruction_boundary_branch_into_chain() {
    // A loop whose back-edge lands immediately after the loop marker, with
    // the loop body consisting of fusible shapes: the fusion pass must not
    // fuse across the re-entry point, and results must match the oracle.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[ValType::I32], |f| {
        let bound = f.local(ValType::I32);
        let acc = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        f.i32_const(10).set_local(bound);
        f.block(None).loop_(None);
        // condition: get_local;get_local;cmp;br_if (local-bound form)
        f.get_local(i)
            .get_local(bound)
            .binary(BinaryOp::I32GeS)
            .br_if(1);
        // body: const+binop and local+const+binop chains
        f.get_local(acc)
            .i32_const(3)
            .i32_mul()
            .i32_const(1)
            .i32_add()
            .set_local(acc);
        f.get_local(i).i32_const(1).i32_add().set_local(i);
        f.br(0).end().end();
        f.get_local(acc);
    });
    let module = builder.finish();
    assert_equivalent(&module, None);
}

#[test]
fn trap_inside_a_fused_pair_counts_both_instructions() {
    // const 0 as divisor fuses into ConstBinary; the trap must surface as
    // the same division trap with the same count as the two-step walk.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).i32_const(0).binary(BinaryOp::I32DivS);
    });
    let module = builder.finish();
    let mut host = EmptyHost;
    let mut flat = Instance::instantiate(module.clone(), &mut host).unwrap();
    let flat_result = flat.invoke_export("main", &[Val::I32(9)], &mut host);
    let reference = Reference::new(&module);
    let mut structured = Instance::instantiate(module, &mut host).unwrap();
    let ref_result = reference.invoke_export(&mut structured, "main", &[Val::I32(9)], &mut host);
    assert_eq!(flat_result, ref_result);
    assert_eq!(flat_result.unwrap_err(), Trap::IntegerDivideByZero);
    assert_eq!(flat.executed_instrs(), structured.executed_instrs());
}

#[test]
fn trapping_div_in_quad_set_shape_counts_and_traps_identically() {
    // get_local; const 0; div_s; set_local — the quad-fusion shape with a
    // trapping member. It must NOT fuse (a trap may only be a group's last
    // member), so the count at the trap is the oracle's: three
    // instructions, IntegerDivideByZero, never the set_local.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[ValType::I32], |f| {
        let l = f.local(ValType::I32);
        f.i32_const(9).set_local(l);
        f.get_local(l)
            .i32_const(0)
            .binary(BinaryOp::I32DivS)
            .set_local(l);
        f.get_local(l);
    });
    let module = builder.finish();
    let flat = run_flat(&module, None);
    let reference = run_reference(&module, None);
    assert_eq!(flat.0, reference.0);
    assert_eq!(flat.0, Err(Trap::IntegerDivideByZero));
    assert_eq!(flat.1, reference.1, "count at the trap must agree");
}

#[test]
fn fuel_cannot_preempt_a_real_trap_inside_a_fused_shape() {
    // Same trapping quad shape, swept across every fuel budget that could
    // land inside it: the oracle reaches the real division trap at fuel=5
    // (const, set_local, get_local, const afford four; the div traps on
    // its own step), and the flat path must agree at every point — never
    // reporting OutOfFuel where the oracle reports IntegerDivideByZero.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[ValType::I32], |f| {
        let l = f.local(ValType::I32);
        f.i32_const(9).set_local(l);
        f.get_local(l)
            .i32_const(0)
            .binary(BinaryOp::I32DivS)
            .set_local(l);
        f.get_local(l);
    });
    let module = builder.finish();
    for fuel in 0..10u64 {
        let flat = run_flat(&module, Some(fuel));
        let reference = run_reference(&module, Some(fuel));
        assert_eq!(flat.0, reference.0, "fuel {fuel}: trap kinds must agree");
        assert_eq!(flat.1, reference.1, "fuel {fuel}: counts must agree");
    }
}

#[test]
fn oob_affine_load_traps_and_counts_identically() {
    // The affine chain + load fuses into AffineLoad (trap-capable load in
    // final position); driven out of bounds it must produce the same trap
    // and the same executed count as the structured walk, under no fuel
    // and under every fuel budget that lands inside the fused group.
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    builder.function(
        "main",
        &[ValType::I32, ValType::I32],
        &[ValType::I64],
        |f| {
            f.get_local(0u32).i32_const(1024).i32_mul();
            f.get_local(1u32).i32_add();
            f.i32_const(8).i32_mul();
            f.load(wasabi_wasm::LoadOp::I64Load, 0);
        },
    );
    let module = builder.finish();
    for fuel in (0..10u64).map(Some).chain([None]) {
        let mut host = EmptyHost;
        let mut flat = Instance::instantiate(module.clone(), &mut host).unwrap();
        flat.set_fuel(fuel);
        let flat_result = flat.invoke_export("main", &[Val::I32(400), Val::I32(3)], &mut host);
        let reference = Reference::new(&module);
        let mut structured = Instance::instantiate(module.clone(), &mut host).unwrap();
        structured.set_fuel(fuel);
        let ref_result = reference.invoke_export(
            &mut structured,
            "main",
            &[Val::I32(400), Val::I32(3)],
            &mut host,
        );
        assert_eq!(flat_result, ref_result, "fuel {fuel:?}");
        assert_eq!(
            flat.executed_instrs(),
            structured.executed_instrs(),
            "fuel {fuel:?}"
        );
        if fuel.is_none() {
            assert_eq!(flat_result.unwrap_err(), Trap::OutOfBoundsMemoryAccess);
        }
    }
}

#[test]
fn deep_static_nesting_translates_and_agrees() {
    // 40 nested blocks with a branch out of the innermost one.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[ValType::I32], |f| {
        for _ in 0..40 {
            f.block(None);
        }
        f.br(39);
        for _ in 0..40 {
            f.end();
        }
        f.i32_const(7);
    });
    let module = builder.finish();
    assert_equivalent(&module, None);
}
