//! "Unsubscribed hooks are free" as an executable invariant (ISSUE 6
//! satellite): the direct-emit instrumentation path
//! (`TranslatedModule::new_instrumented`) must emit **op-for-op** the same
//! flat IR as the plain uninstrumented translation wherever no hook call
//! was injected, and op count may grow *only* at injected hook sites.
//!
//! This is the VM half of the claim. The VM cannot see the core crate's
//! `HookSet` (the dependency points the other way), so here "hook set S"
//! appears in its translated form: the per-function instrumented bodies
//! and synthetic hook-import descriptors that the core's instrumenter
//! hands down. The core half — random modules × random hook subsets
//! through the full `Instrumenter` — lives in the three-way differential
//! oracle (`tests/instrumented_differential.rs` at the workspace root).

use proptest::prelude::*;

use wasabi_vm::{HookImport, InstrumentedFunc, TranslatedModule};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::instr::{FunctionSpace, Idx, Instr, LocalOp, Val};
use wasabi_wasm::module::Module;
use wasabi_wasm::types::{FuncType, ValType};

/// One stack-neutral statement of a generated function body. Variants
/// cover plain data flow, locals, and every structured-control shape the
/// translator treats specially (blocks, loops, conditionals, branches),
/// so translation equality is tested across jump-table and fusion
/// boundaries, not just straight-line code.
#[derive(Debug, Clone)]
enum Stmt {
    ConstAdd(i32, i32),
    LocalRoundtrip(i32),
    IfElse(i32),
    Block,
    Loop,
    BrBlock,
    BrIfBlock(i32),
    Nop,
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (any::<i32>(), any::<i32>()).prop_map(|(a, b)| Stmt::ConstAdd(a, b)),
        any::<i32>().prop_map(Stmt::LocalRoundtrip),
        any::<i32>().prop_map(Stmt::IfElse),
        Just(Stmt::Block),
        Just(Stmt::Loop),
        Just(Stmt::BrBlock),
        any::<i32>().prop_map(Stmt::BrIfBlock),
        Just(Stmt::Nop),
    ]
}

/// A module of `bodies.len()` functions, each `() -> i32`, with one
/// declared i32 local and the given statement sequence.
fn build_module(bodies: &[Vec<Stmt>]) -> Module {
    let mut builder = ModuleBuilder::new();
    for (i, stmts) in bodies.iter().enumerate() {
        builder.function(&format!("f{i}"), &[], &[ValType::I32], |f| {
            let local = f.local(ValType::I32);
            for stmt in stmts {
                match stmt {
                    Stmt::ConstAdd(a, b) => {
                        f.i32_const(*a).i32_const(*b).i32_add().drop_();
                    }
                    Stmt::LocalRoundtrip(v) => {
                        f.i32_const(*v).set_local(local).get_local(local).drop_();
                    }
                    Stmt::IfElse(c) => {
                        f.i32_const(*c).if_(None).nop().else_().nop().end();
                    }
                    Stmt::Block => {
                        f.block(None).nop().end();
                    }
                    Stmt::Loop => {
                        f.loop_(None).nop().end();
                    }
                    Stmt::BrBlock => {
                        f.block(None).br(0).end();
                    }
                    Stmt::BrIfBlock(c) => {
                        f.block(None).i32_const(*c).br_if(0).end();
                    }
                    Stmt::Nop => {
                        f.nop();
                    }
                }
            }
            f.i32_const(i as i32);
        });
    }
    builder.finish()
}

/// The synthetic hook import used by the injection test: the shape of a
/// real low-level hook — a flattened payload plus the trailing
/// `(func, instr)` location pair, and **no results**.
fn test_hook() -> HookImport {
    HookImport {
        module: "__wasabi_hooks".to_string(),
        name: "test_hook".to_string(),
        ty: FuncType::new(&[ValType::I32, ValType::I32], &[]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// S = ∅: instrumenting for no hooks at all must yield op-for-op the
    /// uninstrumented translation — not "equivalent", *identical*.
    #[test]
    fn empty_hook_set_is_op_for_op_identical(
        bodies in prop::collection::vec(prop::collection::vec(stmt_strategy(), 0..8), 1..4),
    ) {
        let module = build_module(&bodies);
        let funcs: Vec<Option<InstrumentedFunc>> = vec![None; module.functions.len()];

        let base = TranslatedModule::new(module.clone()).expect("validates");
        let direct = TranslatedModule::new_instrumented(module, &funcs, Vec::new());

        prop_assert!(direct.hook_imports().is_empty());
        prop_assert_eq!(direct.op_streams(), base.op_streams());
    }

    /// Injecting hook calls into *some* functions must leave every
    /// untouched function's op stream byte-identical, and grow the touched
    /// streams by exactly one host-call op per injected site.
    #[test]
    fn op_count_grows_only_at_injected_sites(
        bodies in prop::collection::vec(prop::collection::vec(stmt_strategy(), 1..8), 2..5),
        stride in 1usize..4,
    ) {
        let module = build_module(&bodies);
        let base = TranslatedModule::new(module.clone()).expect("validates");
        let hook_idx: Idx<FunctionSpace> = Idx::from(module.functions.len());

        // Touch the even-indexed functions: after every `stride`-th
        // non-final instruction, inject `local.get <extra>` (the hook's
        // payload, read from an *extra* instrumentation local to exercise
        // the locals concatenation) + `i32.const pc` + `call hook`.
        let mut sites_per_func = Vec::new();
        let funcs: Vec<Option<InstrumentedFunc>> = module
            .functions
            .iter()
            .enumerate()
            .map(|(i, function)| {
                if i % 2 != 0 {
                    sites_per_func.push(0);
                    return None;
                }
                let code = function.code().expect("generated functions are local");
                let extra_local: Idx<wasabi_wasm::instr::LocalSpace> =
                    Idx::from(function.type_.params.len() + code.locals.len());
                let mut body = Vec::new();
                let mut sites = 0usize;
                for (pc, instr) in code.body.iter().enumerate() {
                    body.push(instr.clone());
                    if pc + 1 < code.body.len() && pc % stride == 0 {
                        body.push(Instr::Local(LocalOp::Get, extra_local));
                        body.push(Instr::Const(Val::I32(pc as i32)));
                        body.push(Instr::Call(hook_idx));
                        sites += 1;
                    }
                }
                sites_per_func.push(sites);
                Some(InstrumentedFunc {
                    body,
                    extra_locals: vec![ValType::I32],
                })
            })
            .collect();

        let direct = TranslatedModule::new_instrumented(module, &funcs, vec![test_hook()]);
        prop_assert_eq!(direct.hook_imports().len(), 1);

        let base_streams = base.op_streams();
        let direct_streams = direct.op_streams();
        prop_assert_eq!(base_streams.len(), direct_streams.len());

        for (i, (base_ops, direct_ops)) in
            base_streams.iter().zip(&direct_streams).enumerate()
        {
            let host_calls = direct_ops
                .iter()
                .filter(|op| op.starts_with("HostCall"))
                .count();
            if i % 2 != 0 {
                // Unsubscribed (untouched) functions are FREE: identical
                // op streams, zero injected host calls.
                prop_assert_eq!(host_calls, 0);
                prop_assert_eq!(direct_ops, base_ops, "untouched function {} diverged", i);
            } else {
                // Each injected site must survive as exactly one host-call
                // op (plain or argument-fused), and the stream never
                // shrinks below the uninstrumented one.
                prop_assert_eq!(
                    host_calls, sites_per_func[i],
                    "function {}: one host-call op per injected site", i
                );
                prop_assert!(direct_ops.len() >= base_ops.len());
            }
        }
    }
}
