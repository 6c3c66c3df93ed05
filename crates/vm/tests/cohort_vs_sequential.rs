//! Swarm differential property tests for cohort execution: a
//! [`CohortRunner`] interleaving N instances of one translated module in
//! chunked rounds must be **observationally identical** to N standalone
//! sequential runs of the same inputs through `invoke_export`:
//!
//! - same results (or the same trap, including mid-loop div traps,
//!   out-of-bounds accesses, and `unreachable`),
//! - same `executed_instrs` and host-call counters per member,
//! - same final linear memory checksum and globals per member,
//! - under per-member fuel limits and pre-expired budgets too (the
//!   preemption point is deterministic, so the counters must match
//!   bit-for-bit).
//!
//! Modules are generated from input-dependent step templates, so sibling
//! members take *different* control-flow paths (different loop trip
//! counts, some trapping, some not) while sharing one flat IR — the
//! worst case for cross-member state bleed.
//!
//! Both sides run the same interpreter loop — `invoke_export` is one
//! unbounded round of it — so this suite pins suspension (every
//! preemption point, chunk size and member interleaving) and per-member
//! isolation, not the loop's semantics; `flat_vs_reference.rs` checks
//! those against the independent structured walk.

use proptest::prelude::*;

use wasabi_vm::cohort::CohortRunner;
use wasabi_vm::host::EmptyHost;
use wasabi_vm::{Budget, CancelToken, Instance, TranslatedModule, Trap};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::instr::{BinaryOp, LoadOp, StoreOp, Val};
use wasabi_wasm::types::ValType;
use wasabi_wasm::Module;

/// One statement of the generated `main(input) -> i32` body. Every step
/// reads and writes an accumulator local; several depend on `input`, so
/// each cohort member executes a different dynamic instruction stream.
#[derive(Debug, Clone)]
enum Step {
    /// `acc = acc op c` with a never-trapping constant operand.
    Const(BinaryOp, i32),
    /// `acc = acc op input` (non-trapping ops only).
    Input(BinaryOp),
    /// `acc = acc / (input % m)` — traps for inputs where `input % m == 0`.
    DivByInputMod(i32),
    /// `for i in 0..(input & mask) { acc += delta }` — the trip count is
    /// input-dependent, so members preempt at different loop iterations.
    Loop { mask: u8, delta: i32 },
    /// `acc = mem[acc & 0x1ffff]` — the masked address range is twice the
    /// memory size, so some members trap out-of-bounds.
    LoadAcc,
    /// `mem[addr] = acc` — per-member memory state the suite checksums.
    StoreFixed(u16),
    /// `global0 += acc` — per-member global state.
    GlobalAccum,
    /// `acc = helper_h(acc)` — frames must suspend/resume across chunks.
    CallHelper(u8),
    /// `if acc > c { unreachable }` — an input-dependent explicit trap.
    TrapIfGt(i32),
}

fn nontrapping_op() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::I32Add),
        Just(BinaryOp::I32Sub),
        Just(BinaryOp::I32Mul),
        Just(BinaryOp::I32Xor),
        Just(BinaryOp::I32And),
        Just(BinaryOp::I32Or),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (nontrapping_op(), -100i32..100).prop_map(|(op, c)| Step::Const(op, c)),
        nontrapping_op().prop_map(Step::Input),
        (2i32..7).prop_map(Step::DivByInputMod),
        (any::<u8>(), -5i32..5).prop_map(|(mask, delta)| Step::Loop { mask, delta }),
        Just(Step::LoadAcc),
        (0u16..60000).prop_map(Step::StoreFixed),
        Just(Step::GlobalAccum),
        (0u8..2).prop_map(Step::CallHelper),
        (i32::MAX - 2000..i32::MAX).prop_map(Step::TrapIfGt),
    ]
}

/// Build `main(i32) -> i32` from the steps, plus two fixed helpers, one
/// page of memory, and one mutable global.
fn build_module(steps: &[Step]) -> Module {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    let global = builder.global(Val::I32(0));

    // helper 0: x * 3 + 1.
    let helper0 = builder.function("", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32)
            .i32_const(3)
            .i32_mul()
            .i32_const(1)
            .i32_add();
    });
    // helper 1: a small loop — sum of 0..(x & 15), plus x.
    let helper1 = builder.function("", &[ValType::I32], &[ValType::I32], |f| {
        let sum = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        f.block(None).loop_(None);
        f.get_local(i)
            .get_local(0u32)
            .i32_const(15)
            .binary(BinaryOp::I32And)
            .binary(BinaryOp::I32GeS)
            .br_if(1);
        f.get_local(sum).get_local(i).i32_add().set_local(sum);
        f.get_local(i).i32_const(1).i32_add().set_local(i);
        f.br(0).end().end();
        f.get_local(sum).get_local(0u32).i32_add();
    });
    let helpers = [helper0, helper1];

    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        let acc = f.local(ValType::I32);
        let ctr = f.local(ValType::I32);
        f.get_local(0u32).set_local(acc);
        for step in steps {
            match step {
                Step::Const(op, c) => {
                    f.get_local(acc).i32_const(*c).binary(*op).set_local(acc);
                }
                Step::Input(op) => {
                    f.get_local(acc).get_local(0u32).binary(*op).set_local(acc);
                }
                Step::DivByInputMod(m) => {
                    f.get_local(acc)
                        .get_local(0u32)
                        .i32_const(*m)
                        .binary(BinaryOp::I32RemS)
                        .binary(BinaryOp::I32DivS)
                        .set_local(acc);
                }
                Step::Loop { mask, delta } => {
                    f.i32_const(0).set_local(ctr);
                    f.block(None).loop_(None);
                    f.get_local(ctr)
                        .get_local(0u32)
                        .i32_const(i32::from(*mask))
                        .binary(BinaryOp::I32And)
                        .binary(BinaryOp::I32GeS)
                        .br_if(1);
                    f.get_local(acc).i32_const(*delta).i32_add().set_local(acc);
                    f.get_local(ctr).i32_const(1).i32_add().set_local(ctr);
                    f.br(0).end().end();
                }
                Step::LoadAcc => {
                    f.get_local(acc)
                        .i32_const(0x1ffff)
                        .binary(BinaryOp::I32And)
                        .load(LoadOp::I32Load, 0)
                        .set_local(acc);
                }
                Step::StoreFixed(addr) => {
                    f.i32_const(i32::from(*addr))
                        .get_local(acc)
                        .store(StoreOp::I32Store, 0);
                }
                Step::GlobalAccum => {
                    f.get_global(global)
                        .get_local(acc)
                        .i32_add()
                        .set_global(global);
                }
                Step::CallHelper(h) => {
                    f.get_local(acc)
                        .call(helpers[usize::from(*h) % 2])
                        .set_local(acc);
                }
                Step::TrapIfGt(c) => {
                    f.get_local(acc)
                        .i32_const(*c)
                        .binary(BinaryOp::I32GtS)
                        .if_(None)
                        .unreachable()
                        .end();
                }
            }
        }
        f.get_local(acc);
    });
    builder.finish()
}

/// Everything observable about one member's run.
type Snapshot = (Result<Vec<Val>, Trap>, u64, (u64, u64), u64, Vec<Val>);

fn snapshot(result: Result<Vec<Val>, Trap>, instance: &Instance) -> Snapshot {
    (
        result,
        instance.executed_instrs(),
        instance.host_call_counts(),
        instance.memory().map(|m| m.checksum()).unwrap_or(0),
        instance.globals().to_vec(),
    )
}

/// The sequential oracle: a standalone instance run to completion by
/// `invoke_export`, one unbounded round.
fn run_sequential(
    translated: &TranslatedModule,
    input: i32,
    fuel: Option<u64>,
    budget: Option<Budget>,
) -> Snapshot {
    let mut host = EmptyHost;
    let mut instance =
        Instance::instantiate_translated(translated, &mut host).expect("instantiates");
    instance.set_budget(budget);
    instance.set_fuel(fuel);
    let result = instance.invoke_export("main", &[Val::I32(input)], &mut host);
    snapshot(result, &instance)
}

/// The cohort under test: all inputs interleaved through one runner.
fn run_cohort(
    translated: &TranslatedModule,
    members: &[(i32, Option<u64>, Option<Budget>)],
    chunk: u64,
) -> Vec<Snapshot> {
    let mut host = EmptyHost;
    let mut cohort = CohortRunner::new(chunk);
    for (input, fuel, budget) in members {
        cohort.admit_with_fuel(
            translated,
            budget.clone(),
            *fuel,
            "main",
            &[Val::I32(*input)],
            &mut host,
        );
    }
    cohort.run(&mut host);
    let state: Vec<(u64, Vec<Val>)> = (0..members.len())
        .map(|idx| {
            let instance = cohort.instance(idx as u32).expect("instantiated");
            (
                instance.memory().map(|m| m.checksum()).unwrap_or(0),
                instance.globals().to_vec(),
            )
        })
        .collect();
    cohort
        .finish()
        .into_iter()
        .zip(state)
        .map(|(outcome, (checksum, globals))| {
            (
                outcome.result,
                outcome.executed_instrs,
                (outcome.host_calls_fast, outcome.host_calls_slow),
                checksum,
                globals,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::env_cases(10),
        ..ProptestConfig::default()
    })]

    /// N interleaved members == N sequential runs, for random modules,
    /// inputs, cohort sizes, and chunk sizes (including chunk 1: maximal
    /// interleaving, a suspend point between every pair of ops).
    #[test]
    fn cohort_matches_sequential(
        steps in proptest::collection::vec(step_strategy(), 1..12),
        inputs in proptest::collection::vec(any::<i32>(), 1..9),
        chunk in 1u64..5000,
    ) {
        let translated = TranslatedModule::new(build_module(&steps)).expect("validates");
        let expected: Vec<Snapshot> = inputs
            .iter()
            .map(|&input| run_sequential(&translated, input, None, None))
            .collect();
        let members: Vec<_> = inputs.iter().map(|&input| (input, None, None)).collect();
        let actual = run_cohort(&translated, &members, chunk);
        prop_assert_eq!(actual, expected);
    }

    /// Same equivalence under per-member fuel limits: preemption by
    /// `OutOfFuel` happens at a deterministic instruction, so even the
    /// trap-point counters must agree — and members with different fuel
    /// retire in different rounds without disturbing their siblings.
    #[test]
    fn cohort_matches_sequential_under_fuel(
        steps in proptest::collection::vec(step_strategy(), 1..12),
        members in proptest::collection::vec(
            (any::<i32>(), proptest::option::of(0u64..3000)),
            1..9,
        ),
        chunk in 1u64..5000,
    ) {
        let translated = TranslatedModule::new(build_module(&steps)).expect("validates");
        let expected: Vec<Snapshot> = members
            .iter()
            .map(|&(input, fuel)| run_sequential(&translated, input, fuel, None))
            .collect();
        let cohort_members: Vec<_> = members
            .iter()
            .map(|&(input, fuel)| (input, fuel, None))
            .collect();
        let actual = run_cohort(&translated, &cohort_members, chunk);
        prop_assert_eq!(actual, expected);
    }

    /// Pre-cancelled and pre-expired budgets preempt at the first budget
    /// poll — also a deterministic point, so cohort and sequential runs
    /// must agree on the trap AND the instruction count, per member.
    #[test]
    fn cohort_matches_sequential_under_budget_preemption(
        steps in proptest::collection::vec(step_strategy(), 1..12),
        members in proptest::collection::vec((any::<i32>(), 0u8..3), 1..9),
        chunk in 1u64..5000,
    ) {
        let budget_for = |kind: u8| match kind {
            0 => None,
            1 => {
                let token = CancelToken::new();
                token.cancel();
                Some(Budget::new().cancel_token(token))
            }
            _ => {
                let token = CancelToken::new();
                token.fire_deadline();
                Some(Budget::new().cancel_token(token))
            }
        };
        let translated = TranslatedModule::new(build_module(&steps)).expect("validates");
        let expected: Vec<Snapshot> = members
            .iter()
            .map(|&(input, kind)| run_sequential(&translated, input, None, budget_for(kind)))
            .collect();
        let cohort_members: Vec<_> = members
            .iter()
            .map(|&(input, kind)| (input, None, budget_for(kind)))
            .collect();
        let actual = run_cohort(&translated, &cohort_members, chunk);
        prop_assert_eq!(actual, expected);
    }
}

/// A hand-picked mixed-outcome cohort: one member returns, one traps on
/// division by zero, one loads out of bounds, one runs out of fuel — all
/// in the same cohort, each retiring in its own round.
#[test]
fn mixed_outcomes_retire_independently() {
    let steps = [
        Step::DivByInputMod(4),
        Step::Loop { mask: 63, delta: 2 },
        Step::LoadAcc,
    ];
    let translated = TranslatedModule::new(build_module(&steps)).expect("validates");
    let members = [
        (1, None, None),     // divides by 1, loads in bounds: returns
        (4, None, None),     // 4 % 4 == 0: integer divide by zero
        (65533, None, None), // survives the division, then loads past the page: OOB
        (2, Some(3), None),  // tiny fuel: OutOfFuel mid-run
    ];
    let outcomes = run_cohort(&translated, &members, 7);
    assert!(outcomes[0].0.is_ok(), "member 0: {:?}", outcomes[0].0);
    assert_eq!(outcomes[1].0, Err(Trap::IntegerDivideByZero));
    assert_eq!(outcomes[2].0, Err(Trap::OutOfBoundsMemoryAccess));
    assert_eq!(outcomes[3].0, Err(Trap::OutOfFuel));
    // And each matches its own sequential run exactly.
    for (member, outcome) in members.iter().zip(&outcomes) {
        let expected = run_sequential(&translated, member.0, member.1, None);
        assert_eq!(outcome, &expected);
    }
}

/// Force-retiring a member mid-run records the supplied outcome and
/// leaves the survivors bit-identical to an undisturbed cohort.
#[test]
fn force_retire_leaves_siblings_undisturbed() {
    let steps = [
        Step::Loop {
            mask: 255,
            delta: 1,
        },
        Step::GlobalAccum,
    ];
    let translated = TranslatedModule::new(build_module(&steps)).expect("validates");
    let mut host = EmptyHost;

    let mut cohort = CohortRunner::new(16);
    for input in [200, 201, 202] {
        cohort.admit(&translated, None, "main", &[Val::I32(input)], &mut host);
    }
    cohort.step_one(&mut host);
    cohort.retire(1, Err(Trap::Cancelled));
    cohort.run(&mut host);
    let survivors_state: Vec<_> = [0u32, 2]
        .iter()
        .map(|&idx| {
            let instance = cohort.instance(idx).expect("instantiated");
            (
                instance.memory().map(|m| m.checksum()).unwrap_or(0),
                instance.globals().to_vec(),
            )
        })
        .collect();
    let outcomes = cohort.finish();
    assert_eq!(outcomes[1].result, Err(Trap::Cancelled));

    for (slot, &(idx, input)) in [(0u32, 200), (2u32, 202)].iter().enumerate() {
        let expected = run_sequential(&translated, input, None, None);
        let outcome = &outcomes[idx as usize];
        assert_eq!(outcome.result, expected.0, "member {idx} result");
        assert_eq!(outcome.executed_instrs, expected.1, "member {idx} instrs");
        assert_eq!(
            survivors_state[slot],
            (expected.3, expected.4.clone()),
            "member {idx} state"
        );
    }
}

/// `finish()` retires still-live members as cancelled instead of losing
/// them.
#[test]
fn finish_cancels_live_members() {
    let steps = [Step::Loop {
        mask: 255,
        delta: 1,
    }];
    let translated = TranslatedModule::new(build_module(&steps)).expect("validates");
    let mut host = EmptyHost;
    let mut cohort = CohortRunner::new(4);
    cohort.admit(&translated, None, "main", &[Val::I32(255)], &mut host);
    cohort.step_one(&mut host);
    let outcomes = cohort.finish();
    assert_eq!(outcomes[0].result, Err(Trap::Cancelled));
    assert!(
        outcomes[0].executed_instrs > 0,
        "partial progress is recorded"
    );
}
