//! Pins the phase-timer accounting of the two instrumentation paths
//! (ISSUE 6 satellite: no double-count, no zero instrument phase).
//!
//! The three process-global build timers must be *disjoint*: a direct-emit
//! build feeds only [`wasabi::stats::fused_build_time`], a rewrite-path
//! build feeds only `instrumentation_time` + `translation_time`. This is
//! what lets the CLI `--time` flag print whichever side is non-zero
//! without ever attributing one pass to two phases.
//!
//! This file contains a SINGLE test on purpose: the timers are
//! process-global sums, so exact "the other timers did not move" deltas
//! are only meaningful when nothing else in the process records phases
//! concurrently. As its own integration-test binary with one `#[test]`,
//! this process runs nothing else.

use wasabi::hooks::HookSet;
use wasabi::{stats, AnalysisSession, Instrumenter};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::ValType;

fn module() -> wasabi_wasm::module::Module {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    builder.function("main", &[], &[ValType::I32], |f| {
        f.i32_const(21).i32_const(2).i32_mul();
    });
    builder.finish()
}

#[test]
fn build_timers_are_disjoint_between_the_two_paths() {
    let module = module();

    // Direct-emit: one fused build phase, nothing on the split timers.
    let instrument_before = stats::instrumentation_time();
    let translate_before = stats::translation_time();
    let fused_before = stats::fused_build_time();
    let passes_before = stats::instrumentation_passes();
    let (_translated, info) = Instrumenter::new(HookSet::all())
        .run_direct(module.clone())
        .expect("module validates");
    assert!(!info.hooks.is_empty(), "all-hooks run monomorphizes hooks");
    assert!(
        stats::fused_build_time() > fused_before,
        "direct-emit build must report a non-zero fused phase"
    );
    assert_eq!(
        stats::instrumentation_time(),
        instrument_before,
        "direct-emit must not double-count into the instrument timer"
    );
    assert_eq!(
        stats::translation_time(),
        translate_before,
        "direct-emit must not double-count into the translate timer"
    );
    assert_eq!(
        stats::instrumentation_passes(),
        passes_before + 1,
        "a fused build still counts as one instrumentation pass"
    );

    // Rewrite path: the split timers move, the fused timer does not.
    let fused_before = stats::fused_build_time();
    let _session = AnalysisSession::new(&module, HookSet::all()).expect("module validates");
    assert!(stats::instrumentation_time() > instrument_before);
    assert!(stats::translation_time() > translate_before);
    assert_eq!(
        stats::fused_build_time(),
        fused_before,
        "rewrite build must not feed the fused timer"
    );

    // Parallel direct-emit: worker busy time is accumulated per thread
    // and folded into the worker timer exactly ONCE per build, next to
    // (never instead of) the fused coordinator phase. The split rewrite
    // timers still do not move.
    let instrument_before = stats::instrumentation_time();
    let translate_before = stats::translation_time();
    let fused_before = stats::fused_build_time();
    let worker_before = stats::build_worker_time();
    let (_translated, _info) = Instrumenter::new(HookSet::all())
        .threads(4)
        .run_direct(module.clone())
        .expect("module validates");
    assert!(
        stats::fused_build_time() > fused_before,
        "a parallel build still reports its fused coordinator phase"
    );
    assert!(
        stats::build_worker_time() > worker_before,
        "a parallel build folds the workers' busy time into the worker timer"
    );
    assert_eq!(
        stats::instrumentation_time(),
        instrument_before,
        "parallel direct-emit must not feed the instrument timer"
    );
    assert_eq!(
        stats::translation_time(),
        translate_before,
        "parallel direct-emit must not feed the translate timer"
    );
}
