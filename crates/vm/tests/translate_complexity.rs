//! Complexity regression test for `TranslatedModule::new`: a function body
//! twice as long may take at most 3x as long to validate and translate, so
//! a translator pass that is quadratic in a run's length (about 4x per
//! doubling) fails here. The body is one long run of `i32.const`s — the
//! operand shape the host-call fold scans for — drained by as many `drop`s.
//!
//! Times are the minimum over several interleaved runs, the least
//! disturbed estimate of each size's cost; the test has a binary of its
//! own so no other test competes for the CPU while it measures.

use std::time::{Duration, Instant};

use wasabi_vm::TranslatedModule;
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::Module;

/// Translations per size; the fastest counts.
const RUNS: usize = 15;

/// One function of `len` × `i32.const 0` followed by `len` × `drop`.
fn const_run(len: usize) -> Module {
    let mut builder = ModuleBuilder::new();
    builder.function("f", &[], &[], |f| {
        for _ in 0..len {
            f.i32_const(0);
        }
        for _ in 0..len {
            f.drop_();
        }
    });
    builder.finish()
}

fn translate_time(module: &Module) -> Duration {
    let module = module.clone();
    let start = Instant::now();
    let translated = TranslatedModule::new(module).expect("validates");
    let elapsed = start.elapsed();
    drop(translated);
    elapsed
}

#[test]
fn translate_time_is_linear_in_const_run_length() {
    let small = const_run(4096);
    let large = const_run(8192);
    let (mut small_best, mut large_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        small_best = small_best.min(translate_time(&small));
        large_best = large_best.min(translate_time(&large));
    }
    let ratio = large_best.as_secs_f64() / small_best.as_secs_f64();
    assert!(
        ratio <= 3.0,
        "doubling the const run from 4096 to 8192 multiplied translate time by {ratio:.2} \
         ({small_best:?} -> {large_best:?}); linear would be about 2"
    );
}
