//! Complexity regression tests for the loaders of untrusted module input:
//! wasm decode, validate + translate (`TranslatedModule::new`), and the
//! disk cache's validate + code decode (`TranslatedModule::from_encoded_code`).
//! An input twice as long may take at most 3x as long, so a pass that is
//! quadratic in a run's length (about 4x per doubling) fails here. The
//! input is one function of one long run of `i32.const`s — the operand
//! shape the host-call fold scans for — drained by as many `drop`s.
//!
//! Times are the minimum over several interleaved runs, the least
//! disturbed estimate of each size's cost. The tests have a binary of
//! their own and take turns measuring, so no other test competes for the
//! CPU while one measures.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wasabi_vm::TranslatedModule;
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::decode::decode;
use wasabi_wasm::encode::encode;
use wasabi_wasm::Module;

/// Timings per size; the fastest counts.
const RUNS: usize = 15;

/// The two const-run lengths compared: one doubling.
const SMALL: usize = 4096;
const LARGE: usize = 8192;

/// Held by the test that is measuring.
static MEASURING: Mutex<()> = Mutex::new(());

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

/// Wall time of `f`, without the drop of its result.
fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    drop(result);
    elapsed
}

/// Assert that `time` of the `LARGE` input is at most 3x `time` of the
/// `SMALL` one.
fn assert_linear<T>(what: &str, small: &T, large: &T, time: impl Fn(&T) -> Duration) {
    let _turn = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut small_best, mut large_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        small_best = small_best.min(time(small));
        large_best = large_best.min(time(large));
    }
    let ratio = large_best.as_secs_f64() / small_best.as_secs_f64();
    assert!(
        ratio <= 3.0,
        "doubling the const run from {SMALL} to {LARGE} multiplied {what} time by {ratio:.2} \
         ({small_best:?} -> {large_best:?}); linear would be about 2"
    );
}

#[test]
fn translate_time_is_linear_in_const_run_length() {
    let (small, large) = (const_run(SMALL), const_run(LARGE));
    assert_linear("validate + translate", &small, &large, |module| {
        let module = module.clone();
        timed(|| TranslatedModule::new(module).expect("validates"))
    });
}

#[test]
fn wasm_decode_time_is_linear_in_const_run_length() {
    let (small, large) = (encode(&const_run(SMALL)), encode(&const_run(LARGE)));
    assert_linear("wasm decode", &small, &large, |bytes| {
        timed(|| decode(bytes).expect("decodes"))
    });
}

#[test]
fn code_decode_time_is_linear_in_const_run_length() {
    let encoded = |len| {
        let module = Arc::new(const_run(len));
        let translated = TranslatedModule::new(Module::clone(&module)).expect("validates");
        (module, translated.encode_code())
    };
    let (small, large) = (encoded(SMALL), encoded(LARGE));
    assert_linear(
        "validate + code decode",
        &small,
        &large,
        |(module, code)| {
            timed(|| {
                TranslatedModule::from_encoded_code(Arc::clone(module), code).expect("decodes")
            })
        },
    );
}
