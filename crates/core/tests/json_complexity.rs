//! Complexity regression tests for `wasabi::json::{parse, emit}`: a
//! document with a string twice as long may take at most 3x as long to
//! parse or emit, so a string scan that is quadratic in the string's length
//! (about 4x per doubling) fails here. Module uploads are such strings:
//! hex-encoded bytes inside a protocol frame.
//!
//! Times are the minimum over several interleaved runs, the least
//! disturbed estimate of each size's cost. The tests have a binary of
//! their own and take turns measuring, so no other test competes for the
//! CPU while one measures.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use wasabi::json::{emit, parse};

/// Timings per size; the fastest counts.
const RUNS: usize = 15;

/// Held by the test that is measuring.
static MEASURING: Mutex<()> = Mutex::new(());

/// An upload-shaped document: one hex string of `kib` KiB.
fn upload(kib: usize) -> String {
    let hex: String = (0..kib * 1024)
        .map(|i| char::from(b"0123456789abcdef"[i % 16]))
        .collect();
    format!("{{\"op\":\"upload\",\"bytes\":\"{hex}\"}}")
}

/// Wall time of `f`, without the drop of its result.
fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    drop(result);
    elapsed
}

/// Assert that `time` of the 128 KiB document is at most 3x `time` of the
/// 64 KiB one.
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
        "doubling the string from 64 to 128 KiB multiplied {what} time by {ratio:.2} \
         ({small_best:?} -> {large_best:?}); linear would be about 2"
    );
}

#[test]
fn string_parse_time_is_linear_in_length() {
    let (small, large) = (upload(64), upload(128));
    assert_linear("parse", &small, &large, |text| {
        timed(|| parse(text).expect("parses"))
    });
}

#[test]
fn string_emit_time_is_linear_in_length() {
    let (small, large) = (upload(64), upload(128));
    let (small, large) = (
        parse(&small).expect("parses"),
        parse(&large).expect("parses"),
    );
    assert_linear("emit", &small, &large, |value| timed(|| emit(value)));
}
