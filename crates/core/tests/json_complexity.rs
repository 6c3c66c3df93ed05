//! Complexity regression test for `wasabi::json::parse`: a document with a
//! string twice as long may take at most 3x as long to parse, so a string
//! scan that is quadratic in the string's length (about 4x per doubling)
//! fails here. Module uploads are such strings: hex-encoded bytes inside a
//! protocol frame.
//!
//! Times are the minimum over several interleaved runs, the least
//! disturbed estimate of each size's cost; the test has a binary of its
//! own so no other test competes for the CPU while it measures.

use std::time::{Duration, Instant};

use wasabi::json::parse;

/// Parses per size; the fastest counts.
const RUNS: usize = 15;

/// An upload-shaped document: one hex string of `kib` KiB.
fn upload(kib: usize) -> String {
    let hex: String = (0..kib * 1024)
        .map(|i| char::from(b"0123456789abcdef"[i % 16]))
        .collect();
    format!("{{\"op\":\"upload\",\"bytes\":\"{hex}\"}}")
}

fn parse_time(text: &str) -> Duration {
    let start = Instant::now();
    let value = parse(text).expect("parses");
    let elapsed = start.elapsed();
    drop(value);
    elapsed
}

#[test]
fn string_parse_time_is_linear_in_length() {
    let small = upload(64);
    let large = upload(128);
    let (mut small_best, mut large_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        small_best = small_best.min(parse_time(&small));
        large_best = large_best.min(parse_time(&large));
    }
    let ratio = large_best.as_secs_f64() / small_best.as_secs_f64();
    assert!(
        ratio <= 3.0,
        "doubling the string from 64 to 128 KiB multiplied parse time by {ratio:.2} \
         ({small_best:?} -> {large_best:?}); linear would be about 2"
    );
}
