//! Complexity regression test for `FrameReader::poll`: a frame whose
//! payload is twice as long may take at most 3x as long to assemble, so a
//! buffer or scan that is quadratic in the payload (about 4x per doubling)
//! fails here. Upload frames carry whole hex-encoded modules and arrive in
//! socket-sized reads, so the reader is fed at most 4 KiB per read.
//!
//! Times are the minimum over several interleaved runs, the least
//! disturbed estimate of each size's cost (as in the core crate's
//! `json_complexity.rs`). The test has a binary of its own, so no other
//! test competes for the CPU while it measures.

use std::io::{self, Read};
use std::time::{Duration, Instant};

use wasabi::report::JsonValue;
use wasabi_server::{write_frame, FrameReader};

/// Timings per size; the fastest counts.
const RUNS: usize = 15;

/// The most bytes one read hands the frame reader.
const READ_SIZE: usize = 4 * 1024;

/// A reader that hands out its bytes at most [`READ_SIZE`] at a time,
/// like a socket under load.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(READ_SIZE).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// The payload string: `kib` KiB of hex digits.
fn hex(kib: usize) -> String {
    (0..kib * 1024)
        .map(|i| char::from(b"0123456789abcdef"[i % 16]))
        .collect()
}

/// One whole frame whose payload is a JSON string of `kib` KiB.
fn frame(kib: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &JsonValue::Str(hex(kib))).expect("writes");
    bytes
}

/// Wall time of one `poll` that assembles the whole of `bytes`, without
/// the drop of the parsed value.
fn assemble(bytes: &[u8]) -> Duration {
    let mut reader = Trickle(bytes);
    let mut frames = FrameReader::new();
    let start = Instant::now();
    let value = frames.poll(&mut reader).expect("reads").expect("one frame");
    let elapsed = start.elapsed();
    assert!(reader.0.is_empty(), "the frame used every byte");
    drop(value);
    elapsed
}

#[test]
fn frame_assembly_time_is_linear_in_payload_length() {
    let (small, large) = (frame(512), frame(1024));
    let mut reader = Trickle(&large);
    assert_eq!(
        FrameReader::new().poll(&mut reader).expect("reads"),
        Some(JsonValue::Str(hex(1024)))
    );

    let (mut small_best, mut large_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        small_best = small_best.min(assemble(&small));
        large_best = large_best.min(assemble(&large));
    }
    let ratio = large_best.as_secs_f64() / small_best.as_secs_f64();
    assert!(
        ratio <= 3.0,
        "doubling the payload from 512 KiB to 1 MiB multiplied frame assembly time by \
         {ratio:.2} ({small_best:?} -> {large_best:?}); linear would be about 2"
    );
}
