//! Order statistics and the result line.

use wasabi::json;
use wasabi::report::JsonValue;

/// One named measurement of the result line.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Latency recorded for a failed request: it misses any limit.
pub const MISSED: f64 = f64::MAX;

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted` values.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Print the result as the last line of standard output.
pub fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let metrics = metrics.iter().map(|m| {
        // A value without a JSON literal (no samples) reads as missed.
        let value = if m.value.is_finite() { m.value } else { MISSED };
        (
            m.name,
            JsonValue::object([
                ("value", JsonValue::Float(value)),
                ("unit", JsonValue::from(m.unit)),
            ]),
        )
    });
    let line = JsonValue::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(attempted as u64)),
        ("failed", JsonValue::UInt(failed as u64)),
        ("metrics", JsonValue::object(metrics)),
    ]);
    println!("{}", json::emit(&line));
}
