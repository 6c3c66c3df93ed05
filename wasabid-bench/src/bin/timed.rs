//! `--trace 0`: the end-to-end metrics of one workload.
//!
//! Runs daemon sessions back to back until their timed phases add up to
//! `--seconds` (and at least [`MIN_SESSIONS`] of them). Each session
//! launches a fresh `wasabid`, sets it up, and sends the workload's fixed
//! request sequence in a closed loop over one connection. Every result and
//! report is checked against the references, which are computed before the
//! first session.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wasabid_bench::daemon::{run_session, Session};
use wasabid_bench::expect::Oracle;
use wasabid_bench::metrics::{median, percentile, print_result, Metric};
use wasabid_bench::options::Options;
use wasabid_bench::workload;

/// Set-up time is the median over sessions; this many give it a middle.
const MIN_SESSIONS: usize = 3;
/// No session starts after this long, so a run ends well inside its limit.
const LAST_START_S: f64 = 120.0;

fn main() -> ExitCode {
    match Options::from_args().and_then(|options| run(&options)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wasabid-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: &Options) -> Result<(), String> {
    let inputs = workload::generate(options.workload, options.seed)?;
    let oracle = Oracle::new(&inputs)?;
    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut timed = 0.0;
    while sessions.len() < MIN_SESSIONS
        || (timed < options.seconds && started.elapsed().as_secs_f64() < LAST_START_S)
    {
        let socket = PathBuf::from(format!(
            "wasabid-{}-{}.sock",
            std::process::id(),
            sessions.len()
        ));
        let session = run_session(
            &inputs,
            &oracle,
            &options.wasabid,
            &socket,
            inputs.timed.len(),
        );
        timed += session.timed.as_secs_f64();
        let mut sorted = session.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        eprintln!(
            "session {}: setup {:.4} s, {:.2} requests/s, p50 {:.4} ms, cpu {:.3} s, peak rss {:.1} MB",
            sessions.len(),
            session.setup.as_secs_f64(),
            sorted.len() as f64 / session.timed.as_secs_f64(),
            percentile(&sorted, 0.5) * 1e3,
            session.cpu_seconds,
            session.peak_rss_mb,
        );
        let failed = session.error.is_some();
        if let Some(e) = &session.error {
            eprintln!("wasabid-bench: session {}: {e}", sessions.len());
        }
        sessions.push(session);
        if failed {
            break;
        }
    }

    let requests: usize = sessions.iter().map(|s| s.latencies.len()).sum();
    let failed: usize = sessions.iter().map(|s| s.failed).sum();
    // Every figure is the median over sessions: a slow phase of the host
    // that covers fewer than half of them does not move it.
    let per_session =
        |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let quantile = |q: f64| {
        per_session(&|s: &Session| {
            let mut sorted = s.latencies.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, q) * 1e3
        })
    };
    let metrics = [
        Metric {
            name: "requests_per_s",
            value: per_session(&|s| {
                let completed = (s.latencies.len() - s.failed) as f64;
                if completed > 0.0 {
                    completed / s.timed.as_secs_f64()
                } else {
                    0.0
                }
            }),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: quantile(0.50),
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms",
            value: quantile(0.90),
            unit: "ms",
        },
        Metric {
            name: "cpu_ms_per_request",
            value: per_session(&|s| s.cpu_seconds * 1e3 / s.latencies.len() as f64),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: per_session(&|s| s.peak_rss_mb),
            unit: "MB",
        },
        Metric {
            name: "setup_s",
            value: per_session(&|s| s.setup.as_secs_f64()),
            unit: "s",
        },
    ];
    print_result(failed == 0, requests, failed, &metrics);
    Ok(())
}
