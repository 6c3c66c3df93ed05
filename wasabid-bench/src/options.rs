//! Command-line options shared by the `timed` and `replay` binaries.

use std::path::PathBuf;

use crate::workload::Workload;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase, summed over daemon sessions.
    pub seconds: f64,
    /// The `wasabid` binary to drive.
    pub wasabid: PathBuf,
}

const USAGE: &str =
    "usage: <timed|replay> --workload <name> --seed <n> --seconds <s> --wasabid <path>";

impl Options {
    /// Parse `--workload`, `--seed`, `--seconds` and `--wasabid` from the
    /// process arguments.
    ///
    /// # Errors
    ///
    /// A usage message naming the missing or invalid flag.
    pub fn from_args() -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut wasabid = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                    )
                }
                // Any integer seeds the inputs; a negative one by its bits.
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .or_else(|_| value.parse::<i64>().map(|seed| seed as u64))
                            .map_err(|_| format!("invalid --seed {value:?}"))?,
                    )
                }
                "--seconds" => {
                    let parsed: f64 = value
                        .parse()
                        .map_err(|_| format!("invalid --seconds {value:?}"))?;
                    if !(parsed > 0.0 && parsed.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value:?}"));
                    }
                    seconds = Some(parsed);
                }
                "--wasabid" => wasabid = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        let missing = |flag: &str| format!("missing {flag}\n{USAGE}");
        Ok(Options {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            wasabid: wasabid.ok_or_else(|| missing("--wasabid"))?,
        })
    }
}
