//! Entry points shared by the `wasabid` / `wasabi-client` bins and the
//! `wasabi serve` / `wasabi client` subcommands — one implementation,
//! three spellings.

use wasabi::report::JsonValue;
use wasabi_analyses::registry;

use crate::client::{Client, ClientError};
use crate::daemon::{Server, ServerConfig};
use crate::protocol::JobSpec;

/// Render a client failure as the one-line message the bins print,
/// prefixed so a human (or a script) can tell *retry later* from *give
/// up*: daemon backpressure and transport drops are `retryable:`, bad
/// requests are `fatal:`.
fn render_client_error(e: &ClientError) -> String {
    if e.is_retryable() {
        format!("retryable: {e}")
    } else {
        format!("fatal: {e}")
    }
}

const SERVE_USAGE: &str = "\
usage: wasabid [--socket <path> | --tcp <addr>] [options]

Serve wasabi analysis jobs over a socket until drained.

  --socket <path>        unix-domain socket to listen on (default
                         wasabid.sock in the current directory)
  --tcp <addr>           TCP address to listen on instead (e.g.
                         127.0.0.1:7077; port 0 picks an ephemeral port,
                         printed on startup)
  --workers <n>          fleet workers per submit (default: one per core)
  --max-pending <n>      admission bound on daemon-wide in-flight jobs
                         (default 256)
  --cache-capacity <n>   bound on the shared prepared-session cache;
                         0 means unbounded (default 64)
  --disk-cache <dir>     persist prepared sessions to <dir> as a second
                         cache tier (memory -> disk -> build); entries
                         survive daemon restarts, so a fresh daemon
                         serves known modules without rebuilding
  --max-batch <n>        per-submit job cap (a connection handles one
                         submit at a time, so this is also the
                         per-connection in-flight cap; default: none)
  --shed                 when a submit would overflow --max-pending,
                         cancel the oldest in-flight batch to make room
                         instead of refusing the newcomer
  --retries <n>          retry transiently failed jobs up to n times with
                         jittered backoff (default 0)
";

const CLIENT_USAGE: &str = "\
usage: wasabi-client [--socket <path> | --tcp <addr>] <command> [options]

Talk to a running wasabid daemon.

commands:
  upload <file.wasm>     store a module content-addressed; prints its hash
  submit <file.wasm>     upload, then run jobs on it; streams one JSON
                         line per job result as the daemon finishes it
      --analyses <a,b>   analyses to run per job (default: none)
      --invoke <name>    export to invoke (default main)
      --args <v1,v2>     invocation arguments
      --sweep-args <f>   JSON file with an array of argument arrays
                         (e.g. [[1],[2],[3]]); the job runs as one
                         cohort sharing a translated module, and the
                         daemon streams one result line PER INSTANCE,
                         each tagged with its instance index (mutually
                         exclusive with --args)
      --jobs <n>         submit n identical jobs (default 1)
      --deadline-ms <n>  per-job wall-clock deadline; an expired job
                         fails with a structured error, the daemon and
                         its worker survive
      --tag <name>       tag the batch so `cancel <name>` can stop it
                         from another connection
      --retries <n>      if the daemon refuses with a retryable error
                         (queue_full, draining), retry the submit up to
                         n times with backoff (default 0)
  cancel <tag>           fire the cancel tokens of an in-flight batch
                         submitted with --tag <tag>
  status                 print the daemon's status counters as JSON
  drain                  finish in-flight work, refuse new work, exit
  shutdown               stop as soon as in-flight work completes

errors are one line on stderr, prefixed `retryable:` (daemon
backpressure -- try again later) or `fatal:` (the request can never
succeed as written); the exit status is nonzero either way.
";

/// Where to reach (or bind) the daemon.
enum Endpoint {
    Unix(String),
    Tcp(String),
}

fn take_value(
    args: &mut std::vec::IntoIter<String>,
    flag: &str,
    usage: &str,
) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("{flag} needs a value\n\n{usage}"))
}

/// `wasabid` / `wasabi serve`: bind and serve until drained.
///
/// # Errors
///
/// A usage or transport error message for the bin to print and exit
/// non-zero with.
pub fn serve_main(args: Vec<String>) -> Result<(), String> {
    let mut endpoint = Endpoint::Unix("wasabid.sock".to_string());
    let mut config = ServerConfig::new(registry::by_name);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                endpoint = Endpoint::Unix(take_value(&mut args, "--socket", SERVE_USAGE)?)
            }
            "--tcp" => endpoint = Endpoint::Tcp(take_value(&mut args, "--tcp", SERVE_USAGE)?),
            "--workers" => {
                let value = take_value(&mut args, "--workers", SERVE_USAGE)?;
                config.workers = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --workers {value:?}"))?,
                );
            }
            "--max-pending" => {
                let value = take_value(&mut args, "--max-pending", SERVE_USAGE)?;
                config.max_pending = value
                    .parse()
                    .map_err(|_| format!("invalid --max-pending {value:?}"))?;
            }
            "--cache-capacity" => {
                let value = take_value(&mut args, "--cache-capacity", SERVE_USAGE)?;
                let capacity: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --cache-capacity {value:?}"))?;
                config.cache_capacity = (capacity > 0).then_some(capacity);
            }
            "--disk-cache" => {
                config.disk_cache = Some(std::path::PathBuf::from(take_value(
                    &mut args,
                    "--disk-cache",
                    SERVE_USAGE,
                )?));
            }
            "--max-batch" => {
                let value = take_value(&mut args, "--max-batch", SERVE_USAGE)?;
                config.max_batch = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid --max-batch {value:?}"))?,
                );
            }
            "--shed" => config.shed = true,
            "--retries" => {
                let value = take_value(&mut args, "--retries", SERVE_USAGE)?;
                config.retries = value
                    .parse()
                    .map_err(|_| format!("invalid --retries {value:?}"))?;
            }
            "--help" | "-h" => {
                print!("{SERVE_USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}\n\n{SERVE_USAGE}")),
        }
    }

    let server = match &endpoint {
        Endpoint::Unix(path) => Server::bind_unix(path, config.clone()),
        Endpoint::Tcp(addr) => Server::bind_tcp(addr, config.clone()),
    }
    .map_err(|e| format!("cannot bind: {e}"))?;
    eprintln!(
        "wasabid: listening on {} (workers={}, max-pending={}, cache-capacity={}, disk-cache={})",
        server.addr(),
        config
            .workers
            .map_or_else(|| "auto".to_string(), |w| w.to_string()),
        config.max_pending,
        config
            .cache_capacity
            .map_or_else(|| "unbounded".to_string(), |c| c.to_string()),
        config
            .disk_cache
            .as_ref()
            .map_or_else(|| "off".to_string(), |d| d.display().to_string()),
    );
    server.serve().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!("wasabid: drained, exiting");
    Ok(())
}

fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    match endpoint {
        Endpoint::Unix(path) => Client::connect_unix(path),
        Endpoint::Tcp(addr) => Client::connect_tcp(addr),
    }
    .map_err(|e| format!("cannot connect: {e}"))
}

/// `wasabi-client` / `wasabi client`: one command against a daemon.
///
/// # Errors
///
/// A usage, transport, or daemon-refusal message for the bin to print
/// and exit non-zero with.
pub fn client_main(args: Vec<String>) -> Result<(), String> {
    let mut endpoint = Endpoint::Unix("wasabid.sock".to_string());
    let mut args = args.into_iter();
    let command = loop {
        match args.next() {
            Some(arg) => match arg.as_str() {
                "--socket" => {
                    endpoint = Endpoint::Unix(take_value(&mut args, "--socket", CLIENT_USAGE)?);
                }
                "--tcp" => endpoint = Endpoint::Tcp(take_value(&mut args, "--tcp", CLIENT_USAGE)?),
                "--help" | "-h" => {
                    print!("{CLIENT_USAGE}");
                    return Ok(());
                }
                command => break command.to_string(),
            },
            None => return Err(format!("no command given\n\n{CLIENT_USAGE}")),
        }
    };

    match command.as_str() {
        "upload" => {
            let path = take_value(&mut args, "upload", CLIENT_USAGE)?;
            let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut client = connect(&endpoint)?;
            let (hash, dedup) = client.upload(&bytes).map_err(|e| e.to_string())?;
            println!(
                "{}",
                JsonValue::object([
                    ("hash", JsonValue::from(hash)),
                    ("dedup", JsonValue::from(dedup)),
                ])
            );
            Ok(())
        }
        "submit" => {
            let path = take_value(&mut args, "submit", CLIENT_USAGE)?;
            let mut analyses: Vec<String> = Vec::new();
            let mut invoke = "main".to_string();
            let mut invoke_args: Vec<JsonValue> = Vec::new();
            let mut sweep_args: Option<Vec<Vec<JsonValue>>> = None;
            let mut jobs = 1usize;
            let mut deadline_ms: Option<u64> = None;
            let mut tag = String::new();
            let mut retries = 0u32;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--analyses" => {
                        analyses = take_value(&mut args, "--analyses", CLIENT_USAGE)?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                    }
                    "--invoke" => invoke = take_value(&mut args, "--invoke", CLIENT_USAGE)?,
                    "--args" => {
                        invoke_args = take_value(&mut args, "--args", CLIENT_USAGE)?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(|s| JsonValue::from(s.to_string()))
                            .collect();
                    }
                    "--sweep-args" => {
                        let path = take_value(&mut args, "--sweep-args", CLIENT_USAGE)?;
                        let text = std::fs::read_to_string(&path)
                            .map_err(|e| format!("cannot read {path}: {e}"))?;
                        let parsed = wasabi::json::parse(&text)
                            .map_err(|e| format!("cannot parse {path}: {e}"))?;
                        let rows = parsed.as_array().ok_or_else(|| {
                            format!("{path}: sweep inputs must be a JSON array of argument arrays")
                        })?;
                        sweep_args = Some(
                            rows.iter()
                                .enumerate()
                                .map(|(index, row)| {
                                    row.as_array().map(<[JsonValue]>::to_vec).ok_or_else(|| {
                                        format!("{path}: sweep entry {index} must be an array")
                                    })
                                })
                                .collect::<Result<Vec<_>, _>>()?,
                        );
                    }
                    "--jobs" => {
                        let value = take_value(&mut args, "--jobs", CLIENT_USAGE)?;
                        jobs = value
                            .parse()
                            .map_err(|_| format!("invalid --jobs {value:?}"))?;
                    }
                    "--deadline-ms" => {
                        let value = take_value(&mut args, "--deadline-ms", CLIENT_USAGE)?;
                        deadline_ms = Some(
                            value
                                .parse()
                                .map_err(|_| format!("invalid --deadline-ms {value:?}"))?,
                        );
                    }
                    "--tag" => tag = take_value(&mut args, "--tag", CLIENT_USAGE)?,
                    "--retries" => {
                        let value = take_value(&mut args, "--retries", CLIENT_USAGE)?;
                        retries = value
                            .parse()
                            .map_err(|_| format!("invalid --retries {value:?}"))?;
                    }
                    other => return Err(format!("unknown argument {other:?}\n\n{CLIENT_USAGE}")),
                }
            }
            if sweep_args.is_some() && !invoke_args.is_empty() {
                return Err(format!(
                    "--sweep-args and --args are mutually exclusive\n\n{CLIENT_USAGE}"
                ));
            }
            let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut client = connect(&endpoint)?;
            let (hash, _) = client.upload(&bytes).map_err(|e| render_client_error(&e))?;
            let specs: Vec<JobSpec> = (0..jobs)
                .map(|_| JobSpec {
                    hash: hash.clone(),
                    analyses: analyses.clone(),
                    invoke: invoke.clone(),
                    args: invoke_args.clone(),
                    sweep_args: sweep_args.clone(),
                    deadline_ms,
                })
                .collect();
            let mut failures = 0usize;
            let mut attempt = 0u32;
            // A refused submit with budget left (queue_full, draining)
            // retries with backoff; anything else — including per-job
            // failures — streams through once.
            let done = loop {
                let mut stream = client
                    .submit_tagged(specs.clone(), &tag)
                    .map_err(|e| render_client_error(&e))?;
                let first = stream.next();
                if let Some(Err(e)) = &first {
                    if e.is_retryable() && attempt < retries {
                        attempt += 1;
                        eprintln!("retryable: {e}; retrying submit ({attempt}/{retries})");
                        std::thread::sleep(std::time::Duration::from_millis(
                            50u64 << attempt.min(5),
                        ));
                        continue;
                    }
                }
                for result in first.into_iter().chain(&mut stream) {
                    let result = result.map_err(|e| render_client_error(&e))?;
                    match &result.results {
                        Ok(values) => {
                            // Same line shape as `wasabi --batch`, so outputs
                            // are directly comparable job-for-job. Sweep
                            // frames additionally carry the instance index.
                            let mut pairs = vec![("job", JsonValue::from(result.job))];
                            if let Some(instance) = result.instance {
                                pairs.push(("instance", JsonValue::from(u64::from(instance))));
                            }
                            pairs.extend([
                                ("module", JsonValue::from(result.hash.clone())),
                                ("invoke", JsonValue::from(result.invoke.clone())),
                                (
                                    "results",
                                    JsonValue::array(
                                        values.iter().map(|v| JsonValue::from(v.clone())),
                                    ),
                                ),
                                (
                                    "reports",
                                    JsonValue::array(result.reports.iter().map(|r| {
                                        JsonValue::object([
                                            ("analysis", JsonValue::from(r.analysis.clone())),
                                            ("data", r.data.clone()),
                                        ])
                                    })),
                                ),
                                ("cache_hit", JsonValue::from(result.cache_hit)),
                            ]);
                            let line = JsonValue::object(pairs);
                            println!("{line}");
                        }
                        Err(error) => {
                            failures += 1;
                            let instance = result
                                .instance
                                .map_or_else(String::new, |i| format!(" instance {i}"));
                            eprintln!(
                                "job {}{instance} ({}): FAILED: {error}",
                                result.job, result.hash
                            );
                        }
                    }
                }
                break stream.done();
            };
            let done = done.ok_or_else(|| "stream ended without a done frame".to_string())?;
            eprintln!(
                "client: {} job(s) in {:.1} ms ({} cache hit(s), {} miss(es), {} failure(s))",
                done.jobs, done.wall_ms, done.cache_hits, done.cache_misses, failures,
            );
            if failures > 0 {
                return Err(format!("{failures} job(s) failed"));
            }
            Ok(())
        }
        "cancel" => {
            let tag = take_value(&mut args, "cancel", CLIENT_USAGE)?;
            let mut client = connect(&endpoint)?;
            let jobs = client.cancel(&tag).map_err(|e| render_client_error(&e))?;
            eprintln!("cancelled {jobs} job(s) tagged {tag:?}");
            Ok(())
        }
        "status" => {
            let mut client = connect(&endpoint)?;
            let status = client.status().map_err(|e| render_client_error(&e))?;
            println!("{}", crate::protocol::Response::Status(status).to_json());
            Ok(())
        }
        "drain" => {
            let mut client = connect(&endpoint)?;
            let in_flight = client.drain().map_err(|e| render_client_error(&e))?;
            eprintln!("draining ({in_flight} job(s) in flight)");
            Ok(())
        }
        "shutdown" => {
            let mut client = connect(&endpoint)?;
            client.shutdown().map_err(|e| render_client_error(&e))?;
            eprintln!("shutting down");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{CLIENT_USAGE}")),
    }
}
