//! Launching `wasabid`, driving it in a closed loop through `Client`, and
//! reading its resource use from `/proc/<pid>`.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use wasabi::report::JsonValue;
use wasabi_server::{Client, JobResult, JobSpec, Request as WireRequest};

use crate::expect::Oracle;
use crate::metrics::MISSED;
use crate::workload::{Inputs, Request};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark builds for).
const CLOCK_TICKS: f64 = 100.0;

/// How long the daemon may take to accept its first connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `wasabid` process, killed and reaped when dropped, so no exit
/// path of the load generator leaves it running.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
}

impl Daemon {
    /// Start `binary` serving on the unix socket `socket`, with one fleet
    /// worker per submit and every other setting at its default.
    ///
    /// # Errors
    ///
    /// If the process cannot be started.
    pub fn spawn(binary: &Path, socket: &Path) -> Result<Daemon, String> {
        let log = socket.with_extension("log");
        let stderr =
            fs::File::create(&log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        // The daemon never writes to the load generator's output pipe.
        let child = Command::new(binary)
            .arg("--socket")
            .arg(socket)
            .args(["--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
            log,
        })
    }

    /// Connect to the daemon, retrying until it listens.
    ///
    /// # Errors
    ///
    /// If the daemon exits, or does not accept within [`CONNECT_TIMEOUT`].
    pub fn connect(&mut self) -> Result<Client, String> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        loop {
            match Client::connect_unix(&self.socket) {
                Ok(client) => return Ok(client),
                // The socket file exists from bind(), before listen(): a
                // connect in between is refused, one before it finds no file.
                Err(e)
                    if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::ConnectionRefused)
                        && Instant::now() < deadline =>
                {
                    if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                        let log = fs::read_to_string(&self.log).unwrap_or_default();
                        return Err(format!("wasabid exited ({status}) before listening: {log}"));
                    }
                    thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(format!("cannot connect to wasabid: {e}")),
            }
        }
    }

    /// User plus system CPU time the daemon process has used, in seconds.
    ///
    /// # Errors
    ///
    /// If `/proc/<pid>/stat` cannot be read or parsed.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name is parenthesised and may hold spaces; utime and
        // stime are fields 14 and 15, the 12th and 13th after it.
        let rest = &stat[stat
            .rfind(')')
            .ok_or_else(|| format!("{path}: no command"))?
            + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |index: usize| -> Result<u64, String> {
            fields
                .get(index)
                .and_then(|field| field.parse().ok())
                .ok_or_else(|| format!("{path}: no CPU time field"))
        };
        Ok((ticks(11)? + ticks(12)?) as f64 / CLOCK_TICKS)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// If `/proc/<pid>/status` cannot be read or parsed.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_file(&self.socket);
        let _ = fs::remove_file(&self.log);
    }
}

/// What one daemon session measured.
#[derive(Debug)]
pub struct Session {
    /// From launching the daemon to the first timed request.
    pub setup: Duration,
    /// The timed phase.
    pub timed: Duration,
    /// Each timed request's latency in seconds, in order; [`MISSED`] for a
    /// failed one.
    pub latencies: Vec<f64>,
    /// Daemon CPU time (user plus system) during the timed phase.
    pub cpu_seconds: f64,
    /// Daemon `VmHWM` at the end of the timed phase, in MiB.
    pub peak_rss_mb: f64,
    /// Failed timed requests, counting all of them when setup failed.
    pub failed: usize,
    /// The first failure.
    pub error: Option<String>,
}

/// Launch a daemon, set it up, send the first `count` timed requests of
/// `inputs` in a closed loop, and stop it.
pub fn run_session(
    inputs: &Inputs,
    oracle: &Oracle,
    wasabid: &Path,
    socket: &Path,
    count: usize,
) -> Session {
    let started = Instant::now();
    let ready = set_up(inputs, oracle, wasabid, socket);
    let setup = started.elapsed();
    let mut session = Session {
        setup,
        timed: Duration::ZERO,
        latencies: vec![MISSED; count],
        cpu_seconds: 0.0,
        peak_rss_mb: 0.0,
        failed: count,
        error: None,
    };
    let (daemon, mut client, hashes) = match ready {
        Ok(ready) => ready,
        Err(e) => {
            session.error = Some(format!("setup: {e}"));
            return session;
        }
    };
    let cpu_before = daemon.cpu_seconds();
    let timed_start = Instant::now();
    session.failed = 0;
    for (request, latency) in inputs.timed[..count].iter().zip(&mut session.latencies) {
        let specs = job_specs(request, &hashes);
        let sent = Instant::now();
        let outcome = exchange(&mut client, request, specs);
        let elapsed = sent.elapsed();
        match outcome.and_then(|results| verify(request, &results, oracle)) {
            Ok(()) => *latency = elapsed.as_secs_f64(),
            Err(e) => {
                session.failed += 1;
                session.error.get_or_insert(e);
            }
        }
    }
    session.timed = timed_start.elapsed();
    let usage = cpu_before.and_then(|before| {
        let cpu = daemon.cpu_seconds()? - before;
        Ok((cpu, daemon.peak_rss_mb()?))
    });
    match usage {
        Ok((cpu, rss)) => (session.cpu_seconds, session.peak_rss_mb) = (cpu, rss),
        Err(e) => {
            session.error.get_or_insert(e);
        }
    }
    drop(client);
    drop(daemon);
    session
}

/// Launch, connect, upload the programs and send the warm-up requests.
fn set_up(
    inputs: &Inputs,
    oracle: &Oracle,
    wasabid: &Path,
    socket: &Path,
) -> Result<(Daemon, Client, Vec<String>), String> {
    let mut daemon = Daemon::spawn(wasabid, socket)?;
    let mut client = daemon.connect()?;
    let mut hashes = Vec::new();
    if inputs.preload {
        for program in &inputs.programs {
            let (hash, dedup) = client
                .upload(&program.bytes)
                .map_err(|e| format!("upload {}: {e}", program.name))?;
            if dedup {
                return Err(format!("upload {}: deduplicated", program.name));
            }
            hashes.push(hash);
        }
    }
    for request in &inputs.warmup {
        let specs = job_specs(request, &hashes);
        let results = exchange(&mut client, request, specs)?;
        verify(request, &results, oracle)?;
    }
    Ok((daemon, client, hashes))
}

/// The submit of a request on preloaded modules, built through the wire
/// format as any client would; `None` for a request that uploads first,
/// whose jobs name the hash the upload returns.
pub fn job_specs(request: &Request, hashes: &[String]) -> Option<Vec<JobSpec>> {
    if request.upload.is_some() {
        return None;
    }
    Some(submit_specs(
        request
            .jobs
            .iter()
            .map(|job| (hashes[job.program].as_str(), job.analyses)),
    ))
}

/// `JobSpec`s for `(module hash, analyses)` pairs invoking `main`, parsed
/// from a `submit` frame so that fields added later take their defaults.
pub fn submit_specs<'a>(
    jobs: impl Iterator<Item = (&'a str, &'static [&'static str])>,
) -> Vec<JobSpec> {
    let jobs = jobs.map(|(hash, analyses)| {
        JsonValue::object([
            ("hash", JsonValue::from(hash)),
            (
                "analyses",
                JsonValue::array(analyses.iter().map(|&name| JsonValue::from(name))),
            ),
            ("invoke", JsonValue::from("main")),
        ])
    });
    let frame = JsonValue::object([
        ("type", JsonValue::from("submit")),
        ("jobs", JsonValue::array(jobs)),
    ]);
    match WireRequest::from_json(&frame) {
        Ok(WireRequest::Submit { jobs, .. }) => jobs,
        other => panic!("a well-formed submit frame parses as a submit: {other:?}"),
    }
}

/// One request's round trips: the upload (if any), then the submit and its
/// streamed results up to the `done` frame.
fn exchange(
    client: &mut Client,
    request: &Request,
    specs: Option<Vec<JobSpec>>,
) -> Result<Vec<JobResult>, String> {
    let specs = match (specs, &request.upload) {
        (Some(specs), _) => specs,
        (None, Some(bytes)) => {
            let (hash, dedup) = client.upload(bytes).map_err(|e| format!("upload: {e}"))?;
            if dedup {
                return Err("upload of a new module was deduplicated".to_string());
            }
            submit_specs(request.jobs.iter().map(|job| (hash.as_str(), job.analyses)))
        }
        (None, None) => unreachable!("job_specs builds the specs of requests without uploads"),
    };
    let mut stream = client.submit(specs).map_err(|e| format!("submit: {e}"))?;
    let mut results = Vec::with_capacity(request.jobs.len());
    let mut failure = None;
    for item in &mut stream {
        match item {
            Ok(result) => results.push(result),
            Err(e) => failure = Some(format!("result stream: {e}")),
        }
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    match stream.done() {
        Some(done) if done.jobs == request.jobs.len() as u64 => Ok(results),
        Some(done) => Err(format!(
            "done frame counts {} jobs, {} sent",
            done.jobs,
            request.jobs.len()
        )),
        None => Err("result stream ended without a done frame".to_string()),
    }
}

/// Every job answered exactly once, and every answer matches its reference.
///
/// # Errors
///
/// A message naming the first missing, duplicated or wrong result.
pub fn verify(request: &Request, results: &[JobResult], oracle: &Oracle) -> Result<(), String> {
    let mut seen = vec![false; request.jobs.len()];
    for result in results {
        let job = request
            .jobs
            .get(result.job)
            .ok_or_else(|| format!("result for unknown job {}", result.job))?;
        if std::mem::replace(&mut seen[result.job], true) {
            return Err(format!("two results for job {}", result.job));
        }
        oracle.check(job, result)?;
    }
    match seen.iter().position(|&s| !s) {
        Some(job) => Err(format!("no result for job {job}")),
        None => Ok(()),
    }
}
