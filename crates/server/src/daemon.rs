//! The `wasabid` daemon: a persistent analysis service.
//!
//! One daemon process owns what the one-shot CLI rebuilds on every run:
//! a [`ContentStore`] of uploaded modules and a **bounded, process-wide**
//! [`wasabi::ModuleCache`] of prepared (instrumented + translated)
//! sessions. Clients connect over a unix-domain or TCP socket, speak the
//! length-prefixed frame protocol of [`crate::protocol`], and submit
//! analysis jobs that execute on a [`wasabi::Fleet`] of workers —
//! results **stream back per job as each finishes**, so a client sees
//! its first result while later jobs are still running.
//!
//! # Lifecycle
//!
//! ```text
//! accepting ──drain──▶ draining ──in-flight hits 0──▶ stopped
//!     │                                                  ▲
//!     └───────────────── shutdown ──────────────────────-┘
//! ```
//!
//! *Accepting* serves everything. *Draining* refuses `upload`/`submit`
//! with a structured `draining` error but still answers `status`, lets
//! in-flight jobs finish streaming, then stops. `shutdown` jumps straight
//! to *stopped*: idle connections close at their next read tick, and
//! [`Server::serve`] still waits for any in-flight jobs before returning
//! (worker threads cannot be cancelled, only joined).
//!
//! # Admission control
//!
//! A `submit` is admitted only if it keeps the daemon-wide in-flight job
//! count within [`ServerConfig::max_pending`]; otherwise the *whole*
//! request is refused with `queue_full` and nothing runs — the client
//! retries after draining results. Backpressure is therefore visible at
//! the protocol level instead of an unbounded internal queue.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use wasabi::fleet::{AnalysisFactory, Fleet};
use wasabi::report::JsonValue;
use wasabi::{stats, CancelToken, DiskCache, Job, ModuleCache};
use wasabi_wasm::instr::Val;

use crate::protocol::{
    export_params, typed_args, write_frame, ErrorCode, FrameError, FrameReader, JobResult, Request,
    RequestError, Response,
};
use crate::store::ContentStore;

/// How the daemon is built: worker count, admission bound, cache bound,
/// and the analysis registry its fleets construct from.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fleet workers per `submit` (`None`: the fleet's own default, one
    /// per available core).
    pub workers: Option<usize>,
    /// Admission bound: the daemon-wide in-flight job count a `submit`
    /// may not push past (requests that would are refused `queue_full`).
    pub max_pending: u64,
    /// Capacity of the shared prepared-session cache (`None`: unbounded).
    pub cache_capacity: Option<usize>,
    /// Directory for the on-disk prepared-session cache tier (`None`:
    /// memory only). Entries persist across daemon restarts, so a fresh
    /// daemon serves known modules without rebuilding them.
    pub disk_cache: Option<PathBuf>,
    /// Per-submit batch size cap (`None`: only `max_pending` bounds a
    /// submit). Because a connection handles one submit at a time, this
    /// is also the per-connection in-flight cap.
    pub max_batch: Option<u64>,
    /// Load-shedding: when a submit would overflow `max_pending`, cancel
    /// the **oldest** in-flight batch to make room instead of refusing
    /// the newcomer outright (default off: refuse with `queue_full`).
    pub shed: bool,
    /// Transient-failure retries per job (jittered backoff, fleet-side).
    pub retries: u32,
    /// Constructs analyses by registry name for every job.
    pub factory: AnalysisFactory,
}

impl ServerConfig {
    /// Defaults (fleet-default workers, 256 pending jobs, 64 cached
    /// sessions) around the given analysis factory.
    pub fn new(factory: AnalysisFactory) -> Self {
        ServerConfig {
            workers: None,
            max_pending: 256,
            cache_capacity: Some(64),
            disk_cache: None,
            max_batch: None,
            shed: false,
            retries: 0,
            factory,
        }
    }
}

/// The daemon's lifecycle state (see the module docs for the diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Serving all requests.
    Accepting,
    /// Refusing new work, finishing in-flight jobs.
    Draining,
    /// Exiting; connections close at their next tick.
    Stopped,
}

impl Lifecycle {
    /// The wire name used in `status` responses.
    pub fn as_str(self) -> &'static str {
        match self {
            Lifecycle::Accepting => "accepting",
            Lifecycle::Draining => "draining",
            Lifecycle::Stopped => "stopped",
        }
    }

    fn from_u8(v: u8) -> Lifecycle {
        match v {
            0 => Lifecycle::Accepting,
            1 => Lifecycle::Draining,
            _ => Lifecycle::Stopped,
        }
    }
}

/// One in-flight tagged batch: its cancel tokens, registered for the
/// duration of its fleet run so `cancel` requests and load-shedding can
/// fire them from other connections.
struct BatchEntry {
    id: u64,
    tag: String,
    tokens: Vec<CancelToken>,
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    config: ServerConfig,
    store: ContentStore,
    cache: Arc<ModuleCache>,
    lifecycle: AtomicU8,
    in_flight: AtomicU64,
    jobs_done: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    /// In-flight batches in registration order (oldest first — the shed
    /// victim order).
    batches: Mutex<Vec<BatchEntry>>,
    /// Monotonic id handed to each registered batch so deregistration
    /// removes exactly its own entry.
    batch_seq: AtomicU64,
}

impl Shared {
    fn lifecycle(&self) -> Lifecycle {
        Lifecycle::from_u8(self.lifecycle.load(Ordering::SeqCst))
    }

    fn set_lifecycle(&self, state: Lifecycle) {
        self.lifecycle.store(state as u8, Ordering::SeqCst);
    }

    fn register_batch(&self, tag: &str, tokens: Vec<CancelToken>) -> u64 {
        let id = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        self.batches
            .lock()
            .expect("batch registry")
            .push(BatchEntry {
                id,
                tag: tag.to_string(),
                tokens,
            });
        id
    }

    fn deregister_batch(&self, id: u64) {
        self.batches
            .lock()
            .expect("batch registry")
            .retain(|entry| entry.id != id);
    }

    /// Fire the cancel tokens of every in-flight batch tagged `tag`.
    /// Returns the number of jobs whose token was fired.
    fn cancel_tag(&self, tag: &str) -> u64 {
        let batches = self.batches.lock().expect("batch registry");
        let mut fired = 0u64;
        for entry in batches.iter().filter(|entry| entry.tag == tag) {
            for token in &entry.tokens {
                token.cancel();
                fired += 1;
            }
        }
        fired
    }

    /// Load-shedding victim selection: fire the tokens of the oldest
    /// in-flight batch. Returns `false` when nothing is sheddable.
    fn shed_oldest(&self) -> bool {
        let batches = self.batches.lock().expect("batch registry");
        match batches.first() {
            Some(oldest) => {
                for token in &oldest.tokens {
                    token.cancel();
                }
                true
            }
            None => false,
        }
    }

    /// The `status` reply, in wire order. [`Response::Status`] says which
    /// counters are this daemon's own and which are process-wide.
    fn status(&self) -> JsonValue {
        let count = |counter: &AtomicU64| JsonValue::from(counter.load(Ordering::Relaxed));
        let ms = |time: Duration| JsonValue::from(time.as_secs_f64() * 1e3);
        JsonValue::object([
            ("state", JsonValue::from(self.lifecycle().as_str())),
            ("uploads", self.store.uploads().into()),
            ("dedup_hits", self.store.dedup_hits().into()),
            ("modules", self.store.len().into()),
            ("cache_hits", self.cache.hits().into()),
            ("cache_misses", self.cache.misses().into()),
            ("cache_entries", self.cache.len().into()),
            ("cache_evictions", self.cache.evictions().into()),
            ("disk_cache_hits", self.cache.disk_hits().into()),
            ("disk_cache_misses", self.cache.disk_misses().into()),
            ("build_ms", ms(stats::fused_build_time())),
            ("build_worker_ms", ms(stats::build_worker_time())),
            ("jobs_done", count(&self.jobs_done)),
            ("in_flight", count(&self.in_flight)),
            ("connections", count(&self.connections)),
            ("requests", count(&self.requests)),
            ("timeouts", stats::job_timeouts().into()),
            ("cancellations", stats::job_cancellations().into()),
            ("retries", stats::job_retries().into()),
            ("sheds", stats::server_sheds().into()),
            ("faults_injected", stats::faults_injected().into()),
        ])
    }
}

/// An accepted client connection (unix-domain or TCP), unified so the
/// handler is transport-agnostic.
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn configure(&self) -> io::Result<()> {
        // Blocking reads with a short timeout: the resumable FrameReader
        // turns each timeout into an idle tick where the handler checks
        // the daemon lifecycle.
        let timeout = Some(Duration::from_millis(50));
        match self {
            Conn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)
            }
            Conn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// A bound, not-yet-serving daemon. [`Server::serve`] runs the accept
/// loop until a `drain`/`shutdown` request completes the lifecycle.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    socket_path: Option<PathBuf>,
    addr: String,
}

impl Server {
    /// Bind a unix-domain socket at `path` (a stale socket file from a
    /// previous run is removed first).
    ///
    /// # Errors
    ///
    /// Transport errors from binding.
    pub fn bind_unix(path: impl AsRef<Path>, config: ServerConfig) -> io::Result<Server> {
        let path = path.as_ref();
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener: Listener::Unix(listener),
            shared: Server::shared(config),
            socket_path: Some(path.to_path_buf()),
            addr: path.display().to_string(),
        })
    }

    /// Bind a TCP socket at `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port — read the chosen one back with [`Server::addr`]).
    ///
    /// # Errors
    ///
    /// Transport errors from binding.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        Ok(Server {
            listener: Listener::Tcp(listener),
            shared: Server::shared(config),
            socket_path: None,
            addr,
        })
    }

    fn shared(config: ServerConfig) -> Arc<Shared> {
        let mut cache = match config.cache_capacity {
            Some(capacity) => ModuleCache::bounded(capacity),
            None => ModuleCache::new(),
        };
        if let Some(dir) = &config.disk_cache {
            // A broken disk tier degrades the daemon, it never stops it:
            // fall back to memory-only and say so.
            match DiskCache::new(dir) {
                Ok(disk) => cache = cache.with_disk(disk),
                Err(e) => eprintln!(
                    "wasabid: cannot open disk cache {}: {e} (continuing memory-only)",
                    dir.display()
                ),
            }
        }
        Arc::new(Shared {
            config,
            store: ContentStore::new(),
            cache: Arc::new(cache),
            lifecycle: AtomicU8::new(Lifecycle::Accepting as u8),
            in_flight: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batches: Mutex::new(Vec::new()),
            batch_seq: AtomicU64::new(0),
        })
    }

    /// The bound address: the socket path, or `host:port` with the real
    /// port for TCP binds to port 0.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Run the daemon: accept connections and serve them on handler
    /// threads until a `drain` or `shutdown` request moves the lifecycle
    /// past accepting, then finish in-flight jobs, close connections, and
    /// return. The unix socket file is removed on the way out.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop transport errors (per-connection errors only end
    /// that connection).
    pub fn serve(self) -> io::Result<()> {
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        while self.shared.lifecycle() == Lifecycle::Accepting {
            match self.listener.accept() {
                Ok(conn) => {
                    // Drop the handles of finished handlers: an exited
                    // thread keeps its stack mapped until its handle is
                    // joined or dropped.
                    handlers.retain(|handler| !handler.is_finished());
                    let shared = Arc::clone(&self.shared);
                    handlers.push(thread::spawn(move || handle_connection(&shared, conn)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Draining (or already stopped): no new connections. Wait for
        // in-flight jobs to finish streaming, then tell handlers to close.
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.set_lifecycle(Lifecycle::Stopped);
        for handler in handlers {
            let _ = handler.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Serve one connection until the peer closes, a transport error, or the
/// daemon stops.
fn handle_connection(shared: &Shared, mut conn: Conn) {
    if conn.configure().is_err() {
        return;
    }
    shared.connections.fetch_add(1, Ordering::Relaxed);

    let mut frames = FrameReader::new();
    loop {
        match frames.poll(&mut conn) {
            Ok(None) => {
                if shared.lifecycle() == Lifecycle::Stopped {
                    break;
                }
            }
            Ok(Some(value)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if dispatch(shared, &mut conn, &value).is_err() {
                    break;
                }
            }
            // A malformed payload gets a structured error and the
            // connection lives on: the framing layer is still aligned.
            Err(FrameError::Malformed(message)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if respond_error(&mut conn, ErrorCode::MalformedFrame, &message).is_err() {
                    break;
                }
            }
            // An oversized prefix cannot be skipped without trusting the
            // lie; answer, then close.
            Err(FrameError::TooLarge(len)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let _ = respond_error(
                    &mut conn,
                    ErrorCode::FrameTooLarge,
                    &format!("frame of {len} bytes exceeds the cap"),
                );
                break;
            }
            Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => break,
        }
    }
}

fn respond(conn: &mut Conn, response: &Response) -> io::Result<()> {
    write_frame(conn, &response.to_json())
}

fn respond_error(conn: &mut Conn, code: ErrorCode, message: &str) -> io::Result<()> {
    respond(
        conn,
        &Response::Error {
            code,
            message: message.to_string(),
        },
    )
}

fn dispatch(shared: &Shared, conn: &mut Conn, value: &JsonValue) -> io::Result<()> {
    let request = match Request::from_json(value) {
        Ok(request) => request,
        Err(RequestError::Unknown(kind)) => {
            return respond_error(
                conn,
                ErrorCode::UnknownRequest,
                &format!("unknown request type {kind:?}"),
            );
        }
        Err(RequestError::Bad(message)) => {
            return respond_error(conn, ErrorCode::BadRequest, &message);
        }
    };

    match request {
        Request::Upload { bytes } => {
            if shared.lifecycle() != Lifecycle::Accepting {
                return respond_error(conn, ErrorCode::Draining, "daemon is draining");
            }
            match shared.store.insert(&bytes) {
                Ok(receipt) => respond(
                    conn,
                    &Response::Uploaded {
                        hash: receipt.hash,
                        dedup: receipt.dedup,
                        modules: shared.store.len() as u64,
                    },
                ),
                Err(e) => respond_error(conn, ErrorCode::InvalidModule, &e.to_string()),
            }
        }
        Request::Submit { jobs, tag } => handle_submit(shared, conn, &jobs, &tag),
        // Cancellation works in every lifecycle state: it only helps a
        // draining daemon reach idle faster.
        Request::Cancel { tag } => {
            let jobs = shared.cancel_tag(&tag);
            respond(conn, &Response::Cancelled { jobs })
        }
        Request::Status => respond(conn, &Response::Status(shared.status())),
        Request::Drain => {
            // Idempotent; never moves the lifecycle backwards.
            if shared.lifecycle() == Lifecycle::Accepting {
                shared.set_lifecycle(Lifecycle::Draining);
            }
            respond(
                conn,
                &Response::Draining {
                    in_flight: shared.in_flight.load(Ordering::SeqCst),
                },
            )
        }
        Request::Shutdown => {
            let result = respond(conn, &Response::ShuttingDown);
            shared.set_lifecycle(Lifecycle::Stopped);
            result
        }
    }
}

/// Try to reserve `n` in-flight slots. Optimistically adds, rolls back
/// on overflow.
fn try_reserve(shared: &Shared, n: u64) -> Result<(), u64> {
    let previous = shared.in_flight.fetch_add(n, Ordering::SeqCst);
    if previous + n > shared.config.max_pending {
        shared.in_flight.fetch_sub(n, Ordering::SeqCst);
        Err(previous)
    } else {
        Ok(())
    }
}

/// A job's typed invocation inputs: one argument list, or one list per
/// cohort instance for sweep jobs.
enum ResolvedArgs {
    Single(Vec<Val>),
    Sweep(Vec<Vec<Val>>),
}

fn handle_submit(
    shared: &Shared,
    conn: &mut Conn,
    jobs: &[crate::protocol::JobSpec],
    tag: &str,
) -> io::Result<()> {
    if shared.lifecycle() != Lifecycle::Accepting {
        return respond_error(conn, ErrorCode::Draining, "daemon is draining");
    }
    if let Some(max_batch) = shared.config.max_batch {
        if jobs.len() as u64 > max_batch {
            return respond_error(
                conn,
                ErrorCode::BadRequest,
                &format!(
                    "batch of {} job(s) exceeds the per-submit cap of {max_batch}",
                    jobs.len()
                ),
            );
        }
    }

    // Resolve every job before admitting any: a submit is atomic — it
    // either runs whole or is refused with the first problem found.
    let mut resolved = Vec::with_capacity(jobs.len());
    for (index, spec) in jobs.iter().enumerate() {
        let Some(module) = shared.store.get(&spec.hash) else {
            return respond_error(
                conn,
                ErrorCode::UnknownModule,
                &format!("job {index}: module {} was never uploaded", spec.hash),
            );
        };
        let params = match export_params(&module, &spec.invoke) {
            Ok(params) => params,
            Err(e) => {
                return respond_error(conn, ErrorCode::BadRequest, &format!("job {index}: {e}"))
            }
        };
        // A sweep job types every input row against the export's
        // signature; an ordinary job types its single argument list.
        let args = if let Some(rows) = &spec.sweep_args {
            if rows.is_empty() {
                return respond_error(
                    conn,
                    ErrorCode::BadRequest,
                    &format!("job {index}: sweep_args is empty (need at least one argument array)"),
                );
            }
            let mut inputs = Vec::with_capacity(rows.len());
            for (row_index, row) in rows.iter().enumerate() {
                match typed_args(row, &params) {
                    Ok(vals) => inputs.push(vals),
                    Err(e) => {
                        return respond_error(
                            conn,
                            ErrorCode::BadRequest,
                            &format!("job {index}: sweep entry {row_index}: {e}"),
                        )
                    }
                }
            }
            ResolvedArgs::Sweep(inputs)
        } else {
            match typed_args(&spec.args, &params) {
                Ok(args) => ResolvedArgs::Single(args),
                Err(e) => {
                    return respond_error(conn, ErrorCode::BadRequest, &format!("job {index}: {e}"))
                }
            }
        };
        resolved.push((spec, module, args));
    }

    // Admission control: reserve or refuse. With `--shed`, one overflow
    // cancels the oldest in-flight batch and re-polls briefly — newest
    // work wins, oldest pays, and the newcomer still gets `queue_full`
    // if the shed victim does not release slots in time.
    let n = resolved.len() as u64;
    let mut admitted = try_reserve(shared, n);
    if admitted.is_err() && shared.config.shed && shared.shed_oldest() {
        stats::record_server_shed();
        let patience = Instant::now() + Duration::from_secs(2);
        while admitted.is_err() && Instant::now() < patience {
            thread::sleep(Duration::from_millis(5));
            admitted = try_reserve(shared, n);
        }
    }
    if let Err(previous) = admitted {
        return respond_error(
            conn,
            ErrorCode::QueueFull,
            &format!(
                "{previous} job(s) in flight; {n} more would exceed the bound of {}",
                shared.config.max_pending
            ),
        );
    }

    let mut builder = Fleet::builder()
        .cache(Arc::clone(&shared.cache))
        .factory(shared.config.factory)
        .retries(shared.config.retries);
    if let Some(workers) = shared.config.workers {
        builder = builder.workers(workers);
    }
    // Every job gets a cancel token, registered under the batch's tag for
    // the duration of the run so `cancel` requests and load-shedding can
    // reach it from other connections.
    let mut tokens = Vec::with_capacity(resolved.len());
    for (spec, module, args) in resolved {
        let token = CancelToken::new();
        tokens.push(token.clone());
        let mut job = match args {
            ResolvedArgs::Single(args) => {
                Job::new(spec.hash.clone(), module, spec.invoke.clone(), args)
            }
            ResolvedArgs::Sweep(inputs) => {
                Job::sweep(spec.hash.clone(), module, spec.invoke.clone(), inputs)
            }
        };
        job = job
            .analyses(spec.analyses.iter().cloned())
            .cancel_token(token);
        if let Some(ms) = spec.deadline_ms {
            job = job.deadline(Duration::from_millis(ms));
        }
        builder = builder.submit(job);
    }
    let mut fleet = builder.build();
    let batch_id = shared.register_batch(tag, tokens);

    // Stream one result frame per job, in completion order. A write
    // failure (client gone) cannot abort the running fleet — jobs finish
    // and the counters stay truthful; we just stop writing.
    let mut write_error: Option<io::Error> = None;
    let summary = fleet.run_streaming(|mut outcome| {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        if write_error.is_some() {
            return;
        }
        // Failpoint: a fault at the frame layer behaves exactly like the
        // client vanishing mid-stream.
        if let Some(message) = wasabi::fault::fire("server/frame") {
            write_error = Some(io::Error::other(message));
            return;
        }
        // A sweep job streams one frame per cohort instance (the job's
        // aggregate analysis reports ride the LAST instance's frame); an
        // ordinary job streams its single frame. A sweep job that failed
        // before its cohort ran (build error, shed) has no per-instance
        // outcomes and degrades to the ordinary single error frame.
        if let Some(members) = outcome.sweep.filter(|m| !m.is_empty()) {
            let last = members.len() - 1;
            for (position, member) in members.into_iter().enumerate() {
                let result = JobResult {
                    job: outcome.job,
                    instance: Some(member.instance),
                    hash: outcome.key.clone(),
                    invoke: outcome.invoke.clone(),
                    results: match &member.result {
                        Ok(values) => Ok(values.iter().map(|v| format!("{v:?}")).collect()),
                        Err(e) => Err(e.to_string()),
                    },
                    reports: if position == last {
                        std::mem::take(&mut outcome.reports)
                    } else {
                        Vec::new()
                    },
                    cache_hit: outcome.stats.cache_hit,
                };
                if let Err(e) = write_frame(conn, &Response::Result(result).to_json()) {
                    write_error = Some(e);
                    return;
                }
            }
            return;
        }
        let result = JobResult {
            job: outcome.job,
            instance: None,
            hash: outcome.key,
            invoke: outcome.invoke,
            results: match &outcome.result {
                Ok(values) => Ok(values.iter().map(|v| format!("{v:?}")).collect()),
                Err(e) => Err(e.to_string()),
            },
            reports: outcome.reports,
            cache_hit: outcome.stats.cache_hit,
        };
        if let Err(e) = write_frame(conn, &Response::Result(result).to_json()) {
            write_error = Some(e);
        }
    });
    shared.deregister_batch(batch_id);
    if let Some(e) = write_error {
        return Err(e);
    }
    respond(
        conn,
        &Response::Done {
            jobs: summary.jobs as u64,
            wall_ms: summary.wall.as_secs_f64() * 1e3,
            cache_hits: summary.cache_hits,
            cache_misses: summary.cache_misses,
        },
    )
}
