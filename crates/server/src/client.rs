//! Client side of the `wasabid` protocol.
//!
//! [`Client`] wraps one connection and exposes the request/response
//! cycle typed: upload bytes, submit jobs and **iterate streamed results
//! as the daemon finishes them**, cancel a tagged batch, query status,
//! drain, shut down. The `wasabi-client` bin and the `wasabi client`
//! subcommand are thin wrappers over this; integration tests drive it
//! directly.
//!
//! The client remembers its endpoint, so a daemon restart is survivable:
//! [`Client::reconnect_with_backoff`] re-dials with capped exponential
//! backoff (each successful re-dial bumps
//! [`wasabi::stats::client_reconnects`]). Daemon refusals surface as
//! [`ClientError::Daemon`] with the machine-readable [`ErrorCode`], so
//! callers can distinguish *retry later* (`queue_full`, `draining`) from
//! *fatal* (everything else) without string matching.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use wasabi::report::JsonValue;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, JobResult, JobSpec, Request, Response,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// A frame arrived but was not the expected response shape.
    Protocol(String),
    /// The daemon refused the request with a structured `error` frame.
    Daemon {
        /// Machine-readable class; `code.is_retryable()` separates
        /// backpressure from permanent failures.
        code: ErrorCode,
        /// Human-readable detail from the daemon.
        message: String,
    },
}

impl ClientError {
    /// Whether retrying the same request later can succeed: daemon
    /// backpressure (`queue_full`/`draining`) and transport drops are
    /// retryable, malformed requests are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Daemon { code, .. } => code.is_retryable(),
            ClientError::Frame(_) => true,
            ClientError::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Protocol(message) => f.write_str(message),
            ClientError::Daemon { code, message } => {
                write!(f, "daemon refused ({}): {message}", code.as_str())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// The remembered dial target, for reconnects after a daemon restart.
#[derive(Clone)]
enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl Endpoint {
    fn dial(&self) -> std::io::Result<Conn> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Conn::Tcp),
        }
    }
}

/// One connection to a `wasabid` daemon.
pub struct Client {
    conn: Conn,
    endpoint: Endpoint,
}

impl Client {
    /// Connect over a unix-domain socket.
    ///
    /// # Errors
    ///
    /// Transport errors from connecting.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Client> {
        let endpoint = Endpoint::Unix(path.as_ref().to_path_buf());
        Ok(Client {
            conn: endpoint.dial()?,
            endpoint,
        })
    }

    /// Connect over TCP.
    ///
    /// # Errors
    ///
    /// Transport errors from connecting.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let endpoint = Endpoint::Tcp(addr.to_string());
        Ok(Client {
            conn: endpoint.dial()?,
            endpoint,
        })
    }

    /// Re-dial the remembered endpoint once, replacing the connection.
    /// Records a [`wasabi::stats::client_reconnects`] tick on success.
    ///
    /// # Errors
    ///
    /// Transport errors from connecting (e.g. the daemon is not back yet).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.conn = self.endpoint.dial()?;
        wasabi::stats::record_client_reconnect();
        Ok(())
    }

    /// Re-dial the remembered endpoint with capped exponential backoff:
    /// up to `attempts` tries, sleeping 10 ms, 20 ms, ... capped at
    /// 500 ms between them. Use after a transport error to survive a
    /// daemon restart.
    ///
    /// # Errors
    ///
    /// The last connect error if every attempt fails.
    pub fn reconnect_with_backoff(&mut self, attempts: u32) -> std::io::Result<()> {
        let mut delay = Duration::from_millis(10);
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
            match self.reconnect() {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Send one request frame and read one response frame.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, or an unparseable response.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.conn, &request.to_json())?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let value = read_frame(&mut self.conn)?;
        Response::from_json(&value).map_err(ClientError::Protocol)
    }

    /// Upload a module's bytes, content-addressed.
    ///
    /// # Errors
    ///
    /// Transport failures; a daemon-side `error` response (e.g. invalid
    /// module) surfaces as [`ClientError::Protocol`].
    pub fn upload(&mut self, bytes: &[u8]) -> Result<(String, bool), ClientError> {
        match self.roundtrip(&Request::Upload {
            bytes: bytes.to_vec(),
        })? {
            Response::Uploaded { hash, dedup, .. } => Ok((hash, dedup)),
            Response::Error { code, message } => Err(ClientError::Daemon { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to upload: {other:?}"
            ))),
        }
    }

    /// Submit jobs and return the stream of per-job results. The daemon
    /// writes a `result` frame as each job finishes; iterate to observe
    /// them in completion order, then read the batch summary from
    /// [`ResultStream::done`].
    ///
    /// # Errors
    ///
    /// Transport failures writing the request; an `error` response (queue
    /// full, unknown module, draining, ...) surfaces from the stream's
    /// first `next()`.
    pub fn submit(&mut self, jobs: Vec<JobSpec>) -> Result<ResultStream<'_>, ClientError> {
        self.submit_tagged(jobs, "")
    }

    /// Like [`Client::submit`], with a client-chosen batch tag: while the
    /// batch is in flight, any connection can `cancel` that tag and every
    /// job's cancel token fires.
    ///
    /// # Errors
    ///
    /// See [`Client::submit`].
    pub fn submit_tagged(
        &mut self,
        jobs: Vec<JobSpec>,
        tag: &str,
    ) -> Result<ResultStream<'_>, ClientError> {
        write_frame(
            &mut self.conn,
            &Request::Submit {
                jobs,
                tag: tag.to_string(),
            }
            .to_json(),
        )?;
        Ok(ResultStream {
            client: self,
            done: None,
            failed: false,
        })
    }

    /// Fire the cancel tokens of every in-flight batch tagged `tag`.
    /// Returns how many jobs had their token fired (0: nothing in flight
    /// under that tag — cancellation of finished work is a no-op).
    ///
    /// # Errors
    ///
    /// Transport failures, a daemon refusal, or an unexpected response.
    pub fn cancel(&mut self, tag: &str) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Cancel {
            tag: tag.to_string(),
        })? {
            Response::Cancelled { jobs } => Ok(jobs),
            Response::Error { code, message } => Err(ClientError::Daemon { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to cancel: {other:?}"
            ))),
        }
    }

    /// Ask for the daemon's status counters: the object the daemon sent
    /// ([`Response::Status`]), read by name, e.g. `status.get("jobs_done")`.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response shape.
    pub fn status(&mut self) -> Result<JsonValue, ClientError> {
        match self.roundtrip(&Request::Status)? {
            Response::Status(status) => Ok(status),
            Response::Error { code, message } => Err(ClientError::Daemon { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to status: {other:?}"
            ))),
        }
    }

    /// Ask the daemon to drain: finish in-flight work, refuse new work,
    /// exit. Returns the in-flight count at the moment of the request.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response shape.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Drain)? {
            Response::Draining { in_flight } => Ok(in_flight),
            Response::Error { code, message } => Err(ClientError::Daemon { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to drain: {other:?}"
            ))),
        }
    }

    /// Ask the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response shape.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { code, message } => Err(ClientError::Daemon { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected response to shutdown: {other:?}"
            ))),
        }
    }
}

/// The streamed results of one `submit`: yields a [`JobResult`] per
/// finished job in **completion order**, ends at the daemon's `done`
/// frame (available afterwards via [`ResultStream::done`]).
pub struct ResultStream<'a> {
    client: &'a mut Client,
    done: Option<DoneSummary>,
    failed: bool,
}

/// The `done` frame's batch summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoneSummary {
    /// Jobs in the batch.
    pub jobs: u64,
    /// Batch wall time in milliseconds.
    pub wall_ms: f64,
    /// Jobs served from the warm session cache.
    pub cache_hits: u64,
    /// Jobs that built a session.
    pub cache_misses: u64,
}

impl ResultStream<'_> {
    /// The batch summary — `Some` once the stream has been iterated to
    /// its end without error.
    pub fn done(&self) -> Option<DoneSummary> {
        self.done
    }
}

impl Iterator for ResultStream<'_> {
    type Item = Result<JobResult, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done.is_some() || self.failed {
            return None;
        }
        let response = match self.client.read_response() {
            Ok(response) => response,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        match response {
            Response::Result(result) => Some(Ok(result)),
            Response::Done {
                jobs,
                wall_ms,
                cache_hits,
                cache_misses,
            } => {
                self.done = Some(DoneSummary {
                    jobs,
                    wall_ms,
                    cache_hits,
                    cache_misses,
                });
                None
            }
            Response::Error { code, message } => {
                self.failed = true;
                Some(Err(ClientError::Daemon { code, message }))
            }
            other => {
                self.failed = true;
                Some(Err(ClientError::Protocol(format!(
                    "unexpected response in result stream: {other:?}"
                ))))
            }
        }
    }
}
