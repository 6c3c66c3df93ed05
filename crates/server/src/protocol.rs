//! The `wasabid` wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON,
//! written with the canonical [`wasabi::json::emit`] serializer and read
//! back with the strict, depth-limited [`wasabi::json::parse`] parser.
//! The depth limit is what lets the daemon treat every byte a client
//! sends as hostile: a megabyte of `[`s is a parse error, not a stack
//! overflow, and an oversized length prefix is rejected *before* any
//! allocation ([`MAX_FRAME`]).
//!
//! Requests and responses are JSON objects tagged with a `"type"` member;
//! [`Request`] and [`Response`] are the typed views with exact
//! `to_json`/`from_json` round-trips — the client and the daemon speak
//! through these, never through ad-hoc JSON.
//!
//! | request | response(s) |
//! |---|---|
//! | `upload` | `uploaded` (content-addressed: re-uploads dedup) |
//! | `submit` | streamed `result` per job as it finishes, then `done` |
//! | `cancel` | `cancelled` (fires the cancel tokens of a tagged submit) |
//! | `status` | `status` |
//! | `drain` | `draining` (refuse new work, finish in-flight, exit) |
//! | `shutdown` | `shutting_down` |
//! | anything else | `error` with a machine-readable [`ErrorCode`] |
//!
//! A `submit` may carry a client-chosen `tag`; a concurrent connection
//! can then `cancel` that tag to fire the cancel tokens of every job in
//! the batch. Cancellation is keyed by tag — not by a daemon-assigned id
//! — so the submit response stream stays exactly `result*` + `done` and
//! existing raw-protocol consumers keep working unchanged.

use std::io::{self, Read, Write};

use wasabi::json::{self, JsonParseError};
use wasabi::report::{JsonValue, Report};
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;
use wasabi_wasm::types::ValType;

/// Hard cap on a frame's payload size (64 MiB). A length prefix past
/// this is rejected before any buffer is allocated: a four-byte lie must
/// not cost four gigabytes.
pub const MAX_FRAME: usize = 64 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer closed (or the stream errored) in the *middle* of a
    /// frame: a truncated header or payload.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload is not valid JSON (or not valid UTF-8).
    Malformed(String),
    /// A transport error other than clean EOF.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<JsonParseError> for FrameError {
    fn from(e: JsonParseError) -> Self {
        FrameError::Malformed(e.to_string())
    }
}

/// Write `value` as one frame: 4-byte big-endian length + canonical JSON.
///
/// # Errors
///
/// Fails on transport errors, or if the rendered payload exceeds
/// [`MAX_FRAME`] (the daemon never produces such a frame; a caller
/// framing arbitrary data could).
pub fn write_frame(writer: &mut impl Write, value: &JsonValue) -> io::Result<()> {
    let payload = json::emit(value);
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = (payload.len() as u32).to_be_bytes();
    writer.write_all(&len)?;
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

/// Read one frame, blocking until it is complete (the client-side
/// counterpart of [`write_frame`]; the daemon uses the resumable
/// [`FrameReader`] so idle reads can observe lifecycle changes).
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF between frames; see [`FrameError`]
/// for the rest.
pub fn read_frame(reader: &mut impl Read) -> Result<JsonValue, FrameError> {
    let mut frames = FrameReader::new();
    loop {
        if let Some(value) = frames.poll(reader)? {
            return Ok(value);
        }
        // poll() only returns None on WouldBlock/TimedOut; on a stream
        // without a read timeout it never does, so this loop is the
        // timeout-tolerant retry for sockets that have one.
    }
}

/// Resumable frame reader: accumulates header and payload bytes across
/// reads, so a socket read timeout between (or even inside) frames
/// surfaces as `Ok(None)` — an *idle tick* the daemon uses to check its
/// lifecycle — instead of losing partial data the way `read_exact` would.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    payload: Vec<u8>,
    payload_need: Option<usize>,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// `true` while a frame is partially read (a tick in this state that
    /// meets EOF is a truncation, not a clean close).
    pub fn mid_frame(&self) -> bool {
        self.header_got > 0 || self.payload_need.is_some()
    }

    /// Advance by whatever bytes are available. Returns `Ok(Some(value))`
    /// when a full frame was assembled, `Ok(None)` when the read timed
    /// out first (no data lost — call again).
    ///
    /// # Errors
    ///
    /// See [`FrameError`]; clean EOF is [`FrameError::Closed`] only
    /// between frames, [`FrameError::Truncated`] inside one.
    pub fn poll(&mut self, reader: &mut impl Read) -> Result<Option<JsonValue>, FrameError> {
        // Phase 1: the 4-byte length prefix.
        while self.payload_need.is_none() {
            match reader.read(&mut self.header[self.header_got..]) {
                Ok(0) => {
                    return Err(if self.header_got == 0 {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    });
                }
                Ok(n) => {
                    self.header_got += n;
                    if self.header_got == 4 {
                        let len = u32::from_be_bytes(self.header) as usize;
                        if len > MAX_FRAME {
                            // Reset so the caller *could* keep the
                            // connection; the daemon closes it (the
                            // stream still carries the lied-about
                            // payload).
                            self.header_got = 0;
                            return Err(FrameError::TooLarge(len));
                        }
                        self.payload = Vec::with_capacity(len);
                        self.payload_need = Some(len);
                    }
                }
                Err(e) => return self.map_read_error(e),
            }
        }

        // Phase 2: the payload.
        let need = self.payload_need.expect("set in phase 1");
        while self.payload.len() < need {
            let mut chunk = [0u8; 64 * 1024];
            let want = (need - self.payload.len()).min(chunk.len());
            match reader.read(&mut chunk[..want]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.payload.extend_from_slice(&chunk[..n]),
                Err(e) => return self.map_read_error(e),
            }
        }

        // Frame complete: reset state BEFORE parsing, so a parse
        // error leaves the reader aligned on the next frame.
        self.header_got = 0;
        self.payload_need = None;
        let payload = std::mem::take(&mut self.payload);
        let text = String::from_utf8(payload)
            .map_err(|_| FrameError::Malformed("payload is not UTF-8".to_string()))?;
        Ok(Some(json::parse(&text)?))
    }

    fn map_read_error(&self, e: io::Error) -> Result<Option<JsonValue>, FrameError> {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Ok(None),
            io::ErrorKind::Interrupted => Ok(None),
            _ => Err(FrameError::Io(e)),
        }
    }
}

/// Lowercase hex encoding for wasm bytes inside `upload` frames (the
/// protocol is JSON; binary payloads ride as hex strings).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push(char::from_digit((byte >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((byte & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

/// Inverse of [`hex_encode`].
///
/// # Errors
///
/// Odd length or a non-hex digit, with its position.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("hex string has odd length".to_string());
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(hi), Some(lo)) => out.push(((hi << 4) | lo) as u8),
            _ => return Err(format!("invalid hex digits {:?}", pair)),
        }
    }
    Ok(out)
}

/// One job inside a `submit` request: a module **by content hash** (it
/// must have been uploaded first), the analyses to run, and the export +
/// arguments to invoke. Args are raw JSON values, typed against the
/// export's signature by the daemon ([`typed_args`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Content key of the module ([`wasabi::cache::content_key`] over its
    /// wasm bytes), as returned by the `uploaded` response.
    pub hash: String,
    /// Registry names of the analyses to run fused over this job.
    pub analyses: Vec<String>,
    /// The export to invoke.
    pub invoke: String,
    /// Raw argument values from the client.
    pub args: Vec<JsonValue>,
    /// Sweep inputs: one raw argument array per cohort instance. When
    /// set, the job expands into a cohort of instances sharing one
    /// translated module, and the daemon streams one `result` frame per
    /// instance (each tagged with its `instance` index) instead of a
    /// single frame. Mutually exclusive with non-empty `args`.
    pub sweep_args: Option<Vec<Vec<JsonValue>>>,
    /// Wall-clock deadline for this job in milliseconds, measured from
    /// the moment a fleet worker claims it (`None`: ungoverned). An
    /// expired job fails with a structured error; its worker survives.
    pub deadline_ms: Option<u64>,
}

/// A request frame, typed.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store a module content-addressed; re-uploads of identical bytes
    /// dedup server-side.
    Upload {
        /// The raw wasm binary.
        bytes: Vec<u8>,
    },
    /// Run jobs; the daemon streams one `result` frame per job as it
    /// finishes, then a final `done` frame.
    Submit {
        /// The jobs, in submission order.
        jobs: Vec<JobSpec>,
        /// Client-chosen batch tag; a concurrent `cancel` request with
        /// the same tag fires every job's cancel token. Empty: untagged
        /// (still sheddable, never cancellable by name).
        tag: String,
    },
    /// Fire the cancel tokens of every in-flight `submit` whose tag
    /// matches. Cancelled jobs fail with a structured error on their own
    /// stream; this request's connection gets a `cancelled` count.
    Cancel {
        /// The tag to cancel.
        tag: String,
    },
    /// Report counters and lifecycle state.
    Status,
    /// Stop accepting work, finish in-flight jobs, then exit.
    Drain,
    /// Exit as soon as in-flight work completes (like drain, but set
    /// directly to the stopped state: idle connections close immediately).
    Shutdown,
}

impl Request {
    /// Render as a frame payload.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Upload { bytes } => JsonValue::object([
                ("type", JsonValue::from("upload")),
                ("bytes", JsonValue::from(hex_encode(bytes))),
            ]),
            Request::Submit { jobs, tag } => {
                let mut pairs = vec![
                    ("type", JsonValue::from("submit")),
                    (
                        "jobs",
                        JsonValue::array(jobs.iter().map(|job| {
                            let mut members = vec![
                                ("hash", JsonValue::from(job.hash.clone())),
                                (
                                    "analyses",
                                    JsonValue::array(
                                        job.analyses.iter().map(|a| JsonValue::from(a.clone())),
                                    ),
                                ),
                                ("invoke", JsonValue::from(job.invoke.clone())),
                                ("args", JsonValue::Array(job.args.clone())),
                            ];
                            if let Some(rows) = &job.sweep_args {
                                members.push((
                                    "sweep_args",
                                    JsonValue::array(
                                        rows.iter().map(|row| JsonValue::Array(row.clone())),
                                    ),
                                ));
                            }
                            if let Some(ms) = job.deadline_ms {
                                members.push(("deadline_ms", JsonValue::from(ms)));
                            }
                            JsonValue::object(members)
                        })),
                    ),
                ];
                if !tag.is_empty() {
                    pairs.push(("tag", JsonValue::from(tag.clone())));
                }
                JsonValue::object(pairs)
            }
            Request::Cancel { tag } => JsonValue::object([
                ("type", JsonValue::from("cancel")),
                ("tag", JsonValue::from(tag.clone())),
            ]),
            Request::Status => JsonValue::object([("type", JsonValue::from("status"))]),
            Request::Drain => JsonValue::object([("type", JsonValue::from("drain"))]),
            Request::Shutdown => JsonValue::object([("type", JsonValue::from("shutdown"))]),
        }
    }

    /// Parse a frame payload into a typed request.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing/mistyped member or the
    /// unknown `"type"` — the daemon wraps it in an `error` response with
    /// [`ErrorCode::UnknownRequest`] or [`ErrorCode::BadRequest`].
    pub fn from_json(value: &JsonValue) -> Result<Request, RequestError> {
        let kind = value
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| RequestError::bad("request has no string \"type\" member"))?;
        match kind {
            "upload" => {
                let text = value
                    .get("bytes")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| RequestError::bad("upload has no string \"bytes\""))?;
                let bytes = hex_decode(text)
                    .map_err(|e| RequestError::bad(&format!("upload bytes: {e}")))?;
                Ok(Request::Upload { bytes })
            }
            "submit" => {
                let jobs = value
                    .get("jobs")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| RequestError::bad("submit has no \"jobs\" array"))?;
                let jobs = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        let bad = |what: &str| RequestError::bad(&format!("job {i}: {what}"));
                        let hash = job
                            .get("hash")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| bad("missing string \"hash\""))?
                            .to_string();
                        let analyses = match job.get("analyses") {
                            None => Vec::new(),
                            Some(list) => list
                                .as_array()
                                .ok_or_else(|| bad("\"analyses\" must be an array"))?
                                .iter()
                                .map(|name| {
                                    name.as_str()
                                        .map(str::to_string)
                                        .ok_or_else(|| bad("analysis names must be strings"))
                                })
                                .collect::<Result<_, _>>()?,
                        };
                        let invoke = match job.get("invoke") {
                            None => "main".to_string(),
                            Some(v) => v
                                .as_str()
                                .ok_or_else(|| bad("\"invoke\" must be a string"))?
                                .to_string(),
                        };
                        let args = match job.get("args") {
                            None => Vec::new(),
                            Some(v) => v
                                .as_array()
                                .ok_or_else(|| bad("\"args\" must be an array"))?
                                .to_vec(),
                        };
                        let sweep_args = match job.get("sweep_args") {
                            None => None,
                            Some(v) => Some(
                                v.as_array()
                                    .ok_or_else(|| bad("\"sweep_args\" must be an array"))?
                                    .iter()
                                    .map(|row| {
                                        row.as_array()
                                            .map(<[JsonValue]>::to_vec)
                                            .ok_or_else(|| bad("sweep_args entries must be arrays"))
                                    })
                                    .collect::<Result<Vec<_>, _>>()?,
                            ),
                        };
                        if sweep_args.is_some() && !args.is_empty() {
                            return Err(bad("\"sweep_args\" and \"args\" are mutually exclusive"));
                        }
                        let deadline_ms = match job.get("deadline_ms") {
                            None => None,
                            Some(v) => Some(
                                v.as_i64()
                                    .and_then(|ms| u64::try_from(ms).ok())
                                    .ok_or_else(|| {
                                        bad("\"deadline_ms\" must be a non-negative integer")
                                    })?,
                            ),
                        };
                        Ok(JobSpec {
                            hash,
                            analyses,
                            invoke,
                            args,
                            sweep_args,
                            deadline_ms,
                        })
                    })
                    .collect::<Result<Vec<_>, RequestError>>()?;
                let tag = match value.get("tag") {
                    None => String::new(),
                    Some(v) => v
                        .as_str()
                        .ok_or_else(|| RequestError::bad("\"tag\" must be a string"))?
                        .to_string(),
                };
                Ok(Request::Submit { jobs, tag })
            }
            "cancel" => {
                let tag = value
                    .get("tag")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| RequestError::bad("cancel has no string \"tag\""))?;
                if tag.is_empty() {
                    return Err(RequestError::bad("cancel tag must be non-empty"));
                }
                Ok(Request::Cancel {
                    tag: tag.to_string(),
                })
            }
            "status" => Ok(Request::Status),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(RequestError::Unknown(other.to_string())),
        }
    }
}

/// Why a structurally valid JSON frame is not a valid request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The `"type"` member names no known request.
    Unknown(String),
    /// A known request with missing or mistyped members.
    Bad(String),
}

impl RequestError {
    fn bad(message: &str) -> Self {
        RequestError::Bad(message.to_string())
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Unknown(kind) => write!(f, "unknown request type {kind:?}"),
            RequestError::Bad(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for RequestError {}

/// Machine-readable error classes in `error` response frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not valid JSON.
    MalformedFrame,
    /// The length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge,
    /// Valid JSON, but no known request type.
    UnknownRequest,
    /// A known request with bad members (missing hash, odd hex, ...).
    BadRequest,
    /// Submit named a module hash that was never uploaded.
    UnknownModule,
    /// The uploaded bytes do not decode as a wasm module.
    InvalidModule,
    /// Admission control: the submit would push in-flight jobs past the
    /// daemon's bound; retry after results drain.
    QueueFull,
    /// The daemon is draining (or stopped) and refuses new work.
    Draining,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::UnknownRequest => "unknown_request",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownModule => "unknown_module",
            ErrorCode::InvalidModule => "invalid_module",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Draining => "draining",
        }
    }

    /// Whether a client can reasonably retry the refused request later:
    /// `queue_full` clears as results drain, `draining` clears when a
    /// fresh daemon takes over the endpoint. Everything else (malformed
    /// frames, unknown modules, bad arguments) will fail identically on
    /// every retry and is fatal.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::QueueFull | ErrorCode::Draining)
    }
}

impl std::str::FromStr for ErrorCode {
    type Err = String;

    /// Parse a wire name.
    fn from_str(text: &str) -> Result<ErrorCode, String> {
        [
            ErrorCode::MalformedFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownRequest,
            ErrorCode::BadRequest,
            ErrorCode::UnknownModule,
            ErrorCode::InvalidModule,
            ErrorCode::QueueFull,
            ErrorCode::Draining,
        ]
        .into_iter()
        .find(|code| code.as_str() == text)
        .ok_or_else(|| format!("unknown error code {text:?}"))
    }
}

/// One streamed per-job result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Submission index within its `submit` request.
    pub job: usize,
    /// Cohort instance index for sweep jobs (one frame per instance);
    /// `None` for ordinary single-invocation jobs.
    pub instance: Option<u32>,
    /// The module's content hash.
    pub hash: String,
    /// The invoked export.
    pub invoke: String,
    /// Debug-rendered invocation results (e.g. `["I32(25)"]`), or the
    /// job's error message.
    pub results: Result<Vec<String>, String>,
    /// One report per analysis, in the job's analysis order.
    pub reports: Vec<Report>,
    /// Whether the prepared session came from the warm cache.
    pub cache_hit: bool,
}

/// A response frame, typed.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `upload`.
    Uploaded {
        /// Content key of the stored module.
        hash: String,
        /// `true` if identical bytes were already stored.
        dedup: bool,
        /// Distinct modules now in the store.
        modules: u64,
    },
    /// One job finished (streamed, in completion order).
    Result(JobResult),
    /// A `submit`'s jobs have all been streamed.
    Done {
        /// Jobs in the batch.
        jobs: u64,
        /// Batch wall time in milliseconds.
        wall_ms: f64,
        /// Jobs served from the warm session cache.
        cache_hits: u64,
        /// Jobs that built a session.
        cache_misses: u64,
    },
    /// Reply to `status`: the daemon's named counters, passed on as sent.
    /// Store, cache, job, connection and request counts are the daemon's
    /// own; `build_ms`, `build_worker_ms`, `timeouts`, `cancellations`,
    /// `retries`, `sheds` and `faults_injected` are process-wide
    /// [`wasabi::stats`], which in-process tests read as before/after deltas.
    Status(JsonValue),
    /// Reply to `cancel`: how many in-flight jobs had their token fired.
    Cancelled {
        /// Jobs whose cancel token this request fired.
        jobs: u64,
    },
    /// Reply to `drain`: the daemon finishes `in_flight` jobs, then exits.
    Draining {
        /// Jobs still in flight at the moment of the drain request.
        in_flight: u64,
    },
    /// Reply to `shutdown`.
    ShuttingDown,
    /// Any failure, tied to the request that caused it.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Render as a frame payload.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Response::Uploaded {
                hash,
                dedup,
                modules,
            } => JsonValue::object([
                ("type", JsonValue::from("uploaded")),
                ("hash", JsonValue::from(hash.clone())),
                ("dedup", JsonValue::from(*dedup)),
                ("modules", JsonValue::from(*modules)),
            ]),
            Response::Result(result) => {
                let mut pairs = vec![
                    ("type", JsonValue::from("result")),
                    ("job", JsonValue::from(result.job)),
                    ("hash", JsonValue::from(result.hash.clone())),
                ];
                if let Some(instance) = result.instance {
                    pairs.push(("instance", JsonValue::from(u64::from(instance))));
                }
                pairs.extend([
                    ("invoke", JsonValue::from(result.invoke.clone())),
                    ("cache_hit", JsonValue::from(result.cache_hit)),
                ]);
                match &result.results {
                    Ok(values) => pairs.push((
                        "results",
                        JsonValue::array(values.iter().map(|v| JsonValue::from(v.clone()))),
                    )),
                    Err(message) => pairs.push(("error", JsonValue::from(message.clone()))),
                }
                pairs.push((
                    "reports",
                    JsonValue::array(result.reports.iter().map(|r| {
                        JsonValue::object([
                            ("analysis", JsonValue::from(r.analysis.clone())),
                            ("data", r.data.clone()),
                        ])
                    })),
                ));
                JsonValue::object(pairs)
            }
            Response::Done {
                jobs,
                wall_ms,
                cache_hits,
                cache_misses,
            } => JsonValue::object([
                ("type", JsonValue::from("done")),
                ("jobs", JsonValue::from(*jobs)),
                ("wall_ms", JsonValue::from(*wall_ms)),
                ("cache_hits", JsonValue::from(*cache_hits)),
                ("cache_misses", JsonValue::from(*cache_misses)),
            ]),
            Response::Status(counters) => {
                let mut frame = vec![("type".to_string(), JsonValue::from("status"))];
                if let JsonValue::Object(members) = counters {
                    frame.extend(members.iter().cloned());
                }
                JsonValue::Object(frame)
            }
            Response::Cancelled { jobs } => JsonValue::object([
                ("type", JsonValue::from("cancelled")),
                ("jobs", JsonValue::from(*jobs)),
            ]),
            Response::Draining { in_flight } => JsonValue::object([
                ("type", JsonValue::from("draining")),
                ("in_flight", JsonValue::from(*in_flight)),
            ]),
            Response::ShuttingDown => {
                JsonValue::object([("type", JsonValue::from("shutting_down"))])
            }
            Response::Error { code, message } => JsonValue::object([
                ("type", JsonValue::from("error")),
                ("code", JsonValue::from(code.as_str())),
                ("message", JsonValue::from(message.clone())),
            ]),
        }
    }

    /// Parse a frame payload into a typed response.
    ///
    /// # Errors
    ///
    /// A message naming the missing/mistyped member.
    pub fn from_json(value: &JsonValue) -> Result<Response, String> {
        let kind = value
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "response has no string \"type\" member".to_string())?;
        let str_member = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} response has no string {name:?}"))
        };
        let u64_member = |name: &str| -> Result<u64, String> {
            value
                .get(name)
                .and_then(JsonValue::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("{kind} response has no numeric {name:?}"))
        };
        match kind {
            "uploaded" => Ok(Response::Uploaded {
                hash: str_member("hash")?,
                dedup: value
                    .get("dedup")
                    .and_then(JsonValue::as_bool)
                    .ok_or("uploaded response has no bool \"dedup\"")?,
                modules: u64_member("modules")?,
            }),
            "result" => {
                let results = if let Some(error) = value.get("error") {
                    Err(error
                        .as_str()
                        .ok_or("result \"error\" must be a string")?
                        .to_string())
                } else {
                    Ok(value
                        .get("results")
                        .and_then(JsonValue::as_array)
                        .ok_or("result has neither \"results\" nor \"error\"")?
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "results must be strings".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?)
                };
                let reports = value
                    .get("reports")
                    .and_then(JsonValue::as_array)
                    .ok_or("result has no \"reports\" array")?
                    .iter()
                    .map(|r| {
                        let analysis = r
                            .get("analysis")
                            .and_then(JsonValue::as_str)
                            .ok_or("report has no \"analysis\"")?;
                        let data = r.get("data").ok_or("report has no \"data\"")?;
                        Ok::<Report, String>(Report::new(analysis, data.clone()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let instance = match value.get("instance") {
                    None => None,
                    Some(v) => Some(
                        v.as_i64()
                            .and_then(|i| u32::try_from(i).ok())
                            .ok_or("result \"instance\" must be a non-negative integer")?,
                    ),
                };
                Ok(Response::Result(JobResult {
                    job: u64_member("job")? as usize,
                    instance,
                    hash: str_member("hash")?,
                    invoke: str_member("invoke")?,
                    results,
                    reports,
                    cache_hit: value
                        .get("cache_hit")
                        .and_then(JsonValue::as_bool)
                        .ok_or("result has no bool \"cache_hit\"")?,
                }))
            }
            "done" => Ok(Response::Done {
                jobs: u64_member("jobs")?,
                wall_ms: value
                    .get("wall_ms")
                    .and_then(JsonValue::as_f64)
                    .ok_or("done response has no numeric \"wall_ms\"")?,
                cache_hits: u64_member("cache_hits")?,
                cache_misses: u64_member("cache_misses")?,
            }),
            "status" => {
                // Every member but `type`, unchecked: a client accepts a
                // status with counters it does not know or lacks some.
                let mut counters = value.clone();
                if let JsonValue::Object(members) = &mut counters {
                    members.retain(|(name, _)| name != "type");
                }
                Ok(Response::Status(counters))
            }
            "cancelled" => Ok(Response::Cancelled {
                jobs: u64_member("jobs")?,
            }),
            "draining" => Ok(Response::Draining {
                in_flight: u64_member("in_flight")?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => {
                let code = str_member("code")?;
                Ok(Response::Error {
                    code: code.parse()?,
                    message: str_member("message")?,
                })
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// The parameter types of the export `invoke` of `module`.
///
/// # Errors
///
/// If no function exports that name.
pub fn export_params(module: &Module, invoke: &str) -> Result<Vec<ValType>, String> {
    module
        .functions
        .iter()
        .find(|f| f.export.iter().any(|e| e == invoke))
        .map(|f| f.type_.params.clone())
        .ok_or_else(|| format!("no exported function {invoke:?}"))
}

/// Type raw JSON argument values against an export's parameter list —
/// shared by the daemon's `submit` handler and the CLI's `--batch`
/// manifest loader (numbers directly; strings re-parsed like the CLI's
/// comma-separated `--args`).
///
/// # Errors
///
/// Arity mismatch, a non-numeric value, or a number that does not fit
/// the parameter type.
pub fn typed_args(raw: &[JsonValue], params: &[ValType]) -> Result<Vec<Val>, String> {
    if raw.len() != params.len() {
        return Err(format!(
            "export takes {} argument(s), {} given",
            params.len(),
            raw.len()
        ));
    }
    raw.iter()
        .zip(params)
        .map(|(value, ty)| {
            if let Some(text) = value.as_str() {
                let parsed = match ty {
                    ValType::I32 => text.parse().map(Val::I32).ok(),
                    ValType::I64 => text.parse().map(Val::I64).ok(),
                    ValType::F32 => text.parse().map(Val::F32).ok(),
                    ValType::F64 => text.parse().map(Val::F64).ok(),
                };
                return parsed.ok_or_else(|| format!("invalid {ty} argument {text:?}"));
            }
            let number = value
                .as_f64()
                .ok_or_else(|| format!("argument {value} is not a number or string"))?;
            Ok(match ty {
                ValType::I32 => Val::I32(
                    value
                        .as_i64()
                        .and_then(|v| i32::try_from(v).ok())
                        .ok_or_else(|| format!("argument {value} does not fit i32"))?,
                ),
                ValType::I64 => Val::I64(
                    value
                        .as_i64()
                        .ok_or_else(|| format!("argument {value} does not fit i64"))?,
                ),
                ValType::F32 => Val::F32(number as f32),
                ValType::F64 => Val::F64(number),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `status` frame with all 21 counters, as the daemon emits it.
    const STATUS_FRAME: &str = concat!(
        r#"{"type":"status","state":"accepting","uploads":2,"dedup_hits":1,"modules":1,"#,
        r#""cache_hits":4,"cache_misses":2,"cache_entries":2,"cache_evictions":0,"#,
        r#""disk_cache_hits":1,"disk_cache_misses":1,"build_ms":40.5,"#,
        r#""build_worker_ms":120.25,"jobs_done":6,"in_flight":1,"connections":2,"#,
        r#""requests":9,"timeouts":1,"cancellations":2,"retries":3,"sheds":1,"#,
        r#""faults_injected":0}"#,
    );

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let value = Request::Submit {
            jobs: vec![JobSpec {
                hash: "fnv64:0123456789abcdef".to_string(),
                analyses: vec!["instruction_mix".to_string()],
                invoke: "main".to_string(),
                args: vec![JsonValue::UInt(3), JsonValue::Float(0.5)],
                sweep_args: None,
                deadline_ms: None,
            }],
            tag: String::new(),
        }
        .to_json();
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &value).expect("writes");
        write_frame(&mut pipe, &Request::Status.to_json()).expect("writes");

        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(read_frame(&mut cursor).expect("first frame"), value);
        assert_eq!(
            read_frame(&mut cursor).expect("second frame"),
            Request::Status.to_json()
        );
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(b"whatever");
        let err = read_frame(&mut io::Cursor::new(bytes)).expect_err("too large");
        assert!(matches!(err, FrameError::TooLarge(len) if len == u32::MAX as usize));
    }

    #[test]
    fn truncated_frames_are_distinguished_from_clean_closes() {
        // Clean close between frames.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(Vec::<u8>::new())),
            Err(FrameError::Closed)
        ));
        // EOF inside the header.
        assert!(matches!(
            read_frame(&mut io::Cursor::new(vec![0u8, 0])),
            Err(FrameError::Truncated)
        ));
        // EOF inside the payload.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&10u32.to_be_bytes());
        bytes.extend_from_slice(b"tru");
        assert!(matches!(
            read_frame(&mut io::Cursor::new(bytes)),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn invalid_json_payload_is_malformed_and_reader_stays_aligned() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_be_bytes());
        bytes.extend_from_slice(b"{\"a\":::");
        write_frame(&mut bytes, &Request::Status.to_json()).expect("writes");

        let mut cursor = io::Cursor::new(bytes);
        let mut frames = FrameReader::new();
        let err = frames.poll(&mut cursor).expect_err("malformed");
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        // The reader consumed exactly the bad frame: the next poll gets
        // the good one.
        assert_eq!(
            frames.poll(&mut cursor).expect("aligned").expect("frame"),
            Request::Status.to_json()
        );
    }

    #[test]
    fn requests_round_trip_typed() {
        for request in [
            Request::Upload {
                bytes: vec![0, 1, 2, 0xfe, 0xff],
            },
            Request::Submit {
                jobs: vec![
                    JobSpec {
                        hash: "fnv64:00".to_string(),
                        analyses: vec![],
                        invoke: "main".to_string(),
                        args: vec![],
                        sweep_args: None,
                        deadline_ms: None,
                    },
                    JobSpec {
                        hash: "fnv64:ff".to_string(),
                        analyses: vec!["call_graph".to_string(), "taint_analysis".to_string()],
                        invoke: "run".to_string(),
                        args: vec![JsonValue::Int(-4)],
                        sweep_args: None,
                        deadline_ms: Some(250),
                    },
                    JobSpec {
                        hash: "fnv64:aa".to_string(),
                        analyses: vec!["instruction_mix".to_string()],
                        invoke: "main".to_string(),
                        args: vec![],
                        sweep_args: Some(vec![
                            vec![JsonValue::UInt(1)],
                            vec![JsonValue::UInt(2)],
                            vec![JsonValue::UInt(3)],
                        ]),
                        deadline_ms: Some(1000),
                    },
                ],
                tag: "batch-7".to_string(),
            },
            Request::Cancel {
                tag: "batch-7".to_string(),
            },
            Request::Status,
            Request::Drain,
            Request::Shutdown,
        ] {
            let round = Request::from_json(&request.to_json()).expect("parses");
            assert_eq!(round, request);
        }
    }

    #[test]
    fn unknown_and_bad_requests_are_distinct_errors() {
        let unknown = JsonValue::object([("type", JsonValue::from("frobnicate"))]);
        assert!(matches!(
            Request::from_json(&unknown),
            Err(RequestError::Unknown(kind)) if kind == "frobnicate"
        ));
        let bad = JsonValue::object([
            ("type", JsonValue::from("upload")),
            ("bytes", JsonValue::from("zz")),
        ]);
        assert!(matches!(
            Request::from_json(&bad),
            Err(RequestError::Bad(_))
        ));
        assert!(Request::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn responses_round_trip_typed() {
        use wasabi::report::Report;
        for response in [
            Response::Uploaded {
                hash: "fnv64:1234".to_string(),
                dedup: true,
                modules: 3,
            },
            Response::Result(JobResult {
                job: 2,
                instance: None,
                hash: "fnv64:1234".to_string(),
                invoke: "main".to_string(),
                results: Ok(vec!["I32(25)".to_string()]),
                reports: vec![Report::new(
                    "instruction_mix",
                    JsonValue::object([("total", JsonValue::UInt(7))]),
                )],
                cache_hit: true,
            }),
            Response::Result(JobResult {
                job: 0,
                instance: None,
                hash: "fnv64:1234".to_string(),
                invoke: "main".to_string(),
                results: Err("trap: unreachable".to_string()),
                reports: vec![],
                cache_hit: false,
            }),
            Response::Result(JobResult {
                job: 1,
                instance: Some(4),
                hash: "fnv64:1234".to_string(),
                invoke: "main".to_string(),
                results: Ok(vec!["I32(16)".to_string()]),
                reports: vec![],
                cache_hit: true,
            }),
            Response::Done {
                jobs: 3,
                wall_ms: 12.5,
                cache_hits: 2,
                cache_misses: 1,
            },
            Response::from_json(&json::parse(STATUS_FRAME).expect("parses")).expect("decodes"),
            Response::Cancelled { jobs: 4 },
            Response::Draining { in_flight: 2 },
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::QueueFull,
                message: "128 in flight".to_string(),
            },
        ] {
            let round = Response::from_json(&response.to_json()).expect("parses");
            assert_eq!(round, response);
        }
    }

    #[test]
    fn status_decode_keeps_unknown_counters_and_tolerates_missing_ones() {
        // A daemon with one counter this client does not know and without
        // `sheds`: the client takes its status as it is, in order.
        let frame = STATUS_FRAME
            .replace(r#""sheds":1,"#, "")
            .replace('}', r#","spans_open":2}"#);
        let status = Response::from_json(&json::parse(&frame).expect("parses"))
            .expect("a status without `sheds` decodes");
        assert_eq!(json::emit(&status.to_json()), frame);
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).expect("decodes"), bytes);
        assert_eq!(hex_encode(&[0x00, 0xab]), "00ab");
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex");
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::MalformedFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownRequest,
            ErrorCode::BadRequest,
            ErrorCode::UnknownModule,
            ErrorCode::InvalidModule,
            ErrorCode::QueueFull,
            ErrorCode::Draining,
        ] {
            assert_eq!(code.as_str().parse(), Ok(code));
        }
        assert!("nope".parse::<ErrorCode>().is_err());
    }

    #[test]
    fn only_backpressure_codes_are_retryable() {
        assert!(ErrorCode::QueueFull.is_retryable());
        assert!(ErrorCode::Draining.is_retryable());
        for fatal in [
            ErrorCode::MalformedFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownRequest,
            ErrorCode::BadRequest,
            ErrorCode::UnknownModule,
            ErrorCode::InvalidModule,
        ] {
            assert!(!fatal.is_retryable(), "{}", fatal.as_str());
        }
    }

    #[test]
    fn governance_members_are_optional_on_the_wire() {
        // A submit without tag/deadline_ms — what every pre-existing raw
        // protocol consumer sends — still parses, with the defaults.
        let bare = JsonValue::object([
            ("type", JsonValue::from("submit")),
            (
                "jobs",
                JsonValue::array([JsonValue::object([("hash", JsonValue::from("fnv64:00"))])]),
            ),
        ]);
        let Ok(Request::Submit { jobs, tag }) = Request::from_json(&bare) else {
            panic!("bare submit must parse");
        };
        assert_eq!(tag, "");
        assert_eq!(jobs[0].deadline_ms, None);
        assert_eq!(jobs[0].sweep_args, None);

        // A job cannot carry both single-invocation args and sweep
        // inputs — which set would the daemon honor?
        let both = JsonValue::object([
            ("type", JsonValue::from("submit")),
            (
                "jobs",
                JsonValue::array([JsonValue::object([
                    ("hash", JsonValue::from("fnv64:00")),
                    ("args", JsonValue::array([JsonValue::UInt(1)])),
                    (
                        "sweep_args",
                        JsonValue::array([JsonValue::Array(vec![JsonValue::UInt(2)])]),
                    ),
                ])]),
            ),
        ]);
        assert!(matches!(
            Request::from_json(&both),
            Err(RequestError::Bad(_))
        ));

        // Cancel requires a non-empty tag (an empty one could never have
        // been attached to a submit).
        let empty = JsonValue::object([
            ("type", JsonValue::from("cancel")),
            ("tag", JsonValue::from("")),
        ]);
        assert!(matches!(
            Request::from_json(&empty),
            Err(RequestError::Bad(_))
        ));
    }
}
