//! # wasabi-server — the persistent analysis service
//!
//! Everything before this crate was **one-shot**: the CLI decoded,
//! instrumented, translated, and executed per invocation, paying the
//! build cost every time even though the paper's whole point (§3) is
//! that instrumentation is ahead-of-time and reusable. This crate keeps
//! that work *alive*: the [`daemon::Server`] (shipped as the `wasabid`
//! bin) owns a content-addressed [`store::ContentStore`] of uploaded
//! modules and a bounded, process-wide [`wasabi::ModuleCache`] of
//! prepared sessions, and serves analysis jobs to any number of clients
//! over a unix-domain or TCP socket. The *second* client to analyze a
//! module pays neither the upload (content dedup) nor the
//! instrument+translate build (warm cache) — only execution.
//!
//! The wire format is deliberately minimal ([`protocol`]): 4-byte
//! big-endian length-prefixed JSON frames, written by the canonical
//! [`wasabi::json::emit`] serializer and read by the strict,
//! depth-limited [`wasabi::json::parse`] parser, so the daemon's input
//! handling is as hostile-input-proof as the JSON oracle tests make the
//! parser. Per-job results **stream** as the fleet finishes them
//! ([`wasabi::Fleet::run_streaming`]); admission control bounds the
//! daemon-wide in-flight job count and refuses the excess with a
//! structured `queue_full` error instead of queueing unboundedly.
//!
//! | module | role |
//! |---|---|
//! | [`protocol`] | frames, requests, responses, error codes |
//! | [`store`] | content-addressed module store (upload dedup) |
//! | [`daemon`] | accept loop, lifecycle, admission, streaming submit |
//! | [`client`] | typed client: upload / submit+stream / status / drain |
//! | [`cli`] | `wasabid` + `wasabi-client` entry points |

pub mod cli;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod store;

pub use client::{Client, ClientError, DoneSummary, ResultStream};
pub use daemon::{Lifecycle, Server, ServerConfig};
pub use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, FrameReader, JobResult, JobSpec, Request,
    Response, MAX_FRAME,
};
pub use store::{ContentStore, UploadReceipt};
