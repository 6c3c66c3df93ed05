//! End-to-end benchmark of the `wasabid` daemon path.
//!
//! One load generator with one connection drives the shipped `wasabid`
//! binary (`--workers 1`) in a closed loop: each request is sent only after
//! the previous one completed. Four workloads each stress one layer (see
//! [`workload::Workload`]). Two binaries share this library:
//!
//! - `timed` (`--trace 0`) measures the end-to-end metrics through the
//!   daemon's command line and [`wasabi_server::Client`] only, as a user
//!   would, and checks every result and report against [`expect::Oracle`].
//! - `replay` (`--trace 1`) replays the same requests in-process through
//!   each layer's public functions, with spans, for the per-layer metrics.
//!
//! This library uses only the surfaces a user of the daemon or of the
//! analysis library sees; the internal APIs that the replay times
//! (`Fleet`, `ModuleCache`, `stats`) are used by the `replay` binary alone,
//! so a change there cannot stop the timed runs from building.

pub mod daemon;
pub mod expect;
pub mod metrics;
pub mod options;
pub mod workload;
