//! # wasabi — dynamic analysis framework for WebAssembly
//!
//! A faithful Rust reproduction of *Wasabi: A Framework for Dynamically
//! Analyzing WebAssembly* (Lehmann & Pradel, ASPLOS 2019), grown into a
//! composable multi-analysis pipeline.
//!
//! Wasabi instruments a WebAssembly binary ahead of time, inserting calls
//! to *low-level hooks* between the program's original instructions
//! (paper Fig. 2). At runtime those hooks are routed through the
//! [`runtime::WasabiHost`] to the 23 *high-level hooks* of the
//! [`hooks::Analysis`] trait (paper Table 2) — each carrying a typed
//! [`event`] payload. Any number of analyses can be fused onto **one**
//! instrumentation and execution pass with [`pipeline::Pipeline`], and
//! every analysis renders its findings as a structured [`report::Report`].
//!
//! Key mechanisms, each mapped to the paper:
//!
//! | paper | module |
//! |---|---|
//! | §2.4.1 instrumentation of instructions (Table 3) | [`mod@instrument`] |
//! | §2.4.2 selective instrumentation | [`hooks::HookSet`] + [`pipeline`] (per-hook subscriber lists) |
//! | §2.4.3 on-demand monomorphization | [`hookmap::HookMap`] |
//! | §2.4.4 resolving branch labels | [`mod@instrument`] (abstract control stack) |
//! | §2.4.5 dynamic block nesting | [`mod@instrument`] + [`runtime`] (br_table replay) |
//! | §2.4.6 handling i64 values | [`convention`] |
//! | §3 parallel instrumentation | [`instrument::Instrumenter`] |
//!
//! # Examples
//!
//! Count executed binary instructions (the core of the paper's Fig. 1
//! cryptominer detector):
//!
//! ```
//! use wasabi::{AnalysisSession, event::{AnalysisCtx, BinaryEvt}, hooks::{Analysis, Hook, HookSet}};
//! use wasabi_wasm::builder::ModuleBuilder;
//! use wasabi_wasm::{Val, ValType};
//!
//! #[derive(Default)]
//! struct BinaryCounter(u64);
//! impl Analysis for BinaryCounter {
//!     fn hooks(&self) -> HookSet { HookSet::of(&[Hook::Binary]) }
//!     fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut builder = ModuleBuilder::new();
//! builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
//!     f.get_local(0u32).i32_const(3).i32_mul().i32_const(1).i32_add();
//! });
//!
//! let mut counter = BinaryCounter::default();
//! let session = AnalysisSession::for_analysis(&builder.finish(), &counter)?;
//! session.run(&mut counter, "f", &[Val::I32(5)])?;
//! assert_eq!(counter.0, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To run *several* analyses over one pass, see [`pipeline`]. To run
//! *many jobs* — (module × analysis-set × input) combinations — over a
//! worker fleet with a shared translated-module [`cache`], see [`fleet`].

pub mod cache;
pub mod convention;
pub mod diskcache;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod hookmap;
pub mod hooks;
pub mod info;
pub mod instrument;
pub mod json;
pub mod location;
pub mod pipeline;
pub mod report;
pub mod runtime;
pub mod stats;

pub use cache::{content_key, ModuleCache};
pub use diskcache::DiskCache;
pub use event::AnalysisCtx;
pub use fleet::{
    BatchResult, BatchSummary, Fleet, FleetBuilder, Job, JobOutcome, JobStats, SweepOutcome,
};
pub use hooks::{Analysis, BlockKind, Hook, HookSet, MemArg, NoAnalysis};
pub use info::ModuleInfo;
pub use instrument::{instrument, Instrumenter};
pub use location::{BranchTarget, Location};
pub use pipeline::{Pipeline, PipelineBuilder, Wasabi};
pub use report::{JsonValue, Report};
pub use runtime::{AnalysisError, AnalysisSession, WasabiHost};
pub use wasabi_vm::{Budget, CancelToken, CohortRunner, RunOutcome, DEFAULT_COHORT_CHUNK};
