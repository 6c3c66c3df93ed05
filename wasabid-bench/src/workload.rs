//! The four workloads and the seeded inputs they send.
//!
//! Each workload stresses one layer and bypasses the others, so a change
//! to one layer shows on one workload and not on the rest:
//!
//! | workload | what dominates a request |
//! |---|---|
//! | `tiny-submit` | service cost: frames, JSON, admission, the per-submit fleet, the cache hit |
//! | `light-analysis` | the interpreter (`call_graph` subscribes only to `call_pre`) |
//! | `heavy-analysis` | hook boundary, event construction, analysis callbacks, report JSON |
//! | `cold-upload` | upload frame parse, hex decode, wasm decode and the cache-miss build |
//!
//! The seed picks the concrete modules and their order. Where a seed could
//! change how much work a request is, the inputs are drawn from a band of
//! executed-instruction counts and sizes, so that every seed sends the same
//! amount of work in different programs.

use std::ops::RangeInclusive;

use wasabi_vm::{EmptyHost, Instance, TranslatedModule};
use wasabi_wasm::encode::encode;
use wasabi_wasm::module::Module;
use wasabi_workloads::synthetic::{synthetic_app, SyntheticConfig};
use wasabi_workloads::{compile, polybench};

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm cache; 1-job submits rotating over a few tiny modules.
    TinySubmit,
    /// Warm cache; six interpreter-heavy programs under `call_graph`.
    LightAnalysis,
    /// Warm cache; the same six programs, smaller, under four all-hooks analyses.
    HeavyAnalysis,
    /// Every request uploads a never-seen module and runs one job on it.
    ColdUpload,
}

/// `call_graph` alone: subscribes only to `call_pre`.
pub const CALL_GRAPH: &[&str] = &["call_graph"];
/// The heavy end of the paper's Fig. 9.
pub const HEAVY: &[&str] = &[
    "instruction_mix",
    "basic_block_profiling",
    "branch_coverage",
    "memory_tracing",
];
/// The analyses of a cold upload's job.
pub const UPLOAD_MIX: &[&str] = &["instruction_mix", "call_graph"];

/// The PolyBench kernels of the two analysis workloads.
const KERNELS: [&str; 5] = ["gemm", "jacobi-2d", "correlation", "lu", "floyd-warshall"];
/// Problem size of the kernels under `call_graph`: large enough that the
/// interpreter does most of a request's work.
const LIGHT_N: u32 = 32;
/// Problem size of the kernels under all hooks.
const HEAVY_N: u32 = 8;

/// Problem size and executed-instruction band of the tiny modules: the
/// interpreter's share of a tiny request stays a few microseconds whichever
/// kernels the seed picks.
const TINY_N: u32 = 4;
const TINY_INSTRS: RangeInclusive<u64> = 2_000..=3_000;
const TINY_MODULES: usize = 4;

/// The generated call-heavy app: functions, and the band of its executed
/// instructions and encoded bytes (about 10 KB).
const APP_FUNCTIONS: usize = 32;
const APP_INSTRS: RangeInclusive<u64> = 18_000..=22_000;
const APP_BYTES: RangeInclusive<usize> = 10_100..=10_500;
const APP_CANDIDATES: usize = 5_000;

impl Workload {
    /// Every workload; `BENCHMARK.json` lists all but `tiny-submit`.
    pub const ALL: [Workload; 4] = [
        Workload::TinySubmit,
        Workload::LightAnalysis,
        Workload::HeavyAnalysis,
        Workload::ColdUpload,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TinySubmit => "tiny-submit",
            Workload::LightAnalysis => "light-analysis",
            Workload::HeavyAnalysis => "heavy-analysis",
            Workload::ColdUpload => "cold-upload",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed requests of one daemon session, sized for a timed phase of
    /// about two seconds. Every session sends the same sequence, so
    /// per-session figures compare across commits; peak RSS above all,
    /// which grows with every cold upload.
    fn session_requests(self) -> usize {
        match self {
            Workload::TinySubmit => 15_000,
            Workload::LightAnalysis => 100,
            Workload::HeavyAnalysis => 130,
            Workload::ColdUpload => 100,
        }
    }

    /// Warm-up requests of a session's setup. They let caches, allocator
    /// and threads reach steady state, and they keep set-up time dominated
    /// by deterministic work rather than by the daemon's 5 ms accept poll.
    fn warmup_requests(self) -> usize {
        match self {
            Workload::TinySubmit => 1_500,
            Workload::LightAnalysis => 6,
            Workload::HeavyAnalysis => 10,
            Workload::ColdUpload => 8,
        }
    }

    /// Requests the traced run replays: a fixed prefix of the session's
    /// sequence, so the replay's counts repeat exactly.
    fn traced_requests(self) -> usize {
        match self {
            Workload::TinySubmit => 4_000,
            Workload::LightAnalysis => 30,
            Workload::HeavyAnalysis => 40,
            Workload::ColdUpload => 40,
        }
    }
}

/// A module the load generator sends.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel or generator name, for messages.
    pub name: String,
    /// The decoded module, for computing references.
    pub module: Module,
    /// The encoded module as uploaded.
    pub bytes: Vec<u8>,
}

impl Program {
    fn new(name: impl Into<String>, module: Module) -> Program {
        let bytes = encode(&module);
        Program {
            name: name.into(),
            module,
            bytes,
        }
    }
}

/// One job of a submit: invoke `main` of a program under some analyses.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`Inputs::programs`].
    pub program: usize,
    /// Registry names of the analyses.
    pub analyses: &'static [&'static str],
}

/// One closed-loop request: an optional upload of a new module, then one
/// submit. A request that uploads runs its jobs on the uploaded module.
#[derive(Debug, Clone)]
pub struct Request {
    /// Bytes of a never-seen module to upload first.
    pub upload: Option<Vec<u8>>,
    /// The submit's jobs.
    pub jobs: Vec<Job>,
}

/// Everything a run sends, generated from the seed before any timing.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The modules the jobs run (for `cold-upload`, the code every upload
    /// carries).
    pub programs: Vec<Program>,
    /// Whether setup uploads `programs` before the warm-up requests.
    pub preload: bool,
    /// Requests of a session's setup, after the uploads.
    pub warmup: Vec<Request>,
    /// The timed requests of one session.
    pub timed: Vec<Request>,
    /// How many of `timed` the traced run replays.
    pub traced: usize,
}

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Instructions `main` of `module` executes, uninstrumented.
fn executed_instrs(module: &Module) -> Result<u64, String> {
    let translated = TranslatedModule::new(module.clone()).map_err(|e| e.to_string())?;
    let mut host = EmptyHost;
    let mut instance =
        Instance::instantiate_translated(&translated, &mut host).map_err(|e| e.to_string())?;
    instance
        .invoke_export("main", &[], &mut host)
        .map_err(|e| e.to_string())?;
    Ok(instance.executed_instrs())
}

/// Generate the inputs of `workload` for `seed`.
///
/// # Errors
///
/// If no generated module falls in a workload's band.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng(seed ^ 0x7761_7361_6269_6400 ^ workload as u64);
    let session = workload.session_requests();
    let warmup = workload.warmup_requests();
    let (programs, preload, warmup, timed) = match workload {
        Workload::TinySubmit => {
            let mut programs = Vec::new();
            for name in polybench::NAMES {
                let program = polybench::by_name(name, TINY_N).expect("a listed kernel");
                let module = compile(&program);
                if TINY_INSTRS.contains(&executed_instrs(&module)?) {
                    programs.push(Program::new(name, module));
                }
            }
            if programs.len() < TINY_MODULES {
                return Err(format!(
                    "only {} kernels execute {TINY_INSTRS:?} instructions at n={TINY_N}",
                    programs.len()
                ));
            }
            rng.shuffle(&mut programs);
            programs.truncate(TINY_MODULES);
            let request = |i: usize| Request {
                upload: None,
                jobs: vec![Job {
                    program: i % TINY_MODULES,
                    analyses: CALL_GRAPH,
                }],
            };
            // The first request on each module builds its session.
            let warm = (0..TINY_MODULES + warmup).map(request).collect();
            let timed = (0..session).map(request).collect();
            (programs, true, warm, timed)
        }
        Workload::LightAnalysis | Workload::HeavyAnalysis => {
            let (n, analyses) = if workload == Workload::LightAnalysis {
                (LIGHT_N, CALL_GRAPH)
            } else {
                (HEAVY_N, HEAVY)
            };
            let mut programs: Vec<Program> = KERNELS
                .iter()
                .map(|&name| {
                    let program = polybench::by_name(name, n).expect("a listed kernel");
                    Program::new(name, compile(&program))
                })
                .collect();
            programs.push(Program::new("synthetic_app", pick_app(&mut rng)?));
            rng.shuffle(&mut programs);
            let batch = Request {
                upload: None,
                jobs: (0..programs.len())
                    .map(|program| Job { program, analyses })
                    .collect(),
            };
            // The first warm-up request builds all six sessions.
            let warm = vec![batch.clone(); 1 + warmup];
            (programs, true, warm, vec![batch; session])
        }
        Workload::ColdUpload => {
            let app = Program::new("synthetic_app", pick_app(&mut rng)?);
            let request = |i: usize| Request {
                upload: Some(salted(&app.bytes, [seed, i as u64])),
                jobs: vec![Job {
                    program: 0,
                    analyses: UPLOAD_MIX,
                }],
            };
            let warm = (0..warmup).map(request).collect();
            let timed = (warmup..warmup + session).map(request).collect();
            (vec![app], false, warm, timed)
        }
    };
    Ok(Inputs {
        programs,
        preload,
        warmup,
        timed,
        traced: workload.traced_requests(),
    })
}

/// A call-heavy generated app whose size and executed instructions fall in
/// the workload bands.
fn pick_app(rng: &mut Rng) -> Result<Module, String> {
    for _ in 0..APP_CANDIDATES {
        let module = synthetic_app(&SyntheticConfig {
            seed: rng.next(),
            function_count: APP_FUNCTIONS,
            ..SyntheticConfig::small()
        });
        if APP_BYTES.contains(&encode(&module).len())
            && APP_INSTRS.contains(&executed_instrs(&module)?)
        {
            return Ok(module);
        }
    }
    Err(format!(
        "no generated app of {APP_BYTES:?} bytes executes {APP_INSTRS:?} instructions"
    ))
}

/// `bytes` plus a custom section carrying `salt`: the same code and size
/// under a new content hash, so every upload misses every cache tier.
fn salted(bytes: &[u8], salt: [u64; 2]) -> Vec<u8> {
    const NAME: &[u8] = b"wasabid-bench.salt";
    let payload = 1 + NAME.len() + 16;
    let mut out = Vec::with_capacity(bytes.len() + 2 + payload);
    out.extend_from_slice(bytes);
    // Custom section id, then its size and the name's length; both fit
    // one LEB128 byte.
    out.extend_from_slice(&[0, payload as u8, NAME.len() as u8]);
    out.extend_from_slice(NAME);
    for word in salt {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}
