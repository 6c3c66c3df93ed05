//! The Wasabi command-line tool.
//!
//! **Instrument mode** (default), mirroring the original tool's interface:
//! read a `.wasm` binary, instrument it, and write the instrumented binary
//! plus the static module info for the runtime.
//!
//! ```text
//! wasabi <input.wasm> [<output_dir>] [--hooks=<h1,h2,...>] [--threads=<n>] [--wat]
//! ```
//!
//! Outputs `<output_dir>/<input>.wasm` (instrumented) and
//! `<output_dir>/<input>.info.json` (the analogue of the generated
//! JavaScript `Wasabi.module.info` of the paper). Default output directory:
//! `out/`. By default all hooks are instrumented; `--hooks` selects a
//! subset (paper §2.4.2, selective instrumentation), e.g.
//! `--hooks=call_pre,call_post,return`.
//!
//! **Analysis mode** (`--analysis`): run named analyses *fused* — one
//! instrumentation pass, one execution pass, per-hook dispatch — and emit
//! one structured JSON report per analysis:
//!
//! ```text
//! wasabi <input.wasm> --analysis=<a1,a2,...> [--invoke=<export>] \
//!        [--args=<v1,v2,...>] [--out=<dir>] [--threads=<n>]
//! ```
//!
//! Reports go to stdout (one JSON object per line), or to
//! `<dir>/<analysis>.json` each when `--out` is given.
//!
//! **Sweep mode** (`--sweep`): run ONE module against MANY input vectors
//! as a cohort — one instrumentation + translation pass, N instances
//! sharing the translated code and stepped in interleaved rounds (see
//! [`wasabi::Pipeline::run_cohort`]):
//!
//! ```text
//! wasabi <input.wasm> --sweep <args.json> [--analysis=<a1,...>] \
//!        [--invoke=<export>] [--out=<dir>] [--threads=<n>]
//! ```
//!
//! `<args.json>` is a JSON array of argument arrays, one per instance,
//! e.g. `[[1], [2], [3]]`. One result JSON object per instance goes to
//! stdout; analysis reports (with per-instance events tagged by
//! `instance`) follow the `--analysis` conventions above.
//!
//! **Batch mode** (`--batch`): run many (module × analysis-set × input)
//! jobs from a JSON manifest over the worker [`wasabi::fleet`],
//! sharing one translated-module cache — each distinct
//! (module, hook set) is validated, instrumented, and translated exactly
//! once, no matter how many jobs use it:
//!
//! ```text
//! wasabi --batch <manifest.json> [--workers=<n>] [--out=<dir>] [--time]
//! ```
//!
//! Manifest shape (`module` paths are resolved relative to the manifest;
//! `analyses`, `invoke`, `args` are optional):
//!
//! ```json
//! {
//!   "jobs": [
//!     {"module": "kernels/gemm.wasm", "analyses": ["instruction_mix"],
//!      "invoke": "main", "args": [8]},
//!     {"module": "kernels/gemm.wasm", "analyses": ["call_graph"]},
//!     {"module": "kernels/gemm.wasm", "invoke": "main",
//!      "sweep": [[1], [2], [3]]}
//!   ]
//! }
//! ```
//!
//! A job with `"sweep"` (mutually exclusive with `"args"`) expands into
//! one cohort: every inner array is typed against the invoked export's
//! signature and becomes one instance, and the job's result carries one
//! per-instance outcome.
//!
//! One result JSON object per job goes to stdout (or, with `--out`, a
//! `<dir>/job<N>.json` summary plus one `<dir>/job<N>.<analysis>.json`
//! per report); a throughput + cache summary goes to stderr.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wasabi::fleet::Job;
use wasabi::hooks::{Analysis, Hook, HookSet};
use wasabi::report::JsonValue;
use wasabi::{json, stats, DiskCache, Instrumenter, ModuleCache, Wasabi};
use wasabi_analyses::registry;
use wasabi_server::protocol::{export_params, typed_args};
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;
use wasabi_wasm::types::ValType;

struct Args {
    input: Option<PathBuf>,
    output_dir: Option<PathBuf>,
    hooks: HookSet,
    threads: Option<usize>,
    emit_wat: bool,
    /// Analysis names for the fused run mode; empty = instrument mode.
    analyses: Vec<String>,
    invoke: String,
    invoke_args: Vec<String>,
    report_dir: Option<PathBuf>,
    /// Print a per-phase wall-time breakdown.
    time: bool,
    /// Input-vector file for sweep (cohort) mode.
    sweep: Option<PathBuf>,
    /// Manifest path for batch mode.
    batch: Option<PathBuf>,
    /// Fleet worker threads for batch mode.
    workers: Option<usize>,
    /// On-disk prepared-session cache directory for batch mode.
    disk_cache: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: wasabi <input.wasm> [<output_dir>] [--hooks=<h1,h2,...>] [--threads=<n>] [--wat]\n\
     \x20      wasabi <input.wasm> --analysis=<a1,a2,...> [--invoke=<export>]\n\
     \x20             [--args=<v1,v2,...>] [--out=<dir>] [--threads=<n>]\n\
     \x20      wasabi <input.wasm> --sweep <args.json> [--analysis=<a1,...>]\n\
     \x20             [--invoke=<export>] [--out=<dir>] [--threads=<n>]\n\
     \x20      wasabi --batch <manifest.json> [--workers=<n>] [--disk-cache=<dir>]\n\
     \x20             [--out=<dir>] [--time]\n\
     hooks: start nop unreachable if br br_if br_table begin end memory_size\n\
     memory_grow const drop select unary binary load store local global\n\
     return call_pre call_post (default: all)\n\
     analyses: instruction_mix basic_block_profiling instruction_coverage\n\
     branch_coverage call_graph taint_analysis cryptominer_detection\n\
     memory_tracing heap_profile\n\
     --analysis runs the named analyses fused over ONE instrumentation and\n\
     execution pass and writes one JSON report per analysis to stdout, or\n\
     to <dir>/<analysis>.json with --out\n\
     --invoke selects the export to run (default: main); --args passes\n\
     comma-separated numeric arguments, parsed against its signature\n\
     --wat additionally writes a human-readable dump of the instrumented module\n\
     --sweep runs the module once per input vector in <args.json> (a JSON\n\
     array of argument arrays, e.g. [[1],[2],[3]]) as ONE cohort sharing\n\
     the translated module, printing one result JSON object per instance;\n\
     analysis events carry the instance index\n\
     --time prints a phase breakdown (fused build/execute ms in analysis\n\
     mode; decode/instrument/encode ms in instrument mode; summed per-job\n\
     phases in batch mode)\n\
     --batch runs the manifest's jobs over a worker fleet\n\
     with a shared translated-module cache; each job is\n\
     {\"module\": <path>, \"analyses\": [...], \"invoke\": <export>, \"args\": [...]}\n\
     (module paths resolve relative to the manifest; analyses/invoke/args\n\
     are optional). Results go to stdout as one JSON object per job, or to\n\
     <dir>/job<N>.json (summary) + <dir>/job<N>.<analysis>.json with --out;\n\
     --workers sets the fleet size (default: all cores); --disk-cache\n\
     persists prepared sessions to <dir> so later runs skip the build\n\
     server mode: `wasabi serve ...` runs the persistent daemon and\n\
     `wasabi client ...` talks to it (same as the wasabid/wasabi-client\n\
     bins; see `wasabi serve --help` / `wasabi client --help`)"
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut input = None;
    let mut output_dir = None;
    let mut hooks = HookSet::all();
    let mut hooks_given = false;
    let mut threads = None;
    let mut emit_wat = false;
    let mut analyses = Vec::new();
    let mut invoke = "main".to_string();
    let mut invoke_args = Vec::new();
    let mut report_dir = None;
    let mut time = false;
    let mut sweep = None;
    let mut batch = None;
    let mut workers = None;
    let mut disk_cache = None;

    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        // Accept both `--flag=value` and `--flag value`.
        let mut take_value = |current: &str, flag: &str| -> Option<Result<String, String>> {
            if let Some(value) = current.strip_prefix(&format!("{flag}=")) {
                return Some(Ok(value.to_string()));
            }
            if current == flag {
                return Some(
                    raw.next()
                        .ok_or_else(|| format!("{flag} requires a value\n{}", usage())),
                );
            }
            None
        };

        if arg == "--wat" {
            emit_wat = true;
        } else if arg == "--time" {
            time = true;
        } else if let Some(list) = take_value(&arg, "--hooks") {
            let list = list?;
            let mut set = HookSet::empty();
            for name in list.split(',').filter(|n| !n.is_empty()) {
                let hook = Hook::ALL
                    .into_iter()
                    .find(|h| h.name() == name)
                    .ok_or_else(|| format!("unknown hook {name:?}"))?;
                set.insert(hook);
            }
            hooks = set;
            hooks_given = true;
        } else if let Some(list) = take_value(&arg, "--analysis") {
            for name in list?.split(',').filter(|n| !n.is_empty()) {
                if !registry::NAMES.contains(&name) {
                    return Err(format!(
                        "unknown analysis {name:?} (known: {})",
                        registry::NAMES.join(", ")
                    ));
                }
                if analyses.iter().any(|a| a == name) {
                    return Err(format!("analysis {name:?} given more than once"));
                }
                analyses.push(name.to_string());
            }
        } else if let Some(export) = take_value(&arg, "--invoke") {
            invoke = export?;
        } else if let Some(list) = take_value(&arg, "--args") {
            invoke_args = list?
                .split(',')
                .filter(|v| !v.is_empty())
                .map(str::to_string)
                .collect();
        } else if let Some(dir) = take_value(&arg, "--out") {
            report_dir = Some(PathBuf::from(dir?));
        } else if let Some(n) = take_value(&arg, "--threads") {
            let n = n?;
            threads = Some(
                n.parse::<usize>()
                    .map_err(|_| format!("invalid thread count {n:?}"))?,
            );
        } else if let Some(path) = take_value(&arg, "--sweep") {
            sweep = Some(PathBuf::from(path?));
        } else if let Some(path) = take_value(&arg, "--batch") {
            batch = Some(PathBuf::from(path?));
        } else if let Some(n) = take_value(&arg, "--workers") {
            let n = n?;
            workers = Some(
                n.parse::<usize>()
                    .map_err(|_| format!("invalid worker count {n:?}"))?,
            );
        } else if let Some(dir) = take_value(&arg, "--disk-cache") {
            disk_cache = Some(PathBuf::from(dir?));
        } else if arg == "--help" || arg == "-h" {
            return Err(usage().to_string());
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}\n{}", usage()));
        } else if input.is_none() {
            input = Some(PathBuf::from(arg));
        } else if output_dir.is_none() {
            output_dir = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected argument {arg:?}\n{}", usage()));
        }
    }

    // The modes take disjoint options; reject silently-ignored
    // combinations instead of letting e.g. `--hooks` be overridden by the
    // analyses' union hook set.
    if sweep.is_some() {
        if batch.is_some() {
            return Err(format!(
                "--sweep cannot be combined with --batch\n{}",
                usage()
            ));
        }
        if !invoke_args.is_empty() {
            return Err(format!(
                "--sweep takes its inputs from the sweep file; it cannot be \
                 combined with --args\n{}",
                usage()
            ));
        }
        if hooks_given || emit_wat || output_dir.is_some() {
            return Err(format!(
                "--sweep cannot be combined with --hooks, --wat, or an \
                 output directory (use --out for reports)\n{}",
                usage()
            ));
        }
        if input.is_none() {
            return Err(format!("--sweep requires an input module\n{}", usage()));
        }
    }
    if !analyses.is_empty() && (hooks_given || emit_wat || output_dir.is_some()) {
        return Err(format!(
            "--analysis cannot be combined with --hooks, --wat, or an \
             output directory (use --out for reports)\n{}",
            usage()
        ));
    }
    if batch.is_some()
        && (input.is_some()
            || !analyses.is_empty()
            || hooks_given
            || emit_wat
            || output_dir.is_some()
            || threads.is_some())
    {
        return Err(format!(
            "--batch takes everything from the manifest; it only combines \
             with --workers, --disk-cache, --out, and --time\n{}",
            usage()
        ));
    }
    if workers.is_some() && batch.is_none() {
        return Err(format!("--workers requires --batch\n{}", usage()));
    }
    if disk_cache.is_some() && batch.is_none() {
        return Err(format!("--disk-cache requires --batch\n{}", usage()));
    }

    if batch.is_none() && input.is_none() {
        return Err(usage().to_string());
    }
    Ok(Args {
        input,
        output_dir,
        hooks,
        threads,
        emit_wat,
        analyses,
        invoke,
        invoke_args,
        report_dir,
        time,
        sweep,
        batch,
        workers,
        disk_cache,
    })
}

fn decode_input(input: &PathBuf) -> Result<wasabi_wasm::Module, String> {
    let bytes =
        std::fs::read(input).map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    wasabi_wasm::decode::decode(&bytes)
        .map_err(|e| format!("cannot decode {}: {e}", input.display()))
}

/// Parse CLI argument strings against the invoked export's signature.
fn parse_invoke_args(raw: &[String], params: &[ValType]) -> Result<Vec<Val>, String> {
    if raw.len() != params.len() {
        return Err(format!(
            "export takes {} argument(s), {} given",
            params.len(),
            raw.len()
        ));
    }
    raw.iter()
        .zip(params)
        .map(|(text, ty)| {
            let parsed = match ty {
                ValType::I32 => text.parse().map(Val::I32).ok(),
                ValType::I64 => text.parse().map(Val::I64).ok(),
                ValType::F32 => text.parse().map(Val::F32).ok(),
                ValType::F64 => text.parse().map(Val::F64).ok(),
            };
            parsed.ok_or_else(|| format!("invalid {ty} argument {text:?}"))
        })
        .collect()
}

/// Parse a JSON array-of-arrays of sweep inputs against the invoked
/// export's parameter types.
fn parse_sweep_inputs(value: &JsonValue, params: &[ValType]) -> Result<Vec<Vec<Val>>, String> {
    let rows = value
        .as_array()
        .ok_or_else(|| "sweep inputs must be a JSON array of argument arrays".to_string())?;
    if rows.is_empty() {
        return Err("sweep inputs are empty (need at least one argument array)".to_string());
    }
    rows.iter()
        .enumerate()
        .map(|(index, row)| {
            let row = row
                .as_array()
                .ok_or_else(|| format!("sweep entry {index} must be an array"))?;
            typed_args(row, params).map_err(|e| format!("sweep entry {index}: {e}"))
        })
        .collect()
}

/// Render one cohort member's result for JSON output.
fn sweep_result_json<E: std::fmt::Display>(result: &Result<Vec<Val>, E>) -> JsonValue {
    match result {
        Ok(values) => JsonValue::array(values.iter().map(|v| JsonValue::Str(format!("{v:?}")))),
        Err(error) => JsonValue::object([("error", JsonValue::Str(error.to_string()))]),
    }
}

/// Sweep mode: one module, many input vectors, executed as ONE cohort —
/// a single instrumentation + translation pass shared by all instances.
fn run_sweep(args: &Args, sweep_path: &Path) -> Result<(), String> {
    let input = args.input.as_ref().expect("checked in parse_args");
    let module = decode_input(input)?;
    let text = std::fs::read_to_string(sweep_path)
        .map_err(|e| format!("cannot read {}: {e}", sweep_path.display()))?;
    let parsed =
        json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", sweep_path.display()))?;
    let params = export_params(&module, &args.invoke)?;
    let inputs = parse_sweep_inputs(&parsed, &params)
        .map_err(|e| format!("{}: {e}", sweep_path.display()))?;

    let mut analyses: Vec<Box<dyn Analysis>> = args
        .analyses
        .iter()
        .map(|name| registry::by_name(name).expect("validated during parsing"))
        .collect();
    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    if let Some(threads) = args.threads {
        builder = builder.threads(threads);
    }

    let build_before = stats::fused_build_time();
    let start = Instant::now();
    let mut pipeline = builder
        .build(&module)
        .map_err(|e| format!("module does not validate: {e}"))?;
    let build_ms = (stats::fused_build_time() - build_before).as_secs_f64() * 1000.0;

    let execute_start = Instant::now();
    let outcomes = pipeline.run_cohort(&args.invoke, &inputs);
    let execute_ms = execute_start.elapsed().as_secs_f64() * 1000.0;
    let elapsed = start.elapsed();

    let mut traps = 0usize;
    for (instance, outcome) in outcomes.iter().enumerate() {
        if outcome.result.is_err() {
            traps += 1;
        }
        let line = JsonValue::object([
            ("instance", JsonValue::from(instance as u64)),
            ("result", sweep_result_json(&outcome.result)),
            ("executed_instrs", JsonValue::from(outcome.executed_instrs)),
            ("rounds", JsonValue::from(outcome.rounds)),
        ]);
        println!("{line}");
    }

    if args.time {
        eprintln!(
            "--time: build (fused instrument+translate) {build_ms:.1} ms, execute {execute_ms:.1} ms"
        );
    }
    eprintln!(
        "sweep done: {} instance(s) of {:?} as one cohort in {:.1} ms \
         ({} analysis(es) fused, {} trap(s))",
        outcomes.len(),
        args.invoke,
        elapsed.as_secs_f64() * 1000.0,
        args.analyses.len(),
        traps,
    );

    let reports = pipeline.reports();
    if let Some(dir) = &args.report_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for report in &reports {
            let path = dir.join(format!("{}.json", report.analysis));
            std::fs::write(&path, report.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("  wrote {}", path.display());
        }
    } else {
        for report in &reports {
            println!("{}", report.to_json());
        }
    }
    Ok(())
}

/// Batch mode: run the manifest's jobs over the worker fleet with a
/// shared translated-module cache.
fn run_batch(args: &Args, manifest_path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let manifest =
        json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", manifest_path.display()))?;
    let jobs_json = manifest
        .get("jobs")
        .and_then(|jobs| jobs.as_array())
        .ok_or_else(|| "manifest must be an object with a \"jobs\" array".to_string())?;
    let base_dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));

    // Decode each distinct module file once; all jobs on it share the Arc
    // (and, downstream, one cache entry per hook set).
    let mut modules: HashMap<String, Arc<Module>> = HashMap::new();
    let mut fleet = registry::fleet();
    if let Some(workers) = args.workers {
        fleet = fleet.workers(workers);
    }
    if let Some(dir) = &args.disk_cache {
        let disk = DiskCache::new(dir)
            .map_err(|e| format!("cannot open disk cache {}: {e}", dir.display()))?;
        fleet = fleet.cache(Arc::new(ModuleCache::new().with_disk(disk)));
    }
    let mut fleet = fleet.build();
    for (index, job) in jobs_json.iter().enumerate() {
        let bad = |what: &str| format!("job {index}: {what}");
        let key = job
            .get("module")
            .and_then(|m| m.as_str())
            .ok_or_else(|| bad("missing \"module\""))?
            .to_string();
        let module = match modules.get(&key) {
            Some(module) => Arc::clone(module),
            None => {
                let module = Arc::new(decode_input(&base_dir.join(&key))?);
                modules.insert(key.clone(), Arc::clone(&module));
                module
            }
        };
        let mut analyses = Vec::new();
        if let Some(list) = job.get("analyses") {
            for name in list
                .as_array()
                .ok_or_else(|| bad("\"analyses\" must be an array"))?
            {
                let name = name
                    .as_str()
                    .ok_or_else(|| bad("analysis names must be strings"))?;
                if !registry::NAMES.contains(&name) {
                    return Err(bad(&format!(
                        "unknown analysis {name:?} (known: {})",
                        registry::NAMES.join(", ")
                    )));
                }
                analyses.push(name.to_string());
            }
        }
        let invoke = job
            .get("invoke")
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("\"invoke\" must be a string"))
            })
            .transpose()?
            .unwrap_or_else(|| "main".to_string());
        let params = export_params(&module, &invoke).map_err(|e| bad(&e))?;
        let job_spec = if let Some(sweep_json) = job.get("sweep") {
            if job.get("args").is_some() {
                return Err(bad("\"sweep\" and \"args\" are mutually exclusive"));
            }
            let inputs = parse_sweep_inputs(sweep_json, &params).map_err(|e| bad(&e))?;
            Job::sweep(key, module, invoke, inputs)
        } else {
            let raw_args = job
                .get("args")
                .map(|v| v.as_array().ok_or_else(|| bad("\"args\" must be an array")))
                .transpose()?
                .unwrap_or(&[]);
            let vals = typed_args(raw_args, &params).map_err(|e| bad(&e))?;
            Job::new(key, module, invoke, vals)
        };
        fleet.submit(job_spec.analyses(analyses));
    }

    let job_count = fleet.len();
    eprintln!(
        "batch: {job_count} job(s) over {} distinct module(s), {} worker(s)",
        modules.len(),
        fleet.workers(),
    );
    let batch = fleet.run();

    if let Some(dir) = &args.report_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut failures = 0usize;
    for outcome in &batch.jobs {
        match &outcome.result {
            Ok(results) => {
                let results =
                    JsonValue::array(results.iter().map(|v| JsonValue::Str(format!("{v:?}"))));
                // A sweep job additionally records one outcome per cohort
                // instance; plain jobs omit the field entirely.
                let sweep = outcome.sweep.as_ref().map(|members| {
                    JsonValue::array(members.iter().map(|m| {
                        JsonValue::object([
                            ("instance", JsonValue::from(u64::from(m.instance))),
                            ("result", sweep_result_json(&m.result)),
                            ("executed_instrs", JsonValue::from(m.executed_instrs)),
                        ])
                    }))
                });
                if let Some(dir) = &args.report_dir {
                    // Every job leaves a record, even one with no
                    // analyses: a summary with the invocation results,
                    // plus one file per analysis report.
                    let mut pairs = vec![
                        ("job", JsonValue::from(outcome.job)),
                        ("module", JsonValue::Str(outcome.key.clone())),
                        ("invoke", JsonValue::Str(outcome.invoke.clone())),
                        ("results", results),
                        (
                            "analyses",
                            JsonValue::array(
                                outcome
                                    .reports
                                    .iter()
                                    .map(|r| JsonValue::Str(r.analysis.clone())),
                            ),
                        ),
                    ];
                    if let Some(sweep) = sweep {
                        pairs.push(("sweep", sweep));
                    }
                    let summary = JsonValue::object(pairs);
                    let path = dir.join(format!("job{}.json", outcome.job));
                    std::fs::write(&path, summary.to_string())
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    for report in &outcome.reports {
                        let path = dir.join(format!("job{}.{}.json", outcome.job, report.analysis));
                        std::fs::write(&path, report.to_json())
                            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    }
                } else {
                    let mut pairs = vec![
                        ("job", JsonValue::from(outcome.job)),
                        ("module", JsonValue::Str(outcome.key.clone())),
                        ("invoke", JsonValue::Str(outcome.invoke.clone())),
                        ("results", results),
                        (
                            "reports",
                            JsonValue::array(outcome.reports.iter().map(|r| {
                                JsonValue::object([
                                    ("analysis", JsonValue::Str(r.analysis.clone())),
                                    ("data", r.data.clone()),
                                ])
                            })),
                        ),
                    ];
                    if let Some(sweep) = sweep {
                        pairs.push(("sweep", sweep));
                    }
                    let line = JsonValue::object(pairs);
                    println!("{line}");
                }
            }
            Err(error) => {
                failures += 1;
                eprintln!("job {} ({}): FAILED: {error}", outcome.job, outcome.key);
            }
        }
    }

    if args.time {
        let sum = |f: fn(&wasabi::fleet::JobStats) -> std::time::Duration| {
            batch
                .jobs
                .iter()
                .map(|j| f(&j.stats))
                .sum::<std::time::Duration>()
                .as_secs_f64()
                * 1000.0
        };
        eprintln!(
            "--time: per-job sums: build {:.1} ms, execute {:.1} ms",
            sum(|s| s.build),
            sum(|s| s.execute),
        );
    }
    eprintln!(
        "batch done: {} job(s) in {:.1} ms = {:.1} jobs/sec ({} cache hit(s), \
         {} miss(es), {} failure(s))",
        batch.jobs.len(),
        batch.wall.as_secs_f64() * 1000.0,
        batch.jobs_per_sec(),
        batch.cache_hits,
        batch.cache_misses,
        failures,
    );
    if failures > 0 {
        return Err(format!("{failures} job(s) failed"));
    }
    Ok(())
}

/// Analysis mode: one fused instrumentation + execution pass, one JSON
/// report per analysis.
fn run_analyses(args: &Args) -> Result<(), String> {
    let input = args.input.as_ref().expect("checked in run()");
    let module = decode_input(input)?;

    let mut analyses: Vec<Box<dyn Analysis>> = args
        .analyses
        .iter()
        .map(|name| registry::by_name(name).expect("validated during parsing"))
        .collect();

    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    if let Some(threads) = args.threads {
        builder = builder.threads(threads);
    }

    // The build phase goes through the direct-emit path: instrumentation
    // and translation fuse into ONE pass with no internal boundary, so
    // `--time` reports one build phase (from the fused stats timer, which
    // the rewrite-path instrument/translate timers never feed — no
    // double-count, and no misleading zero instrument phase).
    let build_before = stats::fused_build_time();
    let start = Instant::now();
    let mut pipeline = builder
        .build(&module)
        .map_err(|e| format!("module does not validate: {e}"))?;
    let build_ms = (stats::fused_build_time() - build_before).as_secs_f64() * 1000.0;

    let params = pipeline
        .session()
        .info()
        .functions
        .iter()
        .find(|f| f.export.iter().any(|e| e == &args.invoke))
        .map(|f| f.type_.params.clone())
        .ok_or_else(|| format!("no exported function {:?}", args.invoke))?;
    let invoke_args = parse_invoke_args(&args.invoke_args, &params)?;

    let execute_start = Instant::now();
    pipeline
        .run(&args.invoke, &invoke_args)
        .map_err(|e| format!("running {:?} failed: {e}", args.invoke))?;
    let execute_ms = execute_start.elapsed().as_secs_f64() * 1000.0;
    let elapsed = start.elapsed();

    if args.time {
        eprintln!("--time: build (fused instrument+translate) {build_ms:.1} ms, execute {execute_ms:.1} ms");
    }

    let reports = pipeline.reports();
    eprintln!(
        "ran {} analysis(es) fused over {:?} in {:.1} ms (1 instrumentation pass, {} hooks enabled)",
        reports.len(),
        args.invoke,
        elapsed.as_secs_f64() * 1000.0,
        pipeline.hooks().len(),
    );

    if let Some(dir) = &args.report_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for report in &reports {
            let path = dir.join(format!("{}.json", report.analysis));
            std::fs::write(&path, report.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("  wrote {}", path.display());
        }
    } else {
        for report in &reports {
            println!("{}", report.to_json());
        }
    }
    Ok(())
}

/// Instrument mode: write the instrumented binary + info JSON.
fn run_instrument(args: &Args) -> Result<(), String> {
    let input = args.input.as_ref().expect("checked in run()");
    let decode_start = Instant::now();
    let bytes =
        std::fs::read(input).map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let module = wasabi_wasm::decode::decode(&bytes)
        .map_err(|e| format!("cannot decode {}: {e}", input.display()))?;
    let decode_ms = decode_start.elapsed().as_secs_f64() * 1000.0;

    let mut instrumenter = Instrumenter::new(args.hooks);
    if let Some(threads) = args.threads {
        instrumenter = instrumenter.threads(threads);
    }
    let start = Instant::now();
    let (instrumented, info) = instrumenter
        .run(&module)
        .map_err(|e| format!("module does not validate: {e}"))?;
    let elapsed = start.elapsed();

    let encode_start = Instant::now();
    let output = wasabi_wasm::encode::encode(&instrumented);
    let encode_ms = encode_start.elapsed().as_secs_f64() * 1000.0;

    if args.time {
        eprintln!(
            "--time: decode {decode_ms:.1} ms, instrument {:.1} ms, encode {encode_ms:.1} ms",
            elapsed.as_secs_f64() * 1000.0
        );
    }

    let output_dir = args
        .output_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("out"));
    std::fs::create_dir_all(&output_dir)
        .map_err(|e| format!("cannot create {}: {e}", output_dir.display()))?;
    let stem = input
        .file_stem()
        .unwrap_or_else(|| input.as_os_str())
        .to_string_lossy()
        .to_string();
    let wasm_path = output_dir.join(format!("{stem}.wasm"));
    let info_path = output_dir.join(format!("{stem}.info.json"));
    std::fs::write(&wasm_path, &output)
        .map_err(|e| format!("cannot write {}: {e}", wasm_path.display()))?;
    std::fs::write(&info_path, info.to_json())
        .map_err(|e| format!("cannot write {}: {e}", info_path.display()))?;
    println!(
        "instrumented {} for {} hook(s) in {:.1} ms",
        input.display(),
        args.hooks.len(),
        elapsed.as_secs_f64() * 1000.0
    );
    println!(
        "  {} -> {} bytes (+{:.0}%), {} low-level hooks generated",
        bytes.len(),
        output.len(),
        (output.len() as f64 - bytes.len() as f64) / bytes.len() as f64 * 100.0,
        info.hooks.len()
    );
    println!("  wrote {}", wasm_path.display());
    println!("  wrote {}", info_path.display());
    if args.emit_wat {
        let wat_path = output_dir.join(format!("{stem}.wat"));
        std::fs::write(&wat_path, wasabi_wasm::wat::render(&instrumented))
            .map_err(|e| format!("cannot write {}: {e}", wat_path.display()))?;
        println!("  wrote {}", wat_path.display());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(manifest) = &args.batch {
        run_batch(args, manifest)
    } else if let Some(sweep) = &args.sweep {
        run_sweep(args, sweep)
    } else if args.analyses.is_empty() {
        run_instrument(args)
    } else {
        run_analyses(args)
    }
}

fn main() -> ExitCode {
    // The server-mode subcommands parse their own flags; everything else
    // is the classic flag grammar below.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            return match wasabi_server::cli::serve_main(args[1..].to_vec()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("client") => {
            return match wasabi_server::cli::client_main(args[1..].to_vec()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    match parse_args(args.into_iter()) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
