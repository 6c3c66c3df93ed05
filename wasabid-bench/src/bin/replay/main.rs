//! `--trace 1`: the per-layer metrics of one workload.
//!
//! The run pairs each of the workload's first `traced` timed requests with
//! its replay through each layer's public calls:
//!
//! 1. A daemon session sends the requests through `wasabid`, tracing off as
//!    in the timed runs, and records each request's latency.
//! 2. A replay with spans on serves the same requests in-process the way
//!    the daemon does: client frame encode, `FrameReader::poll`,
//!    `Request::from_json`, `ContentStore::insert` or the fleet run,
//!    `Response::to_json` plus `write_frame`, then the client's decode.
//!    Each call is one span (name, start, end, parent, request id).
//! 3. A replay with spans off, from a fresh state, gives the tracing
//!    overhead.
//!
//! A layer that runs inside another call is timed by a separate call after
//! the request and placed inside the enclosing span: `json.parse` inside
//! `protocol.frame_decode`; inside `fleet.run`, per job, the cache lookup or
//! build, `job.execute` (both from `JobStats`) and `Pipeline::reports`;
//! inside `protocol.frame_encode`, `Report::to_json`. A job's execute is
//! split by three runs that differ in one layer each: the VM alone, plus the
//! hook boundary under a do-nothing analysis subscribed to the job's hooks,
//! plus the real analyses' callbacks (the job's own execute). The metrics of
//! these layers, and of `json.parse` and the frame decode around it, are
//! medians per request of the separately timed calls or of their
//! differences; their spans are cut to fit inside the enclosing span.
//!
//! Each request's self times plus `daemon.residual_us` add up to its latency
//! through the daemon; the run fails if they do not. Spans are written to
//! `trace-<workload>.jsonl` when the run ends.

mod spans;

use std::collections::HashMap;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wasabi::fleet::{BatchSummary, Fleet, Job, JobOutcome, JobStats};
use wasabi::hooks::{Analysis, HookSet};
use wasabi::{json, stats, AnalysisSession, Budget, CancelToken, ModuleCache, Wasabi};
use wasabi_analyses::registry;
use wasabi_server::protocol::{export_params, typed_args};
use wasabi_server::{
    read_frame, write_frame, ContentStore, FrameReader, JobResult, JobSpec, Request as WireRequest,
    Response,
};
use wasabi_vm::{EmptyHost, Instance, TranslatedModule};
use wasabi_wasm::module::Module;

use wasabid_bench::daemon::{job_specs, run_session, submit_specs, verify};
use wasabid_bench::expect::Oracle;
use wasabid_bench::metrics::{median, print_result, Metric, MISSED};
use wasabid_bench::options::Options;
use wasabid_bench::workload::{self, Inputs, Request};

use spans::{SpanId, Tracer};

/// The daemon's default session-cache capacity.
const CACHE_CAPACITY: usize = 64;

fn main() -> ExitCode {
    match Options::from_args().and_then(|options| run(&options)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wasabid-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: &Options) -> Result<(), String> {
    let inputs = workload::generate(options.workload, options.seed)?;
    let oracle = Oracle::new(&inputs)?;
    let count = inputs.traced;

    let socket = PathBuf::from(format!("wasabid-{}-trace.sock", std::process::id()));
    let session = run_session(&inputs, &oracle, &options.wasabid, &socket, count);
    if let Some(e) = &session.error {
        eprintln!("wasabid-bench: daemon session: {e}");
    }
    // The two replays alternate request by request, so a slow phase of
    // the host falls on both alike.
    let mut traced = Replay::new(&inputs, &oracle, true);
    let mut untraced = Replay::new(&inputs, &oracle, false);
    traced.set_up();
    untraced.set_up();
    for request in &inputs.timed[..count] {
        traced.serve_timed(request);
        untraced.serve_timed(request);
    }
    for error in traced.error.iter().chain(&untraced.error) {
        eprintln!("wasabid-bench: replay: {error}");
    }
    let failed = (0..count)
        .filter(|&i| {
            session.latencies[i] == MISSED || traced.records[i].failed || untraced.records[i].failed
        })
        .count();

    let layers = traced.self_times_by_request(count);
    let mut residuals = Vec::new();
    for (i, layer) in layers.iter().enumerate() {
        let root = traced.records[i].root;
        let own: u64 = layer.values().sum();
        if own != root {
            return Err(format!(
                "request {i}: self times add up to {own} ns, its replay took {root} ns"
            ));
        }
        if session.latencies[i] == MISSED {
            continue;
        }
        let latency = (session.latencies[i] * 1e9).round() as i64;
        let residual = latency - root as i64;
        if own as i64 + residual != latency {
            return Err(format!(
                "request {i}: self times and residual miss its latency"
            ));
        }
        residuals.push(residual as f64);
    }

    let path = format!("trace-{}.jsonl", options.workload.name());
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    traced
        .tracer
        .write(&mut BufWriter::new(file))
        .map_err(|e| format!("{path}: {e}"))?;

    let metrics = traced.metrics(&layers, &untraced, &residuals);
    print_result(failed == 0, count, failed, &metrics);
    Ok(())
}

/// What one replayed request measured.
#[derive(Debug, Clone, Default)]
struct Record {
    /// Duration of the request's replay, in nanoseconds.
    root: u64,
    /// Time its fleet took to start the first job (`JobStats::queue`).
    queue: u64,
    /// Its frames' `json::parse`, timed on its own.
    parse: u64,
    /// Its frames' `FrameReader::poll`, minus `parse`.
    frame: i64,
    /// Its jobs on the VM alone, in nanoseconds.
    vm: u64,
    /// Its jobs under a do-nothing analysis, minus on the VM alone.
    hook: i64,
    /// Its jobs' execute, minus under a do-nothing analysis.
    callback: i64,
    /// Instructions its jobs execute, uninstrumented.
    instrs: u64,
    /// Host calls its jobs make under their hooks.
    host_calls: u64,
    /// Session-cache misses it caused.
    misses: u64,
    /// Bytes of its request frames.
    bytes_in: u64,
    /// Bytes of its response frames, without the `done` frame (whose
    /// `wall_ms` varies in width).
    bytes_out: u64,
    failed: bool,
}

/// Work left for after a request's replay: derived spans to time and place.
#[derive(Debug, Default)]
struct Pending {
    /// Each decoded frame with its `protocol.frame_decode` span.
    frames: Vec<(SpanId, Vec<u8>)>,
    fleet: Option<FleetRun>,
    /// The `protocol.frame_encode` span of the result frames.
    encode: Option<SpanId>,
}

/// A submit's `fleet.run` span, its jobs, and each outcome's job index and
/// stats in completion order.
type FleetRun = (SpanId, Vec<JobSpec>, Vec<(usize, JobStats)>);

/// What the three runs of one job measured, in nanoseconds.
struct Legs {
    /// The uninstrumented module on the VM alone.
    vm: u64,
    /// Under a do-nothing analysis subscribed to the job's hooks.
    idle: u64,
    /// `Pipeline::reports` after a run with the real analyses.
    reports: u64,
    instrs: u64,
    host_calls: u64,
}

/// Subscribes to a job's hooks and ignores their events: a run under it
/// pays the hook boundary and event construction, but no callbacks.
struct Idle(HookSet);

impl Analysis for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn hooks(&self) -> HookSet {
        self.0
    }
}

/// The governance the daemon gives every job: a cancel token, so the VM
/// polls a budget.
fn governed() -> Budget {
    Budget::new().cancel_token(CancelToken::new())
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn frame(value: &wasabi::JsonValue, out: &mut Vec<u8>) {
    write_frame(out, value).expect("frames fit in memory");
}

fn decode_responses(mut bytes: &[u8]) -> Result<Vec<Response>, String> {
    let mut responses = Vec::new();
    while !bytes.is_empty() {
        let value = read_frame(&mut bytes).map_err(|e| e.to_string())?;
        responses.push(Response::from_json(&value)?);
    }
    Ok(responses)
}

fn hooks_of(analyses: &[String]) -> Result<HookSet, String> {
    analyses.iter().try_fold(HookSet::empty(), |set, name| {
        registry::by_name(name)
            .map(|a| set.union(a.hooks()))
            .ok_or_else(|| format!("unknown analysis {name}"))
    })
}

/// The in-process stand-in for one daemon and its client.
struct Replay<'a> {
    inputs: &'a Inputs,
    oracle: &'a Oracle,
    tracer: Tracer,
    store: ContentStore,
    cache: Arc<ModuleCache>,
    hashes: Vec<String>,
    /// Uninstrumented translations for the VM-alone runs, by module hash.
    plain: HashMap<String, TranslatedModule>,
    /// The timed requests, in order.
    records: Vec<Record>,
    /// Id of the next setup request; setup requests are numbered after the
    /// timed ones.
    next_setup: u32,
    /// Whether setup succeeded.
    ready: bool,
    /// Duration of each session-cache hit lookup, in nanoseconds.
    lookups: Vec<u64>,
    error: Option<String>,
}

impl<'a> Replay<'a> {
    fn new(inputs: &'a Inputs, oracle: &'a Oracle, spans: bool) -> Replay<'a> {
        Replay {
            inputs,
            oracle,
            tracer: Tracer::new(spans),
            store: ContentStore::new(),
            cache: Arc::new(ModuleCache::bounded(CACHE_CAPACITY)),
            hashes: Vec::new(),
            plain: HashMap::new(),
            records: Vec::new(),
            next_setup: inputs.traced as u32,
            ready: true,
            lookups: Vec::new(),
            error: None,
        }
    }

    /// Set up as a daemon session does: upload, then warm up.
    fn set_up(&mut self) {
        let inputs = self.inputs;
        if inputs.preload {
            for program in &inputs.programs {
                let upload = Request {
                    upload: Some(program.bytes.clone()),
                    jobs: Vec::new(),
                };
                let hash = self.serve_setup(&upload);
                self.hashes.extend(hash);
            }
        }
        for request in &inputs.warmup {
            self.serve_setup(request);
        }
    }

    fn serve_setup(&mut self, request: &Request) -> Option<String> {
        let (record, hash) = self.serve(self.next_setup, request);
        self.next_setup += 1;
        self.ready &= !record.failed;
        hash
    }

    /// Serve the next timed request.
    fn serve_timed(&mut self, request: &Request) {
        let (mut record, _) = self.serve(self.records.len() as u32, request);
        record.failed |= !self.ready;
        self.records.push(record);
    }

    /// Replay one request; a request without jobs is a bare upload, whose
    /// hash is returned.
    fn serve(&mut self, id: u32, request: &Request) -> (Record, Option<String>) {
        let mut record = Record::default();
        let mut pending = Pending::default();
        let specs = job_specs(request, &self.hashes);
        let begin = self.tracer.now();
        let root = self.tracer.open("request", id);
        let outcome = self.round_trips(id, request, specs, &mut record, &mut pending);
        match outcome {
            Ok(_) => self.tracer.close(root),
            Err(_) => self.tracer.unwind(),
        }
        let end = self.tracer.now();
        record.root = if self.tracer.is_on() {
            self.tracer.end_of(root) - self.tracer.start_of(root)
        } else {
            end - begin
        };
        let checked = outcome.and_then(|(results, hash)| {
            verify(request, &results, self.oracle)?;
            Ok(hash)
        });
        let hash = match checked {
            Ok(hash) => hash,
            Err(e) => {
                record.failed = true;
                self.error.get_or_insert(format!("request {id}: {e}"));
                return (record, None);
            }
        };
        if self.tracer.is_on() {
            if let Err(e) = self.measure(pending, &mut record) {
                record.failed = true;
                self.error.get_or_insert(format!("request {id}: {e}"));
            }
        }
        (record, hash)
    }

    /// The request's round trips: the upload (if any), then the submit
    /// (unless it has no jobs).
    fn round_trips(
        &mut self,
        id: u32,
        request: &Request,
        specs: Option<Vec<JobSpec>>,
        record: &mut Record,
        pending: &mut Pending,
    ) -> Result<(Vec<JobResult>, Option<String>), String> {
        let (specs, hash) = match (specs, &request.upload) {
            (Some(specs), _) => (specs, None),
            (None, Some(bytes)) => {
                let hash = self.upload(id, bytes, record, pending)?;
                let specs =
                    submit_specs(request.jobs.iter().map(|job| (hash.as_str(), job.analyses)));
                (specs, Some(hash))
            }
            (None, None) => unreachable!("job_specs builds the specs of requests without uploads"),
        };
        if request.jobs.is_empty() {
            return Ok((Vec::new(), hash));
        }
        Ok((self.submit(id, specs, record, pending)?, hash))
    }

    /// The daemon's side of reading a request frame.
    fn decode(
        &mut self,
        id: u32,
        bytes: Vec<u8>,
        pending: &mut Pending,
    ) -> Result<WireRequest, String> {
        let span = self.tracer.open("protocol.frame_decode", id);
        let value = FrameReader::new().poll(&mut &bytes[..]);
        self.tracer.close(span);
        pending.frames.push((span, bytes));
        let value = value
            .map_err(|e| e.to_string())?
            .ok_or("a whole frame decoded to nothing")?;
        let span = self.tracer.open("protocol.request_decode", id);
        let request = WireRequest::from_json(&value);
        self.tracer.close(span);
        request.map_err(|e| e.to_string())
    }

    fn upload(
        &mut self,
        id: u32,
        bytes: &[u8],
        record: &mut Record,
        pending: &mut Pending,
    ) -> Result<String, String> {
        let span = self.tracer.open("client.frame_encode", id);
        let mut request = Vec::new();
        frame(
            &WireRequest::Upload {
                bytes: bytes.to_vec(),
            }
            .to_json(),
            &mut request,
        );
        self.tracer.close(span);
        record.bytes_in += request.len() as u64;
        let WireRequest::Upload { bytes } = self.decode(id, request, pending)? else {
            return Err("an upload frame decoded as another request".to_string());
        };
        let span = self.tracer.open("store.insert", id);
        let receipt = self.store.insert(&bytes);
        self.tracer.close(span);
        let receipt = receipt.map_err(|e| e.to_string())?;
        let span = self.tracer.open("protocol.frame_encode", id);
        let mut response = Vec::new();
        frame(
            &Response::Uploaded {
                hash: receipt.hash,
                dedup: receipt.dedup,
                modules: self.store.len() as u64,
            }
            .to_json(),
            &mut response,
        );
        self.tracer.close(span);
        record.bytes_out += response.len() as u64;
        let span = self.tracer.open("client.frame_decode", id);
        let responses = decode_responses(&response);
        self.tracer.close(span);
        match responses?.as_slice() {
            [Response::Uploaded {
                hash, dedup: false, ..
            }] => Ok(hash.clone()),
            other => Err(format!("upload answered {other:?}")),
        }
    }

    fn submit(
        &mut self,
        id: u32,
        specs: Vec<JobSpec>,
        record: &mut Record,
        pending: &mut Pending,
    ) -> Result<Vec<JobResult>, String> {
        let span = self.tracer.open("client.frame_encode", id);
        let mut request = Vec::new();
        frame(
            &WireRequest::Submit {
                jobs: specs,
                tag: String::new(),
            }
            .to_json(),
            &mut request,
        );
        self.tracer.close(span);
        record.bytes_in += request.len() as u64;
        let WireRequest::Submit { jobs, .. } = self.decode(id, request, pending)? else {
            return Err("a submit frame decoded as another request".to_string());
        };

        let job_count = jobs.len() as u64;
        let misses = self.cache.misses();
        let fleet = self.tracer.open("fleet.run", id);
        let ran = self.run_fleet(&jobs);
        self.tracer.close(fleet);
        record.misses += self.cache.misses() - misses;
        let (outcomes, summary) = ran?;
        if self.tracer.is_on() {
            let stats = outcomes.iter().map(|o| (o.job, o.stats.clone())).collect();
            pending.fleet = Some((fleet, jobs, stats));
        }

        let span = self.tracer.open("protocol.frame_encode", id);
        let mut response = Vec::new();
        for outcome in outcomes {
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
            frame(&Response::Result(result).to_json(), &mut response);
        }
        let results = response.len();
        frame(
            &Response::Done {
                jobs: summary.jobs as u64,
                wall_ms: summary.wall.as_secs_f64() * 1e3,
                cache_hits: summary.cache_hits,
                cache_misses: summary.cache_misses,
            }
            .to_json(),
            &mut response,
        );
        self.tracer.close(span);
        pending.encode = Some(span);
        record.bytes_out += results as u64;

        let span = self.tracer.open("client.frame_decode", id);
        let responses = decode_responses(&response);
        self.tracer.close(span);
        let mut responses = responses?;
        match responses.pop() {
            Some(Response::Done { jobs: done, .. }) if done == job_count => {}
            other => return Err(format!("result frames end with {other:?}")),
        }
        responses
            .into_iter()
            .map(|response| match response {
                Response::Result(result) => Ok(result),
                other => Err(format!("unexpected response {other:?}")),
            })
            .collect()
    }

    /// The daemon's submit handler: resolve every job, then run them on a
    /// one-worker fleet over the shared cache, collecting outcomes as they
    /// stream.
    fn run_fleet(&self, jobs: &[JobSpec]) -> Result<(Vec<JobOutcome>, BatchSummary), String> {
        let mut builder = Fleet::builder()
            .cache(Arc::clone(&self.cache))
            .factory(registry::by_name)
            .retries(0)
            .workers(1);
        for (index, spec) in jobs.iter().enumerate() {
            let module = self
                .store
                .get(&spec.hash)
                .ok_or_else(|| format!("job {index}: module {} was never uploaded", spec.hash))?;
            let params = export_params(&module, &spec.invoke)?;
            let args = typed_args(&spec.args, &params)?;
            builder = builder.submit(
                Job::new(spec.hash.clone(), module, spec.invoke.clone(), args)
                    .analyses(spec.analyses.iter().cloned())
                    .cancel_token(CancelToken::new()),
            );
        }
        let mut fleet = builder.build();
        let mut outcomes = Vec::with_capacity(jobs.len());
        let summary = fleet.run_streaming(|outcome| outcomes.push(outcome));
        Ok((outcomes, summary))
    }

    /// Time the layers that run inside other calls, and place their spans.
    fn measure(&mut self, pending: Pending, record: &mut Record) -> Result<(), String> {
        for (span, bytes) in &pending.frames {
            let payload = std::str::from_utf8(&bytes[4..]).map_err(|e| e.to_string())?;
            let started = Instant::now();
            black_box(json::parse(payload).map_err(|e| e.to_string())?);
            let parse = nanos(started);
            let (start, end) = (self.tracer.start_of(*span), self.tracer.end_of(*span));
            record.parse += parse;
            record.frame += (end - start) as i64 - parse as i64;
            self.tracer
                .place("json.parse", *span, end.saturating_sub(parse), parse);
        }

        let Some((fleet, jobs, outcomes)) = pending.fleet else {
            return Ok(());
        };
        let mut reports = Vec::new();
        let mut cursor = self.tracer.start_of(fleet);
        record.queue = outcomes
            .iter()
            .map(|(_, stats)| stats.queue.as_nanos() as u64)
            .min()
            .unwrap_or(0);
        for (job, stats) in outcomes {
            let spec = &jobs[job];
            let module = self
                .store
                .get(&spec.hash)
                .ok_or_else(|| format!("module {} left the store", spec.hash))?;
            let hooks = hooks_of(&spec.analyses)?;
            let started = Instant::now();
            let looked = self
                .cache
                .session_for(&spec.hash, hooks, &module)
                .map_err(|e| e.to_string())?;
            let lookup = nanos(started);
            self.lookups.push(lookup);
            let (name, first) = if stats.cache_hit {
                ("cache.lookup", lookup)
            } else {
                ("instrument.build", stats.build.as_nanos() as u64)
            };
            cursor = self.tracer.place(name, fleet, cursor, first).1;

            let legs = self.legs(spec, &module, looked.session, hooks, &mut reports)?;
            let execute = stats.execute.as_nanos() as u64;
            record.vm += legs.vm;
            record.hook += legs.idle as i64 - legs.vm as i64;
            record.callback += execute as i64 - legs.idle as i64;
            record.instrs += legs.instrs;
            record.host_calls += legs.host_calls;
            let (span, end) = self.tracer.place("job.execute", fleet, cursor, execute);
            let inner = self.tracer.start_of(span);
            let inner = self.tracer.place("vm.exec", span, inner, legs.vm).1;
            let inner = self
                .tracer
                .place(
                    "runtime.hook",
                    span,
                    inner,
                    legs.idle.saturating_sub(legs.vm),
                )
                .1;
            self.tracer.place(
                "analyses.callback",
                span,
                inner,
                execute.saturating_sub(legs.idle),
            );
            cursor = self.tracer.place("report.emit", fleet, end, legs.reports).1;
        }

        if let Some(span) = pending.encode {
            let started = Instant::now();
            for report in &reports {
                black_box(report.to_json());
            }
            let to_json = nanos(started);
            let start = self.tracer.start_of(span);
            self.tracer.place("report.emit", span, start, to_json);
        }
        Ok(())
    }

    /// The three runs of one job, each differing from the last in one layer.
    fn legs(
        &mut self,
        spec: &JobSpec,
        module: &Arc<Module>,
        session: Arc<AnalysisSession>,
        hooks: HookSet,
        reports: &mut Vec<wasabi::Report>,
    ) -> Result<Legs, String> {
        let args = typed_args(&spec.args, &export_params(module, &spec.invoke)?)?;

        // 1. The VM alone.
        if !self.plain.contains_key(&spec.hash) {
            let translated =
                TranslatedModule::new((**module).clone()).map_err(|e| e.to_string())?;
            self.plain.insert(spec.hash.clone(), translated);
        }
        let mut host = EmptyHost;
        let started = Instant::now();
        let mut instance = Instance::instantiate_translated(&self.plain[&spec.hash], &mut host)
            .map_err(|e| e.to_string())?;
        instance.set_budget(Some(governed()));
        black_box(
            instance
                .invoke_export(&spec.invoke, &args, &mut host)
                .map_err(|e| e.to_string())?,
        );
        let vm = nanos(started);
        let instrs = instance.executed_instrs();

        // 2. Plus the hook boundary and event construction.
        let mut idle = Idle(hooks);
        let mut pipeline = Wasabi::builder()
            .analysis(&mut idle)
            .budget(governed())
            .build_shared(Arc::clone(&session));
        let calls = stats::host_calls_fast() + stats::host_calls_slow();
        let started = Instant::now();
        black_box(
            pipeline
                .run(&spec.invoke, &args)
                .map_err(|e| e.to_string())?,
        );
        let idle_nanos = nanos(started);
        let host_calls = stats::host_calls_fast() + stats::host_calls_slow() - calls;
        drop(pipeline);

        // 3. Plus the real analyses; their callbacks are timed by the job's
        // own execute, only the report collection here.
        let mut analyses = spec
            .analyses
            .iter()
            .map(|name| registry::by_name(name).ok_or_else(|| format!("unknown analysis {name}")))
            .collect::<Result<Vec<Box<dyn Analysis>>, String>>()?;
        let mut builder = Wasabi::builder().budget(governed());
        for analysis in &mut analyses {
            builder = builder.analysis(analysis.as_mut());
        }
        let mut pipeline = builder.build_shared(session);
        pipeline
            .run(&spec.invoke, &args)
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let collected = pipeline.reports();
        let report_nanos = nanos(started);
        reports.extend(collected);
        Ok(Legs {
            vm,
            idle: idle_nanos,
            reports: report_nanos,
            instrs,
            host_calls,
        })
    }

    /// Self time per layer name, for each timed request.
    fn self_times_by_request(&self, count: usize) -> Vec<HashMap<&'static str, u64>> {
        let mut layers = vec![HashMap::new(); count];
        for (span, own) in self.tracer.spans().iter().zip(self.tracer.self_times()) {
            if let Some(layer) = layers.get_mut(span.request as usize) {
                *layer.entry(span.name).or_insert(0) += own;
            }
        }
        layers
    }

    fn metrics(
        &self,
        layers: &[HashMap<&'static str, u64>],
        untraced: &Replay,
        residuals: &[f64],
    ) -> Vec<Metric> {
        let count = layers.len() as f64;
        // Median self time of `name` per request, in `scale` nanoseconds.
        let per_request = |name: &str, scale: f64| {
            let values: Vec<f64> = layers
                .iter()
                .map(|layer| layer.get(name).copied().unwrap_or(0) as f64 / scale)
                .collect();
            median(&values)
        };
        // Median duration of one call of `name`, over setup and timed requests.
        let per_call = |name: &str, scale: f64| {
            let values: Vec<f64> = self
                .tracer
                .spans()
                .iter()
                .filter(|span| span.name == name)
                .map(|span| (span.end - span.start) as f64 / scale)
                .collect();
            if values.is_empty() {
                0.0
            } else {
                median(&values)
            }
        };
        let mean =
            |field: fn(&Record) -> u64| self.records.iter().map(field).sum::<u64>() as f64 / count;
        // Median per request of a time measured by its own call, or of a
        // difference between two calls, in `scale` nanoseconds.
        let measured = |field: fn(&Record) -> i64, scale: f64| {
            median(
                &self
                    .records
                    .iter()
                    .map(|r| field(r) as f64 / scale)
                    .collect::<Vec<_>>(),
            )
        };
        let vm_nanos: u64 = self.records.iter().map(|r| r.vm).sum();
        let instrs: u64 = self.records.iter().map(|r| r.instrs).sum();
        let overhead: Vec<f64> = self
            .records
            .iter()
            .zip(&untraced.records)
            .map(|(on, off)| (on.root as f64 - off.root as f64) / 1e3)
            .collect();
        let queue: Vec<f64> = self.records.iter().map(|r| r.queue as f64 / 1e3).collect();
        let lookups: Vec<f64> = self.lookups.iter().map(|&n| n as f64 / 1e3).collect();
        let us = 1e3;
        let ms = 1e6;
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric(
                "client.frame_encode_us",
                per_request("client.frame_encode", us),
                "us",
            ),
            metric("protocol.frame_decode_us", measured(|r| r.frame, us), "us"),
            metric("json.parse_us", measured(|r| r.parse as i64, us), "us"),
            metric(
                "protocol.request_decode_us",
                per_request("protocol.request_decode", us),
                "us",
            ),
            metric("store.insert_us", per_call("store.insert", us), "us"),
            metric(
                "instrument.build_ms",
                per_call("instrument.build", ms),
                "ms",
            ),
            metric(
                "cache.lookup_us",
                if lookups.is_empty() {
                    0.0
                } else {
                    median(&lookups)
                },
                "us",
            ),
            metric("cache.misses", mean(|r| r.misses), "count"),
            metric("fleet.overhead_us", per_request("fleet.run", us), "us"),
            metric("fleet.queue_us", median(&queue), "us"),
            metric("vm.exec_ms", measured(|r| r.vm as i64, ms), "ms"),
            metric("vm.instrs", mean(|r| r.instrs), "count"),
            metric(
                "vm.ns_per_instr",
                vm_nanos as f64 / instrs.max(1) as f64,
                "ns",
            ),
            metric("runtime.hook_ms", measured(|r| r.hook, ms), "ms"),
            metric("runtime.host_calls", mean(|r| r.host_calls), "count"),
            metric("analyses.callback_ms", measured(|r| r.callback, ms), "ms"),
            metric("report.emit_us", per_request("report.emit", us), "us"),
            metric(
                "protocol.frame_encode_us",
                per_request("protocol.frame_encode", us),
                "us",
            ),
            metric(
                "client.frame_decode_us",
                per_request("client.frame_decode", us),
                "us",
            ),
            metric("protocol.bytes_in", mean(|r| r.bytes_in), "bytes"),
            metric("protocol.bytes_out", mean(|r| r.bytes_out), "bytes"),
            metric(
                "daemon.residual_us",
                if residuals.is_empty() {
                    0.0
                } else {
                    median(residuals) / 1e3
                },
                "us",
            ),
            metric("trace.overhead_us", median(&overhead), "us"),
        ]
    }
}
