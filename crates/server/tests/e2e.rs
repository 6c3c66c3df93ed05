//! End-to-end daemon tests, in-process: a real [`Server`] on a real
//! socket, served from a background thread, driven through the real
//! [`Client`] — the same code paths the `wasabid`/`wasabi-client` bins
//! run, minus process spawning.
//!
//! Covers the PR's acceptance criteria directly:
//! - two sequential clients against one daemon: the second client's
//!   upload dedups and its jobs are **all** warm-cache hits, verified
//!   through the `status` counters;
//! - per-job results stream **before** the batch completes, verified
//!   with a deterministic ordering assertion (the last job blocks on a
//!   test-controlled gate while the earlier results are already on the
//!   wire);
//! - drain: in-flight work finishes, new work is refused with a
//!   structured `draining` error, the daemon exits cleanly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wasabi::event::{AnalysisCtx, BinaryEvt};
use wasabi::hooks::{Analysis, Hook, HookSet};
use wasabi::report::JsonValue;
use wasabi_analyses::registry;
use wasabi_server::{Client, ErrorCode, JobSpec, Response, Server, ServerConfig};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::encode::encode;
use wasabi_wasm::ValType;

/// One counter of a `status` reply, by name.
fn counter(status: &JsonValue, name: &str) -> i64 {
    status
        .get(name)
        .and_then(JsonValue::as_i64)
        .unwrap_or_else(|| panic!("status has no integer {name:?}: {status}"))
}

/// A module whose `main` executes one binary instruction and returns 6.
fn test_wasm() -> Vec<u8> {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[ValType::I32], |f| {
        f.i32_const(2).i32_const(3).i32_mul();
    });
    encode(&builder.finish())
}

fn unix_socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wasabid-e2e-{}-{name}.sock", std::process::id()))
}

fn spec(hash: &str, analyses: &[&str]) -> JobSpec {
    JobSpec {
        hash: hash.to_string(),
        analyses: analyses.iter().map(|s| s.to_string()).collect(),
        invoke: "main".to_string(),
        args: vec![],
        sweep_args: None,
        deadline_ms: None,
    }
}

/// A sweep job streams one result frame per cohort instance, tagged
/// with its instance index, with the job's aggregate analysis reports
/// riding the final frame.
#[test]
fn sweep_job_streams_one_frame_per_instance() {
    let socket = unix_socket_path("sweep");
    let _ = std::fs::remove_file(&socket);
    let server = Server::bind_unix(&socket, ServerConfig::new(registry::by_name)).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    // main(x) = x * x, so every instance's result encodes its input.
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).get_local(0u32).i32_mul();
    });
    let wasm = encode(&builder.finish());

    let mut client = Client::connect_unix(&socket).expect("connects");
    let (hash, _) = client.upload(&wasm).expect("uploads");
    let job = JobSpec {
        hash: hash.clone(),
        analyses: vec!["instruction_mix".to_string()],
        invoke: "main".to_string(),
        args: vec![],
        sweep_args: Some(
            [2i64, 3, 4, 5]
                .iter()
                .map(|&v| vec![wasabi::report::JsonValue::Int(v)])
                .collect(),
        ),
        deadline_ms: None,
    };
    let mut stream = client.submit(vec![job]).expect("submits");
    let results: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    let done = stream.done().expect("done frame");

    assert_eq!(done.jobs, 1, "one submitted job");
    assert_eq!(results.len(), 4, "one frame per cohort instance");
    for (index, result) in results.iter().enumerate() {
        assert_eq!(result.job, 0);
        assert_eq!(result.instance, Some(index as u32), "admission order");
        let input = (index + 2) as i32;
        assert_eq!(
            result.results.as_ref().expect("instance ok"),
            &vec![format!("I32({})", input * input)]
        );
        // The cohort's aggregate reports ride the last instance's frame.
        if index == results.len() - 1 {
            assert_eq!(result.reports.len(), 1);
            assert_eq!(result.reports[0].analysis, "instruction_mix");
        } else {
            assert!(result.reports.is_empty(), "instance {index} has reports");
        }
    }

    assert_eq!(client.drain().expect("drains"), 0);
    serve.join().expect("serve thread").expect("clean exit");
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn second_client_pays_neither_upload_nor_build() {
    // Over TCP, so both transports get end-to-end coverage (the other
    // tests use unix sockets).
    let server =
        Server::bind_tcp("127.0.0.1:0", ServerConfig::new(registry::by_name)).expect("binds");
    let addr = server.addr().to_string();
    let serve = std::thread::spawn(move || server.serve());

    let wasm = test_wasm();

    // First client: cold daemon. One build (the three jobs share one
    // (module, hook set) cache entry), the rest warm.
    let mut first = Client::connect_tcp(&addr).expect("connects");
    let (hash, dedup) = first.upload(&wasm).expect("uploads");
    assert!(!dedup, "first upload of these bytes");
    let jobs: Vec<JobSpec> = (0..3).map(|_| spec(&hash, &["instruction_mix"])).collect();
    let mut stream = first.submit(jobs.clone()).expect("submits");
    let results: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    let done = stream.done().expect("done frame");
    assert_eq!(results.len(), 3);
    assert_eq!(done.cache_misses, 1, "one build for three identical jobs");
    assert_eq!(done.cache_hits, 2);
    for result in &results {
        assert_eq!(
            result.results.as_ref().expect("job ok"),
            &vec!["I32(6)".to_string()]
        );
        assert_eq!(result.reports.len(), 1);
        assert_eq!(result.reports[0].analysis, "instruction_mix");
    }
    drop(first);

    // Second client: same bytes, same jobs. The upload dedups and every
    // job is a warm-cache hit — the whole point of the daemon.
    let mut second = Client::connect_tcp(&addr).expect("connects");
    let (hash_again, dedup) = second.upload(&wasm).expect("uploads");
    assert_eq!(hash_again, hash, "content-addressed");
    assert!(dedup, "identical bytes dedup");
    let mut stream = second.submit(jobs).expect("submits");
    let results: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    let done = stream.done().expect("done frame");
    assert_eq!(results.len(), 3);
    assert_eq!(done.cache_misses, 0, "second client is all warm");
    assert_eq!(done.cache_hits, 3);
    assert!(results.iter().all(|r| r.cache_hit));

    // The status counters tell the same story daemon-wide.
    let status = second.status().expect("status");
    assert_eq!(
        status.get("state").and_then(JsonValue::as_str),
        Some("accepting")
    );
    assert_eq!(counter(&status, "uploads"), 2);
    assert_eq!(counter(&status, "dedup_hits"), 1);
    assert_eq!(counter(&status, "modules"), 1);
    assert_eq!(
        counter(&status, "cache_misses"),
        1,
        "one build across both clients"
    );
    assert_eq!(counter(&status, "cache_hits"), 5);
    assert_eq!(counter(&status, "jobs_done"), 6);
    assert_eq!(counter(&status, "in_flight"), 0);

    // Drain; the daemon has nothing in flight and exits cleanly.
    assert_eq!(second.drain().expect("drains"), 0);
    serve.join().expect("serve thread").expect("clean exit");
}

/// Gate for [`Blocker`]: flipped by the test to let the blocked job
/// finish.
static RELEASE: AtomicBool = AtomicBool::new(false);

/// An analysis that parks its job on the binary hook until the test
/// releases it — making "earlier results stream while a later job still
/// runs" a deterministic fact instead of a race.
#[derive(Default)]
struct Blocker;

impl Analysis for Blocker {
    fn name(&self) -> &str {
        "blocker"
    }

    fn hooks(&self) -> HookSet {
        HookSet::of(&[Hook::Binary])
    }

    fn binary(&mut self, _: &AnalysisCtx, _: &BinaryEvt) {
        let start = Instant::now();
        while !RELEASE.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "test gate never released"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn blocking_factory(name: &str) -> Option<Box<dyn Analysis>> {
    if name == "blocker" {
        Some(Box::new(Blocker))
    } else {
        registry::by_name(name)
    }
}

#[test]
fn results_stream_before_the_batch_completes_and_drain_refuses_new_work() {
    let path = unix_socket_path("streaming");
    let mut config = ServerConfig::new(blocking_factory);
    config.workers = Some(1); // FIFO: jobs 0 and 1 finish before 2 starts
    let server = Server::bind_unix(&path, config).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let wasm = test_wasm();
    let mut submitter = Client::connect_unix(&path).expect("connects");
    let (hash, _) = submitter.upload(&wasm).expect("uploads");
    let mut stream = submitter
        .submit(vec![
            spec(&hash, &["instruction_mix"]),
            spec(&hash, &["instruction_mix"]),
            spec(&hash, &["blocker"]), // parks until RELEASE
        ])
        .expect("submits");

    // The ordering assertion: two result frames arrive while job 2 is
    // provably still running (its gate is closed).
    let early0 = stream.next().expect("first frame").expect("job ok");
    let early1 = stream.next().expect("second frame").expect("job ok");
    assert_eq!(early0.job, 0);
    assert_eq!(early1.job, 1);
    assert!(stream.done().is_none(), "batch is not done yet");

    // A second connection observes the in-flight job through `status`...
    let mut observer = Client::connect_unix(&path).expect("connects");
    let status = observer.status().expect("status");
    assert_eq!(counter(&status, "in_flight"), 1, "job 2 is still executing");
    assert_eq!(
        counter(&status, "jobs_done"),
        2,
        "jobs 0 and 1 already streamed"
    );

    // ...and a drain during in-flight work: acknowledged with the count,
    // new work refused with a structured error, status still answered.
    assert_eq!(observer.drain().expect("drains"), 1);
    match observer.upload(&wasm) {
        Err(e) => assert!(e.to_string().contains(ErrorCode::Draining.as_str()), "{e}"),
        Ok(_) => panic!("upload must be refused while draining"),
    }
    let mut refused = observer
        .submit(vec![spec(&hash, &[])])
        .expect("request writes");
    match refused.next() {
        Some(Err(e)) => assert!(e.to_string().contains(ErrorCode::Draining.as_str()), "{e}"),
        other => panic!("submit must be refused while draining, got {other:?}"),
    }
    assert_eq!(
        observer
            .status()
            .expect("status")
            .get("state")
            .and_then(JsonValue::as_str),
        Some("draining")
    );

    // Release the gate: job 2 finishes, streams, and the daemon drains.
    RELEASE.store(true, Ordering::SeqCst);
    let late = stream.next().expect("third frame").expect("job ok");
    assert_eq!(late.job, 2);
    assert!(stream.next().is_none(), "stream ends at the done frame");
    let done = stream.done().expect("done frame");
    assert_eq!(done.jobs, 3);

    serve.join().expect("serve thread").expect("clean exit");
    assert!(!path.exists(), "socket file is removed on exit");
}

#[test]
fn admission_control_refuses_oversized_submits_whole() {
    let path = unix_socket_path("admission");
    let mut config = ServerConfig::new(registry::by_name);
    config.max_pending = 2;
    let server = Server::bind_unix(&path, config).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut client = Client::connect_unix(&path).expect("connects");
    let (hash, _) = client.upload(&test_wasm()).expect("uploads");

    // Three jobs against a bound of two: the whole submit is refused and
    // nothing runs.
    let mut refused = client
        .submit(vec![spec(&hash, &[]), spec(&hash, &[]), spec(&hash, &[])])
        .expect("request writes");
    match refused.next() {
        Some(Err(e)) => assert!(e.to_string().contains(ErrorCode::QueueFull.as_str()), "{e}"),
        other => panic!("expected queue_full, got {other:?}"),
    }
    let status = client.status().expect("status");
    assert_eq!(
        counter(&status, "jobs_done"),
        0,
        "refused submit ran nothing"
    );
    assert_eq!(
        counter(&status, "in_flight"),
        0,
        "reservation was rolled back"
    );

    // A submit within the bound still works afterwards.
    let mut stream = client
        .submit(vec![spec(&hash, &[]), spec(&hash, &[])])
        .expect("submits");
    let results: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    assert_eq!(results.len(), 2);

    // Unknown module hashes are refused before admission.
    let mut unknown = client
        .submit(vec![spec("fnv64:0000000000000000", &[])])
        .expect("request writes");
    match unknown.next() {
        Some(Err(e)) => {
            assert!(
                e.to_string().contains(ErrorCode::UnknownModule.as_str()),
                "{e}"
            );
        }
        other => panic!("expected unknown_module, got {other:?}"),
    }

    client.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}

#[test]
fn raw_protocol_round_trip_matches_typed_client() {
    // Belt-and-braces: drive one upload/submit cycle with raw frames
    // (no Client) to pin the wire format itself.
    use std::io::Write as _;
    use wasabi_server::{read_frame, write_frame, Request};

    let path = unix_socket_path("raw");
    let server = Server::bind_unix(&path, ServerConfig::new(registry::by_name)).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut conn = std::os::unix::net::UnixStream::connect(&path).expect("connects");
    write_frame(&mut conn, &Request::Upload { bytes: test_wasm() }.to_json()).expect("writes");
    let uploaded = Response::from_json(&read_frame(&mut conn).expect("frame")).expect("typed");
    let Response::Uploaded {
        hash, dedup: false, ..
    } = uploaded
    else {
        panic!("expected uploaded, got {uploaded:?}");
    };

    write_frame(
        &mut conn,
        &Request::Submit {
            jobs: vec![spec(&hash, &["call_graph"])],
            tag: String::new(),
        }
        .to_json(),
    )
    .expect("writes");
    let result = Response::from_json(&read_frame(&mut conn).expect("frame")).expect("typed");
    let Response::Result(result) = result else {
        panic!("expected result, got {result:?}");
    };
    assert_eq!(result.reports[0].analysis, "call_graph");
    let done = Response::from_json(&read_frame(&mut conn).expect("frame")).expect("typed");
    assert!(matches!(done, Response::Done { jobs: 1, .. }), "{done:?}");

    // The status reply is what `wasabi-client status` prints and scripts
    // read by name: pin its member names and their order.
    write_frame(&mut conn, &Request::Status.to_json()).expect("writes");
    let JsonValue::Object(status) = read_frame(&mut conn).expect("frame") else {
        panic!("a status frame is a JSON object");
    };
    let names: Vec<&str> = status.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "type",
            "state",
            "uploads",
            "dedup_hits",
            "modules",
            "cache_hits",
            "cache_misses",
            "cache_entries",
            "cache_evictions",
            "disk_cache_hits",
            "disk_cache_misses",
            "build_ms",
            "build_worker_ms",
            "jobs_done",
            "in_flight",
            "connections",
            "requests",
            "timeouts",
            "cancellations",
            "retries",
            "sheds",
            "faults_injected",
        ]
    );

    write_frame(&mut conn, &Request::Shutdown.to_json()).expect("writes");
    conn.flush().expect("flushes");
    serve.join().expect("serve thread").expect("clean exit");
}
