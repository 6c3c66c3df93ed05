//! Lifecycle and governance races, end-to-end (ISSUE 9): deadlines fire
//! on a live daemon without costing a worker, tagged batches cancel from
//! a second connection, load-shedding evicts the oldest batch, drain
//! races concurrent submitters without losing or duplicating results,
//! and a client survives a daemon restart via reconnect-with-backoff.

use std::time::{Duration, Instant};

use wasabi::report::JsonValue;
use wasabi_analyses::registry;
use wasabi_server::{Client, ClientError, JobSpec, Server, ServerConfig};
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

fn square_wasm() -> Vec<u8> {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).get_local(0u32).i32_mul();
    });
    encode(&builder.finish())
}

/// A module whose `main` never returns — only governance can stop it.
fn spin_wasm() -> Vec<u8> {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[], |f| {
        f.block(None).loop_(None).br(0).end().end();
    });
    encode(&builder.finish())
}

fn unix_socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wasabid-life-{}-{name}.sock", std::process::id()))
}

fn spec(hash: &str, arg: i32) -> JobSpec {
    JobSpec {
        hash: hash.to_string(),
        analyses: vec![],
        invoke: "main".to_string(),
        args: vec![JsonValue::Int(arg.into())],
        sweep_args: None,
        deadline_ms: None,
    }
}

#[test]
fn deadline_reclaims_a_worker_and_the_daemon_serves_the_next_batch() {
    let path = unix_socket_path("deadline");
    let mut config = ServerConfig::new(registry::by_name);
    config.workers = Some(2);
    let server = Server::bind_unix(&path, config).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut client = Client::connect_unix(&path).expect("connects");
    let (spin, _) = client.upload(&spin_wasm()).expect("uploads");
    let (square, _) = client.upload(&square_wasm()).expect("uploads");

    let timeouts_before = counter(&client.status().expect("status"), "timeouts");

    // A batch mixing an infinite loop under a 100 ms deadline with real
    // work: the spinner fails structured, the real work completes.
    let mut stream = client
        .submit(vec![
            JobSpec {
                hash: spin.clone(),
                analyses: vec![],
                invoke: "main".to_string(),
                args: vec![],
                sweep_args: None,
                deadline_ms: Some(100),
            },
            spec(&square, 6),
        ])
        .expect("submits");
    let results: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    assert!(stream.done().is_some());
    assert_eq!(results.len(), 2);
    let by_job = |j: usize| results.iter().find(|r| r.job == j).expect("present");
    let timed_out = by_job(0).results.as_ref().expect_err("deadline fired");
    assert!(timed_out.contains("deadline"), "{timed_out}");
    assert_eq!(
        by_job(1).results.as_ref().expect("real work completes"),
        &vec!["I32(36)".to_string()]
    );

    // The worker came back: a follow-up batch completes normally, and the
    // robustness counters recorded the timeout.
    let mut stream = client
        .submit(vec![spec(&square, 3), spec(&square, 4)])
        .expect("submits");
    let next: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    assert!(next.iter().all(|r| r.results.is_ok()));
    let status = client.status().expect("status");
    assert!(
        counter(&status, "timeouts") > timeouts_before,
        "status counts the timeout: {} then {}",
        timeouts_before,
        counter(&status, "timeouts")
    );

    client.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}

#[test]
fn a_tagged_batch_is_cancelled_from_a_second_connection() {
    let path = unix_socket_path("cancel");
    let mut config = ServerConfig::new(registry::by_name);
    config.workers = Some(1);
    let server = Server::bind_unix(&path, config).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut submitter = Client::connect_unix(&path).expect("connects");
    let (spin, _) = submitter.upload(&spin_wasm()).expect("uploads");
    let cancellations_before = counter(&submitter.status().expect("status"), "cancellations");

    // The doomed batch spins forever; its stream blocks until the cancel
    // lands, so iterate it on a side thread.
    let collector = std::thread::spawn(move || {
        let mut stream = submitter
            .submit_tagged(
                vec![JobSpec {
                    hash: spin,
                    analyses: vec![],
                    invoke: "main".to_string(),
                    args: vec![],
                    sweep_args: None,
                    deadline_ms: None,
                }],
                "doomed",
            )
            .expect("submits");
        let results: Vec<_> = stream
            .by_ref()
            .collect::<Result<Vec<_>, _>>()
            .expect("streams");
        (results, stream.done().is_some())
    });

    // Cancel from a second connection. The submit races us to the
    // registry, so retry until the cancel reports a fired token.
    let mut canceller = Client::connect_unix(&path).expect("connects");
    assert_eq!(
        canceller.cancel("unknown-tag").expect("cancel"),
        0,
        "cancelling an unknown tag is a no-op"
    );
    let patience = Instant::now() + Duration::from_secs(10);
    loop {
        let fired = canceller.cancel("doomed").expect("cancel");
        if fired > 0 {
            break;
        }
        assert!(
            Instant::now() < patience,
            "batch never reached the registry"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (results, done) = collector.join().expect("collector");
    assert!(done, "the batch completed after cancellation");
    let error = results[0].results.as_ref().expect_err("cancelled");
    assert!(error.contains("cancelled"), "{error}");
    let status = canceller.status().expect("status");
    assert!(counter(&status, "cancellations") > cancellations_before);

    canceller.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}

#[test]
fn shedding_cancels_the_oldest_batch_to_admit_new_work() {
    let path = unix_socket_path("shed");
    let mut config = ServerConfig::new(registry::by_name);
    config.max_pending = 2;
    config.shed = true;
    let server = Server::bind_unix(&path, config).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut first = Client::connect_unix(&path).expect("connects");
    let (spin, _) = first.upload(&spin_wasm()).expect("uploads");
    let (square, _) = first.upload(&square_wasm()).expect("uploads");
    let sheds_before = counter(&first.status().expect("status"), "sheds");

    // Fill the daemon with a batch that would otherwise never finish.
    let old = std::thread::spawn(move || {
        let mut stream = first
            .submit_tagged(
                (0..2)
                    .map(|_| JobSpec {
                        hash: spin.clone(),
                        analyses: vec![],
                        invoke: "main".to_string(),
                        args: vec![],
                        sweep_args: None,
                        deadline_ms: None,
                    })
                    .collect(),
                "old",
            )
            .expect("submits");
        let results: Vec<_> = stream
            .by_ref()
            .collect::<Result<Vec<_>, _>>()
            .expect("streams");
        results
    });

    // Wait until the old batch occupies both slots.
    let mut second = Client::connect_unix(&path).expect("connects");
    let patience = Instant::now() + Duration::from_secs(10);
    while counter(&second.status().expect("status"), "in_flight") < 2 {
        assert!(Instant::now() < patience, "old batch never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The newcomer overflows max_pending; with --shed the daemon cancels
    // the oldest batch instead of refusing, and the new work completes.
    let mut stream = second
        .submit(vec![spec(&square, 5), spec(&square, 7)])
        .expect("submits");
    let fresh: Vec<_> = stream
        .by_ref()
        .collect::<Result<Vec<_>, _>>()
        .expect("streams");
    assert_eq!(fresh.len(), 2);
    assert!(fresh.iter().all(|r| r.results.is_ok()), "{fresh:?}");

    // The shed victim's jobs failed structured on their own stream.
    let old_results = old.join().expect("old batch");
    assert_eq!(old_results.len(), 2);
    for result in &old_results {
        let error = result.results.as_ref().expect_err("shed");
        assert!(error.contains("cancelled"), "{error}");
    }
    let status = second.status().expect("status");
    assert!(counter(&status, "sheds") > sheds_before, "shed was counted");

    second.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}

#[test]
fn drain_races_two_submitting_clients_without_losing_results() {
    let path = unix_socket_path("drain-race");
    let server = Server::bind_unix(&path, ServerConfig::new(registry::by_name)).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut setup = Client::connect_unix(&path).expect("connects");
    let (square, _) = setup.upload(&square_wasm()).expect("uploads");
    drop(setup);

    // Two clients submit small batches in a loop until the daemon starts
    // draining. Every submit must either complete whole (all results +
    // done) or be refused with a structured retryable error — nothing in
    // between.
    let submitter = |hash: String, path: std::path::PathBuf| {
        std::thread::spawn(move || {
            let mut client = Client::connect_unix(&path).expect("connects");
            let mut completed = 0u32;
            loop {
                // After the drain finishes the daemon may close the
                // connection under us; a failed write is a valid end.
                let mut stream =
                    match client.submit(vec![spec(&hash, 2), spec(&hash, 3), spec(&hash, 4)]) {
                        Ok(stream) => stream,
                        Err(e) => {
                            assert!(e.is_retryable(), "transport-level refusal: {e}");
                            break completed;
                        }
                    };
                let results: Result<Vec<_>, ClientError> = stream.by_ref().collect();
                match results {
                    Ok(results) => {
                        assert_eq!(results.len(), 3, "complete batch");
                        assert!(stream.done().is_some(), "done frame after results");
                        assert!(results.iter().all(|r| r.results.is_ok()));
                        completed += 1;
                    }
                    Err(e) => {
                        assert!(e.is_retryable(), "structured retryable refusal: {e}");
                        break completed;
                    }
                }
            }
        })
    };
    let a = submitter(square.clone(), path.clone());
    let b = submitter(square.clone(), path.clone());

    // Let both make progress, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    let mut op = Client::connect_unix(&path).expect("connects");
    op.drain().expect("drains");

    let completed_a = a.join().expect("client a");
    let completed_b = b.join().expect("client b");
    serve.join().expect("serve thread").expect("clean exit");
    assert!(!path.exists(), "socket file is removed on exit");
    assert!(
        completed_a + completed_b > 0,
        "at least one batch completed before the drain landed"
    );
}

#[test]
fn a_live_client_survives_a_daemon_restart_via_backoff_reconnect() {
    let path = unix_socket_path("restart");
    let server = Server::bind_unix(&path, ServerConfig::new(registry::by_name)).expect("binds");
    let serve = std::thread::spawn(move || server.serve());

    let mut client = Client::connect_unix(&path).expect("connects");
    let (square, _) = client.upload(&square_wasm()).expect("uploads");
    assert_eq!(
        client
            .status()
            .expect("status")
            .get("state")
            .and_then(JsonValue::as_str),
        Some("accepting")
    );

    // Restart the daemon out from under the live client.
    let mut op = Client::connect_unix(&path).expect("connects");
    op.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
    let server = Server::bind_unix(&path, ServerConfig::new(registry::by_name)).expect("rebinds");
    let serve = std::thread::spawn(move || server.serve());

    // The old connection is dead; the remembered endpoint is not.
    let reconnects_before = wasabi::stats::client_reconnects();
    assert!(
        client.status().is_err(),
        "the old connection must be broken"
    );
    client
        .reconnect_with_backoff(10)
        .expect("daemon is back on the same socket");
    assert!(wasabi::stats::client_reconnects() > reconnects_before);
    assert_eq!(
        client
            .status()
            .expect("status")
            .get("state")
            .and_then(JsonValue::as_str),
        Some("accepting")
    );

    // The restarted daemon is empty — the client's world survives a
    // re-upload, not magic.
    let (rehash, dedup) = client.upload(&square_wasm()).expect("re-uploads");
    assert_eq!(
        rehash, square,
        "content addressing is stable across restarts"
    );
    assert!(!dedup, "fresh daemon, fresh store");

    client.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}
