//! End-to-end tests of the `wasabi` CLI binary: instrument a file on disk,
//! check outputs, run the instrumented binary from disk under an analysis.

use std::path::PathBuf;
use std::process::Command;

use wasabi::hooks::NoAnalysis;
use wasabi::WasabiHost;
use wasabi_vm::Instance;
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::{Val, ValType};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wasabi"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_fixture(dir: &std::path::Path) -> PathBuf {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    builder.function("f", &[ValType::I32], &[ValType::I32], |f| {
        f.get_local(0u32).i32_const(5).i32_mul();
    });
    let path = dir.join("fixture.wasm");
    std::fs::write(&path, wasabi_wasm::encode::encode(&builder.finish())).expect("write");
    path
}

#[test]
fn instruments_a_file_end_to_end() {
    let dir = temp_dir("full");
    let input = write_fixture(&dir);
    let out = dir.join("out");

    let status = cli()
        .arg(&input)
        .arg(&out)
        .arg("--wat")
        .status()
        .expect("CLI runs");
    assert!(status.success());

    // Outputs exist.
    let wasm_path = out.join("fixture.wasm");
    let json_path = out.join("fixture.info.json");
    assert!(wasm_path.exists() && json_path.exists() && out.join("fixture.wat").exists());

    // The instrumented binary decodes, validates, and runs correctly when
    // loaded back from disk (consuming the JSON through the library's own
    // ModuleInfo is covered elsewhere; here we check the wasm itself).
    let bytes = std::fs::read(&wasm_path).expect("read output");
    let module = wasabi_wasm::decode::decode(&bytes).expect("decodes");
    wasabi_wasm::validate::validate(&module).expect("validates");

    // Reconstruct info by re-instrumenting the original (deterministic).
    let original = wasabi_wasm::decode::decode(&std::fs::read(&input).unwrap()).unwrap();
    let (_, info) = wasabi::instrument(&original, wasabi::HookSet::all()).unwrap();
    let mut analysis = NoAnalysis;
    let mut host = WasabiHost::new(&info, &mut analysis);
    let mut instance = Instance::instantiate(module, &mut host).expect("instantiates");
    let results = instance
        .invoke_export("f", &[Val::I32(8)], &mut host)
        .expect("runs");
    assert_eq!(results, vec![Val::I32(40)]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn selective_hooks_flag() {
    let dir = temp_dir("selective");
    let input = write_fixture(&dir);
    let out = dir.join("out");

    let output = cli()
        .arg(&input)
        .arg(&out)
        .arg("--hooks=binary")
        .output()
        .expect("CLI runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("for 1 hook(s)"), "{stdout}");

    let json = std::fs::read_to_string(out.join("fixture.info.json")).expect("read json");
    assert!(json.contains("\"enabledHooks\":[\"binary\"]"), "{json}");

    let _ = std::fs::remove_dir_all(&dir);
}

fn write_branchy_fixture(dir: &std::path::Path) -> PathBuf {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        f.i32_const(0)
            .get_local(0u32)
            .store(wasabi_wasm::StoreOp::I32Store, 0);
        f.i32_const(0).load(wasabi_wasm::LoadOp::I32Load, 0);
        f.i32_const(3).i32_mul();
    });
    let path = dir.join("branchy.wasm");
    std::fs::write(&path, wasabi_wasm::encode::encode(&builder.finish())).expect("write");
    path
}

#[test]
fn analysis_mode_emits_one_report_per_analysis() {
    let dir = temp_dir("analysis-stdout");
    let input = write_branchy_fixture(&dir);

    let output = cli()
        .arg(&input)
        .arg("--analysis=instruction_mix,memory_tracing,call_graph")
        .arg("--invoke=main")
        .arg("--args=7")
        .output()
        .expect("CLI runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one JSON report per analysis: {stdout}");
    assert!(lines[0].contains("\"analysis\":\"instruction_mix\""));
    assert!(lines[0].contains("\"i32.mul\":1"), "{}", lines[0]);
    assert!(lines[1].contains("\"analysis\":\"memory_tracing\""));
    assert!(lines[1].contains("\"accesses\":2"), "{}", lines[1]);
    assert!(lines[2].contains("\"analysis\":\"call_graph\""));
    // The fused run happened in exactly one pass (stderr banner).
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("1 instrumentation pass"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analysis_mode_writes_report_files_with_out() {
    let dir = temp_dir("analysis-out");
    let input = write_branchy_fixture(&dir);
    let out = dir.join("reports");

    let output = cli()
        .arg(&input)
        .arg("--analysis=instruction_coverage,branch_coverage")
        .arg("--invoke=main")
        .arg("--args=1")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("CLI runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for name in ["instruction_coverage", "branch_coverage"] {
        let path = out.join(format!("{name}.json"));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert!(json.contains(&format!("\"analysis\":\"{name}\"")), "{json}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analysis_mode_rejects_unknown_analysis_and_bad_args() {
    let dir = temp_dir("analysis-errors");
    let input = write_branchy_fixture(&dir);

    let output = cli()
        .arg(&input)
        .arg("--analysis=frobnicate")
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown analysis"));

    // Wrong argument count for the export's signature.
    let output = cli()
        .arg(&input)
        .arg("--analysis=instruction_mix")
        .arg("--invoke=main")
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("argument"));

    // Unknown export.
    let output = cli()
        .arg(&input)
        .arg("--analysis=instruction_mix")
        .arg("--invoke=nope")
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("no exported function"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_unknown_hook_and_garbage_input() {
    let dir = temp_dir("errors");
    let input = write_fixture(&dir);

    let output = cli()
        .arg(&input)
        .arg("--hooks=frobnicate")
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown hook"));

    let garbage = dir.join("garbage.wasm");
    std::fs::write(&garbage, b"not wasm").unwrap();
    let output = cli().arg(&garbage).output().expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot decode"));

    let output = cli().output().expect("CLI runs");
    assert!(!output.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_mode_runs_a_manifest_over_the_fleet() {
    let dir = temp_dir("batch");
    write_fixture(&dir); // fixture.wasm, export `f`
    write_branchy_fixture(&dir); // branchy.wasm, export `main`
    let manifest = dir.join("manifest.json");
    // Module paths are relative to the manifest; one module is used by
    // several jobs (exercising the shared cache), args come as JSON
    // numbers, and one job runs without analyses.
    std::fs::write(
        &manifest,
        r#"{"jobs": [
            {"module": "branchy.wasm", "analyses": ["instruction_mix"], "args": [7]},
            {"module": "branchy.wasm", "analyses": ["instruction_mix"], "args": [8]},
            {"module": "branchy.wasm", "analyses": ["memory_tracing", "call_graph"], "args": [9]},
            {"module": "fixture.wasm", "invoke": "f", "args": [6]}
        ]}"#,
    )
    .expect("write manifest");

    let output = cli()
        .arg("--batch")
        .arg(&manifest)
        .arg("--workers=2")
        .arg("--time")
        .output()
        .expect("CLI runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one JSON object per job: {stdout}");
    // Results come back in submission order regardless of scheduling.
    assert!(
        lines[0].contains("\"job\":0") && lines[0].contains("\"i32.mul\":1"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"job\":1"), "{}", lines[1]);
    assert!(lines[2].contains("\"accesses\":2"), "{}", lines[2]);
    assert!(
        lines[3].contains("\"module\":\"fixture.wasm\""),
        "{}",
        lines[3]
    );
    assert!(lines[3].contains("I32(30)"), "{}", lines[3]);
    // The summary reports throughput + cache amortization: jobs 0 and 1
    // share one (module, hook set) entry, so at least one hit happened.
    assert!(stderr.contains("jobs/sec"), "{stderr}");
    assert!(!stderr.contains("0 cache hit(s)"), "{stderr}");
    assert!(stderr.contains("--time: per-job sums"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_mode_writes_report_files_with_out() {
    let dir = temp_dir("batch-out");
    write_branchy_fixture(&dir);
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        r#"{"jobs": [
            {"module": "branchy.wasm", "analyses": ["instruction_coverage", "branch_coverage"], "args": [1]},
            {"module": "branchy.wasm", "args": [2]}
        ]}"#,
    )
    .expect("write manifest");
    let out = dir.join("reports");

    let output = cli()
        .arg("--batch")
        .arg(&manifest)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("CLI runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    for name in ["instruction_coverage", "branch_coverage"] {
        let path = out.join(format!("job0.{name}.json"));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert!(json.contains(&format!("\"analysis\":\"{name}\"")), "{json}");
    }
    // Every job gets a summary file — including job 1, which has no
    // analyses and would otherwise leave no record of its results.
    let summary = std::fs::read_to_string(out.join("job0.json")).expect("job0 summary");
    assert!(summary.contains("\"analyses\":[\"instruction_coverage\",\"branch_coverage\"]"));
    let summary = std::fs::read_to_string(out.join("job1.json")).expect("job1 summary");
    assert!(summary.contains("\"results\":[\"I32(6)\"]"), "{summary}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_mode_rejects_bad_manifests_and_flag_combinations() {
    let dir = temp_dir("batch-errors");
    let input = write_branchy_fixture(&dir);

    // --batch is exclusive with the single-run modes.
    let output = cli()
        .arg(&input)
        .arg("--batch")
        .arg("whatever.json")
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--batch"));

    // --workers without --batch.
    let output = cli()
        .arg(&input)
        .arg("--workers=2")
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--workers requires --batch"));

    // Malformed JSON.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"jobs\": [").unwrap();
    let output = cli().arg("--batch").arg(&bad).output().expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot parse"));

    // Unknown analysis is rejected while building the batch.
    let unknown = dir.join("unknown.json");
    std::fs::write(
        &unknown,
        r#"{"jobs": [{"module": "branchy.wasm", "analyses": ["frobnicate"], "args": [1]}]}"#,
    )
    .unwrap();
    let output = cli()
        .arg("--batch")
        .arg(&unknown)
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown analysis"));

    // Wrong arity against the export signature.
    let arity = dir.join("arity.json");
    std::fs::write(
        &arity,
        r#"{"jobs": [{"module": "branchy.wasm", "analyses": ["instruction_mix"]}]}"#,
    )
    .unwrap();
    let output = cli().arg("--batch").arg(&arity).output().expect("CLI runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("argument"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_flag_prints_phase_breakdown_in_both_modes() {
    let dir = temp_dir("time-flag");
    let input = write_branchy_fixture(&dir);

    // Analysis mode: fused build/execute breakdown (direct-emit path —
    // instrument and translate are one pass, so there is no split pair
    // to report and nothing double-counted).
    let output = cli()
        .arg(&input)
        .arg("--analysis=instruction_mix")
        .arg("--invoke=main")
        .arg("--args=2")
        .arg("--time")
        .output()
        .expect("CLI runs");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--time: build (fused instrument+translate) "),
        "{stderr}"
    );
    assert!(stderr.contains(" execute "), "{stderr}");

    // Instrument mode: decode/instrument/encode breakdown.
    let output = cli()
        .arg(&input)
        .arg(dir.join("out"))
        .arg("--time")
        .output()
        .expect("CLI runs");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--time: decode "), "{stderr}");
    assert!(stderr.contains(" instrument "), "{stderr}");
    assert!(stderr.contains(" encode "), "{stderr}");
}

// ---------------------------------------------------------------------
// `wasabi client` against a live daemon: exit status + one-line errors
// (retryable vs fatal), deadlines from the command line, cancel.
// ---------------------------------------------------------------------

use wasabi_analyses::registry;
use wasabi_server::{Client, Server, ServerConfig};

fn daemon(name: &str) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    daemon_with(name, ServerConfig::new(registry::by_name))
}

fn daemon_with(
    name: &str,
    config: ServerConfig,
) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    let path = std::env::temp_dir().join(format!(
        "wasabi-cli-daemon-{name}-{}.sock",
        std::process::id()
    ));
    let server = Server::bind_unix(&path, config).expect("binds");
    let serve = std::thread::spawn(move || server.serve());
    (path, serve)
}

fn shutdown_daemon(path: &std::path::Path, serve: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect_unix(path).expect("connects");
    client.shutdown().expect("shuts down");
    serve.join().expect("serve thread").expect("clean exit");
}

fn write_spin_fixture(dir: &std::path::Path) -> PathBuf {
    let mut builder = ModuleBuilder::new();
    builder.function("main", &[], &[], |f| {
        f.block(None).loop_(None).br(0).end().end();
    });
    let path = dir.join("spin.wasm");
    std::fs::write(&path, wasabi_wasm::encode::encode(&builder.finish())).expect("write");
    path
}

#[test]
fn client_with_no_daemon_exits_nonzero_with_one_line() {
    let output = cli()
        .args(["client", "--socket", "/nonexistent/wasabid.sock", "status"])
        .output()
        .expect("CLI runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot connect"), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "one line: {stderr}");
}

#[test]
fn fatal_daemon_refusals_exit_nonzero_with_a_fatal_line() {
    let dir = temp_dir("client-fatal");
    let garbage = dir.join("garbage.wasm");
    std::fs::write(&garbage, b"not wasm").unwrap();
    let (path, serve) = daemon("fatal");

    let output = cli()
        .args(["client", "--socket"])
        .arg(&path)
        .arg("submit")
        .arg(&garbage)
        .output()
        .expect("CLI runs");
    assert!(!output.status.success(), "refusal must exit nonzero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("fatal:"), "{stderr}");
    assert!(stderr.contains("invalid_module"), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "one line: {stderr}");

    shutdown_daemon(&path, serve);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retryable_daemon_refusals_exit_nonzero_with_a_retryable_line() {
    let dir = temp_dir("client-retryable");
    let input = write_fixture(&dir);
    let spin = write_spin_fixture(&dir);
    // A draining daemon stops accepting *new* connections, so a fresh
    // CLI process can never observe that refusal — queue_full is the
    // retryable condition reachable from the outside. Bound the daemon
    // at one job and pin that slot with a spinner.
    let mut config = ServerConfig::new(registry::by_name);
    config.max_pending = 1;
    let (path, serve) = daemon_with("retryable", config);

    let mut holder = Client::connect_unix(&path).expect("connects");
    let (hash, _) = holder
        .upload(&std::fs::read(&spin).unwrap())
        .expect("uploads");
    let held = std::thread::spawn(move || {
        let mut stream = holder
            .submit_tagged(
                vec![wasabi_server::JobSpec {
                    hash,
                    analyses: vec![],
                    invoke: "main".to_string(),
                    args: vec![],
                    sweep_args: None,
                    deadline_ms: None,
                }],
                "hold",
            )
            .expect("submits");
        let _ = stream.by_ref().count();
    });
    let mut op = Client::connect_unix(&path).expect("connects");
    let in_flight = |status: wasabi::report::JsonValue| status.get("in_flight")?.as_i64();
    while in_flight(op.status().expect("status")) < Some(1) {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let output = cli()
        .args(["client", "--socket"])
        .arg(&path)
        .arg("submit")
        .arg(&input)
        .args(["--invoke", "f", "--args", "3"])
        .output()
        .expect("CLI runs");
    assert!(!output.status.success(), "refusal must exit nonzero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("retryable:"), "{stderr}");
    assert!(stderr.contains("queue_full"), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "one line: {stderr}");

    // Release the pinned job, then shut down cleanly.
    while op.cancel("hold").expect("cancel") == 0 {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    held.join().expect("holder thread");
    shutdown_daemon(&path, serve);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_flag_times_out_a_spinning_module_with_nonzero_exit() {
    let dir = temp_dir("client-deadline");
    let spin = write_spin_fixture(&dir);
    let (path, serve) = daemon("deadline");

    let output = cli()
        .args(["client", "--socket"])
        .arg(&path)
        .arg("submit")
        .arg(&spin)
        .args(["--deadline-ms", "100"])
        .output()
        .expect("CLI runs");
    assert!(!output.status.success(), "a failed job must exit nonzero");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("FAILED"), "{stderr}");
    assert!(stderr.contains("deadline"), "{stderr}");
    assert!(stderr.contains("1 job(s) failed"), "{stderr}");

    // The daemon survived the timeout and still answers.
    let output = cli()
        .args(["client", "--socket"])
        .arg(&path)
        .arg("status")
        .output()
        .expect("CLI runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"timeouts\":1"), "{stdout}");

    shutdown_daemon(&path, serve);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_command_reports_the_fired_count() {
    let (path, serve) = daemon("cancel");

    let output = cli()
        .args(["client", "--socket"])
        .arg(&path)
        .args(["cancel", "no-such-tag"])
        .output()
        .expect("CLI runs");
    assert!(output.status.success(), "cancel of an idle tag is a no-op");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cancelled 0 job(s)"), "{stderr}");

    shutdown_daemon(&path, serve);
}
