#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs. Keep in sync with ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Differential-oracle gate: re-run the three-way oracle (direct-emit vs.
# rewrite+flat vs. Reference) with elevated case counts so every CI run
# gets real random-module coverage, not just the fast local default.
echo "==> differential oracle (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q --test instrumented_differential
PROPTEST_CASES=64 cargo test -q -p wasabi-vm --test zero_cost_unsubscribed

# The one interpreter loop against the independent structured-walk
# Reference on random uninstrumented modules. Both `invoke` and the cohort
# run that loop, so this is the only suite that checks it against a second
# implementation; it is cheap, so it runs at a higher count.
echo "==> flat vs. Reference oracle (PROPTEST_CASES=256)"
PROPTEST_CASES=256 cargo test -q -p wasabi-vm --test flat_vs_reference

# Cohort differential gate: N interleaved instances must stay
# bit-identical to N sequential runs (results, traps, instruction
# counts, memory, globals) across random modules, chunk sizes, fuel
# limits, and budget preemption.
echo "==> cohort differential (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p wasabi-vm --test cohort_vs_sequential

# Chaos gate: the seeded fault-injection suite. Failpoints fire inside
# the disk cache, the build slots, the fleet workers, and the server
# frame layer; every injected fault must degrade to a structured error
# on a surviving process, retries must stay bounded, and the jobs that
# dodge the faults must produce reports bit-identical to a fault-free
# run. The suite seeds its own registry, so it is fully deterministic.
echo "==> chaos suite (seeded fault injection)"
cargo test -q -p wasabi --test chaos

echo "==> cargo fmt --check"
cargo fmt --check

# Documentation gate: the rustdoc must build without warnings (broken
# intra-doc links, missing docs the lints catch, ...). Library targets
# only: the `wasabi` CLI bin would collide with the `wasabi` lib's output
# path and bins carry no public API docs.
echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --quiet

# Downstream-consumer smoke: every example must build AND run, so an API
# break in examples/ fails CI, not the next user.
echo "==> examples"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "    running example: $name"
    cargo run --release -q -p wasabi-repro --example "$name" >/dev/null
done

echo "==> bench smoke (fig9 --smoke)"
cargo run --release -q -p wasabi-bench --bin fig9 -- --smoke >/dev/null

echo "==> bench smoke (pipeline --smoke)"
cargo run --release -q -p wasabi-bench --bin pipeline -- --smoke --out /tmp/BENCH_pipeline_smoke.json >/dev/null

echo "==> bench smoke (interp --smoke)"
cargo run --release -q -p wasabi-bench --bin interp -- --smoke --out /tmp/BENCH_interp_smoke.json >/dev/null

echo "==> bench smoke (overhead --smoke)"
cargo run --release -q -p wasabi-bench --bin overhead -- --smoke --out /tmp/BENCH_overhead_smoke.json >/dev/null

echo "==> bench smoke (fleet --smoke)"
cargo run --release -q -p wasabi-bench --bin fleet -- --smoke --out /tmp/BENCH_fleet_smoke.json >/dev/null

echo "==> bench smoke (parallel --smoke)"
cargo run --release -q -p wasabi-bench --bin parallel -- --smoke --out /tmp/BENCH_parallel_smoke.json >/dev/null

echo "==> bench smoke (cohort --smoke)"
cargo run --release -q -p wasabi-bench --bin cohort -- --smoke --out /tmp/BENCH_cohort_smoke.json >/dev/null

# Parallel-build + persistent-cache gate: a disk-warm process start must
# load prepared sessions at least 2x faster than a cold build (committed
# AND fresh smoke), and the committed thread-sweep must show >= 1.5x
# build speedup at max threads — judged only when the recording box had
# more than one core (like the fleet gate, the JSON records `cores`).
# Re-record with:  cargo run --release -p wasabi-bench --bin parallel
echo "==> perf gate: BENCH_parallel.json (disk-warm >= 2x; threads >= 1.5x when cores > 1)"
python3 - <<'EOF'
import json, sys
with open("BENCH_parallel.json") as f:
    committed = json.load(f)
with open("/tmp/BENCH_parallel_smoke.json") as f:
    smoke = json.load(f)
for label, data in (("committed", committed), ("smoke", smoke)):
    ratio = data["disk_warm_vs_cold"]
    if ratio < 2.0:
        sys.exit(f"disk-warm start regressed ({label}): "
                 f"{ratio:.3f}x < 2x the cold build")
if committed["cores"] > 1:
    speedup = committed["speedup_max_threads"]
    if speedup < 1.5:
        sys.exit(f"parallel build speedup regressed: {speedup:.3f}x < 1.5x "
                 f"at {committed['max_threads']} thread(s)")
    print(f"    build speedup: {speedup:.2f}x at {committed['max_threads']} "
          f"thread(s) (>= 1.5x on {committed['cores']} cores)")
else:
    print(f"    thread-scaling gate skipped: committed baseline recorded on "
          f"1 core (speedup {committed['speedup_max_threads']:.2f}x)")
print(f"    disk-warm vs cold start: committed "
      f"{committed['disk_warm_vs_cold']:.2f}x, smoke "
      f"{smoke['disk_warm_vs_cold']:.2f}x (>= 2x)")
EOF

# Batch-engine gate: the committed baseline must show the shared
# translated-module cache paying off — warm-cache jobs/sec at least 1.5x
# the cold single-worker rate. (Worker *scaling* is not gated: the CI box
# may be single-core; the JSON records `cores` for context.) Re-record
# with:  cargo run --release -p wasabi-bench --bin fleet
echo "==> perf gate: BENCH_fleet.json (warm >= 1.5x cold single-worker)"
python3 - <<'EOF'
import json, sys
with open("BENCH_fleet.json") as f:
    committed = json.load(f)
ratio = committed["warm_allcores_vs_cold_1worker"]
if ratio < 1.5:
    sys.exit(f"fleet warm-cache throughput regressed: "
             f"{ratio:.3f}x < 1.5x cold single-worker")
with open("/tmp/BENCH_fleet_smoke.json") as f:
    smoke = json.load(f)
smoke_ratio = smoke["warm_allcores_vs_cold_1worker"]
if smoke_ratio < 1.5:
    sys.exit(f"fleet warm-cache throughput regressed in fresh smoke run: "
             f"{smoke_ratio:.3f}x < 1.5x cold single-worker")
print(f"    fleet warm-vs-cold: committed {ratio:.2f}x, smoke {smoke_ratio:.2f}x "
      f"(>= 1.5x; amortization {committed['amortization_warm_vs_cold_1worker']:.2f}x, "
      f"worker scaling {committed['scaling_1worker_to_allcores_warm']:.2f}x "
      f"on {committed['cores']} core(s))")
EOF

# Cohort-sweep gate: one N-input sweep through `Pipeline::run_cohort`
# must beat N fleet jobs on a warm cache by >= 1.5x (committed AND fresh
# smoke) — both arms at 1 worker, so the ratio measures the per-job
# overhead (dispatch, host-plan build, analysis instantiation) the
# cohort amortizes, not parallelism. Re-record with:
#   cargo run --release -p wasabi-bench --bin cohort
echo "==> perf gate: BENCH_cohort.json (cohort >= 1.5x warm 1-worker fleet)"
python3 - <<'EOF'
import json, sys
with open("BENCH_cohort.json") as f:
    committed = json.load(f)
with open("/tmp/BENCH_cohort_smoke.json") as f:
    smoke = json.load(f)
for label, data in (("committed", committed), ("smoke", smoke)):
    ratio = data["speedup_cohort_vs_fleet"]
    if ratio < 1.5:
        sys.exit(f"cohort sweep speedup regressed ({label}): "
                 f"{ratio:.3f}x < 1.5x warm 1-worker fleet")
print(f"    cohort vs warm fleet: committed "
      f"{committed['speedup_cohort_vs_fleet']:.2f}x ({committed['inputs']} inputs), "
      f"smoke {smoke['speedup_cohort_vs_fleet']:.2f}x (>= 1.5x)")
EOF

# Host-call intrinsics + direct-emit gate: the committed baseline must
# show the >= 1.5x all-hooks improvement over the generic-call path, the
# direct-emit path must run all-hooks instrumentation in <= 0.75x the
# rewrite path's wall time (committed AND fresh smoke), and the freshly
# measured all-hooks overhead must stay within 1.25x of the committed
# baseline. The absolute-overhead tolerance is deliberately looser than
# the ratio gates: smoke mode (3 kernels, all-hooks row only) reads
# 10-20% above a back-to-back full run of the SAME binary on this
# hardware (observed: full-run subset geomean 10.9x, three smoke runs
# 12.0/12.2/13.2x with no code change), so x1.1 flakes on variance
# while x1.25 still catches real regressions. Re-record with:
#   cargo run --release -p wasabi-bench --bin overhead
echo "==> perf gate: BENCH_overhead.json (improvement >= 1.5x, direct <= 0.75x rewrite, smoke within baseline x1.25)"
python3 - <<'EOF'
import json, math, sys
with open("BENCH_overhead.json") as f:
    committed = json.load(f)
with open("/tmp/BENCH_overhead_smoke.json") as f:
    smoke = json.load(f)
if committed["all"]["improvement"] < 1.5:
    sys.exit(f"committed intrinsic improvement regressed: "
             f"{committed['all']['improvement']:.3f}x < 1.5x")
for label, data in (("committed", committed), ("smoke", smoke)):
    ratio = data["all"]["direct_vs_rewrite"]
    if ratio > 0.75:
        sys.exit(f"direct-emit advantage regressed ({label}): all-hooks wall "
                 f"{ratio:.3f}x of rewrite path > 0.75x")
print(f"    direct-emit vs rewrite: committed "
      f"{committed['all']['direct_vs_rewrite']:.2f}x, smoke "
      f"{smoke['all']['direct_vs_rewrite']:.2f}x (<= 0.75x)")
# Compare the smoke kernels against the SAME kernels of the committed
# baseline (the smoke subset's geomean differs from the full suite's).
baseline = {k["name"]: k["overhead_intrinsic"] for k in committed["kernels"]}
measured = [(k["name"], k["overhead_intrinsic"]) for k in smoke["kernels"]]
missing = [name for name, _ in measured if name not in baseline]
if missing:
    sys.exit(f"kernels missing from committed baseline: {missing}")
geo = lambda xs: math.exp(sum(math.log(x) for x in xs) / len(xs))
smoke_geo = geo([o for _, o in measured])
base_geo = geo([baseline[name] for name, _ in measured])
if smoke_geo > base_geo * 1.25:
    sys.exit(f"all-hooks overhead regressed: measured {smoke_geo:.2f}x > "
             f"baseline {base_geo:.2f}x * 1.25 (same-kernel subset)")
print(f"    all-hooks overhead: {smoke_geo:.2f}x "
      f"(same-kernel baseline {base_geo:.2f}x, improvement over "
      f"generic path {committed['all']['improvement']:.2f}x)")
EOF

# Perf regression gate: the recorded fused-pipeline speedup must stay
# >= 2.0x. Re-record with:  cargo run --release -p wasabi-bench --bin pipeline
echo "==> perf gate: BENCH_pipeline.json fused speedup >= 2.0x"
python3 - <<'EOF'
import json, sys
with open("BENCH_pipeline.json") as f:
    bench = json.load(f)
speedup = bench["speedup"]
if speedup < 2.0:
    sys.exit(f"fused-pipeline speedup regressed: {speedup:.3f}x < 2.0x")
print(f"    fused-pipeline speedup: {speedup:.3f}x (>= 2.0x)")
EOF

# Server e2e smoke: bring up a real wasabid on a temp unix socket, prove
# content dedup via the daemon's own counters, run a 3-job batch through
# the client bin, and check the streamed result lines against the same
# jobs run through `wasabi --batch` — then drain and require a clean exit.
echo "==> server e2e smoke (wasabid over a unix socket)"
SMOKE_DIR="$(mktemp -d)"
WASABID_PID=""
cleanup_server_smoke() {
    [ -n "$WASABID_PID" ] && kill "$WASABID_PID" 2>/dev/null
    rm -rf "$SMOKE_DIR"
}
trap cleanup_server_smoke EXIT

cargo run --release -q -p wasabi-workloads --bin gen -- \
    kernel gemm 8 "$SMOKE_DIR/gemm.wasm" >/dev/null
SOCK="$SMOKE_DIR/wasabid.sock"
target/release/wasabid --socket "$SOCK" --workers 2 2>"$SMOKE_DIR/wasabid.log" &
WASABID_PID=$!
for _ in $(seq 1 200); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || { cat "$SMOKE_DIR/wasabid.log"; echo "wasabid did not come up"; exit 1; }

# Upload the same module twice: the second must be a dedup hit, observed
# through the status counters (not just the client's word for it).
target/release/wasabi-client --socket "$SOCK" upload "$SMOKE_DIR/gemm.wasm" >/dev/null
target/release/wasabi-client --socket "$SOCK" upload "$SMOKE_DIR/gemm.wasm" >/dev/null
target/release/wasabi-client --socket "$SOCK" status >"$SMOKE_DIR/status1.json"
python3 - "$SMOKE_DIR/status1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["state"] == "accepting", s
assert s["uploads"] == 2, f"expected 2 uploads, got {s['uploads']}"
assert s["dedup_hits"] == 1, f"second upload must dedup: {s}"
assert s["modules"] == 1, f"dedup must not create a second entry: {s}"
print(f"    dedup: uploads={s['uploads']} dedup_hits={s['dedup_hits']} "
      f"modules={s['modules']}")
EOF

# 3-job batch through the client bin (streams one JSON line per result)
# vs. the same jobs through the CLI's --batch mode.
target/release/wasabi-client --socket "$SOCK" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix,call_graph --jobs 3 \
    >"$SMOKE_DIR/streamed.jsonl" 2>/dev/null
cat >"$SMOKE_DIR/manifest.json" <<'EOF'
{"jobs": [
  {"module": "gemm.wasm", "analyses": ["instruction_mix", "call_graph"]},
  {"module": "gemm.wasm", "analyses": ["instruction_mix", "call_graph"]},
  {"module": "gemm.wasm", "analyses": ["instruction_mix", "call_graph"]}
]}
EOF
target/release/wasabi --batch "$SMOKE_DIR/manifest.json" \
    >"$SMOKE_DIR/batch.jsonl" 2>/dev/null
target/release/wasabi-client --socket "$SOCK" status >"$SMOKE_DIR/status2.json"
python3 - "$SMOKE_DIR/streamed.jsonl" "$SMOKE_DIR/batch.jsonl" "$SMOKE_DIR/status2.json" <<'EOF'
import json, sys
streamed = {}
with open(sys.argv[1]) as f:
    for line in f:
        r = json.loads(line)
        streamed[r["job"]] = r
with open(sys.argv[2]) as f:
    batch = {json.loads(line)["job"]: json.loads(line) for line in f}
assert len(streamed) == 3 and len(batch) == 3, (len(streamed), len(batch))
for job, b in batch.items():
    s = streamed[job]
    # "module" differs by design: a content hash daemon-side, a manifest
    # path batch-side. Everything observable must match.
    for field in ("invoke", "results", "reports"):
        assert s[field] == b[field], (
            f"job {job} field {field!r} diverges:\n  streamed {s[field]}\n  batch {b[field]}")
    assert "cache_hit" in s, s
with open(sys.argv[3]) as f:
    st = json.load(f)
assert st["jobs_done"] == 3 and st["in_flight"] == 0, st
assert st["cache_misses"] == 1 and st["cache_hits"] == 2, (
    f"3 identical jobs must build once and hit twice: {st}")
print(f"    streamed == batch on 3 jobs; daemon built once "
      f"(cache_misses={st['cache_misses']}, cache_hits={st['cache_hits']})")
EOF

# Drain: in-flight work is done, so the daemon must exit cleanly on its own.
target/release/wasabi-client --socket "$SOCK" drain 2>/dev/null
for _ in $(seq 1 200); do kill -0 "$WASABID_PID" 2>/dev/null || break; sleep 0.05; done
if kill -0 "$WASABID_PID" 2>/dev/null; then
    echo "wasabid did not exit after drain"; exit 1
fi
wait "$WASABID_PID"
WASABID_PID=""
if [ -e "$SOCK" ]; then
    echo "wasabid left its socket file behind"; exit 1
fi
echo "    drained: wasabid exited 0 and removed its socket"

# Disk-tier e2e: a daemon started with --disk-cache persists every
# prepared session; a RESTARTED daemon over the same directory must serve
# the same module from the disk tier — no rebuild — proven by its own
# counters: disk_cache_hits goes to 1 and the build-phase timer stays at
# zero in the fresh process.
echo "==> server e2e: disk cache survives a daemon restart"
DCACHE="$SMOKE_DIR/diskcache"
SOCK2="$SMOKE_DIR/wasabid2.sock"
target/release/wasabid --socket "$SOCK2" --workers 2 --disk-cache "$DCACHE" \
    2>"$SMOKE_DIR/wasabid2.log" &
WASABID_PID=$!
for _ in $(seq 1 200); do [ -S "$SOCK2" ] && break; sleep 0.05; done
[ -S "$SOCK2" ] || { cat "$SMOKE_DIR/wasabid2.log"; echo "wasabid (disk cache) did not come up"; exit 1; }
target/release/wasabi-client --socket "$SOCK2" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix >/dev/null 2>&1
target/release/wasabi-client --socket "$SOCK2" status >"$SMOKE_DIR/status3.json"
python3 - "$SMOKE_DIR/status3.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["cache_misses"] == 1, s
assert s["disk_cache_misses"] == 1 and s["disk_cache_hits"] == 0, (
    f"a cold daemon must miss the disk tier exactly once: {s}")
assert s["build_ms"] > 0, f"a cold daemon must report its build phase: {s}"
print(f"    cold daemon: disk_cache_misses={s['disk_cache_misses']}, "
      f"built in {s['build_ms']:.1f} ms "
      f"(worker busy {s['build_worker_ms']:.1f} ms)")
EOF
target/release/wasabi-client --socket "$SOCK2" drain 2>/dev/null
for _ in $(seq 1 200); do kill -0 "$WASABID_PID" 2>/dev/null || break; sleep 0.05; done
if kill -0 "$WASABID_PID" 2>/dev/null; then
    echo "wasabid (disk cache) did not exit after drain"; exit 1
fi
wait "$WASABID_PID"
WASABID_PID=""

# Restart over the SAME cache directory: the upload is new (fresh content
# store), the memory tier is cold (cache_misses goes to 1), but the disk
# tier serves the prepared session — zero rebuilds in this process.
target/release/wasabid --socket "$SOCK2" --workers 2 --disk-cache "$DCACHE" \
    2>"$SMOKE_DIR/wasabid3.log" &
WASABID_PID=$!
for _ in $(seq 1 200); do [ -S "$SOCK2" ] && break; sleep 0.05; done
[ -S "$SOCK2" ] || { cat "$SMOKE_DIR/wasabid3.log"; echo "restarted wasabid did not come up"; exit 1; }
target/release/wasabi-client --socket "$SOCK2" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix >"$SMOKE_DIR/restarted.jsonl" 2>/dev/null
target/release/wasabi-client --socket "$SOCK2" status >"$SMOKE_DIR/status4.json"
python3 - "$SMOKE_DIR/status4.json" "$SMOKE_DIR/restarted.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["jobs_done"] == 1, s
assert s["cache_misses"] == 1, f"memory tier starts cold after a restart: {s}"
assert s["disk_cache_hits"] == 1 and s["disk_cache_misses"] == 0, (
    f"restarted daemon must serve the module from the disk tier: {s}")
assert s["build_ms"] == 0, (
    f"a disk hit must not rebuild — the build phase stayed idle: {s}")
with open(sys.argv[2]) as f:
    results = [json.loads(line) for line in f]
assert len(results) == 1 and "reports" in results[0], results
print(f"    restarted daemon: disk_cache_hits={s['disk_cache_hits']}, "
      f"build_ms={s['build_ms']} (served from disk, no rebuild)")
EOF
target/release/wasabi-client --socket "$SOCK2" drain 2>/dev/null
for _ in $(seq 1 200); do kill -0 "$WASABID_PID" 2>/dev/null || break; sleep 0.05; done
if kill -0 "$WASABID_PID" 2>/dev/null; then
    echo "restarted wasabid did not exit after drain"; exit 1
fi
wait "$WASABID_PID"
WASABID_PID=""
echo "    disk tier: rebuild-free restart verified"

# Governance e2e: a job that never terminates is killed by its deadline
# on a live daemon — the client exits non-zero with a structured error,
# the worker is reclaimed (not leaked), the next batch completes
# normally, and the daemon's own counters record the timeout.
echo "==> server e2e: deadline kills a spinning job, daemon keeps serving"
SOCK3="$SMOKE_DIR/wasabid-gov.sock"
cargo run --release -q -p wasabi-workloads --bin gen -- \
    spin "$SMOKE_DIR/spin.wasm" >/dev/null
target/release/wasabid --socket "$SOCK3" --workers 2 2>"$SMOKE_DIR/wasabid-gov.log" &
WASABID_PID=$!
for _ in $(seq 1 200); do [ -S "$SOCK3" ] && break; sleep 0.05; done
[ -S "$SOCK3" ] || { cat "$SMOKE_DIR/wasabid-gov.log"; echo "wasabid (governance) did not come up"; exit 1; }
if target/release/wasabi-client --socket "$SOCK3" submit "$SMOKE_DIR/spin.wasm" \
    --deadline-ms 100 >/dev/null 2>"$SMOKE_DIR/deadline.err"; then
    echo "client must exit non-zero when its job is killed by the deadline"; exit 1
fi
grep -q "deadline" "$SMOKE_DIR/deadline.err" || {
    cat "$SMOKE_DIR/deadline.err"
    echo "expected a structured deadline error on stderr"; exit 1; }
target/release/wasabi-client --socket "$SOCK3" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix >"$SMOKE_DIR/after-deadline.jsonl" 2>/dev/null
[ -s "$SMOKE_DIR/after-deadline.jsonl" ] || {
    echo "daemon did not serve the batch after the deadline kill"; exit 1; }
target/release/wasabi-client --socket "$SOCK3" status >"$SMOKE_DIR/status-gov.json"
python3 - "$SMOKE_DIR/status-gov.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["timeouts"] >= 1, f"status must count the deadline kill: {s}"
assert s["jobs_done"] >= 2, f"the follow-up batch must have run: {s}"
print(f"    deadline kill counted (timeouts={s['timeouts']}), "
      f"daemon kept serving ({s['jobs_done']} jobs done)")
EOF
target/release/wasabi-client --socket "$SOCK3" drain 2>/dev/null
for _ in $(seq 1 200); do kill -0 "$WASABID_PID" 2>/dev/null || break; sleep 0.05; done
if kill -0 "$WASABID_PID" 2>/dev/null; then
    echo "wasabid (governance) did not exit after drain"; exit 1
fi
wait "$WASABID_PID"
WASABID_PID=""
echo "    governance: deadline e2e verified"

# Cohort e2e: a `sweep_args` job expands daemon-side into one cohort and
# streams ONE result frame per instance, tagged with its index — the
# aggregate analysis reports ride the last instance's frame.
echo "==> server e2e: sweep_args job streams one frame per instance"
SOCK4="$SMOKE_DIR/wasabid-sweep.sock"
cat >"$SMOKE_DIR/sweep-args.json" <<'EOF'
[[], [], []]
EOF
target/release/wasabid --socket "$SOCK4" --workers 2 2>"$SMOKE_DIR/wasabid-sweep.log" &
WASABID_PID=$!
for _ in $(seq 1 200); do [ -S "$SOCK4" ] && break; sleep 0.05; done
[ -S "$SOCK4" ] || { cat "$SMOKE_DIR/wasabid-sweep.log"; echo "wasabid (sweep) did not come up"; exit 1; }
target/release/wasabi-client --socket "$SOCK4" submit "$SMOKE_DIR/gemm.wasm" \
    --analyses instruction_mix --sweep-args "$SMOKE_DIR/sweep-args.json" \
    >"$SMOKE_DIR/sweep.jsonl" 2>/dev/null
python3 - "$SMOKE_DIR/sweep.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    frames = [json.loads(line) for line in f]
assert len(frames) == 3, f"expected one frame per instance, got {len(frames)}"
assert [f["instance"] for f in frames] == [0, 1, 2], frames
assert len({f["job"] for f in frames}) == 1, "all frames belong to one job"
assert all(f["results"] == frames[0]["results"] for f in frames), (
    "identical inputs must produce identical per-instance results")
assert all(not f["reports"] for f in frames[:-1]), (
    "aggregate reports must ride only the last frame")
assert frames[-1]["reports"], "the last frame carries the analysis reports"
print(f"    sweep: 3 instance frames, reports on frame {frames[-1]['instance']} only")
EOF
target/release/wasabi-client --socket "$SOCK4" drain 2>/dev/null
for _ in $(seq 1 200); do kill -0 "$WASABID_PID" 2>/dev/null || break; sleep 0.05; done
if kill -0 "$WASABID_PID" 2>/dev/null; then
    echo "wasabid (sweep) did not exit after drain"; exit 1
fi
wait "$WASABID_PID"
WASABID_PID=""
echo "    cohort: sweep_args e2e verified"

# End-to-end benchmark smoke: build the wasabid benchmark (its `replay`
# bin calls the VM, fleet, cache and stats APIs directly, so an API change
# that breaks it fails here), run every workload briefly through a real
# daemon, and check every result against the Reference oracle.
echo "==> wasabid benchmark smoke"
python3 wasabid-bench/run.py --smoke

echo "ci.sh: all checks passed"
