#!/usr/bin/env python3
"""Build and run the wasabid end-to-end benchmark.

    python3 wasabid-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wasabid-bench/run.py --smoke

Run from the root of a checkout. Builds the shipped `wasabid` binary from
the repository's workspace and the load generator from this directory (both
with `cargo --release --offline`, into $CARGO_TARGET_DIR, by default
`.bench_build` at the repository root), then runs the `timed` binary
(`--trace 0`, end-to-end metrics) or the `replay` binary (`--trace 1`,
per-layer metrics). The last line of standard output is the result as one
JSON object; everything else goes to standard error.

The load generator and every daemon it starts run in a process group of
their own, which is killed on every exit path.

`--smoke` runs every workload briefly and asserts that every metric prints
with its unit, that no request failed, and that the count metrics of the
traced run repeat exactly between two runs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tiny-submit", "light-analysis", "heavy-analysis", "cold-upload"]
# A run must end within 180 s once built; the generator gets the rest
# after a no-op build.
RUN_LIMIT_S = 170
# Workloads whose generator and daemons share one CPU, the lowest the run may
# use. A tiny-submit request is mostly thread hand-offs, and on small virtual
# machines a wake-up or TLB shootdown aimed at another vCPU stalls whenever
# the hypervisor has descheduled it: unpinned, its throughput varied
# threefold between runs. The other workloads keep one thread busy at a time
# and vary less when the scheduler may place it on any CPU.
ONE_CPU = {"tiny-submit"}
COUNT_METRICS = [
    "vm.instrs",
    "runtime.host_calls",
    "cache.misses",
    "protocol.bytes_in",
    "protocol.bytes_out",
]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)



def target_dir():
    # Cargo reads a relative CARGO_TARGET_DIR against its working directory;
    # resolve it here, where the caller set it.
    default = os.path.join(ROOT, ".bench_build")
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", default))


def build(binary):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "wasabi-server", "--bin", "wasabid"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary],
    ]
    for step in steps:
        command = ["cargo", "build", "--release", "--offline", "--quiet", *step]
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command))


def run(options):
    binary = "timed" if options.trace == "0" else "replay"
    build(binary)
    release = os.path.join(target_dir(), "release")
    work = os.path.join(target_dir(), "wasabid-bench")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(release, binary), "--wasabid", os.path.join(release, "wasabid")]
    command += ["--workload", options.workload, "--seed", options.seed,
                "--seconds", options.seconds]
    # The generator runs in `work`, so daemon socket paths stay short.
    cpus = os.sched_getaffinity(0)
    if options.workload in ONE_CPU:
        cpus = {min(cpus)}
    child = subprocess.Popen(command, cwd=work, start_new_session=True,
                             preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        code = child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the run exceeded its time limit", file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code)


def smoke():
    def result(workload, seed, trace):
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
        started = time.monotonic()
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            fail(f"{workload} --trace {trace} exited with {done.returncode}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{workload} --trace {trace}: {time.monotonic() - started:.1f} s", file=sys.stderr)
        return line

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            line = result(workload, 7, trace)
            assert line["correct"] and line["failed"] == 0, (workload, trace, line)
            assert line["attempted"] >= 1, (workload, trace, line)
            metrics = line["metrics"]
            assert sorted(metrics) == sorted(m["name"] for m in listed), (workload, trace)
            for m in listed:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (workload, m["name"], got)
                assert isinstance(got["value"], (int, float)), (workload, m["name"], got)
            if trace == 1:
                again = result(workload, 7, 1)["metrics"]
                for name in COUNT_METRICS:
                    assert metrics[name]["value"] == again[name]["value"], (workload, name)
    print("smoke: ok", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description="Build and run the wasabid benchmark.")
    parser.add_argument("--smoke", action="store_true", help="check every workload briefly")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    options = parser.parse_args()
    if options.smoke:
        smoke()
    elif None in (options.workload, options.seed, options.seconds, options.trace):
        parser.error("a run needs --workload, --seed, --seconds and --trace")
    else:
        run(options)


if __name__ == "__main__":
    main()
