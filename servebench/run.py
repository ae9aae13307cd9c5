#!/usr/bin/env python3
"""Serving benchmark for eidb: one workload, end-to-end or traced.

Run from the root of a checkout:

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the engine (src/) and the benchmark binary (servebench/src/) with
CMake into .bench_build/servebench (or $CARGO_TARGET_DIR/servebench), runs
the binary, checks that its result carries every metric BENCHMARK.json
names with the declared unit, and prints the binary's report. The last
stdout line is the result JSON. The workload names are BENCHMARK.json's.
Flags only the binary knows (--rows, --corrupt-oracle) pass through
unchanged.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group (compilers under a build, say) and waits for it. Returns the
    CompletedProcess, or None on timeout."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "servebench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [BENCH_DIR]:  # a cache from another checkout
            os.remove(cache)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        done = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if done is None:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "servebench")


def source_digest():
    """sha256 over the engine and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD's commit when the checkout carries a .git directory."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        return head[:12]
    except OSError:
        return "none"


def check_result(spec, result, trace):
    """Every metric BENCHMARK.json names, present with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, passthrough = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.hpp")):
        fail(f"no engine sources under {ROOT}/src", 2)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", f"{git_commit()}/{source_digest()}"] + passthrough
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    done = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=sys.stderr,
                     text=True)
    if done is None:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"benchmark binary exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark binary printed no result line")
    check_result(spec, result, args.trace == 1)
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
