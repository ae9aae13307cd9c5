#!/usr/bin/env python3
"""Self-test of the serving benchmark at a tiny size.

Run from the root of a checkout:

    python3 servebench/selftest.py

For every workload of BENCHMARK.json it asserts that an untraced run
prints every end-to-end metric by name with its unit and fails no
operation, that two runs with the same seed give identical
dram_mb_per_query, that a deliberately corrupted expected answer is
caught, and that a traced run prints every per-layer metric plus the
tracing overhead. Exits non-zero at the first failed assertion.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY = ["--rows", "200000"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *TINY, *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)}\n{done.stderr}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def expect(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        lines, first = run(w, 7, 0)
        report = "\n".join(lines[:-1])
        for m in spec["end_to_end"]:
            got = first["metrics"].get(m["name"], {})
            expect(got.get("unit") == m["unit"], f"{w}: {m['name']} missing or not in {m['unit']}")
            expect(f" {m['name']} " in report, f"{w}: {m['name']} not printed by name")
        expect(first["correct"] and first["failed"] == 0 and first["attempted"] > 0,
               f"{w}: failed {first['failed']} of {first['attempted']}")

        _, second = run(w, 7, 0)
        dram = [r["metrics"]["dram_mb_per_query"]["value"] for r in (first, second)]
        expect(dram[0] == dram[1], f"{w}: dram_mb_per_query differs across same-seed runs: {dram}")

        _, corrupted = run(w, 7, 0, "--corrupt-oracle")
        expect(not corrupted["correct"] and corrupted["failed"] > 0,
               f"{w}: a corrupted expected answer was not caught")

        lines, traced = run(w, 7, 1)
        for m in spec["per_layer"]:
            got = traced["metrics"].get(m["name"], {})
            expect(got.get("unit") == m["unit"], f"{w}: {m['name']} missing or not in {m['unit']}")
        expect(traced["failed"] == 0, f"{w}: traced run failed {traced['failed']}")
        expect(any(l.startswith("tracing overhead") for l in lines), f"{w}: no tracing overhead")
        print(f"ok {w}: attempted={first['attempted']} dram_mb_per_query={dram[0]}")
    print("selftest passed")


if __name__ == "__main__":
    main()
