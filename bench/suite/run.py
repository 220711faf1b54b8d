#!/usr/bin/env python3
"""Builds fpr_bench and runs one workload of it, for harnesses that want JSON.

    python3 bench/suite/run.py --workload paper-busc --seed 31 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/suite (the
first run configures and compiles; later runs reuse it). The last line of
stdout is one JSON object:

    {"correct": true, "attempted": 1661, "failed": 0,
     "metrics": {"latency_ms": {"value": 939.5, "unit": "ms"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit status is non-zero, and no JSON is
printed, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "suite")
MANIFEST = os.path.join(REPO_ROOT, "BENCHMARK.json")

# One run must end within 180 s; the build before the first run is not counted.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "fpr_bench", "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SUITE_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_bench(args, out_path, trace_path):
    cmd = [os.path.join(BUILD_DIR, "fpr_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out_path]
    if trace_path:
        cmd += ["--trace", trace_path]
    # A process group of its own, so a timeout stops the workload children too.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def read_result(path):
    envelope, rows = {}, {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "#":
                envelope[fields[1]] = " ".join(fields[2:])
            else:
                workload, metric, value, unit = fields[:4]
                rows[(workload, metric)] = (float(value), unit)
    return envelope, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(MANIFEST) as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        sys.exit(f"unknown workload {args.workload}")
    if not build():
        sys.exit("build failed")

    stem = os.path.join(BUILD_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out_path = stem + ".txt"
    if os.path.exists(out_path):
        os.remove(out_path)
    status = run_bench(args, out_path, stem + ".jsonl" if args.trace else None)
    # Status 3: the run finished but a correctness check failed.
    if status not in (0, 3) or not os.path.exists(out_path):
        sys.exit(f"fpr_bench failed (status {status})")

    envelope, rows = read_result(out_path)
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        value, unit = rows.get((args.workload, m["name"]), (None, None))
        if value is None:
            sys.exit(f"fpr_bench printed no {m['name']} for {args.workload}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": status == 0 and envelope.get("correct") == "1",
        "attempted": int(rows[(args.workload, "attempted")][0]),
        "failed": int(rows[(args.workload, "failed")][0]),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
