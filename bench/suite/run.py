#!/usr/bin/env python3
"""Build vran_bench from this checkout's sources and run one workload.

    python3 bench/suite/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of the repository. It configures and builds the
repository with bench/suite/vran_bench.cmake injected into .bench_build/,
runs one workload, echoes the binary's `name value unit` lines and prints,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics. The run's JSON report and the workload's
latest Chrome trace land in .bench_build/runs/.

Exit status: 0 ok; 2 invalid run (printed as "invalid: <reason>"); any
other non-zero value when the build fails, the binary fails or an output
is wrong (then the JSON line says "correct": false).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, ".bench_build", "vran_bench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let ninja rebuild whatever changed."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "build.ninja")):
            cfg = ["cmake", "-S", ROOT, "-B", BUILD, "-G", "Ninja",
                   "-DCMAKE_PROJECT_INCLUDE=" +
                   os.path.join(SUITE, "vran_bench.cmake")]
            if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "vran_bench", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_names(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("vran_bench: build failed")
        return 1

    os.makedirs(RUNS, exist_ok=True)
    stem = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                            args.trace))
    out_json = stem + ".json"
    if os.path.exists(out_json):
        os.remove(out_json)
    cmd = [os.path.join(BUILD, "vran_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--json", out_json]
    if args.trace:
        # One trace file per workload (tens of MB): each run replaces it.
        cmd += ["--trace", os.path.join(RUNS, args.workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("vran_bench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode == 2:
        return 2
    if proc.returncode not in (0, 3) or not os.path.exists(out_json):
        log("vran_bench: exit status %d" % proc.returncode)
        return proc.returncode or 1

    with open(out_json) as f:
        report = json.load(f)
    names = expected_names(args.trace)
    if list(report["metrics"]) != names:
        log("vran_bench: metrics %s differ from BENCHMARK.json %s" %
            (list(report["metrics"]), names))
        return 1
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
