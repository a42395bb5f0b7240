#!/usr/bin/env python3
"""Self-test of the vran_bench binary (CTest: vran_bench_selftest and
vran_bench_seed, label "bench").

    selftest.py --bin PATH --out DIR [--seed-only]

Default: runs every workload briefly (20 TTIs closed loop, 1 s open loop)
untraced and traced, and checks that each run exits 0 with correct
outputs, that every metric and workload name matches [A-Za-z0-9_.-]+,
that every span of the written trace lies inside its parent, that no two
children of a span overlap, that per TTI the self times of all spans sum
to the root span's duration, and that each per-layer `<layer>_us` metric
is its layer's mean self time per TTI in the trace.

--seed-only: checks that the input digest depends on the seed alone —
the same seed gives the same digest, another seed another digest.
"""
import argparse
import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ["ul-bulk", "ul-small-mixed", "ul-harq-edge",
             "multicell-openloop"]
OPEN_LOOP = {"multicell-openloop"}
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=100)
    return proc.returncode, proc.stdout


def check_names(label, stdout, report):
    for line in stdout.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split()
        check(len(parts) == 3, "%s: metric line %r is not `name value unit`"
              % (label, line))
        if parts:
            check(NAME.fullmatch(parts[0]) is not None,
                  "%s: bad metric name %r" % (label, parts[0]))
    for name, m in report["metrics"].items():
        check(NAME.fullmatch(name) is not None,
              "%s: bad metric name %r" % (label, name))
        check(isinstance(m["value"], (int, float)),
              "%s: %s has no numeric value" % (label, name))


def covered(intervals):
    """Total length of the union of [begin, end) intervals, and whether
    any two of them overlap."""
    total, overlap, last_end = 0, False, None
    for b, e in sorted(intervals):
        if last_end is not None and b < last_end:
            overlap = True
            if e <= last_end:
                continue
            b = last_end
        total += e - b
        last_end = e if last_end is None else max(last_end, e)
    return total, overlap


def check_trace(label, path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    check(len(events) > 0, "%s: empty trace" % label)
    spans = [e["args"] for e in events]
    children = {}
    for i, s in enumerate(spans):
        check(s["id"] == i, "%s: span ids out of order" % label)
        check(s["begin_ns"] <= s["end_ns"], "%s: span %d ends before it "
              "begins" % (label, i))
        p = s["parent"]
        if p >= 0:
            children.setdefault(p, []).append(i)
            q = spans[p]
            check(q["begin_ns"] <= s["begin_ns"] and s["end_ns"] <= q["end_ns"],
                  "%s: span %d (%s) is not inside its parent %d (%s)"
                  % (label, i, events[i]["name"], p, events[p]["name"]))
            check(q["tti"] == s["tti"], "%s: span %d crosses TTIs" % (label, i))
    self_sum, root_dur, layer_self = {}, {}, {}
    for i, s in enumerate(spans):
        kids = [(spans[c]["begin_ns"], spans[c]["end_ns"])
                for c in children.get(i, [])]
        cover, overlap = covered(kids)
        check(not overlap, "%s: children of span %d overlap" % (label, i))
        self_ns = s["end_ns"] - s["begin_ns"] - cover
        check(self_ns >= 0, "%s: span %d has negative self time" % (label, i))
        self_sum[s["tti"]] = self_sum.get(s["tti"], 0) + self_ns
        name = events[i]["name"]
        layer_self[name] = layer_self.get(name, 0) + self_ns
        if s["parent"] < 0:
            check(s["tti"] not in root_dur, "%s: TTI %d has two roots"
                  % (label, s["tti"]))
            root_dur[s["tti"]] = s["end_ns"] - s["begin_ns"]
    for tti, total in self_sum.items():
        check(total == root_dur.get(tti), "%s: TTI %d self times sum to %s "
              "ns, root span lasts %s ns" % (label, tti, total,
                                           root_dur.get(tti)))
    return layer_self, len(root_dur)


def check_layer_metrics(label, report, layer_self, ttis):
    """Every per-layer `<layer>_us` metric is the mean self time per TTI
    of that layer's spans in the trace."""
    for name, ns in layer_self.items():
        metric = report["metrics"].get(name + "_us")
        if metric is None:
            continue  # the tti and harq_round structure spans
        want = ns / ttis / 1e3
        check(abs(metric["value"] - want) <= 1e-6 * abs(want) + 1e-3,
              "%s: %s_us is %s, the trace gives %s" % (label, name,
                                                      metric["value"], want))


def selftest(binary, out):
    for w in WORKLOADS:
        check(NAME.fullmatch(w) is not None, "bad workload name %r" % w)
        for traced in (False, True):
            label = "%s%s" % (w, " traced" if traced else "")
            report_path = os.path.join(out, "%s-%d.json" % (w, traced))
            trace_path = os.path.join(out, w + ".trace.json")
            args = ["--workload", w, "--seed", "7", "--json", report_path]
            if w not in OPEN_LOOP:
                args += ["--ttis", "20"]
            elif traced:
                # A traced run spends half its seconds untraced; the
                # replay stops after 20 TTIs.
                args += ["--seconds", "2", "--ttis", "20"]
            else:
                args += ["--seconds", "1"]
            if traced:
                args += ["--trace", trace_path]
            code, stdout = run(binary, args)
            check(code == 0, "%s: exit status %d" % (label, code))
            if code != 0:
                print(stdout)
                continue
            with open(report_path) as f:
                report = json.load(f)
            check(report["correct"] is True, "%s: outputs not correct" % label)
            check(report["attempted"] >= 1, "%s: nothing attempted" % label)
            check_names(label, stdout, report)
            if traced:
                # The replay ran exactly 20 TTIs, all of them in the file.
                layer_self, ttis = check_trace(label, trace_path)
                check(ttis == 20, "%s: trace holds %d TTIs" % (label, ttis))
                check_layer_metrics(label, report, layer_self, ttis)
            print("ok: %s" % label, flush=True)


def digest(binary, w, seed):
    code, stdout = run(binary, ["--workload", w, "--seed", str(seed),
                                "--dry-run"])
    check(code == 0, "%s: --dry-run exit status %d" % (w, code))
    m = re.search(r"input_digest: ([0-9a-f]{16})", stdout)
    check(m is not None, "%s: no input digest printed" % w)
    return m.group(1) if m else None


def seedtest(binary):
    for w in WORKLOADS:
        a, b, c = digest(binary, w, 11), digest(binary, w, 11), \
            digest(binary, w, 12)
        check(a == b, "%s: seed 11 gave digests %s and %s" % (w, a, b))
        check(a != c, "%s: seeds 11 and 12 gave the same digest %s" % (w, a))
        print("ok: %s digests %s / %s" % (w, a, c), flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed-only", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.seed_only:
        seedtest(args.bin)
    else:
        selftest(args.bin, args.out)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
