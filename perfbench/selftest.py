#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks, through run.py:
  - untraced: every end-to-end metric that applies is present with its
    unit, the others are reported not applicable, error_rate is 0;
  - traced: every per-layer metric is present with its unit, error_rate
    is 0, trace.coverage >= 0.9, and the span file is a well-formed tree
    (each child inside its parent, self time >= 0), re-derived here from
    the file alone;
  - negative: with one expected value corrupted on the benchmark side,
    error_rate rises above 0 and the command exits non-zero.
Exits 1 on the first group of failures, listing them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (build_dir)

CATALOG = json.loads((HERE / "metrics.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
    return ok


def run_workload(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    last = json.loads(p.stdout.strip().splitlines()[-1]) if p.stdout.strip() else None
    tag = f"{workload}.seed7.trace{trace}"
    full = json.loads((run.build_dir() / "results" / f"{tag}.json").read_text())
    return p.returncode, last, full


def check_units(workload, full, metrics):
    for m in metrics:
        got = full["metrics"].get(m["name"])
        if expect(got is not None, f"{workload}: {m['name']} missing"):
            expect(got["unit"] == m["unit"],
                   f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")


def check_span_file(workload, path):
    """Re-derive well-formedness and self times from the file alone."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    child_time = {}
    for s in spans.values():
        if s["t1_ns"] < s["t0_ns"]:
            return expect(False, f"{workload}: span {s['id']} ends before start")
        if s["parent"] is None:
            continue
        p = spans.get(s["parent"])
        if not expect(p is not None, f"{workload}: span {s['id']} lost parent"):
            return False
        if not expect(p["t0_ns"] <= s["t0_ns"] and s["t1_ns"] <= p["t1_ns"],
                      f"{workload}: span {s['id']} outside parent {p['id']}"):
            return False
        child_time[p["id"]] = child_time.get(p["id"], 0) + s["t1_ns"] - s["t0_ns"]
    for s in spans.values():
        self_ns = s["t1_ns"] - s["t0_ns"] - child_time.get(s["id"], 0)
        if not expect(self_ns >= 0 and self_ns == s["self_ns"],
                      f"{workload}: span {s['id']} self time {self_ns} vs {s['self_ns']}"):
            return False
    return expect(len(spans) > 0, f"{workload}: empty span file")


def main():
    bench_e2e = {m["name"] for m in BENCH["end_to_end"]}
    for w in CATALOG["workloads"]:
        name = w["name"]
        # Untraced: end-to-end metrics and output checks.
        rc, last, full = run_workload(name, 0)
        expect(rc == 0 and last and last["correct"], f"{name}: untraced run failed")
        applies = [m for m in CATALOG["end_to_end"] if name in m["applies_to"]]
        check_units(name, full, applies)
        na = {m["name"] for m in CATALOG["end_to_end"]} - {m["name"] for m in applies}
        expect(set(full["not_applicable"]) == na,
               f"{name}: not_applicable {full['not_applicable']} != {sorted(na)}")
        expect(full["metrics"].get("error_rate", {}).get("value") == 0,
               f"{name}: error_rate is not 0")
        expect(last is not None and set(last["metrics"]) == bench_e2e,
               f"{name}: JSON line metrics differ from BENCHMARK.json")

        # Traced: per-layer metrics, coverage, span tree.
        rc, last, full = run_workload(name, 1)
        expect(rc == 0 and last and last["correct"], f"{name}: traced run failed")
        check_units(name, full, CATALOG["per_layer"])
        expect(full["metrics"].get("error_rate", {}).get("value") == 0,
               f"{name}: traced error_rate is not 0")
        cov = full["metrics"].get("trace.coverage", {}).get("value", 0)
        expect(cov >= 0.9, f"{name}: trace.coverage {cov:.3f} < 0.9")
        span_file = full["info"].get("span_file")
        if expect(span_file and os.path.exists(span_file), f"{name}: no span file"):
            check_span_file(name, span_file)

        # Negative: a corrupted expectation must be caught.
        rc, last, full = run_workload(name, 0, "--corrupt-expected")
        expect(rc != 0, f"{name}: corrupted expectation still exits 0")
        expect(full["metrics"].get("error_rate", {}).get("value", 0) > 0,
               f"{name}: corrupted expectation left error_rate at 0")
        expect(last is not None and not last["correct"],
               f"{name}: corrupted expectation still reads correct")
        print(f"{name}: {'ok' if not problems else 'FAILED'}", flush=True)
        if problems:
            break
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
