#!/usr/bin/env python3
"""Diff two benchmark JSON runs and flag regressions.

Usage: compare.py BASELINE.json CANDIDATE.json [--threshold PCT]

Accepts google-benchmark's --benchmark_format=json output
(bench_micro_sync) and bench_fig3_matmul's --json output. Benchmarks are
matched by "name"; for each name present in both runs the script prints
the relative change of its metric:

  - "real_time" (google-benchmark): lower is better;
  - "perf" (fig3, flops/cycle): higher is better.

A change worse than --threshold (default 10%) is flagged as a REGRESSION
and makes the script exit 1, so it can gate a CI job:

  ./build-bench/bench/bench_micro_sync --benchmark_format=json > new.json
  python3 bench/compare.py BENCH_micro_sync.json new.json

A baseline benchmark missing from the candidate is an error too (a
renamed or dropped benchmark silently passing is how gates rot);
--allow-missing downgrades it to a note. A file that does not look like
a benchmark run at all (no "benchmarks" array, or entries without the
expected metric fields) exits 2.

A run from an unoptimized build exits 2 as well: timings from -O0 code
gate nothing. The binaries stamp "hlsmpc_build_type" into the run
context (see bench/gbench_main.cpp — the stock "library_build_type" key
reports how the *benchmark library* was compiled, which on hosts with a
debug-built system package says "debug" for every run); when the stamp
is absent, library_build_type is the fallback, so old baselines recorded
before the stamp existed are rejected until regenerated. Runs without
any "context" object (fig3's counter format) skip the check.

Observability counters (bench_micro_sync emits them as user counters,
fig3 as a "counters" object) are compared when a benchmark carries them
in both runs; drift is reported but only fails with --check-counters.

The first line printed gives both runs' context.num_cpus, with a note
when they differ: a baseline recorded on a host with another CPU count
is not a like-for-like reference for absolute timings. The note never
changes the exit code.
"""

import argparse
import json
import sys


class SchemaError(Exception):
    pass


# google-benchmark's own per-run fields; every other numeric field is a
# user counter (state.counters[...]).
_GBENCH_FIELDS = {
    "name", "run_name", "run_type", "family_index",
    "per_family_instance_index", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "big_o", "rms",
    "bytes_per_second", "items_per_second",
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(
            doc.get("benchmarks"), list):
        raise SchemaError(f"{path}: no \"benchmarks\" array — not a "
                          "benchmark run")
    ctx = doc.get("context")
    num_cpus = None
    if isinstance(ctx, dict):
        num_cpus = ctx.get("num_cpus")
        build = ctx.get("hlsmpc_build_type", ctx.get("library_build_type"))
        if build == "debug":
            raise SchemaError(
                f"{path}: context reports a debug build — unoptimized "
                "timings cannot serve as a baseline or candidate "
                "(rebuild with the bench preset)")
    metrics = {}
    counters = {}
    for b in doc["benchmarks"]:
        if not isinstance(b, dict):
            raise SchemaError(f"{path}: non-object entry in \"benchmarks\"")
        name = b.get("name")
        if name is None or b.get("run_type") == "aggregate":
            continue
        if "real_time" in b:
            metrics[name] = ("real_time", float(b["real_time"]), False)
            ctr = {k: float(v) for k, v in b.items()
                   if k not in _GBENCH_FIELDS
                   and isinstance(v, (int, float))}
        elif "perf" in b:
            metrics[name] = ("perf", float(b["perf"]), True)
            ctr = {k: float(v) for k, v in b.get("counters", {}).items()
                   if isinstance(v, (int, float))}
        else:
            raise SchemaError(f"{path}: benchmark \"{name}\" has neither "
                              "\"real_time\" nor \"perf\"")
        if ctr:
            counters[name] = ctr
    if not metrics:
        raise SchemaError(f"{path}: \"benchmarks\" array holds no "
                          "comparable entries")
    return metrics, counters, num_cpus


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="baseline benchmarks absent from the candidate "
                         "are a note, not an error")
    ap.add_argument("--check-counters", action="store_true",
                    help="counter drift between runs is an error")
    args = ap.parse_args()

    try:
        base, base_ctr, base_cpus = load(args.baseline)
        cand, cand_ctr, cand_cpus = load(args.candidate)
    except (OSError, json.JSONDecodeError, SchemaError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    common = [n for n in base if n in cand]
    if not common:
        print("compare.py: no common benchmark names between the two runs",
              file=sys.stderr)
        return 2

    cpus = (f"host cpus: baseline {base_cpus or 'unknown'}, "
            f"candidate {cand_cpus or 'unknown'}")
    if base_cpus and cand_cpus and base_cpus != cand_cpus:
        cpus += ("  (differ: absolute timings are not like-for-like; "
                 "re-baseline on this host or trust within-run ratios)")
    print(cpus)

    failures = []
    regressions = []
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'change':>8}")
    for name in common:
        metric, old, higher_better = base[name]
        cand_metric, new, _ = cand[name]
        if cand_metric != metric:
            print(f"{name:<{width}}  metric mismatch "
                  f"({metric} vs {cand_metric})")
            failures.append(f"{name}: metric changed {metric} -> "
                            f"{cand_metric}")
            continue
        if old == 0:
            print(f"{name:<{width}}  baseline is zero, skipped")
            continue
        # Normalize so positive pct always means "got worse".
        pct = ((old - new) / old if higher_better else (new - old) / old) * 100
        flag = ""
        if pct > args.threshold:
            flag = "  REGRESSION"
            regressions.append((name, pct))
        elif pct < -args.threshold:
            flag = "  improved"
        print(f"{name:<{width}}  {old:>12.3f}  {new:>12.3f}  {pct:>+7.1f}%"
              f"{flag}")

    drifted = []
    for name in common:
        shared = sorted(set(base_ctr.get(name, {}))
                        & set(cand_ctr.get(name, {})))
        for key in shared:
            old, new = base_ctr[name][key], cand_ctr[name][key]
            if old != new:
                drifted.append(f"{name}.{key}: {old:g} -> {new:g}")
    if drifted:
        print(f"\ncounter drift ({len(drifted)}):")
        for d in drifted:
            print(f"  {d}")
        if args.check_counters:
            failures.extend(drifted)

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        if args.allow_missing:
            print(f"only in baseline (allowed): {', '.join(only_base)}")
        else:
            print(f"MISSING from candidate: {', '.join(only_base)}",
                  file=sys.stderr)
            failures.extend(f"{n}: missing from candidate"
                            for n in only_base)
    if only_cand:
        print(f"only in candidate: {', '.join(only_cand)}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) worse than "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, pct in regressions:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
    if failures:
        print(f"{len(failures)} other failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
    if regressions or failures:
        return 1
    print(f"\nno regressions worse than {args.threshold:.0f}% "
          f"({len(common)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
