#!/usr/bin/env python3
"""Run one workload of the HLS/MPI end-to-end benchmark.

    python3 perfbench/run.py --workload eos_read --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
the workload, prints every metric by name with its unit, the host/build
stamp and every output check, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Exits 1 when a check fails, the build
fails or a metric is missing.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eos_read", "table_update", "cluster_coll", "ckpt_spill")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure once, then build incrementally; serialized by a lock."""
    bdir = out / "build"
    bdir.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(out / "build.lock", "w") as lock, open(log, "w") as logf:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode:
                logf.flush()
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    # Write the build's output back now, not while the workload runs.
    os.sync()
    return bdir / "perfbench"


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (small tables, short blocks)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="negative self-test: perturb one expected value")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    out = build_dir()
    binary = build(out)
    for sub in ("spans", "results", "work"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(out / "work")]
    if args.trace:
        cmd += ["--span-file", str(out / "spans" / f"{args.workload}.seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    res = json.loads(lines[-1])
    res["stamp"]["git_commit"] = git_commit()
    (out / "results" / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")

    for k, v in sorted(res["stamp"].items()):
        print(f"stamp {k} = {v}")
    for k, v in sorted(res["info"].items()):
        print(f"info {k} = {v}")
    for name, m in sorted(res["metrics"].items()):
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name in res["not_applicable"]:
        print(f"{name} n/a (no arm for this workload)")
    for c in res["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")

    missing = [n for n in wanted if n not in res["metrics"]]
    for n in missing:
        print(f"check metric_present {n}: FAILED", file=sys.stderr)
    attempted = int(res["attempted"]) + len(wanted)
    failed = int(res["failed"]) + len(missing)
    metrics = {n: res["metrics"][n] for n in wanted if n in res["metrics"]}
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
