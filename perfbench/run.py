#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator library and the
perfbench binary from source into $CARGO_TARGET_DIR (default
.bench_build), runs one workload, and prints as its last stdout line
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
ones with --trace 1. Earlier lines give the host context, the tail
percentile with its sample count, and the exact work counts.

A run is a fixed number of ops: --seconds times the workload's nominal
op rate, so the same arguments always do the same work.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import estimators  # noqa: E402

# Nominal ops per second; sets the op count.
OPS_PER_S = {"sim-cold": 10, "regen-warm": 24, "serve-warm": 7000}
# Traced runs do about three times the work per op (replays), so they
# run a third of the ops; the binary adds traced ops of the other
# workloads so every per-layer metric is reported.
TRACE_OPS_SHARE = 3
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the perfbench binary; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    # Compilers write temporaries to TMPDIR; keep them in the checkout.
    tmpdir = build_dir / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmpdir.resolve()))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def read_steal():
    """Cumulative steal jiffies over all CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def host_context(steal_before, steal_after):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "steal_jiffies": (None if steal_before is None or steal_after is None
                          else steal_after - steal_before),
    }


def run_binary(binary, args, ops, tmp):
    out = tmp / "result.json"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--ops", str(ops),
           "--trace", "1" if args.trace else "0",
           "--tmp", str(tmp / "work"), "--out", str(out)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCD_")}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {CHILD_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"perfbench exited with {done.returncode}")
    with open(out) as f:
        return json.load(f)


def end_to_end(result):
    op_ms = result["op_ms"]
    pct, tail_ms, beyond = estimators.tail(op_ms)
    print(f"tail: p{pct:g} of n={len(op_ms)} ops, {beyond} beyond it")
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "p50_ms": statistics.median(op_ms),
        "tail_ms": tail_ms,
        "ops_s": len(op_ms) / result["wall_s"],
        "rss_peak_mb": result["rss_peak_kb"] / 1024.0,
    }


def per_layer(result):
    metrics = dict(result["layers"])
    traced = [ms for ms, t in zip(result["op_ms"], result["op_traced"]) if t]
    plain = [ms for ms, t in zip(result["op_ms"], result["op_traced"])
             if not t]
    base = statistics.median(plain)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) - base) / base)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=OPS_PER_S)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    ops = math.ceil(args.seconds * OPS_PER_S[args.workload])
    if args.trace:
        ops = max(ops // TRACE_OPS_SHARE, 40)
    scratch = Path(".perfbench-tmp")
    tmp = scratch / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    steal_before = read_steal()
    try:
        result = run_binary(binary, args, ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print("host: " + json.dumps(host_context(steal_before, read_steal())))
    print("exact: " + json.dumps(result["exact"], sort_keys=True))

    values = per_layer(result) if args.trace else end_to_end(result)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("missing metrics: " + ", ".join(missing), file=sys.stderr)
    attempted, failed = estimators.accounting(result["op_ok"])
    print(json.dumps({
        "correct": failed == 0 and not missing and
                   result["secondary_failed"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]),
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
