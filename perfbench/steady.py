#!/usr/bin/env python3
"""Steadiness check: run one build of the benchmark repeatedly and
report each end-to-end metric's median and quartile spread.

    python3 perfbench/steady.py --workload sim-cold --seeds 1-10 \
        [--sets 2] [--seconds S]

Run from the repository root. Each set runs every seed once, in order.
Per workload and metric it prints the median, the quartiles, and the
spread (inter-quartile distance over the median), marked against the
metric's bound in BENCHMARK.json: `ok` below a third of the bound,
`wide` below the bound, `FAIL` above it. With --sets 2 it also compares
the second set's median with the first, which may not be worse by more
than the bound.

It checks outputs too: every run must be correct with zero failed ops,
and exact work counts must repeat bit-for-bit: with --sets 2 every
seed's counts in set 2 must equal its counts in set 1; with one set the
first seed is run once more at the end. Exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import estimators  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, None, None
    tagged = {line.split(": ", 1)[0]: line.split(": ", 1)[1]
              for line in lines[:-1] if ": " in line}
    return json.loads(lines[-1]), tagged.get("exact"), tagged.get("host")


def judge(bound, spread):
    if spread < bound / 3:
        return "ok"
    return "wide" if spread <= bound else "FAIL"


def worse_by(better, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bad = False

    for workload in args.workload:
        sets = []
        exacts = [{} for _ in range(args.sets)]
        for s in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in seeds:
                result, exact, host = run_once(workload, seed, seconds)
                if result is None or not result["correct"] or \
                        result["failed"]:
                    print(f"{workload} seed {seed}: run failed or "
                          f"incorrect: {result}")
                    bad = True
                    continue
                exacts[s][seed] = exact
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {s + 1} seed {seed}: " + " ".join(
                    f"{n}={v[-1]:.5g}" for n, v in values.items()) +
                    f" | host {host}")
            sets.append(values)

        if args.sets == 1:
            _, repeat, _ = run_once(workload, seeds[0], seconds)
            exacts.append({seeds[0]: repeat})
        for seed in seeds:
            if seed not in exacts[1]:
                continue
            same = exacts[1][seed] is not None and \
                exacts[1][seed] == exacts[0].get(seed)
            print(f"{workload} exact counts repeat for seed {seed}: "
                  f"{'yes' if same else 'NO'}")
            bad = bad or not same

        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            for s, values in enumerate(sets):
                v = values[name]
                if len(v) < 2:
                    continue
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = estimators.spread(v)
                verdict = judge(bound, spread)
                bad = bad or verdict == "FAIL"
                print(f"{workload:10s} {name:12s} set {s + 1}: median "
                      f"{statistics.median(v):.5g} q1 {q1:.5g} q3 {q3:.5g} "
                      f"spread {spread:.3f} bound {bound} {verdict}")
            if len(sets) == 2 and sets[0][name] and sets[1][name]:
                drift = worse_by(m["better"],
                                 statistics.median(sets[0][name]),
                                 statistics.median(sets[1][name]))
                verdict = "ok" if drift <= bound else "FAIL"
                bad = bad or verdict == "FAIL"
                print(f"{workload:10s} {name:12s} second median worse by "
                      f"{drift:+.3f} (bound {bound}) {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
