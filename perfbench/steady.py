"""Steadiness check: run the workload set twice and compare the two sets.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

Each set runs every workload --runs times with --trace 0, each time with
another seed (set s, run r uses seed 1 + s * runs + r).  For every workload
and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, against the
metric's bound in BENCHMARK.json; spreads are compared with the bound, and
with a third of it as the target.  With two sets it also checks that the
second median is not worse than the first by more than the bound, and that
the share of failed operations is the same.  Every run's counts of
operations attempted and failed are printed.  Raw results go to
perfbench/out/steady.json.  Exits 1 if any comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    raw = {}
    for s in range(args.sets):
        for name in names:
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                res = run_once(spec, name, seed)
                raw.setdefault(name, [[] for _ in range(args.sets)])[s].append(res)
                print(f"set {s + 1} {name} seed {seed}: correct {res['correct']}, "
                      f"attempted {res['attempted']}, failed {res['failed']}, "
                      + ", ".join(f"{k} {v['value']:.6g}"
                                  for k, v in res["metrics"].items()),
                      flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)

    ok = True
    for name in names:
        sets = raw[name]
        runs = [res for one in sets for res in one]
        if not all(res["correct"] for res in runs):
            print(f"{name}: FAIL, a run reported incorrect outputs")
            ok = False
        shares = [{Fraction(res["failed"], res["attempted"]) for res in one}
                  for one in sets]
        same_share = len(set.union(*shares)) == 1
        ok &= same_share
        print(f"{name}: failed share {sorted(set.union(*shares))} "
              f"{'same in every run' if same_share else 'DIFFERS'}")
        for m in metrics:
            key, bound = m["name"], m["bound"]
            medians = []
            for s, one in enumerate(sets):
                med, q1, q3, spread = summary([res["metrics"][key]["value"]
                                               for res in one])
                medians.append(med)
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                if key != "setup_s" and spread > bound:
                    ok = False
                print(f"  set {s + 1} {key}: median {med:.6g} "
                      f"[{q1:.6g}, {q3:.6g}] spread {spread:.3f} "
                      f"(bound {bound}): {verdict}")
            if len(medians) == 2:
                first, second = medians
                worse = ((second - first) / first if m["better"] == "lower"
                         else (first - second) / first)
                agree = worse <= bound
                ok &= agree
                print(f"  {key}: second set {'worse' if worse > 0 else 'better'}"
                      f" by {abs(worse):.3f} (bound {bound}): "
                      f"{'agree' if agree else 'DISAGREE'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
