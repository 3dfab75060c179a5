"""Benchmark entry point: time one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's job, each in a fresh process
(perfbench/job.py), until S seconds have passed and at least three rounds
are done.  With --trace 0 it reports the end-to-end metrics as medians over
the rounds.  With --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics (medians over the traced rounds) and
trace.overhead_s, the traced minus the untraced median wall time.  After
timing, the outputs of the first round are checked (checks.py) and every
round's outputs must be byte-identical.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
JOB_TIMEOUT_S = 120


class JobFailed(RuntimeError):
    pass


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One worker: keep numpy's BLAS from starting threads of its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload: str, seed: int, out: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload",
           workload, "--seed", str(seed), "--out", out]
    if traced:
        cmd.append("--trace")
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=job_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise JobFailed(f"{workload} job exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["out"] = out
    result["traced"] = traced
    result["setup_s"] = result["t_ready"] - t_spawn
    result["wall_s"] = result["t_done"] - result["t_ready"]
    return result


def load_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def end_to_end(rounds) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(r["wall_s"] for r in rounds),
        "setup_s": med(r["setup_s"] for r in rounds),
        "rep_stages_per_s": med(r["rep_stages"] / r["monte_carlo_s"]
                                for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stochgame", "__init__.py")):
        print(f"error: no stochgame package under {ROOT}/src", file=sys.stderr)
        return 2
    units = load_units()

    out_root = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    rounds = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            out = os.path.join(out_root, f"r{len(rounds):02d}")
            r = run_round(args.workload, args.seed, out, traced)
            rounds.append(r)
            print(f"round {len(rounds)}{' traced' if traced else ''}: "
                  f"setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
                  f"peak {r['peak_rss_mb']:.1f} MB, "
                  f"{len(r['ops'])} ops, {len(r['failed'])} failed",
                  flush=True)
            enough = len(rounds) >= MIN_ROUNDS + (1 if args.trace else 0)
            if (time.monotonic() - start >= args.seconds and enough
                    and len(rounds) % (2 if args.trace else 1) == 0):
                break
    except (JobFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = [("outputs identical in every round",
                len({r["digest"] for r in rounds}) == 1,
                f"{len(rounds)} rounds")]
    try:
        results += checks.run_checks(args.workload, rounds[0]["out"])
    except Exception:  # a check that cannot read the outputs fails them
        results.append(("checks ran", False, traceback.format_exc()))
    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    print(f"operations: attempted {attempted}, failed {failed}"
          + (f" ({', '.join(rounds[0]['failed'])} in every round)"
             if failed else ""))
    values = per_layer(rounds) if args.trace else end_to_end(rounds)
    print(json.dumps({
        "correct": all(ok for _, ok, _ in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
