"""Correctness checks on one job's outputs, run after timing.

Each check reads the files a job left in its output directory and compares
them with an oracle from oracles.py or with a property the method must
have.  ``run_checks`` returns (name, passed, detail) triples.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

import oracles


class Outputs:
    def __init__(self, out: str):
        self.out = out
        with open(os.path.join(out, "meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)

    def array(self, name: str) -> np.ndarray:
        return np.load(os.path.join(self.out, f"{name}.npy"))

    def stats(self) -> list[dict[str, float]]:
        with open(os.path.join(self.out, "stats.csv"), encoding="utf-8") as fh:
            return [{k: float(v) if v else math.nan for k, v in row.items()}
                    for row in csv.DictReader(fh)]

    def text(self, name: str) -> str:
        with open(os.path.join(self.out, name), encoding="utf-8") as fh:
            return fh.read()


def payoff_within(rows, expected, k: float = 4.0):
    """Every checkpoint's mean average payoff within k standard errors of
    the expected value at that checkpoint (a number or a per-row list)."""
    worst = 0.0
    for idx, row in enumerate(rows):
        target = expected[idx] if isinstance(expected, list) else expected
        z = abs(row["mean_avg_payoff"] - target) / max(row["payoff_se"], 1e-300)
        worst = max(worst, z)
    return worst <= k, f"largest deviation {worst:.2f} SE (limit {k:g})"


def memory_bounds(rows, replications: int, epsilon: float):
    """Exceed rate at n within n^-2 plus 4 binomial sd; the uniform exceed
    rate within epsilon plus 4 standard errors."""
    checks = []
    slack = []
    for row in rows:
        bound = row["n"] ** -2.0
        allow = bound + 4.0 * math.sqrt(bound * (1.0 - bound) / replications)
        slack.append(allow - row["exceed_rate"])
    checks.append(("exceed_rate <= n^-2 + 4 sd", min(slack) >= 0.0,
                   f"smallest slack {min(slack):.3e}"))
    rate = rows[-1]["uniform_exceed_rate"]
    se = math.sqrt(rate * (1.0 - rate) / replications)
    checks.append(("uniform_exceed_rate <= eps + 4 SE",
                   rate <= epsilon + 4.0 * se,
                   f"rate {rate:.4g} vs {epsilon:g} + 4*{se:.3g}"))
    return checks


def check_mc_uniform(o: Outputs):
    # Against the uniform column every stage pays 1/2 in expectation: A pays
    # 0 or 1 forever after, C pays 1 or 0, each with probability 1/2.
    rows = o.stats()
    ok, detail = payoff_within(rows, 0.5)
    return [("mean payoff = 1/2 within 4 SE", ok, detail)] + memory_bounds(
        rows, o.meta["replications"], o.meta["epsilon"])


def check_mc_best_response(o: Outputs):
    ok, found = oracles.check_best_response(
        o.array("game.payoff"), o.array("game.transition"),
        o.array("table.action"), o.array("table.kernel"),
        o.array("best_response.policy"), o.meta["value"],
        int(o.array("game.initial_state")))
    detail = ", ".join(f"{k} {v:.12f}" for k, v in found.items())
    out = [("best response = forward evaluation, <= constant columns", ok,
            f"claimed {o.meta['value']:.12f}; {detail}")]
    return out + memory_bounds(o.stats(), o.meta["replications"],
                               o.meta["epsilon"])


def check_impossibility(o: Outputs):
    doc = json.loads(o.text("adversary.json"))
    exact = oracles.mixture_payoff_vs_always_continue(doc)
    report = o.text("impossibility_report.txt")
    sim = re.search(r"simulated mixture average payoff: (\S+) \(se (\S+),",
                    report)
    claimed = re.search(r"exact mixture average payoff at horizon: (\S+)",
                        report)
    mean, se = float(sim.group(1)), float(sim.group(2))
    delta = o.meta["delta"]
    return [
        ("exit code 0", o.meta["exit_code"] == 0, f"{o.meta['exit_code']}"),
        ("exact mixture payoff < 3 delta", exact < 3.0 * delta,
         f"{exact:.6g} from {len(doc['components'])} components"),
        ("reported exact payoff = oracle", math.isclose(
            float(claimed.group(1)), exact, rel_tol=1e-5),
         f"{claimed.group(1)} vs {exact:.6g}"),
        ("simulated mean within 4 SE of exact", abs(mean - exact) <= 4.0 * se,
         f"{mean:.6g} +- {se:.3g} vs {exact:.6g}"),
    ]


def _certify(o: Outputs, game: str, prefix: str, tol: float, skip=()):
    payoff, transition = o.array(f"{game}.payoff"), o.array(f"{game}.transition")
    lam, values = o.array(f"{prefix}.lam"), o.array(f"{prefix}.values")
    s1, s2 = o.array(f"{prefix}.strategy1"), o.array(f"{prefix}.strategy2")
    bad, worst, gap, checked = [], 0.0, 0.0, 0
    for k in range(len(lam)):
        if k in skip:
            continue
        ok, out, width = oracles.certify_level(payoff, transition, lam[k],
                                               values[k], s1[k], s2[k], tol)
        checked += 1
        worst, gap = max(worst, out), max(gap, width)
        if not ok:
            bad.append(k)
    return (f"{prefix} levels in best-reply bracket", not bad,
            f"{checked} levels, worst excess {worst:.3g}, max U-L {gap:.3g}"
            + (f", failing {bad}" if bad else ""))


def check_solve_cache(o: Outputs):
    meta = o.meta
    tol = meta["tol"]
    deep_residual = o.array("deep.residual")
    uncertified = {k for k, r in enumerate(deep_residual) if r > tol}
    out = [_certify(o, "game", "levels", tol),
           _certify(o, "deep_game", "deep", tol, skip=uncertified)]

    # The bracket above is only as tight as the program's own strategies, so
    # a value 10 tol off with strategies to match can pass it.  The
    # generated game's levels also go against an independent bracket from
    # strategy iteration, and the Big Match's against its value 1/2.
    payoff, transition = o.array("game.payoff"), o.array("game.transition")
    worst, width = 0.0, 0.0
    for lam, values in zip(o.array("levels.lam"), o.array("levels.values")):
        low, high = oracles.value_bracket(payoff, transition, lam)
        width = max(width, float((high - low).max()), float((low - high).max()))
        worst = max(worst, float(np.abs(values - np.clip(values, low, high)).max()))
    out.append(("levels within tol of the strategy-iteration value",
                worst <= tol and width <= 1e-11,
                f"largest distance {worst:.3g}, bracket width {width:.3g}"))
    deep_live = [float(v[0]) for k, v in enumerate(o.array("deep.values"))
                 if k not in uncertified]   # state 0 is the Big Match's live state
    off = max(abs(v - 0.5) for v in deep_live)
    out.append(("deep levels at the Big Match value 1/2", off <= tol,
                f"{len(deep_live)} levels, largest distance {off:.3g}"))

    # Level 0 of the Big Match against its closed form (C-vs-0 payoff a = 1).
    lam0 = float(o.array("deep.lam")[0])
    v, x_absorb = oracles.big_match_closed_form(1.0, lam0)
    got_v = float(o.array("deep.values")[0][0])
    got_x = float(o.array("deep.strategy1")[0][0][0])
    out.append(("Big Match level 0 closed form",
                abs(got_v - v) <= tol and abs(got_x / x_absorb - 1.0) <= 1e-4,
                f"v {got_v!r} vs {v!r}, x(A) {got_x:.9g} vs {x_absorb:.9g}"))

    # step_log and rate_variation recomputed from their formulas.
    eps, growth, base = meta["epsilon"], meta["growth"], meta["base"]
    positions = {k: base * growth ** k for k in range(meta["depth"] + 2)}
    rate = {k: 1.0 / (s * math.log(s) ** 2) for k, s in positions.items()}
    step = meta["constants"]["step_log"]
    want_step = [2.0 ** -5 - math.log(growth) * math.log(growth * positions[k])
                 / math.log(positions[k]) for k in step["levels"]]
    rv = meta["constants"]["rate_variation"]
    neighbours = [(k, k2) for k in range(meta["depth"] + 1)
                  for k2 in ([k + 1] if k == 0 else [k - 1, k + 1])
                  if k2 <= meta["depth"]]
    want_rv = [eps * rate[k] / 8.0 - abs(rate[k] - rate[k2])
               for k, k2 in neighbours]
    for name, got, want in (("step_log", step["margins"], want_step),
                            ("rate_variation", rv["margins"], want_rv)):
        same = len(got) == len(want) and all(
            math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
            for a, b in zip(got, want))
        out.append((f"{name} margins recomputed", same,
                    f"{len(got)} margins, first {got[0]:.6g} vs {want[0]:.6g}"))

    # The level-0 stationary strategy against the uniform column: the exact
    # expected average payoff at each checkpoint, by forward recursion.
    rows = o.stats()
    nz, ni, nj = payoff.shape
    x = o.array("levels.strategy1")[0]
    stage = oracles.forward_stage_payoffs(
        payoff, transition, x[:, None, :], np.ones((1, ni, nj, nz, 1)),
        np.full((1, nz, 1, nj), 1.0 / nj), meta["horizon"],
        int(o.array("game.initial_state")))
    running = np.cumsum(stage)
    expected = [float(running[int(r["n"]) - 1] / r["n"]) for r in rows]
    ok, detail = payoff_within(rows, expected)
    out.append(("level-0 strategy vs uniform: exact mean within 4 SE", ok,
                detail))
    return out


CHECKS = {
    "mc-uniform": check_mc_uniform,
    "mc-best-response": check_mc_best_response,
    "impossibility": check_impossibility,
    "solve-cache": check_solve_cache,
}


def run_checks(workload: str, out: str):
    return CHECKS[workload](Outputs(out))
