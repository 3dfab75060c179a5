"""Workload sizes and the game generator, shared by the job and the checks.

Nothing here imports ``stochgame``.  Sizes are chosen so that one job takes
about 2-7 s on a 2-core machine, which lets a 25 s run time four or more
jobs and report their median.
"""

from __future__ import annotations

import numpy as np

NAMES = ("mc-uniform", "mc-best-response", "impossibility", "solve-cache")

EPSILON = 0.2
BASE = 100.0
TOL = 1e-9

# Counter (epsilon 0.2, base 100) against the uniform column mixture.
MC_UNIFORM = {"replications": 4096, "horizon": 2000}

# Counter against the exact best response to the counter capped at 40
# levels, built at the simulated horizon.
MC_BEST_RESPONSE = {"replications": 256, "horizon": 12000, "cap": 40}

# stochgame impossibility --sigma always-c --delta 0.05 ...
IMPOSSIBILITY = {"delta": 0.05, "horizon": 2000, "replications": 1000}

# Cache fill and constants report on a generated game, then the Big Match
# cache at a deep base, then a short simulation of the level-0 strategy.
SOLVE_CACHE = {
    "base": 55.0,
    "depth": 1,
    "deep_base": 1.1e7,
    "deep_levels": 80,
    "replications": 2048,
    "horizon": 1000,
}

GAME_SEED = 1
JITTER = 0.02

GAME_STATES = ("live0", "live1", "abs0", "abs1")
GAME_ACTIONS1 = ("A", "C")
GAME_ACTIONS2 = ("0", "1")


def generated_game(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Payoff (4, 2, 2) and transition (4, 2, 2, 4) arrays of the solve-cache game.

    Two live states and two absorbing ones (abs0 pays 0, abs1 pays 1).  In a
    live state row A exits to abs0 against column 0 and to abs1 against
    column 1; row C moves to live0 with a weight per column and to live1
    otherwise.  Live stage payoffs and the C weights are drawn once from
    GAME_SEED and then moved by at most JITTER, drawn from ``seed``.  Every
    seed thus solves a different game of the same difficulty; draws over
    the whole unit interval change the sweep count by a quarter and the time
    per sweep by more, which would hide a 10 % change in the solver.
    """
    center = np.random.default_rng(GAME_SEED)
    live_payoff = center.uniform(0.0, 1.0, (2, 2, 2))
    weight = center.uniform(0.0, 1.0, (2, 2))
    rng = np.random.default_rng(seed)
    live_payoff = np.clip(live_payoff + rng.uniform(-JITTER, JITTER, (2, 2, 2)),
                          0.0, 1.0)
    weight = np.clip(weight + rng.uniform(-JITTER, JITTER, (2, 2)), 0.0, 1.0)
    payoff = np.zeros((4, 2, 2))
    transition = np.zeros((4, 2, 2, 4))
    payoff[:2] = live_payoff
    payoff[3] = 1.0
    transition[:2, 0, 0, 2] = 1.0
    transition[:2, 0, 1, 3] = 1.0
    transition[:2, 1, :, 0] = weight
    transition[:2, 1, :, 1] = 1.0 - weight
    transition[2, :, :, 2] = 1.0
    transition[3, :, :, 3] = 1.0
    return payoff, transition
