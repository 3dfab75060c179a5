"""The low-memory counter strategy for player 1.

The strategy keeps a single integer level k; the counter position is
s = base * growth^k on the geometric grid {base * growth^k}.  Each stage it
plays an optimal mixture of the lambda(s)-discounted game at the current
state, where lambda(s) = 1/(s ln^2 s), then moves the level up, down, or not
at all with probabilities driven by the deviation

    d = payoff - value_next + epsilon/2

so that the expected counter increment is exactly d (positive part at the
floor level 0).  Rising counters lower the discount rate, making the
strategy more patient exactly when it has been collecting payoff above the
discounted value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discounted import SolutionCache, limit_estimate
from .games import NormalizedGame


class FeasibilityError(ValueError):
    """Configuration cannot express the update probabilities in [0, 1]."""

    def __init__(self, message: str, minimal_base: float):
        super().__init__(message)
        self.minimal_base = minimal_base


def discount_rate(position: float) -> float:
    """Rate map 1/(s ln^2 s) from counter position to discount rate."""
    if position <= 1.0:
        raise ValueError(
            f"counter position must exceed 1, got {position}")
    log = math.log(position)
    return 1.0 / (position * log * log)


@dataclass(frozen=True)
class CounterConfig:
    """Parameters of the counter strategy: epsilon and base, the smallest
    counter position (level 0).  The rest is derived from them.

    growth is the multiplicative grid step 1 + epsilon/9; memory_slope is
    the coefficient of ln n in the memory bounds, 4/ln growth (the smallest
    admissible choice and hence the tightest bound to test); min_horizon is
    72/(epsilon^2 * rate(base)), the stage count beyond which the epsilon
    guarantees bind, and doubles as the additive allowance in the uniform
    memory bound m_n <= min_horizon + memory_slope * ln n.
    """

    epsilon: float
    base: float

    @cached_property
    def growth(self) -> float:
        return 1.0 + self.epsilon / 9.0

    @cached_property
    def memory_slope(self) -> float:
        return 4.0 / math.log(self.growth)

    @cached_property
    def min_horizon(self) -> float:
        return 72.0 / (self.epsilon ** 2 * discount_rate(self.base))

    @cached_property
    def last_level(self) -> int:
        """The deepest level whose discount rate is a positive normal float,
        found walking down from where the position alone reaches 1/tiny."""
        tiny = np.finfo(float).tiny
        k = math.floor(-math.log(tiny * self.base) / math.log(self.growth))
        while k >= 0 and not discount_rate(self.growth ** k * self.base) >= tiny:
            k -= 1
        return k

    def position_at(self, level: int) -> float:
        if level > self.last_level:
            raise ValueError(f"counter level {level} is past level "
                             f"{self.last_level}, the last with a normal rate")
        return self.growth ** level * self.base

    def rate_at(self, level: int) -> float:
        return discount_rate(self.position_at(level))


def make_config(epsilon: float, base: float) -> CounterConfig:
    """Build a validated CounterConfig.

    Rejects infeasible bases: base * (growth-1) / growth >= 9/8 is required
    so that both update probabilities stay in [0, 1] for every deviation
    (|d| <= 1 + epsilon/2 < 9/8 on normalized payoffs).
    """
    config = CounterConfig(epsilon=epsilon, base=base)
    if not 0.0 < epsilon < 0.25:
        raise ValueError(f"epsilon must lie in (0, 1/4), got {epsilon}")
    if base <= 2.0:
        raise ValueError(f"base must exceed 2, got {base}")
    # epsilon/9 instead of growth-1: the subtraction loses ~2 ulp and would
    # reject the exact minimal base.
    minimal = 9.0 * config.growth / (8.0 * (epsilon / 9.0))
    if base * (epsilon / 9.0) / config.growth < 9.0 / 8.0:
        raise FeasibilityError(
            f"base {base:g} infeasible for epsilon {epsilon:g}: requires "
            f"base * (growth-1)/growth >= 9/8, i.e. base >= {minimal:.6g}",
            minimal_base=minimal)
    rate = discount_rate(base)
    if not rate >= np.finfo(float).tiny:  # min_horizon divides by it
        raise ValueError(f"base {base:g} has discount rate {rate:g}, not a "
                         f"positive normal float")
    return config


def _unit(name: str, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    inside = (0.0 <= x) & (x <= 1.0)
    if not inside.all():
        raise ValueError(f"{name} must lie in [0, 1], got {x[~inside].flat[0]}")
    return x


def update_distribution(config: CounterConfig, level, payoff,
                        value_next) -> np.ndarray:
    """Closed-form one-step move probabilities of the counter level.

    The arguments broadcast against each other; the result has one more
    axis, of length 3, giving p_up, p_stay, p_down: the probabilities of
    the level shifts SHIFTS.  With
    d = payoff - value_next + epsilon/2 and s = config.position_at(level):
    d > 0 moves up with probability d/(s(growth-1)); d < 0 moves down with
    probability |d|*growth/(s(growth-1)) unless already at level 0; d = 0
    stays put.  The expected position increment is exactly d (its positive
    part at level 0), and the move probability is at most 2/(s(growth-1)).
    A uniform u moves up when u < p_up and down when u >= p_up + p_stay.
    """
    level = np.asarray(level, dtype=np.int64)
    if np.any(level < 0):
        raise ValueError(f"counter level must be >= 0, got {level.min()}")
    payoff = _unit("payoff", payoff)
    value_next = _unit("value_next", value_next)
    position = np.array([config.position_at(k) for k in level.ravel().tolist()]
                        ).reshape(level.shape)
    d = payoff - value_next + config.epsilon / 2.0
    denom = position * (config.growth - 1.0)
    p_up = np.where(d > 0.0, d / denom, 0.0)
    p_down = np.where((d < 0.0) & (level > 0), -d * config.growth / denom, 0.0)
    return np.stack([p_up, 1.0 - p_up - p_down, p_down], axis=-1)


SHIFTS = (1, 0, -1)  # level shifts, in the order of the move law's last axis


def level_table(config: CounterConfig, cache: SolutionCache, levels):
    """Player 1's mixtures (L, Z, I) at the given levels, as cache solves
    them, and the probabilities (L, Z, I, J, Z', 3) of the level shifts
    SHIFTS after actions (i, j) at state z lead to z': update_distribution
    at the stage payoff of the cache's game and the level's value of z'."""
    sols = [cache.at(k) for k in levels]
    return (np.stack([sol.strategy1 for sol in sols]), update_distribution(
        config, np.asarray(levels)[:, None, None, None, None],
        cache.ngame.game.payoff[None, :, :, :, None],
        np.stack([sol.values for sol in sols])[:, None, None, None, :]))


@dataclass(frozen=True)
class ConstantsCheck:
    name: str
    levels: tuple[int, ...]
    margins: tuple[float, ...]  # bound minus achieved; >= 0 passes

    @property
    def passed(self) -> bool:
        return all(m >= 0.0 for m in self.margins)


@dataclass(frozen=True)
class ConstantsReport:
    """Per-level numerical surrogates of the 'base large enough' regime.

    Four checks along the grid {base * growth^k, k <= depth}:
    value_variation: neighbouring-rate value gap within
    (epsilon^2/9)(1/ln s - 1/ln s'); value_floor: discounted values at
    most epsilon/8 below the small-rate limit estimate; step_log:
    ln(growth) ln(growth*s) / ln(s) < 2^-5; rate_variation: neighbouring
    rates within epsilon/8 relative gap.
    """

    checks: tuple[ConstantsCheck, ...]
    limit_spread: float

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"limit-estimate spread: {self.limit_spread:.3e}"]
        for check in self.checks:
            worst = min(check.margins)
            level = check.levels[check.margins.index(worst)]
            out.append(
                f"{check.name}: {'PASS' if check.passed else 'FAIL'} "
                f"({len(check.levels)} levels, worst margin {worst:.3e} "
                f"at level {level})")
        return out


def validate_constants(config: CounterConfig, ngame: NormalizedGame,
                       cache: SolutionCache, grid_depth: int) -> ConstantsReport:
    """Check the four regime inequalities on the realized grid.

    Report-only: a failed line means the chosen base is too small for this
    game at this epsilon, not that an operation will raise.  The small-rate
    limit and its spread are limit_estimate over the levels' values.  Every
    value is read from the cache, which solves ngame; ngame itself is not
    read.
    """
    if grid_depth < 1:
        raise ValueError(f"grid_depth must be >= 1, got {grid_depth}")
    eps = config.epsilon
    levels = list(range(grid_depth + 1))
    positions = {k: config.position_at(k) for k in levels}  # depth checked
    rates = {k: config.rate_at(k) for k in levels}          # before any solve
    values = [cache.at(k).values for k in levels]
    limit, limit_spread = limit_estimate(values)

    variation = []
    for k in levels[:-1]:
        gap = float(np.max(np.abs(values[k] - values[k + 1])))
        bound = (eps * eps / 9.0) * (1.0 / math.log(positions[k])
                                     - 1.0 / math.log(positions[k + 1]))
        variation.append(bound - gap)

    floor = [float(np.min(values[k] - (limit - eps / 8.0)))
             for k in levels]

    step_log = []
    for k in levels:
        s = positions[k]
        achieved = (math.log(config.growth) * math.log(config.growth * s)
                    / math.log(s))
        step_log.append(2.0 ** -5 - achieved)

    rate_var = []
    rate_levels = []
    for k in levels:
        neighbours = [k + 1] if k == 0 else [k - 1, k + 1]
        for k2 in neighbours:
            if k2 > grid_depth:
                continue
            rate_var.append(eps * rates[k] / 8.0 - abs(rates[k] - rates[k2]))
            rate_levels.append(k)

    checks = (
        ConstantsCheck("value_variation", tuple(levels[:-1]), tuple(variation)),
        ConstantsCheck("value_floor", tuple(levels), tuple(floor)),
        ConstantsCheck("step_log", tuple(levels), tuple(step_log)),
        ConstantsCheck("rate_variation", tuple(rate_levels), tuple(rate_var)),
    )
    return ConstantsReport(checks=checks, limit_spread=limit_spread)
