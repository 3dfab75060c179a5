"""Discounted values of stochastic games via Shapley value iteration.

For a rate lam in (0, 1], the discounted value v_lam is the unique fixed
point of the Shapley operator

    T(v)(z) = val[ lam * r(z, i, j) + (1 - lam) * sum_z' p(z'|z,i,j) v(z') ]

which is a (1 - lam)-contraction in the sup norm.  Iteration starts from 1/2
at every transient state; absorbing states start at (and keep) their exact
fixed point, the one-shot value of the state's payoff matrix, which does not
depend on lam.  The stopping rule ||v_{k+1} - v_k|| <= tol * lam / (1 - lam)
certifies ||v - v_lam|| <= tol by the contraction bound.

A SolutionCache memoizes solutions along the geometric grid of counter
levels used by the low-memory strategy; a retrieved level k holds the
solution at rate lambda(gamma^k * M).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .games import NormalizedGame, is_absorbing
from .matrix import solve_matrix_game

DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 1_000_000


class SolverIterationError(RuntimeError):
    """Iteration cap hit before the contraction certificate was reached."""

    def __init__(self, message: str, values: np.ndarray, residual: float,
                 iterations: int):
        super().__init__(message)
        self.values = values
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class DiscountedSolution:
    """Fixed point data at one discount rate.

    residual is the certified a-posteriori error bound
    ||v_{k+1} - v_k|| * (1 - lam) / lam, not the raw iterate difference.
    strategy1/strategy2 are per-state optimal mixtures in the auxiliary
    one-shot games evaluated at the converged values.
    """

    lam: float
    values: np.ndarray
    strategy1: np.ndarray
    strategy2: np.ndarray
    residual: float
    iterations: int


def auxiliary_matrix(ngame: NormalizedGame, lam: float, values, z: int) -> np.ndarray:
    """One-shot payoff matrix at state z given continuation values."""
    game = ngame.game
    cont = np.tensordot(game.transition[z], np.asarray(values, dtype=np.float64),
                        axes=([2], [0]))
    return lam * game.payoff[z] + (1.0 - lam) * cont


def shapley_operator(ngame: NormalizedGame, lam: float, values) -> np.ndarray:
    """Apply the Shapley operator once, returning the new value vector."""
    _check_rate(lam)
    out = np.empty(ngame.game.n_states)
    for z in range(ngame.game.n_states):
        out[z] = solve_matrix_game(auxiliary_matrix(ngame, lam, values, z)).value
    return out


def _check_rate(lam: float) -> None:
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"discount rate must lie in (0, 1], got {lam}")


def solve_discounted(ngame: NormalizedGame, lam: float, tol: float = DEFAULT_TOL,
                     max_iter: int = MAX_ITERATIONS, v_init=None,
                     delta_floor: float = 0.0) -> DiscountedSolution:
    """Solve for v_lam to certified sup-norm accuracy tol.

    v_init optionally warm-starts the transient coordinates (absorbing
    coordinates are always pinned to their exact one-shot values).
    delta_floor > 0 additionally accepts an iterate whose raw step is below
    that absolute floor; the recorded residual stays the honest contraction
    bound, which may then exceed tol.  The default 0 keeps the strict
    certificate.
    """
    _check_rate(lam)
    game = ngame.game
    nz = game.n_states
    absorbing = np.array([is_absorbing(game, z) for z in range(nz)])
    transient = np.flatnonzero(~absorbing)

    v = np.full(nz, 0.5)
    if v_init is not None:
        v = np.array(v_init, dtype=np.float64, copy=True)
        if v.shape != (nz,):
            raise ValueError(f"v_init has shape {v.shape}, expected ({nz},)")
    for z in np.flatnonzero(absorbing):
        v[z] = solve_matrix_game(game.payoff[z]).value

    # Contraction factor (1 - lam): stop when the step certifies tol.
    threshold = tol * lam / (1.0 - lam) if lam < 1.0 else math.inf
    amplify = (1.0 - lam) / lam
    delta = math.inf
    iterations = 0
    while iterations < max_iter:
        v_new = v.copy()
        for z in transient:
            v_new[z] = solve_matrix_game(
                auxiliary_matrix(ngame, lam, v, z)).value
        delta = float(np.max(np.abs(v_new - v))) if transient.size else 0.0
        v = v_new
        iterations += 1
        if delta <= threshold or delta == 0.0 or delta <= delta_floor:
            break
    else:
        raise SolverIterationError(
            f"no certificate after {max_iter} iterations at rate {lam:g} "
            f"(last step {delta:.3g}, certified residual "
            f"{delta * amplify:.3g}, tol {tol:g})",
            values=v, residual=delta * amplify, iterations=iterations)

    residual = delta * amplify
    strat1 = np.zeros((nz, game.n_actions1))
    strat2 = np.zeros((nz, game.n_actions2))
    for z in range(nz):
        sol = solve_matrix_game(auxiliary_matrix(ngame, lam, v, z))
        strat1[z] = sol.row_strategy
        strat2[z] = sol.col_strategy
    for arr in (v, strat1, strat2):
        arr.flags.writeable = False
    return DiscountedSolution(lam=lam, values=v, strategy1=strat1,
                              strategy2=strat2, residual=float(residual),
                              iterations=iterations)


@dataclass(frozen=True)
class ValueLimitEstimate:
    """Values along a decreasing rate schedule, as a stand-in for lim v_lam.

    values holds the smallest-rate solve; spread is the largest per-state
    range across the last (up to) three rates and quantifies how settled the
    limit looks.  per_rate_values[r] aligns with schedule[r].
    """

    values: np.ndarray
    schedule: tuple[float, ...]
    spread: float
    per_rate_values: np.ndarray


def estimate_value_limit(ngame: NormalizedGame, schedule,
                         tol: float = DEFAULT_TOL) -> ValueLimitEstimate:
    """Solve along a decreasing rate schedule and report the tail spread."""
    rates = sorted({float(x) for x in schedule}, reverse=True)
    if not rates:
        raise ValueError("rate schedule must be non-empty")
    for lam in rates:
        _check_rate(lam)
    per_rate = np.empty((len(rates), ngame.game.n_states))
    v_prev = None
    for idx, lam in enumerate(rates):
        sol = solve_discounted(ngame, lam, tol=tol, v_init=v_prev)
        per_rate[idx] = sol.values
        v_prev = sol.values
    tail = per_rate[-min(3, len(rates)):]
    spread = float(np.max(tail.max(axis=0) - tail.min(axis=0)))
    per_rate.flags.writeable = False
    values = per_rate[-1]
    return ValueLimitEstimate(values=values, schedule=tuple(rates),
                              spread=spread, per_rate_values=per_rate)


class SolutionCache:
    """Memoized discounted solutions along the counter grid s_k = gamma^k M.

    rate_source must expose rate_at(k); the counter configuration object
    does.  Reads are lock-free once a level is present; inserts are
    idempotent, so concurrent solvers of the same level agree.  Deep levels
    (rate below float certification, roughly 1e-7) are solved with a small
    absolute step floor; the honest residual is still recorded on the
    solution.
    """

    DEEP_FLOOR = 5e-15

    def __init__(self, ngame: NormalizedGame, rate_source,
                 tol: float = DEFAULT_TOL, max_iter: int = MAX_ITERATIONS):
        self.ngame = ngame
        self.rate_source = rate_source
        self.tol = tol
        self.max_iter = max_iter
        self._solutions: dict[int, DiscountedSolution] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._solutions)

    def __contains__(self, k: int) -> bool:
        return k in self._solutions

    def at(self, k: int) -> DiscountedSolution:
        if k < 0:
            raise ValueError(f"counter level must be >= 0, got {k}")
        sol = self._solutions.get(k)
        if sol is not None:
            return sol
        lam = self.rate_source.rate_at(k)
        warm = self._solutions.get(k - 1) or self._solutions.get(k + 1)
        sol = solve_discounted(
            self.ngame, lam, tol=self.tol, max_iter=self.max_iter,
            v_init=None if warm is None else warm.values,
            delta_floor=self.DEEP_FLOOR)
        with self._lock:
            return self._solutions.setdefault(k, sol)
