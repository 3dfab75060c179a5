"""Discounted values of stochastic games by strategy iteration.

v_lam is the fixed point of the Shapley operator, lam in (0, 1]:
T(v)(z) = val[ lam r(z, i, j) + (1 - lam) sum_z' p(z'|z,i,j) v(z') ].
A round solves the one-shot games at a few continuation vectors for
mixtures x (player 1) and y (player 2), and keeps the x whose best reply
gives the highest lower bound L and the y whose best reply gives the lowest
upper bound U; it stops once max(U - L) <= tol.  The next vectors are L
(the Hoffman & Karp 1966 step), U (its mirror) and, clipped into [L, U],
the value of play under (x, y) (the Newton step of Pollatschek &
Avi-Itzhak 1969).  A few rounds usually suffice at any rate, where value
iteration needs about 1/lam sweeps.  Absorbing states are solved once.

The one-shot games are solved exactly in advantage form, policies are
evaluated by eliminations that never subtract, and best replies compare
whole policy values where advantages cannot resolve a gain.  Where play can
cycle among transient states for about 1/lam stages, values are still only
resolved to about eps / lam: on random games with such cycles residual met
an exact bracket down to lam = 1e-9, but at 1e-11 it can understate it.

A SolutionCache memoizes the solutions at the counter levels k, at rate
lambda(gamma^k * M).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .games import GameSpec, NormalizedGame, is_absorbing
from .matrix import solve_matrix_game

DEFAULT_TOL = 1e-9
MAX_ROUNDS = 1000


class SolverIterationError(RuntimeError):
    """Round cap hit before the best-reply bracket closed to tol."""

    def __init__(self, message: str, values: np.ndarray, residual: float,
                 iterations: int):
        super().__init__(message)
        self.values = values
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class DiscountedSolution:
    """Certified solution at one discount rate.

    values is L, what player 2's best reply to strategy1 concedes, and
    residual is max(U - L), U being what player 1's best reply to strategy2
    gets: values <= v_lam <= values + residual.  iterations counts rounds.
    """

    lam: float
    values: np.ndarray
    strategy1: np.ndarray
    strategy2: np.ndarray
    residual: float
    iterations: int


def _check_rate(lam: float) -> None:
    tiny = float(np.finfo(float).tiny)  # below it, (1 - lam) / lam overflows
    if not tiny <= lam <= 1.0:
        raise ValueError(f"discount rate must lie in [{tiny!r}, 1], from the "
                         f"least normal float up to 1, got {lam!r}")


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")


def _policy_values(p: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """Values v = lam r + (1 - lam) p v of one stationary policy.

    States are eliminated in turn as in the GTH algorithm (Grassmann,
    Taksar & Heyman 1985): each pivot 1 - (1 - lam) p_kk is the remaining
    off-diagonal mass plus the stopping mass lam, a sum of nonnegative
    terms.  With payoffs in [0, 1] every value keeps its relative
    precision, where an LU solve of I - (1 - lam) p loses about eps / lam.
    """
    n = r.shape[0]
    q = ((1.0 - lam) * p).tolist()  # diagonal never read: self-loops only delay
    stop = (lam * p.sum(axis=1)).tolist()
    gain = (lam * r).tolist()
    pivot = [0.0] * n
    for k in range(n):
        pivot[k] = sum(q[k][k + 1:]) + stop[k]
        for z in range(k + 1, n):
            f = q[z][k] / pivot[k]
            if f:
                for w in range(k + 1, n):
                    if w != z:
                        q[z][w] += f * q[k][w]
                stop[z] += f * stop[k]
                gain[z] += f * gain[k]
    v = [0.0] * n
    for k in range(n - 1, -1, -1):
        v[k] = (gain[k] + sum(q[k][w] * v[w] for w in range(k + 1, n))) / pivot[k]
    return np.array(v)


def best_reply_value(game: GameSpec, lam: float, strategy,
                     replying_player: int) -> np.ndarray:
    """Discounted value of the best reply to a fixed stationary mixture.

    replying_player 2 answers player 1's per-state mixture (Z, I) and
    minimizes, giving L <= v_lam; replying_player 1 answers player 2's
    (Z, J) and maximizes, giving U >= v_lam.  Policy iteration over pure
    policies: a step moves every state to its action of best advantage
    lam (r - v_z) + (1 - lam) sum_w p_w (v_w - v_z).  An advantage is only
    resolved to about eps, a value gain of eps / lam, so once no advantage
    improves, each single-state switch is evaluated whole.  A step is kept
    only if it lowers (player 2) or raises (player 1) the summed values.
    """
    payoff, transition = game.payoff, game.transition
    if replying_player == 1:  # the fixed player's actions go on axis 1
        payoff, transition = payoff.swapaxes(1, 2), transition.swapaxes(1, 2)
    r = np.einsum("zo,zoa->za", strategy, payoff)
    p = np.einsum("zo,zoaw->zaw", strategy, transition)
    sign = 1.0 if replying_player == 2 else -1.0
    distinct = (r[:, :, None] != r[:, None, :]) | np.any(p[:, :, None] != p[:, None], axis=3)
    rows = np.arange(r.shape[0])
    policy = np.zeros(r.shape[0], dtype=np.int64)
    v = _policy_values(p[rows, policy], r[rows, policy], lam)
    while True:  # each kept step strictly improves a float sum: no policy recurs
        spread = v[None, None, :] - v[:, None, None]
        adv = sign * (lam * (r - v[:, None]) + (1.0 - lam) * (p * spread).sum(axis=2))
        best = adv.argmin(axis=1)
        improved = np.where(adv[rows, best] < adv[rows, policy], best, policy)
        steps = itertools.chain([improved] if np.any(improved != policy) else [], (
            np.where(rows == z, a, policy) for z in rows
            for a in np.flatnonzero(distinct[z, :, policy[z]])))
        for step in steps:
            v_step = _policy_values(p[rows, step], r[rows, step], lam)
            if sign * (v_step - v).sum() < 0.0:
                policy, v = step, v_step
                break
        else:
            return v


def _one_shot_mixtures(game: GameSpec, lam: float, v: np.ndarray,
                       transient, strat1, strat2):
    """Optimal one-shot mixtures at continuation values v in the transient
    states, other rows copied from strat1/strat2.  The game is taken in
    advantage form r - v_z + ((1 - lam) / lam) P (v - v_z), which is
    (aux - v_z) / lam for the auxiliary matrix aux: the same optimal
    strategies, with their relative precision kept at any rate."""
    x, y = strat1.copy(), strat2.copy()
    amplify = (1.0 - lam) / lam
    for z in transient:
        ahead = np.tensordot(game.transition[z], v - v[z], axes=([2], [0]))
        sol = solve_matrix_game(game.payoff[z] - v[z] + amplify * ahead)
        x[z], y[z] = sol.row_strategy, sol.col_strategy
    return x, y


def solve_discounted(ngame: NormalizedGame, lam: float, tol: float = DEFAULT_TOL,
                     max_iter: int = MAX_ROUNDS) -> DiscountedSolution:
    """Solve for v_lam, certified by a best-reply bracket of width <= tol;
    SolverIterationError after max_iter rounds without one."""
    _check_rate(lam)
    _check_tol(tol)
    if max_iter < 1:
        raise ValueError(f"round cap max_iter must be >= 1, got {max_iter}")
    game = ngame.game
    nz = game.n_states
    x = np.zeros((nz, game.n_actions1))
    y = np.zeros((nz, game.n_actions2))
    start = np.full(nz, 0.5)
    transient = [z for z in range(nz) if not is_absorbing(game, z)]
    for z in set(range(nz)) - set(transient):  # absorbing states
        sol = solve_matrix_game(game.payoff[z])
        start[z], x[z], y[z] = sol.value, sol.row_strategy, sol.col_strategy

    points = [start]
    low, residual = start, math.inf
    for iterations in range(1, max_iter + 1):
        mixtures = [_one_shot_mixtures(game, lam, point, transient, x, y)
                    for point in points]
        low, x = max(((best_reply_value(game, lam, px, 2), px)
                      for px, _ in mixtures), key=lambda t: t[0].sum())
        high, y = min(((best_reply_value(game, lam, py, 1), py)
                       for _, py in mixtures), key=lambda t: t[0].sum())
        residual = float(np.max(high - low))
        if residual <= tol:
            break
        p = np.einsum("zi,zj,zijw->zw", x, y, game.transition)
        r = np.einsum("zi,zj,zij->z", x, y, game.payoff)
        points = [low, high, np.clip(_policy_values(p, r, lam), low, high)]
    else:
        raise SolverIterationError(
            f"no certificate after {max_iter} rounds at rate {lam:g} "
            f"(bracket width {residual:.3g}, tol {tol:g})",
            values=low, residual=residual, iterations=max_iter)

    for arr in (low, x, y):
        arr.flags.writeable = False
    return DiscountedSolution(lam=lam, values=low, strategy1=x, strategy2=y,
                              residual=residual, iterations=iterations)


def limit_estimate(rows) -> tuple[np.ndarray, float]:
    """Stand-in for lim v_lam from values at decreasing rates, one row each:
    the last row, and as its spread the largest per-state range across the
    last (up to) three rows, which quantifies how settled the limit looks."""
    tail = np.asarray(rows[-3:])
    return tail[-1], float(np.max(tail.max(axis=0) - tail.min(axis=0)))


def estimate_value_limit(ngame: NormalizedGame, schedule,
                         tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Solve along a decreasing rate schedule; (values, spread) as in
    limit_estimate."""
    rates = sorted({float(x) for x in schedule}, reverse=True)
    if not rates:
        raise ValueError("rate schedule must be non-empty")
    for lam in rates:
        _check_rate(lam)
    return limit_estimate([solve_discounted(ngame, lam, tol=tol).values
                           for lam in rates])


class SolutionCache:
    """Memoized discounted solutions along the counter grid s_k = gamma^k M.

    rate_source must expose rate_at(k); the counter configuration object
    does.  Every level is solved once, from scratch, and certified to tol,
    however small its rate.
    """

    def __init__(self, ngame: NormalizedGame, rate_source,
                 tol: float = DEFAULT_TOL):
        _check_tol(tol)
        self.ngame = ngame
        self.rate_source = rate_source
        self.tol = tol
        self._solutions: dict[int, DiscountedSolution] = {}

    def __len__(self) -> int:
        return len(self._solutions)

    def __contains__(self, k: int) -> bool:
        return k in self._solutions

    def at(self, k: int) -> DiscountedSolution:
        if k < 0:
            raise ValueError(f"counter level must be >= 0, got {k}")
        if k not in self._solutions:
            self._solutions[k] = solve_discounted(
                self.ngame, self.rate_source.rate_at(k), tol=self.tol)
        return self._solutions[k]
