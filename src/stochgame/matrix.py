"""Exact-value solving of finite zero-sum matrix games.

Primal simplex with Bland's anti-cycling rule on the column player's program
max 1'w  s.t.  M'w <= 1, w >= 0, from the feasible slack basis (no phase-1);
the row player's mixture is read off the duals.  One exact rational shifts
the payoffs so that the largest row minimum is 1, which bounds the program
(value >= 1) although entries may stay negative.  Floats are dyadic
rationals, so the tableau scales to integers, and fraction-free pivoting
(Edmonds 1967) keeps it integral: no step depends on round-off, however
widely the magnitudes spread.  Pure saddle points, common at absorbing
states, go through the same tableau; where several pure strategies are
optimal, the pivot order picks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class MatrixSolveError(RuntimeError):
    """Simplex failed to terminate cleanly; carries the offending matrix."""


@dataclass(frozen=True)
class MatrixSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def solve_matrix_game(matrix) -> MatrixSolution:
    """Solve the zero-sum game with the given payoff matrix (row maximizes).

    Returns the game value and optimal mixed strategies for both players.
    The solve is exact for the matrix as given; value and each strategy
    entry are then rounded to the nearest float, so every entry keeps its
    relative precision, however small.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"payoff matrix must be 2-D and non-empty, "
                         f"got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("payoff matrix contains non-finite entries")

    n_rows, n_cols = m.shape
    shift = 1 - Fraction(m.min(axis=1).max())  # exact: a float 1 - x drops
    # the 1 once |x| >= 2**53.  Constraint rows times a common power of two
    # become integers, slack columns stay the identity (first basis det 1).
    ratios = [[v.as_integer_ratio() for v in row] for row in m.tolist()]
    s_num, s_den = shift.numerator, shift.denominator
    scale = max(max(d for row in ratios for _, d in row), s_den)
    tab = [[n * (scale // d) + s_num * (scale // s_den) for n, d in row]
           + [int(i == r) for i in range(n_rows)] + [scale]
           for r, row in enumerate(ratios)]
    tab.append([-1] * n_cols + [0] * (n_rows + 1))  # reduced costs
    basis = list(range(n_cols, n_cols + n_rows))
    det = 1  # the real tableau is tab / det

    while True:
        cost = tab[n_rows]
        entering = next((j for j in range(n_cols + n_rows) if cost[j] < 0), -1)
        if entering < 0:
            break
        rows = [i for i in range(n_rows) if tab[i][entering] > 0]
        if not rows:
            raise MatrixSolveError(
                f"unbounded tableau (should be impossible): {m.tolist()}")
        leaving = min(rows, key=lambda i: (
            Fraction(tab[i][-1], tab[i][entering]), basis[i]))
        pivot_row = tab[leaving]
        pivot = pivot_row[entering]
        for i in range(n_rows + 1):
            if i != leaving:
                f = tab[i][entering]
                tab[i] = [(pivot * a - f * b) // det
                          for a, b in zip(tab[i], pivot_row)]
        det = pivot
        basis[leaving] = entering

    w = [0] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            w[b] = tab[i][-1]
    u = cost[n_cols:n_cols + n_rows]  # duals from the slack columns
    value = Fraction(det, cost[-1]) - shift  # 1 / sum(w) - shift
    x = np.array([q / sum(u) for q in u])
    y = np.array([q / sum(w) for q in w])
    return MatrixSolution(float(value), x, y)
