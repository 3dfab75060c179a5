"""Matrix-game solver against closed forms, duality, and a grid oracle."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from stochgame import MatrixSolveError, solve_matrix_game

from conftest import make_rng


def two_by_two_oracle(m: np.ndarray) -> float:
    """Independent closed form: saddle check, else the mixed-value formula."""
    (a, b), (c, d) = m
    maximin = max(min(a, b), min(c, d))
    minimax = min(max(a, c), max(b, d))
    if maximin == minimax:
        return float(maximin)
    return float((a * d - b * c) / (a + d - b - c))


def duality_gap(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float((m @ y).max() - (x @ m).min())


def test_pure_saddle():
    sol = solve_matrix_game([[3.0, 5.0], [1.0, 2.0]])
    assert sol.value == pytest.approx(3.0, abs=1e-12)
    assert sol.row_strategy[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.col_strategy[0] == pytest.approx(1.0, abs=1e-9)


def test_matching_pennies():
    sol = solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(sol.col_strategy, [0.5, 0.5], atol=1e-9)


def test_all_two_by_two_on_small_grid():
    """Every 2x2 matrix over {0, 1/2, 1}: value matches the closed form."""
    for entries in itertools.product((0.0, 0.5, 1.0), repeat=4):
        m = np.array(entries).reshape(2, 2)
        sol = solve_matrix_game(m)
        assert sol.value == pytest.approx(two_by_two_oracle(m), abs=1e-12), m
        assert duality_gap(m, sol.row_strategy, sol.col_strategy) <= 1e-10


def test_rectangular_degenerate():
    sol = solve_matrix_game([[0.3, 0.9, 0.1]])
    assert sol.value == pytest.approx(0.1, abs=1e-12)
    sol = solve_matrix_game([[0.3], [0.9], [0.1]])
    assert sol.value == pytest.approx(0.9, abs=1e-12)
    sol = solve_matrix_game([[0.25]])
    assert sol.value == pytest.approx(0.25, abs=1e-12)


def test_random_duality():
    rng = make_rng(2)
    for _ in range(100):
        ni = int(rng.integers(1, 7))
        nj = int(rng.integers(1, 7))
        m = rng.uniform(-1.0, 1.0, size=(ni, nj))
        sol = solve_matrix_game(m)
        gap = duality_gap(m, sol.row_strategy, sol.col_strategy)
        assert gap <= 1e-8
        assert (m @ sol.col_strategy).max() <= sol.value + 1e-8
        assert (sol.row_strategy @ m).min() >= sol.value - 1e-8
        assert sol.row_strategy.sum() == pytest.approx(1.0, abs=1e-9)
        assert sol.col_strategy.sum() == pytest.approx(1.0, abs=1e-9)
        assert sol.row_strategy.min() >= -1e-12
        assert sol.col_strategy.min() >= -1e-12


def test_grid_oracle_three_by_three():
    """Coarse simplex enumeration lower-bounds the value to grid resolution."""
    rng = make_rng(3)
    h = 256
    grid = np.array([(i / h, j / h, (h - i - j) / h)
                     for i in range(h + 1) for j in range(h + 1 - i)])
    for _ in range(10):
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        sol = solve_matrix_game(m)
        v_grid = (grid @ m).min(axis=1).max()
        # grid maximin never exceeds the true value, and Lipschitz
        # continuity keeps it within 2*max|m|/h of it
        assert v_grid <= sol.value + 1e-10
        assert v_grid >= sol.value - 2.0 / h


def test_invariance_under_payoff_shift():
    rng = make_rng(4)
    m = rng.uniform(0.0, 1.0, size=(4, 3))
    base = solve_matrix_game(m)
    shifted = solve_matrix_game(m + 10.0)
    assert shifted.value == pytest.approx(base.value + 10.0, abs=1e-9)


def test_widely_spread_entries():
    """Advantage-form one-shot games at small rates mix entries near 1/lam
    with entries near 1; every strategy entry keeps its relative precision."""
    lam = 1e-20
    sol = solve_matrix_game([[-0.5 / lam, 0.5 / lam], [0.5, -0.5]])
    assert sol.row_strategy[0] == pytest.approx(lam / (1.0 + lam), rel=1e-15)
    assert sol.value == 0.0

    # A one-shot game of a random 4-state game at rate 1e-7.  Optimal play
    # uses rows 0 and 2 and columns 2 and 3, each side making the other
    # indifferent.
    m = np.array([
        [138832638.61307967, 0.44344245282156414, 755866586.5880948,
         -246813580.2993806],
        [632459797.038541, -0.04813465333336264, 0.4362741930600511,
         -138832638.55507284],
        [46277545.64004422, 154258487.0624474, -1.4790335747805194e-06,
         0.08806006032420377]])
    sol = solve_matrix_game(m)
    f = [[Fraction(v) for v in row] for row in m.tolist()]
    den = f[0][2] - f[0][3] - f[2][2] + f[2][3]
    x0 = float((f[2][3] - f[2][2]) / den)
    y2 = float((f[2][3] - f[0][3]) / den)
    np.testing.assert_allclose(sol.row_strategy, [x0, 0.0, 1.0 - x0],
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(sol.col_strategy, [0.0, 0.0, y2, 1.0 - y2],
                               rtol=1e-15, atol=0)
    assert 8e-11 < x0 < 9e-11


def test_saddle_beyond_float_shift():
    """Row minima of 2**53 and more: the shift to a row minimum of 1 must
    not round away, or the program is unbounded."""
    for m, value, x, y in (
            ([[5e16]], 5e16, [1.0], [1.0]),
            ([[-5e16]], -5e16, [1.0], [1.0]),
            ([[-5e16], [-6e16]], -5e16, [1.0, 0.0], [1.0]),
            ([[5e16, 6e16], [4e16, 7e16]], 5e16, [1.0, 0.0], [1.0, 0.0])):
        sol = solve_matrix_game(m)
        assert sol.value == value
        np.testing.assert_array_equal(sol.row_strategy, x)
        np.testing.assert_array_equal(sol.col_strategy, y)
    sol = solve_matrix_game([[1e17, -1e17], [-1e17, 1e17]])
    assert sol.value == 0.0
    np.testing.assert_array_equal(sol.row_strategy, [0.5, 0.5])


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_matrix_game([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_matrix_game([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        solve_matrix_game(np.zeros((0, 2)))
    assert issubclass(MatrixSolveError, RuntimeError)
