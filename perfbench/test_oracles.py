"""Tests of the benchmark's oracles; each shows the oracle rejecting a wrong
answer.  Run with:  python3 -m pytest perfbench/test_oracles.py

The games here are built from plain arrays; nothing imports stochgame.
"""

import itertools
import math

import numpy as np
import pytest

import oracles

TOL = 1e-9


def big_match(a: float = 1.0):
    """Big Match arrays (live, abs0, abs1) whose C-vs-0 payoff is a."""
    payoff = np.zeros((3, 2, 2))
    payoff[0, 0, 1] = 1.0
    payoff[0, 1, 0] = a
    payoff[2] = 1.0
    transition = np.zeros((3, 2, 2, 3))
    transition[0, 0, 0, 1] = 1.0
    transition[0, 0, 1, 2] = 1.0
    transition[0, 1, :, 0] = 1.0
    transition[1, :, :, 1] = 1.0
    transition[2, :, :, 2] = 1.0
    return payoff, transition


def closed_form_solution(a: float, lam: float):
    v, x_absorb = oracles.big_match_closed_form(a, lam)
    x = np.array([[x_absorb, 1.0 - x_absorb], [1.0, 0.0], [1.0, 0.0]])
    y = np.array([[1.0 - v, v], [1.0, 0.0], [1.0, 0.0]])
    return np.array([v, 0.0, 1.0]), x, y


@pytest.mark.parametrize("lam", [0.3, 1e-2, 1e-6, 1e-10])
def test_certificate_brackets_closed_form_and_rejects_shifted_values(lam):
    a = 0.8
    payoff, transition = big_match(a)
    values, x, y = closed_form_solution(a, lam)
    ok, worst, gap = oracles.certify_level(payoff, transition, lam, values,
                                           x, y, TOL)
    assert ok and worst <= 1e-12 and gap <= 1e-12
    for shift in (10 * TOL, -10 * TOL):
        ok, worst, _ = oracles.certify_level(payoff, transition, lam,
                                             values + shift, x, y, TOL)
        assert not ok and worst >= 9 * TOL


def test_best_reply_punishes_a_flipped_strategy():
    # Always continuing lets player 2 answer column 1 forever: payoff 0.
    payoff, transition = big_match(0.8)
    _, x, _ = closed_form_solution(0.8, 1e-3)
    x[0] = [0.0, 1.0]
    low = oracles.best_reply_value(payoff, transition, 1e-3, x, 2)
    assert low[0] == pytest.approx(0.0, abs=1e-12)


def test_closed_form_is_the_fixed_point():
    # Shapley's equation at the live state with the closed-form strategies:
    # each player's mixture makes the other indifferent, at value v.
    for a, lam in ((1.0, 0.05), (0.8, 1e-3), (0.3, 0.5)):
        v, xa = oracles.big_match_closed_form(a, lam)
        cols = [(1 - xa) * (lam * a + (1 - lam) * v),     # column 0
                xa + (1 - xa) * (1 - lam) * v]             # column 1
        assert cols == pytest.approx([v, v], abs=1e-14)
    wrong = oracles.big_match_closed_form(0.8, 0.01)[0] + 10 * TOL
    payoff, transition = big_match(0.8)
    _, x, y = closed_form_solution(0.8, 0.01)
    ok, _, _ = oracles.certify_level(payoff, transition, 0.01,
                                     [wrong, 0.0, 1.0], x, y, TOL)
    assert not ok


def random_table(rng, m_states, nz=3, ni=2, nj=2):
    action = rng.dirichlet(np.ones(ni), size=m_states)
    kernel = rng.dirichlet(np.ones(m_states), size=(m_states, ni, nj, nz))
    return action, kernel


def backward_best_response(payoff, transition, action, kernel, horizon, z0):
    """Plain-loop backward induction: minimal expected total payoff."""
    nz, ni, nj = payoff.shape
    m_states = action.shape[0]
    values = np.zeros((nz, m_states))
    policy = np.zeros((horizon, nz, m_states), dtype=np.int64)
    for t in range(horizon - 1, -1, -1):
        new = np.zeros_like(values)
        for z, m in itertools.product(range(nz), range(m_states)):
            q = [sum(action[m, i] * (payoff[z, i, j] + sum(
                transition[z, i, j, w] * kernel[m, i, j, w, n] * values[w, n]
                for w in range(nz) for n in range(m_states)))
                for i in range(ni)) for j in range(nj)]
            policy[t, z, m] = int(np.argmin(q))
            new[z, m] = min(q)
        values = new
    return policy, values[z0, 0] / horizon


def test_forward_evaluation_matches_enumeration_of_pure_policies():
    rng = np.random.default_rng(7)
    payoff, transition = big_match()
    action, kernel = random_table(rng, 2)
    horizon = 2
    policy, value = backward_best_response(payoff, transition, action,
                                           kernel, horizon, 0)
    shape = (horizon, 3, 2)
    best = min(
        oracles.forward_stage_payoffs(
            payoff, transition, action, kernel,
            np.array(bits).reshape(shape), horizon, 0).mean()
        for bits in itertools.product((0, 1), repeat=int(np.prod(shape))))
    assert best == pytest.approx(value, abs=1e-14)
    ok, found = oracles.check_best_response(payoff, transition, action,
                                            kernel, policy, value, 0)
    assert ok and found["policy"] == pytest.approx(value, abs=1e-14)


def test_best_response_check_rejects_flipped_action_and_shifted_value():
    rng = np.random.default_rng(11)
    payoff, transition = big_match()
    action, kernel = random_table(rng, 3)
    horizon = 6
    policy, value = backward_best_response(payoff, transition, action,
                                           kernel, horizon, 0)
    ok, _ = oracles.check_best_response(payoff, transition, action, kernel,
                                        policy, value, 0)
    assert ok
    ok, _ = oracles.check_best_response(payoff, transition, action, kernel,
                                        policy, value + 10 * TOL, 0)
    assert not ok
    flipped = policy.copy()
    flipped[0, 0, 0] = 1 - flipped[0, 0, 0]   # stage 1 is always reached
    ok, found = oracles.check_best_response(payoff, transition, action,
                                            kernel, flipped, value, 0)
    assert not ok and found["policy"] > value + 10 * TOL


def test_mixture_payoff_counts_column_one_cells():
    doc = {"delta": 0.1, "horizon": 4, "M": 1,
           "components": [[], [[1, 0], [2, 0]], [[t, 0] for t in range(1, 5)]]}
    assert oracles.mixture_payoff_vs_always_continue(doc) == pytest.approx(0.5)
    claimed = 0.5
    doc["components"][1].append([3, 0])
    assert not math.isclose(oracles.mixture_payoff_vs_always_continue(doc),
                            claimed, rel_tol=1e-5)
    with pytest.raises(ValueError):
        oracles.mixture_payoff_vs_always_continue(dict(doc, M=2))


def test_solve_2x2_mixed_and_saddle():
    value, x, y = oracles.solve_2x2([[1.0, 0.0], [0.0, 1.0]])
    assert value == pytest.approx(0.5) and x == pytest.approx([0.5, 0.5])
    value, x, y = oracles.solve_2x2([[3.0, 2.0], [1.0, 0.0]])
    assert value == 2.0 and list(x) == [1.0, 0.0] and list(y) == [0.0, 1.0]


@pytest.mark.parametrize("lam", [0.3, 1e-2, 1e-4])
def test_value_bracket_finds_closed_form_and_rejects_shifted_values(lam):
    a = 0.8
    payoff, transition = big_match(a)
    low, high = oracles.value_bracket(payoff, transition, lam)
    values = closed_form_solution(a, lam)[0]
    assert np.abs(high - low).max() <= 1e-12
    assert low == pytest.approx(values, abs=1e-12)
    shifted = values + 10 * TOL
    assert np.abs(shifted - np.clip(shifted, low, high)).max() > TOL
