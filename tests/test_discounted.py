"""Discounted solver: closed forms, exact and MDP oracles, operator
properties."""

import numpy as np
import pytest

from stochgame import (GameSpec, SolutionCache, SolverIterationError,
                       estimate_value_limit, make_config, normalize_payoffs,
                       solve_discounted)
from stochgame.counter import discount_rate

from conftest import big_match_paying, make_rng
from reference import best_reply_exact, shapley_operator


def _alternator():
    g = GameSpec(
        states=("left", "right"), actions1=("stay",), actions2=("go",),
        payoff=np.array([[[1.0]], [[0.0]]]),
        transition=np.array([[[[0.0, 1.0]]], [[[1.0, 0.0]]]]),
        initial_state=0)
    return normalize_payoffs(g)


def _random_mdp(rng, nz=3, nj=2):
    """Player 1 has a single action, so the game is a minimizing MDP."""
    payoff = rng.uniform(0.0, 1.0, size=(nz, 1, nj))
    raw = rng.uniform(0.1, 1.0, size=(nz, 1, nj, nz))
    transition = raw / raw.sum(axis=3, keepdims=True)
    g = GameSpec(states=tuple(f"s{z}" for z in range(nz)),
                 actions1=("only",),
                 actions2=tuple(f"a{j}" for j in range(nj)),
                 payoff=payoff, transition=transition, initial_state=0)
    return normalize_payoffs(g)


def _random_absorbing_game(rng):
    """Two live and two absorbing states, 2-4 actions per player.

    Each live action pair either stays among the live states or may also
    absorb; transition probabilities are multiples of 1/16, so every row
    sums to exactly 1 in floating point.  Absorbing states carry random
    payoff matrices, so their values are mixed too.
    """
    ni, nj = (int(n) for n in rng.integers(2, 5, size=2))
    payoff = rng.uniform(0.0, 1.0, size=(4, ni, nj))
    transition = np.zeros((4, ni, nj, 4))
    for z in range(2):
        for i in range(ni):
            for j in range(nj):
                reach = 2 if rng.uniform() < 0.5 else 4
                probs = rng.dirichlet(np.ones(reach))
                transition[z, i, j, :reach] = rng.multinomial(16, probs) / 16.0
    transition[2, :, :, 2] = 1.0
    transition[3, :, :, 3] = 1.0
    g = GameSpec(states=("live0", "live1", "abs0", "abs1"),
                 actions1=tuple(f"a{i}" for i in range(ni)),
                 actions2=tuple(f"b{j}" for j in range(nj)),
                 payoff=payoff, transition=transition, initial_state=0)
    return normalize_payoffs(g)


def _mdp_policy_values(ngame, lam, policy):
    """Exact values of one stationary pure column policy via a linear solve."""
    g = ngame.game
    nz = g.n_states
    r = np.array([g.payoff[z, 0, policy[z]] for z in range(nz)])
    p = np.array([g.transition[z, 0, policy[z]] for z in range(nz)])
    return np.linalg.solve(np.eye(nz) - (1.0 - lam) * p, lam * r)


def test_big_match_value_and_strategy(bm, live):
    for lam in (0.9, 0.5, 0.1, 0.01, 0.001):
        sol = solve_discounted(bm, lam)
        assert sol.values[live] == pytest.approx(0.5, abs=1e-9)
        # known closed form: absorb with probability lam/(1+lam)
        assert sol.strategy1[live][0] == pytest.approx(lam / (1 + lam),
                                                       abs=1e-9)
        np.testing.assert_allclose(sol.strategy2[live], [0.5, 0.5], atol=1e-9)
        assert sol.residual <= 1e-9


def test_absorbing_states_pinned(bm, bm_game):
    sol = solve_discounted(bm, 0.37)
    assert sol.values[bm_game.state_index("abs0")] == 0.0
    assert sol.values[bm_game.state_index("abs1")] == 1.0


@pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-8, 1e-12])
def test_big_match_value_off_one_half(lam):
    """C-vs-0 paying a = 0.8: value a/(1+a), absorb with lam a/(1+lam a)."""
    a = 0.8
    sol = solve_discounted(normalize_payoffs(big_match_paying(a)), lam)
    assert sol.values[0] == pytest.approx(a / (1.0 + a), rel=1e-12, abs=0)
    assert sol.strategy1[0, 0] == pytest.approx(lam * a / (1.0 + lam * a),
                                                rel=1e-12, abs=0)
    assert sol.residual <= 1e-9
    assert sol.iterations <= 10


def test_random_absorbing_games_exact_bracket():
    """The returned mixtures, evaluated exactly, bracket v_lam as claimed:
    values is the exact value of player 2's best reply to strategy1, and
    player 1's best reply to strategy2 is at most residual <= tol above,
    both up to float round-off (1e-13)."""
    rng = make_rng(13)
    for trial in range(6):
        ng = _random_absorbing_game(rng)
        g = ng.game
        for lam in (1e-2, 1e-7):
            sol = solve_discounted(ng, lam)
            assert sol.residual <= 1e-9
            low = best_reply_exact(g.payoff, g.transition, lam, sol.strategy1, 2)
            high = best_reply_exact(g.payoff, g.transition, lam, sol.strategy2, 1)
            width = max(float(h - lo) for h, lo in zip(high, low))
            assert width <= sol.residual + 1e-13, (trial, lam)
            np.testing.assert_allclose(sol.values, [float(x) for x in low],
                                       rtol=0, atol=1e-13)


def test_alternator_closed_form():
    ng = _alternator()
    for lam in (0.5, 0.1, 0.01):
        sol = solve_discounted(ng, lam)
        # v_left = lam + (1-lam) v_right, v_right = (1-lam) v_left
        assert sol.values[0] == pytest.approx(1.0 / (2.0 - lam), abs=1e-8)
        assert sol.values[1] == pytest.approx((1.0 - lam) / (2.0 - lam),
                                              abs=1e-8)


def test_lambda_one_is_myopic(bm, live):
    sol = solve_discounted(bm, 1.0)
    assert sol.values[live] == pytest.approx(0.5, abs=1e-12)
    assert sol.iterations <= 2


def test_rejects_bad_rate(bm):
    for lam in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            solve_discounted(bm, lam)


def test_rate_must_be_a_normal_float(bm, live):
    """Below the least normal float, (1 - lam) / lam overflows: the rate is
    rejected by name, not left to warn and fail on non-finite payoffs."""
    tiny = np.finfo(float).tiny
    for lam in (1e-320, 4e-309, np.nextafter(tiny, 0.0)):
        with pytest.raises(ValueError, match="least normal float"):
            solve_discounted(bm, lam)
        with pytest.raises(ValueError, match="least normal float"):
            estimate_value_limit(bm, (0.1, lam))
    sol = solve_discounted(bm, tiny)
    assert sol.values[live] == 0.5 and sol.residual == 0.0


def test_round_cap_must_be_positive(bm):
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            solve_discounted(bm, 0.5, max_iter=max_iter)


def test_rejects_negative_tolerance(bm, config):
    with pytest.raises(ValueError, match="tolerance"):
        solve_discounted(bm, 0.1, tol=-1.0)
    with pytest.raises(ValueError, match="tolerance"):
        SolutionCache(bm, config, tol=-1e-12)


def test_mdp_policy_enumeration_oracle():
    """With one row action the fixed point must match the pointwise-minimal
    stationary policy values computed by exact linear solves."""
    rng = make_rng(10)
    for trial in range(8):
        ng = _random_mdp(rng)
        lam = float(rng.uniform(0.05, 0.9))
        sol = solve_discounted(ng, lam, tol=1e-12)
        nz = ng.game.n_states
        nj = ng.game.n_actions2
        best = np.full(nz, np.inf)
        for flat in range(nj ** nz):
            policy = [(flat // nj ** z) % nj for z in range(nz)]
            best = np.minimum(best, _mdp_policy_values(ng, lam, policy))
        np.testing.assert_allclose(sol.values, best, rtol=0, atol=1e-9)


def test_maximizing_mdp_side():
    rng = make_rng(11)
    payoff = rng.uniform(0.0, 1.0, size=(2, 3, 1))
    raw = rng.uniform(0.1, 1.0, size=(2, 3, 1, 2))
    transition = raw / raw.sum(axis=3, keepdims=True)
    g = GameSpec(states=("s0", "s1"), actions1=("a", "b", "c"),
                 actions2=("only",), payoff=payoff, transition=transition,
                 initial_state=0)
    ng = normalize_payoffs(g)
    lam = 0.3
    sol = solve_discounted(ng, lam, tol=1e-12)
    best = np.full(2, -np.inf)
    for flat in range(3 ** 2):
        policy = [(flat // 3 ** z) % 3 for z in range(2)]
        r = np.array([g.payoff[z, policy[z], 0] for z in range(2)])
        p = np.array([g.transition[z, policy[z], 0] for z in range(2)])
        vals = np.linalg.solve(np.eye(2) - (1.0 - lam) * p, lam * r)
        best = np.maximum(best, vals)
    np.testing.assert_allclose(sol.values, best, rtol=0, atol=1e-9)


def test_operator_contraction_and_monotonicity(bm):
    rng = make_rng(12)
    lam = 0.2
    for _ in range(20):
        v = rng.uniform(0.0, 1.0, size=3)
        w = rng.uniform(0.0, 1.0, size=3)
        tv, tw = shapley_operator(bm, lam, v), shapley_operator(bm, lam, w)
        assert np.abs(tv - tw).max() <= (1 - lam) * np.abs(v - w).max() + 1e-12
        hi = np.maximum(v, w)
        assert np.all(shapley_operator(bm, lam, hi) >= tv - 1e-12)


def test_fixed_point_residual(bm):
    sol = solve_discounted(bm, 0.05, tol=1e-10)
    tv = shapley_operator(bm, 0.05, sol.values)
    assert np.abs(tv - sol.values).max() <= 1e-10


def test_iteration_cap_raises():
    # the first round starts from 1/2, which is not this game's value
    ng = normalize_payoffs(big_match_paying(0.8))
    with pytest.raises(SolverIterationError) as exc:
        solve_discounted(ng, 1e-4, max_iter=1)
    assert "no certificate" in str(exc.value)
    assert exc.value.iterations == 1
    assert exc.value.residual > 1e-9


def test_value_monotone_in_rate_for_big_match(bm, live):
    # the benchmark game's value is 1/2 at every rate; spot a broad grid
    values = [solve_discounted(bm, lam).values[live]
              for lam in np.geomspace(1e-4, 1.0, 9)]
    assert np.allclose(values, 0.5, atol=1e-8)


def test_solution_cache_matches_direct_solve(bm, config, cache):
    for k in (0, 1, 5, 40):
        sol = cache.at(k)
        lam = discount_rate(config.base * config.growth ** k)
        direct = solve_discounted(bm, lam)
        assert sol.lam == pytest.approx(lam, rel=1e-15)
        np.testing.assert_allclose(sol.values, direct.values, atol=1e-9)
        assert cache.at(k) is sol  # cached, not re-solved


def test_solution_cache_deep_levels(bm, config):
    """Every level is certified, down to rates far below 1e-10."""
    tol = 1e-9
    deep = SolutionCache(bm, make_config(0.2, 1.1e7))
    levels = [deep.at(k) for k in range(201)]
    levels.append(SolutionCache(bm, config).at(2500))
    assert 0.0 < levels[-1].lam < 1e-20
    for sol in levels:
        lam = sol.lam
        assert sol.residual <= tol, lam
        np.testing.assert_allclose(sol.values, [0.5, 0.0, 1.0], rtol=0,
                                   atol=tol)
        assert sol.strategy1[0, 0] == pytest.approx(lam / (1.0 + lam),
                                                    rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        deep.at(-1)


def test_estimate_value_limit(bm, live):
    values, spread = estimate_value_limit(bm, [0.1, 0.01, 0.001])
    assert values[live] == pytest.approx(0.5, abs=1e-8)
    assert spread <= 1e-8
    with pytest.raises(ValueError):
        estimate_value_limit(bm, [])

    ng = _alternator()
    values2, spread2 = estimate_value_limit(ng, [0.2, 0.1, 0.05, 0.02])
    # limit value is 1/2 for both states; the spread reflects the tail rates
    assert values2[0] == pytest.approx(0.5, abs=0.06)
    assert spread2 <= 0.06
