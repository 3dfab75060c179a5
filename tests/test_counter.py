"""Counter strategy: configuration, drift identities, one-step optimality."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from stochgame import (CounterConfig, FeasibilityError, GameSpec,
                       make_config, normalize_payoffs, update_distribution,
                       validate_constants)
from stochgame import counter, discounted
from stochgame.counter import discount_rate
from stochgame.games import sample_rows

from conftest import make_rng
from reference import move_law


def test_config_defaults(config):
    assert config.epsilon == 0.2
    assert config.base == 100.0
    assert config.growth == 1.0 + 0.2 / 9.0
    assert config.memory_slope == pytest.approx(4.0 / math.log(config.growth),
                                                rel=1e-15)
    assert config.memory_slope == pytest.approx(181.99267375674592, rel=1e-14)
    # horizon floor 72 / (epsilon^2 * rate(base))
    assert config.min_horizon == pytest.approx(
        72.0 / (0.04 * discount_rate(100.0)), rel=1e-14)
    assert config.min_horizon == pytest.approx(3817366.639544446, rel=1e-14)


def test_config_holds_epsilon_and_base_only():
    """growth, memory_slope and min_horizon follow epsilon and base, so a
    config with epsilon replaced carries the new epsilon's values."""
    assert [f.name for f in dataclasses.fields(CounterConfig)] == [
        "epsilon", "base"]
    replaced = dataclasses.replace(make_config(0.2, 1000.0), epsilon=0.1)
    fresh = make_config(0.1, 1000.0)
    for name in ("growth", "memory_slope", "min_horizon"):
        assert getattr(replaced, name) == getattr(fresh, name), name


def test_config_validation():
    for eps in (0.0, -0.5, 0.25, 5.0):
        with pytest.raises(ValueError):
            make_config(eps, 100.0)
    with pytest.raises(ValueError):
        make_config(0.2, 1.5)
    # level 0 of a huge base has a discount rate of 0.0
    with pytest.raises(ValueError, match=r"base 1e\+306 .* not a positive "
                                         r"normal float"):
        make_config(0.2, 1e306)


def test_infeasible_base_names_the_threshold():
    with pytest.raises(FeasibilityError) as exc:
        make_config(0.2, 2.5)
    assert "51.75" in str(exc.value)
    assert exc.value.minimal_base == pytest.approx(51.75, rel=1e-12)
    # the exact minimal base is feasible, just below is not
    make_config(0.2, 51.75)
    with pytest.raises(FeasibilityError):
        make_config(0.2, 51.74)


def test_discount_rate_map():
    assert discount_rate(math.e ** 2) == pytest.approx(
        0.033833820809153176, rel=1e-15)
    s = np.geomspace(10.0, 1e12, 30)
    rates = np.array([discount_rate(v) for v in s])
    assert np.all(np.diff(rates) < 0)  # strictly decreasing in the position
    assert np.all((rates > 0) & (rates < 1))


def test_position_geometry(config):
    assert config.position_at(0) == config.base
    assert config.position_at(3) == pytest.approx(
        config.base * config.growth ** 3, rel=1e-15)
    with pytest.raises(ValueError):
        update_distribution(config, -1, 0.5, 0.5)
    with pytest.raises(ValueError):
        update_distribution(config, [2, -1], 0.5, 0.5)


@pytest.mark.parametrize("base, last", [(100.0, 31425), (1.1e7, 30897)])
def test_levels_stop_at_the_last_normal_rate(base, last):
    config = make_config(0.2, base)
    assert config.last_level == last
    assert config.rate_at(last) >= sys.float_info.min
    assert 0.0 < discount_rate(config.base * config.growth ** (last + 1)) \
        < sys.float_info.min
    for level in (last + 1, 40_000):  # subnormal rate; overflowing position
        with pytest.raises(ValueError, match=f"past level {last}"):
            config.rate_at(level)


def test_update_distribution_hand_value(config):
    # excess d = 1 - 0.5 + 0.1 = 0.6 at level 1, position 100*gamma:
    # climb probability d / (position * (growth-1))
    p_up, p_stay, p_down = update_distribution(config, 1, 1.0, 0.5)
    assert p_up == pytest.approx(0.2641304347826096, rel=1e-14)
    assert p_down == 0.0
    assert p_up + p_stay + p_down == pytest.approx(1.0, abs=1e-15)


def test_update_distribution_directions(config):
    p_up, _, p_down = update_distribution(config, 5, 1.0, 0.4)
    assert p_up > 0 and p_down == 0.0  # d > 0: climb only
    p_up, _, p_down = update_distribution(config, 5, 0.0, 0.7)
    assert p_up == 0.0 and p_down > 0  # d < 0: descend only
    _, _, p_down = update_distribution(config, 0, 0.0, 0.7)
    assert p_down == 0.0  # the counter never leaves the grid


def test_update_distribution_checks_unit_inputs(config):
    for payoff, value in ((1.5, 0.5), (0.5, -0.1), ([0.2, float("nan")], 0.5)):
        with pytest.raises(ValueError):
            update_distribution(config, 1, payoff, value)


def test_update_distribution_matches_scalar_law(config):
    """One call over a (level, payoff, value) grid gives, cell by cell,
    the bits of the scalar closed form, at every level 0..500: positions
    vectorized as growth ** arange(L) * base can differ from position_at
    in the last bit."""
    rng = make_rng(23)
    levels = np.arange(501)
    x = rng.uniform(size=5)
    v = rng.uniform(size=6)
    grid = update_distribution(config, levels[:, None, None],
                               x[None, :, None], v[None, None, :])
    assert grid.shape == (501, 5, 6, 3)
    want = np.array([[[move_law(config, k, b, c) for c in v.tolist()]
                      for b in x.tolist()] for k in levels.tolist()])
    off = np.unique(np.argwhere(grid != want)[:, 0])
    assert off.size == 0, f"levels off the scalar law: {off.tolist()}"


def test_drift_identity(config):
    """Expected position change equals payoff - value + epsilon/2 exactly."""
    rng = make_rng(20)
    gm1 = config.growth - 1.0
    for _ in range(1000):
        k = int(rng.integers(1, 400))
        x = float(rng.uniform())
        v = float(rng.uniform())
        s = config.position_at(k)
        p_up, _, p_down = update_distribution(config, k, x, v)
        drift = (p_up * s * gm1 - p_down * s * gm1 / config.growth)
        assert abs(drift - (x - v + config.epsilon / 2.0)) <= 1e-12


def test_drift_identity_at_level_zero(config):
    rng = make_rng(21)
    gm1 = config.growth - 1.0
    for _ in range(1000):
        x, v = float(rng.uniform()), float(rng.uniform())
        p_up, _, _ = update_distribution(config, 0, x, v)
        drift = p_up * config.base * gm1
        want = max(x - v + config.epsilon / 2.0, 0.0)
        assert abs(drift - want) <= 1e-12


def test_jump_probability_bound(config):
    rng = make_rng(22)
    gm1 = config.growth - 1.0
    for _ in range(1000):
        k = int(rng.integers(0, 400))
        p_up, p_stay, p_down = update_distribution(
            config, k, float(rng.uniform()), float(rng.uniform()))
        assert p_up + p_down <= 2.0 / (config.position_at(k) * gm1)
        assert p_up >= 0 and p_down >= 0 and p_stay >= 0


def test_sample_update_threshold_map(config):
    """A uniform u moves up when u < p_up and down when u >= p_up + p_stay:
    sample_rows over the cut points (p_up, p_up + p_stay) of the
    (up, stay, down) row."""
    def step(level, x, v, u):
        p_up, p_stay, _ = update_distribution(config, level, x, v)
        cuts = np.array([p_up, p_up + p_stay])
        move = int(sample_rows(cuts, np.float64(u)))
        return level + (1, 0, -1)[move]

    p_up, _, _ = update_distribution(config, 3, 1.0, 0.2)
    assert p_up > 0
    assert step(3, 1.0, 0.2, p_up / 2) == 4
    assert step(3, 1.0, 0.2, p_up) == 3
    assert step(3, 1.0, 0.2, 0.999999999) == 3

    _, _, p_down = update_distribution(config, 3, 0.0, 0.9)
    assert p_down > 0
    assert step(3, 0.0, 0.9, 0.999999999) == 2
    assert step(3, 0.0, 0.9, 0.0) == 3

    assert step(0, 0.0, 0.9, 0.999999999) == 0


def test_validate_constants_base_100(bm, config, cache):
    report = validate_constants(config, bm, cache, 40)
    by_name = {c.name: c for c in report.checks}
    assert set(by_name) == {"value_variation", "value_floor", "step_log",
                            "rate_variation"}
    # the rate-variation surrogate genuinely misses at this base: the
    # neighbouring-rate relative gap just exceeds epsilon/8 at low levels
    assert not by_name["rate_variation"].passed
    assert min(by_name["rate_variation"].margins) == pytest.approx(
        -3.2e-06, abs=1e-6)
    assert by_name["value_variation"].passed
    assert by_name["value_floor"].passed
    assert by_name["step_log"].passed
    assert not report.all_pass
    text = "\n".join(report.lines())
    assert "rate_variation: FAIL" in text


def test_validate_constants_large_base(bm):
    # two-sided neighbour comparison: the upward gap needs
    # ln(base) >= 2*growth*ln(growth) / (epsilon/8 - (growth-1)),
    # about 1.1e7 at this epsilon
    from stochgame import SolutionCache
    cfg = make_config(0.2, 1.1e7)
    report = validate_constants(cfg, bm, SolutionCache(bm, cfg), 25)
    assert report.all_pass
    assert "rate_variation: PASS" in "\n".join(report.lines())

    cfg_low = make_config(0.2, 5e6)
    low = validate_constants(cfg_low, bm, SolutionCache(bm, cfg_low), 25)
    assert not low.all_pass


def test_validate_constants_reads_cached_levels(bm, config, monkeypatch):
    """With every level up to the depth cached, the report solves nothing."""
    cache = discounted.SolutionCache(bm, config)
    for k in range(6):
        cache.at(k)
    calls = []
    solve = discounted.solve_discounted
    monkeypatch.setattr(discounted, "solve_discounted",
                        lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    report = validate_constants(config, bm, cache, 5)
    assert calls == []
    assert len(cache) == 6
    assert report.limit_spread == pytest.approx(0.0, abs=1e-9)


def test_validate_constants_spread_is_limit_estimate(config):
    # two states that swap each stage: v_lam = (1, 1 - lam) / (2 - lam)
    alternator = normalize_payoffs(GameSpec(
        states=("left", "right"), actions1=("stay",), actions2=("go",),
        payoff=np.array([[[1.0]], [[0.0]]]),
        transition=np.array([[[[0.0, 1.0]]], [[[1.0, 0.0]]]]),
        initial_state=0))
    cache = discounted.SolutionCache(alternator, config)
    report = validate_constants(config, alternator, cache, 6)
    _, spread = discounted.limit_estimate(
        [cache.at(k).values for k in range(7)])
    assert report.limit_spread == spread > 0.0


def test_validate_constants_depth_guard(bm, config, cache):
    with pytest.raises(ValueError):
        validate_constants(config, bm, cache, 0)


def test_config_is_frozen(config):
    with pytest.raises(Exception):
        config.epsilon = 0.3
    assert isinstance(config, CounterConfig)
    assert update_distribution(config, 1, 1.0, 0.5).shape == (3,)
    assert not hasattr(counter, "MemoryUpdate")
