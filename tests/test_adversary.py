"""Opponent tooling: clocked best responses and the worthlessness mixture.

The best-response oracles here are independent re-implementations: exact
Fraction-arithmetic play evaluation plus brute-force enumeration over pure
clocked policies.
"""

import dataclasses
import functools
import io
import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stochgame import adversary, games
from stochgame import (GameSpec, SolutionCache, WorthlessnessError,
                       big_match, build_worthlessness_adversary,
                       load_strategy_table, normalize_payoffs,
                       save_strategy_table)
from stochgame.adversary import (BestResponseAdversary, MarkovAdversary,
                                 MixedClockedAdversary,
                                 PublicMemoryStrategyTable,
                                 best_response_public, big_match_indices,
                                 from_counter_strategy, pure_column_adversary,
                                 stationary_adversary)
from stochgame.engine import StationaryStrategy, run_traces
from stochgame.games import stage_row

from conftest import make_rng
from reference import (best_response_dense, best_response_exact, move_law,
                       worthlessness_reference)


# ---------------------------------------------------------------- helpers

def bm_exact_arrays():
    """Big-match payoff/transition as nested int lists (exact arithmetic)."""
    g = big_match()
    return g.payoff.astype(int).tolist(), g.transition.astype(int).tolist()


def random_rational_table(rng, horizon, m_states, ni=2, nj=2, nz=3):
    """Random strategy table with small-denominator rational entries."""
    def simplex(k):
        nums = [int(rng.integers(1, 5)) for _ in range(k)]
        den = sum(nums)
        return [Fraction(n, den) for n in nums]

    action = [[simplex(ni) for _ in range(m_states)] for _ in range(horizon)]
    kernel = [[[[[simplex(m_states) for _ in range(nz)]
                 for _ in range(nj)] for _ in range(ni)]
               for _ in range(m_states)] for _ in range(horizon)]
    return action, kernel


def to_float_table(action, kernel, m_states):
    act = np.array(action, dtype=np.float64)
    ker = np.array(kernel, dtype=np.float64)
    return PublicMemoryStrategyTable(
        memory_states=m_states, horizon=len(action),
        action=act, memory_kernel=ker)


def exact_play_value(payoff, transition, action, kernel, policy_fn, horizon,
                     z0, m0=0):
    """Forward exact evaluation of sigma against one pure clocked policy."""
    nz, ni = len(payoff), len(payoff[0])
    m_states = len(action[0])
    dist = {(z0, m0): Fraction(1)}
    total = Fraction(0)
    for t in range(horizon):
        act, ker = action[t], kernel[t]
        ndist = {}
        for (z, m), p in dist.items():
            j = policy_fn(t, z, m)
            for i in range(ni):
                w = act[m][i]
                if w == 0:
                    continue
                total += p * w * payoff[z][i][j]
                for z2 in range(nz):
                    pz = transition[z][i][j][z2]
                    if pz == 0:
                        continue
                    for m2 in range(m_states):
                        pm = ker[m][i][j][z2][m2]
                        if pm == 0:
                            continue
                        key = (z2, m2)
                        ndist[key] = ndist.get(key, Fraction(0)) + p * w * pz * pm
        dist = ndist
    return total / horizon


def stationary_table(a_abs: float) -> PublicMemoryStrategyTable:
    """One memory cell, absorb with probability a_abs every stage."""
    return PublicMemoryStrategyTable(
        memory_states=1, horizon=None,
        action=np.array([[[a_abs, 1.0 - a_abs]]]),
        memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))


# ------------------------------------------------------- table container

def test_table_validation():
    with pytest.raises(ValueError):
        PublicMemoryStrategyTable(
            memory_states=1, horizon=None,
            action=np.array([[[0.7, 0.7]]]),  # does not sum to one
            memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))
    with pytest.raises(ValueError):
        PublicMemoryStrategyTable(
            memory_states=2, horizon=None,
            action=np.array([[[0.5, 0.5]]]),  # memory axis mismatch
            memory_kernel=np.ones((1, 2, 2, 2, 3, 2)) / 2.0)
    tab = stationary_table(0.25)
    assert tab.stationary
    np.testing.assert_array_equal(stage_row(tab.action, 999), tab.action[0])


def test_table_round_trip(tmp_path):
    rng = make_rng(30)
    action, kernel = random_rational_table(rng, horizon=3, m_states=2)
    tab = to_float_table(action, kernel, 2)
    path = str(tmp_path / "table.json")
    save_strategy_table(tab, path)
    back = load_strategy_table(path)
    assert back.memory_states == tab.memory_states
    assert back.horizon == tab.horizon
    np.testing.assert_array_equal(back.action, tab.action)
    np.testing.assert_array_equal(back.memory_kernel, tab.memory_kernel)

    # stationary tables keep horizon None across the round trip
    stat = stationary_table(0.25)
    spath = str(tmp_path / "stat.json")
    save_strategy_table(stat, spath)
    back2 = load_strategy_table(spath)
    assert back2.horizon is None and back2.stationary
    np.testing.assert_array_equal(back2.action, stat.action)


def test_saved_table_bytes_equal_json_dump(tmp_path):
    """save_strategy_table writes json.dump's bytes and a newline, for a
    per-stage and a stationary table."""
    action, kernel = random_rational_table(make_rng(31), horizon=4, m_states=3)
    for tab in (to_float_table(action, kernel, 3), stationary_table(0.25)):
        doc = {"M": tab.memory_states, "horizon": tab.horizon,
               "action": tab.action.tolist(),
               "memory_kernel": tab.memory_kernel.tolist()}
        if tab.stationary:  # stationary tables are saved without stage axis
            doc["action"] = doc["action"][0]
            doc["memory_kernel"] = doc["memory_kernel"][0]
        expected = io.StringIO()
        json.dump(doc, expected)
        path = tmp_path / "table.json"
        save_strategy_table(tab, str(path))
        assert path.read_text(encoding="utf-8") == expected.getvalue() + "\n"


def test_table_load_rejects_bad_rows(tmp_path):
    tab = stationary_table(0.25)
    path = tmp_path / "bad.json"
    save_strategy_table(tab, str(path))
    doc = json.loads(path.read_text())
    doc["action"][0][0] = 0.9  # break the simplex constraint
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_strategy_table(str(path))


@pytest.mark.parametrize("key", ["action", "memory_kernel"])
def test_table_load_rejects_non_numeric_tables(tmp_path, key):
    path = tmp_path / "table.json"
    save_strategy_table(stationary_table(0.25), str(path))
    doc = json.loads(path.read_text())
    doc[key] = {"rows": 1}  # a TypeError inside numpy, reported as bad input
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="ragged or non-numeric"):
        load_strategy_table(str(path))


@pytest.mark.parametrize("key, value", [
    ("horizon", 2.7), ("horizon", True), ("horizon", "2"), ("M", True),
    ("M", 1.0), ("M", None)])
def test_table_load_requires_integer_sizes(tmp_path, key, value):
    path = tmp_path / "table.json"
    save_strategy_table(stationary_table(0.25), str(path))
    doc = json.loads(path.read_text())
    doc[key] = value  # never truncated or read as 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"field '{key}' must be a JSON "
                                         f"integer, got {json.dumps(value)}"):
        load_strategy_table(str(path))


# ------------------------------------------------------- best responses

def test_horizon_one_closed_form(bm, live):
    """One stage: the opponent collects min(1-a, a); ties pick action one."""
    for a, want_value, want_action in ((0.0, 0.0, 1), (0.2, 0.2, 1),
                                       (0.5, 0.5, 1), (0.7, 0.3, 0),
                                       (1.0, 0.0, 0)):
        br = best_response_public(bm, stationary_table(a), 1)
        assert br.value == pytest.approx(want_value, abs=1e-12)
        assert br.policy[0, live, 0] == want_action


@pytest.mark.parametrize("columns, want", [((0.0, 1.0, 0.0), 2),
                                           ((0.0, 0.0, 1.0), 1),
                                           ((1.0, 0.0, 1.0), 1)])
def test_ties_go_to_the_higher_column(columns, want):
    """Three columns, one state: among the columns that pay least, the
    policy plays the one with the highest index at every stage."""
    game = normalize_payoffs(GameSpec(
        states=("a",), actions1=("x", "y"), actions2=("p", "q", "r"),
        payoff=np.array([[columns, columns]]),
        transition=np.ones((1, 2, 3, 1)), initial_state=0))
    tab = PublicMemoryStrategyTable(
        memory_states=1, horizon=None, action=np.array([[[0.5, 0.5]]]),
        memory_kernel=np.ones((1, 1, 2, 3, 1, 1)))
    br = best_response_public(game, tab, 3)
    assert np.all(br.policy == want)
    assert br.value == 0.0


def test_always_continue_is_worthless_to_respond_to(bm, live):
    br = best_response_public(bm, stationary_table(0.0), 50)
    assert br.value == pytest.approx(0.0, abs=1e-12)
    assert np.all(br.policy[:, live, 0] == 1)


def test_exact_matches_enumeration_on_big_match():
    """Fraction backward induction equals brute force over pure clocked
    policies; the benchmark game makes (t, m) tables sufficient."""
    payoff, transition = bm_exact_arrays()
    rng = make_rng(31)
    horizon, m_states = 3, 2
    for _ in range(4):
        action, kernel = random_rational_table(rng, horizon, m_states)
        policy, value = best_response_exact(payoff, transition, action,
                                            kernel, horizon, 0)
        cells = list(itertools.product(range(horizon), range(m_states)))
        best = None
        for bits in itertools.product((0, 1), repeat=len(cells)):
            table = dict(zip(cells, bits))
            v = exact_play_value(payoff, transition, action, kernel,
                                 lambda t, z, m: table[(t, m)], horizon, 0)
            best = v if best is None or v < best else best
        assert value == best  # exact Fraction equality
        # and the policy itself achieves the optimum when replayed
        replay = exact_play_value(payoff, transition, action, kernel,
                                  lambda t, z, m: policy[t][z][m], horizon, 0)
        assert replay == best


def test_exact_matches_enumeration_on_general_game():
    """Three nontrivial states: enumeration over full (t, z, m) policies."""
    rng = make_rng(32)

    def simplex(k):
        nums = [int(rng.integers(1, 4)) for _ in range(k)]
        den = sum(nums)
        return [Fraction(n, den) for n in nums]

    nz, ni, nj, horizon, m_states = 3, 2, 2, 2, 2
    payoff = [[[Fraction(int(rng.integers(0, 5)), 4) for _ in range(nj)]
               for _ in range(ni)] for _ in range(nz)]
    transition = [[[simplex(nz) for _ in range(nj)] for _ in range(ni)]
                  for _ in range(nz)]
    action, kernel = random_rational_table(rng, horizon, m_states,
                                           ni=ni, nj=nj, nz=nz)
    policy, value = best_response_exact(payoff, transition, action, kernel,
                                        horizon, 0)
    cells = list(itertools.product(range(horizon), range(nz),
                                   range(m_states)))
    best = None
    for bits in itertools.product(range(nj), repeat=len(cells)):
        table = dict(zip(cells, bits))
        v = exact_play_value(payoff, transition, action, kernel,
                             lambda t, z, m: table[(t, z, m)], horizon, 0)
        best = v if best is None or v < best else best
    assert value == best


def test_float_path_agrees_with_exact(bm):
    payoff, transition = bm_exact_arrays()
    rng = make_rng(33)
    for horizon, m_states in ((1, 1), (3, 2), (4, 2)):
        action, kernel = random_rational_table(rng, horizon, m_states)
        _, value = best_response_exact(payoff, transition, action, kernel,
                                       horizon, 0)
        br = best_response_public(bm, to_float_table(action, kernel,
                                                     m_states), horizon)
        assert br.value == pytest.approx(float(value), abs=1e-12)


def sparse_rows(rng, shape, zero_share=0.3):
    """Random probability rows along the last axis, about zero_share of the
    entries zero (never a whole row)."""
    rows = rng.random(shape) * (rng.random(shape) >= zero_share)
    rows[..., 0] += rows.sum(axis=-1) == 0
    return rows / rows.sum(axis=-1, keepdims=True)


def test_sparse_law_matches_dense_on_counter_table(bm, config, cache, live):
    """The cap-40 counter table: the same value to 1e-13 and the same
    live-state policy as the dense four-einsum loop.  Absorbing states are
    left out: there both columns pay alike and round-off picks the action."""
    tab = from_counter_strategy(bm, config, cache, 40, 2000)
    br = best_response_public(bm, tab, 2000)
    want, _ = best_response_dense(bm, tab, 2000)
    assert br.value == pytest.approx(want.value, rel=1e-13)
    np.testing.assert_array_equal(br.policy[:, live], want.policy[:, live])


@pytest.mark.parametrize("action_rows,kernel_rows",
                         [(5, 5), (5, 1), (1, 5)])
def test_sparse_law_matches_dense_on_general_game(action_rows, kernel_rows):
    """Three states, three actions each, per-stage and stationary rows in
    every combination, so the law is rebuilt whenever either row changes.
    Policies must agree wherever the dense loop's winner leads by > 1e-9."""
    rng = make_rng(34 + 10 * action_rows + kernel_rows)
    nz = ni = nj = 3
    m_states, horizon = 4, 5
    game = normalize_payoffs(GameSpec(
        states=("a", "b", "c"), actions1=("x", "y", "w"),
        actions2=("p", "q", "r"), payoff=rng.random((nz, ni, nj)),
        transition=sparse_rows(rng, (nz, ni, nj, nz)), initial_state=0))
    for _ in range(3):
        tab = PublicMemoryStrategyTable(
            memory_states=m_states, horizon=horizon,
            action=sparse_rows(rng, (action_rows, m_states, ni)),
            memory_kernel=sparse_rows(
                rng, (kernel_rows, m_states, ni, nj, nz, m_states)))
        br = best_response_public(game, tab, horizon)
        want, gap = best_response_dense(game, tab, horizon)
        assert br.value == pytest.approx(want.value, rel=1e-13)
        clear = gap > 1e-9
        assert clear.mean() > 0.9
        np.testing.assert_array_equal(br.policy[clear], want.policy[clear])


def test_best_response_memory_bounded_by_kernel(bm, config, cache):
    """The one-step law is built one source state at a time: at cap 300 the
    traced peak stays within 1.1 kernels plus the policy.  Building all
    source states at once would take 1.5 kernels."""
    tab = from_counter_strategy(bm, config, cache, 300, 50)
    tracemalloc.start()
    try:
        br = best_response_public(bm, tab, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * tab.memory_kernel.nbytes + br.policy.nbytes


def test_best_response_rejects_mismatched_table(bm):
    with pytest.raises(ValueError):
        best_response_public(bm, stationary_table(0.5), 0)
    bad = PublicMemoryStrategyTable(
        memory_states=1, horizon=None,
        action=np.array([[[0.2, 0.3, 0.5]]]),  # three row actions
        memory_kernel=np.ones((1, 1, 3, 2, 3, 1)))
    with pytest.raises(ValueError):
        best_response_public(bm, bad, 2)


def test_best_response_rejects_oversized_policy(bm):
    # 2^27 stages x 3 states x 1 memory state of int8 exceed 2^28 bytes
    with pytest.raises(ValueError, match="best-response horizon 134217728 "
                                         "needs 4.03e\\+08 bytes"):
        best_response_public(bm, stationary_table(0.5), 1 << 27)


def test_from_counter_strategy_rejects_bad_cap(bm, config, cache):
    for cap in (-1, config.last_level + 1):  # no kernel is built for either
        with pytest.raises(ValueError, match=f"counter cap {cap} must lie"):
            from_counter_strategy(bm, config, cache, cap, 10)
    # 1672^2 cells of 12 float64 exceed the 2^28-byte kernel limit
    fresh = SolutionCache(bm, config)
    with pytest.raises(ValueError, match="largest cap that fits is 1671"):
        from_counter_strategy(bm, config, fresh, 1671 + 1, 10)
    assert len(fresh) == 0  # rejected before any level was solved


@pytest.mark.parametrize("name, limit", [
    ("cap", 1 << 16), ("best-response", 1 << 12), ("always-c", 1 << 20),
    ("cap-40", 1 << 22), ("trace-r1", 1 << 18), ("trace-r1000", 1 << 22)])
def test_every_refusal_names_a_size_that_fits(bm, config, cache, monkeypatch,
                                              name, limit):
    """Under a small byte limit, the size a refusal names builds, and one
    more is refused naming the same size."""
    half = StationaryStrategy(np.full((3, 2), 0.5))
    uniform = stationary_adversary(np.full((3, 2), 0.5))
    build = {  # each a build of the given size; tables made at the full limit
        "cap": lambda cap: from_counter_strategy(bm, config, cache, cap, 10),
        "best-response": lambda t: best_response_public(
            bm, stationary_table(0.5), t),
        "always-c": lambda t: build_worthlessness_adversary(
            bm, stationary_table(0.0), 0.1, t),
        "cap-40": functools.partial(
            build_worthlessness_adversary, bm,
            from_counter_strategy(bm, config, cache, 40, None), 0.1),
        "trace-r1": lambda h: run_traces(bm, half, uniform, h, 1, 1),
        "trace-r1000": lambda h: run_traces(bm, half, uniform, h, 1000, 1),
    }[name]
    monkeypatch.setattr(games, "MAX_TABLE_BYTES", limit)
    with pytest.raises(ValueError) as info:
        build(10 ** 4)
    fits = int(re.search(r"the largest .* that fits is (\d+)$",
                         str(info.value)).group(1))
    build(fits)
    with pytest.raises(ValueError, match=f"that fits is {fits}$"):
        build(fits + 1)


def test_from_counter_strategy_layout(bm, config, cache, live):
    cap = 8
    tab = from_counter_strategy(bm, config, cache, cap, 500)
    assert tab.memory_states == cap + 1
    assert tab.stationary
    for m in (0, 3, cap):
        np.testing.assert_allclose(tab.action[0, m],
                                   cache.at(m).strategy1[live], atol=1e-15)
    kernel = tab.memory_kernel[0]
    np.testing.assert_allclose(kernel.sum(axis=4), 1.0, atol=1e-12)
    assert np.all(kernel >= 0)
    # every row is the scalar move law, bit for bit; at the cap, climbing
    # mass folds into staying
    for m, i, j, zn in np.ndindex(kernel.shape[:4]):
        up, stay, down = move_law(config, m, float(bm.game.payoff[live, i, j]),
                                  float(cache.at(m).values[zn]))
        want = np.zeros(cap + 1)
        want[m] = stay + up if m == cap else stay
        if m < cap:
            want[m + 1] = up
        if m > 0:
            want[m - 1] = down
        np.testing.assert_array_equal(kernel[m, i, j, zn], want)


def test_best_response_adversary_reuse(bm, config, cache):
    tab = from_counter_strategy(bm, config, cache, 4, 64)
    br = best_response_public(bm, tab, 64)
    adv = BestResponseAdversary(br.policy, 64)
    adv.prepare(100)  # longer play than the build horizon is allowed
    j = adv.act(99, np.array([0]), np.array([2]), None,
                np.array([0.5]))
    assert j.shape == (1,) and j[0] in (0, 1)
    # memory beyond the table clamps to its deepest row
    j_deep = adv.act(5, np.array([0]), np.array([400]), None,
                     np.array([0.5]))
    assert j_deep[0] in (0, 1)


def test_best_response_played_shorter_plays_its_endgame(bm, config, cache,
                                                        live):
    """A plan built for 2000 stages and played for 100 plays its last 100
    rows, which are the 100-stage best response."""
    tab = from_counter_strategy(bm, config, cache, 4, 2000)
    adv = BestResponseAdversary(best_response_public(bm, tab, 2000).policy,
                                2000)
    adv.prepare(100)
    want = best_response_public(bm, tab, 100).policy
    m = np.arange(5)
    z = np.full(5, live)
    for t in range(1, 101):
        np.testing.assert_array_equal(adv.act(t, z, m, None, None),
                                      want[t - 1, live])


# ------------------------------------------------- big-match recognition

def test_big_match_indices_canonical(bm):
    idx = big_match_indices(bm)
    assert idx.live == 0
    assert idx.absorb_action == 0 and idx.continue_action == 1
    assert idx.col_zero == 0 and idx.col_one == 1


def test_big_match_indices_permuted():
    g = big_match()
    # swap the two row actions and the two columns
    payoff = g.payoff[:, ::-1, ::-1].copy()
    transition = g.transition[:, ::-1, ::-1, :].copy()
    permuted = GameSpec(states=g.states, actions1=("C", "A"),
                        actions2=("1", "0"), payoff=payoff,
                        transition=transition, initial_state=0)
    idx = big_match_indices(normalize_payoffs(permuted))
    assert idx.absorb_action == 1 and idx.continue_action == 0
    assert idx.col_zero == 1 and idx.col_one == 0


def test_big_match_indices_rejects_other_games():
    g = GameSpec(
        states=("left", "right"), actions1=("stay",), actions2=("go",),
        payoff=np.array([[[1.0]], [[0.0]]]),
        transition=np.array([[[[0.0, 1.0]]], [[[1.0, 0.0]]]]),
        initial_state=0)
    with pytest.raises(ValueError):
        big_match_indices(normalize_payoffs(g))


# ----------------------------------------------- worthlessness mixture

@pytest.fixture
def stage_rows(monkeypatch):
    """The (T,) stage payoffs of each construction step, recorded as
    adversary._forward_pass hands them to the builder."""
    rows = []
    forward = adversary._forward_pass

    def record(*args):
        out = forward(*args)
        rows.append(out[2])
        return out
    monkeypatch.setattr(adversary, "_forward_pass", record)
    return rows


def test_worthlessness_always_continue(bm, stage_rows):
    res = build_worthlessness_adversary(bm, stationary_table(0.0),
                                        delta=0.1, horizon=10_000)
    cert = res.certificate
    # M = 1 memory cell: floor((1+1)/0.1) + 1 = 21 components
    assert len(res.mixture.components) == cert.n_components == 21
    # hot from the very first stage; the second step adds no cell
    assert len(cert.budgets) == 2
    assert cert.switch_stages == (1, 1)
    assert cert.mixture_avg_payoff == pytest.approx(1.0 / 21.0, rel=1e-12)
    # only the all-zeros component pays; every enlarged one starves
    component_avgs = np.mean(stage_rows, axis=1)
    assert component_avgs[0] == pytest.approx(1.0)
    assert max(component_avgs[1:]) == pytest.approx(0.0)
    assert cert.witness_value == pytest.approx(0.0, abs=1e-12)
    assert cert.max_exceed_count <= 2  # memory cells + 1
    assert all(b < 0.1 / 3.0 for b in cert.budgets)


def test_worthlessness_stops_once_components_repeat(bm, stage_rows):
    """Once an enlargement step adds no cell, the rest of the mixture
    repeats it: no further forward pass, and no certificate entry."""
    res = build_worthlessness_adversary(bm, stationary_table(0.0),
                                        delta=0.05, horizon=2000)
    cert = res.certificate
    comps = res.mixture.components
    assert len(comps) == 41  # floor((1+1)/0.05) + 1
    assert len({c.ones for c in comps}) == 2
    assert all(c is comps[1] for c in comps[1:])  # equal sets, one object
    assert cert.n_components == 41
    assert np.shape(stage_rows) == (2, 2000)  # two forward passes
    assert len(cert.budgets) == 2
    assert cert.switch_stages == (1, 1)
    assert len(cert.tails) == 2
    assert cert.mixture_avg_payoff == pytest.approx(1.0 / 41.0, rel=1e-12)


def test_worthlessness_half_absorbing(bm):
    res = build_worthlessness_adversary(bm, stationary_table(0.5),
                                        delta=0.1, horizon=10_000)
    cert = res.certificate
    # running average drops below delta after stage 3; the absorb tail
    # (1/2)^n crosses 1e-3 at n = 10
    assert cert.switch_stages[0] == 10
    assert cert.mixture_avg_payoff == pytest.approx(1e-4, rel=1e-9)
    assert cert.witness_value == pytest.approx(0.0, abs=1e-12)
    assert all(t < 1e-3 for t in cert.tails)


def test_worthlessness_capped_counter(bm, config, cache, stage_rows):
    tab = from_counter_strategy(bm, config, cache, 8, 10_000)
    res = build_worthlessness_adversary(bm, tab, delta=0.1, horizon=10_000)
    cert = res.certificate
    assert cert.memory_states == 9
    assert cert.n_components == 101  # floor((9+1)/0.1) + 1
    # the first step adds no cell: all 101 components play column zero
    assert len(cert.budgets) == 1 and cert.switch_stages == (9896,)
    assert cert.mixture_avg_payoff == pytest.approx(0.26510404604038046,
                                                    rel=1e-12)
    assert cert.mixture_avg_payoff <= 3 * 0.1
    assert cert.witness_value == pytest.approx(0.03075593198119241,
                                               rel=1e-10)
    assert cert.witness_value <= 0.1
    assert cert.t_delta == 9896
    assert cert.max_exceed_count <= 10
    assert all(b < 0.1 / 3.0 for b in cert.budgets)
    assert all(t < 1e-3 for t in cert.tails)
    assert np.shape(stage_rows) == (1, 10_000)  # one forward pass


def test_worthlessness_degenerate_delta(bm):
    res = build_worthlessness_adversary(bm, stationary_table(0.0),
                                        delta=1.0, horizon=100)
    assert len(res.mixture.components) == 1
    assert res.certificate.switch_stages == ()


def test_worthlessness_rejects_bad_input(bm, config, cache):
    tab = from_counter_strategy(bm, config, cache, 8, 2_000)
    with pytest.raises(ValueError):
        build_worthlessness_adversary(bm, tab, delta=0.0, horizon=100)
    with pytest.raises(ValueError):
        # beyond the table's horizon
        build_worthlessness_adversary(bm, tab, delta=0.1, horizon=5_000)


def test_worthlessness_horizon_too_short(bm):
    # an absorbing table whose payoff stays hot through the whole short
    # horizon: every marked cell costs absorb mass, so the delta/3 budget
    # can never clear and the builder names the binding constraint
    with pytest.raises(WorthlessnessError) as exc:
        build_worthlessness_adversary(bm, stationary_table(0.05), delta=0.1,
                                      horizon=4)
    assert "absorb-action budget" in str(exc.value)
    assert "too short" in str(exc.value)


def test_worthlessness_certificate_lines(bm):
    res = build_worthlessness_adversary(bm, stationary_table(0.0),
                                        delta=0.05, horizon=2000)
    assert res.certificate.lines() == [
        "components: 41  (memory states 1, delta 0.05)",
        "t_delta (max switch stage): 1",
        "max budget: 0 < delta/3 = 0.0166667: PASS",
        "max truncation tail: 0.000e+00 < 0.001: PASS",
        "certificate count: max 1 <= M+1 = 2: PASS",
        "exact mixture average payoff at horizon: 0.0243902 "
        "(target < 3*delta = 0.15)",
        "eventual-payoff witness (best component, late window): 0 "
        "(target <= delta = 0.05)",
    ]


@pytest.mark.parametrize("field, value", [
    ("budgets", (0.0, 0.05 / 3)), ("tails", (1e-3,)),
    ("max_exceed_count", 3), ("mixture_avg_payoff", 3 * 0.05)])
def test_worthlessness_every_condition_can_fail_the_verdict(bm, field,
                                                            value):
    """Each of the four conditions, set to its bound, flips the verdict;
    the budget, tail and count lines then read FAIL, and the mixture
    average line carries no PASS or FAIL of its own."""
    cert = build_worthlessness_adversary(bm, stationary_table(0.0),
                                         delta=0.05, horizon=2000).certificate
    assert cert.passed
    bad = dataclasses.replace(cert, **{field: value})
    assert not bad.passed
    fails = [line for line in bad.lines() if line.endswith("FAIL")]
    assert len(fails) == (field != "mixture_avg_payoff")


def random_stage_table(seed, m_states, horizon):
    """Per-stage table that absorbs with probability below 0.002 and moves
    the memory by random dense rows."""
    rng = make_rng(seed)
    absorb = 0.002 * rng.random((horizon, m_states))
    return PublicMemoryStrategyTable(
        memory_states=m_states, horizon=horizon,
        action=np.stack([absorb, 1.0 - absorb], axis=-1),
        memory_kernel=rng.dirichlet(np.full(m_states, 0.5),
                                    size=(horizon, m_states, 2, 2, 3)))


@pytest.mark.parametrize("kind, size", [("always-c", 1), ("cap", 1),
                                        ("cap", 8), ("cap", 32),
                                        ("random", 5), ("random", 12)])
def test_worthlessness_matches_per_stage_reference(bm, config, cache, kind,
                                                   size, stage_rows):
    """The whole-array builder and the per-stage reference choose the same
    cells, switch stages and budgets, and the builder's running count,
    witness and mixture total equal those the reference reads off its
    stored rows.  The stage payoffs each forward pass hands the builder,
    and the tails, are bit-equal on the always-continue and counter
    tables.  On random per-stage tables the masked row sums group the
    cells by contiguous runs while the reference sums the compacted cells,
    so the last bit may differ there, within a tolerance set from the
    float64 epsilon."""
    horizon = 400 if kind == "random" else 3000
    if kind == "always-c":
        tab, delta = stationary_table(0.0), 0.05
    elif kind == "cap":
        tab, delta = from_counter_strategy(bm, config, cache, size,
                                           horizon), 0.1
    else:
        tab, delta = random_stage_table(160 + size, size, horizon), 0.1
    got = build_worthlessness_adversary(bm, tab, delta, horizon)
    want, want_rows = worthlessness_reference(bm, tab, delta, horizon)
    np.testing.assert_array_equal(got.mixture.first, want.mixture.first)
    cert, ref = got.certificate, want.certificate
    assert cert.switch_stages == ref.switch_stages
    assert cert.budgets == ref.budgets
    assert cert.max_exceed_count == ref.max_exceed_count
    assert cert.lines() == ref.lines()
    rows = np.array(stage_rows)
    read_off = [cert.witness_value, cert.mixture_avg_payoff]
    if kind == "random":
        assert len(cert.budgets) > 2  # several enlargement steps
        tol = 64 * np.finfo(np.float64).eps
        np.testing.assert_allclose(cert.tails, ref.tails, rtol=tol)
        np.testing.assert_allclose(rows, want_rows, rtol=tol, atol=tol)
        np.testing.assert_allclose(
            read_off, [ref.witness_value, ref.mixture_avg_payoff],
            rtol=tol, atol=tol)
    else:
        assert cert.tails == ref.tails
        assert rows.tobytes() == want_rows.tobytes()
        assert read_off == [ref.witness_value, ref.mixture_avg_payoff]


def test_worthlessness_memory_bounded_by_map(bm, config, cache):
    """At cap 16 and T 2e4 the builder's traced peak is at most 3.6 times
    the 8*T*M-byte map; one more (T, M) float array would take it past."""
    horizon = 20_000
    tab = from_counter_strategy(bm, config, cache, 16, horizon)
    _, peak = traced_build(bm, tab, 0.1, horizon)
    assert peak <= 3.6 * 8 * horizon * tab.memory_states


def traced_build(bm, tab, delta, horizon):
    """The builder's result and its traced peak in bytes."""
    tracemalloc.start()
    try:
        res = build_worthlessness_adversary(bm, tab, delta, horizon)
        return res, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cap, horizon, steps", [
    (None, 20_000, 2), (16, 20_000, 1), (32, 10_000, 10), (40, 30_000, 1),
    pytest.param((181, 3), 1000, 10, id="random181-1000-10"),
    pytest.param((175, 2), 2000, 8, id="random175-2000-8")])
def test_worthlessness_size_check_bounds_the_peak(bm, config, cache, cap,
                                                  horizon, steps):
    """The size check's 8*T*(5M + 16) bytes bound the builder's traced
    peak: always-c (131 bytes per stage against 168), counter caps 16, 32
    and 40 (474, 1,212 and 1,098 against 808, 1,448 and 1,768), and random
    per-stage tables, a (tag, M) pair here, of 10 and 8 steps (199 and
    160 against 248 and 208).  The always-c peak per stage is the same at
    T 2e4 and 2e5."""
    if cap is None:
        tab, delta = stationary_table(0.0), 0.05
    elif isinstance(cap, tuple):
        tab, delta = random_stage_table(*cap, horizon), 0.1
    else:
        tab, delta = from_counter_strategy(bm, config, cache, cap,
                                           horizon), 0.1
    res, peak = traced_build(bm, tab, delta, horizon)
    assert len(res.certificate.budgets) == steps
    assert peak <= 8 * horizon * (5 * tab.memory_states + 16)


def test_worthlessness_peak_does_not_grow_with_steps(bm):
    """The builder keeps no row per step: at M 3 and T 1000 a 10-step
    build peaks within 2 % of an 8-step one."""
    peaks = {}
    for tag, steps in ((180, 8), (181, 10)):
        res, peaks[tag] = traced_build(
            bm, random_stage_table(tag, 3, 1000), 0.1, 1000)
        assert len(res.certificate.budgets) == steps
    assert abs(peaks[181] - peaks[180]) <= 0.02 * peaks[180], peaks


# ----------------------------------------------------- engine adapters

def test_mixed_clocked_act_matches_components(bm):
    """Component c plays column one at (t, m) iff c >= first[t-1, m], which
    is iff (t, m) is in its one-set: on a hand-made map and a real build."""
    indices = big_match_indices(bm)
    hand = MixedClockedAdversary(np.array([[0, 3], [2, 1], [3, 3]]), 3,
                                 indices)
    assert [c.ones for c in hand.components] == [
        {(1, 0)}, {(1, 0), (2, 1)}, {(1, 0), (2, 1), (2, 0)}]
    assert hand.cells(2).tolist() == [[1, 0], [2, 0], [2, 1]]  # row-major
    built = build_worthlessness_adversary(bm, stationary_table(0.0),
                                          delta=0.05, horizon=2000).mixture
    for mix in (hand, built):
        horizon, m_states = mix.first.shape
        comp, m = (a.ravel() for a in np.meshgrid(
            np.arange(mix.n_components), np.arange(m_states), indexing="ij"))
        ones = [mix.components[c].ones for c in comp]
        for t in range(1, horizon + 1):
            plays_one = mix.act(t, None, m, comp, None) == indices.col_one
            assert plays_one.tolist() == [(t, x) in s for x, s in zip(m, ones)]


def test_mixed_clocked_component_draws(bm):
    res = build_worthlessness_adversary(bm, stationary_table(0.0),
                                        delta=0.5, horizon=50)
    adv = res.mixture
    n = len(adv.components)
    comp = adv.start(np.array([0.0, 0.999, 1.0 / n + 1e-9]))
    assert comp[0] == 0 and comp[1] == n - 1 and comp[2] == 1
    adv.prepare(50)
    with pytest.raises(ValueError):
        adv.prepare(51)


def test_stationary_and_markov_adapters():
    stat = stationary_adversary(np.full((3, 2), 0.5))
    j = stat.act(1, np.array([0, 1, 2]), None, None, np.array([0.1, 0.6, 0.99]))
    assert j.tolist() == [0, 1, 1]
    # a draw of exactly 1.0 must still land in range
    j_edge = stat.act(1, np.array([0]), None, None, np.array([1.0]))
    assert j_edge[0] == 1

    pure = pure_column_adversary(3, 2, 1)
    j = pure.act(7, np.array([2, 0]), None, None, np.array([0.0, 0.99]))
    assert j.tolist() == [1, 1]

    table = np.zeros((4, 3, 2))
    table[0::2, :, 0] = 1.0  # stages 1 and 3 play column zero
    table[1::2, :, 1] = 1.0
    mk = MarkovAdversary(table)
    z = np.array([0])
    u = np.array([0.5])
    assert mk.act(1, z, None, None, u)[0] == 0
    assert mk.act(2, z, None, None, u)[0] == 1
    assert mk.act(3, z, None, None, u)[0] == 0
    # beyond the table the last row repeats
    assert mk.act(9, z, None, None, u)[0] == 1
