"""Simulation engine: determinism, replay invariance, exact chain oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from stochgame import SolutionCache, make_config, solve_discounted
from stochgame.adversary import (MarkovAdversary, pure_column_adversary,
                                 stationary_adversary)
from stochgame import engine
from stochgame.engine import (CounterStrategy, EpisodeTrace,
                              StationaryStrategy, TableStrategy,
                              default_checkpoints, monte_carlo, pool_size,
                              run_traces, write_statistics_csv,
                              write_trace_csv)
from stochgame.adversary import (PublicMemoryStrategyTable,
                                 build_worthlessness_adversary)
from stochgame.counter import FeasibilityError

from conftest import make_rng
from reference import move_law


@pytest.fixture()
def uniform_tau():
    return stationary_adversary(np.full((3, 2), 0.5))


@pytest.fixture()
def counter_sigma(bm, config, cache):
    return CounterStrategy(bm, config, cache)


def test_run_episode_deterministic(bm, counter_sigma, uniform_tau):
    a, = run_traces(bm, counter_sigma, uniform_tau, 300, 1, 5)
    b, = run_traces(bm, counter_sigma, uniform_tau, 300, 1, 5)
    for field in ("stage_state", "stage_memory", "stage_action1",
                  "stage_action2", "stage_payoff"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    c = run_traces(bm, counter_sigma, uniform_tau, 300, 2, 5)[1]
    assert not np.array_equal(a.stage_payoff, c.stage_payoff)


def test_counter_thresholds_follow_move_law(bm, config, cache):
    sigma = CounterStrategy(bm, config, cache)
    sigma.act(1, np.zeros(1, dtype=np.int64), np.array([11]), np.zeros(1))
    pay = bm.game.payoff
    rows = sigma._cum_shift  # cumulative shifts (+1, 0, -1)
    assert len(rows) == 12   # levels 0..11: up to the deepest played
    for k, z, i, j, zn in np.ndindex(rows.shape[:5]):
        up, stay, down = move_law(config, k, float(pay[z, i, j]),
                                  float(cache.at(k).values[zn]))
        assert tuple(rows[k, z, i, j, zn]) == (up, up + stay,
                                               up + stay + down)


def test_counter_solves_only_the_levels_play_reaches(bm, config,
                                                     uniform_tau):
    """A fresh cache ends with levels 0 up to the deepest that play
    reached, at 4096 replications x 2000 stages, seed 1."""
    cache = SolutionCache(bm, config)
    sigma = CounterStrategy(bm, config, cache)
    stats = monte_carlo(bm, sigma, uniform_tau, 2000, 4096, 1,
                        checkpoints=(2000,))
    deepest = stats.max_memory_quantiles[2000][1.0]
    assert len(cache) == deepest + 1 == 80


def test_uniform_block_is_held_once(bm, uniform_tau):
    """One chunk's traced peak stays below 1.5 times its block of
    uniforms: the streams draw into one buffer, not into copies."""
    reps, horizon = 4096, 600  # one block: 4 uniforms per rep-stage
    sigma = StationaryStrategy(np.full((3, 2), 0.5))
    tracemalloc.start()
    try:
        engine._simulate_chunk(bm, sigma, uniform_tau, horizon, 1, 0, reps,
                               (horizon,), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (4 * 8 * reps * horizon)


def test_trace_consistency(bm, bm_game, counter_sigma, uniform_tau, live):
    tr, = run_traces(bm, counter_sigma, uniform_tau, 500, 1, 9)
    r = bm_game.payoff
    for t in range(500):
        z, i, j = tr.stage_state[t], tr.stage_action1[t], tr.stage_action2[t]
        assert tr.stage_payoff[t] == r[z, i, j]
        if t + 1 < 500:
            z2 = tr.stage_state[t + 1]
            assert bm_game.transition[z, i, j, z2] > 0.0
    assert tr.stage_memory[0] == 0
    steps = np.diff(tr.stage_memory)
    assert set(np.unique(steps)).issubset({-1, 0, 1})
    assert tr.stage_memory.min() >= 0
    if tr.absorption_stage is not None:
        after = tr.stage_state[tr.absorption_stage:]
        assert np.all(after == after[0]) and after[0] != live


def test_absorption_stage_semantics(bm, live):
    # always absorb on the first stage: play the absorb action surely
    sigma = StationaryStrategy(np.array([[1.0, 0.0]] * 3))
    tau = pure_column_adversary(3, 2, 1)
    tr, = run_traces(bm, sigma, tau, 10, 1, 3)
    assert tr.absorption_stage == 1
    assert np.all(tr.stage_state[1:] == bm.game.state_index("abs1"))
    assert tr.stage_payoff[0] == 1.0  # absorbing stage payoff counts

    # never absorb: always continue
    sigma_c = StationaryStrategy(np.array([[0.0, 1.0]] * 3))
    tr2, = run_traces(bm, sigma_c, tau, 10, 1, 3)
    assert tr2.absorption_stage is None
    assert np.all(tr2.stage_state == live)


def test_monte_carlo_matches_single_episode(bm, counter_sigma, uniform_tau):
    horizon = 128
    stats = monte_carlo(bm, counter_sigma, uniform_tau, horizon, 1, 42,
                        checkpoints=(horizon,))
    tr, = run_traces(bm, counter_sigma, uniform_tau, horizon, 1, 42)
    assert stats.mean_avg_payoff[horizon] == pytest.approx(
        tr.stage_payoff.mean(), abs=1e-15)
    assert stats.payoff_se[horizon] == 0.0  # one replication: no spread


def test_worker_count_invariance(bm, counter_sigma, uniform_tau, monkeypatch):
    base = monte_carlo(bm, counter_sigma, uniform_tau, 200, 64, 11)
    for workers in (2, 3, 5):
        other = monte_carlo(bm, counter_sigma, uniform_tau, 200, 64, 11,
                            workers=workers)
        assert other == base

    # several chunks, shared out to workers, must also be worker-invariant
    monkeypatch.setattr(engine, "CHUNK", 17)
    a = monte_carlo(bm, counter_sigma, uniform_tau, 200, 64, 11)
    b = monte_carlo(bm, counter_sigma, uniform_tau, 200, 64, 11, workers=4)
    assert a == b


def test_pool_size_clamps_workers(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    assert pool_size(1, 10) == 1
    assert pool_size(3, 10) == 3
    assert pool_size(10 ** 9, 2) == 2      # no more threads than chunks
    assert pool_size(10 ** 9, 10 ** 6) == 4  # nor than cores
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    assert pool_size(8, 8) == 1


def test_workers_must_be_positive(bm, counter_sigma, uniform_tau):
    with pytest.raises(ValueError, match="workers"):
        monte_carlo(bm, counter_sigma, uniform_tau, 10, 4, 1, workers=0)


def test_run_traces_match_monte_carlo_stream(bm, counter_sigma, uniform_tau):
    traces = run_traces(bm, counter_sigma, uniform_tau, 64, 5, 13)
    assert len(traces) == 5
    assert [t.replication for t in traces] == list(range(5))
    # replication 3 plays the same whatever the run's size
    solo = run_traces(bm, counter_sigma, uniform_tau, 64, 4, 13)[3]
    np.testing.assert_array_equal(traces[3].stage_payoff, solo.stage_payoff)
    stats = monte_carlo(bm, counter_sigma, uniform_tau, 64, 5, 13,
                        checkpoints=(64,))
    assert stats.mean_avg_payoff[64] == pytest.approx(
        np.mean([t.stage_payoff.mean() for t in traces]), abs=1e-15)
    assert stats.max_memory_quantiles[64][1.0] == max(
        int(t.stage_memory.max()) for t in traces)


@pytest.mark.parametrize("pair", ["counter-uniform", "table-mixture"])
def test_run_traces_independent_of_run_size(bm, counter_sigma, uniform_tau,
                                            pair):
    """Trace r is the same in a run of R replications as in one of r + 1;
    the mixture also draws its component at episode start."""
    sigma, tau = counter_sigma, uniform_tau
    if pair == "table-mixture":
        table = PublicMemoryStrategyTable(  # always continue
            memory_states=1, horizon=None, action=np.array([[[0.0, 1.0]]]),
            memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))
        sigma = TableStrategy(table)
        tau = build_worthlessness_adversary(bm, table, 0.1, 120).mixture
    full = run_traces(bm, sigma, tau, 120, 6, 19)
    for r in range(6):
        solo = run_traces(bm, sigma, tau, 120, r + 1, 19)[r]
        for f in dataclasses.fields(EpisodeTrace):
            np.testing.assert_array_equal(getattr(solo, f.name),
                                          getattr(full[r], f.name))


def test_exact_absorption_chain_oracle(bm, live):
    """Stationary optimal play against the all-zeros column: the absorb
    time is geometric, so the expected average payoff has a closed form."""
    lam = 0.01
    sol = solve_discounted(bm, lam)
    sigma = StationaryStrategy(sol.strategy1)
    tau = pure_column_adversary(3, 2, 0)
    n, reps = 100, 4000
    p_a = lam / (1 + lam)
    exact = (1 - p_a) * (1 - (1 - p_a) ** n) / (n * p_a)
    stats = monte_carlo(bm, sigma, tau, n, reps, 17, checkpoints=(n,))
    assert abs(stats.mean_avg_payoff[n] - exact) <= 5 * stats.payoff_se[n]


def test_frozen_seed_regression(bm, counter_sigma, uniform_tau):
    """Bit-exact pipeline fingerprint; a change here means the randomness
    contract (stream layout or consumption order) moved."""
    stats = monte_carlo(bm, counter_sigma, uniform_tau, 50, 200, 7)
    assert stats.mean_avg_payoff[50].hex() == "0x1.f972474538ef3p-2"
    assert stats.payoff_se[50].hex() == "0x1.90430e4efcbe2p-8"
    assert stats.max_memory_quantiles[50] == {0.5: 4, 0.9: 7, 0.99: 10,
                                              1.0: 10}


def test_default_checkpoints_grid():
    assert default_checkpoints(10_000) == (10, 32, 100, 316, 1000, 3162,
                                           10_000)
    assert default_checkpoints(37) == (10, 32, 37)
    assert default_checkpoints(5) == (5,)
    assert default_checkpoints(10) == (10,)


def test_checkpoint_validation(bm, counter_sigma, uniform_tau):
    with pytest.raises(ValueError):
        monte_carlo(bm, counter_sigma, uniform_tau, 100, 4, 1,
                    checkpoints=(0, 50))
    with pytest.raises(ValueError):
        monte_carlo(bm, counter_sigma, uniform_tau, 100, 4, 1,
                    checkpoints=(50, 200))
    # order and duplicates are normalized rather than rejected
    stats = monte_carlo(bm, counter_sigma, uniform_tau, 100, 4, 1,
                        checkpoints=(50, 20, 50))
    assert stats.checkpoints == (20, 50)


def test_input_validation(bm, counter_sigma, uniform_tau):
    # (horizon, replications, base_seed), checked alike by both entry points
    for run in ((0, 4, 1), (10, 0, 1), (10, 4, -1), (10, 4, 2 ** 64)):
        for simulate in (monte_carlo, run_traces):
            with pytest.raises(ValueError):
                simulate(bm, counter_sigma, uniform_tau, *run)


def test_memory_statistics_only_with_counter(bm, counter_sigma, uniform_tau):
    with_mem = monte_carlo(bm, counter_sigma, uniform_tau, 100, 32, 3)
    assert with_mem.exceed_rate is not None
    assert with_mem.uniform_exceed_rate is not None
    q = with_mem.max_memory_quantiles[100]
    assert q[0.5] <= q[0.9] <= q[0.99] <= q[1.0]

    sigma = StationaryStrategy(np.array([[0.5, 0.5]] * 3))
    without = monte_carlo(bm, sigma, uniform_tau, 100, 32, 3)
    assert without.exceed_rate is None
    assert without.uniform_exceed_rate is None


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.2, 0.2499])
def test_counter_cannot_pass_min_horizon(epsilon):
    """The counter stops before its level passes last_level, which lies
    below min_horizon for every feasible config, down to the minimal base:
    so its uniform_exceed_rate reads 0."""
    with pytest.raises(FeasibilityError) as info:
        make_config(epsilon, 2.5)
    minimal = info.value.minimal_base
    for base in (minimal, 2 * minimal, 100.0, 1e4, 1.1e7, 1e100, 1e300):
        if base >= minimal:
            config = make_config(epsilon, base)
            assert config.last_level < config.min_horizon, (epsilon, base)


def test_uniform_exceed_rate_reads_the_histogram(bm, config, uniform_tau):
    """A strategy whose level rises by one per stage passes min_horizon 5
    when its level reaches 6, at the start of stage 7; it never passes the
    infinite min_horizon that make_config gives at base 1e300."""

    class Climber(StationaryStrategy):
        def update_memory(self, t, z, k, i, j, z_next, u):
            return k + 1

    sigma = Climber(np.full((3, 2), 0.5))
    for min_horizon, horizon, rate in ((5.0, 6, 0.0), (5.0, 7, 1.0),
                                       (5.0, 10, 1.0), (np.inf, 10, 0.0)):
        sigma.counter_config = dataclasses.replace(config,
                                                   min_horizon=min_horizon)
        stats = monte_carlo(bm, sigma, uniform_tau, horizon, 4, 1,
                            checkpoints=(3, horizon))
        assert stats.uniform_exceed_rate == rate, (min_horizon, horizon)
    assert make_config(0.2, 1e300).min_horizon == np.inf


def test_monte_carlo_setup_is_not_proportional_to_horizon(
        bm, counter_sigma, uniform_tau, monkeypatch):
    """Nothing of the horizon's length is allocated outside the chunks."""
    def stub(ngame, sigma, tau, horizon, base_seed, rep_start, rep_count,
             checkpoints, collect_traces):
        return engine._ChunkResult(
            records=[(0.0, 0.0, np.array([rep_count])) for _ in checkpoints],
            traces=[])

    monkeypatch.setattr(engine, "_simulate_chunk", stub)
    tracemalloc.start()
    try:
        stats = monte_carlo(bm, counter_sigma, uniform_tau, 10_000_000, 8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.uniform_exceed_rate == 0.0
    assert peak < 1 << 20


def test_table_strategy_equals_stationary(bm, uniform_tau):
    """A one-cell always-continue table and the equivalent stationary
    mixture must consume the identical stream and produce identical play."""
    table = PublicMemoryStrategyTable(
        memory_states=1, horizon=None,
        action=np.array([[[0.0, 1.0]]]),
        memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))
    sig_t = TableStrategy(table)
    sig_s = StationaryStrategy(np.array([[0.0, 1.0]] * 3))
    a, = run_traces(bm, sig_t, uniform_tau, 200, 1, 31)
    b, = run_traces(bm, sig_s, uniform_tau, 200, 1, 31)
    np.testing.assert_array_equal(a.stage_action1, b.stage_action1)
    np.testing.assert_array_equal(a.stage_action2, b.stage_action2)
    np.testing.assert_array_equal(a.stage_payoff, b.stage_payoff)


def test_markov_constant_table_equals_stationary(bm, counter_sigma):
    dist = np.full((3, 2), 0.5)
    tau_s = stationary_adversary(dist)
    tau_m = MarkovAdversary(np.tile(dist, (6, 1, 1)))
    a, = run_traces(bm, counter_sigma, tau_s, 100, 1, 41)
    b, = run_traces(bm, counter_sigma, tau_m, 100, 1, 41)
    np.testing.assert_array_equal(a.stage_action2, b.stage_action2)
    np.testing.assert_array_equal(a.stage_payoff, b.stage_payoff)


def test_alternating_adversary_by_stage_parity(bm, live):
    table = np.zeros((4, 3, 2))
    table[0::2, :, 0] = 1.0
    table[1::2, :, 1] = 1.0
    tau = MarkovAdversary(table)
    sigma = StationaryStrategy(np.array([[0.0, 1.0]] * 3))  # stay live
    tr, = run_traces(bm, sigma, tau, 8, 1, 1)
    assert tr.stage_action2.tolist() == [0, 1, 0, 1, 1, 1, 1, 1]
    # payoffs flip with the column: continue earns only against column 0
    assert tr.stage_payoff.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                                        0.0]


def test_statistics_csv_format(tmp_path, bm, counter_sigma, uniform_tau):
    stats = monte_carlo(bm, counter_sigma, uniform_tau, 100, 16, 2)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_statistics_csv(stats, str(p1))
    write_statistics_csv(stats, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == ("n,mean_avg_payoff,payoff_se,max_memory_q50,"
                        "max_memory_q90,max_memory_q99,max_memory_q100,"
                        "exceed_rate,uniform_exceed_rate")
    assert len(lines) == 1 + len(stats.checkpoints)
    # %.17g survives a float round trip
    mean_field = lines[-1].split(",")[1]
    assert float(mean_field) == stats.mean_avg_payoff[100]


def test_trace_csv_format(tmp_path, bm, counter_sigma, uniform_tau):
    traces = run_traces(bm, counter_sigma, uniform_tau, 20, 2, 3)
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "replication,t,z,k,i,j,x"
    assert len(lines) == 1 + 2 * 20
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
