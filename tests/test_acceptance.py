"""End-to-end acceptance gate.

Eleven numbered checks, each printing one summary line with its measured
quantities and the tolerance it was held to; beside check 7, its floor
checked exactly by coupling the counter with a capped table; and a planted
fault that the exact memory and guarantee checks must catch.  Check 7 runs
a reduced configuration by default; set STOCHGAME_HEAVY=1 for the full-size run
(several hundred replications over millions of stages, on the order of
fifteen minutes).
"""

import itertools
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from stochgame import cli, counter, engine, solve_discounted
from stochgame.adversary import (BestResponseAdversary,
                                 PublicMemoryStrategyTable,
                                 best_response_public,
                                 build_worthlessness_adversary,
                                 from_counter_strategy, pure_column_adversary,
                                 stationary_adversary)
from stochgame.counter import MemoryUpdate, update_distribution
from stochgame.engine import (CounterStrategy, TableStrategy, _simulate_chunk,
                              monte_carlo)
from stochgame.matrix import solve_matrix_game

from conftest import make_rng
from reference import best_response_exact, counter_reach_probability

HEAVY = os.environ.get("STOCHGAME_HEAVY") == "1"


def report(num: int, detail: str) -> None:
    print(f"[criterion {num:02d}] PASS  {detail}")


# ---------------------------------------------------------------------- 1

def test_criterion_01_discounted_values(bm, live):
    """Benchmark game: v(live) = 1/2 at every rate, within 1e-6, under 5s."""
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 0.1, 0.01, 0.001):
        sol = solve_discounted(bm, lam)
        values = bm.denormalize(sol.values)
        worst = max(worst, abs(float(values[live]) - 0.5))
        assert abs(float(values[live]) - 0.5) <= 1e-6
    wall = time.perf_counter() - t0
    assert wall < 5.0
    report(1, f"four rates, worst |v - 1/2| = {worst:.3e} <= 1e-6, "
              f"{wall:.2f}s")


# ---------------------------------------------------------------------- 2

def test_criterion_02_drift_identity(config):
    """10^4 random (level, payoff, value) triples: the expected position
    change equals payoff - value + epsilon/2 to 1e-12; positive part at
    level zero."""
    t0 = time.perf_counter()
    rng = make_rng(101)
    gm1 = config.growth - 1.0
    k, x, v = (np.array(c) for c in zip(*[
        (int(rng.integers(1, 500)), float(rng.uniform()), float(rng.uniform()))
        for _ in range(10_000)]))
    s = np.array([config.position_at(lvl) for lvl in k.tolist()])
    u = update_distribution(config, k, x, v)
    drift = u.p_up * s * gm1 - u.p_down * s * gm1 / config.growth
    err = np.abs(drift - (x - v + config.epsilon / 2.0))
    assert np.all(err <= 1e-12)
    x, v = (np.array(c) for c in zip(*[
        (float(rng.uniform()), float(rng.uniform())) for _ in range(2_000)]))
    u = update_distribution(config, 0, x, v)
    err0 = np.abs(u.p_up * config.base * gm1
                  - np.maximum(x - v + config.epsilon / 2.0, 0.0))
    assert np.all(err0 <= 1e-12)
    worst = max(err.max(), err0.max())
    wall = time.perf_counter() - t0
    assert wall < 1.0
    report(2, f"12k triples, worst |drift error| = {worst:.2e} <= 1e-12, "
              f"{wall:.2f}s")


# ---------------------------------------------------------------------- 3

def test_criterion_03_jump_bound(config):
    """Move probability never exceeds 2/(position * (growth-1))."""
    rng = make_rng(102)
    gm1 = config.growth - 1.0
    k, x, v = (np.array(c) for c in zip(*[
        (int(rng.integers(0, 500)), float(rng.uniform()), float(rng.uniform()))
        for _ in range(10_000)]))
    s = np.array([config.position_at(lvl) for lvl in k.tolist()])
    u = update_distribution(config, k, x, v)
    slack = 2.0 / (s * gm1) - (u.p_up + u.p_down)
    worst = (-slack).max()
    assert np.all(slack >= 0.0)
    report(3, f"10k draws, zero violations (worst excess {worst:.2e})")


# ---------------------------------------------------------------------- 4

def test_criterion_04_one_step_submartingale(bm, bm_game, config, cache,
                                             live):
    """Exact one-step drift of value-minus-potential: at the live state,
    levels 0..40, each pure opponent column, the conditional increase is at
    least epsilon*rate/8 - 1e-6."""
    t0 = time.perf_counter()
    r = bm.game.payoff
    p = bm.game.transition
    worst = np.inf
    for k in range(41):
        sol = cache.at(k)
        strat = sol.strategy1[live]
        y_now = sol.values[live] - 1.0 / np.log(config.position_at(k))
        for j in range(bm_game.n_actions2):
            drift = -y_now
            for i in range(bm_game.n_actions1):
                w = strat[i]
                if w == 0.0:
                    continue
                x = r[live, i, j]
                for z2 in np.flatnonzero(p[live, i, j]):
                    pz = p[live, i, j, z2]
                    u = update_distribution(config, k, x, sol.values[z2])
                    for move, prob in ((1, u.p_up), (0, u.p_stay),
                                       (-1, u.p_down)):
                        if prob == 0.0:
                            continue
                        k2 = k + move
                        y2 = (cache.at(k2).values[z2]
                              - 1.0 / np.log(config.position_at(k2)))
                        drift += w * pz * prob * y2
            margin = drift - (config.epsilon * sol.lam / 8.0 - 1e-6)
            worst = min(worst, margin)
            assert margin >= 0.0, (k, j, drift)
    wall = time.perf_counter() - t0
    assert wall < 30.0
    report(4, f"levels 0..40 x both columns, worst margin {worst:.3e} >= 0, "
              f"{wall:.1f}s")


# ---------------------------------------------------------------------- 5

# (n, least K with worst-case P(level reaches K by stage n) <= MEMORY_TAIL)
MEMORY_LADDER = ((100, 33), (1_000, 103), (10_000, 202))
MEMORY_TAIL = 1e-3


def memory_ladder_failures(bm, config, cache) -> list[str]:
    """The exact worst-case memory check; returns what fails.

    Per ladder row (n, K): P(K) <= MEMORY_TAIL < P(K - 1) against the
    opponent that sees the level and drives it up.  The level reaches K
    only through K - 1, so P falls with K and the bracket makes K the least
    such level.  Then K <= memory_slope * ln n, and over the last decade K
    grows by [0.8, 1.1] * log_growth 10 levels: O(log n) memory.
    """
    levels = sorted({k for _, top in MEMORY_LADDER for k in (top - 1, top)})
    reach = counter_reach_probability(bm, config, cache, levels,
                                      MEMORY_LADDER[-1][0])
    failures = []
    for n, top in MEMORY_LADDER:
        p, p_below = (reach[n, levels.index(k)] for k in (top, top - 1))
        if not p <= MEMORY_TAIL < p_below:
            failures.append(f"n={n}: P(K={top}) = {p:.3e} and "
                            f"P(K={top - 1}) = {p_below:.3e} do not bracket "
                            f"{MEMORY_TAIL:g}")
        if top > config.memory_slope * np.log(n):
            failures.append(f"n={n}: K={top} > memory_slope * ln n")
    (_, below), (_, above) = MEMORY_LADDER[-2:]
    growth = (above - below) * np.log(config.growth) / np.log(10.0)
    if not 0.8 <= growth <= 1.1:
        failures.append(f"last decade grows {growth:.3f} * log_growth 10")
    return failures


def test_criterion_05_exact_memory_ladder(bm, config, cache):
    """Exact worst case: the least K with P(level reaches K by stage n)
    <= 1e-3 is 33, 103 and 202 at n = 1e2, 1e3 and 1e4, about log_growth 10
    more per decade and far below memory_slope * ln n."""
    t0 = time.perf_counter()
    failures = memory_ladder_failures(bm, config, cache)
    assert not failures, failures
    wall = time.perf_counter() - t0
    assert wall < 30.0
    report(5, "least K(n) = " + ", ".join(
        f"{top} at n={n} (slope bound {config.memory_slope * np.log(n):.0f})"
        for n, top in MEMORY_LADDER) + f", {wall:.1f}s")


# ---------------------------------------------------------------------- 6

MEMORY_CHECKPOINTS = (20, 50)
MEMORY_LEVELS = (4, 6, 8)
MEMORY_REPS = 32_768


@pytest.fixture(scope="module")
def uniform_memory_hist(bm, config, cache):
    """The engine's max-memory histograms at MEMORY_CHECKPOINTS, counter
    against the uniform column mixture."""
    sigma = CounterStrategy(bm, config, cache)
    tau = stationary_adversary(np.full((3, 2), 0.5))
    records = _simulate_chunk(bm, sigma, tau, MEMORY_CHECKPOINTS[-1], 405, 0,
                              MEMORY_REPS, MEMORY_CHECKPOINTS, False).records
    return [hist for _, _, hist in records]


def memory_engine_deviations(bm, config, cache, hists) -> list[float]:
    """z-scores of the engine's P(max memory >= K by stage n) against the
    exact induction with player 2 fixed to the uniform mixture."""
    reach = counter_reach_probability(bm, config, cache, MEMORY_LEVELS,
                                      MEMORY_CHECKPOINTS[-1],
                                      column_mix=np.full((3, 2), 0.5))
    zs = []
    for n, hist in zip(MEMORY_CHECKPOINTS, hists):
        for col, k in enumerate(MEMORY_LEVELS):
            p = reach[n, col]
            sampled = hist[k:].sum() / MEMORY_REPS
            zs.append(float((sampled - p) / np.sqrt(p * (1 - p) / MEMORY_REPS)))
    return zs


def test_criterion_06_memory_reference_matches_engine(bm, config, cache,
                                                      uniform_memory_hist):
    """32768 replications against the uniform column: the engine's
    max-memory tails at n = 20, 50 and K = 4, 6, 8 match the exact
    induction within 4 SE."""
    zs = memory_engine_deviations(bm, config, cache, uniform_memory_hist)
    worst = max(abs(z) for z in zs)
    assert worst <= 4.0, zs
    report(6, f"{len(zs)} tails, worst |z| = {worst:.2f} <= 4")


def plant_doubled_p_up(monkeypatch) -> None:
    """The planted fault: the move law's up-probability doubles, with
    p_stay recomputed.  It reaches counter.level_table, and through it
    every table the checks read."""
    real = counter.update_distribution

    def doubled(config, level, payoff, value_next):
        upd = real(config, level, payoff, value_next)
        return MemoryUpdate(p_up=2.0 * upd.p_up,
                            p_stay=1.0 - 2.0 * upd.p_up - upd.p_down,
                            p_down=upd.p_down)

    monkeypatch.setattr(counter, "update_distribution", doubled)


def test_planted_fault_doubled_p_up(bm, config, cache, uniform_memory_hist,
                                    monkeypatch):
    """Both exact memory checks fail once the move law's up-probability
    doubles.  The engine's histogram is the module fixture's, drawn before
    the patch under the true law."""
    plant_doubled_p_up(monkeypatch)
    p = counter_reach_probability(bm, config, cache, (103,), 1_000)[-1, 0]
    assert p > MEMORY_TAIL
    assert memory_ladder_failures(bm, config, cache)
    zs = memory_engine_deviations(bm, config, cache, uniform_memory_hist)
    assert max(abs(z) for z in zs) > 4.0
    print(f"[planted fault] doubled p_up: P(n=1000, K=103) = {p:.3f}, "
          f"engine worst |z| = {max(abs(z) for z in zs):.0f}")


# ---------------------------------------------------------------------- 7

def _criterion_7_adversaries(bm, config, cache, build_horizon):
    table = from_counter_strategy(bm, config, cache, 40, build_horizon)
    br = best_response_public(bm, table, build_horizon)
    return (
        ("always-0", pure_column_adversary(3, 2, 0)),
        ("always-1", pure_column_adversary(3, 2, 1)),
        ("uniform", stationary_adversary(np.full((3, 2), 0.5))),
        ("best-response-cap-40",
         BestResponseAdversary(br.policy, build_horizon)),
    )


@pytest.mark.skipif(HEAVY, reason="full-size variant runs instead")
def test_criterion_07_payoff_floor_smoke(bm, config, cache):
    """Reduced horizon 1e5: the mean average payoff clears the slackened
    floor 1/2 - epsilon - 0.05 against all four reference opponents."""
    t0 = time.perf_counter()
    horizon, reps = 100_000, 200
    floor = 0.5 - config.epsilon - 0.05
    sigma = CounterStrategy(bm, config, cache)
    details = []
    for name, tau in _criterion_7_adversaries(bm, config, cache, horizon):
        stats = monte_carlo(bm, sigma, tau, horizon, reps, 406,
                            checkpoints=(horizon,))
        mean = stats.mean_avg_payoff[horizon]
        details.append(f"{name} {mean:.3f}")
        assert mean >= floor, (name, mean)
    wall = time.perf_counter() - t0
    report(7, f"smoke n=1e5 R={reps}: " + ", ".join(details)
              + f" all >= {floor:.2f}, {wall:.0f}s")


@pytest.mark.skipif(not HEAVY, reason="set STOCHGAME_HEAVY=1 to run")
def test_criterion_07_payoff_floor_full(bm, config, cache):
    """Full size: n = 4e6, 200 replications per opponent, floor
    1/2 - epsilon - 4SE."""
    t0 = time.perf_counter()
    horizon, reps = 4_000_000, 200
    sigma = CounterStrategy(bm, config, cache)
    details = []
    for name, tau in _criterion_7_adversaries(bm, config, cache, 100_000):
        stats = monte_carlo(bm, sigma, tau, horizon, reps, 407,
                            checkpoints=(horizon,))
        mean = stats.mean_avg_payoff[horizon]
        se = stats.payoff_se[horizon]
        floor = 0.5 - config.epsilon - 4 * se
        details.append(f"{name} {mean:.4f}>= {floor:.4f}")
        assert mean >= floor, (name, mean, floor)
    wall = time.perf_counter() - t0
    assert wall < 3600.0
    report(7, f"full n=4e6 R={reps}: " + ", ".join(details)
              + f", {wall:.0f}s")


# ------------------------------------------------------- 7, exact guarantee

# (n, cap C): C + 1 is the least K with worst-case P(level reaches K by
# stage n) <= MEMORY_TAIL, criterion 5's K(n) at n = 1e4
GUARANTEE_CAPS = ((10_000, 201), (100_000, 306))


def coupling_guarantee(bm, config, cache, n: int, cap: int):
    """Exact lower bound on the counter's n-stage average payoff against
    every opponent, returned as (P*, V, V - P*).

    The counter and its cap-C table make the same moves until the level
    first reaches C + 1, and an opponent that sees the level plays alike in
    both until then.  Payoffs lie in [0, 1], so inf over opponents of the
    counter's payoff is at least V - P*: V is the exact best reply's value
    against the cap-C table, and P* the worst-case probability that the
    level reaches C + 1 by stage n.
    """
    table = from_counter_strategy(bm, config, cache, cap, n)
    value = best_response_public(bm, table, n).value
    reach = counter_reach_probability(bm, config, cache, (cap + 1,), n)[n, 0]
    return reach, value, value - reach


@pytest.mark.parametrize("n, cap", GUARANTEE_CAPS)
def test_criterion_07_exact_guarantee(bm, config, cache, n, cap):
    """The paper's positive claim, checked exactly at n = 1e4 and 1e5: the
    counter guarantees at least 1/2 - epsilon against every opponent."""
    t0 = time.perf_counter()
    reach, value, guarantee = coupling_guarantee(bm, config, cache, n, cap)
    floor = 0.5 - config.epsilon
    assert guarantee >= floor, (reach, value)
    wall = time.perf_counter() - t0
    report(7, f"exact n={n} cap {cap}: P* {reach:.3e}, V {value:.7f}, "
              f"guarantee {guarantee:.4f} >= {floor:.2f} (margin "
              f"{guarantee - floor:.4f}), {wall:.1f}s")


def test_planted_fault_fails_exact_guarantee(bm, config, cache, monkeypatch):
    """With p_up doubled the level runs past the cap: P* rises to about
    0.91 and the guarantee at n = 1e4 falls below the floor."""
    plant_doubled_p_up(monkeypatch)
    n, cap = GUARANTEE_CAPS[0]
    reach, _, guarantee = coupling_guarantee(bm, config, cache, n, cap)
    assert guarantee < 0.5 - config.epsilon
    print(f"[planted fault] doubled p_up: P*(n={n}, K={cap + 1}) = "
          f"{reach:.4f}, guarantee {guarantee:.3f}")


def test_exact_best_reply_within_mixture_average(bm, config, cache):
    """The exact best reply to a table does at least as well for player 2
    as the worthlessness mixture built against it: cap 16, T 11000."""
    delta, horizon = 0.1, 11_000
    table = from_counter_strategy(bm, config, cache, 16, horizon)
    value = best_response_public(bm, table, horizon).value
    cert = build_worthlessness_adversary(bm, table, delta,
                                         horizon).certificate
    assert value <= cert.mixture_avg_payoff, (value, cert.mixture_avg_payoff)


# ---------------------------------------------------------------------- 8

def test_criterion_08_best_response_oracle(bm):
    """Backward induction equals exhaustive enumeration exactly (Fraction
    arithmetic) on five random tables with horizon <= 4 and two memory
    states."""
    t0 = time.perf_counter()
    g = bm.game
    payoff = g.payoff.astype(int).tolist()
    transition = g.transition.astype(int).tolist()
    rng = make_rng(108)

    def simplex(k):
        nums = [int(rng.integers(1, 5)) for _ in range(k)]
        den = sum(nums)
        return [Fraction(n, den) for n in nums]

    cases = []
    for horizon, m_states in ((1, 1), (2, 2), (3, 2), (4, 2), (4, 1)):
        action = [[simplex(2) for _ in range(m_states)]
                  for _ in range(horizon)]
        kernel = [[[[[simplex(m_states) for _ in range(3)]
                     for _ in range(2)] for _ in range(2)]
                   for _ in range(m_states)] for _ in range(horizon)]
        _, value = best_response_exact(payoff, transition, action, kernel,
                                       horizon, 0)

        cells = list(itertools.product(range(horizon), range(m_states)))
        best = None
        for bits in itertools.product((0, 1), repeat=len(cells)):
            pure = dict(zip(cells, bits))
            dist = {(0, 0): Fraction(1)}
            total = Fraction(0)
            for t in range(horizon):
                ndist = {}
                for (z, m), pr in dist.items():
                    j = pure[(t, m)]
                    for i in range(2):
                        w = action[t][m][i]
                        if w == 0:
                            continue
                        total += pr * w * payoff[z][i][j]
                        for z2 in range(3):
                            pz = transition[z][i][j][z2]
                            if pz == 0:
                                continue
                            for m2 in range(m_states):
                                pm = kernel[t][m][i][j][z2][m2]
                                if pm == 0:
                                    continue
                                key = (z2, m2)
                                ndist[key] = ndist.get(key, Fraction(0)) \
                                    + pr * w * pz * pm
                dist = ndist
            v = total / horizon
            best = v if best is None or v < best else best
        assert value == best  # exact equality of Fractions
        cases.append(f"T={horizon},M={m_states}")

        # the float path agrees to 1e-12
        tab = PublicMemoryStrategyTable(
            memory_states=m_states, horizon=horizon,
            action=np.array(action, dtype=np.float64),
            memory_kernel=np.array(kernel, dtype=np.float64))
        br = best_response_public(bm, tab, horizon)
        assert abs(br.value - float(value)) <= 1e-12
    wall = time.perf_counter() - t0
    assert wall < 10.0
    report(8, f"five exact matches ({', '.join(cases)}), {wall:.1f}s")


# ---------------------------------------------------------------------- 9

def test_criterion_09_worthlessness(bm, config, cache):
    """Both reference tables at delta = 0.1, horizon 1e4: the exact mixture
    payoff is below 3*delta, the simulated one is at most 3*delta + 3SE,
    and certified stages never use more than M+1 selected cells."""
    t0 = time.perf_counter()
    delta, horizon, reps = 0.1, 10_000, 2_000

    always_c = PublicMemoryStrategyTable(
        memory_states=1, horizon=None,
        action=np.array([[[0.0, 1.0]]]),
        memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))
    capped = from_counter_strategy(bm, config, cache, 8, horizon)
    details = []
    for name, table in (("always-continue", always_c),
                        ("capped-counter-8", capped)):
        res = build_worthlessness_adversary(bm, table, delta, horizon)
        cert = res.certificate
        assert cert.max_exceed_count <= cert.memory_states + 1
        assert cert.mixture_avg_payoff < 3 * delta, (name, cert)
        stats = monte_carlo(bm, TableStrategy(table), res.mixture, horizon,
                            reps, 409, checkpoints=(horizon,))
        mean = stats.mean_avg_payoff[horizon]
        se = stats.payoff_se[horizon]
        assert mean <= 3 * delta + 3 * se, (name, mean)
        details.append(f"{name} {mean:.3f} <= {3 * delta + 3 * se:.3f} "
                       f"(cells {cert.max_exceed_count} <= "
                       f"{cert.memory_states + 1})")
    wall = time.perf_counter() - t0
    assert wall < 120.0
    report(9, "; ".join(details) + f", {wall:.0f}s")


# --------------------------------------------------------------------- 10

def test_criterion_10_matrix_solver(bm):
    """500 random matrices up to 6x6: primal-dual gap at most 1e-8; 3x3
    values agree with a simplex-grid oracle to 2e-3."""
    t0 = time.perf_counter()
    rng = make_rng(110)
    worst_gap = 0.0
    for _ in range(500):
        ni = int(rng.integers(1, 7))
        nj = int(rng.integers(1, 7))
        m = rng.uniform(-1.0, 1.0, size=(ni, nj))
        sol = solve_matrix_game(m)
        gap = float((m @ sol.col_strategy).max()
                    - (sol.row_strategy @ m).min())
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-8

    h = 1024
    grid = np.array([(i / h, j / h, (h - i - j) / h)
                     for i in range(h + 1) for j in range(h + 1 - i)])
    worst_dev = 0.0
    for _ in range(10):
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        sol = solve_matrix_game(m)
        v_grid = float((grid @ m).min(axis=1).max())
        dev = abs(sol.value - v_grid)
        worst_dev = max(worst_dev, dev)
        assert v_grid <= sol.value + 1e-10  # grid restricts the maximizer
        assert dev <= 2e-3
    wall = time.perf_counter() - t0
    report(10, f"500 games, worst gap {worst_gap:.2e} <= 1e-8; grid oracle "
               f"worst |dev| {worst_dev:.2e} <= 2e-3, {wall:.0f}s")


# --------------------------------------------------------------------- 11

def test_criterion_11_deterministic_replay(tmp_path, monkeypatch):
    """Identical seeds give byte-identical CSV outputs regardless of the
    worker count; 17-replication chunks split the 96 replications six
    ways, so several threads share them out."""
    monkeypatch.setattr(engine, "CHUNK", 17)
    args = ["simulate", "--horizon", "400", "--replications", "96",
            "--seed", "2026"]
    dirs = [tmp_path / n for n in ("w1", "w1b", "w3", "w4")]
    extra = ([], [], ["--workers", "3"], ["--workers", "4"])
    for d, ex in zip(dirs, extra):
        assert cli.main(args + ex + ["--out-dir", str(d)]) == 0
    ref = (dirs[0] / "stats.csv").read_bytes()
    for d in dirs[1:]:
        assert (d / "stats.csv").read_bytes() == ref

    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    targs = ["trace", "--horizon", "50", "--replications", "3",
             "--seed", "77"]
    assert cli.main(targs + ["--out-dir", str(t1)]) == 0
    assert cli.main(targs + ["--out-dir", str(t2)]) == 0
    assert (t1 / "trace.csv").read_bytes() == (t2 / "trace.csv").read_bytes()
    report(11, "stats.csv identical for workers {1, 3, 4}; trace.csv "
               "identical across reruns")
