"""Seed-reproducible Monte Carlo simulation of strategy pairs.

Randomness contract (the part everything else leans on):

* generator: Philox 4x64 keyed by the 128-bit pair (base_seed, 0); the
  four words of the block at counter r + (t + 1)*2^64 are replication r's
  uniforms at stage t, so every replication is its own stream, and one
  call draws a stage's blocks for all replications;
* per stage exactly four uniforms are consumed in the fixed order
  (player-1 action, player-2 action, transition, memory update), whether or
  not the play is already absorbed or the strategy is memoryless;
* adversaries that randomize over components (mixtures) consume exactly one
  extra uniform at episode start: word 0 of stage 0.

Because stream position is a pure function of the replication and stage
indices, results are byte-identical for any replication chunking.  One play
loop, _play, yields every stage to two readers: monte_carlo folds chunks of
replications, played in order on the calling thread, into checkpoint
statistics in chunk order; run_traces keeps whole traces.  Every draw reads
games.cut_points tables; update_memory gets the flat (z, i, j) index.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .counter import CounterConfig, level_table
from .discounted import SolutionCache
from .games import (NormalizedGame, check_bytes, cut_points, is_absorbing,
                    probability_rows, sample_rows, stage_row, take_rows,
                    transition_cuts)

QUANTILE_LEVELS = (0.5, 0.9, 0.99, 1.0)
CHUNK = 8192  # replications per chunk: fixes the float summation order
#               stats.csv pins
TRACE_ROWS = 1 << 16  # trace.csv rows formatted at a time

STATS_COLUMNS = ("n", "mean_avg_payoff", "payoff_se",
                 "max_memory_q50", "max_memory_q90", "max_memory_q99",
                 "max_memory_q100", "exceed_rate", "uniform_exceed_rate")
TRACE_COLUMNS = ("replication", "t", "z", "k", "i", "j", "x")


# ---------------------------------------------------------------------------
# player-1 strategy adapters
# take_rows indices lie in their axes by construction: states and actions
# are draws, the counter's level has floor 0, table memory is the kernel's.


class StationaryStrategy:
    """Plays a fixed per-state mixture; memory stays at zero."""

    counter_config: CounterConfig | None = None

    def __init__(self, dist):
        self.cuts = cut_points(probability_rows("strategy", dist))

    def prepare(self, horizon: int) -> None:
        pass

    def act(self, t, z, k, u):
        return sample_rows(take_rows(self.cuts, z), u)

    def update_memory(self, t, zij, k, i, j, z_next, u):
        return k


class CounterStrategy:
    """The geometric-counter strategy driven by a shared solution cache.

    Holds the cut points of counter.level_table's rows, the action mixtures
    and the level shifts (by flat (z, i, j) index), for levels 0 up to the
    deepest that play has reached; the tables grow when play goes deeper.
    """

    def __init__(self, ngame: NormalizedGame, config: CounterConfig,
                 cache: SolutionCache):
        game = ngame.game
        self.counter_config = config
        self.cache = cache
        self._cut_act = np.zeros((0, game.n_states, game.n_actions1 - 1))
        self._cut_shift = np.zeros((0, game.payoff.size, game.n_states, 2))

    def prepare(self, horizon: int) -> None:
        pass

    def act(self, t, z, k, u):
        top, have = int(k.max()) + 1, len(self._cut_act)
        if top > have:
            mix, shift = level_table(self.counter_config, self.cache,
                                     range(have, top))
            self._cut_act = np.concatenate([self._cut_act, cut_points(mix)])
            self._cut_shift = np.concatenate([self._cut_shift, cut_points(
                shift).reshape(top - have, *self._cut_shift.shape[1:])])
        return sample_rows(take_rows(self._cut_act, k, z), u)

    def update_memory(self, t, zij, k, i, j, z_next, u):
        rows = take_rows(self._cut_shift, k, zij, z_next)
        return k + 1 - sample_rows(rows, u)  # index a: shift SHIFTS[a] = 1 - a


class TableStrategy:
    """Plays a public-memory table (actions depend on stage and memory)."""

    counter_config: CounterConfig | None = None

    def __init__(self, table):
        self.table = table
        self._cut_act = cut_points(table.action)
        self._cut_ker = cut_points(table.memory_kernel)

    def prepare(self, horizon: int) -> None:
        self.table.check_horizon(horizon)

    def act(self, t, z, k, u):
        return sample_rows(take_rows(stage_row(self._cut_act, t), k), u)

    def update_memory(self, t, zij, k, i, j, z_next, u):
        if not self._cut_ker.shape[-1]:  # one memory state: k is all zeros
            return k
        rows = take_rows(stage_row(self._cut_ker, t), k, i, j, z_next)
        return sample_rows(rows, u)


# ---------------------------------------------------------------------------
# traces and statistics


@dataclass(frozen=True)
class EpisodeTrace:
    """One simulated play, truncated at the horizon.

    stage_state[t-1] etc. hold the per-stage tuples; absorption_stage is the
    last stage at which play was still in a non-absorbing state (the stage
    the absorbing action fired), None when play never absorbs, 0 when the
    game starts absorbed.  Payoffs are in the normalized [0, 1] units of
    the NormalizedGame played.
    """

    seed: int
    replication: int
    horizon: int
    stage_state: np.ndarray
    stage_memory: np.ndarray
    stage_action1: np.ndarray
    stage_action2: np.ndarray
    stage_payoff: np.ndarray
    absorption_stage: int | None


@dataclass(frozen=True)
class RunStatistics:
    """Aggregates over replications at geometric checkpoints.

    mean_avg_payoff[n] estimates the expected n-stage average payoff;
    payoff_se is its sample-sd/sqrt(replications).  Memory fields are only
    populated when the simulated strategy carries a counter config:
    exceed_rate[n] is the fraction of replications whose running max memory
    reached memory_slope*ln n, uniform_exceed_rate the fraction whose max
    memory by the last checkpoint passed min_horizon, the least value of
    min_horizon + memory_slope*ln n; 0 for the counter, whose level cannot
    pass config.last_level < min_horizon.
    Payoffs are in the normalized [0, 1] units of the NormalizedGame played.
    """

    horizon: int
    replications: int
    base_seed: int
    checkpoints: tuple[int, ...]
    mean_avg_payoff: dict[int, float]
    payoff_se: dict[int, float]
    max_memory_quantiles: dict[int, dict[float, int]]
    exceed_rate: dict[int, float] | None
    uniform_exceed_rate: float | None


def default_checkpoints(horizon: int) -> tuple[int, ...]:
    """Geometric grid 10, 10^1.5, 100, ... capped and ending at horizon."""
    points = []  # strictly increasing: each is about 3.16 times the last
    k = 2
    while (v := int(round(10 ** (k / 2)))) < horizon:
        points.append(v)
        k += 1
    return (*points, horizon)


def _quantiles_from_hist(hist: np.ndarray, total: int) -> dict[float, int]:
    """Least level whose cumulative count reaches q * total (q = 1: the top)."""
    cum = np.cumsum(hist)
    return {q: int(np.searchsorted(cum, q * total, side="left"))
            for q in QUANTILE_LEVELS}


def _merge_hists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return out


def _play(ngame: NormalizedGame, sigma, tau, horizon: int, base_seed: int,
          rep_start: int, rep_count: int):
    """Play replications rep_start.. of (sigma, tau), yielding each stage's
    (t, z, k, i, j, x), arrays of shape (rep_count,).  Readers must not write
    into a yielded array, and none is written after it is yielded."""
    game = ngame.game
    ni, nj = game.n_actions1, game.n_actions2
    cuts = transition_cuts(game)
    sigma.prepare(horizon)
    tau.prepare(horizon)

    bits = np.random.Philox(key=[base_seed, 0],
                            counter=rep_start + 2 ** 64 - 1)
    gen, state = np.random.Generator(bits), bits.state
    words, u = np.empty((rep_count, 4)), np.empty((4, rep_count))

    def draw():  # state's counter precedes the next stage's first block
        bits.state = state
        gen.random(out=words)
        state["state"]["counter"][1] += 1
        np.copyto(u, words.T)  # a draw reads its R uniforms contiguously

    draw()
    comp = tau.start(u[0]) if tau.init_draws else None
    z = np.full(rep_count, game.initial_state, dtype=np.int64)
    k = np.zeros(rep_count, dtype=np.int64)
    for t in range(1, horizon + 1):
        draw()
        i = sigma.act(t, z, k, u[0])
        j = tau.act(t, z, k, comp, u[1])
        zij = (z * ni + i) * nj + j
        z_next = sample_rows(cuts.take(zij, axis=0), u[2])
        x = game.payoff.take(zij)
        yield t, z, k, i, j, x
        k = sigma.update_memory(t, zij, k, i, j, z_next, u[3])
        z = z_next


def check_run(horizon: int, replications: int, base_seed: int,
              checkpoints=None) -> tuple[int, ...]:
    """Reject a run that monte_carlo and run_traces cannot play; return its
    checkpoints sorted without repeats (None: default_checkpoints)."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if not 0 <= base_seed < 2 ** 64:
        raise ValueError("base_seed must fit in an unsigned 64-bit integer")
    if checkpoints is None:
        return default_checkpoints(horizon)
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > horizon:
        raise ValueError(f"checkpoints must lie in [1, {horizon}]")
    return checkpoints


def check_traces(horizon: int, replications: int, base_seed: int) -> None:
    """check_run, and games.check_bytes on the traces' 41 bytes per
    replication-stage (traces, absorbed mask), 1 KB per replication (its
    two rows of uniforms, 64 bytes, and its EpisodeTrace, about 760), and
    64 KB fixed: first on the replication count at horizon 1, then on the
    horizon."""
    check_run(horizon, replications, base_seed)

    def need(h, r=replications):
        return (1 << 16) + r * (1024 + 41 * h)
    check_bytes("replication count", replications, lambda r: need(1, r))
    check_bytes("horizon", horizon, need)


def monte_carlo(ngame: NormalizedGame, sigma, tau, horizon: int,
                replications: int, base_seed: int,
                checkpoints: tuple[int, ...] | None = None,
                workers: int = 1) -> RunStatistics:
    """Simulate replications of (sigma, tau) and aggregate statistics.

    Replication r plays the Philox stream keyed (base_seed, r); each chunk
    of CHUNK replications is folded into the running sums in order.
    workers (>= 1) is accepted for existing callers and changes nothing."""
    checkpoints = check_run(horizon, replications, base_seed, checkpoints)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config = sigma.counter_config

    records = None
    for start in range(0, replications, CHUNK):
        count = min(CHUNK, replications - start)
        pay_sum, max_mem = np.zeros(count), np.zeros(count, dtype=np.int64)
        part = []  # per checkpoint: payoff sum, sum of squares, histogram
        for t, _, k, _, _, x in _play(ngame, sigma, tau, horizon, base_seed,
                                      start, count):
            np.maximum(max_mem, k, out=max_mem)
            pay_sum += x
            if t in checkpoints:
                rbar = pay_sum / t
                part.append((rbar.sum(), (rbar * rbar).sum(),
                             np.bincount(max_mem)))
        records = part if records is None else [
            (s + ps, sq + psq, _merge_hists(h, ph))
            for (s, sq, h), (ps, psq, ph) in zip(records, part)]

    n_reps = replications
    mean, se, quantiles = {}, {}, {}
    for n, (total, total_sq, hist) in zip(checkpoints, records):
        mu = total / n_reps
        mean[n] = float(mu)
        if n_reps > 1:
            var = (total_sq - n_reps * mu * mu) / (n_reps - 1)
            se[n] = float(math.sqrt(max(var, 0.0) / n_reps))
        else:
            se[n] = 0.0
        quantiles[n] = _quantiles_from_hist(hist, n_reps)
    # integer levels: max memory >= slope*ln n iff it is >= the ceiling
    exceed_rate = None if config is None else {
        n: float(h[math.ceil(config.memory_slope * math.log(n)):].sum() / n_reps)
        for n, (_, _, h) in zip(checkpoints, records)}
    deepest = records[-1][2]  # min_horizon can be inf at huge bases
    uniform_exceed_rate = None if config is None else float(
        deepest[np.arange(len(deepest)) > config.min_horizon].sum() / n_reps)

    return RunStatistics(
        horizon=horizon, replications=n_reps, base_seed=base_seed,
        checkpoints=checkpoints, mean_avg_payoff=mean, payoff_se=se,
        max_memory_quantiles=quantiles, exceed_rate=exceed_rate,
        uniform_exceed_rate=uniform_exceed_rate)


def run_traces(ngame: NormalizedGame, sigma, tau, horizon: int,
               replications: int, base_seed: int) -> list[EpisodeTrace]:
    """Simulate replications 0..replications-1 and keep their full traces.

    Trace r is bit-identical to what replication r of a monte_carlo run
    with the same base_seed plays; check_traces bounds the bytes."""
    check_traces(horizon, replications, base_seed)
    zkij = np.zeros((4, replications, horizon), dtype=np.int64)
    tx = np.zeros((replications, horizon))
    for t, z, k, i, j, x in _play(ngame, sigma, tau, horizon, base_seed, 0,
                                  replications):
        zkij[:, :, t - 1] = z, k, i, j
        tx[:, t - 1] = x
    tz, tk, ti, tj = zkij
    absorbing = np.array([is_absorbing(ngame.game, s)
                          for s in range(ngame.game.n_states)])
    landed = absorbing[tz]
    first = landed.argmax(axis=1)  # stage before landing; 0 if at start
    return [EpisodeTrace(
        seed=base_seed, replication=r, horizon=horizon,
        stage_state=tz[r], stage_memory=tk[r], stage_action1=ti[r],
        stage_action2=tj[r], stage_payoff=tx[r],
        absorption_stage=int(first[r]) if landed[r, first[r]] else None)
        for r in range(replications)]


# ---------------------------------------------------------------------------
# CSV export


def fmt(value) -> str:
    """Output text: floats to 17 significant digits (exact), None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_statistics_csv(stats: RunStatistics, path: str) -> None:
    """One row per checkpoint; column order is stable (see STATS_COLUMNS)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_COLUMNS)
        for n in stats.checkpoints:
            q = stats.max_memory_quantiles[n]
            writer.writerow([
                fmt(n),
                fmt(stats.mean_avg_payoff[n]),
                fmt(stats.payoff_se[n]),
                fmt(q[0.5]), fmt(q[0.9]), fmt(q[0.99]), fmt(q[1.0]),
                fmt(stats.exceed_rate[n]
                    if stats.exceed_rate is not None else None),
                fmt(stats.uniform_exceed_rate),
            ])


def write_trace_csv(traces: list[EpisodeTrace], path: str) -> None:
    """One row per replication-stage (see TRACE_COLUMNS).  Rows go out
    TRACE_ROWS at a time, whose payoffs take at most Z*I*J values: each
    distinct one is formatted once."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for trace in traces:
            columns = (trace.stage_state, trace.stage_memory,
                       trace.stage_action1, trace.stage_action2)
            for a in range(0, trace.horizon, TRACE_ROWS):
                rows = slice(a, a + TRACE_ROWS)
                bits, at = np.unique(trace.stage_payoff[rows].view(np.int64),
                                     return_inverse=True)  # keeps -0.0
                text = [fmt(x) for x in bits.view(np.float64).tolist()]
                writer.writerows(zip(
                    itertools.repeat(trace.replication),
                    range(a + 1, a + 1 + len(at)),
                    *(c[rows].tolist() for c in columns),
                    map(text.__getitem__, at.tolist())))
