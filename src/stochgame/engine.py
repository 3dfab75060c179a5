"""Seed-reproducible Monte Carlo simulation of strategy pairs.

Randomness contract (the part everything else leans on):

* generator: Philox 4x64, one stream per replication, keyed by the 128-bit
  pair (base_seed, replication index);
* per stage exactly four uniforms are consumed in the fixed order
  (player-1 action, player-2 action, transition, memory update), whether or
  not the play is already absorbed or the strategy is memoryless;
* adversaries that randomize over components (mixtures) consume exactly one
  extra uniform at episode start, before stage 1.

Because stream position is a pure function of the stage index, results are
byte-identical for any replication chunking, stage blocking, or worker
count: replications are partitioned into fixed-size chunks and partial
reductions are combined in chunk order.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adversary import MAX_TABLE_BYTES
from .counter import CounterConfig, level_table
from .discounted import SolutionCache
from .games import (NormalizedGame, is_absorbing, probability_rows,
                    sample_rows, stage_row, transition_cdf)

QUANTILE_LEVELS = (0.5, 0.9, 0.99, 1.0)
CHUNK = 8192  # replications per chunk: the unit of work shared out to workers

STATS_COLUMNS = ("n", "mean_avg_payoff", "payoff_se",
                 "max_memory_q50", "max_memory_q90", "max_memory_q99",
                 "max_memory_q100", "exceed_rate", "uniform_exceed_rate")
TRACE_COLUMNS = ("replication", "t", "z", "k", "i", "j", "x")


# ---------------------------------------------------------------------------
# player-1 strategy adapters


class StationaryStrategy:
    """Plays a fixed per-state mixture; memory stays at zero."""

    counter_config: CounterConfig | None = None

    def __init__(self, dist):
        self.cum = np.cumsum(probability_rows("strategy", dist), axis=-1)

    def prepare(self, horizon: int) -> None:
        pass

    def act(self, t, z, k, u):
        return sample_rows(self.cum[z], u)

    def update_memory(self, t, z, k, i, j, z_next, u):
        return k


class CounterStrategy:
    """The geometric-counter strategy driven by a shared solution cache.

    Holds the cumulative rows of counter.level_table, the action mixtures
    and the level shifts, for levels 0 up to the deepest that play has
    reached; the table grows under a lock when play goes deeper.
    """

    def __init__(self, ngame: NormalizedGame, config: CounterConfig,
                 cache: SolutionCache):
        game = ngame.game
        self.counter_config = config
        self.cache = cache
        self._cum_act = np.zeros((0, game.n_states, game.n_actions1))
        self._cum_shift = np.zeros((0, game.n_states, game.n_actions1,
                                    game.n_actions2, game.n_states, 3))
        self._lock = threading.Lock()

    def prepare(self, horizon: int) -> None:
        pass

    def act(self, t, z, k, u):
        top = int(k.max()) + 1
        if top > len(self._cum_act):
            with self._lock:
                have = len(self._cum_act)
                if top > have:
                    mix, shift = level_table(self.counter_config, self.cache,
                                             range(have, top))
                    # act rows last: their length is what the check reads
                    self._cum_shift = np.concatenate(
                        [self._cum_shift, np.cumsum(shift, axis=-1)])
                    self._cum_act = np.concatenate(
                        [self._cum_act, np.cumsum(mix, axis=-1)])
        return sample_rows(self._cum_act[k, z], u)

    def update_memory(self, t, z, k, i, j, z_next, u):
        # row index a is the shift SHIFTS[a] = 1 - a
        return k + 1 - sample_rows(self._cum_shift[k, z, i, j, z_next], u)


class TableStrategy:
    """Plays a public-memory table (actions depend on stage and memory)."""

    counter_config: CounterConfig | None = None

    def __init__(self, table):
        self.table = table
        self._cum_act = np.cumsum(table.action, axis=-1)
        self._cum_ker = np.cumsum(table.memory_kernel, axis=-1)

    def prepare(self, horizon: int) -> None:
        self.table.check_horizon(horizon)

    def act(self, t, z, k, u):
        return sample_rows(stage_row(self._cum_act, t)[k], u)

    def update_memory(self, t, z, k, i, j, z_next, u):
        return sample_rows(stage_row(self._cum_ker, t)[k, i, j, z_next], u)


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


@dataclass
class _ChunkResult:
    # per checkpoint: (sum of average payoffs, sum of squares, max-memory hist)
    records: list[tuple[float, float, np.ndarray]]
    traces: list[EpisodeTrace]


def _merge_hists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return out


def _simulate_chunk(ngame: NormalizedGame, sigma, tau, horizon: int,
                    base_seed: int, rep_start: int, rep_count: int,
                    checkpoints: tuple[int, ...],
                    collect_traces: bool) -> _ChunkResult:
    game = ngame.game
    nz = game.n_states
    tcdf = transition_cdf(game)
    pay = game.payoff

    gens = [np.random.Generator(np.random.Philox(
        key=[base_seed, rep_start + r])) for r in range(rep_count)]
    comp = None
    if tau.init_draws:
        u0 = np.array([g.random() for g in gens])
        comp = tau.start(u0)

    z = np.full(rep_count, game.initial_state, dtype=np.int64)
    k = np.zeros(rep_count, dtype=np.int64)
    pay_sum = np.zeros(rep_count)
    max_mem = np.zeros(rep_count, dtype=np.int64)

    records = []
    if collect_traces:
        tz = np.zeros((rep_count, horizon), dtype=np.int64)
        tk = np.zeros((rep_count, horizon), dtype=np.int64)
        ti = np.zeros((rep_count, horizon), dtype=np.int64)
        tj = np.zeros((rep_count, horizon), dtype=np.int64)
        tx = np.zeros((rep_count, horizon))

    block = max(16, min(horizon, int(10_000_000 / (4 * max(rep_count, 1)))))
    u_block = np.empty((rep_count, block, 4))  # each stream's next block
    for start in range(1, horizon + 1, block):
        b = min(block, horizon - start + 1)
        for g, row in zip(gens, u_block):
            g.random(out=row[:b])
        for t in range(start, start + b):
            u = u_block[:, t - start, :]
            np.maximum(max_mem, k, out=max_mem)
            i = sigma.act(t, z, k, u[:, 0])
            j = tau.act(t, z, k, comp, u[:, 1])
            z_next = sample_rows(tcdf[z, i, j], u[:, 2])
            x = pay[z, i, j]
            pay_sum += x
            if collect_traces:
                tz[:, t - 1] = z
                tk[:, t - 1] = k
                ti[:, t - 1] = i
                tj[:, t - 1] = j
                tx[:, t - 1] = x
            k = sigma.update_memory(t, z, k, i, j, z_next, u[:, 3])
            z = z_next
            if t in checkpoints:
                rbar = pay_sum / t
                records.append((rbar.sum(), (rbar * rbar).sum(),
                                np.bincount(max_mem)))

    traces = []
    if collect_traces:
        absorbing = np.array([is_absorbing(game, s) for s in range(nz)])
        landed = absorbing[tz]
        first = landed.argmax(axis=1)  # stage before landing; 0 if at start
        traces = [EpisodeTrace(
            seed=base_seed, replication=rep_start + r, horizon=horizon,
            stage_state=tz[r], stage_memory=tk[r], stage_action1=ti[r],
            stage_action2=tj[r], stage_payoff=tx[r],
            absorption_stage=int(first[r]) if landed[r, first[r]] else None)
            for r in range(rep_count)]

    return _ChunkResult(records=records, traces=traces)


def pool_size(workers: int, chunks: int) -> int:
    """Threads for a run: no more than asked for, than there are chunks to
    share out, or than the machine has cores."""
    return min(workers, chunks, os.cpu_count() or 1)


def _check_run(horizon: int, replications: int, base_seed: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if not 0 <= base_seed < 2 ** 64:
        raise ValueError("base_seed must fit in an unsigned 64-bit integer")


def monte_carlo(ngame: NormalizedGame, sigma, tau, horizon: int,
                replications: int, base_seed: int,
                checkpoints: tuple[int, ...] | None = None,
                workers: int = 1) -> RunStatistics:
    """Simulate replications of (sigma, tau) and aggregate statistics.

    Replication r draws from the Philox stream keyed (base_seed, r); chunks
    hold CHUNK replications each, and partial results combine in chunk
    order, so the output is identical for any worker count.
    """
    _check_run(horizon, replications, base_seed)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if checkpoints is None:
        checkpoints = default_checkpoints(horizon)
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > horizon:
        raise ValueError(f"checkpoints must lie in [1, {horizon}]")

    sigma.prepare(horizon)
    tau.prepare(horizon)
    config = sigma.counter_config

    chunks = [(start, min(CHUNK, replications - start))
              for start in range(0, replications, CHUNK)]

    def run(chunk):
        start, count = chunk
        return _simulate_chunk(ngame, sigma, tau, horizon, base_seed, start,
                               count, checkpoints, False)

    threads = pool_size(workers, len(chunks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(c) for c in chunks]

    records = results[0].records
    for res in results[1:]:
        records = [(s + rs, sq + rsq, _merge_hists(h, rh))
                   for (s, sq, h), (rs, rsq, rh) in zip(records, res.records)]

    n_reps = replications
    mean = {}
    se = {}
    quantiles = {}
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
    with the same base_seed plays.  The traces hold 40 bytes per
    replication-stage, at most MAX_TABLE_BYTES in all.
    """
    _check_run(horizon, replications, base_seed)
    need = 40 * replications * horizon  # four int64 and one float64 arrays
    if need > MAX_TABLE_BYTES:
        raise ValueError(f"the traces need {need:.3g} bytes, over the "
                         f"{MAX_TABLE_BYTES}-byte limit; at most "
                         f"{MAX_TABLE_BYTES // 40} replication-stages fit")
    sigma.prepare(horizon)
    tau.prepare(horizon)
    return _simulate_chunk(ngame, sigma, tau, horizon, base_seed, 0,
                           replications, (), True).traces


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for trace in traces:
            for t in range(trace.horizon):
                writer.writerow([
                    fmt(trace.replication), fmt(t + 1),
                    fmt(int(trace.stage_state[t])),
                    fmt(int(trace.stage_memory[t])),
                    fmt(int(trace.stage_action1[t])),
                    fmt(int(trace.stage_action2[t])),
                    fmt(float(trace.stage_payoff[t])),
                ])
