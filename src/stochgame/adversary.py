"""Opponent strategies and adversary construction.

Three layers:

* simple baselines (stationary and clocked Markov mixtures);
* the exact finite-horizon best response against any strategy that plays
  through a public-memory table: because the memory state is public and the
  table is fixed, player 2 faces a finite-horizon MDP over (state, memory)
  and backward induction gives the exact minimizing pure clocked policy;
* the worthlessness synthesizer for the Big Match: an inductively built
  uniform mixture of pure clocked adversaries that drives the long-run
  average payoff of ANY fixed public-memory strategy below 3*delta, built by
  exact forward occupancy recursions (no sampling; the thresholds involved
  are brittle under noise).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counter import SHIFTS, level_table
from .games import (PROB_TOL, GameSpec, NormalizedGame, cut_points,
                    load_json_object, probability_rows, sample_rows,
                    stage_row, take_rows)

MAX_TABLE_BYTES = 1 << 28  # largest kernel, policy, trace or mixture build
TAIL_TOL = 1e-3  # bound on the absorb-at-zero mass after each switch stage


# ---------------------------------------------------------------------------
# public-memory strategy tables


@dataclass(frozen=True)
class PublicMemoryStrategyTable:
    """Player 1 strategy with finitely many public memory states.

    action[t-1, m] is the mixture over player-1 actions at stage t with
    memory m (a single broadcast row when stationary); memory_kernel
    [t-1, m, i, j, z'] is the distribution of the next memory state.  Stage
    indices run 1..horizon; tables with a leading axis of length 1 are
    stationary and apply at every stage.
    """

    memory_states: int
    horizon: int
    action: np.ndarray        # (T or 1, M, I)
    memory_kernel: np.ndarray  # (T or 1, M, I, J, Z, M)

    def __post_init__(self):
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1 (or null for a "
                             f"stationary table), got {self.horizon}")
        action = np.asarray(self.action, dtype=np.float64)
        kernel = np.asarray(self.memory_kernel, dtype=np.float64)
        m = self.memory_states
        if action.ndim != 3 or action.shape[1] != m:
            raise ValueError(f"action table shape {action.shape} invalid "
                             f"for {m} memory states")
        if kernel.ndim != 6 or kernel.shape[1] != m or kernel.shape[5] != m:
            raise ValueError(f"memory kernel shape {kernel.shape} invalid "
                             f"for {m} memory states")
        for name, table in (("action", action), ("memory_kernel", kernel)):
            if table.shape[0] not in (1, self.horizon):
                raise ValueError(
                    f"{name} leading axis {table.shape[0]} must be 1 "
                    f"(stationary) or horizon {self.horizon}")
            probability_rows(name, table)
        action.flags.writeable = False
        kernel.flags.writeable = False
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "memory_kernel", kernel)

    @property
    def stationary(self) -> bool:
        return self.action.shape[0] == 1 and self.memory_kernel.shape[0] == 1

    def check_horizon(self, horizon: int) -> None:
        """Reject play of fewer than one stage or past the table's horizon."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if self.horizon is not None and horizon > self.horizon:
            raise ValueError(f"horizon {horizon} exceeds the table's horizon "
                             f"{self.horizon}")

    def check_game(self, game: GameSpec) -> None:
        """Reject a game whose action or state counts differ from the table's."""
        if (self.action.shape[2] != game.n_actions1
                or self.memory_kernel.shape[2:5] != (
                    game.n_actions1, game.n_actions2, game.n_states)):
            raise ValueError("table dimensions do not match the game")


def save_strategy_table(table: PublicMemoryStrategyTable, path: str) -> None:
    doc = {
        "M": table.memory_states,
        "horizon": table.horizon,
        "action": (table.action[0] if table.action.shape[0] == 1
                   else table.action).tolist(),
        "memory_kernel": (table.memory_kernel[0]
                          if table.memory_kernel.shape[0] == 1
                          else table.memory_kernel).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")  # one C-encoder call, json.dump's bytes


def load_strategy_table(path: str) -> PublicMemoryStrategyTable:
    """Read a table from JSON: action rows over player-1 actions, kernel
    rows over memory states; rank decides stationary vs per-stage tables."""
    doc = load_json_object(path)
    for key in ("M", "horizon", "action", "memory_kernel"):
        if key not in doc:
            raise ValueError(f"{path}: missing field '{key}'")
    try:
        action = np.asarray(doc["action"], dtype=np.float64)
        kernel = np.asarray(doc["memory_kernel"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: action/memory_kernel tables are ragged "
                         f"or non-numeric: {exc}") from None
    if action.ndim == 2:
        action = action[None, :, :]
    if kernel.ndim == 5:
        kernel = kernel[None]
    for key, types in (("M", (int,)), ("horizon", (int, type(None)))):
        if type(doc[key]) not in types:  # bool and 2.7 are not integers
            raise ValueError(f"{path}: field '{key}' must be a JSON integer"
                             f", got {json.dumps(doc[key])}")
    try:
        return PublicMemoryStrategyTable(
            memory_states=doc["M"], horizon=doc["horizon"],
            action=action, memory_kernel=kernel)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def from_counter_strategy(ngame: NormalizedGame, config, cache, cap: int,
                          horizon: int) -> PublicMemoryStrategyTable:
    """Wrap the counter strategy, with levels clamped at cap, into a
    stationary public-memory table with cap+1 memory states.

    The action row at memory m is the strategy's mixture at the game's
    initial state (correct for games whose other states are absorbing, e.g.
    the Big Match).  Each shift's target level is clipped to [0, cap], so
    at the cap the up-move folds into staying put.  The
    kernel evaluates the stage payoff at the initial state as well; after
    absorption the true counter sees a constant payoff instead, but memory
    evolution there influences neither payoffs nor best responses.
    """
    if not 0 <= cap <= config.last_level:
        raise ValueError(f"counter cap {cap} must lie in [0, {config.last_level}]"
                         f", the levels whose discount rate is normal")
    game = ngame.game
    per_cell = game.payoff.nbytes  # one float64 per (z, i, j) and (m, m')
    if (cap + 1) ** 2 * per_cell > MAX_TABLE_BYTES:
        fits = math.isqrt(MAX_TABLE_BYTES // per_cell) - 1
        raise ValueError(f"counter cap {cap} needs a {(cap + 1) ** 2 * per_cell:.3g}"
                         f"-byte memory kernel, over the {MAX_TABLE_BYTES}-byte "
                         f"limit; the largest cap that fits is {fits}")
    live = game.initial_state
    mix, shift = level_table(config, cache, range(cap + 1))
    m = np.arange(cap + 1)
    kernel = np.zeros((1, cap + 1, game.n_actions1, game.n_actions2,
                       game.n_states, cap + 1))
    moves = kernel[0]  # (M, I, J, Z', M')
    for a, step in enumerate(SHIFTS):
        moves[m, ..., np.clip(m + step, 0, cap)] += shift[:, live, ..., a]
    return PublicMemoryStrategyTable(memory_states=cap + 1, horizon=horizon,
                                     action=mix[None, :, live],
                                     memory_kernel=kernel)


# ---------------------------------------------------------------------------
# exact best response


@dataclass(frozen=True)
class BestResponse:
    """Minimizing pure clocked policy over (t, z, m) and its exact value."""

    policy: np.ndarray  # (T, Z, M) of player-2 action indices
    value: float        # expected average payoff under the policy


def best_response_public(ngame: NormalizedGame,
                         sigma: PublicMemoryStrategyTable,
                         horizon: int) -> BestResponse:
    """Exact best response of player 2 against a public-memory table that
    starts at memory 0.

    Backward induction over the joint observable state (z, m): V_t(z, m) is
    the minimal expected total payoff from stage t on.  Ties in the
    stage-wise minimization break toward the higher action index, so at
    exact indifference the policy plays the latter action.  Each stage
    contracts the nonzeros of the one-step law built once for its table row.
    """
    sigma.check_horizon(horizon)
    game = ngame.game
    sigma.check_game(game)
    nz, nj = game.n_states, game.n_actions2
    m_states = sigma.memory_states
    if horizon * nz * m_states > MAX_TABLE_BYTES:  # one int8 per (t, z, m)
        raise ValueError(f"a {horizon}-stage best response needs a "
                         f"{horizon * nz * m_states:.3g}-byte policy, over "
                         f"the {MAX_TABLE_BYTES}-byte limit")
    policy = np.zeros((horizon, nz, m_states), dtype=np.int8)
    values = np.zeros((nz, m_states))
    law = np.empty((m_states * nj, nz * m_states))  # (m, j) -> (z', m') from one z
    for t in range(horizon, 0, -1):
        if t == horizon or not sigma.stationary:
            act = stage_row(sigma.action, t)
            ker = stage_row(sigma.memory_kernel, t)
            stage = np.einsum("mi,zij->zmj", act, game.payoff)
            parts = []  # nonzeros (rows, cols, coef) of (z, m, j) -> (z', m')
            for z in range(nz):
                np.einsum("mi,ijw,mijwn->mjwn", act, game.transition[z], ker,
                          out=law.reshape(m_states, nj, nz, m_states))
                r, c = np.nonzero(law)
                parts.append((r + z * len(law), c, law[r, c]))
            rows, cols, coef = map(np.concatenate, zip(*parts))
        q = stage + np.bincount(rows, coef * values.ravel()[cols],
                                stage.size).reshape(stage.shape)
        values = q[:, :, 0]
        for j in range(1, nj):  # <= hands ties to the higher index
            policy[t - 1][q[:, :, j] <= values] = j
            values = np.minimum(values, q[:, :, j])
    return BestResponse(policy=policy,
                        value=float(values[game.initial_state, 0]) / horizon)


# ---------------------------------------------------------------------------
# adversary objects consumed by the simulation engine


class Adversary:
    """Defaults of the engine's player-2 interface: no uniform drawn at
    episode start, nothing to prepare for a horizon, no component.  Each
    subclass defines its own act(t, z, m, comp, u)."""

    init_draws = 0

    def prepare(self, horizon: int) -> None:
        pass

    def start(self, u0):
        return None


class StationaryAdversary(Adversary):
    """Plays a fixed mixture per game state, ignoring clock and memory."""

    def __init__(self, dist):
        self.cuts = cut_points(probability_rows("mixture", dist))

    def act(self, t, z, m, comp, u):
        return sample_rows(take_rows(self.cuts, z), u)


def stationary_adversary(dist) -> StationaryAdversary:
    return StationaryAdversary(dist)


def pure_column_adversary(n_states: int, n_cols: int, j: int) -> StationaryAdversary:
    dist = np.zeros((n_states, n_cols))
    dist[:, j] = 1.0
    return StationaryAdversary(dist)


class MarkovAdversary(Adversary):
    """Plays a per-stage mixture table (t, z); stages past the table clamp
    to its last row."""

    def __init__(self, dist_table):
        table = np.asarray(dist_table, dtype=np.float64)
        if table.ndim != 3:
            raise ValueError("expected a (stages, states, actions) table")
        self.cuts = cut_points(probability_rows("mixture", table))

    def act(self, t, z, m, comp, u):
        return sample_rows(take_rows(stage_row(self.cuts, t), z), u)


class BestResponseAdversary(Adversary):
    """Plays a precomputed backward-induction policy over (t, z, m).

    The policy is built for build_horizon stages by stages-remaining, and
    the last simulated stage always plays its last row: a shorter run plays
    only the plan's endgame, and in a longer one the early stages clamp to
    the deepest-horizon row (row 1).  Memory levels past the table clamp to
    its last row.
    """

    def __init__(self, policy: np.ndarray, build_horizon: int):
        self.policy = policy
        self.build_horizon = build_horizon
        self._shift = 0

    def prepare(self, horizon: int) -> None:
        self._shift = horizon - self.build_horizon

    def act(self, t, z, m, comp, u):
        row = max(1, t - self._shift)
        table = self.policy[row - 1]
        return table[z, np.minimum(m, table.shape[1] - 1)]


# ---------------------------------------------------------------------------
# worthlessness construction (Big Match)


@dataclass(frozen=True)
class PureClockedAdversary:
    """Pure clocked policy identified with the set of (t, m) pairs mapped to
    action one; everywhere else it plays action zero."""

    ones: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class BigMatchIndices:
    live: int
    absorb_action: int
    continue_action: int
    col_zero: int
    col_one: int


def big_match_indices(ngame: NormalizedGame) -> BigMatchIndices:
    """Locate the Big Match structure in a (possibly permuted) game."""
    game = ngame.game
    live = game.initial_state
    if game.n_actions1 != 2 or game.n_actions2 != 2:
        raise ValueError("Big Match structure requires 2x2 actions")
    stays = [bool(np.all(np.abs(game.transition[live, i, :, live] - 1.0) < PROB_TOL))
             for i in range(2)]
    leaves = [bool(np.all(game.transition[live, i, :, live] < PROB_TOL))
              for i in range(2)]
    if not any(stays) or not any(leaves):
        raise ValueError("no continuing/absorbing action pair at the "
                         "initial state")
    cont = stays.index(True)
    absorb = leaves.index(True)
    pay = game.payoff[live, cont]
    if abs(pay[0] - 1.0) < PROB_TOL and abs(pay[1]) < PROB_TOL:
        col_zero, col_one = 0, 1
    elif abs(pay[1] - 1.0) < PROB_TOL and abs(pay[0]) < PROB_TOL:
        col_zero, col_one = 1, 0
    else:
        raise ValueError("continuing payoffs are not the 1/0 pattern")
    if (abs(game.payoff[live, absorb, col_zero]) > PROB_TOL
            or abs(game.payoff[live, absorb, col_one] - 1.0) > PROB_TOL):
        raise ValueError("absorbing payoffs are not the 0/1 pattern")
    return BigMatchIndices(live=live, absorb_action=absorb,
                           continue_action=cont, col_zero=col_zero,
                           col_one=col_one)


class WorthlessnessError(RuntimeError):
    """Construction could not be completed within the horizon."""


@dataclass(frozen=True)
class WorthlessnessCertificate:
    """Everything the construction proves, and its one verdict.

    Entries are per construction step: budgets the absorb-action mass over
    each one-set, switch_stages and tails the n_i and the absorb-at-zero
    tail after it.  max_exceed_count is the most components whose exact
    stage payoff r^i_t is >= delta at a stage t >= t_delta = max n_i, and
    witness_value the least late-window (last tenth) mean of r^i_t.
    """

    delta: float
    horizon: int
    memory_states: int
    n_components: int
    switch_stages: tuple[int, ...]
    budgets: tuple[float, ...]
    tails: tuple[float, ...]
    max_exceed_count: int
    witness_value: float
    mixture_avg_payoff: float

    @property
    def t_delta(self) -> int:
        return max(self.switch_stages, default=1)

    def _checks(self) -> tuple[bool, bool, bool, bool]:
        """Budget, tail, count and mixture-average conditions."""
        return (max(self.budgets) < self.delta / 3,
                max(self.tails, default=0.0) < TAIL_TOL,
                self.max_exceed_count <= self.memory_states + 1,
                self.mixture_avg_payoff < 3 * self.delta)

    @property
    def passed(self) -> bool:
        return all(self._checks())

    def lines(self) -> list[str]:
        verdict = ["PASS" if ok else "FAIL" for ok in self._checks()]
        return [
            f"components: {self.n_components}  "
            f"(memory states {self.memory_states}, delta {self.delta:g})",
            f"t_delta (max switch stage): {self.t_delta}",
            f"max budget: {max(self.budgets):.6g} < delta/3 = "
            f"{self.delta / 3:.6g}: {verdict[0]}",
            f"max truncation tail: {max(self.tails, default=0.0):.3e} < "
            f"{TAIL_TOL:g}: {verdict[1]}",
            f"certificate count: max {self.max_exceed_count} "
            f"<= M+1 = {self.memory_states + 1}: {verdict[2]}",
            f"exact mixture average payoff at horizon: "
            f"{self.mixture_avg_payoff:.6g} (target < 3*delta = "
            f"{3 * self.delta:g})",
            f"eventual-payoff witness (best component, late window): "
            f"{self.witness_value:.6g} (target <= delta = {self.delta:g})",
        ]


@dataclass(frozen=True)
class WorthlessnessResult:
    mixture: MixedClockedAdversary
    certificate: WorthlessnessCertificate


def _forward_pass(a, c, kc0, kc1, ones):
    """Exact occupancy recursion for one pure clocked adversary.

    a[t-1, m]/c[t-1, m]: absorb/continue action probabilities and
    kc0/kc1[t-1, m, m']: memory kernels under continue and columns 0/1,
    one row per stage; ones: (T, M) bool, True where the adversary plays 1.
    Returns (occupancy Q, per-stage absorb-at-zero masses, stage payoffs).
    """
    occupancy = np.zeros(ones.shape)
    occupancy[0, 0] = 1.0
    for t in range(len(occupancy) - 1):
        occupancy[t + 1] = (occupancy[t] * c[t]) @ np.where(
            ones[t, :, None], kc1[t], kc0[t])
    absorb = occupancy * a
    absorb0 = absorb.sum(axis=1, where=~ones)
    payoffs = np.cumsum(absorb.sum(axis=1, where=ones))
    # continue vs column 0 pays 1
    payoffs += np.multiply(occupancy, c, out=absorb).sum(axis=1, where=~ones)
    return occupancy, absorb0, payoffs


def build_worthlessness_adversary(ngame: NormalizedGame,
                                  sigma: PublicMemoryStrategyTable,
                                  delta: float, horizon: int) -> WorthlessnessResult:
    """Synthesize the uniform mixture that certifies worthlessness of a
    public-memory Big Match strategy.

    Component 1 always plays 0.  Inductively, against component i the exact
    per-stage payoffs r^i_t are computed by forward recursion; every stage
    from the switch stage n_i on where r^i_t >= delta contributes the pair
    (t, m(t)) with the heaviest still-unused occupancy (guaranteed
    >= delta/(3M)); n_i is the least stage where the absorb-action budget of
    the enlarged set stays below delta/3 and the post-n_i absorb-at-zero
    tail is below TAIL_TOL.  Components are collected until their number
    exceeds (M+1)/delta; once a step adds no pair, the remaining components
    equal the last one.  The one-sets are nested, so the mixture is stored
    as the first component that plays one at each cell, a (T, M) int64 map.
    The size check counts the builder's (T, M) and (T,) arrays; each
    step's stage payoffs feed the certificate as they are made.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    sigma.check_horizon(horizon)
    idx = big_match_indices(ngame)
    sigma.check_game(ngame.game)
    m_states = sigma.memory_states
    need = 8 * horizon * (5 * m_states + 16)  # the (T, M) and (T,) arrays
    if need > MAX_TABLE_BYTES:
        raise ValueError(f"horizon {horizon} needs {need:.3g} bytes of working "
                         f"arrays, over the {MAX_TABLE_BYTES}-byte limit; the "
                         f"largest horizon that fits is "
                         f"{MAX_TABLE_BYTES // (8 * (5 * m_states + 16))}")
    n_components = (1 if delta >= 1.0
                    else int(np.floor((m_states + 1) / delta)) + 1)

    def per_stage(x):  # one row per stage 1..horizon, stationary or not
        return np.broadcast_to(x[:horizon], (horizon,) + x.shape[1:])

    a = per_stage(sigma.action[:, :, idx.absorb_action])
    c = per_stage(sigma.action[:, :, idx.continue_action])
    kern = per_stage(
        sigma.memory_kernel[:, :, idx.continue_action, :, idx.live])
    kc0, kc1 = kern[:, :, idx.col_zero], kern[:, :, idx.col_one]

    first = np.full((horizon, m_states), n_components, dtype=np.int64)
    switch_stages: list[int] = []
    budgets: list[float] = []
    tails: list[float] = []
    exceed = np.zeros(horizon, dtype=np.int64)  # components >= delta per stage
    witness, total = math.inf, 0.0

    for comp_index in range(n_components):
        ones = first <= comp_index
        occupancy, absorb0, payoffs = _forward_pass(a, c, kc0, kc1, ones)
        budgets.append(float(a[ones].sum()))
        witness = min(witness, float(payoffs[-max(1, horizon // 10):].mean()))
        total += payoffs.sum()
        hot = np.flatnonzero(payoffs >= delta)
        exceed[hot] += 1
        if comp_index == n_components - 1:
            break

        # each hot stage takes its heaviest unused cell; used cells read -1
        np.copyto(occupancy, -1.0, where=ones)
        pick = occupancy.argmax(axis=1)[hot]
        threshold = delta / (3.0 * m_states)
        short = np.flatnonzero(occupancy[hot, pick] < threshold)
        if short.size:
            t = hot[short[0]]
            raise WorthlessnessError(
                f"internal invariant violated at stage {t + 1}: no unused "
                f"memory with occupancy >= delta/(3M) = {threshold:g} "
                f"although the stage payoff is {payoffs[t]:.6g}")

        add_cost = np.zeros(horizon)
        add_cost[hot] = a[hot, pick]
        # the budget if the cells from stage t on join the one-set
        budget_from = budgets[-1] + np.cumsum(add_cost[::-1])[::-1]
        tail0 = np.concatenate([np.cumsum(absorb0[::-1])[::-1][1:], [0.0]])
        feasible = np.flatnonzero(
            (budget_from < delta / 3.0) & (tail0 < TAIL_TOL))
        if feasible.size == 0:  # tail0[-1] is 0, so the budget binds
            raise WorthlessnessError(
                f"horizon {horizon} too short for component {comp_index + 2}"
                f": binding constraint is absorb-action budget "
                f"({budget_from[-1]:.6g} vs {delta / 3:.6g})")
        n_i = int(feasible[0]) + 1
        switch_stages.append(n_i)
        tails.append(float(tail0[n_i - 1]))
        late = hot + 1 >= n_i
        if not late.any():
            break  # the one-set is final: every later step would repeat it
        first[hot[late], pick[late]] = comp_index + 1

    # later components repeat the last step, below delta from t_delta on
    total += (n_components - len(budgets)) * payoffs.sum()
    certificate = WorthlessnessCertificate(
        delta=delta, horizon=horizon, memory_states=m_states,
        n_components=n_components, switch_stages=tuple(switch_stages),
        budgets=tuple(budgets), tails=tuple(tails),
        max_exceed_count=int(exceed[max(switch_stages, default=1) - 1:].max()),
        witness_value=witness,
        mixture_avg_payoff=float(total / (n_components * horizon)))
    return WorthlessnessResult(
        mixture=MixedClockedAdversary(first, n_components, idx),
        certificate=certificate)


class MixedClockedAdversary(Adversary):
    """Uniform mixture of n nested pure clocked components, played directly.

    first[t-1, m] is the first component that plays column one at (t, m),
    or n if none does; component c plays column one there iff
    c >= first[t-1, m].  Memory levels past the map clamp to its last
    column.  Consumes one uniform at episode start (the component draw).
    """

    init_draws = 1

    def __init__(self, first, n_components: int, indices: BigMatchIndices):
        self.first = np.asarray(first, dtype=np.int64)
        self.n_components = n_components
        self.indices = indices

    def prepare(self, horizon: int) -> None:
        if horizon > self.first.shape[0]:
            raise ValueError(f"horizon {horizon} exceeds the mixture's "
                             f"table {self.first.shape[0]}")

    def start(self, u0):
        return (u0 * self.n_components).astype(np.int64)

    def act(self, t, z, m, comp, u):
        first = self.first[t - 1].take(np.minimum(m, self.first.shape[1] - 1))
        return np.where(comp >= first, self.indices.col_one,
                        self.indices.col_zero)

    def cells(self, c: int) -> np.ndarray:
        """Component c's one-set as (t, m) rows in row-major order."""
        return np.argwhere(self.first <= c) + (1, 0)

    def distinct_sets(self):
        """Each distinct one-set once, as (c, stop, cells(c)): components c
        up to stop - 1 share it.  A set changes only at a component that is
        some cell's first."""
        starts = np.union1d([0, self.n_components], self.first).tolist()
        for c, stop in zip(starts, starts[1:]):
            yield c, stop, self.cells(c)

    @cached_property
    def components(self) -> tuple[PureClockedAdversary, ...]:
        """Each component's one-set as (t, m) cells; components with equal
        sets share one object."""
        comps: list[PureClockedAdversary] = []
        for c, stop, cells in self.distinct_sets():
            comp = PureClockedAdversary(frozenset(map(tuple, cells.tolist())))
            comps += [comp] * (stop - c)
        return tuple(comps)
