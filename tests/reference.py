"""Exact-arithmetic references that the tests compare the library against."""

import csv
import io
import itertools
import json
from fractions import Fraction

import numpy as np

from stochgame import counter, solve_matrix_game
from stochgame.adversary import (TAIL_TOL, BestResponse,
                                 MixedClockedAdversary,
                                 WorthlessnessCertificate, WorthlessnessError,
                                 WorthlessnessResult, big_match_indices)
from stochgame.engine import TRACE_COLUMNS, fmt
from stochgame.games import MAX_TABLE_BYTES, stage_row


def best_response_exact(payoff, transition, action, kernel, horizon: int,
                        initial_state: int, initial_memory: int = 0):
    """Exact-arithmetic twin of best_response_public on nested lists.

    Inputs may be Fractions (or any exact numbers); no floats are introduced
    so the result is exactly comparable with an enumeration oracle.  action
    is [t][m][i] and kernel is [t][m][i][j][z'][m'], both indexed from
    stage 1 at index 0.  Ties break toward the higher action index, same as
    the float path.  Returns (policy[t][z][m], total_value / horizon).
    """
    nz = len(payoff)
    ni = len(payoff[0])
    nj = len(payoff[0][0])
    m_states = len(action[0])
    values = [[0 for _ in range(m_states)] for _ in range(nz)]
    policy = []
    for t in range(horizon, 0, -1):
        act = action[t - 1]
        ker = kernel[t - 1]
        new_values = [[0] * m_states for _ in range(nz)]
        stage_policy = [[0] * m_states for _ in range(nz)]
        for z in range(nz):
            for m in range(m_states):
                best = None
                best_j = 0
                for j in range(nj):
                    total = 0
                    for i in range(ni):
                        w = act[m][i]
                        if w == 0:
                            continue
                        cont = 0
                        for z2 in range(nz):
                            p = transition[z][i][j][z2]
                            if p == 0:
                                continue
                            inner = 0
                            for m2 in range(m_states):
                                km = ker[m][i][j][z2][m2]
                                if km != 0:
                                    inner += km * values[z2][m2]
                            cont += p * inner
                        total += w * (payoff[z][i][j] + cont)
                    if best is None or total <= best:
                        best = total
                        best_j = j
                new_values[z][m] = best
                stage_policy[z][m] = best_j
        values = new_values
        policy.append(stage_policy)
    policy.reverse()
    total = values[initial_state][initial_memory]
    return policy, total / horizon


def best_response_dense(ngame, sigma, horizon: int):
    """Float twin of best_response_public that contracts the whole dense
    kernel with four einsums at every stage.  Returns (BestResponse, gap):
    gap[t-1, z, m] is the distance from the least q value to the next one,
    the margin by which the chosen action wins."""
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
    gap = np.full((horizon, nz, m_states), np.inf)
    values = np.zeros((nz, m_states))
    for t in range(horizon, 0, -1):
        act = stage_row(sigma.action, t)         # (M, I)
        ker = stage_row(sigma.memory_kernel, t)  # (M, I, J, Z, M')
        cont = np.einsum("mijwn,wn->mijw", ker, values)
        expected = np.einsum("zijw,mijw->zmij", game.transition, cont)
        stage = np.einsum("mi,zij->zmj", act, game.payoff)
        q = stage + np.einsum("mi,zmij->zmj", act, expected)
        policy[t - 1] = (nj - 1) - q[:, :, ::-1].argmin(axis=2)
        values = q.min(axis=2)
        if nj > 1:
            gap[t - 1] = np.sort(q, axis=2)[:, :, 1] - values
    z0 = game.initial_state
    return BestResponse(policy=policy,
                        value=float(values[z0, 0]) / horizon), gap


def move_law(config, level: int, payoff: float, value_next: float):
    """Scalar closed form of the counter's move law in Python floats.

    Returns (p_up, p_stay, p_down) with d = payoff - value_next + epsilon/2
    at position s = config.position_at(level): up d/(s(growth-1)) when
    d > 0, down |d|*growth/(s(growth-1)) when d < 0 above level 0.
    """
    d = payoff - value_next + config.epsilon / 2.0
    denom = config.position_at(level) * (config.growth - 1.0)
    p_up = d / denom if d > 0.0 else 0.0
    p_down = -d * config.growth / denom if d < 0.0 and level > 0 else 0.0
    return p_up, 1.0 - p_up - p_down, p_down


def _solve_exact(a, b):
    """Solve a x = b by Gauss-Jordan elimination over Fractions."""
    n = len(b)
    rows = [list(a[i]) + [b[i]] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def best_reply_exact(payoff, transition, lam, strategy, replying_player: int):
    """Exact discounted value of the best reply to a fixed stationary mixture.

    replying_player 2 answers player 1's per-state mixture (Z, I) and
    minimizes, giving L <= v_lam; replying_player 1 answers player 2's
    (Z, J) and maximizes, giving U >= v_lam.  Every pure stationary policy
    of the replying player is evaluated from v = lam r + (1 - lam) P v in
    Fractions, floats entering as the exact rationals they are and each
    state's mixture rescaled to total exactly 1; the pointwise optimum over
    these policies is the value of the reply MDP.  The game's transition
    rows must sum to exactly 1 in floating point.  Returns a list of
    Fractions, one per state.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    if replying_player == 1:   # the fixed player's actions go on axis 1
        payoff = payoff.swapaxes(1, 2)
        transition = transition.swapaxes(1, 2)
    nz, n_fixed, n_reply = payoff.shape
    lam = Fraction(float(lam))
    mix = [[Fraction(float(q)) for q in row] for row in strategy]
    mix = [[q / sum(row) for q in row] for row in mix]
    r = [[sum(mix[z][o] * Fraction(float(payoff[z, o, a]))
              for o in range(n_fixed)) for a in range(n_reply)]
         for z in range(nz)]
    p = [[[sum(mix[z][o] * Fraction(float(transition[z, o, a, w]))
               for o in range(n_fixed)) for w in range(nz)]
          for a in range(n_reply)] for z in range(nz)]
    pick = min if replying_player == 2 else max
    best = None
    for policy in itertools.product(range(n_reply), repeat=nz):
        a = [[(1 if z == w else 0) - (1 - lam) * p[z][policy[z]][w]
              for w in range(nz)] for z in range(nz)]
        v = _solve_exact(a, [lam * r[z][policy[z]] for z in range(nz)])
        best = v if best is None else [pick(x, y) for x, y in zip(best, v)]
    return best


def shapley_operator(ngame, lam: float, values) -> np.ndarray:
    """One application of the Shapley operator,
    T(v)(z) = val[ lam r(z) + (1 - lam) P(z) v ], by one matrix-game solve
    per state."""
    game = ngame.game
    cont = np.tensordot(game.transition, np.asarray(values, dtype=np.float64),
                        axes=([3], [0]))
    return np.array([solve_matrix_game(m).value
                     for m in lam * game.payoff + (1.0 - lam) * cont])


def counter_reach_probability(ngame, config, cache, levels, horizon: int,
                              column_mix=None) -> np.ndarray:
    """Exact P(the counter's level reaches K by stage n), by one backward
    induction over (stage, state, level) with level K absorbing.

    Row n of the (horizon + 1, len(levels)) result holds, for each K in
    levels, the probability that the level at the start of some stage
    1..n is at least K, as the engine's max-memory histogram counts it;
    row 0 is 0.  Player 1 plays and moves the level by
    counter.level_table, the table the engine and from_counter_strategy
    read.  Player 2 plays column_mix (Z, J) when given; otherwise it sees
    the level and picks, per (stage, state, level), the column that
    maximizes the chance of reaching K, which bounds every real opponent
    from above.  The play is time-homogeneous, so one pass of horizon - 1
    steps gives every n <= horizon.
    """
    game = ngame.game
    nz, nj = game.n_states, game.n_actions2
    top = max(levels)
    m = np.arange(top)
    act, shift = counter.level_table(config, cache, range(top))
    # step[a][m] maps v[level after shift counter.SHIFTS[a], z'] to the
    # (z, j) rows
    step = [np.einsum("mzi,zijw,mzijw->mzjw", act, game.transition,
                      shift[..., a]).reshape(top, nz * nj, nz)
            for a in range(len(counter.SHIFTS))]
    live = m[:, None, None] < np.asarray(levels)[None, None, :]
    v = np.ones((top + 1, nz, len(levels)))  # v[level, z, K]
    v[:top] = np.where(live, 0.0, 1.0)
    out = np.zeros((horizon + 1, len(levels)))
    for n in range(1, horizon + 1):
        out[n] = v[0, game.initial_state]
        if n == horizon:
            break
        q = (step[2] @ v[np.maximum(m - 1, 0)] + step[1] @ v[:top]
             + step[0] @ v[1:]).reshape(top, nz, nj, len(levels))
        best = (q.max(axis=2) if column_mix is None
                else np.einsum("mzjk,zj->mzk", q, column_mix))
        v[:top] = np.where(live, best, 1.0)
    return out


def _forward_pass(a, c, kc0, kc1, ones, horizon):
    """Exact occupancy recursion for one pure clocked adversary, one stage
    at a time.

    a[t-1, m]/c[t-1, m]: absorb/continue action probabilities (a single
    row when stationary); kc0/kc1: memory kernels under continue and
    columns 0/1; ones: (T, M) bool, True where the adversary plays 1.
    Returns (occupancy Q, per-stage absorb-at-zero masses, stage payoffs).
    """
    occupancy = np.zeros((horizon, a.shape[1]))
    occupancy[0, 0] = 1.0
    absorb1 = np.zeros(horizon)
    absorb0 = np.zeros(horizon)
    live_pay = np.zeros(horizon)
    for t in range(horizon):
        q = occupancy[t]
        mask = ones[t]
        absorb_mass = q * stage_row(a, t + 1)
        absorb1[t] = absorb_mass[mask].sum()
        absorb0[t] = absorb_mass[~mask].sum()
        cont_mass = q * stage_row(c, t + 1)
        live_pay[t] = cont_mass[~mask].sum()  # continue vs column 0 pays 1
        if t + 1 < horizon:
            k_eff = np.where(mask[:, None], stage_row(kc1, t + 1),
                             stage_row(kc0, t + 1))
            occupancy[t + 1] = cont_mass @ k_eff
    payoffs = np.cumsum(absorb1) + live_pay
    return occupancy, absorb0, payoffs


def worthlessness_reference(ngame, sigma, delta: float, horizon: int):
    """Per-stage twin of build_worthlessness_adversary: the forward pass
    and the cell selection walk the stages one at a time.  Returns the same
    WorthlessnessResult and the (steps, T) stage payoffs it is read off."""
    idx = big_match_indices(ngame)
    m_states = sigma.memory_states
    n_components = (1 if delta >= 1.0
                    else int(np.floor((m_states + 1) / delta)) + 1)

    a = sigma.action[:, :, idx.absorb_action]
    c = sigma.action[:, :, idx.continue_action]
    kern = sigma.memory_kernel
    kc0 = kern[:, :, idx.continue_action, idx.col_zero, idx.live, :]
    kc1 = kern[:, :, idx.continue_action, idx.col_one, idx.live, :]
    a_full = a[np.minimum(np.arange(horizon), len(a) - 1)]  # stage_row per t

    first = np.full((horizon, m_states), n_components, dtype=np.int64)
    switch_stages: list[int] = []
    budgets: list[float] = []
    tails: list[float] = []
    stage_payoffs: list[np.ndarray] = []

    for comp_index in range(n_components):
        ones = first <= comp_index
        occupancy, absorb0, payoffs = _forward_pass(
            a, c, kc0, kc1, ones, horizon)
        stage_payoffs.append(payoffs)
        budgets.append(float(a_full[ones].sum()))
        if comp_index == n_components - 1:
            break

        hot = payoffs >= delta  # stages still collecting delta
        selection = np.full(horizon, -1, dtype=np.int64)
        threshold = delta / (3.0 * m_states)
        for t in np.flatnonzero(hot):
            masked = np.where(ones[t], -1.0, occupancy[t])
            m_best = int(masked.argmax())
            if masked[m_best] < threshold:
                raise WorthlessnessError(
                    f"internal invariant violated at stage {t + 1}: no unused "
                    f"memory with occupancy >= delta/(3M) = {threshold:g} "
                    f"although the stage payoff is {payoffs[t]:.6g}")
            selection[t] = m_best

        base_budget = budgets[-1]
        add_cost = np.zeros(horizon)
        sel_t = np.flatnonzero(selection >= 0)
        add_cost[sel_t] = a_full[sel_t, selection[sel_t]]
        suffix_cost = np.cumsum(add_cost[::-1])[::-1]
        tail0 = np.concatenate([np.cumsum(absorb0[::-1])[::-1][1:], [0.0]])
        feasible = np.flatnonzero(
            (base_budget + suffix_cost < delta / 3.0) & (tail0 < TAIL_TOL))
        if feasible.size == 0:  # tail0[-1] is 0, so the budget binds
            raise WorthlessnessError(
                f"horizon {horizon} too short for component {comp_index + 2}"
                f": binding constraint is absorb-action budget "
                f"({base_budget + suffix_cost[-1]:.6g} vs {delta / 3:.6g})")
        n_i = int(feasible[0]) + 1
        switch_stages.append(n_i)
        tails.append(float(tail0[n_i - 1]))
        added = sel_t[sel_t + 1 >= n_i]
        if added.size == 0:
            break  # the one-set is final: every later step would repeat it
        first[added, selection[added]] = comp_index + 1

    rows = np.array(stage_payoffs)
    total = rows.sum() + (n_components - len(rows)) * rows[-1].sum()
    t_delta = max(switch_stages) if switch_stages else 1
    window = max(1, horizon // 10)
    certificate = WorthlessnessCertificate(
        delta=delta, horizon=horizon, memory_states=m_states,
        n_components=n_components, switch_stages=tuple(switch_stages),
        budgets=tuple(budgets), tails=tuple(tails),
        # the last step's row is below delta from t_delta on, so its
        # repeats add no count there
        max_exceed_count=int((rows[:, t_delta - 1:] >= delta).sum(axis=0).max()),
        witness_value=float(rows[:, -window:].mean(axis=1).min()),
        mixture_avg_payoff=float(total / (n_components * horizon)))
    return WorthlessnessResult(
        mixture=MixedClockedAdversary(first, n_components, idx),
        certificate=certificate), rows


def adversary_json_reference(delta: float, horizon: int, memory_states: int,
                             mixture) -> str:
    """adversary.json as the CLI once wrote it: each component's one-set
    grown as a frozenset of (t, m) cells by union over the cells where
    first equals c, then written sorted.  The CLI's writer, one component
    at a time, must give the same bytes."""
    first, n = mixture.first, mixture.n_components
    comps = []
    ones = frozenset()
    for c in np.unique(first[first < n]).tolist():
        comps += [ones] * (c - len(comps))
        ones = ones | {(int(t) + 1, int(m)) for t, m in np.argwhere(first == c)}
    comps += [ones] * (n - len(comps))
    fh = io.StringIO()
    json.dump({
        "delta": delta,
        "horizon": horizon,
        "M": memory_states,
        "components": [sorted(map(list, c)) for c in comps],
    }, fh)
    fh.write("\n")
    return fh.getvalue()


def trace_csv_reference(traces) -> str:
    """trace.csv as the CLI once wrote it: every cell formatted on its own
    by engine.fmt.  write_trace_csv must give the same bytes."""
    fh = io.StringIO(newline="")
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
    return fh.getvalue()
