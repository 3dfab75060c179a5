"""Exact-arithmetic references that the tests compare the library against."""

import itertools
from fractions import Fraction

import numpy as np

from stochgame import counter, solve_matrix_game


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
