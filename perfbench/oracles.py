"""Independent oracles for the benchmark's correctness checks.

Every function here works on plain numpy arrays and JSON documents and
imports nothing from ``stochgame``: the benchmark hands it the program's
outputs and the game's arrays, so a fault in the program cannot also hide
in the oracle.

Conventions match the program's normalized games: ``payoff`` has shape
(Z, I, J) with player 1 (rows) maximizing, ``transition`` has shape
(Z, I, J, Z), and the discounted value at rate ``lam`` is the fixed point
of v = lam * r + (1 - lam) * P v.
"""

from __future__ import annotations

import numpy as np


def _policy_matrix(p_pol: np.ndarray, lam: float) -> np.ndarray:
    """I - (1 - lam) P for one stationary policy, built without cancellation.

    The diagonal 1 - (1 - lam) P_zz is written as (1 - P_zz) + lam P_zz with
    1 - P_zz taken as the off-diagonal row mass, which stays exact when
    P_zz is 1 and lam is far below the float resolution of 1.
    """
    nz = p_pol.shape[0]
    off = p_pol.copy()
    off[np.arange(nz), np.arange(nz)] = 0.0
    stay = np.diagonal(p_pol)
    mat = -(1.0 - lam) * off
    mat[np.arange(nz), np.arange(nz)] = off.sum(axis=1) + lam * stay
    return mat


def best_reply_value(payoff, transition, lam: float, strategy,
                     replying_player: int, max_rounds: int = 200) -> np.ndarray:
    """Discounted value of the best reply to a fixed stationary strategy.

    ``replying_player`` 2 fixes player 1's per-state mixture ``strategy``
    (Z, I) and lets player 2 minimize, which gives a lower bound L on the
    game's value; 1 fixes player 2's mixture (Z, J) and lets player 1
    maximize, which gives an upper bound U.  The replying player faces a
    finite MDP, solved by policy iteration: each policy is evaluated with
    ``numpy.linalg.solve`` and improved where some action is better by more
    than round-off.

    Actions are compared by their advantage
    lam (r - v_z) + (1 - lam) sum_w p_w (v_w - v_z), not by the one-step
    value itself: at rates near 1e-10 two actions' one-step values differ
    by about 1e-16, below the float resolution of a value near 1/2, while
    the advantage keeps its full relative precision.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    strategy = np.asarray(strategy, dtype=np.float64)
    if replying_player == 2:
        r = np.einsum("zi,zij->zj", strategy, payoff)
        p = np.einsum("zi,zijw->zjw", strategy, transition)
        sign = 1.0
    elif replying_player == 1:
        r = np.einsum("zj,zij->zi", strategy, payoff)
        p = np.einsum("zj,zijw->ziw", strategy, transition)
        sign = -1.0
    else:
        raise ValueError(f"replying_player must be 1 or 2, got {replying_player}")
    nz = r.shape[0]
    rows = np.arange(nz)
    policy = np.zeros(nz, dtype=np.int64)
    for _ in range(max_rounds):
        v = np.linalg.solve(_policy_matrix(p[rows, policy], lam),
                            lam * r[rows, policy])
        spread = v[None, None, :] - v[:, None, None]
        drift = (p * spread).sum(axis=2)
        adv = sign * (lam * (r - v[:, None]) + (1.0 - lam) * drift)
        scale = (lam * (np.abs(r) + np.abs(v)[:, None])
                 + (p * np.abs(spread)).sum(axis=2)).max(axis=1)
        best = adv.argmin(axis=1)
        better = adv[rows, best] < adv[rows, policy] - 1e-14 * scale
        if not better.any():
            return v
        policy = np.where(better, best, policy)
    raise RuntimeError(f"policy iteration did not settle in {max_rounds} rounds")


def certify_level(payoff, transition, lam: float, values, strategy1,
                  strategy2, tol: float) -> tuple[bool, float, float]:
    """Check a claimed discounted solution with the best-reply bracket.

    Returns (ok, worst, gap): L is player 2's best reply to strategy1 and U
    player 1's best reply to strategy2, so L <= v_lam <= U.  ok holds when
    L <= U up to round-off and every claimed value lies in [L - tol, U + tol];
    worst is the largest distance by which a value leaves [L, U] (0 when
    inside) and gap is max(U - L).
    """
    values = np.asarray(values, dtype=np.float64)
    low = best_reply_value(payoff, transition, lam, strategy1, 2)
    high = best_reply_value(payoff, transition, lam, strategy2, 1)
    outside = np.maximum(low - values, values - high)
    worst = float(max(outside.max(), 0.0))
    gap = float((high - low).max())
    ok = bool(np.all(low <= high + 1e-12) and worst <= tol)
    return ok, worst, gap


def solve_2x2(matrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal mixtures of a 2x2 zero-sum game (rows maximize),
    in closed form: a pure saddle point if there is one, otherwise the
    mixtures that make the other player indifferent."""
    (a, b), (c, d) = np.asarray(matrix, dtype=np.float64)
    lower = max(min(a, b), min(c, d))
    upper = min(max(a, c), max(b, d))
    if lower >= upper:
        i = 0 if min(a, b) >= min(c, d) else 1
        j = 0 if max(a, c) <= max(b, d) else 1
        return float(lower), np.eye(2)[i], np.eye(2)[j]
    den = a - b - c + d
    p, q = (d - c) / den, (d - b) / den
    return (float((a * d - b * c) / den), np.array([p, 1.0 - p]),
            np.array([q, 1.0 - q]))


def value_bracket(payoff, transition, lam: float, max_rounds: int = 100,
                  width: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """An independent bracket L <= v_lam <= U for a game with 2x2 actions.

    Hoffman-Karp strategy iteration: player 1's stationary mixture is
    improved on the one-shot games whose continuation is the value of
    player 2's best reply to the previous mixture, and the two best-reply
    values of the current pair of mixtures bracket v_lam.  Stops once the
    bracket is narrower than ``width`` everywhere.  Meant for rates such as
    1e-3, where one-shot entries differ far above float resolution; near
    1e-10 the closed-form 2x2 solve loses its digits to cancellation.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    if payoff.shape[1:] != (2, 2):
        raise ValueError(f"value_bracket needs 2x2 actions, got {payoff.shape[1:]}")
    nz = payoff.shape[0]
    v = np.full(nz, 0.5)
    for _ in range(max_rounds):
        one_shot = lam * payoff + (1.0 - lam) * (transition @ v)
        solved = [solve_2x2(one_shot[z]) for z in range(nz)]
        x = np.array([s[1] for s in solved])
        y = np.array([s[2] for s in solved])
        low = best_reply_value(payoff, transition, lam, x, 2)
        high = best_reply_value(payoff, transition, lam, y, 1)
        if (high - low).max() <= width:
            break
        v = low
    return low, high


def big_match_closed_form(a: float, lam: float) -> tuple[float, float]:
    """Value and absorbing-action probability of the Big Match whose C-vs-0
    payoff is a: v = a / (1 + a) at every rate, x_lam(A) = lam a / (1 + lam a).
    """
    return a / (1.0 + a), lam * a / (1.0 + lam * a)


def forward_stage_payoffs(payoff, transition, action, kernel, columns,
                          horizon: int, initial_state: int,
                          initial_memory: int = 0) -> np.ndarray:
    """Exact expected stage payoffs of a public-memory strategy against a
    clocked column rule, by a forward recursion over (t, z, m).

    ``action`` is (M, I), the same mixture in every game state as the
    engine's table strategy plays it, or (Z, M, I).  ``kernel`` (M, I, J,
    Z, M) is the memory update.  ``columns`` is either an integer policy
    (T, Z, M) of player-2 actions or mixtures (T or 1, Z, M, J) over them.
    Returns the expected payoff of each stage 1..horizon.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    nz, _, nj = payoff.shape
    action = np.asarray(action, dtype=np.float64)
    if action.ndim == 2:
        action = np.broadcast_to(action, (nz,) + action.shape)
    m_states = action.shape[1]
    # stage[z, m, j]: expected stage payoff; step[z, m, j, z', m']: one-step
    # law of the observable pair, both with player 1's mixture summed out.
    stage = np.einsum("zmi,zij->zmj", action, payoff).reshape(-1)
    step = np.einsum("zmi,zijw,mijwn->zmjwn", action, transition, kernel)
    step = step.reshape(nz * m_states * nj, nz * m_states)
    columns = np.asarray(columns)
    pure = columns.ndim == 3
    dist = np.zeros((nz, m_states))
    dist[initial_state, initial_memory] = 1.0
    out = np.empty(horizon)
    for t in range(horizon):
        if pure:
            mix = np.zeros((nz, m_states, nj))
            np.put_along_axis(mix, columns[t][..., None].astype(np.int64),
                              1.0, axis=2)
        else:
            mix = columns[min(t, columns.shape[0] - 1)]
        weights = (dist[..., None] * mix).reshape(-1)
        out[t] = weights @ stage
        dist = (weights @ step).reshape(nz, m_states)
    return out


def check_best_response(payoff, transition, action, kernel, policy,
                        claimed_value: float, initial_state: int,
                        tol: float = 1e-9) -> tuple[bool, dict[str, float]]:
    """Evaluate a claimed best response and compare it with the constant
    column policies.

    ok holds when the policy's evaluated average payoff equals
    claimed_value to tol and no constant column does better (lower).
    """
    policy = np.asarray(policy)
    horizon = policy.shape[0]
    nj = np.asarray(payoff).shape[2]
    rules = {"policy": policy}
    rules.update({f"always-{j}": np.full_like(policy, j) for j in range(nj)})
    found = {name: float(forward_stage_payoffs(
        payoff, transition, action, kernel, rule, horizon,
        initial_state).mean()) for name, rule in rules.items()}
    ok = abs(found["policy"] - claimed_value) <= tol and all(
        claimed_value <= found[f"always-{j}"] + tol for j in range(nj))
    return ok, found


def mixture_payoff_vs_always_continue(doc: dict) -> float:
    """Exact average payoff of a worthlessness mixture against the Big Match
    strategy that always continues, from ``adversary.json`` alone.

    That strategy has one memory state and never absorbs, so a component
    pays 1 at stage t exactly when it plays column 0 there, that is when
    (t, 0) is not among its cells.
    """
    horizon = int(doc["horizon"])
    if int(doc["M"]) != 1:
        raise ValueError("always-continue has one memory state; "
                         f"the document has M = {doc['M']}")
    payoffs = []
    for cells in doc["components"]:
        ones = {int(t) for t, m in cells if int(m) == 0 and 1 <= int(t) <= horizon}
        payoffs.append((horizon - len(ones)) / horizon)
    return float(np.mean(payoffs))
