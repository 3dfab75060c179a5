"""Exact-arithmetic oracles that the tests compare the library against."""


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
