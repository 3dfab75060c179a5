"""Shared fixtures: the absorbing benchmark game and a warm solution cache."""

import numpy as np
import pytest

from stochgame import (CounterConfig, GameSpec, SolutionCache, big_match,
                       make_config, normalize_payoffs)


@pytest.fixture(scope="session")
def bm_game():
    return big_match()


@pytest.fixture(scope="session")
def bm(bm_game):
    return normalize_payoffs(bm_game)


@pytest.fixture(scope="session")
def config() -> CounterConfig:
    return make_config(0.2, 100.0)


@pytest.fixture(scope="session")
def cache(bm, config) -> SolutionCache:
    return SolutionCache(bm, config)


@pytest.fixture(scope="session")
def live(bm_game) -> int:
    return bm_game.states.index("live")


def make_rng(tag: int) -> np.random.Generator:
    # one seed root so reruns – and failures – are reproducible
    return np.random.default_rng(0x5EED0000 + tag)


def big_match_paying(a: float) -> GameSpec:
    """The Big Match with C-vs-0 paying a instead of 1.

    Its discounted value is a / (1 + a) at every rate lam, where player 1
    absorbs with probability lam a / (1 + lam a); for a != 1 the value is
    not the solver's starting guess 1/2.
    """
    game = big_match()
    payoff = game.payoff.copy()
    payoff[game.state_index("live"), game.actions1.index("C"), 0] = a
    return GameSpec(game.states, game.actions1, game.actions2, payoff,
                    game.transition, game.initial_state)
