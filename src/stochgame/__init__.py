"""Finite zero-sum stochastic games: discounted solver, a memory-efficient
uniformly near-optimal strategy built on a geometric counter, opponents up
to the exact public-memory best response, and a reproducible simulation
engine with a CLI front end."""

from .games import (GameSpec, GameValidationError, NormalizedGame, big_match,
                    load_game, normalize_payoffs, save_game, validate_game)
from .matrix import MatrixSolution, MatrixSolveError, solve_matrix_game
from .discounted import (DiscountedSolution, SolutionCache,
                         SolverIterationError, estimate_value_limit,
                         solve_discounted)
from .counter import (CounterConfig, FeasibilityError, make_config,
                      update_distribution, validate_constants)
from .adversary import (MixedClockedAdversary, PublicMemoryStrategyTable,
                        PureClockedAdversary, WorthlessnessError,
                        best_response_public, build_worthlessness_adversary,
                        from_counter_strategy, load_strategy_table,
                        save_strategy_table, stationary_adversary)
from .engine import (CounterStrategy, EpisodeTrace, RunStatistics,
                     StationaryStrategy, TableStrategy, default_checkpoints,
                     monte_carlo, run_traces, write_statistics_csv,
                     write_trace_csv)

__version__ = "0.1.0"

__all__ = [
    "GameSpec", "GameValidationError", "NormalizedGame", "big_match",
    "load_game", "normalize_payoffs", "save_game", "validate_game",
    "MatrixSolution", "MatrixSolveError", "solve_matrix_game",
    "DiscountedSolution", "SolutionCache", "SolverIterationError",
    "estimate_value_limit", "solve_discounted",
    "CounterConfig", "FeasibilityError", "make_config", "update_distribution",
    "validate_constants",
    "MixedClockedAdversary", "PublicMemoryStrategyTable",
    "PureClockedAdversary", "WorthlessnessError", "best_response_public",
    "build_worthlessness_adversary", "from_counter_strategy",
    "load_strategy_table", "save_strategy_table", "stationary_adversary",
    "CounterStrategy", "EpisodeTrace", "RunStatistics", "StationaryStrategy",
    "TableStrategy", "default_checkpoints", "monte_carlo", "run_traces",
    "write_statistics_csv", "write_trace_csv",
    "__version__",
]
