"""Command-line front end: batch experiments over the library.

Single binary with subcommands (solve, simulate, validate-constants,
impossibility, trace).  Every command is a pure function of (config file,
flags, seed) to output files; flags override config-file values; floating
CSV output uses 17 significant digits so reruns are diffable.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure (round cap),
4 construction infeasible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import adversary as advmod
from . import engine
from .counter import CounterConfig, FeasibilityError, make_config, validate_constants
from .discounted import MAX_ROUNDS, SolutionCache, SolverIterationError, estimate_value_limit, solve_discounted
from .games import GameValidationError, big_match, load_game, normalize_payoffs
from .matrix import MatrixSolveError

OUT_DIR_ENV = "STOCHGAME_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def _fmt(x: float) -> str:
    return "%.17g" % x


def _load_game_arg(source: str):
    if source == "big-match":
        game = big_match()
    else:
        game = load_game(source)
    return game, normalize_payoffs(game)


def _merge(args: argparse.Namespace, key: str, default):
    """Flag > config file > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if getattr(args, "_config", None) and key in args._config:
        return args._config[key]
    return default


def _out_dir(args) -> str:
    out = _merge(args, "out_dir", None)
    if out is None:
        out = os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _parse_checkpoints(text):
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    return tuple(int(v) for v in text.split(","))


def _workers(args) -> int:
    workers = int(_merge(args, "workers", 1))
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    return workers


def _counter_config(args) -> CounterConfig:
    epsilon = float(_merge(args, "epsilon", 0.2))
    base = float(_merge(args, "base", 100.0))
    return make_config(epsilon=epsilon, base=base)


def _build_adversary(name: str, args, ngame, config, cache, horizon: int):
    game = ngame.game
    nz, nj = game.n_states, game.n_actions2
    if name == "always-0":
        return advmod.pure_column_adversary(nz, nj, 0)
    if name == "always-1":
        return advmod.pure_column_adversary(nz, nj, 1)
    if name == "uniform":
        return advmod.stationary_adversary(np.full((nz, nj), 1.0 / nj))
    if name == "best-response":
        cap = int(_merge(args, "br_cap", 40))
        build_horizon = int(_merge(args, "br_horizon",
                                   min(horizon, 100_000)))
        table = advmod.from_counter_strategy(ngame, config, cache, cap,
                                             build_horizon)
        br = advmod.best_response_public(ngame, table, build_horizon)
        return advmod.BestResponseAdversary(br.policy, build_horizon)
    raise ValueError(f"unknown adversary '{name}' (expected always-0, "
                     f"always-1, uniform, or best-response)")


def _build_sigma(args, ngame, config, cache):
    kind = _merge(args, "sigma", "counter")
    if kind == "counter":
        return engine.CounterStrategy(ngame, config, cache)
    if kind == "stationary-lambda":
        lam = _merge(args, "lam", None)
        if lam is None:
            raise ValueError("sigma=stationary-lambda requires --lambda")
        sol = solve_discounted(ngame, float(lam))
        return engine.StationaryStrategy(sol.strategy1)
    if os.path.exists(kind):
        table = advmod.load_strategy_table(kind)
        return engine.TableStrategy(table)
    raise ValueError(f"unknown sigma '{kind}' (expected counter, "
                     f"stationary-lambda, or a table file path)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    game, ngame = _load_game_arg(_merge(args, "game", "big-match"))
    tol = float(_merge(args, "tol", 1e-9))
    lam = _merge(args, "lam", None)
    schedule = _merge(args, "schedule", None)
    if (lam is None) == (schedule is None):
        raise ValueError("exactly one of --lambda or --schedule is required")

    max_iterations = int(_merge(args, "max_iterations", MAX_ROUNDS))
    rows = []
    if lam is not None:
        sol = solve_discounted(ngame, float(lam), tol=tol,
                               max_iter=max_iterations)
        values = ngame.denormalize(sol.values)
        for z, name in enumerate(game.states):
            print(f"state {name}: value {_fmt(float(values[z]))}")
            rows.append((name, float(lam), float(values[z])))
        print(f"iterations {sol.iterations}, residual {_fmt(sol.residual)}")
    else:
        rates = [float(v) for v in str(schedule).split(",")]
        est = estimate_value_limit(ngame, rates, tol=tol)
        values = ngame.denormalize(est.values)
        for z, name in enumerate(game.states):
            print(f"state {name}: estimate {_fmt(float(values[z]))}")
            rows.append((name, float("nan"), float(values[z])))
        print(f"spread {_fmt(est.spread / ngame.scale)}")

    csv_path = _merge(args, "csv", None)
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("state,lambda,value\n")
            for name, rate, value in rows:
                fh.write(f"{name},{_fmt(rate)},{_fmt(value)}\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    game, ngame = _load_game_arg(_merge(args, "game", "big-match"))
    config = _counter_config(args)
    cache = SolutionCache(ngame, config)
    horizon = int(_merge(args, "horizon", 1000))
    replications = int(_merge(args, "replications", 100))
    seed = int(_merge(args, "seed", 1))
    workers = _workers(args)
    checkpoints = _parse_checkpoints(_merge(args, "checkpoints", None))
    adversary_name = _merge(args, "adversary", "uniform")

    sigma = _build_sigma(args, ngame, config, cache)
    tau = _build_adversary(adversary_name, args, ngame, config, cache,
                           horizon)
    stats = engine.monte_carlo(ngame, sigma, tau, horizon, replications,
                               seed, checkpoints=checkpoints, workers=workers)
    out = _out_dir(args)
    stats_path = os.path.join(out, "stats.csv")
    engine.write_statistics_csv(stats, stats_path)
    print(f"wrote {stats_path}")
    final = stats.checkpoints[-1]
    print(f"mean average payoff at n={final}: "
          f"{_fmt(stats.mean_avg_payoff[final])} "
          f"(se {_fmt(stats.payoff_se[final])})")

    if sigma.counter_config is not None:
        report = engine.memory_bound_report(stats, sigma.counter_config)
        report_path = os.path.join(out, "memory_report.txt")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.lines()) + "\n")
        print(f"wrote {report_path}")
        print(f"memory bounds: {'PASS' if report.all_pass else 'FAIL'}")
    else:
        print("memory report skipped (strategy has no counter)")
    return EXIT_OK


def cmd_validate_constants(args) -> int:
    game, ngame = _load_game_arg(_merge(args, "game", "big-match"))
    config = _counter_config(args)
    cache = SolutionCache(ngame, config)
    depth = int(_merge(args, "depth", 40))
    report = validate_constants(config, ngame, cache, grid_depth=depth)
    for line in report.lines():
        print(line)
    print(f"overall: {'PASS' if report.all_pass else 'FAIL'}")
    return EXIT_OK if report.all_pass else EXIT_NUMERIC


def cmd_impossibility(args) -> int:
    game, ngame = _load_game_arg(_merge(args, "game", "big-match"))
    delta = float(_merge(args, "delta", 0.1))
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta:g}")
    horizon = int(_merge(args, "horizon", 10_000))
    tail_tol = float(_merge(args, "tail_tol", 1e-3))
    seed = int(_merge(args, "seed", 1))
    replications = int(_merge(args, "replications", 2000))
    workers = _workers(args)

    sigma_src = _merge(args, "sigma", None)
    wrap_cap = _merge(args, "wrap_counter_cap", None)
    if (sigma_src is None) == (wrap_cap is None):
        raise ValueError("exactly one of --sigma or --wrap-counter-cap is "
                         "required")
    if sigma_src == "always-c":
        nz, ni = game.n_states, game.n_actions1
        indices = advmod.big_match_indices(ngame)
        action = np.zeros((1, 1, ni))
        action[0, 0, indices.continue_action] = 1.0
        kernel = np.ones((1, 1, ni, game.n_actions2, nz, 1))
        table = advmod.PublicMemoryStrategyTable(
            memory_states=1, horizon=horizon, action=action,
            memory_kernel=kernel)
    elif sigma_src is not None:
        table = advmod.load_strategy_table(sigma_src)
    else:
        config = _counter_config(args)
        cache = SolutionCache(ngame, config)
        table = advmod.from_counter_strategy(ngame, config, cache,
                                             int(wrap_cap), horizon)

    result = advmod.build_worthlessness_adversary(ngame, table, delta,
                                                  horizon, tail_tol)
    cert = result.certificate

    indices = advmod.big_match_indices(ngame)
    tau = advmod.MixedClockedAdversary(result.mixture, indices)
    sigma = engine.TableStrategy(table)
    stats = engine.monte_carlo(ngame, sigma, tau, horizon, replications,
                               seed, checkpoints=(horizon,), workers=workers)
    sim_mean = stats.mean_avg_payoff[horizon]
    sim_se = stats.payoff_se[horizon]
    certified = sim_mean <= 3.0 * delta + 3.0 * sim_se

    out = _out_dir(args)
    adv_path = os.path.join(out, "adversary.json")
    with open(adv_path, "w", encoding="utf-8") as fh:
        json.dump({
            "delta": delta,
            "horizon": horizon,
            "M": cert.memory_states,
            "components": [sorted(map(list, c.ones))
                           for c in result.mixture.components],
        }, fh)
        fh.write("\n")
    report_path = os.path.join(out, "impossibility_report.txt")
    lines = cert.lines() + [
        f"simulated mixture average payoff: {_fmt(sim_mean)} "
        f"(se {_fmt(sim_se)}, {replications} replications, seed {seed})",
        f"certification gamma_T <= 3*delta + 3*SE: "
        f"{'PASS' if certified else 'FAIL'}",
    ]
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {adv_path}")
    print(f"wrote {report_path}")
    for line in lines:
        print(line)
    return EXIT_OK if certified else EXIT_NUMERIC


def cmd_trace(args) -> int:
    game, ngame = _load_game_arg(_merge(args, "game", "big-match"))
    config = _counter_config(args)
    cache = SolutionCache(ngame, config)
    horizon = int(_merge(args, "horizon", 100))
    replications = int(_merge(args, "replications", 1))
    seed = int(_merge(args, "seed", 1))
    adversary_name = _merge(args, "adversary", "uniform")

    sigma = _build_sigma(args, ngame, config, cache)
    tau = _build_adversary(adversary_name, args, ngame, config, cache,
                           horizon)
    traces = engine.run_traces(ngame, sigma, tau, horizon, replications, seed)
    out = _out_dir(args)
    trace_path = os.path.join(out, "trace.csv")
    engine.write_trace_csv(traces, trace_path)
    print(f"wrote {trace_path}")
    for trace in traces:
        absorbed = (trace.absorption_stage
                    if trace.absorption_stage is not None else "never")
        print(f"replication {trace.replication}: absorbed {absorbed}, "
              f"max memory {int(trace.stage_memory.max())}, "
              f"avg payoff {_fmt(float(trace.stage_payoff.mean()))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochgame",
        description="Experiment runner for finite zero-sum stochastic games")
    parser.add_argument("--config", help="JSON config file; flags override "
                                         "its values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--game", help="built-in name (big-match) or game "
                                      "JSON path")
        p.add_argument("--out-dir", dest="out_dir",
                       help=f"output directory (default ${OUT_DIR_ENV} "
                            f"or '.')")

    p_solve = sub.add_parser("solve", help="discounted values of a game")
    common(p_solve)
    p_solve.add_argument("--lambda", dest="lam", type=float,
                         help="discount rate in (0, 1]")
    p_solve.add_argument("--schedule",
                         help="comma-separated rates for a limit estimate")
    p_solve.add_argument("--tol", type=float, help="certified accuracy")
    p_solve.add_argument("--max-iterations", dest="max_iterations", type=int,
                         help="round cap for strategy iteration")
    p_solve.add_argument("--csv", help="also write values to this CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo of a strategy pair")
    common(p_sim)
    p_sim.add_argument("--epsilon", type=float, help="target optimality gap")
    p_sim.add_argument("--base", type=float,
                       help="counter start position (position grid origin)")
    p_sim.add_argument("--sigma", help="counter (default), "
                                       "stationary-lambda, or a table file")
    p_sim.add_argument("--lambda", dest="lam", type=float,
                       help="rate for sigma=stationary-lambda")
    p_sim.add_argument("--adversary", help="always-0, always-1, uniform, or "
                                           "best-response")
    p_sim.add_argument("--br-cap", dest="br_cap", type=int,
                       help="counter cap for the best-response table")
    p_sim.add_argument("--br-horizon", dest="br_horizon", type=int,
                       help="build horizon for the best-response policy")
    p_sim.add_argument("--horizon", type=int)
    p_sim.add_argument("--replications", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--checkpoints", help="comma-separated stage list")
    p_sim.add_argument("--workers", type=int, help="parallel chunk workers; "
                                                   "output identical for "
                                                   "every value")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate-constants",
                           help="check the strategy's numeric inequalities")
    common(p_val)
    p_val.add_argument("--epsilon", type=float)
    p_val.add_argument("--base", type=float)
    p_val.add_argument("--depth", type=int, help="counter grid depth")
    p_val.set_defaults(func=cmd_validate_constants)

    p_imp = sub.add_parser("impossibility",
                           help="synthesize and certify a worthlessness "
                                "adversary")
    common(p_imp)
    p_imp.add_argument("--sigma", help="strategy table JSON, or always-c")
    p_imp.add_argument("--wrap-counter-cap", dest="wrap_counter_cap",
                       type=int, help="wrap the built-in counter strategy "
                                      "with this cap instead of --sigma")
    p_imp.add_argument("--epsilon", type=float)
    p_imp.add_argument("--base", type=float)
    p_imp.add_argument("--delta", type=float)
    p_imp.add_argument("--horizon", type=int)
    p_imp.add_argument("--tail-tol", dest="tail_tol", type=float)
    p_imp.add_argument("--seed", type=int)
    p_imp.add_argument("--replications", type=int)
    p_imp.add_argument("--workers", type=int)
    p_imp.set_defaults(func=cmd_impossibility)

    p_tr = sub.add_parser("trace", help="write full episode traces")
    common(p_tr)
    p_tr.add_argument("--epsilon", type=float)
    p_tr.add_argument("--base", type=float)
    p_tr.add_argument("--sigma")
    p_tr.add_argument("--lambda", dest="lam", type=float)
    p_tr.add_argument("--adversary")
    p_tr.add_argument("--br-cap", dest="br_cap", type=int)
    p_tr.add_argument("--br-horizon", dest="br_horizon", type=int)
    p_tr.add_argument("--horizon", type=int)
    p_tr.add_argument("--replications", type=int)
    p_tr.add_argument("--seed", type=int)
    p_tr.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                args._config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: config file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        args._config = {}

    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"error: infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except advmod.WorthlessnessError as exc:
        print(f"error: construction failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverIterationError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MatrixSolveError as exc:
        print(f"error: matrix game solve failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GameValidationError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
