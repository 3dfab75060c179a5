"""Command-line front end: batch experiments over the library.

Single binary with subcommands (solve, simulate, validate-constants,
impossibility, trace).  Every command is a pure function of (config file,
flags, seed) to output files; flags override config-file values; floating
CSV output uses 17 significant digits so reruns are diffable.  solve,
simulate and trace report payoffs in the game's own units; impossibility
works in the normalized [0, 1] units in which delta is defined.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure (round cap),
4 construction infeasible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import adversary as advmod
from . import engine
from .counter import FeasibilityError, make_config, validate_constants
from .discounted import (DEFAULT_TOL, MAX_ROUNDS, SolutionCache,
                         SolverIterationError, estimate_value_limit,
                         solve_discounted)
from .engine import fmt
from .games import big_match, load_game, load_json_object, normalize_payoffs
from .matrix import MatrixSolveError

OUT_DIR_ENV = "STOCHGAME_OUT_DIR"
BR_HORIZON_CAP = 100_000  # best responses are built for min(--horizon, this)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def _load_game_arg(source: str):
    game = big_match() if source == "big-match" else load_game(source)
    return game, normalize_payoffs(game)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _workers(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


def _build_adversary(args, ngame, config, cache):
    nz, nj = ngame.game.n_states, ngame.game.n_actions2
    name = args.adversary
    if name == "always-0":
        return advmod.pure_column_adversary(nz, nj, 0)
    if name == "always-1":
        return advmod.pure_column_adversary(nz, nj, 1)
    if name == "uniform":
        return advmod.stationary_adversary(np.full((nz, nj), 1.0 / nj))
    if name == "best-response":
        build_horizon = min(args.horizon, BR_HORIZON_CAP)
        table = advmod.from_counter_strategy(ngame, config, cache,
                                             args.br_cap, build_horizon)
        br = advmod.best_response_public(ngame, table, build_horizon)
        return advmod.BestResponseAdversary(br.policy, build_horizon)
    raise ValueError(f"unknown adversary '{name}' (expected always-0, "
                     f"always-1, uniform, or best-response)")


def _build_sigma(args, ngame, config, cache):
    kind = args.sigma
    if kind == "counter":
        return engine.CounterStrategy(ngame, config, cache)
    if kind == "stationary-lambda":
        if args.lam is None:
            raise ValueError("sigma=stationary-lambda requires --lambda")
        return engine.StationaryStrategy(
            solve_discounted(ngame, args.lam).strategy1)
    if os.path.exists(kind):
        table = advmod.load_strategy_table(kind)
        table.check_game(ngame.game)
        return engine.TableStrategy(table)
    raise ValueError(f"unknown sigma '{kind}' (expected counter, "
                     f"stationary-lambda, or a table file path)")


def _players(args, ngame):
    """The (sigma, tau) pair of simulate and trace, sharing one cache."""
    config = make_config(args.epsilon, args.base)
    cache = SolutionCache(ngame, config)
    return (_build_sigma(args, ngame, config, cache),
            _build_adversary(args, ngame, config, cache))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    game, ngame = _load_game_arg(args.game)
    if (args.lam is None) == (args.schedule is None):
        raise ValueError("exactly one of --lambda or --schedule is required")

    rows = []
    if args.lam is not None:
        sol = solve_discounted(ngame, args.lam, tol=args.tol,
                               max_iter=args.max_iterations)
        values = ngame.denormalize(sol.values)
        for z, name in enumerate(game.states):
            print(f"state {name}: value {fmt(float(values[z]))}")
            rows.append((name, args.lam, float(values[z])))
        print(f"iterations {sol.iterations}, residual {fmt(sol.residual)}")
    else:
        values, spread = estimate_value_limit(ngame, args.schedule,
                                              tol=args.tol)
        values = ngame.denormalize(values)
        for z, name in enumerate(game.states):
            print(f"state {name}: estimate {fmt(float(values[z]))}")
            rows.append((name, float("nan"), float(values[z])))
        print(f"spread {fmt(spread / ngame.scale)}")

    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("state", "lambda", "value"))
            for name, rate, value in rows:
                writer.writerow((name, fmt(rate), fmt(value)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, ngame = _load_game_arg(args.game)
    workers = _workers(args)
    sigma, tau = _players(args, ngame)
    stats = engine.monte_carlo(ngame, sigma, tau, args.horizon,
                               args.replications, args.seed,
                               checkpoints=args.checkpoints, workers=workers)
    stats = dataclasses.replace(stats, mean_avg_payoff={  # in game units
        n: float(ngame.denormalize(v))
        for n, v in stats.mean_avg_payoff.items()},
        payoff_se={n: v / ngame.scale for n, v in stats.payoff_se.items()})
    stats_path = _out_path(args, "stats.csv")
    engine.write_statistics_csv(stats, stats_path)
    print(f"wrote {stats_path}")
    final = stats.checkpoints[-1]
    print(f"mean average payoff at n={final}: "
          f"{fmt(stats.mean_avg_payoff[final])} "
          f"(se {fmt(stats.payoff_se[final])})")
    return EXIT_OK


def cmd_validate_constants(args) -> int:
    _, ngame = _load_game_arg(args.game)
    config = make_config(args.epsilon, args.base)
    cache = SolutionCache(ngame, config)
    report = validate_constants(config, ngame, cache, grid_depth=args.depth)
    for line in report.lines():
        print(line)
    print(f"overall: {'PASS' if report.all_pass else 'FAIL'}")
    return EXIT_OK if report.all_pass else EXIT_NUMERIC


def cmd_impossibility(args) -> int:
    game, ngame = _load_game_arg(args.game)
    delta, horizon = args.delta, args.horizon
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta:g}")
    workers = _workers(args)

    if (args.sigma is None) == (args.wrap_counter_cap is None):
        raise ValueError("exactly one of --sigma or --wrap-counter-cap is "
                         "required")
    indices = advmod.big_match_indices(ngame)
    if args.sigma == "always-c":
        nz, ni = game.n_states, game.n_actions1
        action = np.zeros((1, 1, ni))
        action[0, 0, indices.continue_action] = 1.0
        kernel = np.ones((1, 1, ni, game.n_actions2, nz, 1))
        table = advmod.PublicMemoryStrategyTable(
            memory_states=1, horizon=horizon, action=action,
            memory_kernel=kernel)
    elif args.sigma is not None:
        table = advmod.load_strategy_table(args.sigma)
    else:
        config = make_config(args.epsilon, args.base)
        cache = SolutionCache(ngame, config)
        table = advmod.from_counter_strategy(ngame, config, cache,
                                             args.wrap_counter_cap, horizon)

    result = advmod.build_worthlessness_adversary(ngame, table, delta, horizon)
    cert = result.certificate

    sigma = engine.TableStrategy(table)
    stats = engine.monte_carlo(ngame, sigma, result.mixture, horizon,
                               args.replications, args.seed,
                               checkpoints=(horizon,), workers=workers)
    sim_mean = stats.mean_avg_payoff[horizon]
    sim_se = stats.payoff_se[horizon]
    certified = sim_mean <= 3.0 * delta + 3.0 * sim_se
    cert_lines = cert.lines()
    proven = (cert.mixture_avg_payoff < 3.0 * delta
              and not any(line.endswith("FAIL") for line in cert_lines))

    adv_path = _out_path(args, "adversary.json")
    with open(adv_path, "w", encoding="utf-8") as fh:
        # json.dump's layout, one component's cell list at a time
        fh.write(f'{{"delta": {delta!r}, "horizon": {horizon}, '
                 f'"M": {cert.memory_states}, "components": [')
        for c in range(result.mixture.n_components):
            fh.write(", " if c else "")
            json.dump(result.mixture.cells(c).tolist(), fh)
        fh.write("]}\n")
    report_path = _out_path(args, "impossibility_report.txt")
    lines = cert_lines + [
        f"simulated mixture average payoff: {fmt(sim_mean)} "
        f"(se {fmt(sim_se)}, {args.replications} replications, "
        f"seed {args.seed})",
        f"certification gamma_T <= 3*delta + 3*SE: "
        f"{'PASS' if certified else 'FAIL'}",
        f"exact certification (mixture average < 3*delta, every check "
        f"PASS): {'PASS' if proven else 'FAIL'}",
    ]
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {adv_path}")
    print(f"wrote {report_path}")
    for line in lines:
        print(line)
    return EXIT_OK if certified and proven else EXIT_NUMERIC


def cmd_trace(args) -> int:
    _, ngame = _load_game_arg(args.game)
    sigma, tau = _players(args, ngame)
    traces = [dataclasses.replace(  # payoffs in game units
        trace, stage_payoff=ngame.denormalize(trace.stage_payoff))
        for trace in engine.run_traces(ngame, sigma, tau, args.horizon,
                                       args.replications, args.seed)]
    trace_path = _out_path(args, "trace.csv")
    engine.write_trace_csv(traces, trace_path)
    print(f"wrote {trace_path}")
    for trace in traces:
        absorbed = (trace.absorption_stage
                    if trace.absorption_stage is not None else "never")
        print(f"replication {trace.replication}: absorbed {absorbed}, "
              f"max memory {int(trace.stage_memory.max())}, "
              f"avg payoff {fmt(float(trace.stage_payoff.mean()))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    """Every flag once, with its default and type; shared groups below."""
    parser = argparse.ArgumentParser(
        prog="stochgame",
        description="Experiment runner for finite zero-sum stochastic games")
    parser.add_argument("--config", help="JSON object of option values keyed "
                                         "by dest; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--game", default="big-match",
                       help="built-in name (big-match) or game JSON path")
        p.add_argument("--out-dir", default=os.environ.get(OUT_DIR_ENV, "."),
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")
        return p

    def rate(p, text):
        p.add_argument("--lambda", dest="lam", type=float, help=text)

    def counter(p):
        p.add_argument("--epsilon", type=float, default=0.2,
                       help="target optimality gap")
        p.add_argument("--base", type=float, default=100.0,
                       help="counter start position (position grid origin)")

    def players(p):
        p.add_argument("--sigma", default="counter",
                       help="counter, stationary-lambda, or a table file")
        rate(p, "rate for sigma=stationary-lambda")
        p.add_argument("--adversary", default="uniform",
                       help="always-0, always-1, uniform, or best-response")
        p.add_argument("--br-cap", type=int, default=40,
                       help=f"counter cap for the best-response table, built "
                            f"for min(--horizon, {BR_HORIZON_CAP}) stages")

    def run(p, horizon, replications, workers=True):
        p.add_argument("--horizon", type=int, default=horizon)
        p.add_argument("--replications", type=int, default=replications)
        p.add_argument("--seed", type=int, default=1)
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="parallel chunk workers; output identical "
                                "for every value")

    p = command("solve", cmd_solve, "discounted values of a game")
    rate(p, "discount rate in (0, 1]")
    p.add_argument("--schedule", type=float_list,
                   help="comma-separated rates for a limit estimate")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="certified accuracy")
    p.add_argument("--max-iterations", type=int, default=MAX_ROUNDS,
                   help="round cap for strategy iteration")
    p.add_argument("--csv", help="also write values to this CSV path")

    p = command("simulate", cmd_simulate, "Monte Carlo of a strategy pair")
    counter(p)
    players(p)
    run(p, horizon=1000, replications=100)
    p.add_argument("--checkpoints", type=int_list,
                   help="comma-separated stage list")

    p = command("validate-constants", cmd_validate_constants,
                "check the strategy's numeric inequalities")
    counter(p)
    p.add_argument("--depth", type=int, default=40, help="counter grid depth")

    p = command("impossibility", cmd_impossibility,
                "synthesize and certify a worthlessness adversary")
    p.add_argument("--sigma", help="strategy table JSON, or always-c")
    p.add_argument("--wrap-counter-cap", type=int,
                   help="wrap the built-in counter strategy with this cap "
                        "instead of --sigma")
    counter(p)
    p.add_argument("--delta", type=float, default=0.1)
    run(p, horizon=10_000, replications=2000)

    p = command("trace", cmd_trace, "write full episode traces")
    counter(p)
    players(p)
    run(p, horizon=100, replications=1, workers=False)
    return parser


def _use_config(parser, command: str, path: str) -> None:
    """Make the config file's entries the chosen subcommand's defaults, each
    converted by its flag's type as on the command line; flags still win."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    flags = {a.dest: a for a in sub._actions if a.dest != "help"}
    accepted = f"accepted keys for {command}: {', '.join(sorted(flags))}"
    try:
        doc = load_json_object(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"config file: {exc}; {accepted}") from None
    for key, value in doc.items():
        if key not in flags:
            raise ValueError(f"config file {path}: unknown key {key!r}; "
                             f"{accepted}")
        try:
            if type(value) not in (str, int, float):  # bool, list, null, ...
                raise ValueError
            doc[key] = (flags[key].type or str)(str(value))
        except ValueError:
            raise ValueError(
                f"config file {path}: key {key!r}: {json.dumps(value)} is "
                f"not a valid {flags[key].option_strings[0]} value") from None
    sub.set_defaults(**doc)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _use_config(parser, args.command, args.config)
            args = parser.parse_args(argv)
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
    except (ValueError, OSError) as exc:  # GameValidationError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
