"""Run one benchmark job in a process of its own.

    python3 perfbench/job.py --workload NAME --seed N --out DIR [--trace]

Each workload is a generator: the code before its first ``yield`` builds
the inputs (set-up), the code up to the second ``yield`` is the job whose
outputs are timed, and the code after it saves what the checks need.  The
job writes ``result.json`` into DIR with the monotonic clock readings at
"inputs ready" and "outputs exist", the time spent in ``monte_carlo``, the
peak resident memory, the operations attempted and failed, and a digest of
every output file.  With --trace, the layers are wrapped (see tracer.py),
and the per-layer metrics and the spans are written too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import workloads as wl


def save(out: str, name: str, **arrays) -> None:
    """Save arrays as ``name.key.npy``; .npy bytes depend only on the data."""
    for key, value in arrays.items():
        np.save(os.path.join(out, f"{name}.{key}.npy"), np.asarray(value))


def save_meta(out: str, **meta) -> None:
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def save_game(out: str, ngame) -> None:
    game = ngame.game
    save(out, "game", payoff=game.payoff, transition=game.transition,
         initial_state=game.initial_state)


def mc_uniform(sg, seed, out, tracer):
    size = wl.MC_UNIFORM
    ngame = sg.normalize_payoffs(sg.big_match())
    config = sg.make_config(wl.EPSILON, wl.BASE)
    cache = sg.SolutionCache(ngame, config)
    sigma = sg.engine.CounterStrategy(ngame, config, cache)
    tau = sg.adversary.stationary_adversary(np.full((3, 2), 0.5))
    yield
    stats = sg.engine.monte_carlo(ngame, sigma, tau, size["horizon"],
                                  size["replications"], seed, workers=1)
    sg.engine.write_statistics_csv(stats, os.path.join(out, "stats.csv"))
    yield ["simulate"], []
    if tracer is not None:
        tracer.counts["cache.levels"] = len(cache)
    save_meta(out, epsilon=config.epsilon, **size)


def mc_best_response(sg, seed, out, tracer):
    size = wl.MC_BEST_RESPONSE
    horizon = size["horizon"]
    ngame = sg.normalize_payoffs(sg.big_match())
    config = sg.make_config(wl.EPSILON, wl.BASE)
    cache = sg.SolutionCache(ngame, config)
    sigma = sg.engine.CounterStrategy(ngame, config, cache)
    yield
    table = sg.adversary.from_counter_strategy(ngame, config, cache,
                                               size["cap"], horizon)
    br = sg.adversary.best_response_public(ngame, table, horizon)
    tau = sg.adversary.BestResponseAdversary(br.policy, horizon)
    stats = sg.engine.monte_carlo(ngame, sigma, tau, horizon,
                                  size["replications"], seed, workers=1)
    sg.engine.write_statistics_csv(stats, os.path.join(out, "stats.csv"))
    yield ["table", "best_response", "simulate"], []
    if tracer is not None:
        tracer.counts["cache.levels"] = len(cache)
    save_game(out, ngame)
    save(out, "table", action=table.action[0], kernel=table.memory_kernel[0])
    save(out, "best_response", policy=br.policy)
    save_meta(out, epsilon=config.epsilon, value=br.value, **size)


def impossibility(sg, seed, out, tracer):
    size = wl.IMPOSSIBILITY
    argv = ["impossibility", "--sigma", "always-c",
            "--delta", repr(size["delta"]), "--horizon", str(size["horizon"]),
            "--replications", str(size["replications"]), "--seed", str(seed),
            "--workers", "1", "--out-dir", out]
    yield
    code = sg.cli.main(argv)
    yield ["impossibility"], ["impossibility"] if code != 0 else []
    save_meta(out, exit_code=code, **size)


def solve_cache(sg, seed, out, tracer):
    size = wl.SOLVE_CACHE
    payoff, transition = wl.generated_game(seed)
    ngame = sg.normalize_payoffs(sg.GameSpec(
        wl.GAME_STATES, wl.GAME_ACTIONS1, wl.GAME_ACTIONS2, payoff,
        transition, 0))
    config = sg.make_config(wl.EPSILON, size["base"])
    cache = sg.SolutionCache(ngame, config, tol=wl.TOL)
    deep_ngame = sg.normalize_payoffs(sg.big_match())
    deep_config = sg.make_config(wl.EPSILON, size["deep_base"])
    deep_cache = sg.SolutionCache(deep_ngame, deep_config, tol=wl.TOL)
    yield
    levels = [cache.at(k) for k in range(size["depth"] + 1)]
    report = sg.validate_constants(config, ngame, cache, size["depth"])
    deep = [deep_cache.at(k) for k in range(size["deep_levels"] + 1)]
    sigma = sg.engine.StationaryStrategy(levels[0].strategy1)
    tau = sg.adversary.stationary_adversary(np.full((4, 2), 0.5))
    stats = sg.engine.monte_carlo(ngame, sigma, tau, size["horizon"],
                                  size["replications"], seed, workers=1)
    sg.engine.write_statistics_csv(stats, os.path.join(out, "stats.csv"))
    names = ([f"level-{k}" for k in range(len(levels))] + ["constants"]
             + [f"deep-level-{k}" for k in range(len(deep))] + ["simulate"])
    failed = [f"deep-level-{k}" for k, sol in enumerate(deep)
              if sol.residual > deep_cache.tol]
    failed += [f"level-{k}" for k, sol in enumerate(levels)
               if sol.residual > cache.tol]
    yield names, failed
    if tracer is not None:
        tracer.counts["cache.levels"] = len(cache) + len(deep_cache)
    save_game(out, ngame)
    save(out, "deep_game", payoff=deep_ngame.game.payoff,
         transition=deep_ngame.game.transition)
    for name, sols in (("levels", levels), ("deep", deep)):
        save(out, name,
             lam=[s.lam for s in sols], values=[s.values for s in sols],
             strategy1=[s.strategy1 for s in sols],
             strategy2=[s.strategy2 for s in sols],
             residual=[s.residual for s in sols],
             iterations=[s.iterations for s in sols])
    checks = {c.name: {"levels": list(c.levels), "margins": list(c.margins)}
              for c in report.checks}
    save_meta(out, epsilon=config.epsilon, growth=config.growth,
              deep_growth=deep_config.growth, tol=cache.tol,
              constants=checks, **size)


JOBS = {
    "mc-uniform": mc_uniform,
    "mc-best-response": mc_best_response,
    "impossibility": impossibility,
    "solve-cache": solve_cache,
}


def digest(out: str) -> str:
    """sha256 over the names and bytes of the job's output files."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name in ("result.json", "spans.csv"):
            continue
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    # Jobs reach the package's names through the package at call time, so
    # that the tracer's wrappers are the ones called.
    import stochgame as sg
    import stochgame.cli  # noqa: F401  (binds sg.cli)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    # One stopwatch on monte_carlo in every mode: the throughput metric
    # needs the time inside it, also when cli makes the call.
    simulated = []
    inner = sg.engine.monte_carlo

    def monte_carlo(ngame, sigma, tau, horizon, replications, *a, **kw):
        start = time.perf_counter()
        stats = inner(ngame, sigma, tau, horizon, replications, *a, **kw)
        simulated.append((horizon * replications, time.perf_counter() - start))
        return stats
    sg.engine.monte_carlo = monte_carlo

    steps = JOBS[args.workload](sg, args.seed, args.out, tracer)
    next(steps)
    t_ready = time.monotonic()
    ops, failed = next(steps)
    t_done = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for _ in steps:
        pass

    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "rep_stages": sum(n for n, _ in simulated),
        "monte_carlo_s": sum(s for _, s in simulated),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops": ops,
        "failed": failed,
        "digest": digest(args.out),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(args.out, "spans.csv"))
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
