"""Per-layer tracing of stochgame from outside the package.

``install`` replaces the public functions and methods of each layer with
wrappers that record a span (name, start, end, parent) per call and the
counts the layer metrics need.  A function is replaced wherever a module of
the package bound it at import (``cli`` and ``engine`` import names from
the layers below them), so every caller goes through the wrapper.  Spans and
counts stay in memory until ``write`` and ``layer_metrics`` read them at the
end of the job.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Player and adversary calls made by monte_carlo; the rest of its time is
# the engine's own (random numbers, transitions, reductions).
STRATEGY_SPANS = {
    "CounterStrategy": "counter",
    "TableStrategy": "table",
    "StationaryStrategy": "stationary",
}
ADVERSARY_CLASSES = ("StationaryAdversary", "MarkovAdversary",
                     "BestResponseAdversary", "MixedClockedAdversary")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._absorbing = np.zeros(0, dtype=bool)

    def wrap(self, fn, name, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def patch_function(self, fn, name, before=None, after=None):
        """Rebind fn to its wrapper in every stochgame module that holds it."""
        traced = self.wrap(fn, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "stochgame" and not mod_name.startswith("stochgame."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)

    def patch_method(self, cls, attr, name, before=None, after=None):
        setattr(cls, attr, self.wrap(vars(cls)[attr], name, before, after))

    # -- counts recorded at the layer boundaries --------------------------

    def _cache_at(self, cache, k):
        self.counts["cache.calls"] += 1
        if k in cache:
            self.counts["cache.hits"] += 1

    def _solved(self, solution, *args, **kwargs):
        self.counts["discounted.iterations"] += solution.iterations

    def _best_response(self, result, ngame, table, horizon, *args, **kwargs):
        game = ngame.game
        self.counts["adversary.best_response_cells"] += (
            horizon * game.n_states * table.memory_states * game.n_actions2)

    def _worthlessness(self, result, *args, **kwargs):
        components = result.mixture.components
        self.counts["adversary.components"] += len(components)
        self.counts["adversary.distinct_components"] += len(
            {c.ones for c in components})
        self.counts["adversary.stored_cells"] += sum(len(c.ones)
                                                     for c in components)

    def _monte_carlo(self, ngame, sigma, tau, horizon, replications,
                     *args, chunk_size=None, **kwargs):
        game = ngame.game
        chunk = chunk_size or min(replications, 8192)
        self.counts["engine.rep_stages"] += horizon * replications
        self.counts["engine.stages"] += horizon * math.ceil(replications / chunk)
        states = range(game.n_states)
        self._absorbing = np.array(
            [bool(np.all(game.transition[z, :, :, z] == 1.0)) for z in states])

    def _adversary_act(self, adversary, t, z, *args):
        self.counts["engine.adversary_rep_stages"] += len(z)
        self.counts["engine.absorbed_rep_stages"] += int(
            np.count_nonzero(self._absorbing[z]))

    # -- reading the trace ------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.spans)
        if n == 0:
            return {}
        names = [s[0] for s in self.spans]
        start = np.fromiter((s[1] for s in self.spans), float, n)
        end = np.fromiter((s[2] for s in self.spans), float, n)
        parent = np.fromiter((s[3] for s in self.spans), np.int64, n)
        duration = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        out: dict[str, list[float]] = {}
        index: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(names):
            index[name].append(i)
        for name, idx in index.items():
            out[name] = [len(idx), float(duration[idx].sum()),
                         float(own[idx].sum())]
        return out

    def layer_metrics(self) -> dict[str, float]:
        tot = self.totals()
        c = self.counts

        def calls(name):
            return tot.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return tot.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return tot.get(name, [0, 0.0, 0.0])[2]

        def ratio(a, b):
            return a / b if b else 0.0

        def per_rep_stage_ns(seconds):
            return ratio(seconds * 1e9, c["engine.rep_stages"])

        return {
            "matrix.calls": calls("matrix"),
            "matrix.us_per_call": ratio(total("matrix") * 1e6, calls("matrix")),
            "discounted.solves": calls("discounted"),
            "discounted.iterations": c["discounted.iterations"],
            "discounted.self_s": own("discounted"),
            "cache.levels": c["cache.levels"],
            "cache.hit_ratio": ratio(c["cache.hits"], c["cache.calls"]),
            "counter.update_distribution_calls": calls("counter.update_distribution"),
            "counter.update_distribution_s": total("counter.update_distribution"),
            "counter.act_ns_per_rep_stage": per_rep_stage_ns(own("counter.act")),
            "counter.update_ns_per_rep_stage": per_rep_stage_ns(
                total("counter.update_memory")),
            "adversary.table_s": total("adversary.table"),
            "adversary.best_response_s": total("adversary.best_response"),
            "adversary.best_response_ns_per_cell": ratio(
                total("adversary.best_response") * 1e9,
                c["adversary.best_response_cells"]),
            "adversary.worthlessness_s": total("adversary.worthlessness"),
            "adversary.components": c["adversary.components"],
            "adversary.distinct_components": c["adversary.distinct_components"],
            "adversary.stored_cells": c["adversary.stored_cells"],
            "adversary.act_ns_per_rep_stage": per_rep_stage_ns(
                total("adversary.act")),
            "table.ns_per_rep_stage": per_rep_stage_ns(
                total("table.act") + total("table.update_memory")),
            "engine.monte_carlo_s": total("engine.monte_carlo"),
            "engine.rep_stages": c["engine.rep_stages"],
            "engine.self_ns_per_rep_stage": per_rep_stage_ns(
                own("engine.monte_carlo")),
            "engine.self_us_per_stage": ratio(own("engine.monte_carlo") * 1e6,
                                              c["engine.stages"]),
            "engine.absorbed_share": ratio(c["engine.absorbed_rep_stages"],
                                           c["engine.adversary_rep_stages"]),
            "io.write_s": total("io.write"),
        }

    def write(self, path: str) -> None:
        """Write the spans as CSV (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_s", "end_s", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((i, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", parent))


class _JsonWithTracedDump:
    """Stands in for the json module inside cli, so that the adversary.json
    write is timed; every other attribute is the real module's."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


def install() -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    from stochgame import adversary, cli, counter, discounted, engine, matrix

    tracer = Tracer()
    fn = tracer.patch_function
    fn(matrix.solve_matrix_game, "matrix")
    fn(discounted.solve_discounted, "discounted", after=tracer._solved)
    tracer.patch_method(discounted.SolutionCache, "at", "cache.at",
                        before=tracer._cache_at)
    fn(counter.update_distribution, "counter.update_distribution")
    fn(adversary.from_counter_strategy, "adversary.table")
    fn(adversary.best_response_public, "adversary.best_response",
       after=tracer._best_response)
    fn(adversary.build_worthlessness_adversary, "adversary.worthlessness",
       after=tracer._worthlessness)
    for cls_name in ADVERSARY_CLASSES:
        tracer.patch_method(getattr(adversary, cls_name), "act",
                            "adversary.act", before=tracer._adversary_act)
    for cls_name, span in STRATEGY_SPANS.items():
        cls = getattr(engine, cls_name)
        tracer.patch_method(cls, "act", f"{span}.act")
        tracer.patch_method(cls, "update_memory", f"{span}.update_memory")
    fn(engine.monte_carlo, "engine.monte_carlo", before=tracer._monte_carlo)
    fn(engine.write_statistics_csv, "io.write")
    cli.json = _JsonWithTracedDump(tracer.wrap(json.dump, "io.write"))
    return tracer
