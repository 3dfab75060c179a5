"""Command-line interface: exit codes, file outputs, replay determinism."""

import ast
import csv
import dataclasses
import importlib.metadata
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stochgame
from stochgame import (GameSpec, PublicMemoryStrategyTable, big_match, cli,
                       save_game, save_strategy_table)

from conftest import big_match_paying, make_rng
from reference import adversary_json_reference

SUBPROCESS_TIMEOUT = 60  # seconds; a hung child fails the test


def module_env():
    """Environment whose child interpreter imports this same source tree."""
    env = dict(os.environ)
    root = str(Path(stochgame.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "stochgame", *argv],
                          capture_output=True, text=True, env=module_env(),
                          timeout=SUBPROCESS_TIMEOUT)


def installed_distribution():
    try:
        return importlib.metadata.distribution("stochgame")
    except importlib.metadata.PackageNotFoundError:
        return None


def run_cli(argv, tmp_path=None):
    if tmp_path is not None:
        argv = list(argv) + ["--out-dir", str(tmp_path)]
    return cli.main(argv)


# ------------------------------------------------------------------ solve

def test_solve_default_game(capsys):
    assert cli.main(["solve", "--lambda", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "state live: value 0.5" in out
    assert "iterations 1" in out


def test_solve_requires_exactly_one_mode(capsys):
    assert cli.main(["solve"]) == 2
    assert cli.main(["solve", "--lambda", "0.1",
                     "--schedule", "0.1,0.01"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err


def test_solve_schedule_and_csv(tmp_path, capsys):
    path = tmp_path / "values.csv"
    code = cli.main(["solve", "--schedule", "0.1,0.01,0.001",
                     "--csv", str(path)])
    assert code == 0
    assert "spread" in capsys.readouterr().out
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "state,lambda,value"
    assert len(lines) == 4


def test_solve_csv_quotes_state_names(tmp_path, capsys):
    game = big_match()
    named = GameSpec(("live, start",) + game.states[1:], game.actions1,
                     game.actions2, game.payoff, game.transition,
                     game.initial_state)
    save_game(named, str(tmp_path / "game.json"))
    path = tmp_path / "values.csv"
    assert cli.main(["solve", "--game", str(tmp_path / "game.json"),
                     "--lambda", "0.01", "--csv", str(path)]) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["live, start", "0.01", "0.5"]
    assert all(len(row) == 3 for row in rows)


def test_solve_bad_rate(capsys):
    assert cli.main(["solve", "--lambda", "1.7"]) == 2
    assert "discount rate" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--lambda", "0.1", "--tol", "-1"], "tolerance must be >= 0"),
])
def test_negative_tolerance_exits_two(tmp_path, capsys, argv, message):
    assert run_cli(argv, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_round_cap_below_one_exits_two(tmp_path, capsys, cap):
    assert run_cli(["solve", "--lambda", "0.5", "--max-iterations", cap],
                   tmp_path) == 2
    err = capsys.readouterr().err
    assert f"max_iter must be >= 1, got {cap}" in err
    assert "did not converge" not in err


@pytest.mark.parametrize("argv", [
    ["--lambda", "1e-320"],
    ["--lambda", "4e-309"],
    ["--schedule", "0.1,1e-320"],
])
def test_subnormal_rate_exits_two(capsys, argv):
    assert cli.main(["solve", *argv]) == 2
    err = capsys.readouterr().err
    assert "least normal float" in err
    assert "non-finite" not in err


def test_solve_iteration_cap_exits_numeric(tmp_path, capsys):
    path = tmp_path / "big_match_08.json"
    save_game(big_match_paying(0.8), str(path))
    code = cli.main(["solve", "--game", str(path), "--lambda", "1e-4",
                     "--max-iterations", "1"])
    assert code == 3
    assert "no certificate" in capsys.readouterr().err


# --------------------------------------------------------------- simulate

def test_simulate_writes_stats_and_report(tmp_path, capsys):
    code = run_cli(["simulate", "--horizon", "200", "--replications", "40",
                    "--seed", "5"], tmp_path)
    assert code == 0
    stats = (tmp_path / "stats.csv").read_text()
    assert stats.startswith("n,mean_avg_payoff")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.csv"]
    assert "mean average payoff at n=200" in capsys.readouterr().out


def _csv_column(path, name):
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


def test_simulate_and_trace_report_game_units(tmp_path, capsys):
    """The Big Match paying -1/+1 normalizes to the Big Match itself, so
    it plays the same and only the reported units differ."""
    game = big_match()
    signed = GameSpec(game.states, game.actions1, game.actions2,
                      2.0 * game.payoff - 1.0, game.transition,
                      game.initial_state)
    save_game(signed, str(tmp_path / "signed.json"))
    runs = {"big-match": tmp_path / "plain",
            str(tmp_path / "signed.json"): tmp_path / "signed"}
    for source, out in runs.items():
        for command, size in (("simulate", 40), ("trace", 3)):
            assert run_cli([command, "--game", source, "--horizon", "200",
                            "--replications", str(size), "--seed", "5"],
                           out) == 0
    capsys.readouterr()
    plain, signed_out = tmp_path / "plain", tmp_path / "signed"
    m = _csv_column(plain / "stats.csv", "mean_avg_payoff")
    s = _csv_column(plain / "stats.csv", "payoff_se")
    np.testing.assert_allclose(
        _csv_column(signed_out / "stats.csv", "mean_avg_payoff"), 2 * m - 1,
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(_csv_column(signed_out / "stats.csv",
                                           "payoff_se"), 2 * s,
                               rtol=0, atol=1e-15)
    x = _csv_column(signed_out / "trace.csv", "x")
    assert set(x.tolist()) == {-1.0, 1.0}
    np.testing.assert_array_equal(x, 2 * _csv_column(plain / "trace.csv",
                                                     "x") - 1)


@pytest.mark.parametrize("adversary", ["uniform", "best-response"])
def test_simulate_game_whose_top_payoff_rounds_up(tmp_path, capsys,
                                                  adversary):
    """Normalizing this Big Match maps its top payoff to 1 + 1 ulp before
    clipping; the counter then rejected the game with exit 2."""
    game = big_match()
    lo, hi = 4.116305363741328, 10.425133694426776
    save_game(GameSpec(game.states, game.actions1, game.actions2,
                       np.where(game.payoff == 1.0, hi, lo), game.transition,
                       game.initial_state), str(tmp_path / "g.json"))
    assert run_cli(["simulate", "--game", str(tmp_path / "g.json"),
                    "--adversary", adversary, "--horizon", "50",
                    "--replications", "10"], tmp_path) == 0, (
        capsys.readouterr().err)


def test_simulate_deterministic_rerun_and_workers(tmp_path):
    args = ["simulate", "--horizon", "150", "--replications", "60",
            "--seed", "9"]
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(args, d1) == 0
    assert run_cli(args, d2) == 0
    assert run_cli(args + ["--workers", "3"], d3) == 0
    ref = (d1 / "stats.csv").read_bytes()
    assert (d2 / "stats.csv").read_bytes() == ref
    assert (d3 / "stats.csv").read_bytes() == ref


@pytest.mark.parametrize("command, extra", [
    ("simulate", []),
    ("impossibility", ["--sigma", "always-c"]),
])
def test_workers_below_one_exit_two(tmp_path, capsys, command, extra):
    code = run_cli([command, "--workers", "0", "--horizon", "10",
                    "--replications", "2", *extra], tmp_path)
    assert code == 2
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # rejected before any work


@pytest.mark.parametrize("argv, message", [
    (["impossibility", "--wrap-counter-cap", "40", "--horizon", "150000",
      "--replications", "0"], "replications must be >= 1"),
    (["impossibility", "--sigma", "always-c", "--horizon", "1500000",
      "--seed", "-1"], "base_seed must fit"),
    (["simulate", "--adversary", "best-response", "--br-cap", "300",
      "--horizon", "100000", "--replications", "0"],
     "replications must be >= 1"),
    (["simulate", "--adversary", "best-response", "--horizon", "0"],
     "horizon must be >= 1"),
    (["trace", "--adversary", "best-response", "--br-cap", "300",
      "--horizon", "100000", "--seed", "-1"], "base_seed must fit"),
    (["simulate", "--adversary", "best-response", "--br-cap", "300",
      "--horizon", "100000", "--checkpoints", "200000", "--replications",
      "1"], "checkpoints must lie in [1, 100000]"),
    (["trace", "--adversary", "best-response", "--br-cap", "300",
      "--horizon", "100000", "--replications", "1000"],
     "largest horizon that fits is 6520"),
])
def test_run_size_checked_before_any_build(tmp_path, capsys, monkeypatch,
                                           argv, message):
    def no_build(*args, **kwargs):
        raise AssertionError("built a player before checking the run size")
    for name in ("from_counter_strategy", "best_response_public",
                 "build_worthlessness_adversary"):
        monkeypatch.setattr(stochgame.adversary, name, no_build)
    assert run_cli(argv, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--adversary", "best-response", "--br-cap", "-1"],
     "counter cap -1"),
    (["impossibility", "--wrap-counter-cap", "-1"], "counter cap -1"),
    (["simulate", "--adversary", "best-response", "--br-cap", "40000"],
     "counter cap 40000 must lie in [0, 31425]"),
    (["impossibility", "--wrap-counter-cap", "40000"],
     "counter cap 40000 must lie in [0, 31425]"),
    (["validate-constants", "--depth", "40000"], "past level 31425"),
    (["simulate", "--base", "1e306"], "base 1e+306 has discount rate 0"),
    (["simulate", "--adversary", "best-response", "--br-cap", "31425"],
     "largest cap that fits is 1671"),
    (["impossibility", "--wrap-counter-cap", "31425"],
     "cap 31425 needs 9.48e+10 bytes"),
])
def test_counter_level_out_of_range_exits_two(tmp_path, capsys, monkeypatch,
                                              argv, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a level before rejecting the input")
    monkeypatch.setattr(stochgame.discounted, "solve_discounted", no_solve)
    assert run_cli(argv, tmp_path) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_infeasible_base(tmp_path, capsys):
    code = run_cli(["simulate", "--base", "2.5", "--horizon", "10",
                    "--replications", "2"], tmp_path)
    assert code == 4
    assert "51.75" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "trace"])
def test_table_for_another_game_exits_two(tmp_path, capsys, command):
    table = PublicMemoryStrategyTable(  # 3 row actions; the Big Match has 2
        memory_states=1, horizon=None, action=np.full((1, 1, 3), 1 / 3),
        memory_kernel=np.ones((1, 1, 3, 2, 3, 1)))
    path = tmp_path / "table.json"
    save_strategy_table(table, str(path))
    code = run_cli([command, "--sigma", str(path), "--horizon", "10",
                    "--replications", "1"], tmp_path / "out")
    assert code == 2
    assert "table dimensions do not match the game" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "trace"])
def test_table_horizon_checked_before_the_adversary(tmp_path, capsys,
                                                    monkeypatch, command):
    def no_build(*args, **kwargs):
        raise AssertionError("built the adversary before checking the table")
    for name in ("from_counter_strategy", "best_response_public"):
        monkeypatch.setattr(stochgame.adversary, name, no_build)
    table = PublicMemoryStrategyTable(  # per-stage rows for 10 stages
        memory_states=1, horizon=10, action=np.full((10, 1, 2), 0.5),
        memory_kernel=np.ones((10, 1, 2, 2, 3, 1)))
    path = tmp_path / "table.json"
    save_strategy_table(table, str(path))
    code = run_cli([command, "--sigma", str(path), "--adversary",
                    "best-response", "--br-cap", "300", "--horizon", "100000",
                    "--replications", "1"], tmp_path / "out")
    assert code == 2
    assert "horizon 100000 exceeds the table's horizon 10" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_table_with_fractional_horizon_exits_two(tmp_path, capsys):
    table = PublicMemoryStrategyTable(
        memory_states=1, horizon=None, action=np.full((1, 1, 2), 0.5),
        memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))
    path = tmp_path / "table.json"
    save_strategy_table(table, str(path))
    doc = json.loads(path.read_text())
    doc["horizon"] = 2.7
    path.write_text(json.dumps(doc))
    code = run_cli(["simulate", "--sigma", str(path), "--horizon", "2",
                    "--replications", "1"], tmp_path / "out")
    assert code == 2
    assert "field 'horizon' must be a JSON integer, got 2.7" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [0, -3])
def test_table_with_horizon_below_one_exits_two(tmp_path, capsys, horizon):
    """Such a table is refused on load, naming the file and the field,
    not later by every run as too short for the requested horizon."""
    table = PublicMemoryStrategyTable(
        memory_states=1, horizon=None, action=np.full((1, 1, 2), 0.5),
        memory_kernel=np.ones((1, 1, 2, 2, 3, 1)))
    path = tmp_path / "table.json"
    save_strategy_table(table, str(path))
    doc = json.loads(path.read_text())
    doc["horizon"] = horizon
    path.write_text(json.dumps(doc))
    code = run_cli(["simulate", "--sigma", str(path), "--horizon", "10",
                    "--replications", "1"], tmp_path / "out")
    assert code == 2
    assert (f"{path}: horizon must be >= 1 (or null for a stationary "
            f"table), got {horizon}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_stationary_needs_rate(tmp_path, capsys):
    code = run_cli(["simulate", "--sigma", "stationary-lambda",
                    "--horizon", "10", "--replications", "2"], tmp_path)
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_simulate_unknown_adversary(tmp_path, capsys):
    code = run_cli(["simulate", "--adversary", "nemesis",
                    "--horizon", "10", "--replications", "2"], tmp_path)
    assert code == 2
    assert "nemesis" in capsys.readouterr().err


# ------------------------------------------------------------ game files

def test_malformed_game_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": [}')
    assert cli.main(["solve", "--game", str(bad), "--lambda", "0.1"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    (5, "the top level must be a JSON object, got 5"),
    ([], "the top level must be a JSON object, got []"),
    ("text", 'the top level must be a JSON object, got "text"'),
    ({"states": "LAB"},
     'field \'states\' must be a JSON array of strings, got "LAB"'),
])
def test_malformed_document_exits_two(tmp_path, capsys, doc, message):
    """Game and table files alike; a dict replaces fields of a valid
    Big Match file, and only games have name fields."""
    path = tmp_path / "doc.json"
    commands = [["solve", "--game", str(path), "--lambda", "0.1"]]
    if isinstance(doc, dict):
        save_game(big_match(), str(path))
        doc = {**json.loads(path.read_text()), **doc}
    else:
        commands += [["simulate", "--sigma", str(path)],
                     ["impossibility", "--sigma", str(path)]]
    path.write_text(json.dumps(doc))
    for argv in commands:
        assert run_cli(argv, tmp_path / "out") == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_semantically_invalid_game(tmp_path, capsys):
    doc = {
        "states": ["a", "b"], "actions1": ["x"], "actions2": ["y"],
        "initial_state": "a",
        "payoff": [[[1.0]], [[0.0]]],
        "transition": [[[[1.0]]], [[[1.0]]]],  # wrong last axis
    }
    path = tmp_path / "bad_shape.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", "--game", str(path), "--lambda", "0.1"]) == 2
    assert "transition shape" in capsys.readouterr().err


def test_missing_game_file(capsys):
    assert cli.main(["solve", "--game", "/nonexistent/g.json",
                     "--lambda", "0.1"]) == 2


# ------------------------------------------------------ validate-constants

def test_validate_constants_reports_honest_failure(capsys):
    # default base 100 fails the rate-variation margin; that is a numeric
    # failure exit, not a crash
    assert cli.main(["validate-constants", "--depth", "10"]) == cli.EXIT_NUMERIC
    out = capsys.readouterr().out
    assert "rate_variation: FAIL" in out
    assert "value_floor: PASS" in out
    assert "overall: FAIL" in out


def test_validate_constants_passing_base(capsys):
    assert cli.main(["validate-constants", "--base", "1.1e7",
                     "--depth", "5"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_readme_validate_constants_example(tmp_path):
    """The README example solves 201 levels down to rate 1e-11 and reports
    a verdict on the margins, not a solver error."""
    proc = run_module("validate-constants", "--epsilon", "0.2",
                      "--base", "1.1e7", "--depth", "200",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("overall: ")
               for line in proc.stdout.splitlines())


# ----------------------------------------------------------- impossibility

def test_impossibility_always_continue(tmp_path, capsys):
    code = run_cli(["impossibility", "--sigma", "always-c",
                    "--delta", "0.1", "--horizon", "2000",
                    "--replications", "400", "--seed", "3"], tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "adversary.json").read_text())
    assert doc["delta"] == 0.1
    assert doc["horizon"] == 2000
    assert doc["M"] == 1
    assert len(doc["components"]) == 21
    assert doc["components"][0] == []  # the all-zeros component
    report = (tmp_path / "impossibility_report.txt").read_text()
    assert "certification gamma_T <= 3*delta + 3*SE: PASS" in report
    assert ("exact certification (mixture average < 3*delta, every check "
            "PASS): PASS") in report
    assert "PASS" in capsys.readouterr().out


def stub_monte_carlo(ngame, sigma, tau, horizon, *args, **kwargs):
    """Stands in for the simulation when only the construction and the
    files matter: every replication averages 0."""
    return SimpleNamespace(mean_avg_payoff={horizon: 0.0},
                           payoff_se={horizon: 0.0})


def random_per_stage_table(tmp_path):
    """A per-stage Big Match table with three memory states whose mixture
    grows 23 times, in cells at every memory state."""
    rng = make_rng(700)
    horizon, m_states = 1500, 3
    absorb = rng.uniform(0.0, 2e-5, size=(horizon, m_states))
    path = tmp_path / "table.json"
    save_strategy_table(PublicMemoryStrategyTable(
        memory_states=m_states, horizon=horizon,
        action=np.stack([absorb, 1.0 - absorb], axis=-1),
        memory_kernel=rng.dirichlet(np.ones(m_states),
                                    size=(horizon, m_states, 2, 2, 3))),
        str(path))
    return ["--sigma", str(path), "--delta", "0.1", "--horizon", "1500"]


@pytest.mark.parametrize("args", [
    ["--sigma", "always-c", "--delta", "0.05", "--horizon", "2000"],
    ["--wrap-counter-cap", "1", "--delta", "0.1", "--horizon", "3000"],
    ["--wrap-counter-cap", "8", "--delta", "0.1", "--horizon", "3000"],
    random_per_stage_table,
], ids=["always-c", "cap-1", "cap-8", "per-stage"])
def test_adversary_json_bytes(tmp_path, monkeypatch, args):
    """adversary.json is byte-equal to the sorted-set serialization kept in
    tests/reference.py."""
    if callable(args):
        args = args(tmp_path)
    built = []
    build = stochgame.adversary.build_worthlessness_adversary
    monkeypatch.setattr(stochgame.adversary, "build_worthlessness_adversary",
                        lambda *a: built.append(build(*a)) or built[-1])
    monkeypatch.setattr(stochgame.engine, "monte_carlo", stub_monte_carlo)
    out = tmp_path / "out"
    assert run_cli(["impossibility", *args], out) in (0, 3)
    result, = built
    cli_args = cli.build_parser().parse_args(["impossibility", *args])
    expected = adversary_json_reference(cli_args.delta, cli_args.horizon,
                                        result.certificate.memory_states,
                                        result.mixture)
    assert (out / "adversary.json").read_text(encoding="utf-8") == expected
    assert (result.mixture.first < result.mixture.n_components).any()


def test_impossibility_encodes_each_distinct_set_once(tmp_path, monkeypatch):
    """always-c at delta 0.05 and T 2000 has 41 components but 2 distinct
    one-sets: writing adversary.json lists the cells of each set once."""
    monkeypatch.setattr(stochgame.engine, "monte_carlo", stub_monte_carlo)
    cells = stochgame.adversary.MixedClockedAdversary.cells
    calls = []
    monkeypatch.setattr(stochgame.adversary.MixedClockedAdversary, "cells",
                        lambda self, c: calls.append(c) or cells(self, c))
    assert run_cli(["impossibility", "--sigma", "always-c", "--delta", "0.05",
                    "--horizon", "2000"], tmp_path) == 0
    doc = json.loads((tmp_path / "adversary.json").read_text())
    assert len(doc["components"]) == 41
    assert len(calls) == 2, calls


def test_impossibility_holds_one_component_at_a_time(tmp_path, monkeypatch):
    """Writing adversary.json for always-c at T 5000 holds one distinct
    set's cell list and its encoded text, not every component's set of
    cells: the traced peak of the whole command, with the simulation
    stubbed, stays under 3 MB."""
    monkeypatch.setattr(stochgame.engine, "monte_carlo", stub_monte_carlo)
    tracemalloc.start()
    try:
        code = run_cli(["impossibility", "--sigma", "always-c", "--delta",
                        "0.1", "--horizon", "5000"], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 << 20, peak


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_impossibility_exact_average_above_bound_exits_three(tmp_path, seed):
    """At cap 16 and T 11000 the exact mixture average is 0.302086, above
    3*delta = 0.3.  The simulated mean clears its 3 SE line, but the exact
    verdict fails, so the run exits 3."""
    code = run_cli(["impossibility", "--wrap-counter-cap", "16",
                    "--delta", "0.1", "--horizon", "11000",
                    "--replications", "100", "--seed", str(seed)], tmp_path)
    assert code == 3
    report = (tmp_path / "impossibility_report.txt").read_text()
    assert "exact mixture average payoff at horizon: 0.302086" in report
    assert "certification gamma_T <= 3*delta + 3*SE: PASS" in report
    assert ("exact certification (mixture average < 3*delta, every check "
            "PASS): FAIL") in report


def test_impossibility_count_above_bound_exits_three(tmp_path, monkeypatch):
    """A certificate whose count is M+2 fails the exact verdict, and the
    run exits 3, although its mixture average and simulation pass."""
    build = stochgame.adversary.build_worthlessness_adversary

    def over_count(*args):
        res = build(*args)
        return dataclasses.replace(res, certificate=dataclasses.replace(
            res.certificate,
            max_exceed_count=res.certificate.memory_states + 2))
    monkeypatch.setattr(stochgame.adversary, "build_worthlessness_adversary",
                        over_count)
    monkeypatch.setattr(stochgame.engine, "monte_carlo", stub_monte_carlo)
    code = run_cli(["impossibility", "--sigma", "always-c", "--delta", "0.1",
                    "--horizon", "2000"], tmp_path)
    assert code == 3
    report = (tmp_path / "impossibility_report.txt").read_text()
    assert "certificate count: max 3 <= M+1 = 2: FAIL" in report
    assert "certification gamma_T <= 3*delta + 3*SE: PASS" in report
    assert ("exact certification (mixture average < 3*delta, every check "
            "PASS): FAIL") in report


def test_impossibility_delta_range(tmp_path, capsys):
    assert run_cli(["impossibility", "--sigma", "always-c",
                    "--delta", "0"], tmp_path) == 2
    assert run_cli(["impossibility", "--sigma", "always-c",
                    "--delta", "1.5"], tmp_path) == 2


def test_impossibility_infeasible_horizon(tmp_path, capsys):
    # wrapped capped counter against a 4-stage horizon: the absorb budget
    # cannot clear delta/3, which is a construction failure, not a config
    # one
    code = run_cli(["impossibility", "--wrap-counter-cap", "8",
                    "--delta", "0.001", "--horizon", "4"], tmp_path)
    assert code == 4
    assert "too short" in capsys.readouterr().err


# ------------------------------------------------------------------ trace

def test_trace_writes_csv(tmp_path, capsys):
    code = run_cli(["trace", "--horizon", "25", "--replications", "2",
                    "--seed", "11"], tmp_path)
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "replication,t,z,k,i,j,x"
    assert len(lines) == 1 + 2 * 25
    assert "replication 0" in capsys.readouterr().out


@pytest.mark.parametrize("argv, module, name, message", [
    (["impossibility", "--sigma", "always-c", "--delta", "0.1",
      "--horizon", "40000000"], stochgame.adversary, "_forward_pass",
     "largest horizon that fits is 1597830"),
    (["impossibility", "--wrap-counter-cap", "40", "--horizon", "151831"],
     stochgame.adversary, "_forward_pass",
     "largest horizon that fits is 151830"),
    (["trace", "--horizon", "7000000", "--replications", "1"],
     stochgame.engine, "_play",
     "largest horizon that fits is 6545582"),
    (["trace", "--horizon", "1", "--replications", "6000000"],
     stochgame.engine, "_play",
     "largest replication count that fits is 251990"),
])
def test_oversized_run_exits_two(tmp_path, capsys, monkeypatch, argv, module,
                                 name, message):
    def no_work(*args, **kwargs):
        raise AssertionError("started work before rejecting the run's size")
    monkeypatch.setattr(module, name, no_work)
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "over the 268435456-byte limit" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "0", "horizon must be >= 1"),
    ("--replications", "0", "replications must be >= 1"),
    ("--seed", "-1", "base_seed must fit"),
])
def test_trace_rejects_bad_run_size(tmp_path, flag, value, message):
    proc = run_module("trace", flag, value, "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- config file

def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"horizon": 64, "replications": 8,
                               "seed": 2}))
    out1 = tmp_path / "o1"
    code = cli.main(["--config", str(cfg), "simulate",
                     "--out-dir", str(out1)])
    assert code == 0
    rows = (out1 / "stats.csv").read_text().strip().split("\n")[1:]
    assert rows[-1].split(",")[0] == "64"

    out2 = tmp_path / "o2"
    code = cli.main(["--config", str(cfg), "simulate", "--horizon", "80",
                     "--out-dir", str(out2)])
    assert code == 0
    rows = (out2 / "stats.csv").read_text().strip().split("\n")[1:]
    assert rows[-1].split(",")[0] == "80"


@pytest.mark.parametrize("doc, message", [
    ("horizon seed", "accepted keys for simulate: "),  # not an object
    ({"lambda": 0.01}, "unknown key 'lambda'"),        # the dest is lam
    ({"horizn": 50}, "unknown key 'horizn'"),
    ({"horizon": 64.5}, "key 'horizon': 64.5 is not a valid --horizon"),
    ({"seed": True}, "key 'seed': true"),
])
def test_config_file_bad_entry_exits_two(tmp_path, doc, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    proc = run_module("--config", str(cfg), "simulate",
                      "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_config_file_keys_are_dests(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lam": 0.01, "max_iterations": 5}))
    assert cli.main(["--config", str(cfg), "solve"]) == 0
    assert "state live: value 0.5" in capsys.readouterr().out


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops")
    assert cli.main(["--config", str(cfg), "solve", "--lambda", "0.1"]) == 2


def test_out_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "via_env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    code = cli.main(["simulate", "--horizon", "20", "--replications", "2",
                     "--seed", "1"])
    assert code == 0
    assert (target / "stats.csv").exists()


# ------------------------------------------------------------------ README

def test_readme_cli_block_parses():
    """Every `stochgame ...` line of the README's CLI block, continuation
    lines joined and comments dropped, parses; nothing is run."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines()
                if line.startswith("stochgame ")]
    assert {argv[0] for argv in commands} == {
        "solve", "simulate", "validate-constants", "impossibility", "trace"}
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)  # argparse exits on any unknown flag
        assert args.command == argv[0]


# ------------------------------------------------------------- entry point

def test_argparse_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--bogus-flag"])
    assert exc.value.code == 2


def test_console_script_installed():
    # `python -m stochgame` is the console script's twin and needs no install
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "impossibility" in proc.stdout


@pytest.mark.parametrize("rate, code, stream, text", [
    ("0.01", cli.EXIT_OK, "stdout", "state live: value 0.5"),
    ("2.2250738585072014e-308", cli.EXIT_OK, "stdout",
     "iterations 1, residual 0"),
    ("1.7", cli.EXIT_CONFIG, "stderr", "discount rate"),
])
def test_module_entry_passes_exit_code(rate, code, stream, text):
    proc = run_module("solve", "--lambda", rate)
    assert proc.returncode == code
    assert text in getattr(proc, stream)


@pytest.mark.skipif(installed_distribution() is None,
                    reason="no installed stochgame distribution, so no "
                           "console script")
def test_installed_console_script():
    scripts = [ep for ep in installed_distribution().entry_points
               if ep.group == "console_scripts" and ep.name == "stochgame"]
    assert [ep.value for ep in scripts] == ["stochgame.cli:main"]
    search = os.pathsep.join([sysconfig.get_path("scripts"),
                              os.environ.get("PATH", "")])
    script = shutil.which("stochgame", path=search)
    assert script is not None, "stochgame script not found"
    proc = subprocess.run([script, "--help"], capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "impossibility" in proc.stdout


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the one runtime dependency: every absolute import in the
    package names a standard-library module or numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = {}  # top-level module -> first file importing it
    for path in sorted(Path(stochgame.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert "numpy" in imported
    assert {m: f for m, f in imported.items() if m not in allowed} == {}
