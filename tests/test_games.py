"""Game container, validation, normalization, and serialization."""

import numpy as np
import pytest

from stochgame import GameSpec, GameValidationError, big_match, load_game, \
    normalize_payoffs, save_game, validate_game
from stochgame.games import (PROB_TOL, cut_points, is_absorbing, sample_rows,
                             take_rows, transition_cuts)

from conftest import make_rng


def _alternator() -> GameSpec:
    # two states swapping deterministically, payoff 1 only on the left
    return GameSpec(
        states=("left", "right"),
        actions1=("stay",),
        actions2=("go",),
        payoff=np.array([[[1.0]], [[0.0]]]),
        transition=np.array([[[[0.0, 1.0]]], [[[1.0, 0.0]]]]),
        initial_state=0,
    )


def test_big_match_layout(bm_game):
    g = bm_game
    assert g.states == ("live", "abs0", "abs1")
    assert g.actions1 == ("A", "C")
    assert g.actions2 == ("0", "1")
    assert g.initial_state == g.state_index("live")
    live = g.state_index("live")
    # stage payoffs in the live state: absorb action wins on column 1,
    # continue action wins on column 0
    assert g.payoff[live, 0, 0] == 0.0
    assert g.payoff[live, 0, 1] == 1.0
    assert g.payoff[live, 1, 0] == 1.0
    assert g.payoff[live, 1, 1] == 0.0
    # absorb action moves to the matching absorbing state with certainty
    assert g.transition[live, 0, 0, g.state_index("abs0")] == 1.0
    assert g.transition[live, 0, 1, g.state_index("abs1")] == 1.0
    # continue action stays put
    assert g.transition[live, 1, 0, live] == 1.0
    assert g.transition[live, 1, 1, live] == 1.0


def test_absorbing_flags(bm_game):
    assert not is_absorbing(bm_game, bm_game.state_index("live"))
    assert is_absorbing(bm_game, bm_game.state_index("abs0"))
    assert is_absorbing(bm_game, bm_game.state_index("abs1"))


def test_arrays_are_frozen(bm_game):
    with pytest.raises(ValueError):
        bm_game.payoff[0, 0, 0] = 7.0
    with pytest.raises(ValueError):
        bm_game.transition[0, 0, 0, 0] = 7.0


def test_validate_game_good(bm_game):
    g = bm_game
    assert validate_game(g.states, g.actions1, g.actions2, g.payoff,
                         g.transition, g.initial_state) == []


def test_validate_game_reports_each_problem():
    payoff = np.zeros((2, 1, 1))
    bad_rows = np.array([[[[0.5, 0.4]]], [[[1.1, -0.1]]]])
    errors = validate_game(("a", "b"), ("x",), ("y",), payoff, bad_rows, 0)
    assert any("sum" in e for e in errors)
    assert any("negative" in e or "[0, 1]" in e or "probability" in e
               for e in errors)


def test_validate_game_shapes_and_names():
    payoff = np.zeros((2, 1, 1))
    tr = np.zeros((2, 1, 1, 2))
    tr[..., 0] = 1.0
    assert validate_game(("a", "a"), ("x",), ("y",), payoff, tr, 0)
    assert validate_game(("a", "b"), ("x",), ("y",), payoff, tr, 5)
    assert validate_game(("a", "b"), ("x",), ("y",),
                         np.zeros((2, 2, 1)), tr, 0)
    nan_payoff = payoff.copy()
    nan_payoff[0, 0, 0] = np.nan
    assert validate_game(("a", "b"), ("x",), ("y",), nan_payoff, tr, 0)


def test_gamespec_constructor_raises_on_bad_input():
    with pytest.raises(GameValidationError) as exc:
        GameSpec(states=("a", "b"), actions1=("x",), actions2=("y",),
                 payoff=np.zeros((2, 1, 1)),
                 transition=np.full((2, 1, 1, 2), 0.3),
                 initial_state=0)
    assert exc.value.errors  # every violation is kept, not just the first


def test_normalize_affine_map():
    rng = make_rng(1)
    payoff = rng.uniform(-5.0, 7.0, size=(3, 2, 2))
    tr = np.zeros((3, 2, 2, 3))
    tr[..., 1] = 1.0
    g = GameSpec(states=("s0", "s1", "s2"), actions1=("u", "d"),
                 actions2=("l", "r"), payoff=payoff, transition=tr,
                 initial_state=0)
    ng = normalize_payoffs(g)
    mapped = ng.game.payoff
    assert mapped.min() == 0.0
    assert 1.0 - 1e-15 <= mapped.max() <= 1.0
    # the affine map must be invertible back to the original values
    np.testing.assert_allclose(ng.denormalize(mapped), payoff,
                               rtol=0, atol=1e-12)


def test_normalize_stays_in_unit_interval(bm_game):
    """The affine map can round the top payoff to 1 + 1 ulp; the mapped
    payoffs still lie in [0, 1] exactly, over 10^4 random ranges."""
    rng = make_rng(2)
    for lo, width in zip(rng.uniform(-50.0, 50.0, 10_000),
                         rng.uniform(1e-3, 100.0, 10_000)):
        g = GameSpec(bm_game.states, bm_game.actions1, bm_game.actions2,
                     lo + width * bm_game.payoff, bm_game.transition,
                     bm_game.initial_state)
        mapped = normalize_payoffs(g).game.payoff
        assert 0.0 <= mapped.min() and mapped.max() <= 1.0, (lo, width)


def test_normalize_identity_when_already_unit(bm_game):
    ng = normalize_payoffs(bm_game)
    assert (ng.scale, ng.offset) == (1.0, 0.0)
    np.testing.assert_array_equal(ng.game.payoff, bm_game.payoff)


def test_normalize_constant_payoffs():
    tr = np.zeros((1, 1, 1, 1))
    tr[..., 0] = 1.0
    g = GameSpec(states=("s",), actions1=("x",), actions2=("y",),
                 payoff=np.full((1, 1, 1), 3.0), transition=tr,
                 initial_state=0)
    ng = normalize_payoffs(g)
    assert ng.game.payoff[0, 0, 0] == 0.5  # constants sit at the midpoint
    assert ng.denormalize(ng.game.payoff)[0, 0, 0] == pytest.approx(3.0)


def test_save_load_round_trip(tmp_path, bm_game):
    path = str(tmp_path / "bm.json")
    save_game(bm_game, path)
    back = load_game(path)
    assert back.states == bm_game.states
    assert back.actions1 == bm_game.actions1
    assert back.actions2 == bm_game.actions2
    assert back.initial_state == bm_game.initial_state
    np.testing.assert_array_equal(back.payoff, bm_game.payoff)
    np.testing.assert_array_equal(back.transition, bm_game.transition)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{'states': []}")  # single quotes are invalid JSON
    with pytest.raises(ValueError) as exc:
        load_game(str(path))
    assert "line 1" in str(exc.value)


def test_load_missing_field(tmp_path, bm_game):
    path = tmp_path / "partial.json"
    save_game(bm_game, str(path))
    import json
    doc = json.loads(path.read_text())
    del doc["transition"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_game(str(path))
    assert "transition" in str(exc.value)


def test_load_rejects_boolean_initial_state(tmp_path, bm_game):
    path = tmp_path / "bool_initial.json"
    save_game(bm_game, str(path))
    import json
    doc = json.loads(path.read_text())
    doc["initial_state"] = True  # a bool is not state index 1
    path.write_text(json.dumps(doc))
    with pytest.raises(GameValidationError, match="initial_state must be an "
                                                  "integer index, got True"):
        load_game(str(path))


def test_sample_index_rule():
    cuts = cut_points([0.2, 0.3, 0.5])
    assert cuts.tolist() == [0.2, 0.5]
    u = np.array([0.0, 0.19999, 0.2, 0.49, 0.5, 0.999999])
    # u = 0.2 sits on a boundary and goes to the next cell
    assert sample_rows(cuts, u).tolist() == [0, 0, 1, 1, 2, 2]
    # one row per draw, and a row total short of 1 never overflows
    rows = cut_points([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.3, 0.3, 0.3]])
    assert sample_rows(rows, np.array([0.5, 0.5, 0.95])).tolist() == [2, 1, 2]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_sample_rows_counts_as_the_reduction_did(width):
    """The count of cut points at or below u equals the old bool reduction
    over the full cumulative row, clamped to the last index, bit for bit:
    on rows with -PROB_TOL entries, whose cumulative rows are not monotone,
    on draws that equal a cumulative entry exactly, on u = 0 and u = 1,
    and on rows of one entry, which have no cut points and draw 0."""
    rng = make_rng(60 + width)
    rows = rng.dirichlet(np.ones(width), size=(64, 32))
    dip = rng.random(rows.shape) < 0.2
    rows[dip] = -PROB_TOL
    cum = np.cumsum(rows, axis=-1)
    u = rng.random(cum.shape[:-1])
    ties = rng.random(u.shape) < 0.5
    pick = rng.integers(0, width, size=u.shape)
    u[ties] = np.take_along_axis(cum, pick[..., None], axis=-1)[ties, 0]
    u[:, :2] = 0.0, 1.0
    want = np.minimum((u[..., None] >= cum).sum(axis=-1), width - 1)
    cuts = cut_points(rows)
    assert cuts.shape == (64, 32, width - 1)
    got = sample_rows(cuts, u)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert sample_rows(cuts[0, 0], u[0, 0]) == want[0, 0]  # one scalar draw


@pytest.mark.parametrize("width", [0, 2, 3, 4])
def test_take_rows_is_the_fancy_index(width):
    """One take at the flat index gathers the rows that fancy indexing by
    every leading axis does, on tables of 1 to 4 leading axes, also of
    empty rows (the cut points of one-entry rows); an index past the flat
    range is refused."""
    rng = make_rng(80 + width)
    for ndim in range(1, 5):
        shape = tuple(int(n) for n in rng.integers(2, 5, size=ndim))
        table = rng.random((*shape, width))
        idx = tuple(rng.integers(0, n, size=50) for n in shape)
        np.testing.assert_array_equal(take_rows(table, *idx), table[idx])
        with pytest.raises(IndexError):
            take_rows(table, *(np.full(50, n - 1) for n in shape[:-1]),
                      np.full(50, shape[-1]))


def test_transition_cuts_are_the_sorted_cumulative_rows(bm_game):
    """One row per flat (z, i, j) index, holding the row's cumulative sums
    sorted, without the last."""
    cum = np.sort(np.cumsum(bm_game.transition, axis=3), axis=3)
    np.testing.assert_array_equal(transition_cuts(bm_game),
                                  cum[..., :-1].reshape(-1, 2))


def test_alternator_is_valid():
    g = _alternator()
    assert not is_absorbing(g, 0) and not is_absorbing(g, 1)
