"""Finite two-player zero-sum stochastic games.

A game is a finite state set, finite action sets for the maximizer (player 1)
and minimizer (player 2), a stage payoff r(z, i, j) paid by player 2 to
player 1, and a transition kernel p(z' | z, i, j).  All downstream numerics
(discounted solving, simulation) run on a normalized copy whose payoffs lie
in [0, 1]; the affine map is recorded so reported values can be mapped back
to the original payoff units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9
ABSORB_TOL = 1e-12
MAX_TABLE_BYTES = 1 << 28  # largest kernel, policy, trace or mixture build


class GameValidationError(ValueError):
    """Raised when a game description is malformed; carries every violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GameSpec:
    """A finite zero-sum stochastic game with named states and actions.

    payoff has shape (Z, I, J); transition has shape (Z, I, J, Z) with
    probability rows over the destination axis.  Arrays are read-only so
    one spec can be shared by every player and run that reads it.
    """

    states: tuple[str, ...]
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    payoff: np.ndarray
    transition: np.ndarray
    initial_state: int

    def __post_init__(self):
        object.__setattr__(self, "payoff", _frozen_array(self.payoff))
        object.__setattr__(self, "transition", _frozen_array(self.transition))
        errors = validate_game(
            self.states, self.actions1, self.actions2,
            self.payoff, self.transition, self.initial_state,
        )
        if errors:
            raise GameValidationError(errors)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions1(self) -> int:
        return len(self.actions1)

    @property
    def n_actions2(self) -> int:
        return len(self.actions2)

    def state_index(self, name: str) -> int:
        return self.states.index(name)


def validate_game(states, actions1, actions2, payoff, transition,
                  initial_state) -> list[str]:
    """Check a candidate game description and return every violation found.

    An empty list means the description is a valid game.  Messages name the
    offending entry by its index path so file errors are actionable.
    """
    errors: list[str] = []
    for label, seq in (("states", states), ("actions1", actions1),
                       ("actions2", actions2)):
        if len(seq) == 0:
            errors.append(f"{label} must be non-empty")
        if len(set(seq)) != len(seq):
            errors.append(f"{label} contains duplicate names")
    nz, ni, nj = len(states), len(actions1), len(actions2)
    payoff = np.asarray(payoff, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    if payoff.shape != (nz, ni, nj):
        errors.append(
            f"payoff shape {payoff.shape} does not match "
            f"(states, actions1, actions2) = {(nz, ni, nj)}")
    if transition.shape != (nz, ni, nj, nz):
        errors.append(
            f"transition shape {transition.shape} does not match "
            f"(states, actions1, actions2, states) = {(nz, ni, nj, nz)}")
    if not np.all(np.isfinite(payoff)):
        bad = np.argwhere(~np.isfinite(payoff))
        for z, i, j in bad[:10]:
            errors.append(f"payoff[{z}][{i}][{j}] is not finite")
    if transition.shape == (nz, ni, nj, nz):
        if not np.all(np.isfinite(transition)):
            bad = np.argwhere(~np.isfinite(transition))
            for z, i, j, w in bad[:10]:
                errors.append(f"transition[{z}][{i}][{j}][{w}] is not finite")
        else:
            neg = np.argwhere(transition < -PROB_TOL)
            for z, i, j, w in neg[:10]:
                errors.append(
                    f"transition[{z}][{i}][{j}][{w}] = "
                    f"{transition[z, i, j, w]:.6g} is negative")
            sums = transition.sum(axis=3)
            bad_rows = np.argwhere(np.abs(sums - 1.0) > PROB_TOL)
            for z, i, j in bad_rows[:10]:
                errors.append(
                    f"transition row [{z}][{i}][{j}] sums to "
                    f"{sums[z, i, j]:.12g}, expected 1")
    if (isinstance(initial_state, bool)
            or not isinstance(initial_state, (int, np.integer))):
        errors.append(f"initial_state must be an integer index, "
                      f"got {initial_state!r}")
    elif not 0 <= initial_state < max(nz, 1):
        errors.append(
            f"initial_state {initial_state} out of range [0, {nz})")
    return errors


@dataclass(frozen=True)
class NormalizedGame:
    """A game whose payoffs have been affinely mapped into [0, 1].

    norm_payoff = scale * payoff + offset.  A constant-payoff game maps to
    the constant 1/2 (scale 1); a game already inside [0, 1] keeps the
    identity map so simple examples stay bit-identical.
    """

    game: GameSpec
    scale: float
    offset: float

    def denormalize(self, values):
        return (np.asarray(values, dtype=np.float64) - self.offset) / self.scale


def normalize_payoffs(game: GameSpec) -> NormalizedGame:
    """Map payoffs into [0, 1] and record the affine map used."""
    r = game.payoff
    rmin, rmax = float(r.min()), float(r.max())
    if rmin >= 0.0 and rmax <= 1.0:
        scale, offset = 1.0, 0.0
    elif rmin == rmax:
        scale, offset = 1.0, 0.5 - rmin
    else:
        scale = 1.0 / (rmax - rmin)
        offset = -rmin * scale
    mapped = GameSpec(
        states=game.states, actions1=game.actions1, actions2=game.actions2,
        payoff=np.clip(scale * r + offset, 0.0, 1.0),  # the top can round up
        transition=game.transition, initial_state=game.initial_state)
    return NormalizedGame(game=mapped, scale=scale, offset=offset)


def is_absorbing(game: GameSpec, z: int) -> bool:
    """True when every action pair at z returns to z with probability 1."""
    self_mass = game.transition[z, :, :, z]
    return bool(np.all(np.abs(self_mass - 1.0) <= ABSORB_TOL))


def big_match() -> GameSpec:
    """The Big Match: one live state, two absorbing states.

    In the live state player 1 chooses A (absorbing) or C (continuing);
    player 2 chooses 0 or 1.  C scores 1 against 0 and 0 against 1 and the
    play stays live.  A against 0 absorbs with all future payoffs 0; A
    against 1 absorbs with all future payoffs 1.  The (undiscounted and
    discounted) value of the live state is 1/2.
    """
    states = ("live", "abs0", "abs1")
    actions1 = ("A", "C")
    actions2 = ("0", "1")
    payoff = np.zeros((3, 2, 2))
    payoff[0, 0, 0] = 0.0   # A vs 0: absorbs at 0
    payoff[0, 0, 1] = 1.0   # A vs 1: absorbs at 1
    payoff[0, 1, 0] = 1.0   # C vs 0
    payoff[0, 1, 1] = 0.0   # C vs 1
    payoff[1] = 0.0
    payoff[2] = 1.0
    transition = np.zeros((3, 2, 2, 3))
    transition[0, 0, 0, 1] = 1.0
    transition[0, 0, 1, 2] = 1.0
    transition[0, 1, :, 0] = 1.0
    transition[1, :, :, 1] = 1.0
    transition[2, :, :, 2] = 1.0
    return GameSpec(states, actions1, actions2, payoff, transition, 0)


def transition_cuts(game: GameSpec) -> np.ndarray:
    """Cut points of the transition rows, one row per flat (z, i, j)."""
    return cut_points(game.transition).reshape(game.payoff.size, -1)


def probability_rows(name: str, rows) -> np.ndarray:
    """rows as float64, checked as probability vectors along the last axis:
    every entry at least -PROB_TOL and every sum within PROB_TOL of 1."""
    rows = np.asarray(rows, dtype=np.float64)
    if not (np.all(rows >= -PROB_TOL)
            and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= PROB_TOL)):
        raise ValueError(f"{name} rows must be probability vectors")
    return rows


def stage_row(table, t: int):
    """Row of stage t (1-based) of a table whose leading axis holds one row
    per stage or a single stationary row; stages past the last row play it."""
    return table[min(t, len(table)) - 1]


def take_rows(table: np.ndarray, *index) -> np.ndarray:
    """table[index], one index array per leading axis, by one take at the
    flat index (fast on short rows, even empty); it checks only the range."""
    flat = index[0]
    for n, i in zip(table.shape[1:], index[1:]):
        flat = flat * n + i
    return table.reshape(math.prod(table.shape[:-1]), -1).take(flat, axis=0)


def cut_points(rows) -> np.ndarray:
    """The A - 1 smallest cumulative sums of each row of A probabilities,
    sorted, contiguous (take copies a strided table): the clamped inverse-CDF
    index reaches m at the m-th smallest, so sample_rows needs no clamp."""
    return np.sort(np.cumsum(rows, axis=-1), axis=-1)[..., :-1].copy()


def sample_rows(cuts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw, the one sampling rule everywhere: per draw u, the
    count of its row's cut points at or below u (0 on one-entry rows)."""
    idx = ((u >= cuts[..., 0]).astype(np.int64) if cuts.shape[-1]
           else np.zeros(np.shape(u), dtype=np.int64))
    for a in range(1, cuts.shape[-1]):  # by column: a short-axis sum is slow
        idx += u >= cuts[..., a]
    return idx


def check_bytes(what: str, size: int, need) -> None:
    """Refuse a build of the given size when need(size), the bytes it holds,
    passes MAX_TABLE_BYTES.  need must not fall as size grows; the refusal
    names the largest size that fits, found by bisection (0 if none)."""
    if need(size) <= MAX_TABLE_BYTES:
        return
    fits, over = 0, size
    while over - fits > 1:
        mid = (fits + over) // 2
        if need(mid) <= MAX_TABLE_BYTES:
            fits = mid
        else:
            over = mid
    raise ValueError(f"{what} {size} needs {need(size):.3g} bytes, over the "
                     f"{MAX_TABLE_BYTES}-byte limit; the largest {what} that "
                     f"fits is {fits}")


def load_json_object(path: str) -> dict:
    """The JSON object in the file at path.  A syntax error reports its line
    and column from the JSON decoder; any other top-level value is
    rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: "
                         f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, got "
                         f"{json.dumps(doc)[:40]}")
    return doc


def load_game(path: str) -> GameSpec:
    """Load a game from a JSON file.

    Semantic errors report every violation with its index path into the
    document.
    """
    doc = load_json_object(path)
    required = ("states", "actions1", "actions2", "payoff", "transition",
                "initial_state")
    missing = [key for key in required if key not in doc]
    if missing:
        raise GameValidationError(
            [f"{path}: missing required field '{key}'" for key in missing])
    for key in ("states", "actions1", "actions2"):
        names = doc[key]
        if not (isinstance(names, list)
                and all(isinstance(name, str) for name in names)):
            raise GameValidationError(
                [f"{path}: field '{key}' must be a JSON array of strings, "
                 f"got {json.dumps(names)[:40]}"])
    states = doc["states"]
    initial = doc["initial_state"]
    if isinstance(initial, str):
        if initial not in states:
            raise GameValidationError(
                [f"{path}: initial_state '{initial}' is not a state name"])
        initial = states.index(initial)
    try:
        payoff = np.asarray(doc["payoff"], dtype=np.float64)
        transition = np.asarray(doc["transition"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GameValidationError(
            [f"{path}: payoff/transition tables are ragged or non-numeric: "
             f"{exc}"]) from exc
    try:
        return GameSpec(tuple(states), tuple(doc["actions1"]),
                        tuple(doc["actions2"]), payoff, transition, initial)
    except GameValidationError as exc:
        raise GameValidationError([f"{path}: {e}" for e in exc.errors]) from None


def save_game(game: GameSpec, path: str) -> None:
    doc = {
        "states": list(game.states),
        "actions1": list(game.actions1),
        "actions2": list(game.actions2),
        "payoff": game.payoff.tolist(),
        "transition": game.transition.tolist(),
        "initial_state": int(game.initial_state),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
