"""Stochastic games with failure states.

A game couples a finite state space with a designated set of failure
states, one shared finite action domain, exact rational transition
probabilities indexed by complete action profiles, and a valuation of
propositional variables.  Every transition row must sum to exactly 1;
arithmetic is over ``fractions.Fraction`` throughout, so validation and
model checking are exact.  A game is immutable and keeps a row table:
``rows`` holds each distinct row once and ``transitions`` maps every key
to its row's index, so a row that many keys share is checked, rendered
and compiled once.  ``row_ids(state)`` lists the row indices of one
state's complete profiles in product order (:func:`product_profiles`),
the order of the model checker's outcome tables.

There are two constructors.  :class:`Game` itself takes keyed rows of
any exact values through :func:`sgcl.formula.exact` and is the loader's
path; it derives a state's row ids from ``transitions`` on first use.
:meth:`Game.from_rows` is for builders whose rows are exact by
construction (the sampler, the canonical game, the example games): it
takes the row table and every state's row ids directly and coerces
nothing.  Neither validates; :func:`validate` does, and the tests call
it on every builder's output.

The JSON exchange format writes probabilities as strings ("9/10",
"0.25") or integers.  The loader takes them through
:func:`sgcl.formula.exact`, which rejects binary floats, and parses
equal rows once, into one row of the table.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, islice, product
from math import comb
from typing import Iterator, Mapping

from .formula import _shown, exact

StateId = str


class GameError(Exception):
    pass


class GameValidationError(GameError):
    def __init__(self, violations):
        super().__init__(
            "invalid game: " + "; ".join(violations[:5])
            + ("; ..." if len(violations) > 5 else "")
        )
        self.violations = list(violations)


class SchemaError(GameError):
    """Malformed game document; the message carries a JSON-pointer path."""


@dataclass(frozen=True)
class ActionProfile:
    """Assignment of actions to agents, stored as sorted pairs.

    A profile that is total on a game's agents indexes that game's
    transition rows; a partial one is a coalition's commitment.
    """

    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(sorted(self.assignment)))

    @classmethod
    def of(cls, mapping: Mapping[str, str]) -> "ActionProfile":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict:
        return dict(self.assignment)


# agents-and-actions layouts whose profile lists are kept: a bounded
# search over two agents and up to three actions meets at most 12
PROFILE_LAYOUTS_KEPT = 64


@lru_cache(maxsize=PROFILE_LAYOUTS_KEPT)
def product_profiles(agents: tuple, actions: tuple) -> tuple:
    """Every assignment of ``actions`` to ``agents``, in product order:
    the profile at index i gives ``agents[j]`` the action numbered by
    digit j of i written in base ``len(actions)``, ``agents[0]`` most
    significant.  This order indexes ``Game.row_ids`` and every table of
    the model checker; the tuple is shared by every game of the layout."""
    return tuple(ActionProfile(tuple(zip(agents, combo)))
                 for combo in product(actions, repeat=len(agents)))


class Game:
    """An immutable game; use :func:`validate` to check well-formedness
    as data rather than at construction time.

    ``transitions`` maps each (state, profile) key to an index into
    ``rows``, the tuple of distinct exact rows; ``row_ids(state)`` gives
    the indices of a state's complete profiles in product order.  The
    constructor coerces each distinct input row object into one row, in
    first-seen order, so rows shared in the input stay shared; a builder
    with exact rows uses :meth:`from_rows` instead.  Nothing here may be
    mutated, nor an input row while it is being read."""

    def __init__(self, agents, states, failures, actions, transitions, valuation):
        self._describe(agents, states, failures, actions, valuation)
        rows = []
        index = {}
        # id(input row) -> (input row, its index in rows); holding the
        # input row keeps its id from being reused by a later temporary row
        seen = {}
        items = transitions.items() if isinstance(transitions, Mapping) else transitions
        for (state, profile), row in items:
            if not isinstance(profile, ActionProfile):
                profile = ActionProfile.of(profile)
            entry = seen.get(id(row))
            if entry is None:
                try:
                    entry = seen[id(row)] = (row, len(rows))
                    rows.append({t: exact(v) for t, v in row.items()})
                except ValueError as exc:
                    raise GameError(f"probability {exc}") from None
            index[(state, profile)] = entry[1]
        self.rows = tuple(rows)
        self.transitions = index
        self._row_ids = {}

    @classmethod
    def from_rows(cls, agents, states, failures, actions, rows, row_ids, valuation) -> "Game":
        """The trusted constructor: ``rows`` are exact rows (``Fraction``
        or int values), and ``row_ids`` maps every state to the indices of
        its complete profiles' rows in product order.  Nothing is coerced
        or checked; ``transitions`` is filled from the two."""
        game = cls.__new__(cls)
        game._describe(agents, states, failures, actions, valuation)
        game.rows = tuple(rows)
        game._row_ids = {s: tuple(row_ids[s]) for s in game.states}
        profiles = product_profiles(game.agents, game.actions)
        game.transitions = {
            (s, profile): i
            for s, ids in game._row_ids.items() for profile, i in zip(profiles, ids)}
        return game

    def _describe(self, agents, states, failures, actions, valuation) -> None:
        self.agents = tuple(agents)
        self.states = tuple(states)
        self.failures = frozenset(failures)
        self.actions = tuple(actions)
        self.valuation = {v: frozenset(sts) for v, sts in valuation.items()}

    @property
    def nonfailure_states(self) -> tuple:
        return tuple(s for s in self.states if s not in self.failures)

    def row_index(self, state: StateId, profile: ActionProfile) -> int:
        try:
            return self.transitions[(state, profile)]
        except KeyError:
            raise GameError(
                f"no transition row for state {state!r}, profile {profile.as_dict()!r}"
            ) from None

    def row(self, state: StateId, profile: ActionProfile) -> Mapping:
        return self.rows[self.row_index(state, profile)]

    def row_ids(self, state: StateId) -> tuple:
        """The row index of each complete profile at ``state``, in product
        order; a state without a row for some profile raises GameError."""
        ids = self._row_ids.get(state)
        if ids is None:
            ids = self._row_ids[state] = tuple(
                self.row_index(state, profile)
                for profile in product_profiles(self.agents, self.actions))
        return ids

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.agents == other.agents
            and self.states == other.states
            and self.failures == other.failures
            and self.actions == other.actions
            and self.transitions.keys() == other.transitions.keys()
            and all(self.rows[i] == other.row(*k) for k, i in self.transitions.items())
            and self.valuation == other.valuation
        )

    def __repr__(self):
        return (
            f"Game(states={len(self.states)}, failures={len(self.failures)}, "
            f"agents={len(self.agents)}, actions={len(self.actions)})"
        )


# missing rows reported by name; any beyond these are only counted
MISSING_ROWS_SHOWN = 5


def _complete_assignments(game: Game) -> Iterator[tuple]:
    """Assignments of every distinct complete profile, in sorted order."""
    actions = sorted(set(game.actions))
    per_agent = [
        [tuple((agent, x) for x in xs)
         for xs in combinations_with_replacement(actions, count)]
        for agent, count in sorted(Counter(game.agents).items())
    ]
    for parts in product(*per_agent):
        yield tuple(pair for part in parts for pair in part)


def _row_problems(row: Mapping, states: set) -> list:
    """What is wrong with one row's entries: unknown targets,
    probabilities outside [0, 1], and a sum other than 1."""
    problems = []
    total = Fraction(0)
    for t, v in row.items():
        if t not in states:
            problems.append(f"unknown target state {t!r}")
        if not 0 <= v <= 1:
            problems.append(f"probability {_shown(v)} outside [0, 1]")
        total += v
    if total != 1:
        problems.append(f"probabilities sum to {_shown(total)}, expected 1")
    return problems


def validate(game: Game) -> list:
    """Well-formedness violations as human-readable strings; [] = valid.

    Each key's state and profile are checked, and each row of the table
    once; a bad row is reported under every key with a complete profile
    that uses it, in key order.  The rows are counted against the number
    of complete profiles, so the complete profiles are only walked, in
    sorted order, to name the first few missing rows."""
    out = []
    if not game.actions:
        out.append("action domain is empty")
    for name, seq in (("agents", game.agents), ("states", game.states),
                      ("actions", game.actions)):
        if len(set(seq)) != len(seq):
            out.append(f"duplicate entries in {name}")
    for s in sorted(game.failures):
        if s not in game.states:
            out.append(f"failure state {s!r} not among the states")
    for var, sts in sorted(game.valuation.items()):
        for s in sorted(sts):
            if s not in game.states:
                out.append(f"valuation of {var!r} names unknown state {s!r}")
    state_set = set(game.states)
    action_set = set(game.actions)
    agent_key = tuple(sorted(game.agents))
    present = 0
    row_problems = [_row_problems(row, state_set) for row in game.rows]
    for (s, profile), i in game.transitions.items():
        if s not in state_set:
            problems = ["unknown source state"]
        elif not (
            action_set
            and tuple(a for a, _ in profile.assignment) == agent_key
            and all(x in action_set for _, x in profile.assignment)
        ):
            problems = ["profile is not a complete profile"]
        else:
            present += 1
            problems = row_problems[i]
            if not problems:
                continue
        where = f"({s!r}, {profile.as_dict()!r})"
        out.extend(f"row {where}: {problem}" for problem in problems)
    expected = 0
    if action_set:
        expected = len(state_set)
        for count in Counter(game.agents).values():
            expected *= comb(len(action_set) + count - 1, count)
    missing = expected - present
    if missing:
        absent = (
            (s, assignment)
            for s in sorted(state_set)
            for assignment in _complete_assignments(game)
            if (s, ActionProfile(assignment)) not in game.transitions
        )
        for s, assignment in islice(absent, MISSING_ROWS_SHOWN):
            out.append(f"missing transition row for ({s!r}, {dict(assignment)!r})")
        if missing > MISSING_ROWS_SHOWN:
            out.append(f"{missing - MISSING_ROWS_SHOWN} more transition rows missing")
    return out


# ---------------------------------------------------------------------------
# JSON exchange


def _parse_probability(value, where: str) -> Fraction:
    try:
        return exact(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _expect_list_of_strings(doc, key):
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"/{key}: expected a list of strings")
    return value


def game_to_dict(game: Game) -> dict:
    """The JSON document of a game.  Each row of the table is rendered
    once; every key gets its own copy."""
    rendered = [{t: str(v) for t, v in sorted(row.items()) if v != 0}
                for row in game.rows]
    rows = [
        {"from": s, "profile": profile.as_dict(), "to": dict(rendered[i])}
        for (s, profile), i in sorted(
            game.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1].assignment))
    ]
    return {
        "agents": list(game.agents),
        "states": list(game.states),
        "failures": sorted(game.failures),
        "actions": list(game.actions),
        "transitions": rows,
        "valuation": {v: sorted(sts) for v, sts in sorted(game.valuation.items())},
    }


def game_from_dict(doc: dict) -> Game:
    if not isinstance(doc, dict):
        raise SchemaError("/: expected an object")
    for key in ("agents", "states", "failures", "actions", "transitions", "valuation"):
        if key not in doc:
            raise SchemaError(f"/{key}: missing")
    agents = _expect_list_of_strings(doc, "agents")
    states = _expect_list_of_strings(doc, "states")
    failures = _expect_list_of_strings(doc, "failures")
    actions = _expect_list_of_strings(doc, "actions")
    raw_rows = doc.get("transitions")
    if not isinstance(raw_rows, list):
        raise SchemaError("/transitions: expected a list")
    transitions = {}
    # a row's items -> its parsed row, which every equal row shares; only
    # rows of str and int values are looked up (1 is not 1.0 or true): any
    # other JSON value fails to parse, at its own pointer, before a store
    parsed = {}
    for i, entry in enumerate(raw_rows):
        where = f"/transitions/{i}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        src = entry.get("from")
        if not isinstance(src, str):
            raise SchemaError(f"{where}/from: expected a state name")
        profile = entry.get("profile")
        if not isinstance(profile, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in profile.items()
        ):
            raise SchemaError(f"{where}/profile: expected an agent-to-action object")
        to = entry.get("to")
        if not isinstance(to, dict):
            raise SchemaError(f"{where}/to: expected a target-to-probability object")
        items = tuple(to.items())
        row = parsed.get(items) if all(type(v) in (str, int) for _, v in items) else None
        if row is None:
            row = parsed[items] = {
                t: _parse_probability(v, f"{where}/to/{t}") for t, v in items}
        key = (src, ActionProfile.of(profile))
        if key in transitions:
            raise SchemaError(f"{where}: duplicate row for this state and profile")
        transitions[key] = row
    valuation = doc.get("valuation")
    if not isinstance(valuation, dict):
        raise SchemaError("/valuation: expected an object")
    for var, sts in valuation.items():
        if not isinstance(sts, list) or not all(isinstance(s, str) for s in sts):
            raise SchemaError(f"/valuation/{var}: expected a list of state names")
    return Game(agents, states, failures, actions, transitions, valuation)


def save(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
        fh.write("\n")


def load(path) -> Game:
    """Load and validate a game file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"/: not valid JSON: {exc}") from exc
        except RecursionError:
            raise SchemaError("/: document nests too deeply") from None
    game = game_from_dict(doc)
    violations = validate(game)
    if violations:
        raise GameValidationError(violations)
    return game


# ---------------------------------------------------------------------------
# built-in example games


def survival_ladder(n: int) -> Game:
    """Three-state game whose start state survives one step with
    probability exactly 1 - 10**-n and then survives forever.

    The start state s satisfies the empty-coalition survival claim at
    every threshold 1 - 10**-k for k <= n but not at threshold 1, which
    makes the family a compact stress test for limit reasoning.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    loss = Fraction(1, 10**n)
    start_row = {"f": loss} if loss == 1 else {"t": 1 - loss, "f": loss}
    return Game.from_rows(
        agents=("a",),
        states=("s", "t", "f"),
        failures=("f",),
        actions=("act",),
        rows=(start_row, {"t": Fraction(1)}, {"f": Fraction(1)}),
        row_ids={"s": (0,), "t": (1,), "f": (2,)},
        valuation={},
    )


def overtake_game() -> Game:
    """Two-car overtaking scenario: car a is alongside car b on a road
    with oncoming traffic.  Both pick an acceleration (minus, zero,
    plus); a ends up behind (ab), ahead (ba), or in a collision with b
    (f_c) or with oncoming traffic (f_t).

    Fixed by the scenario: accelerating against b slowing/coasting/
    accelerating completes the pass with probability 9/10, 3/5, 0; the
    mutual-slowdown rows and the residual mass routing are modeling
    choices, not canonical.
    """
    F = Fraction
    rows_from_p = {
        ("minus", "minus"): {"ab": F(4, 5), "f_t": F(1, 5)},
        ("minus", "zero"): {"ab": F(9, 10), "f_c": F(1, 10)},
        ("minus", "plus"): {"ab": F(1)},
        ("zero", "minus"): {"ba": F(9, 10), "f_t": F(1, 10)},
        ("zero", "zero"): {"p": F(9, 10), "f_t": F(1, 10)},
        ("zero", "plus"): {"ab": F(9, 10), "f_c": F(1, 10)},
        ("plus", "minus"): {"ba": F(9, 10), "f_t": F(1, 10)},
        ("plus", "zero"): {"ba": F(3, 5), "f_c": F(2, 5)},
        ("plus", "plus"): {"f_t": F(1)},
    }
    actions = ("minus", "zero", "plus")
    absorbing = ("ab", "ba", "f_c", "f_t")
    # p's rows in product order, then one row per absorbing state
    rows = [rows_from_p[(xa, xb)] for xa in actions for xb in actions]
    row_ids = {"p": tuple(range(len(rows)))}
    for s in absorbing:
        row_ids[s] = (len(rows),) * len(actions) ** 2
        rows.append({s: F(1)})
    return Game.from_rows(
        agents=("a", "b"),
        states=("p",) + absorbing,
        failures=("f_c", "f_t"),
        actions=actions,
        rows=rows,
        row_ids=row_ids,
        valuation={"passed": ("ba",), "behind": ("ab",)},
    )
