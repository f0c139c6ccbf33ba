"""Stochastic games with failure states.

A game couples a finite state space with a designated set of failure
states, one shared finite action domain, exact rational transition
probabilities indexed by complete action profiles, and a valuation of
propositional variables.  Every transition row must sum to exactly 1;
arithmetic is over ``fractions.Fraction`` throughout, so validation and
model checking are exact.

A game is immutable, dense and complete: ``rows`` holds each row once,
and ``row_ids(state)`` lists the row index of every complete profile of
that state in product order (:func:`product_profiles`), the order of the
model checker's outcome tables.  A row that many profiles share is
checked, rendered and compiled once.  :class:`Game` is the one
constructor: it keeps a row whose values are all Fractions, takes every
other row value through :func:`sgcl.formula.exact` and rejects a row-id
table of the wrong shape, but leaves the layout and the rows to
:func:`validate`, which the tests call on every builder's output.

The JSON exchange format keys each row by its state and profile, and
writes probabilities as strings ("9/10", "0.25") or integers.
:func:`game_json` is the one writer: it renders each row of the table
and each profile of the layout once and joins the document's text from
those pieces; :func:`game_to_dict` and :func:`save` read that text back.

The loader reads a document in one pass.  It takes each distinct literal
through :func:`sgcl.formula.exact` once, which rejects binary floats,
parses equal rows once, into one row of the table, and puts each row's
index straight into its state's slot numbered by the profile's product
position.  It checks the document before it builds a game: a file with
an unknown state, a partial profile, a missing row or a bad row never
becomes a :class:`Game`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Mapping

from .formula import IntegerTooLong, _shown, exact, json_int

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


# the value types of a row that the constructor keeps as given
_EXACT_TYPES = frozenset({Fraction})
# the value types of a document row that the loader looks up by its items:
# 1 == 1.0 == True, so a row holding a float or a bool is parsed, and fails,
# at its own pointer
_KEYED_TYPES = frozenset({str, int})


def _same_distribution(row: Mapping, other: Mapping) -> bool:
    return row == other or ({t: v for t, v in row.items() if v}
                            == {t: v for t, v in other.items() if v})


class Game:
    """An immutable, complete game; :func:`validate` reports problems
    with its layout and rows as data.

    ``rows`` is a sequence of rows (target state -> probability), each
    value an int, a ``Fraction`` or a string literal, kept as the
    ``Fraction`` :func:`sgcl.formula.exact` gives; a row whose values
    are all Fractions is kept as the same object.  ``row_ids`` maps every
    state to the indices into ``rows`` of its complete profiles' rows, in
    product order.  A value that is not exact, or a state without
    ``len(actions) ** len(agents)`` row ids inside ``rows``, raises
    GameError.  Nothing here may be mutated."""

    def __init__(self, agents, states, failures, actions, rows, row_ids, valuation):
        self.agents = tuple(agents)
        self.states = tuple(states)
        self.failures = frozenset(failures)
        self.actions = tuple(actions)
        self.valuation = {v: frozenset(sts) for v, sts in valuation.items()}
        try:
            self.rows = tuple(
                row if _EXACT_TYPES.issuperset(map(type, row.values()))
                else {t: exact(v) for t, v in row.items()}
                for row in rows)
        except ValueError as exc:
            raise GameError(f"probability {exc}") from None
        width = len(self.actions) ** len(self.agents)
        self._row_ids = {}
        for s in self.states:
            if s not in row_ids:
                raise GameError(f"no row ids for state {s!r}")
            ids = self._row_ids[s] = tuple(row_ids[s])
            if len(ids) != width:
                raise GameError(
                    f"state {s!r} has {len(ids)} row ids, expected {width}"
                    " (one per complete profile)")
            if ids and not 0 <= min(ids) <= max(ids) < len(self.rows):
                raise GameError(
                    f"state {s!r} names a row id outside the {len(self.rows)} rows")

    @property
    def nonfailure_states(self) -> tuple:
        return tuple(s for s in self.states if s not in self.failures)

    @property
    def transitions(self) -> dict:
        """``{(state, profile): row index}`` for every state and complete
        profile, in state and product order; built on each read."""
        profiles = product_profiles(self.agents, self.actions)
        return {(s, profile): i
                for s in self.states
                for profile, i in zip(profiles, self._row_ids[s])}

    def row_ids(self, state: StateId) -> tuple:
        """The row index of each complete profile at ``state``, in product
        order; a state the game does not have raises GameError."""
        try:
            return self._row_ids[state]
        except KeyError:
            raise GameError(f"no transition row for state {state!r}") from None

    def __eq__(self, other):
        """Equal layouts, valuations and transition distributions: an
        entry of probability 0 is no entry, as :func:`game_json`
        writes none."""
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.agents == other.agents
            and self.states == other.states
            and self.failures == other.failures
            and self.actions == other.actions
            and all(_same_distribution(self.rows[i], other.rows[j])
                    for s in self.states
                    for i, j in zip(self._row_ids[s], other._row_ids[s]))
            and self.valuation == other.valuation
        )

    def __repr__(self):
        return (
            f"Game(states={len(self.states)}, failures={len(self.failures)}, "
            f"agents={len(self.agents)}, actions={len(self.actions)})"
        )


# missing rows reported by name; any beyond these are only counted
MISSING_ROWS_SHOWN = 5


def _row_problems(row: Mapping, states: set) -> list:
    """What is wrong with one row's entries: unknown targets,
    probabilities outside [0, 1], and a sum other than 1.  The sum is
    kept in integers, num / den with den the lcm of the denominators so
    far, as ``CheckContext.entry`` keeps survival; a Fraction only words
    a problem."""
    problems = []
    num, den = 0, 1
    for t, v in row.items():
        if t not in states:
            problems.append(f"unknown target state {t!r}")
        n, d = v.numerator, v.denominator
        if n < 0 or n > d:
            problems.append(f"probability {_shown(v)} outside [0, 1]")
        if den % d:
            scale = d // gcd(den, d)
            num *= scale
            den *= scale
        num += n * (den // d)
    if num != den:
        problems.append(f"probabilities sum to {_shown(Fraction(num, den))}, expected 1")
    return problems


def _position(profile: Mapping, agents, digit: Mapping):
    """The product position of ``profile``, or None when it is not a
    complete profile: one action of ``digit`` (action -> its index) for
    each of ``agents``, which must be distinct."""
    if len(profile) != len(agents):
        return None
    position = 0
    for a in agents:
        k = digit.get(profile.get(a))
        if k is None:
            return None
        position = position * len(digit) + k
    return position


def _profile_at(agents, actions, position) -> dict:
    """The complete profile at ``position`` in product order, as the
    agent-sorted dict a message shows."""
    choice = {}
    for a in reversed(agents):
        position, digit = divmod(position, len(actions))
        choice[a] = actions[digit]
    return dict(sorted(choice.items()))


def _violations(agents, states, failures, actions, valuation, rows, row_ids, keys) -> list:
    """Every well-formedness violation of a game's parts, as
    human-readable strings; [] = valid.

    ``row_ids`` maps each state to its row indices by product position:
    a built game's tuple, or the dict of the positions a document names.
    ``keys`` gives each row's (source state, profile, row index) in
    report order; the profile is a product position, or the profile dict
    of a document row whose source is unknown or whose profile is not
    complete.

    The layout comes first: an empty action domain, duplicate names,
    failure and valuation states that are not states.  When the agents
    or actions repeat or there are no actions, complete profiles are not
    defined and the check stops there.  Otherwise each row of the table
    is checked once, and each key is reported in order: a foreign one by
    what makes it foreign, one with a complete profile by its row's
    problems.  The positions present are counted against the number of
    complete profiles; only when some are missing (never for a built
    game, whose tuples are complete) are the profiles walked, in sorted
    order, to name the first few, so no work or memory grows with that
    number beyond the rows present."""
    out = []
    if not actions:
        out.append("action domain is empty")
    for name, seq in (("agents", agents), ("states", states), ("actions", actions)):
        if len(set(seq)) != len(seq):
            out.append(f"duplicate entries in {name}")
    for s in sorted(failures):
        if s not in states:
            out.append(f"failure state {s!r} not among the states")
    for var, sts in sorted(valuation.items()):
        for s in sorted(sts):
            if s not in states:
                out.append(f"valuation of {var!r} names unknown state {s!r}")
    if not actions or len(set(agents)) != len(agents) or len(set(actions)) != len(actions):
        return out
    state_set = set(states)
    row_problems = [_row_problems(row, state_set) for row in rows]
    for s, profile, i in keys:
        if isinstance(profile, int):
            problems = row_problems[i]
            if not problems:
                continue
            profile = _profile_at(agents, actions, profile)
        else:
            problems = ["unknown source state" if s not in state_set
                        else "profile is not a complete profile"]
            profile = dict(sorted(profile.items()))
        out.extend(f"row ({s!r}, {profile!r}): {problem}" for problem in problems)
    missing = len(state_set) * len(actions) ** len(agents) - sum(map(len, row_ids.values()))
    if missing:
        names = sorted(agents)
        digit = {x: k for k, x in enumerate(actions)}
        absent = (
            (s, profile)
            for s in sorted(state_set)
            for combo in product(sorted(actions), repeat=len(names))
            for profile in (dict(zip(names, combo)),)
            if _position(profile, agents, digit) not in row_ids[s]
        )
        for s, profile in islice(absent, MISSING_ROWS_SHOWN):
            out.append(f"missing transition row for ({s!r}, {profile!r})")
        if missing > MISSING_ROWS_SHOWN:
            out.append(f"{missing - MISSING_ROWS_SHOWN} more transition rows missing")
    return out


def validate(game: Game) -> list:
    """Well-formedness violations as human-readable strings; [] = valid.
    The loader runs the same check on a document before it builds a game;
    here it covers a built game's layout and rows."""
    row_ids = game._row_ids
    keys = ((s, k, i) for s, ids in row_ids.items() for k, i in enumerate(ids))
    return _violations(game.agents, game.states, game.failures, game.actions,
                       game.valuation, game.rows, row_ids, keys)


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


@lru_cache(maxsize=PROFILE_LAYOUTS_KEPT)
def _profile_texts(agents: tuple, actions: tuple) -> tuple:
    """``(order, texts)`` for a layout: the product positions of its
    complete profiles sorted by assignment, the order a document lists
    them in, and each one's ``"profile"`` object as JSON text in that
    order, followed by the ``"to"`` key that comes next."""
    profiles = product_profiles(agents, actions)
    order = sorted(range(len(profiles)), key=lambda k: profiles[k].assignment)
    texts = tuple(
        "{" + ", ".join(f"{_quote(a)}: {_quote(x)}" for a, x in profiles[k].assignment)
        + '}, "to": '
        for k in order)
    return order, texts


def _strings(names) -> str:
    return "[" + ", ".join(map(_quote, names)) + "]"


def game_json(game: Game) -> str:
    """The JSON document of a game as the text ``json.dumps`` writes for
    it with its default settings: rows keyed by state and profile in
    sorted order, each with its nonzero entries in target order and every
    probability a string.  Each row of the table and each profile of the
    layout is rendered once, and each key's text is joined from its
    state's head, its profile's text and its row's text."""
    # a row's text also closes the transition object it ends
    rendered = [
        "{" + ", ".join(f'{_quote(t)}: "{v}"' for t, v in sorted(row.items()) if v)
        + "}}"
        for row in game.rows]
    order, profiles = _profile_texts(game.agents, game.actions)
    rows = []
    for s in sorted(game.states):
        ids = game.row_ids(s)
        head = f'{{"from": {_quote(s)}, "profile": '
        rows.extend(head + p + rendered[ids[k]] for k, p in zip(order, profiles))
    valuation = ", ".join(f"{_quote(v)}: {_strings(sorted(sts))}"
                          for v, sts in sorted(game.valuation.items()))
    return (
        f'{{"agents": {_strings(game.agents)}, "states": {_strings(game.states)}, '
        f'"failures": {_strings(sorted(game.failures))}, '
        f'"actions": {_strings(game.actions)}, '
        f'"transitions": [{", ".join(rows)}], "valuation": {{{valuation}}}}}'
    )


def game_to_dict(game: Game) -> dict:
    """The JSON document of a game as a dict: :func:`game_json` read back."""
    return json.loads(game_json(game))


def game_from_dict(doc: dict) -> Game:
    """Parse and check a game document in one pass.  A malformed document
    raises SchemaError at its JSON pointer; a well-formed one that breaks
    a rule of :func:`validate` raises GameValidationError with every
    violation, keys in document order."""
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
    # an action's digit in a product position; with repeated agents or
    # actions there are no positions, and every row is foreign
    numbered = len(set(agents)) == len(agents) and len(set(actions)) == len(actions)
    digit = {x: k for k, x in enumerate(actions)} if numbered else {}
    # each state's {product position: row index}, and every row's
    # (source, position or foreign profile, row index) in document order
    slots = {s: {} for s in states}
    keys = []
    foreign = set()
    rows = []
    # a row's items -> its index in rows, which every equal row shares, and
    # a str literal -> its value (1 is not 1.0 or true: no other type is
    # looked up, so such a value fails to parse at its own pointer)
    parsed = {}
    literals = {}
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
        index = parsed.get(items) if _KEYED_TYPES.issuperset(map(type, to.values())) else None
        if index is None:
            row = {}
            for t, v in items:
                if type(v) is str:
                    value = literals.get(v)
                    if value is None:
                        value = literals[v] = _parse_probability(v, f"{where}/to/{t}")
                else:
                    value = _parse_probability(v, f"{where}/to/{t}")
                row[t] = value
            rows.append(row)
            index = parsed[items] = len(rows) - 1
        ids = slots.get(src)
        position = None if ids is None else _position(profile, agents, digit)
        if position is not None:
            if position in ids:
                raise SchemaError(f"{where}: duplicate row for this state and profile")
            ids[position] = index
            keys.append((src, position, index))
        else:
            key = (src, ActionProfile.of(profile))
            if key in foreign:
                raise SchemaError(f"{where}: duplicate row for this state and profile")
            foreign.add(key)
            keys.append((src, profile, index))
    valuation = doc.get("valuation")
    if not isinstance(valuation, dict):
        raise SchemaError("/valuation: expected an object")
    for var, sts in valuation.items():
        if not isinstance(sts, list) or not all(isinstance(s, str) for s in sts):
            raise SchemaError(f"/valuation/{var}: expected a list of state names")
    valuation = {var: frozenset(sts) for var, sts in valuation.items()}
    violations = _violations(agents, states, frozenset(failures), actions,
                             valuation, rows, slots, keys)
    if violations:
        raise GameValidationError(violations)
    positions = range(len(actions) ** len(agents))
    row_ids = {s: map(ids.__getitem__, positions) for s, ids in slots.items()}
    return Game(agents, states, failures, actions, rows, row_ids, valuation)


def save(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
        fh.write("\n")


def load(path) -> Game:
    """Load and check a game file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=json_int)
        except (json.JSONDecodeError, IntegerTooLong) as exc:
            raise SchemaError(f"/: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"/: not valid JSON: not UTF-8 at byte {exc.start}") from exc
        except RecursionError:
            raise SchemaError("/: document nests too deeply") from None
    return game_from_dict(doc)


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
    return Game(
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
    return Game(
        agents=("a", "b"),
        states=("p",) + absorbing,
        failures=("f_c", "f_t"),
        actions=actions,
        rows=rows,
        row_ids=row_ids,
        valuation={"passed": ("ba",), "behind": ("ab",)},
    )
