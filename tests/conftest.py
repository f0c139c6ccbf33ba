"""Checks and builders shared by the test modules."""

import json
import os
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import settings

from sgcl.formula import Bot, Coal, Impl, Neg, ParseError, Var, _shown, exact, render
from sgcl.game import (
    ActionProfile,
    Game,
    GameError,
    game_from_dict,
    game_to_dict,
    validate,
)
from sgcl.proof import (
    MP,
    Assumption,
    AxCooperation,
    AxFalsehood,
    AxMonotonicity,
    Necessitation,
    ProofFormatError,
    RuleMonotonicity,
    Tautology,
    TheoremImport,
)

# under CI the property tests draw the same examples on every run and
# have no deadline, since shared runners time them unevenly
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def keyed_game(agents, states, failures, actions, rows, valuation):
    """The game whose rows are given by key, ``{(state, ActionProfile):
    row}``, built through the loader: the rows are written to a game
    document in key order, each row's entries in their order and every
    value, zeros included, as its string, and the document is loaded and
    checked."""
    doc = {
        "agents": list(agents),
        "states": list(states),
        "failures": list(failures),
        "actions": list(actions),
        "transitions": [
            {"from": s, "profile": profile.as_dict(),
             "to": {t: str(v) for t, v in row.items()}}
            for (s, profile), row in rows.items()
        ],
        "valuation": {v: list(sts) for v, sts in valuation.items()},
    }
    return game_from_dict(doc)


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


def assert_builder_output(g):
    """A builder's game is built from its row table, which the constructor
    checks only for shape, so the tests check the rest: it validates and
    survives the JSON round trip."""
    assert validate(g) == []
    assert game_from_dict(game_to_dict(g)) == g


def product_profiles(agents, actions):
    """Every assignment of ``actions`` to ``agents``, in product order:
    the profile at index i gives ``agents[j]`` the action numbered by
    digit j of i written in base ``len(actions)``, ``agents[0]`` most
    significant.  This order indexes ``Game.row_ids`` and every table of
    the model checker; the reference the checker's choice tables and
    decoded profiles are checked against."""
    return tuple(ActionProfile(tuple(zip(agents, combo)))
                 for combo in product(actions, repeat=len(agents)))


@lru_cache(maxsize=None)
def _profile_positions(agents, actions):
    """Each complete profile's index in ``product_profiles``."""
    return {p: i for i, p in enumerate(product_profiles(agents, actions))}


def profile_row_index(game, state, profile):
    """The index into ``game.rows`` of the row of ``state`` under the
    complete ``profile``; GameError when the game has no such row."""
    ids = game.row_ids(state)
    position = _profile_positions(game.agents, game.actions).get(profile)
    if position is None:
        raise GameError(
            f"no transition row for state {state!r}, profile {profile.as_dict()!r}")
    return ids[position]


def outcomes(ctx, state):
    """The entries a context reads for ``state``'s completions: its
    ``entries`` at each of the state's row ids, in product order."""
    return [ctx.entries[i] for i in ctx.game.row_ids(state)]


def profile_row(game, state, profile):
    """The row of ``state`` under the complete ``profile``."""
    return game.rows[profile_row_index(game, state, profile)]


def reference_game_to_dict(game):
    """The listed form of a game's document, built as a dict: rows keyed
    by state and profile in sorted order, each row's nonzero entries by
    target and every probability its string.  The loader still reads this
    form, which the example games and the benchmark pools are written in;
    the tests build it to alter a document key by key."""
    rendered = [{t: str(v) for t, v in sorted(row.items()) if v != 0}
                for row in game.rows]
    profiles = product_profiles(game.agents, game.actions)
    order = sorted(range(len(profiles)), key=lambda k: profiles[k].assignment)
    rows = []
    for s in sorted(game.states):
        ids = game.row_ids(s)
        rows.extend(
            {"from": s, "profile": profiles[k].as_dict(), "to": dict(rendered[ids[k]])}
            for k in order)
    return {
        "agents": list(game.agents),
        "states": list(game.states),
        "failures": sorted(game.failures),
        "actions": list(game.actions),
        "transitions": rows,
        "valuation": {v: sorted(sts) for v, sts in sorted(game.valuation.items())},
    }


def reference_row_table(game):
    """The row form of a game's document, built as a dict: each distinct
    row (nonzero entries by target, every probability its string) once,
    numbered by first use walking the states in order and each state's
    profiles in product order, and each state's row numbers in product
    order.  The reference ``game_json`` is checked against."""
    numbers = {}
    row_ids = {}
    for s in game.states:
        row_ids[s] = [
            numbers.setdefault(
                tuple((t, str(v)) for t, v in sorted(game.rows[i].items()) if v != 0),
                len(numbers))
            for i in game.row_ids(s)]
    return {
        "format": "rows",
        "agents": list(game.agents),
        "states": list(game.states),
        "failures": sorted(game.failures),
        "actions": list(game.actions),
        "rows": [dict(entries) for entries in numbers],
        "row_ids": row_ids,
        "valuation": {v: sorted(sts) for v, sts in sorted(game.valuation.items())},
    }


@pytest.fixture
def builder_output():
    """:func:`assert_builder_output`, for the modules that build games."""
    return assert_builder_output


def acceptance_corpus():
    """The 793 formulas of the acceptance corpus: one variable v,
    coalitions [] and [a], subscripts 0, 1/2, 1, at most three
    connectives, layer by layer."""
    subscripts = (Fraction(0), Fraction(1, 2), Fraction(1))
    layers = [[Var("v")]]
    for k in range(1, 4):
        layer = []
        for f in layers[k - 1]:
            layer.append(Neg(f))
            for c in (frozenset(), frozenset({"a"})):
                for p in subscripts:
                    layer.append(Coal(c, p, f))
        for i in range(k):
            for a in layers[i]:
                for b in layers[k - 1 - i]:
                    layer.append(Impl(a, b))
        layers.append(layer)
    return [f for layer in layers for f in layer]


def _game_queries_pool() -> dict:
    """The benchmark's game-queries pool file, only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "game_queries_pool.json"
    return json.loads(path.read_text(encoding="utf-8"))


def pool_queries():
    """The queries of the benchmark's game-queries pool, as recorded: each
    with its ``argv`` and ``kind``."""
    return _game_queries_pool()["queries"]


def pool_games() -> dict:
    """The game documents of the benchmark's game-queries pool, by name."""
    return _game_queries_pool()["games"]


def pool_decides():
    """The ``decide`` queries of the game-queries pool: each with its
    ``formula``, ``argv`` (budget and seed included), ``kind`` and
    ``verdict``."""
    return [q for q in pool_queries() if q["kind"].startswith("decide-")]


def maximal_set(sigma, members):
    """The mask of ``members`` over the closure ``sigma``, the one form a
    maximal set takes: bit k is set when ``sigma.formulas[k]`` is a
    member."""
    members = frozenset(members)
    return sum(1 << k for k, f in enumerate(sigma.formulas) if f in members)


def members(sigma, mask):
    """The formulas of the closure ``sigma`` whose bits ``mask`` holds:
    :func:`maximal_set` decoded."""
    return frozenset(f for k, f in enumerate(sigma.formulas) if mask >> k & 1)


def set_key(sigma, mask):
    """The sorted member renderings of a maximal set over ``sigma``, the
    order in which the builder names its states."""
    return tuple(sorted(render(f) for f in members(sigma, mask)))


# ---------------------------------------------------------------------------
# the paper's grant rule, the reference the canonical builder is checked
# against: a maximal set is given by its members, and a profile maps each
# agent to its request, a (formula, threshold) pair, compared as values


def reference_action_id(request):
    """The name of a request in a game: ``(formula,threshold)``."""
    body, p = request
    return f"({render(body)},{p})"


def reference_granted(s, profile):
    """The modalities [C]_p x of the maximal set s, a set of members,
    that the profile grants: every member of C requested (x, p), so a
    modality with an empty coalition is granted by every profile."""
    return frozenset(
        m for m in s
        if isinstance(m, Coal)
        and all(profile[a] == (m.body, m.p) for a in m.coalition)
    )


def reference_mu(s, profile):
    """The strongest threshold granted at s, 0 when none is."""
    return max((m.p for m in reference_granted(s, profile)), default=Fraction(0))


def reference_targets(s, profile, sets):
    """The names of the states of ``sets``, a map from name to the
    members of a maximal set, that contain every body granted at s, in
    the order of ``sets``."""
    bodies = {m.body for m in reference_granted(s, profile)}
    return [name for name, t in sets.items() if bodies <= t]


def reference_row(s, profile, sets):
    """``(row, guarded)`` at s: mu shared evenly among the targets, in
    their order, then the rest of the mass on the failure state ``f``.
    A positive mu with no target cannot be honored; all mass then goes to
    ``f`` and the pair is guarded."""
    mu = reference_mu(s, profile)
    names = reference_targets(s, profile, sets)
    if mu > 0 and not names:
        return {"f": Fraction(1)}, True
    row = {name: mu / len(names) for name in names} if mu > 0 else {}
    if mu < 1:
        row["f"] = 1 - mu
    return row, False


# ---------------------------------------------------------------------------
# the recursive-descent parser that the explicit-stack ``parse`` replaced,
# the reference it is checked against: a tokenizer that stops at the first
# character no token starts with, then one method per grammar rule

_REFERENCE_TOKEN = re.compile(
    r"(->)|([A-Za-z][A-Za-z0-9_]*)|([0-9]+\.[0-9]+)|([0-9]+)|([~\[\](),/_])"
)
_ARROW, _IDENT, _DECIMAL, _INT, _PUNCT = range(1, 6)
_REFERENCE_BLANKS = frozenset(" \t\n\r\f\v")


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos] in _REFERENCE_BLANKS:
            pos += 1
            continue
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastindex
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    return tokens


class _ReferenceParser:
    def __init__(self, tokens, text_len):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len

    def _pos(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][2]
        return self.text_len

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len)
        self.i += 1
        return tok

    def expect_punct(self, ch):
        tok = self.peek()
        if tok is None or tok[0] != _PUNCT or tok[1] != ch:
            raise ParseError(f"expected {ch!r}", self._pos())
        self.i += 1

    def at_punct(self, ch):
        tok = self.peek()
        return tok is not None and tok[0] == _PUNCT and tok[1] == ch

    def impl(self):
        left = self.unary()
        tok = self.peek()
        if tok is not None and tok[0] == _ARROW:
            self.i += 1
            return Impl(left, self.impl())
        return left

    def unary(self):
        prefixes = []
        while True:
            if self.at_punct("~"):
                self.i += 1
                prefixes.append(None)
            elif self.at_punct("["):
                prefixes.append(self.modal())
            else:
                break
        f = self.atom()
        for prefix in reversed(prefixes):
            f = Neg(f) if prefix is None else Coal(prefix[0], prefix[1], f)
        return f

    def modal(self):
        self.expect_punct("[")
        agents = []
        if not self.at_punct("]"):
            agents.append(self.agent())
            while self.at_punct(","):
                self.i += 1
                agents.append(self.agent())
        self.expect_punct("]")
        self.expect_punct("_")
        return frozenset(agents), self.rational()

    def agent(self):
        tok = self.peek()
        if tok is None or tok[0] != _IDENT:
            raise ParseError("expected an agent name", self._pos())
        if tok[1] in ("false", "true"):
            raise ParseError(f"reserved word {tok[1]!r} cannot name an agent", tok[2])
        self.i += 1
        return tok[1]

    def rational(self):
        kind, text, pos = self.take()
        if kind not in (_DECIMAL, _INT):
            raise ParseError("expected a rational subscript", pos)
        if kind == _INT and self.at_punct("/"):
            self.i += 1
            den = self.take()
            if den[0] != _INT:
                raise ParseError("expected a denominator", den[2])
            if not den[1].strip("0"):
                raise ParseError("zero denominator is not a rational", den[2])
            text += "/" + den[1]
        try:
            value = exact(text)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        if not 0 <= value <= 1:
            raise ParseError(f"subscript {_shown(value)} outside [0, 1]", pos)
        return value

    def atom(self):
        kind, text, pos = self.take()
        if kind == _IDENT:
            if text == "false":
                return Bot()
            if text == "true":
                return Neg(Bot())
            return Var(text)
        if kind == _PUNCT and text == "(":
            inner = self.impl()
            self.expect_punct(")")
            return inner
        raise ParseError(f"unexpected token {text!r}", pos)


def reference_parse(text):
    """The formula that ``text`` reads as, or the ParseError it raises,
    by recursive descent: nested parentheses and ``->`` chains recurse."""
    parser = _ReferenceParser(_reference_tokenize(text), len(text))
    result = parser.impl()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing token {tok[1]!r}", tok[2])
    return result


# ---------------------------------------------------------------------------
# the recursive printer that the explicit-stack ``render`` replaced


def reference_render(f):
    """The rendering of a formula by plain recursion on every node, the
    reference the explicit-stack ``render`` is checked against."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Neg):
        return "true" if isinstance(f.body, Bot) else "~" + reference_render(f.body)
    if isinstance(f, Impl):
        return f"({reference_render(f.left)} -> {reference_render(f.right)})"
    return f"[{','.join(sorted(f.coalition))}]_{f.p} {reference_render(f.body)}"


# ---------------------------------------------------------------------------
# the rule tags of a proof document, written as one isinstance chain and
# read as one chain of exact tags and prefixes: the references for the
# one tag table of sgcl.proof


def reference_rule_to_str(rule):
    if isinstance(rule, Tautology):
        return "taut"
    if isinstance(rule, AxCooperation):
        return "coop"
    if isinstance(rule, AxMonotonicity):
        return "mono-ax"
    if isinstance(rule, AxFalsehood):
        return "false-ax"
    if isinstance(rule, Assumption):
        return "assume"
    if isinstance(rule, TheoremImport):
        return f"import:{rule.name}"
    if isinstance(rule, MP):
        return f"mp:{rule.antecedent},{rule.implication}"
    if isinstance(rule, Necessitation):
        return f"nec:{rule.premise}"
    if isinstance(rule, RuleMonotonicity):
        return f"mono-rule:{rule.premise}"
    raise TypeError(f"unknown rule {rule!r}")


_REFERENCE_LINE_REF = re.compile(r"[0-9]+")
_REFERENCE_LINE_RULES = (("mp:", MP, 2), ("nec:", Necessitation, 1),
                         ("mono-rule:", RuleMonotonicity, 1))


def reference_rule_from_str(text):
    if text == "taut":
        return Tautology()
    if text == "coop":
        return AxCooperation()
    if text == "mono-ax":
        return AxMonotonicity()
    if text == "false-ax":
        return AxFalsehood()
    if text == "assume":
        return Assumption()
    if text.startswith("import:"):
        return TheoremImport(text[len("import:"):])
    for prefix, rule, count in _REFERENCE_LINE_RULES:
        if text.startswith(prefix):
            refs = text[len(prefix):].split(",")
            try:
                if len(refs) == count and all(map(_REFERENCE_LINE_REF.fullmatch, refs)):
                    return rule(*map(int, refs))
            except ValueError:  # more digits than int() reads
                pass
            raise ProofFormatError(f"malformed rule {text!r}")
    raise ProofFormatError(f"unknown rule {text!r}")
