"""Checks and builders shared by the test modules."""

import json
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from sgcl.canonical import MaximalSet
from sgcl.formula import Coal, Impl, Neg, Var, render
from sgcl.game import game_from_dict, game_to_dict, validate

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


def assert_builder_output(g):
    """A builder's game is built from its row table, which the constructor
    checks only for shape, so the tests check the rest: it validates and
    survives the JSON round trip."""
    assert validate(g) == []
    assert game_from_dict(game_to_dict(g)) == g


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


def pool_decides():
    """The ``decide`` queries of the benchmark's game-queries pool, as
    recorded: each with its ``formula``, ``argv`` (budget and seed
    included), ``kind`` and ``verdict``.  The file is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "game_queries_pool.json"
    queries = json.loads(path.read_text(encoding="utf-8"))["queries"]
    return [q for q in queries if q["kind"].startswith("decide-")]


def maximal_set(sigma, members):
    """The :class:`MaximalSet` of ``members`` over the closure ``sigma``,
    its mask read member by member: bit k is set when
    ``sigma.formulas[k]`` is a member."""
    members = frozenset(members)
    return MaximalSet(members, sum(
        1 << k for k, f in enumerate(sigma.formulas) if f in members))


def set_key(s):
    """A maximal set's sorted member renderings, the order in which the
    builder names its states."""
    return tuple(sorted(render(f) for f in s.members))


# ---------------------------------------------------------------------------
# the paper's grant rule, the reference the canonical builder is checked
# against: a profile maps each agent to its request, a (formula,
# threshold) pair, compared as values


def reference_action_id(request):
    """The name of a request in a game: ``(formula,threshold)``."""
    body, p = request
    return f"({render(body)},{p})"


def reference_granted(s, profile):
    """The modalities [C]_p x of the maximal set s that the profile
    grants: every member of C requested (x, p), so a modality with an
    empty coalition is granted by every profile."""
    return frozenset(
        m for m in s.members
        if isinstance(m, Coal)
        and all(profile[a] == (m.body, m.p) for a in m.coalition)
    )


def reference_mu(s, profile):
    """The strongest threshold granted at s, 0 when none is."""
    return max((m.p for m in reference_granted(s, profile)), default=Fraction(0))


def reference_targets(s, profile, sets):
    """The names of the states of ``sets``, a map from name to maximal
    set, that contain every body granted at s, in the order of ``sets``."""
    bodies = {m.body for m in reference_granted(s, profile)}
    return [name for name, t in sets.items() if bodies <= t.members]


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
