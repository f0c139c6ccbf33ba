"""Stochastic game container: validation, survival, profiles, JSON format."""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcl.canonical import build_canonical_game
from sgcl.formula import closure, parse
from sgcl.game import (
    ActionProfile,
    Game,
    GameValidationError,
    SchemaError,
    GameError,
    MISSING_ROWS_SHOWN,
    _profile_at,
    game_from_dict,
    game_to_dict,
    load,
    save,
    survival_ladder,
    validate,
)
from sgcl.modelcheck import CheckContext

from conftest import (
    drawn_game,
    keyed_game,
    outcomes,
    overtake_game,
    product_profiles,
    profile_row,
    profile_row_index,
    reference_game_to_dict,
)

F = Fraction
GAMES = Path(__file__).resolve().parents[1] / "games"


@pytest.fixture
def ladder():
    return survival_ladder(1)


class TestActionProfile:
    def test_sorted_and_hashable(self):
        p = ActionProfile.of({"b": "y", "a": "x"})
        q = ActionProfile((("a", "x"), ("b", "y")))
        assert p == q and hash(p) == hash(q)
        assert p.as_dict() == {"a": "x", "b": "y"}


def survivals(table):
    """A state's outcome entries as (survival, successors) pairs."""
    return [(F(n, d), successors) for n, d, successors in table]


def load_violations(doc):
    """The violations the loader reports for a game document; [] when it
    loads."""
    try:
        game_from_dict(doc)
    except GameValidationError as err:
        return err.violations
    return []


def ladder_doc(n=1):
    return reference_game_to_dict(survival_ladder(n))


def set_row(doc, state, to):
    """Give every row of ``state`` in the document the targets ``to``."""
    for entry in doc["transitions"]:
        if entry["from"] == state:
            entry["to"] = to
    return doc


class TestValidate:
    # the example games are built from their row tables, so each one is
    # also checked for the JSON round trip
    @pytest.mark.parametrize("n", range(13))
    def test_ladder_is_valid(self, n, builder_output):
        builder_output(survival_ladder(n))

    def test_overtake_is_valid(self, builder_output):
        builder_output(overtake_game())

    def test_bad_row_sum_reported(self):
        msgs = load_violations(set_row(ladder_doc(), "t", {"t": "1/2"}))
        assert any("sum to 1/2" in m for m in msgs)

    def test_long_values_shown_short(self):
        doc = set_row(ladder_doc(), "t", {"t": str(F(10**2000))})
        set_row(doc, "f", {"f": str(F(1, 3 * 10**2000))})
        msgs = load_violations(doc)
        assert len(msgs) == 3 and all(len(m) < 200 for m in msgs)
        assert any("probability 1000" in m and "outside [0, 1]" in m for m in msgs)
        assert any("sum to 1/3000" in m for m in msgs)

    def test_missing_row_reported(self):
        doc = ladder_doc()
        doc["transitions"] = [e for e in doc["transitions"] if e["from"] != "t"]
        assert any("missing transition row" in m for m in load_violations(doc))

    def test_unknown_failure_state(self):
        g = Game(("a",), ("s",), ("zz",), ("x",), [{"s": 1}], {"s": (0,)}, {})
        assert any("failure state 'zz'" in m for m in validate(g))

    def test_probability_outside_unit_interval(self):
        g = Game(("a",), ("s", "t"), (), ("x",),
                 [{"s": F(3, 2), "t": F(-1, 2)}, {"t": 1}], {"s": (0,), "t": (1,)}, {})
        msgs = validate(g)
        assert any("3/2 outside" in m for m in msgs)
        assert any("-1/2 outside" in m for m in msgs)

    def test_empty_action_domain(self):
        g = Game(("a",), ("s",), (), (), [], {"s": ()}, {})
        assert validate(g) == ["action domain is empty"]

    def test_valuation_of_unknown_state(self):
        doc = ladder_doc(0)
        doc["valuation"] = {"v": ["nope"]}
        assert any("unknown state 'nope'" in m for m in load_violations(doc))


def reference_validate(doc):
    """Validation of a game document that first builds the set of every
    expected (state, complete profile) key and reports every missing one;
    like the loader, it stops after the layout when the agents or actions
    repeat or there are no actions."""
    agents, states, actions = doc["agents"], doc["states"], doc["actions"]
    out = []
    if not actions:
        out.append("action domain is empty")
    for name, seq in (("agents", agents), ("states", states), ("actions", actions)):
        if len(set(seq)) != len(seq):
            out.append(f"duplicate entries in {name}")
    for s in sorted(set(doc["failures"])):
        if s not in states:
            out.append(f"failure state {s!r} not among the states")
    for var, sts in sorted(doc["valuation"].items()):
        for s in sorted(set(sts)):
            if s not in states:
                out.append(f"valuation of {var!r} names unknown state {s!r}")
    if not actions or len(set(agents)) != len(agents) or len(set(actions)) != len(actions):
        return out
    state_set = set(states)
    expected = {(s, ActionProfile(tuple(zip(agents, combo))))
                for s in states for combo in product(actions, repeat=len(agents))}
    seen = set()
    for entry in doc["transitions"]:
        s, profile = entry["from"], ActionProfile.of(entry["profile"])
        seen.add((s, profile))
        where = f"({s!r}, {profile.as_dict()!r})"
        if (s, profile) not in expected:
            if s not in state_set:
                out.append(f"row {where}: unknown source state")
            else:
                out.append(f"row {where}: profile is not a complete profile")
            continue
        total = Fraction(0)
        for t, v in entry["to"].items():
            v = Fraction(v)
            if t not in state_set:
                out.append(f"row {where}: unknown target state {t!r}")
            if not 0 <= v <= 1:
                out.append(f"row {where}: probability {v} outside [0, 1]")
            total += v
        if total != 1:
            out.append(f"row {where}: probabilities sum to {total}, expected 1")
    for (s, profile) in sorted(expected - seen,
                               key=lambda k: (k[0], k[1].assignment)):
        out.append(f"missing transition row for ({s!r}, {profile.as_dict()!r})")
    return out


def shortened(reference):
    """The reference list with its missing-row messages cut to the
    first few and the rest counted."""
    missing = [m for m in reference if m.startswith("missing transition row")]
    shown = missing[:MISSING_ROWS_SHOWN]
    rest = len(missing) - len(shown)
    return (
        [m for m in reference if m not in missing]
        + shown
        + ([f"{rest} more transition rows missing"] if rest else [])
    )


def _row(state, to, **profile):
    return {"from": state, "profile": profile, "to": to}


def _document(agents, states, actions, transitions, failures=(), valuation=None):
    return {"agents": list(agents), "states": list(states), "failures": list(failures),
            "actions": list(actions), "transitions": list(transitions),
            "valuation": valuation or {}}


def _odd_games():
    """Game documents with missing rows, partial or foreign profiles,
    unknown states, duplicate names and an empty action domain."""
    games = {}
    overtake = reference_game_to_dict(overtake_game())
    rows = overtake["transitions"]

    def with_rows(transitions):
        return dict(overtake, transitions=transitions)

    games["overtake-half"] = with_rows(rows[1::2])
    games["overtake-one-missing"] = with_rows(rows[:7] + rows[8:])
    foreign = rows[1:-1] + [
        _row("zz", {"p": "1"}, a="plus", b="plus"),
        _row("p", {"p": "1"}, a="plus"),
        _row("p", {"p": "1"}, a="plus", b="jump"),
        _row("p", {"p": "1"}, a="plus", b="zero", c="zero"),
    ]
    games["overtake-foreign-rows"] = with_rows(foreign)
    # repeated agents or actions, or no actions: the layout alone
    games["duplicate-agents"] = _document(
        ("a", "b", "a"), ("s",), ("x", "y", "z"),
        [_row("s", {"s": "1"}, a="y", b="z"), _row("s", {"s": "1"}, a="x", b="x")])
    games["duplicate-actions-and-states"] = _document(
        ("b", "a"), ("s", "t", "s"), ("x", "y", "x"),
        [_row("t", {"s": "1"}, a="x", b="y")])
    games["no-agents"] = _document((), ("s", "t"), ("x",), [_row("s", {"s": "1"})])
    games["no-actions"] = _document(("a",), ("s",), (), [_row("s", {"s": "1"})])
    # one bad row (an unknown target, a negative entry, a sum of 3/4)
    # under every fourth key and under a key with an unknown source state,
    # and one clean row under the rest
    bad = {"p": "1/2", "zz": "1/2", "ab": "-1/4"}
    clean = {"ab": "1"}
    shared = [dict(entry, to=bad if i % 4 == 1 else clean) for i, entry in enumerate(rows)]
    shared.append(_row("zz", bad, a="plus", b="plus"))
    games["overtake-shared-bad-row"] = with_rows(shared)
    return games


class TestValidateMatchesReference:
    """Rows checked in place and counted, against the set of every
    expected key: the same messages from the loader, with the missing
    rows after the first few counted instead of named."""

    @pytest.mark.parametrize("name, game", sorted(_odd_games().items()))
    def test_odd_games(self, name, game):
        reference = reference_validate(game)
        assert reference
        with pytest.raises(GameValidationError) as err:
            game_from_dict(game)
        assert err.value.violations == shortened(reference)
        assert err.value.violations[:5] == reference[:5]

    def test_shared_bad_row_reported_under_every_key(self):
        doc = _odd_games()["overtake-shared-bad-row"]
        keys = [(e["from"], e["profile"]) for e in doc["transitions"] if "zz" in e["to"]]
        assert len(keys) == (len(doc["transitions"]) - 1) // 4 + 1
        violations = load_violations(doc)
        for s, profile in keys:
            where = f"row ({s!r}, {profile!r})"
            if s == "zz":
                assert f"{where}: unknown source state" in violations
            else:
                assert f"{where}: probabilities sum to 3/4, expected 1" in violations
                assert f"{where}: unknown target state 'zz'" in violations

    @pytest.mark.parametrize("n", range(4))
    def test_valid_games(self, n):
        assert validate(survival_ladder(n)) == reference_validate(ladder_doc(n)) == []

    def test_ten_agents_with_one_row(self):
        agents = tuple(f"a{i}" for i in range(10))
        doc = _document(agents, ("s",), ("x", "y", "z"),
                        [_row("s", {"s": "1"}, **{a: "y" for a in agents})])
        first = ["x"] * 10
        expected = []
        for last in ("x", "y", "z"):
            expected.append(dict(zip(agents, first[:9] + [last])))
        for last in ("x", "y"):
            expected.append(dict(zip(agents, first[:8] + ["y", last])))
        violations = load_violations(doc)
        assert violations == [
            f"missing transition row for ('s', {d!r})" for d in expected
        ] + [f"{3 ** 10 - 1 - 5} more transition rows missing"]
        assert str(GameValidationError(violations)).endswith("; ...")

    def test_forty_agents_with_one_row(self):
        # 2 ** 40 complete profiles: the loader may spend memory on the
        # rows the document has and on the few it names, never one slot
        # per complete profile
        agents = tuple(f"a{i}" for i in range(40))
        doc = _document(agents, ("s",), ("x", "y"),
                        [_row("s", {"s": "1"}, **{a: "y" for a in agents})])
        names = sorted(agents)
        expected = [dict(zip(names, combo))
                    for combo in islice(product("xy", repeat=40), MISSING_ROWS_SHOWN)]
        tracemalloc.start()
        try:
            violations = load_violations(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert violations == [
            f"missing transition row for ('s', {d!r})" for d in expected
        ] + [f"{2 ** 40 - 1 - 5} more transition rows missing"]
        assert peak < 1 << 20


# literals the differential documents draw from: each is exact, and
# they make rows out of range, short or long of 1, and equal rows
# written differently
LITERALS = ["0", "1", 1, 0, "1/2", "0.5", "1/3", "2/3", "-1/4", "3/2", "1/4", " 3/4 "]


@st.composite
def game_documents(draw):
    """Small game documents: repeated agents, actions and states, empty
    action lists, missing, duplicate, partial and foreign profiles,
    unknown sources, targets, failures and valuation states, and rows
    out of range or with bad sums.  Each kind of fault is drawn on its
    own, so clean documents are frequent too."""
    def names(prefix, min_size):
        repeat = draw(st.integers(0, 5)) == 0
        drawn = draw(st.lists(st.sampled_from("abc"), min_size=min_size, max_size=3,
                              unique=not repeat))
        return [prefix + a for a in drawn]

    agents = names("ag_", 0)
    actions = names("x", draw(st.sampled_from([0, 1, 1, 1, 1])))
    states = draw(st.lists(st.sampled_from("stu"), min_size=1, max_size=3,
                           unique=draw(st.integers(0, 5)) > 0))
    known = sorted(set(states))
    outside = draw(st.integers(0, 3)) == 0
    failures = draw(st.lists(st.sampled_from(known + ["zz"] * outside), max_size=2,
                             unique=True))
    valuation = draw(st.dictionaries(
        st.sampled_from(["v", "w"]),
        st.lists(st.sampled_from(known + ["zz"] * outside), max_size=2, unique=True),
        max_size=2))
    distinct = list(dict.fromkeys(agents))
    profiles = [dict(zip(distinct, combo))
                for combo in product(sorted(set(actions)), repeat=len(distinct))]
    keys = [(s, p) for s in known for p in profiles]
    if draw(st.booleans()):
        keys = [k for k in keys if draw(st.integers(0, 5))]
    if draw(st.booleans()):
        # an unknown source, a partial profile, an unknown action, an
        # extra agent
        for s, p in draw(st.lists(st.sampled_from(keys or [("s", {})]), max_size=2)):
            kind = draw(st.sampled_from(["source", "partial", "action", "agent"]))
            if kind == "source":
                keys.append(("zz", p))
            elif kind == "partial" and p:
                keys.append((s, dict(list(p.items())[1:])))
            elif kind == "action" and p:
                keys.append((s, dict(p, **{next(iter(p)): "jump"})))
            else:
                keys.append((s, dict(p, extra="x")))
    if keys and draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(keys)))
    bad_rows = draw(st.booleans())
    transitions = []
    for s, p in draw(st.permutations(keys)):
        if bad_rows and draw(st.integers(0, 3)) == 0:
            to = draw(st.dictionaries(st.sampled_from(known + ["zz"]),
                                      st.sampled_from(LITERALS), min_size=1, max_size=3))
        elif len(known) > 1 and draw(st.booleans()):
            half = draw(st.sampled_from(["1/2", "0.5", " 1/2"]))
            to = dict.fromkeys(draw(st.permutations(known))[:2], half)
        else:
            to = {draw(st.sampled_from(known)): draw(st.sampled_from(["1", 1, "2/2"]))}
        transitions.append({"from": s, "profile": p, "to": to})
    return {"agents": agents, "states": states, "failures": failures,
            "actions": actions, "transitions": transitions, "valuation": valuation}


def first_duplicate(doc):
    """The index of the first row whose state and profile an earlier row
    has, or None."""
    seen = set()
    for i, entry in enumerate(doc["transitions"]):
        key = (entry["from"], frozenset(entry["profile"].items()))
        if key in seen:
            return i
        seen.add(key)
    return None


@settings(max_examples=200)
@given(game_documents())
def test_loader_matches_reference(doc):
    """The one-pass loader against the reference check on generated
    documents, and a clean document's game through the JSON round trip."""
    duplicate = first_duplicate(doc)
    if duplicate is not None:
        with pytest.raises(SchemaError, match=rf"^/transitions/{duplicate}: duplicate row"):
            game_from_dict(doc)
        return
    violations = load_violations(doc)
    assert violations == shortened(reference_validate(doc))
    if not violations:
        g = game_from_dict(doc)
        assert validate(g) == []
        assert game_from_dict(game_to_dict(g)) == g


class TestLayoutStop:
    """Repeated agents or actions, or an empty action domain, leave no
    complete profiles to check rows against: the loader reports the
    layout and stops."""

    @pytest.mark.parametrize("doc, expected", [
        (_document(("a", "a"), ("s",), ("x",), [_row("s", {"s": "1"}, a="x")]),
         ["duplicate entries in agents"]),
        (_document(("a",), ("s",), (), [_row("s", {"s": "1"}, a="x")]),
         ["action domain is empty"]),
    ], ids=["repeated-agent", "no-actions"])
    def test_only_the_layout_is_reported(self, doc, expected):
        assert load_violations(doc) == reference_validate(doc) == expected

    def test_repeated_states_do_not_stop_the_check(self):
        doc = _document(("a",), ("s", "t", "s"), ("x",),
                        [_row("t", {"s": "1/2"}, a="x")], failures=("zz",))
        assert load_violations(doc) == reference_validate(doc) == [
            "duplicate entries in states",
            "failure state 'zz' not among the states",
            "row ('t', {'a': 'x'}): probabilities sum to 1/2, expected 1",
            "missing transition row for ('s', {'a': 'x'})",
        ]


class TestRowIds:
    """``row_ids(state)``: a state's row indices in product order, the one
    table a game keeps.  The builders' games are checked with their
    builders' tests."""

    @pytest.mark.parametrize("name", ["overtake", "ladder1"])
    def test_loaded_games(self, name):
        path = GAMES / f"{name}.json"
        g = load(path)
        doc = json.loads(path.read_text())
        to = {(e["from"], ActionProfile.of(e["profile"])): e["to"] for e in doc["transitions"]}
        profiles = product_profiles(g.agents, g.actions)
        for s in g.states:
            want = [{t: F(v) for t, v in to[(s, p)].items()} for p in profiles]
            assert [g.rows[i] for i in g.row_ids(s)] == want, s

    def test_reversed_agents(self):
        g = overtake_game()
        rows = {key: g.rows[i] for key, i in g.transitions.items()}
        reordered = keyed_game(("b", "a"), g.states, g.failures, g.actions, rows, g.valuation)
        # b's action is now the most significant digit
        assert [reordered.rows[i] for i in reordered.row_ids("p")] == [
            g.rows[i] for i in (0, 3, 6, 1, 4, 7, 2, 5, 8)]
        assert g.row_ids("p") == tuple(range(9))

    def test_missing_row_is_reported_by_the_loader(self, tmp_path):
        doc = ladder_doc()
        doc["transitions"] = [e for e in doc["transitions"] if e["from"] != "t"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GameValidationError) as err:
            load(path)
        assert err.value.violations == ["missing transition row for ('t', {'a': 'act'})"]
        assert str(err.value) == "invalid game: missing transition row for ('t', {'a': 'act'})"

    def test_transitions_follow_the_row_ids(self):
        g = overtake_game()
        keys = [(s, p) for s in g.states for p in product_profiles(g.agents, g.actions)]
        assert list(g.transitions) == keys
        assert all(g.transitions[k] == profile_row_index(g, *k) for k in keys)


class TestConstructorShape:
    """The constructor takes every state's row ids and rejects a table
    that is not one row index per complete profile."""

    def make(self, row_ids, rows=({"s": 1},)):
        return Game(("a",), ("s", "t"), (), ("x", "y"), rows, row_ids, {})

    def test_dense_table_accepted(self):
        g = self.make({"s": (0, 0), "t": [0, 0]})
        assert g.row_ids("t") == (0, 0)

    @pytest.mark.parametrize("row_ids, problem", [
        ({"s": (0, 0)}, "no row ids for state 't'"),
        ({"s": (0, 0), "t": (0,)}, "state 't' has 1 row ids, expected 2"),
        ({"s": (0, 0, 0), "t": (0, 0)}, "state 's' has 3 row ids, expected 2"),
        ({"s": (0, 1), "t": (0, 0)}, "state 's' names a row id outside the 1 rows"),
        ({"s": (0, 0), "t": (-1, 0)}, "state 't' names a row id outside the 1 rows"),
    ], ids=["no-ids", "too-few", "too-many", "past-the-end", "negative"])
    def test_bad_shape_rejected(self, row_ids, problem):
        with pytest.raises(GameError, match=problem):
            self.make(row_ids)

    def test_profile_outside_the_game(self):
        g = self.make({"s": (0, 0), "t": (0, 0)})
        with pytest.raises(GameError, match="no transition row for state 's'"):
            profile_row(g, "s", ActionProfile.of({"a": "z"}))
        with pytest.raises(GameError, match="no transition row for state 'zz'"):
            profile_row(g, "zz", ActionProfile.of({"a": "x"}))


class Half(Fraction):
    """A Fraction subclass, which the exact gate refuses."""


class TestConstructorValues:
    """The constructor keeps a row whose values are all Fractions as
    given, and takes every other row through the exact gate."""

    @staticmethod
    def row_of(row):
        return Game(("a",), ("s",), (), ("x",), [row], {"s": (0,)}, {}).rows[0]

    def test_fraction_row_kept(self):
        row = {"s": F(1)}
        assert self.row_of(row) is row

    @pytest.mark.parametrize("value", [1, "1", " 2/2 ", F(1)], ids=repr)
    def test_int_and_str_converted(self, value):
        row = {"s": value, "t": 0}
        kept = self.row_of(row)
        assert kept == {"s": F(1), "t": F(0)} and kept is not row
        assert all(type(v) is Fraction for v in kept.values())

    @pytest.mark.parametrize("value", [True, 0.5, Half(1)], ids=repr)
    def test_inexact_values_rejected(self, value):
        with pytest.raises(GameError, match="probability"):
            self.row_of({"s": value})
        with pytest.raises(GameError, match="probability"):
            self.row_of({"s": F(0), "t": value})


class TestSurvival:
    """A state's outcome entries: one (survival numerator, survival
    denominator, positive non-failure successors) entry per complete
    profile, read from the context's row entries through the row ids."""

    @pytest.mark.parametrize("n", range(7))
    def test_ladder_start_state(self, n):
        g = survival_ladder(n)
        [(num, den, _)] = outcomes(CheckContext(g), "s")
        assert F(num, den) == 1 - F(1, 10**n)

    def test_absorbing_states(self, ladder):
        ctx = CheckContext(ladder)
        assert survivals(outcomes(ctx, "t")) == [(1, ("t",))]
        assert survivals(outcomes(ctx, "f")) == [(0, ())]

    def test_positive_successors_exclude_failures(self, ladder):
        assert survivals(outcomes(CheckContext(ladder), "s")) == [(F(9, 10), ("t",))]

    def test_unknown_state_rejected(self, ladder):
        with pytest.raises(GameError, match="no transition row for state 'zz'"):
            outcomes(CheckContext(ladder), "zz")

    def test_survival_plus_failure_mass_is_one(self):
        g = overtake_game()
        ctx = CheckContext(g)
        profiles = product_profiles(g.agents, g.actions)
        for s in g.states:
            table = outcomes(ctx, s)
            assert len(table) == len(profiles) == 9
            for (num, den, successors), profile in zip(table, profiles):
                row = profile_row(g, s, profile)
                fail = sum((v for t, v in row.items() if t in g.failures), F(0))
                assert F(num, den) + fail == 1
                assert set(successors) == {
                    t for t, v in row.items() if v > 0 and t not in g.failures}


class TestCompletions:
    """The choice table: each coalition choice, in the product order of
    its members, as the indices of its completions in the outcome
    table."""

    def test_count_is_actions_to_the_free_agents(self):
        g = overtake_game()
        ctx = CheckContext(g)
        assert ctx.choices(frozenset()) == (tuple(range(9)),)
        by_a = ctx.choices(frozenset({"a"}))
        assert len(by_a) == 3
        # a's actions are minus, zero, plus: plus is its third choice
        assert len(by_a[2]) == 3
        both = ctx.choices(frozenset({"a", "b"}))
        assert len(both) == 9
        # (plus, zero) is choice 2 * 3 + 1 of the members' product order
        [only] = both[7]
        plus_zero = {"a": "plus", "b": "zero"}
        assert _profile_at(g.agents, g.actions, 7) == plus_zero
        assert product_profiles(g.agents, g.actions)[only] == ActionProfile.of(plus_zero)

    def test_deterministic_order(self):
        g = overtake_game()
        profiles = product_profiles(g.agents, g.actions)
        choices = CheckContext(g).choices(frozenset({"a"}))
        assert [_profile_at(("a",), g.actions, k) for k in range(len(choices))] == [
            {"a": "minus"}, {"a": "zero"}, {"a": "plus"}]
        for k, completions in enumerate(choices):
            assert [profiles[i].as_dict()["a"] for i in completions] == [g.actions[k]] * 3
        got = [profiles[i].as_dict()["b"] for i in choices[2]]
        assert got == ["minus", "zero", "plus"]


class TestJson:
    def test_round_trip(self, tmp_path):
        g = overtake_game()
        path = tmp_path / "overtake.json"
        save(g, path)
        assert load(path) == g

    def test_probabilities_written_exactly(self, tmp_path):
        path = tmp_path / "ladder.json"
        save(survival_ladder(2), path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "rows"
        assert doc["rows"][doc["row_ids"]["s"][0]] == {"f": "1/100", "t": "99/100"}

    def test_decimal_strings_parse_exactly(self):
        doc = reference_game_to_dict(survival_ladder(1))
        for row in doc["transitions"]:
            if row["from"] == "s":
                row["to"] = {"t": "0.9", "f": "0.1"}
        assert game_from_dict(doc) == survival_ladder(1)

    @pytest.mark.parametrize("literal, value", [
        ("0.25", F(1, 4)), (".5", F(1, 2)), ("3/12", F(1, 4)), (" 1/2 ", F(1, 2)),
        ("1", F(1)), ("-0.0", F(0)),
    ])
    def test_accepted_literal_forms(self, literal, value):
        # the rest of the mass goes to s, so that the row sums to 1
        doc = reference_game_to_dict(survival_ladder(0))
        doc["transitions"][0]["to"] = {"f": literal, "s": str(1 - value)}
        assert profile_row(game_from_dict(doc), "f", ActionProfile.of(
            {"a": "act"})) == {"f": value, "s": 1 - value}

    @pytest.mark.parametrize("literal", ["0e-999999999", "1E0", "2.5e-1"])
    def test_exponent_notation_rejected(self, literal):
        doc = reference_game_to_dict(survival_ladder(0))
        doc["transitions"][0]["to"] = {"f": literal}
        with pytest.raises(SchemaError, match="exponent notation is rejected"):
            game_from_dict(doc)
        with pytest.raises(GameError, match="exponent notation is rejected"):
            Game(("a",), ("s",), (), ("x",), [{"s": literal}], {"s": (0,)}, {})

    def test_float_probability_rejected(self):
        doc = reference_game_to_dict(survival_ladder(0))
        doc["transitions"][0]["to"] = {"f": 0.3333}
        with pytest.raises(SchemaError, match="floating point"):
            game_from_dict(doc)

    def test_float_probability_rejected_by_game(self):
        with pytest.raises(GameError, match="floating point"):
            Game(("a",), ("s",), (), ("x",), [{"s": 1.0}], {"s": (0,)}, {})

    def test_fractions_kept_as_given(self):
        half = F(1, 2)
        g = Game(("a",), ("s", "t"), (), ("x",),
                 [{"s": half, "t": "1/2"}, {"t": 1}], {"s": (0,), "t": (1,)}, {})
        row = profile_row(g, "s", ActionProfile.of({"a": "x"}))
        assert row["s"] is half and row["t"] == half

    def test_deeply_nested_document_is_schema_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        with pytest.raises(SchemaError, match="nests too deeply"):
            load(path)

    def test_inexact_row_rejected_by_validation(self, tmp_path):
        doc = reference_game_to_dict(survival_ladder(0))
        for row in doc["transitions"]:
            if row["from"] == "s":
                row["to"] = {"f": "0.3333", "t": "0.6666"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GameValidationError, match="sum to 9999/10000"):
            load(path)
        with pytest.raises(GameValidationError, match="sum to 9999/10000"):
            game_from_dict(doc)

    def test_missing_section_is_schema_error(self, tmp_path):
        doc = game_to_dict(survival_ladder(0))
        del doc["failures"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="/failures: missing"):
            load(path)

    def test_missing_to_targets_mean_zero(self):
        doc = game_to_dict(survival_ladder(0))
        g = game_from_dict(doc)
        prof = ActionProfile.of({"a": "act"})
        assert profile_row(g, "s", prof).get("t") is None
        assert survivals(outcomes(CheckContext(g), "s")) == [(0, ())]

    def test_duplicate_row_rejected(self):
        doc = reference_game_to_dict(survival_ladder(0))
        doc["transitions"].append(doc["transitions"][0])
        with pytest.raises(SchemaError, match="duplicate row"):
            game_from_dict(doc)


class TestLoaderSharesRows:
    """``game_from_dict`` parses each distinct ``to`` object once, and every
    JSON row with equal contents gets that one parsed row."""

    @staticmethod
    def distinct_targets(doc):
        return {tuple(entry["to"].items()) for entry in doc["transitions"]}

    @pytest.mark.parametrize("game", [
        overtake_game(), survival_ladder(2),
        build_canonical_game(closure([parse("([a]_1/4 v -> [a,b]_1/4 v)")]))[0],
    ], ids=["overtake", "ladder", "canonical"])
    def test_one_row_per_distinct_contents(self, game):
        doc = reference_game_to_dict(game)
        loaded = game_from_dict(doc)
        assert len(loaded.rows) == len(self.distinct_targets(doc))
        assert len(loaded.transitions) == len(doc["transitions"])
        assert validate(loaded) == []

    def test_reordered_targets_are_another_row(self):
        # the order of a row's targets is the order of its successors
        doc = reference_game_to_dict(survival_ladder(1))
        s_row, t_row = [e for e in doc["transitions"] if e["from"] in ("s", "t")]
        t_row["to"] = dict(reversed(s_row["to"].items()))
        loaded = game_from_dict(doc)
        prof = ActionProfile.of({"a": "act"})
        assert list(profile_row(loaded, "s", prof)) == ["f", "t"]
        assert list(profile_row(loaded, "t", prof)) == ["t", "f"]

    @pytest.mark.parametrize("bad, problem", [
        (1.0, "binary floating point is rejected"),
        (0.5, "binary floating point is rejected"),
        ("1E0", "exponent notation is rejected"),
        (None, "not a Fraction, an int or a string"),
        (True, "not a Fraction, an int or a string"),
        ([1], "not a Fraction, an int or a string"),
        ({"n": 1}, "not a Fraction, an int or a string"),
    ])
    def test_bad_value_in_repeated_row_reported_at_first_pointer(self, bad, problem):
        # a clean row that equals the bad one for == (1 == 1.0 == True)
        # comes first, then two rows holding the bad value
        doc = reference_game_to_dict(overtake_game())
        rows = doc["transitions"]
        absorbing = [i for i, e in enumerate(rows) if e["to"] == {"ab": "1"}]
        first, second, third = absorbing[:3]
        rows[first]["to"] = {"ab": 1}
        rows[second]["to"] = {"ab": bad}
        rows[third]["to"] = {"ab": bad}
        with pytest.raises(SchemaError) as err:
            game_from_dict(doc)
        message = str(err.value)
        assert message.startswith(f"/transitions/{second}/to/ab: ")
        assert problem in message

    @pytest.mark.parametrize("first", ["1", 1], ids=repr)
    @pytest.mark.parametrize("later, problem", [
        (1.0, "binary floating point is rejected"),
        (True, "not a Fraction, an int or a string"),
    ])
    def test_parsed_literal_admits_no_equal_value(self, first, later, problem):
        # "1" or 1 is parsed first; 1.0 and true equal 1, yet each still
        # reaches the gate and fails at its own pointer
        doc = _document(("a",), ("s", "t"), ("x",), [
            _row("s", {"t": first}, a="x"), _row("t", {"s": later}, a="x")])
        with pytest.raises(SchemaError) as err:
            game_from_dict(doc)
        assert str(err.value).startswith("/transitions/1/to/s: ")
        assert problem in str(err.value)

    def test_equal_literals_load_as_equal_rows(self):
        doc = _document(("a",), ("s", "t"), ("x", "y"), [
            _row("s", {"s": "1/2", "t": "1/2"}, a="x"),
            _row("s", {"s": "0.5", "t": "0.5"}, a="y"),
            _row("t", {"t": 1}, a="x"),
            _row("t", {"t": "1"}, a="y"),
        ])
        g = game_from_dict(doc)
        of = ActionProfile.of
        for s in ("s", "t"):
            row = profile_row(g, s, of({"a": "x"}))
            assert profile_row(g, s, of({"a": "y"})) == row
            assert all(type(v) is Fraction for v in row.values())
        assert profile_row(g, "s", of({"a": "x"})) == {"s": F(1, 2), "t": F(1, 2)}

    def test_repeated_bad_literal_reported_at_first_pointer(self):
        doc = _document(("a",), ("s", "t"), ("x",), [
            _row("s", {"s": "1/2", "t": "1/3e1"}, a="x"),
            _row("t", {"t": "1/3e1"}, a="x"),
        ])
        with pytest.raises(SchemaError, match=r"^/transitions/0/to/t: '1/3e1'"):
            game_from_dict(doc)

    def test_round_trip_of_sampled_games(self):
        rng = random.Random(3)
        with_failures = 0
        for _ in range(40):
            g = drawn_game(rng)
            with_failures += bool(g.failures)
            assert game_from_dict(game_to_dict(g)) == g
        assert with_failures >= 10

    @pytest.mark.parametrize("text", [
        "[a]_1/2 v", "~[b]_3/4 ~v", "([a]_1/2 v -> [a,b]_3/4 v)", "[]_1/2 v",
    ])
    def test_round_trip_of_canonical_games(self, text):
        g, _ = build_canonical_game(closure([parse(text)]))
        assert game_from_dict(game_to_dict(g)) == g

    @pytest.mark.parametrize("g", [overtake_game()]
                             + [survival_ladder(n) for n in range(4)])
    def test_round_trip_of_builtin_games(self, g):
        assert game_from_dict(game_to_dict(g)) == g

    def test_round_trip_of_a_zero_entry(self):
        # the document's "s": "0" is written as no entry
        doc = _document((), ("s", "t"), ("x",), [
            _row("s", {"s": "0", "t": "1"}), _row("t", {"s": "1"})])
        g = game_from_dict(doc)
        assert g.rows[g.row_ids("s")[0]] == {"s": 0, "t": 1}
        assert game_to_dict(g)["rows"] == [{"t": "1"}, {"s": "1"}]
        assert game_from_dict(game_to_dict(g)) == g
        doc["transitions"][0]["to"] = {"s": "1/2", "t": "1/2"}
        assert game_from_dict(doc) != g


class TestLadder:
    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            survival_ladder(-1)

    def test_zero_case_routes_all_mass_to_failure(self):
        g = survival_ladder(0)
        prof = ActionProfile.of({"a": "act"})
        assert profile_row(g, "s", prof) == {"f": 1}


class TestOvertake:
    def test_fixed_rows(self):
        g = overtake_game()
        of = ActionProfile.of
        assert profile_row(g, "p", of({"a": "minus", "b": "plus"})) == {"ab": 1}
        assert profile_row(g, "p", of({"a": "plus", "b": "minus"})) == {
            "ba": F(9, 10), "f_t": F(1, 10)}
        assert profile_row(g, "p", of({"a": "plus", "b": "zero"}))["ba"] == F(3, 5)
        assert profile_row(g, "p", of({"a": "plus", "b": "plus"})).get("ba") is None
        assert profile_row(g, "p", of({"a": "zero", "b": "minus"}))["f_t"] == F(1, 10)
        assert profile_row(g, "p", of({"a": "minus", "b": "zero"}))["ab"] == F(9, 10)
        assert profile_row(g, "p", of({"a": "zero", "b": "plus"}))["ab"] == F(9, 10)
