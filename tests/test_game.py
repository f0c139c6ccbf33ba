"""Stochastic game container: validation, survival, profiles, JSON format."""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import MappingProxyType

import pytest

from sgcl.canonical import build_canonical_game
from sgcl.decide import SearchBounds, sample_game
from sgcl.formula import closure, parse
from sgcl.game import (
    ActionProfile,
    Game,
    GameValidationError,
    SchemaError,
    GameError,
    MISSING_ROWS_SHOWN,
    game_from_dict,
    game_to_dict,
    load,
    overtake_game,
    save,
    survival_ladder,
    validate,
)
from sgcl.modelcheck import CheckContext

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


def keyed_rows(game):
    """Each key of the game with its row, to build a changed game from."""
    return {key: game.rows[i] for key, i in game.transitions.items()}


def with_rows(game, rows, valuation=None):
    """The game with other rows, and another valuation if one is given."""
    return Game(game.agents, game.states, game.failures, game.actions, rows,
                game.valuation if valuation is None else valuation)


def survivals(table):
    """An outcome table's entries as (survival, successors) pairs."""
    return [(F(n, d), successors) for n, d, successors in table]


def complete_profiles(game):
    """All complete profiles, in the product order of the actions over
    the agents: the order of a state's outcome table."""
    for combo in product(game.actions, repeat=len(game.agents)):
        yield ActionProfile(tuple(zip(game.agents, combo)))


class TestValidate:
    # the example games come from the trusted constructor, so each one is
    # also checked for product-order row ids and the JSON round trip
    @pytest.mark.parametrize("n", range(13))
    def test_ladder_is_valid(self, n, builder_output):
        builder_output(survival_ladder(n))

    def test_overtake_is_valid(self, builder_output):
        builder_output(overtake_game())

    def test_bad_row_sum_reported(self, ladder):
        rows = keyed_rows(ladder)
        rows[("t", ActionProfile.of({"a": "act"}))] = {"t": F(1, 2)}
        msgs = validate(with_rows(ladder, rows))
        assert any("sum to 1/2" in m for m in msgs)

    def test_long_values_shown_short(self, ladder):
        prof = ActionProfile.of({"a": "act"})
        rows = keyed_rows(ladder)
        rows[("t", prof)] = {"t": F(10**2000)}
        rows[("f", prof)] = {"f": F(1, 3 * 10**2000)}
        msgs = validate(with_rows(ladder, rows))
        assert len(msgs) == 3 and all(len(m) < 200 for m in msgs)
        assert any("probability 1000" in m and "outside [0, 1]" in m for m in msgs)
        assert any("sum to 1/3000" in m for m in msgs)

    def test_missing_row_reported(self, ladder):
        rows = keyed_rows(ladder)
        del rows[("t", ActionProfile.of({"a": "act"}))]
        msgs = validate(with_rows(ladder, rows))
        assert any("missing transition row" in m for m in msgs)

    def test_unknown_failure_state(self):
        g = Game(("a",), ("s",), ("zz",), ("x",),
                 {("s", ActionProfile.of({"a": "x"})): {"s": 1}}, {})
        assert any("failure state 'zz'" in m for m in validate(g))

    def test_probability_outside_unit_interval(self):
        g = Game(("a",), ("s", "t"), (), ("x",),
                 {("s", ActionProfile.of({"a": "x"})): {"s": F(3, 2), "t": F(-1, 2)},
                  ("t", ActionProfile.of({"a": "x"})): {"t": 1}}, {})
        msgs = validate(g)
        assert any("3/2 outside" in m for m in msgs)
        assert any("-1/2 outside" in m for m in msgs)

    def test_empty_action_domain(self):
        g = Game(("a",), ("s",), (), (), {}, {})
        assert any("action domain is empty" in m for m in validate(g))

    def test_valuation_of_unknown_state(self):
        g = survival_ladder(0)
        g = with_rows(g, keyed_rows(g), valuation={"v": frozenset({"nope"})})
        assert any("unknown state 'nope'" in m for m in validate(g))


def reference_validate(game):
    """Validation that first builds the set of every expected
    (state, complete profile) key and reports every missing one."""
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
    expected = set()
    if game.actions:
        for s in game.states:
            for profile in complete_profiles(game):
                expected.add((s, profile))
    seen = set()
    for (s, profile), i in game.transitions.items():
        row = game.rows[i]
        seen.add((s, profile))
        where = f"({s!r}, {profile.as_dict()!r})"
        if (s, profile) not in expected:
            if s not in state_set:
                out.append(f"row {where}: unknown source state")
            else:
                out.append(f"row {where}: profile is not a complete profile")
            continue
        total = Fraction(0)
        for t, v in row.items():
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


def _profile(**assignment):
    return ActionProfile.of(assignment)


def _odd_games():
    """Games with missing rows, partial or foreign profiles, unknown
    states, duplicate names and an empty action domain."""
    games = {}
    g = overtake_game()
    rows = keyed_rows(g)
    keys = list(rows)
    games["overtake-half"] = with_rows(g, {k: rows[k] for k in keys[1::2]})
    games["overtake-one-missing"] = with_rows(
        g, {k: row for k, row in rows.items() if k != keys[7]})
    foreign = {k: row for k, row in rows.items() if k not in (keys[0], keys[-1])}
    foreign[("zz", _profile(a="plus", b="plus"))] = {"p": 1}
    foreign[("p", _profile(a="plus"))] = {"p": 1}
    foreign[("p", _profile(a="plus", b="jump"))] = {"p": 1}
    foreign[("p", _profile(a="plus", b="zero", c="zero"))] = {"p": 1}
    games["overtake-foreign-rows"] = with_rows(g, foreign)
    games["duplicate-agents"] = Game(
        ("a", "b", "a"), ("s",), (), ("x", "y", "z"),
        {("s", ActionProfile((("a", "y"), ("b", "z"), ("a", "x")))): {"s": 1},
         ("s", _profile(a="x", b="x")): {"s": 1}}, {})
    games["duplicate-actions-and-states"] = Game(
        ("b", "a"), ("s", "t", "s"), (), ("x", "y", "x"),
        {("t", _profile(a="x", b="y")): {"s": 1}}, {})
    games["no-agents"] = Game(
        (), ("s", "t"), (), ("x",), {("s", ActionProfile(())): {"s": 1}}, {})
    games["no-actions"] = Game(
        ("a",), ("s",), (), (), {("s", ActionProfile(())): {"s": 1}}, {})
    # one bad row object (an unknown target, a negative entry, a sum of
    # 3/4) under every fourth key and under a key with an unknown source
    # state, and one clean row object under the rest
    bad = {"p": "1/2", "zz": "1/2", "ab": "-1/4"}
    clean = {"ab": 1}
    shared = {key: bad if i % 4 == 1 else clean
              for i, key in enumerate(g.transitions)}
    shared[("zz", _profile(a="plus", b="plus"))] = bad
    games["overtake-shared-bad-row"] = with_rows(g, shared)
    return games


class TestValidateMatchesReference:
    """Rows checked in place and counted, against the set of every
    expected key: the same messages, with the missing rows after the
    first few counted instead of named."""

    @pytest.mark.parametrize("name, game", sorted(_odd_games().items()))
    def test_odd_games(self, name, game):
        reference = reference_validate(game)
        assert reference
        assert validate(game) == shortened(reference)
        assert validate(game)[:5] == reference[:5]

    def test_shared_bad_row_reported_under_every_key(self):
        game = _odd_games()["overtake-shared-bad-row"]
        assert len(game.rows) == 2
        [bad] = [i for i, row in enumerate(game.rows) if "zz" in row]
        keys = [k for k, i in game.transitions.items() if i == bad]
        assert len(keys) == len(game.transitions) // 4 + 1
        violations = validate(game)
        for s, profile in keys:
            where = f"row ({s!r}, {profile.as_dict()!r})"
            if s == "zz":
                assert f"{where}: unknown source state" in violations
            else:
                assert f"{where}: probabilities sum to 3/4, expected 1" in violations
                assert f"{where}: unknown target state 'zz'" in violations

    @pytest.mark.parametrize("n", range(4))
    def test_valid_games(self, n):
        assert validate(survival_ladder(n)) == reference_validate(survival_ladder(n)) == []

    def test_ten_agents_with_one_row(self):
        agents = tuple(f"a{i}" for i in range(10))
        g = Game(agents, ("s",), (), ("x", "y", "z"),
                 {("s", ActionProfile.of({a: "y" for a in agents})): {"s": 1}}, {})
        first = ["x"] * 10
        expected = []
        for last in ("x", "y", "z"):
            expected.append(dict(zip(agents, first[:9] + [last])))
        for last in ("x", "y"):
            expected.append(dict(zip(agents, first[:8] + ["y", last])))
        violations = validate(g)
        assert violations == [
            f"missing transition row for ('s', {d!r})" for d in expected
        ] + [f"{3 ** 10 - 1 - 5} more transition rows missing"]
        assert str(GameValidationError(violations)).endswith("; ...")


class TestSharedRows:
    """``Game`` coerces each distinct input row object once into one row
    of ``rows``, and every key that passed it gets that row's index."""

    def test_shared_input_row_stays_shared(self):
        row = {"s": "1/2", "t": "1/2"}
        keys = [(s, _profile(a=x)) for s in ("s", "t") for x in ("x", "y")]
        g = Game(("a",), ("s", "t"), (), ("x", "y"), {k: row for k in keys}, {})
        [coerced] = g.rows
        assert coerced == {"s": F(1, 2), "t": F(1, 2)} and coerced is not row
        assert g.transitions == {k: 0 for k in keys}
        assert all(g.row(*k) is coerced for k in keys)
        assert validate(g) == []

    @pytest.mark.parametrize("read_only", [False, True])
    def test_rows_from_a_generator_of_temporaries(self, read_only):
        # each row is dropped by the generator once Game has read it, so
        # its id may be handed to a later row; with read-only views CPython
        # does so here unless Game holds the rows it has read
        n = 12
        actions = tuple(f"x{i}" for i in range(n))
        profiles = [_profile(a=x) for x in actions]
        wanted = [{"s": F(i, n), "t": F(n - i, n)} for i in range(n)]

        def items():
            for i in range(n):
                for s in ("s", "t"):
                    if read_only:
                        yield (s, profiles[i]), MappingProxyType(dict(wanted[i]))
                    else:
                        yield (s, {"a": actions[i]}), {"s": f"{i}/{n}",
                                                       "t": f"{n - i}/{n}"}

        g = Game(("a",), ("s", "t"), (), actions, items(), {})
        assert len(g.rows) == 2 * n
        for i in range(n):
            for s in ("s", "t"):
                assert g.row(s, profiles[i]) == wanted[i]
        assert validate(g) == []


class TestRowIds:
    """``row_ids(state)``: a state's row indices in product order, given
    to the trusted constructor or derived from ``transitions`` on first
    use.  The builders' games are checked with their builders' tests."""

    @pytest.mark.parametrize("name", ["overtake", "ladder1"])
    def test_loaded_games(self, name, row_ids_in_product_order):
        row_ids_in_product_order(load(GAMES / f"{name}.json"))

    def test_reversed_agents(self, row_ids_in_product_order):
        g = overtake_game()
        reordered = Game(("b", "a"), g.states, g.failures, g.actions,
                         keyed_rows(g), g.valuation)
        row_ids_in_product_order(reordered)
        # b's action is now the most significant digit
        assert reordered.row_ids("p") == (0, 3, 6, 1, 4, 7, 2, 5, 8)
        assert g.row_ids("p") == tuple(range(9))

    def test_missing_row_is_reported_by_outcomes(self, ladder):
        rows = keyed_rows(ladder)
        del rows[("t", ActionProfile.of({"a": "act"}))]
        g = with_rows(ladder, rows)
        with pytest.raises(GameError, match="no transition row for state 't'"):
            CheckContext(g).outcomes("t")
        assert CheckContext(g).outcomes("s") == CheckContext(ladder).outcomes("s")

    def test_trusted_constructor_keeps_rows_as_given(self):
        row = {"t": F(1)}
        g = Game.from_rows(("a",), ("t",), (), ("x", "y"), [row], {"t": (0, 0)}, {})
        assert g.rows[0] is row
        assert g.transitions == {("t", _profile(a="x")): 0, ("t", _profile(a="y")): 0}
        assert g == Game(("a",), ("t",), (), ("x", "y"),
                         [(("t", {"a": x}), {"t": "1"}) for x in "xy"], {})


class TestSurvival:
    """The outcome table: one (survival numerator, survival denominator,
    positive non-failure successors) entry per complete profile."""

    @pytest.mark.parametrize("n", range(7))
    def test_ladder_start_state(self, n):
        g = survival_ladder(n)
        [(num, den, _)] = CheckContext(g).outcomes("s")
        assert F(num, den) == 1 - F(1, 10**n)

    def test_absorbing_states(self, ladder):
        ctx = CheckContext(ladder)
        assert survivals(ctx.outcomes("t")) == [(1, ("t",))]
        assert survivals(ctx.outcomes("f")) == [(0, ())]

    def test_positive_successors_exclude_failures(self, ladder):
        assert survivals(CheckContext(ladder).outcomes("s")) == [(F(9, 10), ("t",))]

    def test_unknown_state_rejected(self, ladder):
        with pytest.raises(GameError, match="no transition row for state 'zz'"):
            CheckContext(ladder).outcomes("zz")

    def test_survival_plus_failure_mass_is_one(self):
        g = overtake_game()
        ctx = CheckContext(g)
        profiles = list(complete_profiles(g))
        for s in g.states:
            table = ctx.outcomes(s)
            assert len(table) == len(profiles) == 9
            for (num, den, successors), profile in zip(table, profiles):
                row = g.row(s, profile)
                fail = sum((v for t, v in row.items() if t in g.failures), F(0))
                assert F(num, den) + fail == 1
                assert set(successors) == {
                    t for t, v in row.items() if v > 0 and t not in g.failures}


class TestCompletions:
    """The choice table: each coalition choice with the indices of its
    completions in the outcome table."""

    def test_count_is_actions_to_the_free_agents(self):
        ctx = CheckContext(overtake_game())
        [(nobody, everything)] = ctx.choices(frozenset())
        assert nobody == ActionProfile.of({}) and everything == tuple(range(9))
        by_a = dict(ctx.choices(frozenset({"a"})))
        assert len(by_a) == 3
        assert len(by_a[ActionProfile.of({"a": "plus"})]) == 3
        both = dict(ctx.choices(frozenset({"a", "b"})))
        assert len(both) == 9
        [only] = both[ActionProfile.of({"a": "plus", "b": "zero"})]
        assert list(complete_profiles(overtake_game()))[only] == ActionProfile.of(
            {"a": "plus", "b": "zero"})

    def test_deterministic_order(self):
        g = overtake_game()
        profiles = list(complete_profiles(g))
        choices = CheckContext(g).choices(frozenset({"a"}))
        assert [p.as_dict() for p, _ in choices] == [
            {"a": "minus"}, {"a": "zero"}, {"a": "plus"}]
        got = [profiles[i].as_dict()["b"] for i in choices[2][1]]
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
        row = next(r for r in doc["transitions"] if r["from"] == "s")
        assert row["to"] == {"f": "1/100", "t": "99/100"}

    def test_decimal_strings_parse_exactly(self):
        doc = game_to_dict(survival_ladder(1))
        for row in doc["transitions"]:
            if row["from"] == "s":
                row["to"] = {"t": "0.9", "f": "0.1"}
        assert game_from_dict(doc) == survival_ladder(1)

    @pytest.mark.parametrize("literal, value", [
        ("0.25", F(1, 4)), (".5", F(1, 2)), ("3/12", F(1, 4)), (" 1/2 ", F(1, 2)),
        ("1", F(1)), ("-0.0", F(0)),
    ])
    def test_accepted_literal_forms(self, literal, value):
        doc = game_to_dict(survival_ladder(0))
        doc["transitions"][0]["to"] = {"f": literal}
        assert game_from_dict(doc).row(
            "f", ActionProfile.of({"a": "act"})) == {"f": value}

    @pytest.mark.parametrize("literal", ["0e-999999999", "1E0", "2.5e-1"])
    def test_exponent_notation_rejected(self, literal):
        doc = game_to_dict(survival_ladder(0))
        doc["transitions"][0]["to"] = {"f": literal}
        with pytest.raises(SchemaError, match="exponent notation is rejected"):
            game_from_dict(doc)
        with pytest.raises(GameError, match="exponent notation is rejected"):
            Game(("a",), ("s",), (), ("x",),
                 {("s", ActionProfile.of({"a": "x"})): {"s": literal}}, {})

    def test_float_probability_rejected(self):
        doc = game_to_dict(survival_ladder(0))
        doc["transitions"][0]["to"] = {"f": 0.3333}
        with pytest.raises(SchemaError, match="floating point"):
            game_from_dict(doc)

    def test_float_probability_rejected_by_game(self):
        with pytest.raises(GameError, match="floating point"):
            Game(("a",), ("s",), (), ("x",),
                 {("s", ActionProfile.of({"a": "x"})): {"s": 1.0}}, {})

    def test_fractions_kept_as_given(self):
        half = F(1, 2)
        g = Game(("a",), ("s", "t"), (), ("x",),
                 {("s", ActionProfile.of({"a": "x"})): {"s": half, "t": "1/2"}}, {})
        row = g.row("s", ActionProfile.of({"a": "x"}))
        assert row["s"] is half and row["t"] == half

    def test_deeply_nested_document_is_schema_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        with pytest.raises(SchemaError, match="nests too deeply"):
            load(path)

    def test_inexact_row_rejected_by_validation(self, tmp_path):
        doc = game_to_dict(survival_ladder(0))
        for row in doc["transitions"]:
            if row["from"] == "s":
                row["to"] = {"f": "0.3333", "t": "0.6666"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GameValidationError, match="sum to 9999/10000"):
            load(path)
        assert validate(game_from_dict(doc)) != []

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
        assert g.row("s", prof).get("t") is None
        assert survivals(CheckContext(g).outcomes("s")) == [(0, ())]

    def test_duplicate_row_rejected(self):
        doc = game_to_dict(survival_ladder(0))
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
        doc = game_to_dict(game)
        loaded = game_from_dict(doc)
        assert len(loaded.rows) == len(self.distinct_targets(doc))
        assert len(loaded.transitions) == len(doc["transitions"])
        assert validate(loaded) == []

    def test_reordered_targets_are_another_row(self):
        # the order of a row's targets is the order of its successors
        doc = game_to_dict(survival_ladder(1))
        s_row, t_row = [e for e in doc["transitions"] if e["from"] in ("s", "t")]
        t_row["to"] = dict(reversed(s_row["to"].items()))
        loaded = game_from_dict(doc)
        prof = ActionProfile.of({"a": "act"})
        assert list(loaded.row("s", prof)) == ["f", "t"]
        assert list(loaded.row("t", prof)) == ["t", "f"]

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
        doc = game_to_dict(overtake_game())
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

    def test_round_trip_of_sampled_games(self):
        rng = random.Random(3)
        bounds = SearchBounds(max_states=4, max_actions=3, agents=("a", "b"))
        with_failures = 0
        for _ in range(40):
            g = sample_game(rng, bounds)
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


class TestLadder:
    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            survival_ladder(-1)

    def test_zero_case_routes_all_mass_to_failure(self):
        g = survival_ladder(0)
        prof = ActionProfile.of({"a": "act"})
        assert g.row("s", prof) == {"f": 1}


class TestOvertake:
    def test_fixed_rows(self):
        g = overtake_game()
        of = ActionProfile.of
        assert g.row("p", of({"a": "minus", "b": "plus"})) == {"ab": 1}
        assert g.row("p", of({"a": "plus", "b": "minus"})) == {
            "ba": F(9, 10), "f_t": F(1, 10)}
        assert g.row("p", of({"a": "plus", "b": "zero"}))["ba"] == F(3, 5)
        assert g.row("p", of({"a": "plus", "b": "plus"})).get("ba") is None
        assert g.row("p", of({"a": "zero", "b": "minus"}))["f_t"] == F(1, 10)
        assert g.row("p", of({"a": "minus", "b": "zero"}))["ab"] == F(9, 10)
        assert g.row("p", of({"a": "zero", "b": "plus"}))["ab"] == F(9, 10)
