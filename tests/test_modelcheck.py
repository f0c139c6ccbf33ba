"""Model checker: modality semantics, extents, witnesses, schema audits."""

import random
import types
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcl import modelcheck
from sgcl.formula import (
    TOP,
    Bot,
    Coal,
    Impl,
    Neg,
    Var,
    canonical_key,
    closure,
    parse,
    render,
)
from sgcl.game import (
    ActionProfile,
    Game,
    game_from_dict,
    game_to_dict,
    load,
    survival_ladder,
)
from sgcl.modelcheck import (
    QUARTER_GRID,
    CheckContext,
    CheckError,
    SoundnessReport,
    Witness,
    audit_axiom_soundness,
    extent,
    holds,
    label,
    witness,
)

from conftest import (
    drawn_game,
    keyed_game,
    outcomes,
    overtake_game,
    pool_games,
    product_profiles,
    profile_row_index,
)

F = Fraction
GAMES = Path(__file__).resolve().parents[1] / "games"


def coal(agents, p, body):
    return Coal(frozenset(agents), F(p), body)


def with_reversed_agents(g: Game) -> Game:
    """The same game with its agents listed in reverse order."""
    rows = {key: g.rows[i] for key, i in g.transitions.items()}
    return keyed_game(tuple(reversed(g.agents)), g.states, g.failures, g.actions,
                      rows, g.valuation)


def naive_outcomes(g: Game, state, fixed: dict):
    """(survival, positive non-failure successors) of every row of the
    state whose profile agrees with the fixed partial assignment."""
    out = []
    for (s, profile), i in g.transitions.items():
        row = g.rows[i]
        actions = profile.as_dict()
        if s != state or any(actions[a] != x for a, x in fixed.items()):
            continue
        survival = sum((v for t, v in row.items() if t not in g.failures), F(0))
        out.append((survival, {t for t, v in row.items()
                               if v > 0 and t not in g.failures}))
    return out


def naive_choices(g: Game, coalition):
    """The coalition's partial assignments, members in the game's agent
    order, actions in the game's action order."""
    members = [a for a in g.agents if a in coalition]
    for combo in product(g.actions, repeat=len(members)):
        yield dict(zip(members, combo))


def naive_witness(g: Game, state, f: Coal):
    """Reference witness: the first committing partial assignment and its
    worst-case survival, read from the transition rows directly."""
    for fixed in naive_choices(g, f.coalition):
        outcomes = naive_outcomes(g, state, fixed)
        if all(
            survival >= f.p and all(naive_holds(g, t, f.body) for t in successors)
            for survival, successors in outcomes
        ):
            return Witness(ActionProfile.of(fixed),
                           min(survival for survival, _ in outcomes))
    return None


def naive_holds(g: Game, state, f):
    """Reference semantics, written directly from the definition with no
    memoization or caching."""
    if isinstance(f, Var):
        return state in g.valuation.get(f.name, frozenset())
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not naive_holds(g, state, f.body)
    if isinstance(f, Impl):
        return (not naive_holds(g, state, f.left)) or naive_holds(g, state, f.right)
    return naive_witness(g, state, f) is not None


class TestHolds:
    def test_ladder_prefix_claim(self):
        g = survival_ladder(1)
        assert holds(g, "s", parse("[]_9/10 true"))
        assert not holds(g, "s", parse("[]_1 true"))
        assert holds(g, "t", parse("[]_1 true"))

    def test_threshold_zero_still_constrains_successors(self):
        g = survival_ladder(1)
        # successor t is reached with positive probability and has no
        # valuation entry, so the body fails there
        assert not holds(g, "s", parse("[]_0 v"))
        assert holds(g, "s", parse("[]_0 true"))

    def test_failure_state_query_is_an_error(self):
        g = survival_ladder(1)
        with pytest.raises(CheckError, match="failure state"):
            holds(g, "f", parse("true"))

    def test_unknown_state_is_an_error(self):
        with pytest.raises(CheckError, match="unknown state"):
            holds(survival_ladder(1), "zz", parse("true"))

    def test_foreign_agent_is_an_error(self):
        with pytest.raises(CheckError, match="outside the game"):
            holds(survival_ladder(1), "s", parse("[zz]_1 true"))

    def test_absent_variable_is_false(self):
        assert not holds(survival_ladder(1), "s", parse("v"))
        assert holds(survival_ladder(1), "s", parse("~v"))

    def test_overtake_scenario_claims(self):
        g = overtake_game()
        assert holds(g, "p", parse("[a,b]_9/10 passed"))
        assert not holds(g, "p", parse("[a,b]_91/100 passed"))
        assert holds(g, "p", parse("[a]_0 passed"))
        assert holds(g, "p", parse("~[a]_1/100 passed"))
        assert holds(g, "p", parse("[a,b]_1 behind"))

    def test_empty_coalition_quantifies_over_everyone(self):
        g = overtake_game()
        # no commitment: the zero-profile must tolerate all nine outcomes
        assert not holds(g, "p", parse("[]_9/10 passed"))
        assert holds(g, "p", parse("[]_0 true"))


class TestExtent:
    def test_overtake_passed(self):
        g = overtake_game()
        assert extent(g, parse("passed")) == {"ba"}
        assert extent(g, parse("[a,b]_1 true")) == {"p", "ab", "ba"}

    def test_extent_skips_failure_states(self):
        g = survival_ladder(0)
        assert extent(g, parse("true")) == {"s", "t"}


class TestWitness:
    def test_empty_coalition_witness_reports_worst_case(self):
        g = survival_ladder(1)
        w = witness(g, "s", parse("[]_9/10 true"))
        assert w == Witness(ActionProfile.of({}), F(9, 10))

    def test_no_witness_when_modality_fails(self):
        assert witness(survival_ladder(1), "s", parse("[]_1 true")) is None

    def test_full_coalition_witness(self):
        g = overtake_game()
        w = witness(g, "p", parse("[a,b]_9/10 passed"))
        assert w is not None
        assert w.profile.as_dict() in ({"a": "plus", "b": "minus"},
                                       {"a": "zero", "b": "minus"})
        assert w.guaranteed_survival == F(9, 10)

    def test_non_modality_rejected(self):
        with pytest.raises(CheckError, match="modality"):
            witness(survival_ladder(1), "s", parse("true"))


class TestIntegerThresholds:
    """Survival 1/4 + 1/4 is kept as the unreduced entry 2/4 and compared
    with each threshold in integers, at and past the boundary."""

    @pytest.fixture
    def split(self):
        x = ActionProfile.of({"a": "x"})
        rows = {("s", x): {"t": F(1, 4), "u": F(1, 4), "f": F(1, 2)}}
        for s in ("t", "u", "f"):
            rows[(s, x)] = {s: 1}
        return keyed_game(("a",), ("s", "t", "u", "f"), ("f",), ("x",), rows,
                          {"v": ("t", "u")})

    def test_entry_is_unreduced(self, split):
        assert outcomes(CheckContext(split), "s") == [(2, 4, ("t", "u"))]

    @pytest.mark.parametrize("text, expected", [
        ("[a]_1/2 v", True), ("[]_1/2 v", True),
        ("[a]_3/4 v", False), ("[]_3/4 v", False),
    ])
    def test_threshold_boundary(self, split, text, expected):
        f = parse(text)
        assert holds(split, "s", f) is expected
        extents = label(split, [f.body, f])
        assert bool(extents[f] & 1) is expected  # s is the first state

    def test_witness_reports_reduced_survival(self, split):
        found = witness(split, "s", parse("[a]_1/2 v"))
        assert found == Witness(ActionProfile.of({"a": "x"}), F(1, 2))
        assert (found.guaranteed_survival.numerator,
                found.guaranteed_survival.denominator) == (1, 2)
        assert witness(split, "s", parse("[a]_3/4 v")) is None


class TestAgainstNaiveSemantics:
    def test_agreement_on_random_games(self):
        import random

        rng = random.Random(7)
        shape = (4, 2, ("a", "b"))
        fs = [
            parse("[a]_1/2 v"),
            parse("[]_1/4 v -> [a,b]_1/4 v"),
            parse("~[b]_3/4 ~v"),
            parse("[a,b]_1 (v -> u)"),
            parse("[]_0 u"),
        ]
        for _ in range(40):
            g = drawn_game(rng, shape, require_agents=("a", "b"),
                           variables=("v", "u"))
            for f in fs:
                for s in g.nonfailure_states:
                    assert holds(g, s, f) == naive_holds(g, s, f)

    def test_three_agents_and_reordered_agents(self):
        """holds, extent and witness against the reference, on sampled
        three-agent games and on copies listing the agents in reverse,
        which reverses the product order of the complete profiles."""
        import random

        rng = random.Random(11)
        shape = (3, 2, ("a", "b", "c"))
        fs = [
            parse("[a,c]_1/2 v"),
            parse("[b]_1/4 (v -> [a,c]_1/2 u)"),
            parse("[a,b,c]_3/4 ~v"),
            parse("[c]_0 u"),
            parse("[a]_1/2 [c]_1/4 v"),
            parse("[a,c]_0 ~u"),
            parse("[]_1/4 v -> [a,b]_1/2 u"),
        ]
        for _ in range(30):
            sampled = drawn_game(rng, shape, require_agents=("a", "b", "c"),
                                 variables=("v", "u"))
            reordered = with_reversed_agents(sampled)
            for g in (sampled, reordered):
                ctx = CheckContext(g)
                for f in fs:
                    truth = {s for s in g.nonfailure_states if naive_holds(g, s, f)}
                    assert extent(g, f, ctx) == truth
                    for s in g.nonfailure_states:
                        assert holds(g, s, f, ctx) == (s in truth)
                        if isinstance(f, Coal):
                            assert witness(g, s, f, ctx) == naive_witness(g, s, f)

    @pytest.mark.parametrize("text", [
        "[a]_1/2 v", "([a]_1/4 v -> [a,b]_1/4 v)", "([a]_1/2 v -> [a,b]_3/4 v)",
        "~[b]_3/4 ~v", "[]_1/2 v",
    ])
    def test_canonical_outcome_tables_match_rows(self, text):
        """Canonical rows are shared between keys; each state's outcome
        entries still equal the ones read row by row, and keys sharing a
        row of the table share its entry."""
        from sgcl.canonical import build_canonical_game
        from sgcl.formula import closure

        g, _ = build_canonical_game(closure([parse(text)]))
        ctx = CheckContext(g)
        entry_of = {}  # row index -> the table entry given for it
        for s in g.states:
            table = outcomes(ctx, s)
            combos = list(product(g.actions, repeat=len(g.agents)))
            assert len(table) == len(combos)
            for entry, combo in zip(table, combos):
                i = profile_row_index(g, s, ActionProfile(tuple(zip(g.agents, combo))))
                row = g.rows[i]
                survival = sum((v for t, v in row.items() if t not in g.failures), F(0))
                successors = tuple(t for t, v in row.items()
                                   if v > 0 and t not in g.failures)
                n, d, got = entry
                assert (F(n, d), got) == (survival, successors)
                assert entry_of.setdefault(i, entry) is entry
        assert len(entry_of) == len(g.rows) < len(g.transitions)

    def test_unsorted_agent_tuple(self):
        """Agents listed as ("b", "a"): profiles are enumerated with b's
        action most significant, so the first committing choice differs
        from the one a sorted enumeration would find.  A zero-probability
        entry does not make its target a successor."""
        def prof(a, b):
            return ActionProfile.of({"a": a, "b": b})

        transitions = {
            ("s", prof("x", "x")): {"f": 1},
            ("s", prof("y", "x")): {"t": F(3, 4), "f": F(1, 4)},
            ("s", prof("x", "y")): {"t": F(1, 2), "s": F(1, 2)},
            ("s", prof("y", "y")): {"t": 1, "s": 0},
        }
        for a, b in product("xy", repeat=2):
            transitions[("t", prof(a, b))] = {"t": 1}
            transitions[("f", prof(a, b))] = {"f": 1}
        g = keyed_game(("b", "a"), ("s", "t", "f"), ("f",), ("x", "y"), transitions,
                       {"v": ("s", "t"), "u": ("t",)})
        ctx = CheckContext(g)
        table = [(F(n, d), successors) for n, d, successors in outcomes(ctx, "s")]
        assert [survival for survival, _ in table] == [0, F(3, 4), 1, 1]
        assert table[2] == (1, ("t", "s"))
        assert table[3] == (1, ("t",))
        # a's choices x, y complete at (b, a) = (x, x), (y, x) and (x, y),
        # (y, y); b's at (x, x), (x, y) and (y, x), (y, y)
        assert ctx.choices(frozenset({"a"})) == ((0, 2), (1, 3))
        assert ctx.choices(frozenset({"b"})) == ((0, 1), (2, 3))
        # formula: (witness, complete profiles examined to find it)
        expected = {
            "[a,b]_1/2 v": (Witness(prof("y", "x"), F(3, 4)), 2),
            "[a]_1/2 v": (Witness(ActionProfile.of({"a": "y"}), F(3, 4)), 3),
            "[b]_1/2 v": (Witness(ActionProfile.of({"b": "y"}), F(1)), 3),
            "[a,b]_1 v": (Witness(prof("x", "y"), F(1)), 3),
            "[]_1/2 v": (None, 1),
            "[a,b]_1 u": (Witness(prof("y", "y"), F(1)), 4),
        }
        for text, (found, examined) in expected.items():
            f = parse(text)
            fresh = CheckContext(g)
            assert witness(g, "s", f, fresh) == found == naive_witness(g, "s", f)
            assert fresh.profile_evals == examined
            assert holds(g, "s", f) == (found is not None) == naive_holds(g, "s", f)

    def test_profile_evaluation_budget(self):
        g = overtake_game()
        f = parse("[a]_1/2 [b]_1/2 [a,b]_1/2 ~passed")
        ctx = CheckContext(g)
        for s in g.nonfailure_states:
            holds(g, s, f, ctx)
        subformula_count = 5
        bound = subformula_count * len(g.states) * len(g.actions) ** len(g.agents)
        assert ctx.profile_evals <= bound


class TestRowEntries:
    """A context compiles each distinct row once, not each (state,
    complete profile) key that reads it."""

    def test_wide_canonical_game_compiles_each_row_once(self, monkeypatch):
        from sgcl.canonical import build_canonical_game

        wide = parse("([a0,a1,a2,a3,a4,a5,a6,a7]_1/2 v -> "
                     "[a0]_1/2 [a0,a1,a2,a3,a4,a5,a6,a7]_1 u)")
        g, _ = build_canonical_game(closure([Neg(wide)]))
        compiled = []

        def counting(row, excluded=frozenset()):
            compiled.append(row)
            return row_mass(row, excluded)

        row_mass = modelcheck._row_mass
        monkeypatch.setattr(modelcheck, "_row_mass", counting)
        ctx = CheckContext(g)
        assert len(compiled) == len(ctx.entries) == len(g.rows)
        assert len(g.rows) * 1000 < len(g.states) * len(g.actions) ** len(g.agents)
        assert any(not holds(g, s, wide, ctx) for s in g.nonfailure_states)
        assert len(compiled) == len(g.rows)


class TestSharedTables:
    """Choice tables depend only on the agents, the actions and the
    coalition, and are shared by every context of one layout."""

    COALITIONS = (frozenset(), frozenset("a"), frozenset("b"), frozenset("ab"))

    def test_one_layout_one_table(self):
        first, second = CheckContext(overtake_game()), CheckContext(overtake_game())
        for coalition in self.COALITIONS:
            assert first.choices(coalition) == second.choices(coalition)
            assert first.choices(coalition) is second.choices(coalition)

    def test_reversed_agents_get_other_tables(self):
        g = overtake_game()
        reversed_agents = with_reversed_agents(g)
        ours, theirs = CheckContext(g), CheckContext(reversed_agents)
        for coalition in self.COALITIONS[1:3]:
            assert ours.choices(coalition) != theirs.choices(coalition)
        assert ours.choices(frozenset("a"))[0] == (0, 1, 2)
        assert theirs.choices(frozenset("a"))[0] == (0, 3, 6)
        # the grand coalition's choices are the complete profiles in
        # either order, each completing only itself
        everyone = self.COALITIONS[3]
        assert ours.choices(everyone) == theirs.choices(everyone) == tuple(
            (i,) for i in range(9))
        assert outcomes(ours, "p") != outcomes(theirs, "p")
        assert sorted(outcomes(ours, "p")) == sorted(outcomes(theirs, "p"))

    def test_tables_are_tuples(self):
        ctx = CheckContext(overtake_game())
        for coalition in self.COALITIONS:
            table = ctx.choices(coalition)
            assert isinstance(table, tuple)
            for completions in table:
                assert isinstance(completions, tuple)
                assert all(type(i) is int for i in completions)


def reference_choices(agents, actions, coalition):
    """``(choices, completions)``: the coalition's partial profiles in the
    product order of its members, and for each the indices of the
    complete profiles that extend it, read from the profiles
    themselves."""
    members = tuple(a for a in agents if a in coalition)
    choices = product_profiles(members, actions)
    profiles = product_profiles(agents, actions)
    completions = tuple(
        tuple(i for i, p in enumerate(profiles) if set(choice.assignment) <= set(p.assignment))
        for choice in choices)
    return choices, completions


def choice_layouts():
    """Every layout of 0 to 4 agents, in every order, with 1 to 3
    actions, and each of its coalitions: 1329 in all."""
    for n in range(5):
        for agents in permutations("abcd"[:n]):
            for actions in (("x",), ("x", "y"), ("x", "y", "z")):
                for size in range(n + 1):
                    for coalition in combinations(agents, size):
                        yield agents, actions, frozenset(coalition)


class TestChoiceTableAgainstProducts:
    """The choice table, built from place values, against the choices and
    completions read from the product-order profiles; ``witness`` decodes
    a choice's index to the reference's partial profile."""

    def test_layouts(self):
        layouts = list(choice_layouts())
        assert len(layouts) == 1329
        for agents, actions, coalition in layouts:
            choices, completions = reference_choices(agents, actions, coalition)
            table = modelcheck.choice_table(agents, actions, coalition)
            assert table == completions, (agents, actions, coalition)
            # the one committing choice: a middle one, whose members'
            # actions differ when it has two or more members
            k = len(table) // 2
            width = len(actions) ** len(agents)
            commits = set(table[k])
            g = Game(agents, ("s", "f"), ("f",), actions, ({"s": 1}, {"f": 1}),
                     {"s": [0 if i in commits else 1 for i in range(width)],
                      "f": [1] * width}, {})
            assert witness(g, "s", Coal(coalition, F(1), TOP)) == Witness(choices[k], F(1))


checked_formulas = st.recursive(
    st.sampled_from([Var("v"), Var("u"), Bot()]),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Impl, sub, sub),
        st.builds(Coal, st.sampled_from([frozenset(), frozenset("a"),
                                         frozenset("b"), frozenset("ab")]),
                  st.sampled_from(QUARTER_GRID), sub),
    ),
    max_leaves=8,
)


class TestMemoizedChecker:
    """The checker memoizes truth values by (state, formula), so an equal
    formula made of other objects reuses the entries of the first; the
    reference semantics walks the formulas themselves."""

    @settings(max_examples=150, deadline=None)
    @given(checked_formulas, st.lists(st.integers(0, 2**32), min_size=1, max_size=3))
    def test_agrees_with_reference(self, f, seeds):
        shape = (3, 2, ("a", "b"))
        games = [drawn_game(random.Random(seed), shape, require_agents=("a", "b"),
                            variables=("v", "u")) for seed in seeds]
        copy = parse(render(f))
        assert copy == f and copy is not f
        for g in games:
            truth = {s for s in g.nonfailure_states if naive_holds(g, s, f)}
            assert extent(g, f) == truth
            fresh, reused = CheckContext(g), CheckContext(g)
            for ctx, query in ((fresh, f), (reused, copy)):
                for s in g.nonfailure_states:
                    assert holds(g, s, query, ctx) == (s in truth)
            assert fresh.profile_evals == reused.profile_evals
            assert len(fresh.memo) == len(reused.memo)

            # the copy, asked again, and f, asked of the copy's context,
            # add no entries and examine no profile
            entries, evals = len(reused.memo), reused.profile_evals
            for s in g.nonfailure_states:
                assert holds(g, s, copy, reused) == holds(g, s, f, reused) == (s in truth)
            assert (len(reused.memo), reused.profile_evals) == (entries, evals)

            # f -> copy is the one new formula, true at every state
            for s in g.nonfailure_states:
                assert holds(g, s, Impl(f, copy), reused)
            assert len(reused.memo) == entries + len(g.nonfailure_states)
            assert reused.profile_evals == evals
            if isinstance(f, Coal):
                for s in g.nonfailure_states:
                    assert witness(g, s, f) == naive_witness(g, s, f)

    def test_not_a_formula(self):
        g = overtake_game()
        for query in (lambda: holds(g, "p", "passed"), lambda: extent(g, "passed"),
                      lambda: label(g, ["passed"])):
            with pytest.raises(CheckError, match=r"^not a formula: 'passed'$"):
                query()


def assert_label_matches_holds(g: Game, order) -> None:
    """label against one lazy holds query per (state, formula); walking
    the same choices in the same order, both examine the same complete
    profiles, and label leaves the memo empty."""
    labeled, lazy = CheckContext(g), CheckContext(g)
    masks = label(g, order, labeled)
    assert list(masks) == list(order)
    for i, s in enumerate(g.nonfailure_states):
        for f in order:
            assert (masks[f] >> i & 1 == 1) == holds(g, s, f, lazy), (s, render(f))
    assert labeled.profile_evals == lazy.profile_evals
    assert labeled.memo == {}


class TestLabel:
    def test_three_agent_games_with_failures(self):
        """Sampled three-agent games with failure states, and copies
        listing the agents in reverse: every coalition size, and choices
        in both product orders."""
        import random

        rng = random.Random(13)
        shape = (4, 2, ("a", "b", "c"))
        order = closure([
            parse("[a,c]_1/2 v"),
            parse("[b]_1/4 (v -> [a,c]_1/2 u)"),
            parse("[a,b,c]_3/4 ~v"),
            parse("[c]_0 u"),
            parse("[a]_1/2 [c]_1/4 v"),
            parse("[]_1/4 v -> [a,b]_1/2 u"),
            parse("[b,c]_1 (u -> false)"),
        ]).formulas
        modalities = [f for f in order if isinstance(f, Coal) and f.coalition]
        seen = set()  # (modality, truth) pairs met at some state
        games = 0
        while games < 30:
            sampled = drawn_game(rng, shape, require_agents=("a", "b", "c"),
                                 variables=("v", "u"))
            if not sampled.failures:
                continue
            games += 1
            reordered = with_reversed_agents(sampled)
            for g in (sampled, reordered):
                assert_label_matches_holds(g, order)
                masks = label(g, order)
                for f in modalities:
                    for i in range(len(g.nonfailure_states)):
                        seen.add((f, masks[f] >> i & 1))
        assert seen == {(f, truth) for f in modalities for truth in (0, 1)}

    def test_named_games(self):
        order = closure([parse("[a]_1/2 [b]_1/2 [a,b]_1/2 ~passed"),
                         parse("[]_1/2 behind -> [a]_0 passed")]).formulas
        assert_label_matches_holds(overtake_game(), order)
        assert_label_matches_holds(
            survival_ladder(2), closure([parse("[]_9/10 []_9/10 v")]).formulas)

    def test_threshold_met_exactly(self):
        # a survival equal to the threshold commits; one just below does not
        g = survival_ladder(1)
        order = closure([parse("[]_9/10 true"), parse("[]_91/100 true")]).formulas
        masks = label(g, order)
        assert masks[parse("[]_9/10 true")] & 1 == 1
        assert masks[parse("[]_91/100 true")] & 1 == 0
        assert_label_matches_holds(g, order)

    def test_foreign_agent_is_an_error(self):
        with pytest.raises(CheckError):
            label(survival_ladder(1), closure([parse("[z]_1/2 true")]).formulas)


# ---------------------------------------------------------------------------
# the schema audit over formulas, the reference audit_axiom_soundness is
# checked against: each instance is drawn as a formula and checked with
# holds at every non-failure state


def reference_coalition(rng, agents) -> frozenset:
    return frozenset(a for a in agents if rng.random() < 0.5)


def cooperation_instance(rng, agents, pool):
    side = {a: rng.randrange(3) for a in agents}
    c1 = frozenset(a for a in agents if side[a] == 0)
    c2 = frozenset(a for a in agents if side[a] == 1)
    p, q = rng.choice(QUARTER_GRID), rng.choice(QUARTER_GRID)
    left, right = rng.choice(pool), rng.choice(pool)
    return Impl(
        Coal(c1, p, Impl(left, right)),
        Impl(Coal(c2, q, left), Coal(c1 | c2, max(p, q), right)),
    )


def monotonicity_instance(rng, agents, pool):
    c = reference_coalition(rng, agents)
    p, q = rng.choice(QUARTER_GRID), rng.choice(QUARTER_GRID)
    if q > p:
        p, q = q, p
    body = rng.choice(pool)
    return Impl(Coal(c, p, body), Coal(c, q, body))


def falsehood_instance(rng, agents, pool):
    c = reference_coalition(rng, agents)
    p = rng.choice([g for g in QUARTER_GRID if g > 0])
    return Neg(Coal(c, p, Bot()))


REFERENCE_SCHEMAS = (
    ("cooperation", cooperation_instance),
    ("monotonicity", monotonicity_instance),
    ("falsehood", falsehood_instance),
)


def audit_pool(pool) -> tuple:
    """The pool as the audit reads it: sorted, without repeats, and
    ``true`` alone when empty."""
    return tuple(sorted(set(pool), key=canonical_key)) or (TOP,)


def reference_instances(game, pool, sample_budget, rng):
    """(schema name, instance) for each of the reference audit's draws, in
    order."""
    for _ in range(sample_budget):
        name, make = REFERENCE_SCHEMAS[rng.randrange(len(REFERENCE_SCHEMAS))]
        yield name, make(rng, game.agents, pool)


def reference_audit(game, pool, sample_budget, seed) -> SoundnessReport:
    """Each instance a formula; ``holds`` checks its agents, interns it
    and evaluates it, state by state.  The context and the random stream
    are made through the module, as the audit makes its own, so that a
    test can record them."""
    pool = audit_pool(pool)
    rng = modelcheck.random.Random(seed)
    ctx = modelcheck.CheckContext(game)
    report = SoundnessReport()
    everywhere = frozenset(game.nonfailure_states)
    for name, instance in reference_instances(game, pool, sample_budget, rng):
        report.instances += 1
        for s in game.nonfailure_states:
            if not holds(game, s, instance, ctx):
                report.violations.append((name, render(instance), s))
    for body in pool:
        coalition = reference_coalition(rng, game.agents)
        if extent(game, body, ctx) == everywhere:
            report.necessitation_cases += 1
            lifted = Coal(coalition, F(0), body)
            if extent(game, lifted, ctx) != everywhere:
                report.necessitation_violations.append((render(lifted),))
    return report


def audit_run(audit, game, pool, budget, seed):
    """(outcome, context) of one audit.  The outcome is its report, or the
    CheckError's message, and the state of its random stream when it
    returned or raised, so two audits with equal outcomes made the same
    draws; the context is the one it made."""
    made, streams = [], []

    class Recording(CheckContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    class Stream(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            streams.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelcheck, "CheckContext", Recording)
        mp.setattr(modelcheck, "random", types.SimpleNamespace(Random=Stream))
        try:
            result = audit(game, pool, budget, seed)
        except CheckError as e:
            result = f"CheckError: {e}"
    assert len(made) == len(streams) == 1
    return (result, streams[0].getstate()), made[0]


def audit_outcome(audit, game, pool, budget, seed):
    return audit_run(audit, game, pool, budget, seed)[0]


def schema_modalities(instance) -> list:
    """The modalities a schema instance is made of: three for a
    cooperation instance, two for monotonicity, one for falsehood."""
    if isinstance(instance, Neg):
        return [instance.body]
    if isinstance(instance.right, Impl):
        return [instance.left, instance.right.left, instance.right.right]
    return [instance.left, instance.right]


def audit_game(name: str) -> Game:
    """The overtake game, or a three-agent game sampled from seed 0."""
    if name == "overtake":
        return overtake_game()
    g = drawn_game(random.Random(0),
                   (4, 2, ("a", "b", "c")),
                   require_agents=("a", "b", "c"), variables=("v", "u"))
    assert (len(g.states), len(g.actions), len(g.agents)) == (4, 2, 3)
    return g


def plant_threshold_zero_fault(mp) -> None:
    """Break the checker: every modality at threshold 0 is judged false,
    by the lazy checker and by the extent kernel alike."""
    committing = modelcheck._committing_choice
    mp.setattr(modelcheck, "_committing_choice",
               lambda ctx, state, f: None if f.p == 0 else committing(ctx, state, f))
    kernel = modelcheck._modality_mask
    mp.setattr(modelcheck, "_modality_mask",
               lambda compiled, choices, p_num, p_den, outside: (0, 0) if p_num == 0
               else kernel(compiled, choices, p_num, p_den, outside))


def plant_joint_fault(mp) -> None:
    """Break the checker where only cooperation can see it: a modality
    whose coalition has two or more agents is judged false at every
    positive threshold, by the lazy checker and by the extent kernel
    alike.  A cooperation instance of two coalitions whose union has two
    agents then has a false consequent where its antecedents can hold,
    while a monotonicity or falsehood instance of such a coalition stays
    true."""
    committing = modelcheck._committing_choice
    mp.setattr(modelcheck, "_committing_choice",
               lambda ctx, state, f: None if len(f.coalition) > 1 and f.p > 0
               else committing(ctx, state, f))
    # a choice table holds only completion indices, and with one action
    # every coalition's table is ((0,),): each table the kernel sees is
    # tagged with its coalition's size
    class Sized(tuple):
        pass

    table = modelcheck.choice_table

    def sized(agents, actions, coalition):
        choices = Sized(table(agents, actions, coalition))
        choices.size = len(coalition)
        return choices

    mp.setattr(modelcheck, "choice_table", sized)
    kernel = modelcheck._modality_mask
    mp.setattr(modelcheck, "_modality_mask",
               lambda compiled, choices, p_num, p_den, outside:
               (0, 0) if choices.size > 1 and p_num > 0
               else kernel(compiled, choices, p_num, p_den, outside))


def all_failing(g: Game) -> Game:
    """The same game with every state a failure state."""
    doc = game_to_dict(g)
    doc["failures"] = list(doc["states"])
    return game_from_dict(doc)


@st.composite
def audit_cases(draw):
    """A sampled game of 1-3 agents, a failure-only copy now and then, a
    pool over its agents with repeats, a budget and a seed."""
    agents = ("a", "b", "c")[:draw(st.integers(1, 3))]
    g = drawn_game(random.Random(draw(st.integers(0, 2**32))),
                   (4, 2, agents),
                   require_agents=agents, variables=("v", "u"))
    if draw(st.integers(0, 4)) == 0:
        g = all_failing(g)
    formulas = st.recursive(
        st.sampled_from([Var("v"), Var("u"), Bot(), TOP]),
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Impl, sub, sub),
            st.builds(Coal, st.frozensets(st.sampled_from(agents)),
                      st.sampled_from(QUARTER_GRID), sub),
        ),
        max_leaves=4,
    )
    distinct = draw(st.lists(formulas, max_size=5))
    pool = draw(st.lists(st.sampled_from(distinct), max_size=7)) if distinct else []
    return g, pool, draw(st.integers(1, 300)), draw(st.integers())


class TestAudit:
    def test_clean_on_ladder(self):
        g = survival_ladder(2)
        report = audit_axiom_soundness(g, [parse("true"), parse("v")],
                                       sample_budget=400, seed=3)
        assert report.instances == 400
        assert report.clean

    def test_clean_on_overtake(self):
        g = overtake_game()
        report = audit_axiom_soundness(
            g, [parse("true"), parse("passed"), parse("behind")],
            sample_budget=300, seed=11)
        assert report.clean
        assert report.necessitation_cases >= 1

    def test_grid_ascends(self):
        # the audit draws thresholds as grid indices and compares those
        assert list(QUARTER_GRID) == sorted(set(QUARTER_GRID))
        assert QUARTER_GRID[0] == 0

    @settings(max_examples=150, deadline=None)
    @given(audit_cases(), st.sampled_from([None, plant_threshold_zero_fault,
                                           plant_joint_fault]))
    def test_agrees_with_reference(self, case, plant):
        g, pool, budget, seed = case
        with pytest.MonkeyPatch.context() as mp:
            if plant is not None:
                plant(mp)
            got = audit_outcome(audit_axiom_soundness, g, pool, budget, seed)
            assert got == audit_outcome(reference_audit, g, pool, budget, seed)

    def test_draws_replay_randrange_and_choice(self):
        """The audit draws each index below n with one getrandbits loop.
        For seeds 0-49 and every n from 1 to 9 (the audit draws below 3, 4,
        5 and its pool's size), it reads the stream as Random.randrange(n)
        and Random.choice(range(n)) do, with random() calls interleaved."""
        below = modelcheck._below
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in range(1, 10):
                for _ in range(4):
                    assert below(ours.getrandbits, n) == theirs.randrange(n)
                    assert below(ours.getrandbits, n) == theirs.choice(range(n))
                    assert ours.random() == theirs.random()
            assert ours.getstate() == theirs.getstate()

    def test_detects_planted_violation(self, monkeypatch):
        g = overtake_game()
        pool = [parse(t) for t in ("true", "passed", "behind", "passed -> behind",
                                   "passed -> passed", "behind -> behind")]
        plant_threshold_zero_fault(monkeypatch)
        got = audit_axiom_soundness(g, pool, sample_budget=300, seed=12)
        # schema name, text and state, one entry per draw, in draw order
        assert got.violations == reference_audit(g, pool, 300, 12).violations
        assert len(got.violations) == 59 and len(set(got.violations)) == 49
        # a cooperation instance at threshold 0 has a false antecedent
        assert {name for name, _, _ in got.violations} == {"monotonicity"}
        assert got.violations[:2] == [
            ("monotonicity", "([b]_1 passed -> [b]_0 passed)", "ba"),
            ("monotonicity", "([a,b]_3/4 (passed -> behind) -> [a,b]_0 (passed -> behind))",
             "p"),
        ]
        # the lifts' coalitions are the last draws of the stream
        assert got.necessitation_violations == [
            ("[a,b]_0 true",), ("[b]_0 (behind -> behind)",), ("[a,b]_0 (passed -> passed)",)]
        assert got == reference_audit(g, pool, 300, 12)

    def test_detects_planted_cooperation_violation(self, monkeypatch):
        g = overtake_game()
        pool = [parse(t) for t in ("true", "passed", "behind", "passed -> behind",
                                   "passed -> passed", "behind -> behind")]
        plant_joint_fault(monkeypatch)
        got = audit_axiom_soundness(g, pool, sample_budget=300, seed=12)
        assert got.violations == reference_audit(g, pool, 300, 12).violations
        # monotonicity and falsehood instances of [a,b] stay true under
        # the fault, so every violation is a cooperation instance's
        assert {name for name, _, _ in got.violations} == {"cooperation"}
        assert len(got.violations) == len(set(got.violations)) == 26
        assert got.violations[:2] == [
            ("cooperation", "([]_1 ((behind -> behind) -> passed) -> ([a,b]_0 (behind -> behind)"
             " -> [a,b]_1 passed))", "ba"),
            ("cooperation", "([a]_1 ((passed -> behind) -> (passed -> passed)) -> ([b]_3/4"
             " (passed -> behind) -> [a,b]_1 (passed -> passed)))", "ab"),
        ]
        assert got.necessitation_violations == []
        assert got == reference_audit(g, pool, 300, 12)

    @pytest.mark.parametrize("game, pool, budget, seed, report, evals", [
        ("overtake", ["true", "passed", "behind", "passed -> behind"], 300, 11,
         SoundnessReport(300, [], 1, []), 1231),
        ("sampled", ["true", "false", "v", "u", "~v"], 400, 2,
         SoundnessReport(400, [], 1, []), 2109),
    ], ids=["overtake", "sampled"])
    def test_audit_work_is_pinned(self, game, pool, budget, seed, report, evals):
        """The report and the checker's work of two fixed audits, one on a
        three-agent sampled game: the profiles the extent kernel examines,
        once per distinct modality, necessitation lifts included; every
        extent is a mask, so the lazy checker's memo stays empty."""
        g = audit_game(game)
        (got, _), ctx = audit_run(audit_axiom_soundness, g, [parse(t) for t in pool],
                                  budget, seed)
        assert (got, ctx.profile_evals, ctx.memo) == (report, evals, {})

    @pytest.mark.parametrize("game, pool, budget, seed", [
        ("overtake", ["true", "passed", "behind", "passed -> behind"], 300, 11),
        ("overtake", ["true", "false", "passed", "behind"], 2000, 0),
        ("sampled", ["true", "false", "v", "u", "~v"], 400, 2),
    ], ids=["overtake-implication", "overtake-cli-pool", "sampled"])
    def test_each_modality_is_labelled_once(self, monkeypatch, game, pool, budget, seed):
        """The audit compiles the game's rows once and calls the extent
        kernel once for each distinct modality of the instances it draws:
        a coalition, a threshold and the extent of a body, read here from
        the reference's instances."""
        g = audit_game(game)
        pool = [parse(t) for t in pool]
        want = set()
        for _, instance in reference_instances(g, audit_pool(pool), budget,
                                               random.Random(seed)):
            for m in schema_modalities(instance):
                want.add((m.coalition, m.p, extent(g, m.body)))
        calls, compiles = [], []
        kernel, compile_masks = modelcheck._modality_mask, modelcheck._compile_masks

        def counting_kernel(compiled, choices, p_num, p_den, outside):
            calls.append((choices, F(p_num, p_den), outside))
            return kernel(compiled, choices, p_num, p_den, outside)

        def counting_compile(*args):
            compiles.append(args)
            return compile_masks(*args)

        monkeypatch.setattr(modelcheck, "_modality_mask", counting_kernel)
        monkeypatch.setattr(modelcheck, "_compile_masks", counting_compile)
        assert audit_axiom_soundness(g, pool, budget, seed).clean
        assert len(calls) == len(set(calls)) == len(want)
        assert len(compiles) == 1

    def test_instances_make_no_formulas(self, monkeypatch):
        """A clean audit makes no formula: neither a drawn instance nor a
        necessitation lift is built unless it is violated."""
        g = overtake_game()
        pool = [parse(t) for t in ("true", "passed", "behind", "passed -> behind")]
        made = []
        for kind in (Var, Bot, Neg, Impl, Coal):
            post_init = kind.__post_init__

            def counting(self, post_init=post_init):
                made.append(type(self))
                post_init(self)

            monkeypatch.setattr(kind, "__post_init__", counting)
        report = audit_axiom_soundness(g, pool, sample_budget=2000, seed=0)
        assert report.clean and report.instances == 2000
        assert report.necessitation_cases == 1
        assert made == []

    def test_pool_agent_outside_the_game(self):
        with pytest.raises(CheckError, match=r"outside the game: \['z'\]"):
            audit_axiom_soundness(overtake_game(), [parse("[z]_1/2 passed")],
                                  sample_budget=50, seed=0)

    def test_foreign_pool_formula_fails_its_first_instance(self):
        # the error comes at the reference's draw, the first instance using
        # [z]_1/2 passed: the random stream stands at the same place, and
        # the instances drawn before it were checked
        pool = [parse(t) for t in ("passed", "behind", "[z]_1/2 passed")]
        got, ctx = audit_run(audit_axiom_soundness, overtake_game(), pool, 200, 4)
        assert got == audit_outcome(reference_audit, overtake_game(), pool, 200, 4)
        assert got[0] == "CheckError: formula names agents outside the game: ['z']"
        assert ctx.profile_evals > 0

    def test_cooperation_lists_both_foreign_agents(self):
        pool = [parse("[z]_1/2 passed"), parse("[y]_1/4 behind"), parse("passed")]
        got = audit_outcome(audit_axiom_soundness, overtake_game(), pool, 50, 3)
        assert got == audit_outcome(reference_audit, overtake_game(), pool, 50, 3)
        assert got[0] == "CheckError: formula names agents outside the game: ['y', 'z']"

    def test_foreign_agent_on_a_failure_only_game(self):
        # no instance is evaluated, so the necessitation loop raises, after
        # drawing the lift's coalition, as the reference's extent does
        g = all_failing(overtake_game())
        with pytest.raises(CheckError,
                           match=r"^formula names agents outside the game: \['z'\]$") as info:
            audit_axiom_soundness(g, [parse("[z]_1/2 passed")], sample_budget=50, seed=0)
        called = [entry.name for entry in info.traceback]
        assert called[-2:] == ["audit_axiom_soundness", "_reject_foreign"]
        pool = [parse("[z]_1/2 passed")]
        assert audit_outcome(audit_axiom_soundness, g, pool, 50, 0) == audit_outcome(
            reference_audit, g, pool, 50, 0)


# ---------------------------------------------------------------------------
# the audit against the reference on named, pooled and sampled games


def differential_games() -> list:
    """The games of the benchmark's game-queries pool, ``overtake``,
    ``ladder1`` and 20 games of one to three agents sampled from seeds
    0-19."""
    games = [game_from_dict(doc) for _, doc in sorted(pool_games().items())]
    games += [load(GAMES / "overtake.json"), load(GAMES / "ladder1.json")]
    for seed in range(20):
        agents = ("a", "b", "c")[:1 + seed % 3]
        games.append(drawn_game(
            random.Random(seed),
            (4, 2, agents),
            require_agents=agents, variables=("v", "u")))
    return games


def differential_pool(g: Game, kind: str) -> list:
    """The pool ``audit-soundness`` gives the audit, its variables, true
    and false; with ``extended``, also an implication, a negation and two
    modalities over its first and last variables (``v`` when it has
    none); with ``foreign``, also a modality of an agent outside the
    game."""
    names = sorted(g.valuation)
    pool = [Var(v) for v in names] + [TOP, Bot()]
    if kind == "extended":
        x, y = (Var(names[0]), Var(names[-1])) if names else (Var("v"), Var("v"))
        pool += [Impl(x, y), Neg(x), coal((), F(1, 2), y), coal("a", F(1, 4), Impl(y, x))]
    elif kind == "foreign":
        pool.append(parse("[zz]_1/2 v"))
    return pool


class TestAuditDifferential:
    """The audit and the reference give equal reports, or equal
    CheckError messages, and leave the random stream at the same place,
    for seeds 0-5 and budgets 1, 50 and 2000 on every game of
    :func:`differential_games`."""

    @pytest.mark.parametrize("kind", ["cli", "extended", "foreign"])
    def test_matches_reference(self, kind):
        for g in differential_games():
            pool = differential_pool(g, kind)
            for seed in range(6):
                for budget in (1, 50, 2000):
                    assert audit_outcome(audit_axiom_soundness, g, pool, budget, seed) == \
                        audit_outcome(reference_audit, g, pool, budget, seed), \
                        (g.states, kind, seed, budget)
