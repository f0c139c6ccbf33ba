"""Countermodel search, validity classification, threshold-gap demo."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from sgcl.canonical import CanonicalError, ClosureCapError, build_canonical_game
from sgcl.decide import (
    DecideError,
    Exhausted,
    Refuted,
    SearchBounds,
    ValidRelativeToOracle,
    _draw,
    _row_entries,
    bounded_countermodel,
    classify,
    decide_formula,
    incompleteness_demo,
    sample_game,
)
from sgcl.formula import (
    ATOM_CAP,
    AtomCapError,
    Bot,
    Coal,
    Impl,
    Neg,
    Var,
    agents_of,
    closure,
    is_tautology,
    parse,
    render,
    subformulas,
    variables_of,
)
from sgcl.game import ActionProfile, game_to_dict, validate
from sgcl.modelcheck import CheckContext, holds
from sgcl.proof import SystemId

from conftest import (
    acceptance_corpus,
    keyed_game,
    members,
    outcomes,
    pool_decides,
    profile_row,
)

F = Fraction


def deep_modal(levels: int, core: str = "v") -> str:
    text = core
    for k in range(2, levels + 2):
        text = f"[a]_1/{k} {text}"
    return text


class TestClassify:
    def test_falsehood_denial_is_valid(self):
        verdict = classify(parse("~[a]_1/2 false"))
        assert isinstance(verdict, ValidRelativeToOracle)

    def test_tautology_is_valid(self):
        verdict = classify(parse("(v -> v)"))
        assert isinstance(verdict, ValidRelativeToOracle)

    def test_bare_modality_is_refuted(self):
        f = parse("[a]_1/2 v")
        verdict = classify(f)
        assert isinstance(verdict, Refuted)
        assert validate(verdict.game) == []
        assert verdict.state not in verdict.game.failures
        assert not holds(verdict.game, verdict.state, f)

    def test_threshold_weakening_is_valid(self):
        verdict = classify(parse("([a]_1/2 v -> [a]_1/4 v)"))
        assert isinstance(verdict, ValidRelativeToOracle)

    def test_cooperation_instance_is_valid(self):
        text = "([a]_1/2 (v -> u) -> ([b]_1/4 v -> [a,b]_1/2 u))"
        assert isinstance(classify(parse(text)), ValidRelativeToOracle)

    def test_zero_threshold_falsehood_claim_is_satisfiable(self):
        # dumping all mass on failures realizes the zero-threshold claim,
        # so its denial cannot be valid
        verdict = classify(parse("~[a]_0 false"))
        assert isinstance(verdict, Refuted)

    def test_modal_speaks_about_successors_not_here(self):
        verdict = classify(parse("([a]_0 v -> v)"))
        assert isinstance(verdict, Refuted)

    def test_closure_cap_propagates(self):
        with pytest.raises(ClosureCapError):
            classify(parse(deep_modal(14)))

    def test_plus_system_route(self):
        assert isinstance(
            classify(parse("([a]_1/2 v -> [a]_0 v)"), system=SystemId.LPLUS),
            ValidRelativeToOracle,
        )

    def test_plus_system_rejects_empty_coalition(self):
        with pytest.raises(CanonicalError):
            classify(parse("[]_1 true"), system=SystemId.LPLUS)

    def test_valid_verdict_reports_sizes(self):
        verdict = classify(parse("(v -> v)"))
        assert verdict.closure_size == 4
        assert verdict.state_count == 2
        blob = json.loads(json.dumps(verdict.to_dict()))
        assert blob["verdict"] == "valid-relative-to-oracle"

    def test_refuting_state_holds_the_negation(self):
        # a state whose member set lacks the negation is never reported,
        # even where a zero-threshold gap makes the formula fail there
        for f in two_connective_corpus():
            verdict = classify(f)
            if isinstance(verdict, Refuted):
                sigma = closure([Neg(f)])
                _, diag = build_canonical_game(sigma)
                assert Neg(f) in members(sigma, diag.sets[verdict.state]), render(f)

    def test_refuted_verdict_serializes_game(self):
        verdict = classify(parse("[a]_1/2 v"))
        blob = json.loads(json.dumps(verdict.to_dict()))
        assert blob["verdict"] == "refuted"
        assert blob["state"] == verdict.state
        assert blob["game"]["states"] == list(verdict.game.states)


class TestSearchBounds:
    def test_defaults_are_sane(self):
        b = SearchBounds()
        assert F(0) in b.probability_grid and F(1) in b.probability_grid

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0},
            {"max_states": 0},
            {"agents": ()},
            {"agents": "ab"},
            {"agents": "a"},
            {"agents": ("a", "a")},
            {"agents": ("a", "b", "a")},
            {"probability_grid": (0, F(1, 2))},
            {"probability_grid": (F(1, 2), 1)},
            {"probability_grid": (0, 1, 2)},
            {"budget": 1.5},
            {"budget": True},
            {"max_states": 2.5},
            {"max_states": True},
            {"max_actions": 1.0},
            {"max_actions": "2"},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(DecideError):
            SearchBounds(**kwargs)


class TestSampleGame:
    def test_samples_are_valid_games(self):
        rng = random.Random(2024)
        bounds = SearchBounds()
        for _ in range(300):
            game = sample_game(rng, bounds)
            assert validate(game) == []
            assert len(game.states) <= bounds.max_states
            assert len(game.actions) <= bounds.max_actions
            assert set(game.agents) <= set(bounds.agents)
            assert len(game.nonfailure_states) >= 1

    def test_required_agents_always_present(self):
        rng = random.Random(5)
        for _ in range(50):
            game = sample_game(
                rng, SearchBounds(), require_agents=frozenset({"b"})
            )
            assert "b" in game.agents

    def test_missing_required_agent_rejected(self):
        with pytest.raises(DecideError):
            sample_game(
                random.Random(0),
                SearchBounds(agents=("a",)),
                require_agents=frozenset({"z"}),
            )

    def test_deterministic_under_seed(self):
        a = sample_game(random.Random(9), SearchBounds())
        b = sample_game(random.Random(9), SearchBounds())
        assert game_to_dict(a) == game_to_dict(b)


def reference_sample_game(rng, bounds, variables=("u", "v"),
                          require_agents=frozenset()):
    """The sampler with Fraction partial sums: every grid draw is added
    as a Fraction and the residual is 1 minus their sum."""
    required = tuple(sorted(require_agents))
    optional = [a for a in bounds.agents if a not in require_agents]
    extra = rng.randint(0 if required else 1, len(optional))
    agent_pool = sorted(required + tuple(optional[:extra]))
    n_states = rng.randint(1, bounds.max_states)
    states = tuple(f"q{i}" for i in range(n_states))
    n_fail = rng.randint(0, n_states - 1)
    failures = tuple(sorted(rng.sample(states, n_fail)))
    actions = tuple(f"m{i}" for i in range(rng.randint(1, bounds.max_actions)))
    transitions = {}
    grid = bounds.probability_grid
    for state in states:
        for combo in product(actions, repeat=len(agent_pool)):
            profile = ActionProfile(tuple(zip(agent_pool, combo)))
            row = None
            for _attempt in range(16):
                order = list(states)
                rng.shuffle(order)
                entries = {}
                total = Fraction(0)
                feasible = True
                for target in order[:-1]:
                    p = rng.choice(grid)
                    total += p
                    if total > 1:
                        feasible = False
                        break
                    entries[target] = p
                if feasible:
                    entries[order[-1]] = 1 - total
                    row = {t: p for t, p in entries.items() if p > 0}
                    break
            if row is None:
                row = {rng.choice(states): Fraction(1)}
            transitions[(state, profile)] = row
    valuation = {
        v: frozenset(s for s in states if rng.choice((True, False)))
        for v in variables
    }
    return keyed_game(tuple(agent_pool), states, failures, actions, transitions, valuation)


# the thirds grid has common denominator 12, not 4; the three-state
# bounds with five actions make rows of 25 profiles for two agents
SAMPLER_BOUNDS = [
    SearchBounds(),
    SearchBounds(max_states=3, max_actions=5, agents=("a", "b", "c"),
                 probability_grid=(0, F(1, 3), F(1, 4), F(2, 3), 1)),
    SearchBounds(max_states=4, max_actions=2, agents=("a",),
                 probability_grid=(0, F(1, 6), F(1, 2), 1)),
]


class TestSamplerMatchesReference:
    """Integer partial sums over the grid's common denominator, and
    shuffle and choice replayed through getrandbits, against Fraction
    partial sums and the calls themselves: the same games from the same
    random stream, with every row's entries in the same order, and the
    same random state after every game."""

    @pytest.mark.parametrize("index", range(len(SAMPLER_BOUNDS)))
    def test_same_games(self, index):
        bounds = SAMPLER_BOUNDS[index]
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for names in (("u", "v"), ("w",)):
                got = sample_game(ours, bounds, variables=names,
                                  require_agents=frozenset({"a"}))
                want = reference_sample_game(theirs, bounds, variables=names,
                                             require_agents=frozenset({"a"}))
                assert game_to_dict(got) == game_to_dict(want), seed
                assert [list(got.rows[i].items()) for i in got.transitions.values()] == [
                    list(want.rows[i].items()) for i in want.transitions.values()
                ], seed
            assert ours.getstate() == theirs.getstate()


def reference_outcome(row, failures):
    """A row's (survival, positive non-failure successors), summed in
    Fractions."""
    survival = sum((v for t, v in row.items() if t not in failures), F(0))
    return survival, tuple(t for t, v in row.items() if v > 0 and t not in failures)


def assert_outcomes_match_rows(g):
    ctx = CheckContext(g)
    profiles = [ActionProfile(tuple(zip(g.agents, combo)))
                for combo in product(g.actions, repeat=len(g.agents))]
    for s in g.states:
        table = outcomes(ctx, s)
        assert len(table) == len(profiles)
        for (n, d, successors), profile in zip(table, profiles):
            assert type(n) is int and type(d) is int and d > 0
            assert (F(n, d), successors) == reference_outcome(
                profile_row(g, s, profile), g.failures)


class TestIntegerRowSums:
    """Row entries sum each row as an integer numerator over a running
    common denominator; every entry equals the Fraction sum."""

    @pytest.mark.parametrize("index", range(len(SAMPLER_BOUNDS)))
    def test_sampled_games(self, index):
        rng = random.Random(index)
        for _ in range(100):
            assert_outcomes_match_rows(sample_game(
                rng, SAMPLER_BOUNDS[index], require_agents=frozenset({"a"})))

    def test_coprime_denominators_zero_and_failure_entries(self):
        coprime = {"s": F(1, 3), "f": F(1, 5), "t": F(1, 7), "z": F(0),
                   "u": F(1, 11)}
        coprime["g"] = 1 - sum(coprime.values())
        shared_factors = {"f": F(1, 6), "t": F(1, 4), "z": F(0), "u": F(7, 12)}
        transitions = {
            ("s", ActionProfile.of({"a": "x"})): coprime,
            ("s", ActionProfile.of({"a": "y"})): shared_factors,
        }
        states = ("s", "t", "u", "z", "f", "g")
        for state in states[1:]:
            for x in ("x", "y"):
                transitions[(state, ActionProfile.of({"a": x}))] = {state: 1}
        g = keyed_game(("a",), states, ("f", "g"), ("x", "y"), transitions, {})
        assert validate(g) == []
        assert_outcomes_match_rows(g)
        table = outcomes(CheckContext(g), "s")
        assert [(F(n, d), successors) for n, d, successors in table] == [
            (F(131, 231), ("s", "t", "u")), (F(5, 6), ("t", "u"))]


    @pytest.mark.parametrize("index", range(len(SAMPLER_BOUNDS)))
    def test_drawn_tables_equal_compiled_rows(self, index):
        """The search compiles a draw's integer rows into row entries
        without a Game: each non-failure state's must equal, as exact
        Fractions with the successors in the same order, the entries a
        context compiles from the game sample_game makes of the same
        stream, and no entry is made for a failure state's rows."""
        bounds = SAMPLER_BOUNDS[index]
        ours, theirs = random.Random(50 + index), random.Random(50 + index)
        for _ in range(100):
            draw = _draw(ours, bounds, ("u", "v"), frozenset({"a"}))
            g = sample_game(theirs, bounds, require_agents=frozenset({"a"}))
            drawn = CheckContext(draw, entries=_row_entries(draw, bounds._units[0]))
            names = draw.states
            compiled = [s for s in range(len(names))
                        if None not in outcomes(drawn, s)]
            assert [names[s] for s in compiled] == list(g.nonfailure_states)
            assert all(set(outcomes(drawn, s)) == {None}
                       for s in range(len(names)) if s not in compiled)
            ctx = CheckContext(g)
            for s in compiled:
                assert [(F(n, d), tuple(names[t] for t in successors))
                        for n, d, successors in outcomes(drawn, s)] == [
                    (F(n, d), successors) for n, d, successors in outcomes(ctx, names[s])]


class TestSampledGamesAreSound:
    """sample_game builds its row table straight into the constructor,
    which checks only its shape: its games must still validate and
    survive the JSON round trip."""

    @pytest.mark.parametrize("index", range(len(SAMPLER_BOUNDS)))
    def test_hundred_games(self, index, builder_output):
        rng = random.Random(100 + index)
        for _ in range(100):
            builder_output(sample_game(rng, SAMPLER_BOUNDS[index]))


class TestBoundedCountermodel:
    def test_search_work_is_pinned(self, monkeypatch):
        """The verdict and the model checker's work over every context of
        a fixed search: sharing tables and summing rows in integers must
        not change what is evaluated."""
        made = []

        class Recording(CheckContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("sgcl.decide.CheckContext", Recording)
        f = parse("([a]_1/2 (v -> u) -> ([b]_1/4 v -> [a,b]_1/2 u))")
        assert bounded_countermodel(f, SearchBounds(budget=100), seed=5) is None
        assert len(made) == 100
        assert sum(ctx.profile_evals for ctx in made) == 553
        assert sum(len(ctx.memo) for ctx in made) == 912

    def test_finds_lossy_game_for_certain_survival(self):
        f = parse("[]_1 true")
        hit = bounded_countermodel(f, SearchBounds(budget=500), seed=3)
        assert hit is not None
        game, state = hit
        assert validate(game) == []
        assert not holds(game, state, f)

    def test_tautology_never_refuted(self):
        assert bounded_countermodel(parse("(v -> v)"), SearchBounds(budget=80)) is None

    def test_modality_is_about_successors(self):
        hit = bounded_countermodel(
            parse("([a]_0 v -> v)"), SearchBounds(budget=500), seed=3
        )
        assert hit is not None
        game, state = hit
        assert not holds(game, state, parse("([a]_0 v -> v)"))

    def test_seed_determinism(self):
        f = parse("[]_1 true")
        first = bounded_countermodel(f, SearchBounds(budget=200), seed=12)
        second = bounded_countermodel(f, SearchBounds(budget=200), seed=12)
        assert first is not None and second is not None
        assert game_to_dict(first[0]) == game_to_dict(second[0])
        assert first[1] == second[1]

    def test_bounds_must_cover_formula_agents(self):
        with pytest.raises(DecideError):
            bounded_countermodel(parse("[c]_1 v"), SearchBounds(agents=("a",)))


def reference_countermodel(f, bounds, seed):
    """The search as a loop over sampled games: each game from
    sample_game, then holds at each of its non-failure states in order.
    Returns (game, state, games sampled before it) or None."""
    rng = random.Random(seed)
    names = tuple(sorted(variables_of(f))) or ("v",)
    for attempt in range(bounds.budget):
        game = sample_game(rng, bounds, variables=names, require_agents=agents_of(f))
        ctx = CheckContext(game)
        for state in game.nonfailure_states:
            if not holds(game, state, f, ctx):
                return game, state, attempt
    return None


# formulas over agent a, refuted in the first game, later or never, with
# thresholds on and off each grid of SAMPLER_BOUNDS
SEARCH_FORMULAS = [
    "[]_1 true",
    "~[a]_1/3 (v -> u)",
    "([a]_0 v -> v)",
    "(v -> [a]_1 ~[]_1/3 u)",
    "(~[]_0 false -> [a]_1/2 true)",
    "(u -> (v -> [a]_1/3 (u -> v)))",
    "([a]_1/2 v -> [a]_1/2 [a]_1/2 v)",
    "([a]_1/2 u -> ~[a]_1/2 ~u)",
    "([a]_2/3 v -> [a]_3/4 v)",
    "([a]_1/2 (v -> u) -> ([a]_1/4 v -> [a]_1/2 u))",
    "([a]_1/2 v -> [a]_1/4 v)",
    "([]_1/4 v -> [a]_1/6 v)",
    "(v -> v)",
]


class TestSearchMatchesReference:
    """The search draws each game into integer row entries and builds
    a Game only for a refutation, replaying the stream up to it: against
    the loop over sample_game and holds it must return the same None, or
    the same refuting state and an equal game, also when the refuting
    game is not the first."""

    @pytest.mark.parametrize("index", range(len(SAMPLER_BOUNDS)))
    def test_same_verdicts(self, index):
        bounds = replace(SAMPLER_BOUNDS[index], budget=30)
        hits = late = misses = 0
        for text in SEARCH_FORMULAS:
            f = parse(text)
            for seed in range(15):
                got = bounded_countermodel(f, bounds, seed=seed)
                want = reference_countermodel(f, bounds, seed)
                if want is None:
                    assert got is None, (text, seed)
                    misses += 1
                    continue
                game, state, attempt = want
                assert got is not None, (text, seed)
                assert got[1] == state, (text, seed)
                assert game_to_dict(got[0]) == game_to_dict(game), (text, seed)
                hits += 1
                late += attempt > 0
        assert hits >= 100 and late >= 50 and misses >= 45, (hits, late, misses)


class TestTautologyScreen:
    """A formula whose skeleton is a tautology holds at every non-failure
    state of every game, so the search returns None before it draws;
    a skeleton wider than ATOM_CAP atoms is searched as before."""

    def test_pool_decides_match_reference(self):
        """Every decide query of the game-queries pool, at its recorded
        seed, with a smaller budget: the same None, or the same refuting
        state and an equal game, as the loop over sample_game."""
        found = 0
        for q in pool_decides():
            f = parse(q["formula"])
            seed = int(q["argv"][q["argv"].index("--seed") + 1])
            bounds = SearchBounds(agents=tuple(sorted(agents_of(f))) or ("a",), budget=40)
            got = bounded_countermodel(f, bounds, seed=seed)
            want = reference_countermodel(f, bounds, seed)
            if want is None:
                assert got is None, q["formula"]
                continue
            game, state, _ = want
            assert got is not None and got[1] == state, q["formula"]
            assert game_to_dict(got[0]) == game_to_dict(game), q["formula"]
            found += 1
        assert found == 12

    def test_corpus_tautologies_draw_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a tautology drew a game")

        monkeypatch.setattr("sgcl.decide._draw", no_draw)
        tautologies = [f for f in acceptance_corpus() if is_tautology(f)]
        assert len(tautologies) == 32
        for f in tautologies:
            assert bounded_countermodel(f, SearchBounds(agents=("a",)), seed=3) is None

    def test_wider_than_the_cap_draws_its_budget(self, monkeypatch):
        chain = Var("x0")
        for i in range(ATOM_CAP, 0, -1):
            chain = Impl(Var(f"x{i}"), chain)
        f = Impl(Var("x0"), chain)  # a tautology over 21 atoms
        draws = []

        def counting(*args):
            draws.append(1)
            return _draw(*args)

        monkeypatch.setattr("sgcl.decide._draw", counting)
        with pytest.raises(AtomCapError):
            is_tautology(f)
        assert bounded_countermodel(f, SearchBounds(budget=7), seed=1) is None
        assert len(draws) == 7

    def test_agents_are_checked_before_the_screen(self):
        f = parse("([c]_1 v -> [c]_1 v)")
        assert is_tautology(f)
        with pytest.raises(DecideError, match="omit required agents"):
            bounded_countermodel(f, SearchBounds(agents=("a",)))


def two_connective_corpus():
    subscripts = (F(0), F(1, 2), F(1))
    tiers = [[Var("v"), Bot()]]
    for size in (1, 2):
        tier = []
        for f in tiers[size - 1]:
            tier.append(Neg(f))
            for p in subscripts:
                tier.append(Coal(frozenset({"a"}), p, f))
        for i in range(size):
            for left in tiers[i]:
                for right in tiers[size - 1 - i]:
                    tier.append(Impl(left, right))
        tiers.append(tier)
    return [f for tier in tiers for f in tier]


def zero_subscript_free(f):
    return all(not (isinstance(g, Coal) and g.p == 0) for g in subformulas(f))


@pytest.fixture(scope="module")
def route_verdicts():
    bounds = SearchBounds(agents=("a",), budget=250)
    out = {}
    for f in two_connective_corpus():
        refuted_by_classify = isinstance(classify(f), Refuted)
        refuted_by_search = bounded_countermodel(f, bounds, seed=7) is not None
        out[f] = (refuted_by_classify, refuted_by_search)
    return out


class TestRouteAgreement:
    """classify and the bounded search must agree except where the
    canonical construction is known to be blind: a zero-threshold claim
    holds vacuously at any canonical state whose rows put all mass on
    the failure state, so countermodels that hinge on falsifying such a
    claim are only reachable through the random search."""

    def test_corpus_has_expected_size(self):
        assert len(two_connective_corpus()) == 110

    def test_classify_refutations_are_search_reachable(self, route_verdicts):
        for f, (by_classify, by_search) in route_verdicts.items():
            if by_classify:
                assert by_search, f"search missed countermodel for {f}"

    def test_full_agreement_away_from_zero_thresholds(self, route_verdicts):
        for f, (by_classify, by_search) in route_verdicts.items():
            if zero_subscript_free(f):
                assert by_classify == by_search, f"routes disagree on {f}"

    def test_disagreements_all_involve_zero_thresholds(self, route_verdicts):
        gaps = [
            f
            for f, (by_classify, by_search) in route_verdicts.items()
            if by_search and not by_classify
        ]
        assert gaps, "expected the zero-threshold blind spot to show up"
        assert all(not zero_subscript_free(f) for f in gaps)

    def test_tautologies_never_refuted(self, route_verdicts):
        for f, (by_classify, _) in route_verdicts.items():
            if is_tautology(f):
                assert not by_classify


class TestDecideFormula:
    def test_small_formula_uses_canonical_route(self):
        assert isinstance(decide_formula(parse("(v -> v)")), ValidRelativeToOracle)

    def test_oversized_refutable_falls_back_to_search(self):
        verdict = decide_formula(parse(deep_modal(14)), seed=5)
        assert isinstance(verdict, Refuted)
        assert not holds(verdict.game, verdict.state, parse(deep_modal(14)))

    def test_oversized_valid_formula_exhausts(self):
        inner = deep_modal(12)
        verdict = decide_formula(
            parse(f"({inner} -> {inner})"),
            bounds=SearchBounds(budget=40),
        )
        assert isinstance(verdict, Exhausted)
        assert verdict.attempts == 40
        assert json.loads(json.dumps(verdict.to_dict()))["verdict"] == "exhausted"


class TestIncompletenessDemo:
    @pytest.mark.parametrize("n", range(7))
    def test_gap_at_every_depth(self, n):
        report = incompleteness_demo(n)
        assert all(entry["holds"] for entry in report.prefix)
        assert len(report.prefix) == n + 1
        assert not report.limit_at_start
        assert report.limit_at_absorbing
        assert report.gap_demonstrated
        assert report.survival == 1 - F(1, 10**n)

    def test_degenerate_depth_loses_everything(self):
        report = incompleteness_demo(0)
        assert report.survival == 0
        assert report.prefix[0]["formula"] == "[]_0 true"

    def test_prefix_formulas_spelled_out(self):
        report = incompleteness_demo(3)
        texts = [entry["formula"] for entry in report.prefix]
        assert texts == [
            "[]_0 true",
            "[]_9/10 true",
            "[]_99/100 true",
            "[]_999/1000 true",
        ]
        assert report.limit_formula == "[]_1 true"

    def test_report_round_trips_to_json(self):
        blob = json.loads(json.dumps(incompleteness_demo(2).to_dict()))
        assert blob["gap_demonstrated"] is True
        assert blob["survival"] == "99/100"
        assert blob["game"]["failures"] == ["f"]

    @pytest.mark.parametrize("n", [-1, 13])
    def test_depth_out_of_range(self, n):
        with pytest.raises(ValueError):
            incompleteness_demo(n)
