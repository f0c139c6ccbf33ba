"""Canonical game construction: oracle, maximal sets, transitions, audit."""

import json
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import sgcl.canonical
from sgcl.canonical import (
    OPT_OUT,
    CanonicalError,
    ClosureCapError,
    HintikkaOracle,
    Judgment,
    TruthLemmaReport,
    action_domain,
    audit_truth_lemma,
    build_canonical_game,
    enumerate_maximal_sets,
)
from sgcl.decide import Refuted, classify
from sgcl.formula import (
    TOP,
    Bot,
    Coal,
    Impl,
    Neg,
    Var,
    agents_of,
    canonical_key,
    closure,
    evaluate,
    is_tautology,
    parse,
    render,
    subformulas,
)
from sgcl.game import ActionProfile, validate
from sgcl.modelcheck import CheckContext, CheckError, holds, label
from sgcl.proof import SystemId

from conftest import (
    acceptance_corpus,
    maximal_set,
    members,
    profile_row,
    profile_row_index,
    reference_action_id,
    reference_granted,
    reference_mu,
    reference_row,
    reference_targets,
    set_key,
)

F = Fraction


def reference_action_domain(sigma):
    """The paper's action domain: every closure formula plus the constant
    true formula, crossed with the closure's subscripts, 0 and -1.  The
    lean domain of :func:`action_domain` is checked against it."""
    pool = list(sigma.formulas)
    if TOP not in sigma:
        pool.append(TOP)
    pool.sort(key=canonical_key)
    values = sorted({f.p for f in sigma if isinstance(f, Coal)} | {F(0), F(-1)})
    return tuple((f, val) for f in pool for val in values)


def reference_satisfiable(members):
    """Whether one truth assignment to the variables and modalities of
    the members makes every member true: a recursive truth table."""

    def atoms_of(f):
        if isinstance(f, (Var, Coal)):
            return {f}
        if isinstance(f, Neg):
            return atoms_of(f.body)
        if isinstance(f, Impl):
            return atoms_of(f.left) | atoms_of(f.right)
        return set()

    def value(f, true_atoms):
        if isinstance(f, Bot):
            return False
        if isinstance(f, Neg):
            return not value(f.body, true_atoms)
        if isinstance(f, Impl):
            return not value(f.left, true_atoms) or value(f.right, true_atoms)
        return f in true_atoms

    atoms = sorted(set().union(*map(atoms_of, members)), key=canonical_key)
    for signs in product((True, False), repeat=len(atoms)):
        true_atoms = {a for a, sign in zip(atoms, signs) if sign}
        if all(value(f, true_atoms) for f in members):
            return True
    return False


def reference_judge(candidate):
    """The consistency oracle on a set of formulas, complete or not, as a
    scan of the whole candidate for each rule, building the cooperation
    conclusion as a ``Coal``.  The reference enumerators judge with it,
    and :class:`HintikkaOracle`, compiled to nogoods over a closure's
    masks, is checked against it."""
    for f in candidate:
        if isinstance(f, Bot) or (isinstance(f, Neg) and f.body in candidate):
            return Judgment.INCONSISTENT
    positives = [f for f in candidate if isinstance(f, Coal)]
    negatives = [
        f.body for f in candidate
        if isinstance(f, Neg) and isinstance(f.body, Coal)
    ]

    def denied(claim):
        return any(
            g.body == claim.body
            and g.coalition >= claim.coalition
            and g.p <= claim.p
            for g in negatives
        )

    for f in positives:
        if isinstance(f.body, Bot) and f.p > 0:
            return Judgment.INCONSISTENT
        if denied(f):
            return Judgment.INCONSISTENT
    for outer in positives:
        if not isinstance(outer.body, Impl):
            continue
        for inner in positives:
            if inner.body != outer.body.left:
                continue
            if outer.coalition & inner.coalition:
                continue
            combined = Coal(
                outer.coalition | inner.coalition,
                max(outer.p, inner.p),
                outer.body.right,
            )
            if denied(combined):
                return Judgment.INCONSISTENT
    return Judgment.CONSISTENT


def reference_maximal_sets(sigma, judge=reference_judge):
    """Maximal sets by a sign for every non-negation formula of the
    closure, each partial set checked by a truth table over its
    propositional skeleton and by ``judge``, an oracle on sets of
    formulas.  Membership of a negation follows from the sign of what it
    negates.  :func:`enumerate_maximal_sets` branches on atoms only and is
    checked against it; the sets are returned as masks."""
    decisions = [f for f in sigma if not isinstance(f, Neg)]
    out = []

    def resolved(signs):
        chosen = set()
        for f in sigma:
            g, parity = f, True
            while isinstance(g, Neg):
                g, parity = g.body, not parity
            if signs.get(g) == parity:
                chosen.add(f)
        return frozenset(chosen)

    def descend(i, signs):
        current = resolved(signs)
        if not reference_satisfiable(current):
            return
        if judge(current) is Judgment.INCONSISTENT:
            return
        if i == len(decisions):
            out.append(maximal_set(sigma, current))
            return
        for sign in (True, False):
            signs[decisions[i]] = sign
            descend(i + 1, signs)
        del signs[decisions[i]]

    descend(0, {})
    return tuple(out)


def literal_pruning_maximal_sets(sigma, judge=reference_judge):
    """The enumerator before incremental settling: a sign for each atom
    in canonical order, true before false, pruning a branch as soon as
    ``judge``, an oracle on sets of formulas, rejects the atom literals
    chosen so far; at a leaf every other member follows by
    :func:`evaluate` and ``judge`` judges the whole set.
    :func:`enumerate_maximal_sets` is checked against it, tuple for
    tuple, on the sets' masks."""
    atoms = [f for f in sigma if isinstance(f, (Var, Coal))]
    truth = {}
    literals = []
    out = []

    def descend(i):
        if i == len(atoms):
            value = evaluate(sigma, dict(truth))
            members = frozenset(f for f in sigma if value[f])
            if judge(members) is not Judgment.INCONSISTENT:
                out.append(maximal_set(sigma, members))
            return
        if judge(frozenset(literals)) is Judgment.INCONSISTENT:
            return
        atom = atoms[i]
        for sign in (-1, 0):  # true, false
            truth[atom] = sign
            literals.append(atom if sign else Neg(atom))
            descend(i + 1)
            literals.pop()
        del truth[atom]

    descend(0)
    return tuple(out)


def sorted_keys(sigma, sets):
    return sorted(set_key(sigma, m) for m in sets)


def use_reference(monkeypatch):
    """Swaps the paper's domain in for the lean one inside the canonical
    construction for the rest of the test."""
    monkeypatch.setattr(sgcl.canonical, "action_domain", reference_action_domain)


def coal(agents, p, body):
    return Coal(frozenset(agents), F(p), body)


v = Var("v")


class DecodingOracle:
    """An oracle over the masks of the closure ``sigma`` that decodes each
    mask and judges its members by the subclass's ``rule``, an oracle on
    sets of formulas, which the reference enumerators take as it is."""

    def __init__(self, sigma):
        self.sigma = sigma

    def judge(self, mask):
        return self.rule(members(self.sigma, mask))


class NoV(DecodingOracle):
    """The default oracle, stricter: a set holding v is inconsistent."""

    @staticmethod
    def rule(candidate):
        if v in candidate:
            return Judgment.INCONSISTENT
        return reference_judge(candidate)


class NoImplication(DecodingOracle):
    """The default oracle, stricter: a set holding an implication is
    inconsistent."""

    @staticmethod
    def rule(candidate):
        if any(isinstance(f, Impl) for f in candidate):
            return Judgment.INCONSISTENT
        return reference_judge(candidate)


def judged(*held):
    """The compiled oracle's judgment, over the closure of ``held``, of
    the mask holding exactly those formulas: every other modality of the
    closure is denied."""
    sigma = closure(held)
    return HintikkaOracle(sigma).judge(maximal_set(sigma, held))


class TestOracle:
    def test_falsehood_at_positive_threshold(self):
        assert judged(coal({"a"}, "1/2", Bot())) is Judgment.INCONSISTENT

    def test_falsehood_at_zero_threshold_allowed(self):
        assert judged(coal({"a"}, 0, Bot())) is Judgment.CONSISTENT

    def test_threshold_weakening_denied(self):
        held = coal({"a"}, "1/2", v), Neg(coal({"a"}, "1/4", v))
        assert judged(*held) is Judgment.INCONSISTENT

    def test_coalition_weakening_denied(self):
        held = coal({"a"}, "1/4", v), Neg(coal({"a", "b"}, "1/4", v))
        assert judged(*held) is Judgment.INCONSISTENT

    def test_cooperation_conclusion_denied(self):
        u = Var("u")
        held = (
            coal({"a"}, "1/2", Impl(v, u)),
            coal({"b"}, "3/4", v),
            Neg(coal({"a", "b"}, "3/4", u)),
        )
        assert judged(*held) is Judgment.INCONSISTENT

    def test_cooperation_needs_disjoint_coalitions(self):
        u = Var("u")
        held = (
            coal({"a"}, "1/2", Impl(v, u)),
            coal({"a"}, "3/4", v),
            Neg(coal({"a"}, "3/4", u)),
        )
        assert judged(*held) is Judgment.CONSISTENT

    def test_unrelated_modal_literals_consistent(self):
        assert judged(coal({"a"}, "1/2", v), Neg(v)) is Judgment.CONSISTENT


class TestEnumerateMaximalSets:
    @pytest.mark.parametrize(
        "seed, count",
        [
            ("~v", 2),
            ("[a]_1/2 false", 1),
            ("[a]_1/2 v", 4),
            ("([a]_1/4 v -> [a,b]_1/4 v)", 6),
        ],
    )
    def test_counts(self, seed, count):
        assert len(enumerate_maximal_sets(closure([parse(seed)]))) == count

    def test_members_for_single_variable(self):
        sig = closure([parse("~v")])
        sets = {members(sig, m) for m in enumerate_maximal_sets(sig)}
        assert sets == {frozenset({v}), frozenset({Neg(v)})}

    def test_modal_literal_free_over_variable(self):
        box = coal({"a"}, "1/2", v)
        sig = closure([box])
        sets = {members(sig, m) for m in enumerate_maximal_sets(sig)}
        assert sets == {
            frozenset({v, box}),
            frozenset({v, Neg(box)}),
            frozenset({Neg(v), box}),
            frozenset({Neg(v), Neg(box)}),
        }

    def test_falsehood_survivor(self):
        sig = closure([parse("[a]_1/2 false")])
        (only,) = enumerate_maximal_sets(sig)
        assert members(sig, only) == frozenset({Neg(Bot()), Neg(coal({"a"}, "1/2", Bot()))})

    def test_every_formula_decided(self):
        sig = closure([parse("([a]_1/4 v -> [a,b]_1/4 v)")])
        for m in enumerate_maximal_sets(sig):
            s = members(sig, m)
            for f in sig:
                if not isinstance(f, Neg):
                    assert (f in s) != (Neg(f) in s)

    def test_cap_enforced(self):
        sig = closure([parse("([a]_1/4 v -> [a,b]_1/4 v)")])
        with pytest.raises(ClosureCapError):
            enumerate_maximal_sets(sig, cap=4)

    def test_stricter_oracle_never_adds_states(self):
        sig = closure([parse("[a]_1/2 v")])
        assert len(enumerate_maximal_sets(sig, oracle=NoV(sig))) <= len(
            enumerate_maximal_sets(sig)
        )


class TestActionDomain:
    def test_values_harvested_with_sentinels(self):
        sig = closure([parse("[a]_1/2 v")])
        dom = reference_action_domain(sig)
        values = {p for _, p in dom}
        assert values == {F(-1), F(0), F(1, 2)}
        assert action_domain(sig) == ((v, F(1, 2)), OPT_OUT)

    def test_no_modalities_means_sentinel_values_only(self):
        sig = closure([parse("~v")])
        dom = reference_action_domain(sig)
        assert {p for _, p in dom} == {F(-1), F(0)}
        assert action_domain(sig) == ((TOP, F(-1)),)

    def test_top_always_requestable(self):
        dom = action_domain(closure([parse("~v")]))
        assert (TOP, -1) in dom

    def test_action_id_format(self):
        game, _ = build_canonical_game(closure([parse("[a]_1/2 v")]))
        assert game.actions == ("(v,1/2)", "(true,-1)")

    def test_one_request_per_nonempty_coalition_modality(self):
        sig = closure([parse("([a]_1/4 v -> ([a,b]_1/4 v -> []_1/2 v))")])
        # [a]_1/4 v and [a,b]_1/4 v ask for the same request; the
        # empty-coalition modality needs none
        assert action_domain(sig) == ((v, F(1, 4)), OPT_OUT)

    def test_lean_domain_is_part_of_reference(self):
        for seed in SEEDS:
            sig = closure([parse(seed)])
            assert set(action_domain(sig)) <= set(reference_action_domain(sig))


class TestTransitionData:
    def make_set(self, *held):
        return frozenset(held)

    # the reference grant rule itself

    def test_mu_defaults_to_zero(self):
        s = self.make_set(v)
        assert reference_mu(s, {"a": OPT_OUT}) == 0

    def test_mu_singleton_match(self):
        box = coal({"a"}, "1/2", v)
        s = self.make_set(v, box)
        assert reference_mu(s, {"a": (v, F(1, 2))}) == F(1, 2)

    def test_mu_requires_exact_request(self):
        box = coal({"a"}, "1/2", v)
        s = self.make_set(v, box)
        assert reference_mu(s, {"a": (v, F(1, 4))}) == 0

    def test_mu_max_over_matches(self):
        u = Var("u")
        low, high = coal({"a"}, "1/4", v), coal({"a"}, "3/4", u)
        s = self.make_set(low, high)
        assert reference_mu(s, {"a": (u, F(3, 4))}) == F(3, 4)

    def test_mu_empty_coalition_matches_everything(self):
        box = coal((), "9/10", v)
        s = self.make_set(box)
        assert reference_mu(s, {"a": OPT_OUT}) == F(9, 10)

    def test_targets_unconstrained_when_nothing_granted(self):
        all_sets = {"s0": self.make_set(v), "s1": self.make_set(Neg(v))}
        s = self.make_set(v)
        assert reference_targets(s, {"a": OPT_OUT}, all_sets) == ["s0", "s1"]

    def test_targets_filter_on_granted_body(self):
        box = coal({"a"}, "1/2", v)
        with_v, without_v = self.make_set(v, box), self.make_set(Neg(v), box)
        s = self.make_set(v, box)
        profile = {"a": (v, F(1, 2))}
        assert reference_targets(
            s, profile, {"s0": with_v, "s1": without_v}) == ["s0"]

    # rows of the constructed game, read through its states

    def build(self, text, oracle=None):
        """The game of the closure of ``text``, its diagnostics and each
        state's members; ``oracle``, when given, is an oracle class."""
        sig = closure([parse(text)])
        game, diag = build_canonical_game(sig, oracle=oracle and oracle(sig))
        named = {name: members(sig, m) for name, m in diag.sets.items()}
        return game, diag, named

    def test_probability_shared_uniformly(self):
        game, _, named = self.build("[a]_1/2 v")
        box = coal({"a"}, "1/2", v)
        grant = ActionProfile.of({"a": "(v,1/2)"})
        for state, members in named.items():
            row = profile_row(game, state, grant)
            if box in members:
                assert row == {
                    **{t: F(1, 4) for t, m in named.items() if v in m},
                    "f": F(1, 2),
                }
            else:
                assert row == {"f": F(1)}

    def test_probability_failure_self_loop(self):
        game, _, _ = self.build("[a]_1/2 v")
        rows = [game.rows[i] for (state, _), i in game.transitions.items()
                if state == "f"]
        assert len(rows) == len(game.actions)
        assert all(row == {"f": F(1)} for row in rows)

    def test_probability_outside_target_set(self):
        game, _, named = self.build("[a]_1/2 v")
        grant = ActionProfile.of({"a": "(v,1/2)"})
        box = coal({"a"}, "1/2", v)
        for state, members in named.items():
            if box in members:
                row = profile_row(game, state, grant)
                assert all(v in named[t] for t in row if t != "f")

    def test_probability_guard_routes_to_failure(self):
        game, diag, named = self.build("[a]_1/2 v", oracle=NoV)
        grant = ActionProfile.of({"a": "(v,1/2)"})
        box = coal({"a"}, "1/2", v)
        granting = sorted(s for s, m in named.items() if box in m)
        assert granting
        for state in granting:
            assert profile_row(game, state, grant) == {"f": F(1)}
        assert diag.guard_pairs == [(s, {"a": "(v,1/2)"}) for s in granting]

    def test_granting_nothing_sends_everything_to_failure(self):
        game, _, named = self.build("[a]_1/2 v")
        opt_out = ActionProfile.of({"a": "(true,-1)"})
        for state in named:
            assert profile_row(game, state, opt_out) == {"f": F(1)}


SEEDS = ["v", "~v", "[a]_1/2 v", "[a]_1/2 false", "([a]_1/4 v -> [a,b]_1/4 v)"]


class TestBuildCanonicalGame:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_validates_with_no_guards(self, seed):
        game, diag = build_canonical_game(closure([parse(seed)]))
        assert validate(game) == []
        assert diag.guard_pairs == []
        assert not diag.no_consistent_sets

    def test_nonfailure_mass_bounded_by_mu(self):
        sig = closure([parse("([a]_1/4 v -> [a,b]_1/4 v)")])
        game, _ = build_canonical_game(sig)
        agents = tuple(sorted(sig.agents()))
        sets = sorted(enumerate_maximal_sets(sig), key=partial(set_key, sig))
        for i, m in enumerate(sets):
            s = members(sig, m)
            for combo in product(action_domain(sig), repeat=len(agents)):
                profile = dict(zip(agents, combo))
                game_profile = ActionProfile.of(
                    {a: reference_action_id(r) for a, r in profile.items()}
                )
                row = profile_row(game, f"s{i}", game_profile)
                nonfailure = sum(
                    (p for t, p in row.items() if t != "f"), start=F(0)
                )
                assert nonfailure <= reference_mu(s, profile)

    @pytest.mark.parametrize("seed", SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"])
    def test_rows_with_equal_granted_sets_are_one_object(self, seed):
        sig = closure([parse(seed)])
        game, _ = build_canonical_game(sig)
        agents = tuple(sorted(sig.agents()))
        sets = sorted(enumerate_maximal_sets(sig), key=partial(set_key, sig))
        row_of = {}  # granted set -> the index of the one row built for it
        for i, m in enumerate(sets):
            s = members(sig, m)
            for combo in product(action_domain(sig), repeat=len(agents)):
                profile = dict(zip(agents, combo))
                granted = reference_granted(s, profile)
                index = profile_row_index(game, f"s{i}", ActionProfile.of(
                    {a: reference_action_id(r) for a, r in profile.items()}))
                assert row_of.setdefault(granted, index) == index
        assert len(set(row_of.values())) == len(row_of)
        failure_rows = {i for (state, _), i in game.transitions.items()
                        if state == "f"}
        assert len(failure_rows) == 1
        assert len(game.rows) == len(row_of) + 1

    def test_rows_uniform_over_targets(self):
        game, _ = build_canonical_game(closure([parse("[a]_1/2 v")]))
        for row in game.rows:
            spread = {p for t, p in row.items() if t != "f" and p > 0}
            assert len(spread) <= 1

    def test_state_names_and_members_reported(self, monkeypatch):
        game, diag = build_canonical_game(closure([parse("~v")]))
        assert set(game.states) == {"s0", "s1", "f"}
        assert diag.state_members["s0"] == ["v"]
        assert diag.state_members["s1"] == ["~v"]
        assert diag.state_count == 2 and diag.action_count == 1
        assert list(diag.sets) == ["s0", "s1"]
        use_reference(monkeypatch)
        _, paper = build_canonical_game(closure([parse("~v")]))
        assert paper.state_count == 2 and paper.action_count == 6

    def test_two_requests_for_one_modality(self):
        _, diag = build_canonical_game(closure([parse("[a]_1/2 v")]))
        assert diag.action_count == 2
        assert diag.profile_count == 2

    def test_valuation_tracks_membership(self):
        game, diag = build_canonical_game(closure([parse("[a]_1/2 v")]))
        expected = {
            name for name, members in diag.state_members.items() if "v" in members
        }
        assert game.valuation["v"] == frozenset(expected)

    def test_plus_system_rejects_empty_coalition(self):
        with pytest.raises(CanonicalError):
            build_canonical_game(
                closure([parse("[]_1/2 v")]), system=SystemId.LPLUS
            )

    def test_plus_system_accepts_restricted_closure(self):
        game, diag = build_canonical_game(
            closure([parse("[a]_1/2 v")]), system=SystemId.LPLUS
        )
        assert validate(game) == [] and diag.state_count == 4

    def test_reject_all_oracle_leaves_only_failure(self):
        class RejectAll:
            def judge(self, mask):
                return Judgment.INCONSISTENT

        game, diag = build_canonical_game(closure([parse("~v")]), oracle=RejectAll())
        assert diag.no_consistent_sets
        assert game.states == ("f",) and validate(game) == []

    def test_diagnostics_dict_round_trips_to_json(self):
        import json

        _, diag = build_canonical_game(closure([parse("[a]_1/2 v")]))
        blob = json.loads(json.dumps(diag.to_dict()))
        assert blob["states"] == 4 and blob["guard_pairs"] == []


class TestTruthLemmaAudit:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_membership_matches_truth(self, seed):
        sig = closure([parse(seed)])
        game, diag = build_canonical_game(sig)
        report = audit_truth_lemma(game, sig, diag.sets)
        assert report.clean, report.disagreements
        assert report.checked == len(enumerate_maximal_sets(sig)) * len(sig)

    def test_empty_coalition_closure_audits_clean(self):
        sig = closure([parse("[]_1/2 v")])
        game, diag = build_canonical_game(sig)
        assert diag.guard_pairs == []
        assert audit_truth_lemma(game, sig, diag.sets).clean

    def test_falsehood_denial_everywhere(self):
        sig = closure([parse("[a]_1/2 false")])
        game, diag = build_canonical_game(sig)
        denial = Neg(coal({"a"}, "1/2", Bot()))
        assert all(denial in members(sig, m) for m in diag.sets.values())
        assert audit_truth_lemma(game, sig, diag.sets).clean

    def test_zero_threshold_blind_spot_is_measured(self):
        # [a]_0 v holds vacuously wherever all outgoing mass reaches the
        # failure state, so states denying it must show up as audited
        # disagreements rather than being silently wrong
        sig = closure([parse("[a]_0 v")])
        game, diag = build_canonical_game(sig)
        report = audit_truth_lemma(game, sig, diag.sets)
        denial = Neg(coal({"a"}, 0, v))
        deniers = {
            name for name, m in diag.sets.items() if denial in members(sig, m)
        }
        assert len(deniers) == 2
        # each denying state disagrees on the modality and, mirrored, on
        # its negation; no other formula is affected
        assert {d["state"] for d in report.disagreements} == deniers
        assert len(report.disagreements) == 2 * len(deniers)
        for d in report.disagreements:
            if d["formula"] == "[a]_0 v":
                assert d["holds"] and not d["member"]
            else:
                assert d["formula"] == "~[a]_0 v"
                assert d["member"] and not d["holds"]

    def test_disagreements_carry_location(self):
        sig = closure([parse("~v")])
        game, diag = build_canonical_game(sig)
        # sabotage the valuation so membership and truth split on purpose
        broken = type(game).__new__(type(game))
        broken.__dict__.update(game.__dict__)
        broken.valuation = {"v": frozenset()}
        report = audit_truth_lemma(broken, sig, diag.sets)
        assert not report.clean
        hit = report.disagreements[0]
        assert set(hit) == {"state", "formula", "member", "holds"}


# the paper-faithful classify takes about 12 s over the whole corpus, so
# the differential check reads every third formula
CORPUS_STRIDE = 3


class TestLeanMatchesReference:
    """The lean domain against the paper's: the same states, the same
    rows up to replacing unmatched requests by the opt-out, the same
    verdicts and the same audits."""

    @pytest.mark.parametrize("seed", SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"])
    def test_rows_factor_through_projection(self, seed, monkeypatch):
        sig = closure([parse(seed)])
        lean, lean_diag = build_canonical_game(sig)
        use_reference(monkeypatch)
        paper, paper_diag = build_canonical_game(sig)
        assert paper_diag.state_members == lean_diag.state_members
        assert paper.states == lean.states
        assert paper.valuation == lean.valuation
        assert len(paper.actions) > len(lean.actions)
        kept = set(lean.actions)

        def project(profile):
            return ActionProfile(tuple(
                (a, x if x in kept else "(true,-1)")
                for a, x in profile.assignment
            ))

        for (state, profile), i in paper.transitions.items():
            assert paper.rows[i] == profile_row(lean, state, project(profile))
        assert_rows_follow_grant_rule(paper, paper_diag, reference_action_domain(sig))

    def test_corpus_verdicts_and_refuting_states(self, monkeypatch):
        corpus = acceptance_corpus()
        assert len(corpus) == 793
        sample = corpus[::CORPUS_STRIDE]
        lean = [classify(f) for f in sample]
        use_reference(monkeypatch)
        for f, got in zip(sample, lean):
            want = classify(f)
            assert type(got) is type(want), render(f)
            if isinstance(want, Refuted):
                assert got.state == want.state, render(f)

    def test_zero_threshold_disagreements_unchanged(self, monkeypatch):
        sig = closure([parse("[a]_0 v")])
        lean, lean_diag = build_canonical_game(sig)
        lean_report = audit_truth_lemma(lean, sig, lean_diag.sets)
        use_reference(monkeypatch)
        paper, paper_diag = build_canonical_game(sig)
        paper_report = audit_truth_lemma(paper, sig, paper_diag.sets)
        assert lean_report.disagreements == paper_report.disagreements
        assert len(lean_report.disagreements) == 4



# seeds of closures with 20, 22, 26 and 24 formulas; the last is the
# negation of a two-agent formula and has 128 maximal sets
WIDE_SEEDS = [
    "~((~(w -> w) -> v) -> (u -> (u -> []_3/4 (u -> v))))",
    "[]_1/4 ~(((w -> ~v) -> ([]_3/4 w -> u)) -> ((~w -> u) -> w))",
    "[]_1/4 []_1/4 ([]_1/2 ((w -> w) -> v)"
    " -> (((u -> v) -> (u -> v)) -> (v -> v)))",
    "~(([a]_1/2 u -> [b]_1/2 v) -> ([a,b]_1/2 (u -> w) -> [a]_0 (v -> w)))",
]

LABELED_SEEDS = SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"] + WIDE_SEEDS


class TestAtomEnumerationMatchesReference:
    """Branching on atoms against a sign for every formula with a truth
    table at every node: the same maximal sets."""

    @pytest.mark.parametrize(
        "seed", SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"] + WIDE_SEEDS
    )
    def test_same_sets(self, seed):
        sig = closure([parse(seed)])
        assert sorted_keys(sig, enumerate_maximal_sets(sig, cap=26)) == sorted_keys(
            sig, reference_maximal_sets(sig)
        )

    def test_corpus_negation_closures(self):
        for f in acceptance_corpus()[::CORPUS_STRIDE]:
            sig = closure([Neg(f)])
            assert sorted_keys(sig, enumerate_maximal_sets(sig)) == sorted_keys(
                sig, reference_maximal_sets(sig)
            ), render(f)

    def test_leaf_judgment_sees_whole_sets(self):
        # an implication is never an atom, so only the judgment of a
        # complete set can reject it
        box = coal({"a"}, "1/2", v)
        sig = closure([Impl(v, box)])
        (only,) = enumerate_maximal_sets(sig, oracle=NoImplication(sig))
        assert members(sig, only) == frozenset({v, Neg(box), Neg(Impl(v, box))})
        assert reference_maximal_sets(sig, NoImplication.rule) == (only,)


POOLS = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def pool_formulas():
    """The formulas of the bench's coalition and canonical pools, read
    from their recorded files."""
    out = []
    for name in ("coalition_pool.json", "canonical_pool.json"):
        entries = json.loads((POOLS / name).read_text(encoding="utf-8"))
        out += [entry["formula"] for entry in entries]
    return out


def pool_closures():
    """The closures of the 180 pool formulas, as the bench builds them."""
    return [closure([parse(text)]) for text in pool_formulas()]


# the enumerator's oracle (None for the default, compiled one, else a
# class over a closure's masks) and the reference enumerator's rule on
# sets of formulas
ORACLES = {
    "default": (None, reference_judge),
    "no-v": (NoV, NoV.rule),
    "no-implication": (NoImplication, NoImplication.rule),
}


class TestIncrementalMatchesLiteralPruning:
    """The enumerator against the one that judged every partial literal
    set: the same tuple of sets, in the same order, under each oracle."""

    @pytest.mark.parametrize("oracle, rule", ORACLES.values(), ids=list(ORACLES))
    def test_seed_and_corpus_closures(self, oracle, rule):
        closures = [(seed, closure([parse(seed)])) for seed in LABELED_SEEDS]
        closures += [(render(Neg(f)), closure([Neg(f)])) for f in acceptance_corpus()]
        assert len(closures) == 803
        for text, sig in closures:
            assert enumerate_maximal_sets(sig, oracle and oracle(sig), cap=26) == (
                literal_pruning_maximal_sets(sig, rule)), text

    @pytest.mark.parametrize("oracle, rule", ORACLES.values(), ids=list(ORACLES))
    def test_pool_closures(self, oracle, rule):
        texts = pool_formulas()
        assert len(texts) == 180
        for text in texts:
            sig = closure([parse(text)])
            assert enumerate_maximal_sets(sig, oracle and oracle(sig), cap=32) == (
                literal_pruning_maximal_sets(sig, rule)), text


class RecordingOracle:
    """The default oracle of the closure ``sigma``, keeping every mask it
    is asked to judge."""

    def __init__(self, sigma):
        self.base = HintikkaOracle(sigma)
        self.candidates = []

    def judge(self, mask):
        self.candidates.append(mask)
        return self.base.judge(mask)


class TestOracleContract:
    """The oracle judges each complete set once: one candidate per
    assignment of the closure's atoms, in enumeration order, and the
    result is exactly the candidates it accepts."""

    def closures(self):
        return [closure([parse(seed)]) for seed in LABELED_SEEDS] + [
            closure([Neg(f)]) for f in acceptance_corpus()[::CORPUS_STRIDE]]

    def test_one_judgment_per_assignment_in_order(self):
        for sig in self.closures():
            atoms = [f for f in sig if isinstance(f, (Var, Coal))]
            oracle = RecordingOracle(sig)
            sets = enumerate_maximal_sets(sig, oracle, cap=26)
            candidates = [members(sig, m) for m in oracle.candidates]
            assert [tuple(a in c for a in atoms) for c in candidates] == (
                list(product((True, False), repeat=len(atoms))))
            assert sets == tuple(
                m for m in oracle.candidates
                if oracle.base.judge(m) is not Judgment.INCONSISTENT)

    def test_every_candidate_is_complete(self):
        # so a set never holds a formula beside its negation, nor false,
        # and the oracle needs no rule for either
        for sig in self.closures():
            oracle = RecordingOracle(sig)
            enumerate_maximal_sets(sig, oracle, cap=26)
            decided = [f for f in sig if not isinstance(f, Neg)]
            for m in oracle.candidates:
                assert 0 <= m < 1 << len(sig)
                c = members(sig, m)
                assert all((f in c) != (Neg(f) in c) for f in decided), c


def assert_oracle_matches_reference(closures):
    """The compiled oracle against the whole-candidate scan on every
    complete candidate the enumerator hands it; returns the number of
    candidates and of inconsistent ones."""
    candidates = inconsistent = 0
    for sig in closures:
        oracle = RecordingOracle(sig)
        enumerate_maximal_sets(sig, oracle, cap=32)
        for m in oracle.candidates:
            c = members(sig, m)
            want = reference_judge(c)
            assert oracle.base.judge(m) is want, sorted(map(render, c))
            candidates += 1
            inconsistent += want is Judgment.INCONSISTENT
    return candidates, inconsistent


def cooperation_closures():
    """The negation closures of the two cooperation shapes, one agent
    beside another and one beside the empty coalition, at every
    p, q, r in {0, 1/2, 1}: 27 two-agent closures, then 27 one-agent."""
    shapes = ("([a]_{p} (u -> w) -> ([b]_{q} u -> [a,b]_{r} w))",
              "([a]_{p} (u -> w) -> ([]_{q} u -> [a]_{r} w))")
    grid = ("0", "1/2", "1")
    return [closure([Neg(parse(shape.format(p=p, q=q, r=r)))])
            for shape in shapes for p, q, r in product(grid, repeat=3)]


class TestOracleMatchesReference:
    """The compiled oracle against the whole-candidate scan: the same
    judgment on every complete candidate the enumerator hands it."""

    def test_complete_candidates(self):
        # the seed, corpus negation and pool closures
        closures = [closure([parse(seed)]) for seed in LABELED_SEEDS]
        closures += [closure([Neg(f)]) for f in acceptance_corpus()]
        closures += pool_closures()
        # 266 seed, 15 562 corpus and pool candidates
        assert assert_oracle_matches_reference(closures) == (15828, 495)

    def test_cooperation_closures(self):
        # no seed, corpus or pool closure has a set that only the
        # cooperation rule rejects; these do, on the two-agent half
        closures = cooperation_closures()
        assert len(closures) == 54
        assert_oracle_matches_reference(closures)
        counts = [len(enumerate_maximal_sets(sig)) for sig in closures]
        assert (sum(counts[:27]), sum(counts[27:])) == (776, 776)


class TestBuiltGamesAreSound:
    """The builder hands its row table to the constructor unvalidated:
    its games must validate and survive the JSON round trip."""

    @pytest.mark.parametrize(
        "seed", SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"] + WIDE_SEEDS
    )
    def test_seed_closures(self, seed, builder_output):
        game, _ = build_canonical_game(closure([parse(seed)]), cap=26)
        builder_output(game)

    def test_corpus_negation_closures(self, builder_output):
        for f in acceptance_corpus()[::CORPUS_STRIDE]:
            game, _ = build_canonical_game(closure([Neg(f)]))
            builder_output(game)


def assert_rows_follow_grant_rule(game, diag, domain):
    """Every row of a built game against the paper's grant rule: the row
    of each state of ``diag.sets`` under each profile over ``domain``,
    entries in order, and the guard pairs, in product order."""
    agents = tuple(sorted(diag.closure.agents()))
    assert game.agents == agents
    assert game.actions == tuple(map(reference_action_id, domain))
    named = {name: members(diag.closure, m) for name, m in diag.sets.items()}
    assert diag.state_members == {
        name: [text for f, text in diag.closure.texts.items() if f in s]
        for name, s in named.items()
    }
    guards = []
    for name, s in named.items():
        for combo in product(domain, repeat=len(agents)):
            profile = dict(zip(agents, combo))
            ids = {a: reference_action_id(r) for a, r in profile.items()}
            row, guarded = reference_row(s, profile, named)
            got = profile_row(game, name, ActionProfile.of(ids))
            assert list(got.items()) == list(row.items()), (name, ids)
            if guarded:
                guards.append((name, ids))
    assert diag.guard_pairs == guards
    return len(guards)


class TestRowsFollowGrantRule:
    """The builder grants by comparing action indices; the reference
    compares each member's (formula, threshold) request with the
    modality's.  Every row of every built game must agree."""

    @pytest.mark.parametrize(
        "seed", SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"] + WIDE_SEEDS
    )
    def test_seed_closures(self, seed):
        sig = closure([parse(seed)])
        game, diag = build_canonical_game(sig, cap=26)
        assert_rows_follow_grant_rule(game, diag, action_domain(sig))

    def test_corpus_negation_closures(self):
        guarded = 0
        for sig in corpus_negation_closures():
            game, diag = build_canonical_game(sig)
            guarded += assert_rows_follow_grant_rule(game, diag, action_domain(sig))
        assert guarded > 0

    def test_pool_closures(self):
        # the coalition pool's two-agent closures, some with guard pairs
        guarded = 0
        for sig in pool_closures():
            game, diag = build_canonical_game(sig, cap=32)
            guarded += assert_rows_follow_grant_rule(game, diag, action_domain(sig))
        assert guarded > 0

    def test_guarded_pairs(self):
        sig = closure([parse("([a]_1/2 v -> [a,b]_3/4 v)")])
        game, diag = build_canonical_game(sig, oracle=NoV(sig))
        assert assert_rows_follow_grant_rule(game, diag, action_domain(sig)) > 0


# ---------------------------------------------------------------------------
# hashes and agent sets cached on formula nodes


@dataclass(frozen=True)
class RefVar:
    name: str


@dataclass(frozen=True)
class RefBot:
    pass


@dataclass(frozen=True)
class RefNeg:
    body: object


@dataclass(frozen=True)
class RefImpl:
    left: object
    right: object


@dataclass(frozen=True)
class RefCoal:
    coalition: frozenset
    p: Fraction
    body: object


def reference_node(f):
    """A mirror of f built from dataclasses with the generated hash,
    which re-hashes the whole subtree on every call."""
    if isinstance(f, Var):
        return RefVar(f.name)
    if isinstance(f, Bot):
        return RefBot()
    if isinstance(f, Neg):
        return RefNeg(reference_node(f.body))
    if isinstance(f, Impl):
        return RefImpl(reference_node(f.left), reference_node(f.right))
    return RefCoal(f.coalition, f.p, reference_node(f.body))


def reference_agents_of(f):
    """Agents of f by walking every subformula."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, Coal):
            out |= g.coalition
    return frozenset(out)


def corpus_and_closure_formulas():
    """The corpus, and every member of the closures of the seeds, the
    two-agent seed and the wide seeds, with all their subformulas."""
    out = set()
    seeds = SEEDS + ["([a]_1/2 v -> [a,b]_3/4 v)"] + WIDE_SEEDS
    for f in acceptance_corpus() + [
        g for seed in seeds for g in closure([parse(seed)])
    ]:
        out |= subformulas(f)
    return sorted(out, key=canonical_key)


class TestCachedNodeData:
    """The hash and agent set cached on each node against the generated
    dataclass hash and the subformula walk they replace."""

    def test_hash_equals_generated_hash(self):
        for f in corpus_and_closure_formulas():
            assert hash(f) == hash(reference_node(f)), render(f)

    def test_agents_equal_subformula_walk(self):
        formulas = corpus_and_closure_formulas()
        assert any(len(agents_of(f)) == 2 for f in formulas)
        for f in formulas:
            assert agents_of(f) == reference_agents_of(f), render(f)

    def test_sets_iterate_in_generated_hash_order(self):
        formulas = corpus_and_closure_formulas()
        cached = [reference_node(f) for f in set(formulas)]
        generated = list({reference_node(f) for f in formulas})
        assert cached == generated


class TestClosureVariables:
    """A closure is subformula-closed, so its variables are its own
    ``Var`` members: the same names as a walk of every member."""

    def test_members_equal_subformula_walk(self):
        closures = [closure([Neg(f)]) for f in acceptance_corpus()] + [
            closure([parse(seed)]) for seed in WIDE_SEEDS]
        assert any(len(sig.variables()) == 3 for sig in closures)
        for sig in closures:
            walked = {g.name for f in sig for g in subformulas(f)
                      if isinstance(g, Var)}
            assert sig.variables() == walked


class TestTautologyMatchesTruthTable:
    def test_corpus_and_closure_formulas(self):
        formulas = corpus_and_closure_formulas()
        assert any(is_tautology(f) for f in formulas)
        for f in formulas:
            assert is_tautology(f) == (not reference_satisfiable([Neg(f)])), render(f)


# ---------------------------------------------------------------------------
# the labeled truth audit and the closure's stored renderings


def reference_audit(game, sigma, sets):
    """The truth-lemma audit as one lazy ``holds`` query per (state,
    formula), rendering each disagreeing formula: the labeled
    :func:`audit_truth_lemma` is checked against it."""
    report = TruthLemmaReport()
    ctx = CheckContext(game)
    for name, m in sets.items():
        s = members(sigma, m)
        for f in sigma:
            member = f in s
            truth = holds(game, name, f, ctx)
            report.checked += 1
            if member != truth:
                report.disagreements.append(
                    {"state": name, "formula": render(f),
                     "member": member, "holds": truth}
                )
    return report


def assert_labeled_audit_matches(game, sig, sets):
    """label against holds at every (state, formula), with the same
    profile evaluations, and the audit against the reference loop."""
    labeled, lazy = CheckContext(game), CheckContext(game)
    masks = label(game, sig.formulas, labeled)
    for i, name in enumerate(game.nonfailure_states):
        for f in sig:
            assert (masks[f] >> i & 1 == 1) == holds(game, name, f, lazy), (
                name, render(f))
    assert labeled.profile_evals == lazy.profile_evals
    report = audit_truth_lemma(game, sig, sets)
    assert report == reference_audit(game, sig, sets)
    return report


def corpus_negation_closures():
    return [closure([Neg(f)]) for f in acceptance_corpus()[::CORPUS_STRIDE]]


class TestLabeledAuditMatchesReference:
    @pytest.mark.parametrize("seed", LABELED_SEEDS)
    def test_seed_closures(self, seed):
        sig = closure([parse(seed)])
        game, diag = build_canonical_game(sig, cap=26)
        assert_labeled_audit_matches(game, sig, diag.sets)

    def test_corpus_negation_closures(self):
        unclean = 0
        for sig in corpus_negation_closures():
            game, diag = build_canonical_game(sig)
            unclean += not assert_labeled_audit_matches(game, sig, diag.sets).clean
        # the zero-threshold blind spot shows in some of them
        assert unclean > 0

    def test_pool_closures(self):
        unclean = 0
        for sig in pool_closures():
            game, diag = build_canonical_game(sig, cap=32)
            unclean += not assert_labeled_audit_matches(game, sig, diag.sets).clean
        assert unclean > 0

    def test_zero_threshold_blind_spot(self):
        sig = closure([parse("[a]_0 v")])
        game, diag = build_canonical_game(sig)
        report = assert_labeled_audit_matches(game, sig, diag.sets)
        assert len(report.disagreements) == 4

    def test_sabotaged_valuation(self):
        sig = closure([parse("~v")])
        game, diag = build_canonical_game(sig)
        broken = type(game).__new__(type(game))
        broken.__dict__.update(game.__dict__)
        broken.valuation = {"v": frozenset()}
        report = assert_labeled_audit_matches(broken, sig, diag.sets)
        assert [(d["state"], d["formula"]) for d in report.disagreements] == [
            ("s0", "v"), ("s0", "~v")]

    def test_sets_in_another_order(self):
        # disagreements follow the order of the sets given, not the game's
        sig = closure([parse("[a]_0 v")])
        game, diag = build_canonical_game(sig)
        backwards = dict(reversed(list(diag.sets.items())))
        report = assert_labeled_audit_matches(game, sig, backwards)
        states = [d["state"] for d in report.disagreements]
        assert states == sorted(states, reverse=True) and len(states) == 4

    def test_failure_state_is_refused(self):
        sig = closure([parse("~v")])
        game, diag = build_canonical_game(sig)
        with pytest.raises(CheckError):
            audit_truth_lemma(game, sig, {"f": diag.sets["s0"]})


class TestRenderOnce:
    """The closure renders each member once; state order, state members,
    action order and action ids all read those texts."""

    def seed_closures(self):
        return [closure([parse(seed)]) for seed in LABELED_SEEDS]

    def test_texts_are_renderings(self):
        closures = self.seed_closures() + [
            closure([Neg(f)]) for f in acceptance_corpus()]
        for sig in closures:
            assert list(sig.texts) == list(sig.formulas)
            assert all(text == render(f) for f, text in sig.texts.items())

    def test_texts_do_not_count_for_equality(self):
        sig = closure([parse("[a]_1/2 v")])
        assert "texts" not in repr(sig)
        assert sig == closure([parse("[a]_1/2 v")])
        assert hash(sig) == hash(closure([parse("[a]_1/2 v")]))

    def test_state_order_members_and_action_ids(self):
        for sig in self.seed_closures() + corpus_negation_closures():
            game, diag = build_canonical_game(sig, cap=26)
            expected = sorted(enumerate_maximal_sets(sig, cap=26), key=partial(set_key, sig))
            assert list(diag.sets.values()) == expected
            assert diag.state_members == {
                name: [render(f) for f in sorted(members(sig, m), key=canonical_key)]
                for name, m in diag.sets.items()
            }
            domain = action_domain(sig)
            assert list(domain) == sorted(
                domain, key=lambda r: (canonical_key(r[0]), r[1]))
            assert game.actions == tuple(map(reference_action_id, domain))

    def test_opt_out_outside_the_closure(self):
        sig = closure([parse("v")])
        assert TOP not in sig
        game, _ = build_canonical_game(sig)
        assert game.actions == ("(true,-1)",)
