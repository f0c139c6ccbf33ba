"""Acceptance gate: the six end-to-end checks the package promises.

Each test prints one PASS line (visible under ``pytest -s``) after its
assertions succeed, so a full run reads as a checklist.  Tolerances are
exact equality throughout; probabilities are rationals, never floats.
"""

import itertools
import random
import time
from fractions import Fraction

from sgcl.canonical import (
    action_domain,
    audit_truth_lemma,
    build_canonical_game,
    default_oracle,
    enumerate_maximal_sets,
)
from sgcl.decide import QUARTER_GRID, Refuted, SearchBounds, classify, incompleteness_demo, sample_game
from sgcl.formula import (
    TOP,
    Bot,
    Coal,
    Impl,
    Neg,
    Var,
    closure,
    in_plus_language,
    parse,
    render,
)
from sgcl.game import ActionProfile, validate
from sgcl.modelcheck import CheckContext, audit_axiom_soundness, holds
from sgcl.proof import (
    Assumption,
    AxCooperation,
    AxFalsehood,
    AxMonotonicity,
    Derivation,
    MP,
    Necessitation,
    ProofError,
    ProofLine,
    SystemId,
    Tautology,
    build_coalition_weakening,
    build_lifted_implication,
    deduction_transform,
    verify,
)

import pytest

from conftest import acceptance_corpus, reference_action_id, reference_mu, set_key

F = Fraction
L, LPLUS = SystemId.L, SystemId.LPLUS


def _passed(name: str, detail: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({detail})")


# 1 ---------------------------------------------------------------------------


def test_threshold_gap_demonstration():
    """Every finite prefix of survival claims holds at the start state while
    the certain-survival claim fails, at every depth up to six."""
    t0 = time.monotonic()
    for depth in range(7):
        report = incompleteness_demo(depth)
        assert report.survival == F(10**depth - 1, 10**depth)
        assert [entry["n"] for entry in report.prefix] == list(range(depth + 1))
        assert all(entry["holds"] for entry in report.prefix)
        assert report.limit_at_start is False
        assert report.limit_at_absorbing is True
        assert report.gap_demonstrated

        # independent recheck straight through the model checker
        game = report.game
        for n in range(depth + 1):
            claim = Coal(frozenset(), 1 - F(1, 10**n), TOP)
            assert holds(game, "s", claim) is True
        assert holds(game, "s", Coal(frozenset(), F(1), TOP)) is False
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed("threshold gap demo", f"depths 0..6 exact, {elapsed:.2f}s")


# 2 ---------------------------------------------------------------------------


def test_axiom_soundness_on_sampled_games():
    """No sampled axiom instance is false at any non-failure state of any
    sampled game, and universally true bodies stay universally true under
    the threshold-zero modality."""
    t0 = time.monotonic()
    bounds = SearchBounds()
    games = 0
    instances = 0
    necessitation_cases = 0
    for seed in range(200):
        game = sample_game(random.Random(seed), bounds)
        assert validate(game) == []
        pool = [Var(v) for v in sorted(game.valuation)] + [
            TOP,
            Bot(),
            Coal(frozenset({"a"}), F(1, 2), Var("v")),
        ]
        report = audit_axiom_soundness(game, pool, sample_budget=6, seed=seed)
        assert report.violations == []
        assert report.necessitation_violations == []
        games += 1
        instances += report.instances
        necessitation_cases += report.necessitation_cases
    elapsed = time.monotonic() - t0
    assert games >= 200
    assert instances >= 1000
    assert necessitation_cases >= 200
    assert elapsed < 60.0
    _passed(
        "axiom soundness",
        f"{games} games, {instances} instances, "
        f"{necessitation_cases} necessitation cases, {elapsed:.1f}s",
    )


# 3 ---------------------------------------------------------------------------


def _mutations():
    """Twenty single-line corruptions of the two machine-built proofs, each
    with the line where the kernel must reject."""
    v = parse("v")
    base_imp = Derivation(L, (ProofLine(parse("(v -> v)"), Tautology()),))
    lifted = build_lifted_implication(["a"], F(1, 2), v, v, base_imp)
    weak = build_coalition_weakening(["a"], ["a", "b"], F(1, 4), v)
    # both proofs read:
    #   0: (v -> v)                       tautology
    #   1: [C0]_0 (v -> v)                necessitation of 0
    #   2: (line1 -> (inner -> outcome))  cooperation axiom
    #   3: (inner -> outcome)             detachment from 1 and 2
    ant = parse("(v -> v)")

    def line(text, rule):
        return ProofLine(parse(text), rule)

    cases = [
        # changed subscript
        ("subscript", lifted, 2,
         line("([]_0 (v -> v) -> ([a]_1/4 v -> [a]_1/2 v))", AxCooperation()), 2),
        ("subscript", lifted, 3,
         line("([a]_1/2 v -> [a]_1 v)", MP(1, 2)), 3),
        ("subscript", weak, 2,
         line("([b]_0 (v -> v) -> ([a]_1/2 v -> [a,b]_1/4 v))", AxCooperation()), 2),
        ("subscript", weak, 3,
         line("([a]_1/4 v -> [a,b]_1/2 v)", MP(1, 2)), 3),
        # a raised antecedent subscript still matches the schema, so the
        # detachment two lines later is where verification must stop
        ("subscript", weak, 2,
         line("([b]_1/4 (v -> v) -> ([a]_1/4 v -> [a,b]_1/4 v))", AxCooperation()), 3),
        # swapped coalition
        ("coalition", weak, 3,
         line("([a]_1/4 v -> [b]_1/4 v)", MP(1, 2)), 3),
        ("coalition", weak, 2,
         line("([b]_0 (v -> v) -> ([b]_1/4 v -> [a,b]_1/4 v))", AxCooperation()), 2),
        ("coalition", weak, 2,
         line("([a]_0 (v -> v) -> ([a]_1/4 v -> [a,b]_1/4 v))", AxCooperation()), 2),
        ("coalition", lifted, 3,
         line("([b]_1/2 v -> [b]_1/2 v)", MP(1, 2)), 3),
        ("coalition", lifted, 2,
         line("([]_0 (v -> v) -> ([a]_1/2 v -> [a,b]_1/2 v))", AxCooperation()), 2),
        # broken detachment reference
        ("reference", lifted, 3,
         ProofLine(lifted.lines[3].formula, MP(0, 2)), 3),
        ("reference", lifted, 3,
         ProofLine(lifted.lines[3].formula, MP(1, 1)), 3),
        ("reference", lifted, 3,
         ProofLine(lifted.lines[3].formula, MP(3, 2)), 3),
        ("reference", weak, 3,
         ProofLine(weak.lines[3].formula, MP(1, 7)), 3),
        ("reference", weak, 3,
         ProofLine(weak.lines[3].formula, MP(0, 2)), 3),
        # necessitation with a positive subscript
        ("necessitation", lifted, 1,
         ProofLine(Coal(frozenset(), F(1, 2), ant), Necessitation(0)), 1),
        ("necessitation", weak, 1,
         ProofLine(Coal(frozenset({"b"}), F(1, 4), ant), Necessitation(0)), 1),
        ("necessitation", lifted, 1,
         ProofLine(Coal(frozenset({"a"}), F(1), ant), Necessitation(0)), 1),
        ("necessitation", weak, 1,
         ProofLine(Coal(frozenset({"a", "b"}), F(1, 2), ant), Necessitation(0)), 1),
        ("necessitation", lifted, 1,
         ProofLine(Coal(frozenset(), F(1), ant), Necessitation(0)), 1),
    ]
    return lifted, weak, cases


def _random_chain_derivation(rng):
    """Assumption-mode derivation using only assumptions and detachment,
    built forward so every detachment fires."""
    atoms = [Var(n) for n in ("x0", "x1", "x2")]
    pool = atoms + [Impl(a, b) for a in atoms for b in atoms]
    phi = rng.choice(atoms)
    assumptions = {phi}
    lines = [ProofLine(phi, Assumption())]
    line_of = {phi: 0}
    for _ in range(rng.randrange(1, 7)):
        if rng.choice((True, False)) and line_of:
            source = rng.choice(list(line_of))
            target = rng.choice(pool)
            imp = Impl(source, target)
            assumptions.add(imp)
            lines.append(ProofLine(imp, Assumption()))
            lines.append(
                ProofLine(target, MP(line_of[source], len(lines) - 1))
            )
            line_of[target] = len(lines) - 1
        else:
            extra = rng.choice(pool)
            assumptions.add(extra)
            lines.append(ProofLine(extra, Assumption()))
            line_of[extra] = len(lines) - 1
    d = Derivation(L, tuple(lines), frozenset(assumptions))
    verify(d)
    return d, phi


def test_proof_kernel_accepts_and_rejects():
    """The two machine-built derivations verify, twenty corrupted variants
    are rejected at the exact offending line, and the assumption-elimination
    transform keeps its contract on sixty random derivations."""
    lifted, weak, cases = _mutations()
    verify(lifted)
    verify(weak)
    assert lifted.conclusion == parse("([a]_1/2 v -> [a]_1/2 v)")
    assert weak.conclusion == parse("([a]_1/4 v -> [a,b]_1/4 v)")

    assert len(cases) == 20
    for kind, base, idx, replacement, expected_line in cases:
        lines = list(base.lines)
        lines[idx] = replacement
        mutated = Derivation(base.system, tuple(lines), None)
        with pytest.raises(ProofError) as info:
            verify(mutated)
        assert info.value.line == expected_line, (kind, idx, info.value.reason)

    rng = random.Random(417)
    transformed = 0
    for _ in range(60):
        d, phi = _random_chain_derivation(rng)
        out = deduction_transform(d, phi)
        verify(out)
        assert out.assumptions == d.assumptions - {phi}
        assert out.conclusion == Impl(phi, d.conclusion)
        assert len(out.lines) <= 3 * len(d.lines)
        transformed += 1
    assert transformed >= 50
    _passed(
        "proof kernel",
        f"2 builds verify, 20 mutations rejected line-accurately, "
        f"{transformed} transforms within bounds",
    )


# 4 ---------------------------------------------------------------------------

SEED_TEXTS = (
    "v",
    "~v",
    "[a]_1/2 v",
    "[a]_1/2 false",
    "([a]_1/4 v -> [a,b]_1/4 v)",
)


def test_canonical_construction_audit():
    """Every seed closure yields a canonical game that validates exactly,
    keeps survival mass within the granted bound, triggers no guard, and
    agrees with membership at every state and formula."""
    audited = 0
    worst = 0.0
    for text in SEED_TEXTS:
        sigma = closure([parse(text)])
        systems = [L]
        if all(in_plus_language(f) for f in sigma):
            systems.append(LPLUS)
        for system in systems:
            t0 = time.monotonic()
            oracle = default_oracle()
            game, diag = build_canonical_game(sigma, system=system, oracle=oracle)
            assert validate(game) == []
            assert diag.guard_pairs == []

            sets = sorted(
                enumerate_maximal_sets(sigma, oracle), key=set_key
            )
            agents = tuple(sorted(sigma.agents()))
            for i, s in enumerate(sets):
                for combo in itertools.product(
                    action_domain(sigma), repeat=len(agents)
                ):
                    profile = dict(zip(agents, combo))
                    row = game.row(
                        f"s{i}",
                        ActionProfile.of(
                            {a: reference_action_id(r) for a, r in profile.items()}
                        ),
                    )
                    survival = sum(
                        (p for t, p in row.items() if t != "f"), start=F(0)
                    )
                    assert sum(row.values(), start=F(0)) == 1
                    assert survival <= reference_mu(s, profile)

            audit = audit_truth_lemma(game, sigma, diag.sets)
            assert audit.disagreements == []
            assert audit.checked == len(sets) * len(list(sigma))
            elapsed = time.monotonic() - t0
            assert elapsed < 30.0
            worst = max(worst, elapsed)
            audited += 1
    _passed(
        "canonical audit",
        f"{audited} closure/system builds clean, worst {worst:.2f}s",
    )


# 5 ---------------------------------------------------------------------------


def _obvious_theorem(f):
    """A verified theorem-mode derivation for transparently valid shapes:
    tautologies, direct axiom instances, coalition weakening, and the
    threshold-zero lift of anything already recognized."""
    for rule in (Tautology(), AxCooperation(), AxMonotonicity(), AxFalsehood()):
        line = Derivation(L, (ProofLine(f, rule),))
        try:
            verify(line)
        except ProofError:
            continue
        return line
    if (
        isinstance(f, Impl)
        and isinstance(f.left, Coal)
        and isinstance(f.right, Coal)
        and f.left.body == f.right.body
        and f.left.p == f.right.p
        and f.left.coalition <= f.right.coalition
    ):
        return build_coalition_weakening(
            f.left.coalition, f.right.coalition, f.left.p, f.left.body
        )
    if isinstance(f, Coal) and f.p == 0:
        sub = _obvious_theorem(f.body)
        if sub is not None:
            lines = sub.lines + (
                ProofLine(f, Necessitation(len(sub.lines) - 1)),
            )
            return Derivation(L, lines)
    return None


def test_decision_agreement_on_small_corpus():
    """On every one-variable, one-agent formula with at most three
    connectives and subscripts in {0, 1/2, 1}: no formula with a verified
    obvious-theorem proof is ever refuted, and every refutation's witness
    survives an independent model-checker pass."""
    t0 = time.monotonic()
    corpus = acceptance_corpus()
    assert len(corpus) == 793
    provable = 0
    refuted = 0
    for f in corpus:
        proof = _obvious_theorem(f)
        verdict = classify(f)
        if proof is not None:
            verify(proof)
            assert proof.conclusion == f
            provable += 1
            assert not isinstance(verdict, Refuted), render(f)
        if isinstance(verdict, Refuted):
            refuted += 1
            assert holds(verdict.game, verdict.state, f) is False
    elapsed = time.monotonic() - t0
    assert provable >= 40
    assert refuted >= 500
    assert elapsed < 300.0
    _passed(
        "decision agreement",
        f"{len(corpus)} formulas, {provable} with obvious proofs never "
        f"refuted, {refuted} refutations re-verified, {elapsed:.1f}s",
    )


# 6 ---------------------------------------------------------------------------


def _subset(rng, items):
    return frozenset(x for x in items if rng.choice((True, False)))


def test_semantic_properties_on_sampled_triples():
    """Four semantic laws, each on at least ten thousand sampled
    (game, state, instance) triples with zero violations: weakening the
    subscript, enlarging the coalition, combining disjoint coalitions, and
    the falsity of positive-threshold claims about reaching falsehood."""
    rng = random.Random(20_260_822)
    bounds = SearchBounds()
    games = [sample_game(random.Random(s), bounds) for s in range(240)]
    contexts = [CheckContext(g) for g in games]
    bodies = (
        TOP,
        Var("u"),
        Var("v"),
        Neg(Var("v")),
        Impl(Var("u"), Var("v")),
    )
    grid = QUARTER_GRID
    target = 10_000
    checked = {k: 0 for k in ("subscript", "coalition", "cooperation", "falsehood")}
    informative = {k: 0 for k in checked}

    i = 0
    while min(checked.values()) < target:
        game = games[i % len(games)]
        ctx = contexts[i % len(games)]
        i += 1
        state = rng.choice(game.nonfailure_states)
        agents = game.agents

        body = rng.choice(bodies)
        c = _subset(rng, agents)
        hi, lo = sorted((rng.choice(grid), rng.choice(grid)), reverse=True)
        checked["subscript"] += 1
        if holds(game, state, Coal(c, hi, body), ctx):
            informative["subscript"] += 1
            assert holds(game, state, Coal(c, lo, body), ctx)

        big = _subset(rng, agents)
        small = _subset(rng, big)
        p = rng.choice(grid)
        checked["coalition"] += 1
        if holds(game, state, Coal(small, p, body), ctx):
            informative["coalition"] += 1
            assert holds(game, state, Coal(big, p, body), ctx)

        left = _subset(rng, agents)
        right = _subset(rng, frozenset(agents) - left)
        phi, psi = rng.choice(bodies), rng.choice(bodies)
        q = rng.choice(grid)
        checked["cooperation"] += 1
        if holds(game, state, Coal(left, p, Impl(phi, psi)), ctx) and holds(
            game, state, Coal(right, q, phi), ctx
        ):
            informative["cooperation"] += 1
            assert holds(game, state, Coal(left | right, max(p, q), psi), ctx)

        checked["falsehood"] += 1
        positive = rng.choice([g for g in grid if g > 0])
        assert holds(game, state, Coal(c, positive, Bot()), ctx) is False
        informative["falsehood"] += 1

    assert all(n >= target for n in checked.values())
    assert all(informative[k] >= 500 for k in ("subscript", "coalition", "cooperation"))
    _passed(
        "semantic properties",
        ", ".join(
            f"{k}: {checked[k]} checked / {informative[k]} informative"
            for k in checked
        ),
    )
