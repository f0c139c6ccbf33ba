"""Proof kernel: axiom matching, verification, deduction, derived rules."""

import random
import sys
from fractions import Fraction
from typing import get_args

import pytest

import sgcl.proof
from sgcl.formula import Coal, Impl, ParseError, Var, parse, render
from sgcl.proof import (
    Assumption,
    AxCooperation,
    AxFalsehood,
    AxMonotonicity,
    Derivation,
    Justification,
    MP,
    Necessitation,
    ProofError,
    ProofFormatError,
    ProofLine,
    RuleMonotonicity,
    SystemId,
    Tautology,
    TheoremImport,
    _rule_from_str,
    _rule_to_str,
    build_coalition_weakening,
    build_lifted_implication,
    deduction_transform,
    derivation_from_dict,
    derivation_to_dict,
    load_proof,
    save_proof,
    verify,
)

from conftest import overtake_game, reference_rule_from_str, reference_rule_to_str

F = Fraction
L, LPLUS = SystemId.L, SystemId.LPLUS


def coal(agents, p, body):
    return Coal(frozenset(agents), F(p), body)


def one_line_rules(text):
    """The rules under which a one-line theorem-mode derivation of the
    formula verifies."""
    f = parse(text)
    accepted = []
    for rule in (Tautology(), AxCooperation(), AxMonotonicity(), AxFalsehood()):
        try:
            verify(Derivation(L, (ProofLine(f, rule),)))
        except ProofError:
            continue
        accepted.append(type(rule))
    return accepted


class TestMatchAxiom:
    def test_cooperation(self):
        f = "[a]_1/2 (p -> q) -> ([b]_1/4 p -> [a,b]_1/2 q)"
        assert one_line_rules(f) == [AxCooperation]

    def test_overlapping_coalitions_fall_back_to_tautology(self):
        f = parse("[a]_0 (v -> v) -> ([a]_1/2 v -> [a]_1/2 v)")
        with pytest.raises(ProofError, match="not a cooperation axiom instance"):
            verify(Derivation(L, (ProofLine(f, AxCooperation()),)))
        assert one_line_rules(render(f)) == [Tautology]

    def test_monotonicity(self):
        assert one_line_rules("[a]_1/2 v -> [a]_1/4 v") == [AxMonotonicity]

    def test_monotonicity_needs_weaker_conclusion(self):
        assert one_line_rules("[a]_1/4 v -> [a]_1/2 v") == []

    def test_falsehood(self):
        assert one_line_rules("~[a,b]_1/10 false") == [AxFalsehood]

    def test_falsehood_needs_positive_threshold(self):
        assert one_line_rules("~[a]_0 false") == []

    def test_wrong_max_rejected(self):
        f = "[a]_1/2 (p -> q) -> ([b]_1/4 p -> [a,b]_1/4 q)"
        assert one_line_rules(f) == []


class TestVerify:
    def test_three_axiom_lines(self):
        d = Derivation(L, (
            ProofLine(parse("[a]_1/2 (p -> q) -> ([b]_1/4 p -> [a,b]_1/2 q)"),
                      AxCooperation()),
            ProofLine(parse("[a]_1/2 v -> [a]_0 v"), AxMonotonicity()),
            ProofLine(parse("~[b]_1 false"), AxFalsehood()),
        ))
        verify(d)

    def test_necessitation_and_mp(self):
        d = Derivation(L, (
            ProofLine(parse("v -> v"), Tautology()),
            ProofLine(parse("[]_0 (v -> v)"), Necessitation(0)),
            ProofLine(parse("[]_0 (v -> v) -> ([a]_1 v -> [a]_1 v)"),
                      AxCooperation()),
            ProofLine(parse("[a]_1 v -> [a]_1 v"), MP(1, 2)),
        ))
        verify(d)

    def test_necessitation_positive_threshold_rejected(self):
        d = Derivation(L, (
            ProofLine(parse("v -> v"), Tautology()),
            ProofLine(parse("[a]_1/2 (v -> v)"), Necessitation(0)),
        ))
        with pytest.raises(ProofError, match="threshold 0") as err:
            verify(d)
        assert err.value.line == 1

    def test_mp_shape_mismatch_rejected(self):
        d = Derivation(L, (
            ProofLine(parse("v -> v"), Tautology()),
            ProofLine(parse("u"), MP(0, 0)),
        ))
        with pytest.raises(ProofError, match="is not line"):
            verify(d)

    def test_forward_reference_rejected(self):
        d = Derivation(L, (
            ProofLine(parse("[a]_0 (v -> v)"), Necessitation(1)),
            ProofLine(parse("v -> v"), Tautology()),
        ))
        with pytest.raises(ProofError, match="precede"):
            verify(d)

    def test_assumption_mode_rejects_axiom_lines(self):
        d = Derivation(L, (
            ProofLine(parse("v -> v"), Tautology()),
        ), assumptions=frozenset())
        with pytest.raises(ProofError, match="not admitted in assumption mode"):
            verify(d)

    def test_theorem_mode_rejects_assumptions(self):
        d = Derivation(L, (
            ProofLine(parse("v"), Assumption()),
        ))
        with pytest.raises(ProofError, match="not admitted in theorem mode"):
            verify(d)

    def test_assumption_must_be_declared(self):
        d = Derivation(L, (
            ProofLine(parse("v"), Assumption()),
        ), assumptions=frozenset({parse("u")}))
        with pytest.raises(ProofError, match="not among the assumptions"):
            verify(d)

    def test_import_checks_conclusion(self):
        taut = Derivation(L, (ProofLine(parse("v -> v"), Tautology()),))
        d = Derivation(L, (
            ProofLine(parse("u -> u"), TheoremImport("t")),
        ), assumptions=frozenset(), imports={"t": taut})
        with pytest.raises(ProofError, match="concludes"):
            verify(d)

    def test_import_must_not_be_empty(self):
        d = Derivation(L, (
            ProofLine(parse("v -> v"), TheoremImport("t")),
        ), assumptions=frozenset(), imports={"t": Derivation(L, ())})
        with pytest.raises(ProofError, match="line 0: import 't' is an empty derivation"):
            verify(d)

    def test_import_must_verify(self):
        bogus = Derivation(L, (ProofLine(parse("v -> u"), Tautology()),))
        d = Derivation(L, (
            ProofLine(parse("v -> u"), TheoremImport("t")),
        ), assumptions=frozenset(), imports={"t": bogus})
        with pytest.raises(ProofError, match="does not verify"):
            verify(d)

    def test_monotonicity_rule_only_in_plus(self):
        lines = (
            ProofLine(parse("v -> (u -> v)"), Tautology()),
            ProofLine(parse("[a]_1/2 v -> [a]_1/2 (u -> v)"), RuleMonotonicity(0)),
        )
        verify(Derivation(LPLUS, lines))
        with pytest.raises(ProofError, match="only in system L\\+"):
            verify(Derivation(L, lines))

    def test_plus_language_gate(self):
        d = Derivation(LPLUS, (
            ProofLine(parse("~[]_1/2 false"), AxFalsehood()),
        ))
        with pytest.raises(ProofError, match="restricted language"):
            verify(d)

    def test_empty_derivation_verifies(self):
        verify(Derivation(L, ()))


class TestDeduction:
    def test_identity(self):
        phi = parse("v")
        d = Derivation(L, (ProofLine(phi, Assumption()),),
                       assumptions=frozenset({phi}))
        out = deduction_transform(d, phi)
        verify(out)
        assert out.conclusion == Impl(phi, phi)
        assert out.assumptions == frozenset()

    def test_single_modus_ponens(self):
        phi, psi = parse("v"), parse("u")
        imp = Impl(phi, psi)
        d = Derivation(L, (
            ProofLine(phi, Assumption()),
            ProofLine(imp, Assumption()),
            ProofLine(psi, MP(0, 1)),
        ), assumptions=frozenset({phi, imp}))
        out = deduction_transform(d, phi)
        verify(out)
        assert out.conclusion == Impl(phi, psi)
        assert out.assumptions == frozenset({imp})
        assert len(out.lines) <= 3 * len(d.lines)

    def test_unused_designated_assumption(self):
        phi = parse("v")
        taut = Derivation(L, (ProofLine(parse("u -> u"), Tautology()),))
        d = Derivation(L, (
            ProofLine(parse("u -> u"), TheoremImport("t")),
        ), assumptions=frozenset({phi}), imports={"t": taut})
        out = deduction_transform(d, phi)
        verify(out)
        assert out.conclusion == parse("v -> (u -> u)")
        assert out.assumptions == frozenset()

    def test_designated_formula_must_be_assumed(self):
        d = Derivation(L, (ProofLine(parse("v"), Assumption()),),
                       assumptions=frozenset({parse("v")}))
        with pytest.raises(ValueError, match="not among the assumptions"):
            deduction_transform(d, parse("u"))

    def test_random_mp_derivations(self):
        rng = random.Random(2024)
        for _ in range(60):
            d, phi = _random_assumption_derivation(rng)
            out = deduction_transform(d, phi)
            verify(out)
            assert out.assumptions == d.assumptions - {phi}
            assert out.conclusion == Impl(phi, d.conclusion)
            assert len(out.lines) <= 3 * len(d.lines)


def _random_assumption_derivation(rng):
    """Assumption-mode derivation built forward so every MP fires, plus
    the designated assumption to eliminate."""
    atoms = [Var(n) for n in ("x0", "x1", "x2", "x3")]
    phi = rng.choice(atoms)
    assumptions = {phi}
    lines = [ProofLine(phi, Assumption())]
    imports = {}
    line_of = {phi: 0}

    def append(formula, rule):
        lines.append(ProofLine(formula, rule))
        line_of[formula] = len(lines) - 1

    for _ in range(rng.randrange(1, 8)):
        move = rng.random()
        derived = list(line_of)
        if move < 0.45:
            source = rng.choice(derived)
            target = rng.choice(atoms + [Impl(rng.choice(atoms), rng.choice(atoms))])
            imp = Impl(source, target)
            assumptions.add(imp)
            append(imp, Assumption())
            append(target, MP(line_of[source], line_of[imp]))
        elif move < 0.7:
            extra = rng.choice(atoms)
            assumptions.add(extra)
            append(extra, Assumption())
        else:
            taut = Impl(rng.choice(derived), rng.choice(derived))
            taut = Impl(taut.left, taut.left)
            name = f"refl{len(imports)}"
            existing = [n for n, sub in imports.items() if sub.conclusion == taut]
            if existing:
                name = existing[0]
            else:
                imports[name] = Derivation(L, (ProofLine(taut, Tautology()),))
            append(taut, TheoremImport(name))
    d = Derivation(L, tuple(lines), frozenset(assumptions), imports)
    verify(d)
    return d, phi


class TestDerivedRules:
    def test_lifted_implication(self):
        imp_proof = Derivation(L, (ProofLine(parse("p -> (q -> p)"), Tautology()),))
        d = build_lifted_implication({"a"}, F(1, 2), parse("p"), parse("q -> p"),
                                     imp_proof)
        verify(d)
        assert d.conclusion == parse("[a]_1/2 p -> [a]_1/2 (q -> p)")

    def test_lifted_implication_empty_coalition(self):
        imp_proof = Derivation(L, (ProofLine(parse("p -> p"), Tautology()),))
        d = build_lifted_implication((), 1, parse("p"), parse("p"), imp_proof)
        assert d.conclusion == parse("[]_1 p -> []_1 p")

    def test_lifted_implication_refused_outside_l(self):
        imp_proof = Derivation(LPLUS, (ProofLine(parse("p -> p"), Tautology()),))
        with pytest.raises(ValueError, match="only exists in system L"):
            build_lifted_implication({"a"}, 1, parse("p"), parse("p"), imp_proof)

    def test_lifted_implication_conclusion_mismatch(self):
        imp_proof = Derivation(L, (ProofLine(parse("p -> p"), Tautology()),))
        with pytest.raises(ValueError, match="expected"):
            build_lifted_implication({"a"}, 1, parse("p"), parse("q"), imp_proof)

    def test_coalition_weakening_proper_subset(self):
        d = build_coalition_weakening({"a"}, {"a", "b"}, F(3, 4), parse("v"))
        verify(d)
        assert d.conclusion == parse("[a]_3/4 v -> [a,b]_3/4 v")
        assert len(d.lines) == 4

    def test_coalition_weakening_from_empty(self):
        d = build_coalition_weakening((), {"a"}, F(1, 2), parse("v"))
        assert d.conclusion == parse("[]_1/2 v -> [a]_1/2 v")

    def test_coalition_weakening_equal_coalitions(self):
        d = build_coalition_weakening({"a"}, {"a"}, 1, parse("v"))
        assert len(d.lines) == 1
        assert isinstance(d.lines[0].rule, Tautology)

    def test_coalition_weakening_in_plus(self):
        d = build_coalition_weakening({"a"}, {"a", "b"}, F(1, 2), parse("v"), LPLUS)
        verify(d)
        with pytest.raises(ValueError, match="empty coalition"):
            build_coalition_weakening((), {"a"}, F(1, 2), parse("v"), LPLUS)

    def test_coalition_weakening_requires_subset(self):
        with pytest.raises(ValueError, match="subset"):
            build_coalition_weakening({"a"}, {"b"}, 1, parse("v"))


class TestSplicing:
    def test_inserting_a_verified_import_preserves_later_lines(self):
        phi, psi = parse("v"), parse("u")
        imp = Impl(phi, psi)
        d = Derivation(L, (
            ProofLine(phi, Assumption()),
            ProofLine(imp, Assumption()),
            ProofLine(psi, MP(0, 1)),
        ), assumptions=frozenset({phi, imp}))
        verify(d)
        taut = Derivation(L, (ProofLine(parse("w -> w"), Tautology()),))
        spliced = Derivation(L, (
            d.lines[0],
            ProofLine(parse("w -> w"), TheoremImport("t")),
            d.lines[1],
            ProofLine(psi, MP(0, 2)),
        ), assumptions=d.assumptions, imports={"t": taut})
        verify(spliced)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        d = build_coalition_weakening({"a"}, {"a", "b"}, F(1, 2), parse("v"))
        path = tmp_path / "weaken.json"
        save_proof(d, path)
        again = load_proof(path)
        assert again == d
        verify(again)

    def test_round_trip_with_imports(self, tmp_path):
        phi = parse("v")
        base = Derivation(L, (ProofLine(phi, Assumption()),),
                          assumptions=frozenset({phi}))
        out = deduction_transform(base, phi)
        path = tmp_path / "ded.json"
        save_proof(out, path)
        again = load_proof(path)
        verify(again)
        assert again.conclusion == out.conclusion

    def test_each_distinct_text_parsed_once(self, monkeypatch):
        """A document's assumptions, lines and imports share one parse per
        distinct text, so a repeated text is parsed once."""
        phi = parse("v")
        base = Derivation(L, (ProofLine(phi, Assumption()),),
                          assumptions=frozenset({phi}))
        doc = derivation_to_dict(deduction_transform(base, phi))

        def texts(d):
            mode = d["mode"]
            own = [] if mode == "theorem" else list(mode["assumptions"])
            own += [line["formula"] for line in d["lines"]]
            return own + [t for sub in d.get("imports", {}).values() for t in texts(sub)]

        calls = []

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(sgcl.proof, "parse", counting)
        read = derivation_from_dict(doc)
        assert "imports" in doc and len(texts(doc)) > len(set(texts(doc)))
        assert sorted(calls) == sorted(set(texts(doc)))
        assert derivation_to_dict(read) == doc

    def test_first_bad_text_in_document_order_raises(self):
        doc = {"system": "L", "mode": {"assumptions": ["v", "(v"]},
               "lines": [{"formula": "v ->", "rule": "taut"}]}
        with pytest.raises(ParseError, match=r"^expected '\)' \(at position 2\)$"):
            derivation_from_dict(doc)
        doc["mode"] = "theorem"
        doc["lines"].insert(0, {"formula": "v", "rule": "taut"})
        with pytest.raises(ParseError, match=r"^unexpected end of input \(at position 4\)$"):
            derivation_from_dict(doc)

    def test_rule_strings(self):
        d = build_coalition_weakening({"a"}, {"a", "b"}, F(1, 2), parse("v"))
        doc = derivation_to_dict(d)
        assert [line["rule"] for line in doc["lines"]] == [
            "taut", "nec:0", "coop", "mp:1,2"]

    def test_unknown_rule_rejected(self):
        doc = {"system": "L", "mode": "theorem",
               "lines": [{"formula": "v -> v", "rule": "zap"}]}
        with pytest.raises(ProofFormatError, match="unknown rule"):
            derivation_from_dict(doc)

    def test_unknown_system_rejected(self):
        doc = {"system": "K", "mode": "theorem", "lines": []}
        with pytest.raises(ProofFormatError, match="^unknown system 'K'$"):
            derivation_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"agents": []}, "system is missing"),
        ({"system": None, "mode": "theorem", "lines": []}, "system must be a string"),
        ({"system": ["L"], "mode": "theorem", "lines": []}, "system must be a string"),
    ])
    def test_system_missing_or_not_a_string(self, doc, message):
        with pytest.raises(ProofFormatError, match=f"^{message}$"):
            derivation_from_dict(doc)

    @pytest.mark.parametrize("rule", [
        "nec:\u0663", "mono-rule:\u0661", "mp: 0, 0", "mp:1_0,0", "nec:+0", "nec:0 ",
        "nec:", "mp:0", "mp:0,1,2", "nec:0,0", "mp:,0",
    ])
    def test_line_references_are_ascii_decimals(self, rule):
        doc = {"system": "L", "mode": "theorem",
               "lines": [{"formula": "v -> v", "rule": rule}]}
        with pytest.raises(ProofFormatError, match="^malformed rule "):
            derivation_from_dict(doc)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() reads any number of digits")
    def test_line_reference_longer_than_int_reads(self):
        doc = {"system": "L", "mode": "theorem",
               "lines": [{"formula": "v -> v", "rule": "nec:" + "1" * 5000}]}
        with pytest.raises(ProofFormatError, match="^malformed rule "):
            derivation_from_dict(doc)

    def test_loaded_rules_round_trip(self):
        doc = {"system": "L", "mode": "theorem", "lines": [
            {"formula": "(v -> v)", "rule": "taut"},
            {"formula": "[a]_0 (v -> v)", "rule": "nec:0"},
            {"formula": "([a]_1/2 (v -> v) -> [a]_1/4 (v -> v))", "rule": "mono-ax"},
            {"formula": "([a]_0 (v -> v) -> [a]_0 (v -> v))", "rule": "taut"},
            {"formula": "[a]_0 (v -> v)", "rule": "mp:1,3"},
        ]}
        assert derivation_to_dict(derivation_from_dict(doc)) == doc


# every kind of rule, some twice: an empty import name, one that holds the
# separators, and line references of more than one digit
EVERY_RULE = [
    Tautology(), AxCooperation(), AxMonotonicity(), AxFalsehood(), Assumption(),
    TheoremImport(""), TheoremImport("taut0"), TheoremImport("a:b,c"),
    MP(0, 1), MP(12, 3), Necessitation(0), Necessitation(12), RuleMonotonicity(7),
]

# the pieces a seeded rule text is built from, a tag and mostly ":" first:
# every tag, the separators, digits ASCII and not, blanks, and a run longer
# than int() reads
_RULE_PIECES = [
    "taut", "coop", "mono-ax", "false-ax", "assume", "import", "mp", "nec",
    "mono-rule", ":", ",", "12", "\u0663", " ", "_", "-", "1" * 5000,
]


def _rule_reading(reader, text):
    try:
        return "rule", reader(text)
    except ProofFormatError as exc:
        return "error", str(exc)


class TestRuleTagsMatchReference:
    """The one tag table writes and reads every rule as the two chains
    of isinstance tests and prefixes did."""

    def test_every_rule_kind_writes_the_same_text(self):
        assert {type(rule) for rule in EVERY_RULE} == set(get_args(Justification))
        for rule in EVERY_RULE:
            text = _rule_to_str(rule)
            assert text == reference_rule_to_str(rule)
            assert _rule_from_str(text) == rule

    def test_a_non_rule_is_refused_alike(self):
        with pytest.raises(TypeError, match="^unknown rule 'zap'$"):
            _rule_to_str("zap")
        with pytest.raises(TypeError, match="^unknown rule 'zap'$"):
            reference_rule_to_str("zap")

    def test_seeded_texts_read_the_same(self):
        rng = random.Random(31)
        texts = [reference_rule_to_str(rule) for rule in EVERY_RULE]
        texts += [rng.choice(_RULE_PIECES[:9]) + rng.choice((":", ":", ":", ""))
                  + "".join(rng.choices(_RULE_PIECES, k=rng.randint(0, 4)))
                  for _ in range(20_000)]
        kinds = {"rule": 0, "unknown rule": 0, "malformed rule": 0}
        for text in texts:
            got = _rule_reading(_rule_from_str, text)
            assert got == _rule_reading(reference_rule_from_str, text), text[:80]
            kinds["rule" if got[0] == "rule" else got[1].split(" '")[0]] += 1
        assert min(kinds.values()) > 500, kinds


class TestTheoremSoundnessBridge:
    def test_every_theorem_line_holds_everywhere(self):
        from sgcl.modelcheck import holds

        derivations = [
            build_coalition_weakening({"a"}, {"a", "b"}, F(1, 2), parse("passed")),
            build_coalition_weakening((), {"b"}, F(1, 4), parse("behind")),
            build_lifted_implication(
                {"a", "b"}, F(9, 10), parse("passed"), parse("passed"),
                Derivation(L, (ProofLine(parse("passed -> passed"), Tautology()),)),
            ),
        ]
        games = [overtake_game()]
        for d in derivations:
            verify(d)
            for g in games:
                for line in d.lines:
                    for s in g.nonfailure_states:
                        assert holds(g, s, line.formula), render(line.formula)
