"""Hilbert-style proof checking for the coalition-survival logics.

Two systems share three axiom schemas over the modality ``[C]_p``:

* cooperation:    [C1]_p (x -> y) -> ([C2]_q x -> [C1|C2]_max(p,q) y)
                  provided C1 and C2 are disjoint;
* monotonicity:   [C]_p x -> [C]_q x  provided q <= p;
* falsehood:      ~[C]_p false       provided p > 0.

System ``L`` ranges over the full language and derives with modus ponens
and necessitation (from x infer [C]_0 x; a positive threshold here would
be unsound).  System ``L+`` is restricted to formulas whose coalitions
are all nonempty and adds the monotonicity rule (from x -> y infer
[C]_p x -> [C]_p y) as a primitive, since the detour through the empty
coalition is unavailable there.

A derivation is either theorem-mode (axioms plus the rules above) or
assumption-mode (assumption lines, imports of separately verified
theorem-mode derivations, and modus ponens only).  Keeping
assumption-mode this small is what makes the deduction transform below
purely mechanical.

``_TAGS`` is the one rule-tag table of the proof document: each line's
rule is written by it (:func:`derivation_to_dict`) and read back by it
(:func:`load_proof`).
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import astuple, dataclass, field, fields
from typing import Iterable, Mapping, Optional, Union

from .formula import (
    Bot,
    Coal,
    Formula,
    Impl,
    IntegerTooLong,
    Neg,
    canonical_key,
    in_plus_language,
    is_tautology,
    json_int,
    parse,
    render,
)


class SystemId(enum.Enum):
    L = "L"
    LPLUS = "L+"


class ProofError(Exception):
    def __init__(self, line: Optional[int], reason: str):
        at = "derivation" if line is None else f"line {line}"
        super().__init__(f"{at}: {reason}")
        self.line = line
        self.reason = reason


# --- justifications --------------------------------------------------------


@dataclass(frozen=True)
class Tautology:
    pass


@dataclass(frozen=True)
class AxCooperation:
    pass


@dataclass(frozen=True)
class AxMonotonicity:
    pass


@dataclass(frozen=True)
class AxFalsehood:
    pass


@dataclass(frozen=True)
class Assumption:
    pass


@dataclass(frozen=True)
class TheoremImport:
    name: str


@dataclass(frozen=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class Necessitation:
    premise: int


@dataclass(frozen=True)
class RuleMonotonicity:
    premise: int


Justification = Union[
    Tautology,
    AxCooperation,
    AxMonotonicity,
    AxFalsehood,
    Assumption,
    TheoremImport,
    MP,
    Necessitation,
    RuleMonotonicity,
]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    rule: Justification


@dataclass(frozen=True)
class Derivation:
    """``assumptions is None`` means theorem mode; otherwise the frozenset
    of admitted assumption formulas.  ``imports`` maps the names used by
    :class:`TheoremImport` lines to theorem-mode derivations."""

    system: SystemId
    lines: tuple
    assumptions: Optional[frozenset] = None
    imports: Mapping[str, "Derivation"] = field(default_factory=dict)

    @property
    def theorem_mode(self) -> bool:
        return self.assumptions is None

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty derivation has no conclusion")
        return self.lines[-1].formula


# --- axiom schema matching -------------------------------------------------


def match_cooperation(f: Formula) -> bool:
    if not (isinstance(f, Impl) and isinstance(f.left, Coal)):
        return False
    outer, rest = f.left, f.right
    if not (isinstance(outer.body, Impl) and isinstance(rest, Impl)):
        return False
    if not (isinstance(rest.left, Coal) and isinstance(rest.right, Coal)):
        return False
    inner, conclusion = rest.left, rest.right
    return (
        not outer.coalition & inner.coalition
        and conclusion.coalition == outer.coalition | inner.coalition
        and conclusion.p == max(outer.p, inner.p)
        and inner.body == outer.body.left
        and conclusion.body == outer.body.right
    )


def match_monotonicity(f: Formula) -> bool:
    if not (
        isinstance(f, Impl)
        and isinstance(f.left, Coal)
        and isinstance(f.right, Coal)
    ):
        return False
    strong, weak = f.left, f.right
    return (
        strong.coalition == weak.coalition
        and strong.body == weak.body
        and weak.p <= strong.p
    )


def match_falsehood(f: Formula) -> bool:
    return (
        isinstance(f, Neg)
        and isinstance(f.body, Coal)
        and isinstance(f.body.body, Bot)
        and f.body.p > 0
    )


# --- verification ----------------------------------------------------------

_THEOREM_RULES = (
    Tautology,
    AxCooperation,
    AxMonotonicity,
    AxFalsehood,
    MP,
    Necessitation,
    RuleMonotonicity,
)
_ASSUMPTION_RULES = (Assumption, TheoremImport, MP)


def _check_reference(k: int, i: int) -> None:
    if not 0 <= i < k:
        raise ProofError(k, f"reference to line {i} does not precede this line")


def verify(d: Derivation) -> None:
    """Raise :class:`ProofError` at the first bad line; return silently
    when every line is justified."""
    plus = d.system is SystemId.LPLUS
    if plus and d.assumptions:
        for a in sorted(d.assumptions, key=canonical_key):
            if not in_plus_language(a):
                raise ProofError(
                    None, f"assumption {render(a)} lies outside the restricted language"
                )
    verified_imports: set = set()
    for k, line in enumerate(d.lines):
        f, rule = line.formula, line.rule
        if plus and not in_plus_language(f):
            raise ProofError(k, "formula lies outside the restricted language")
        allowed = _THEOREM_RULES if d.theorem_mode else _ASSUMPTION_RULES
        if not isinstance(rule, allowed):
            mode = "theorem" if d.theorem_mode else "assumption"
            raise ProofError(
                k, f"rule {type(rule).__name__} is not admitted in {mode} mode"
            )
        if isinstance(rule, Tautology):
            if not is_tautology(f):
                raise ProofError(k, "not a propositional tautology")
        elif isinstance(rule, AxCooperation):
            if not match_cooperation(f):
                raise ProofError(k, "not a cooperation axiom instance")
        elif isinstance(rule, AxMonotonicity):
            if not match_monotonicity(f):
                raise ProofError(k, "not a monotonicity axiom instance")
        elif isinstance(rule, AxFalsehood):
            if not match_falsehood(f):
                raise ProofError(k, "not a falsehood axiom instance")
        elif isinstance(rule, Assumption):
            if f not in (d.assumptions or frozenset()):
                raise ProofError(k, f"{render(f)} is not among the assumptions")
        elif isinstance(rule, TheoremImport):
            imported = d.imports.get(rule.name)
            if imported is None:
                raise ProofError(k, f"unknown import {rule.name!r}")
            if not imported.theorem_mode:
                raise ProofError(
                    k, f"import {rule.name!r} is not a theorem-mode derivation"
                )
            if imported.system is not d.system:
                raise ProofError(k, f"import {rule.name!r} proves in a different system")
            if not imported.lines:
                raise ProofError(k, f"import {rule.name!r} is an empty derivation")
            if rule.name not in verified_imports:
                try:
                    verify(imported)
                except ProofError as exc:
                    raise ProofError(
                        k, f"import {rule.name!r} does not verify: {exc}"
                    ) from exc
                verified_imports.add(rule.name)
            if imported.conclusion != f:
                raise ProofError(
                    k, f"import {rule.name!r} concludes {render(imported.conclusion)},"
                    f" not {render(f)}"
                )
        elif isinstance(rule, MP):
            _check_reference(k, rule.antecedent)
            _check_reference(k, rule.implication)
            expected = Impl(d.lines[rule.antecedent].formula, f)
            if d.lines[rule.implication].formula != expected:
                raise ProofError(
                    k,
                    f"line {rule.implication} is not line {rule.antecedent}"
                    " -> this line",
                )
        elif isinstance(rule, Necessitation):
            _check_reference(k, rule.premise)
            if not isinstance(f, Coal):
                raise ProofError(k, "necessitation must conclude a modality")
            if f.p != 0:
                raise ProofError(
                    k, "necessitation is sound only at threshold 0"
                )
            if f.body != d.lines[rule.premise].formula:
                raise ProofError(k, f"body differs from line {rule.premise}")
        elif isinstance(rule, RuleMonotonicity):
            if not plus:
                raise ProofError(
                    k, "the monotonicity rule is primitive only in system L+"
                )
            _check_reference(k, rule.premise)
            premise = d.lines[rule.premise].formula
            shape = (
                isinstance(premise, Impl)
                and isinstance(f, Impl)
                and isinstance(f.left, Coal)
                and isinstance(f.right, Coal)
                and f.left.coalition == f.right.coalition
                and f.left.p == f.right.p
                and f.left.body == premise.left
                and f.right.body == premise.right
            )
            if not shape:
                raise ProofError(
                    k, f"conclusion does not lift line {rule.premise} under"
                    " one modality"
                )
        else:  # pragma: no cover
            raise ProofError(k, f"unknown rule {rule!r}")


# --- deduction transform ----------------------------------------------------


def deduction_transform(d: Derivation, phi: Formula) -> Derivation:
    """Eliminate the designated assumption: from a derivation of psi under
    X and phi, produce one of phi -> psi under X alone.

    Every original line is replaced by at most three lines, so the output
    stays within 3x the input length plus the imported one-line
    tautologies.
    """
    verify(d)
    if d.theorem_mode:
        raise ValueError("deduction transform needs an assumption-mode derivation")
    if phi not in d.assumptions:
        raise ValueError(f"{render(phi)} is not among the assumptions")
    if not d.lines:
        raise ValueError("empty derivation")

    imports = dict(d.imports)
    taut_names: dict = {}
    counter = 0

    def import_tautology(f: Formula) -> str:
        nonlocal counter
        name = taut_names.get(f)
        if name is None:
            while True:
                name = f"taut{counter}"
                counter += 1
                if name not in imports:
                    break
            imports[name] = Derivation(
                d.system, (ProofLine(f, Tautology()),), None
            )
            taut_names[f] = name
        return name

    out: list = []
    new_index: dict = {}

    def emit(f: Formula, rule: Justification) -> int:
        out.append(ProofLine(f, rule))
        return len(out) - 1

    for k, line in enumerate(d.lines):
        psi, rule = line.formula, line.rule
        goal = Impl(phi, psi)
        if psi == phi:
            name = import_tautology(Impl(phi, phi))
            new_index[k] = emit(goal, TheoremImport(name))
            continue
        if isinstance(rule, (Assumption, TheoremImport)):
            base = emit(psi, rule)
            name = import_tautology(Impl(psi, goal))
            bridge = emit(Impl(psi, goal), TheoremImport(name))
            new_index[k] = emit(goal, MP(base, bridge))
        elif isinstance(rule, MP):
            psi_i = d.lines[rule.antecedent].formula
            lifted_i = Impl(phi, psi_i)
            lifted_ij = Impl(phi, Impl(psi_i, psi))
            chain = Impl(lifted_i, Impl(lifted_ij, goal))
            name = import_tautology(chain)
            first = emit(chain, TheoremImport(name))
            mid = emit(Impl(lifted_ij, goal), MP(new_index[rule.antecedent], first))
            new_index[k] = emit(goal, MP(new_index[rule.implication], mid))
        else:  # pragma: no cover - verify() already excluded other rules
            raise ProofError(k, f"rule {type(rule).__name__} in assumption mode")

    result = Derivation(
        d.system, tuple(out), frozenset(d.assumptions) - {phi}, imports
    )
    verify(result)
    return result


# --- derived-rule constructions ---------------------------------------------


def build_lifted_implication(
    coalition: Iterable[str],
    p,
    antecedent: Formula,
    consequent: Formula,
    implication_proof: Derivation,
) -> Derivation:
    """From a theorem-mode proof of ``antecedent -> consequent``, derive
    ``[C]_p antecedent -> [C]_p consequent`` in system L by detouring
    through the empty-coalition modality.

    Refused for system L+, whose language cannot express the detour; use
    its primitive monotonicity rule there instead.
    """
    left = Coal(coalition, p, antecedent)
    lifted = Impl(left, Coal(left.coalition, left.p, consequent))
    if implication_proof.system is not SystemId.L:
        raise ValueError(
            "the empty-coalition detour only exists in system L;"
            " in L+ use the primitive monotonicity rule"
        )
    verify(implication_proof)
    if not implication_proof.theorem_mode:
        raise ValueError("the implication proof must be theorem-mode")
    expected = Impl(antecedent, consequent)
    if implication_proof.conclusion != expected:
        raise ValueError(
            f"implication proof concludes {render(implication_proof.conclusion)},"
            f" expected {render(expected)}"
        )
    lines = list(implication_proof.lines)
    n = len(lines)
    boxed = Coal(frozenset(), 0, expected)
    lines.append(ProofLine(boxed, Necessitation(n - 1)))
    lines.append(ProofLine(Impl(boxed, lifted), AxCooperation()))
    lines.append(ProofLine(lifted, MP(n, n + 1)))
    result = Derivation(SystemId.L, tuple(lines), None)
    verify(result)
    return result


def build_coalition_weakening(
    smaller: Iterable[str],
    larger: Iterable[str],
    p,
    body: Formula,
    system: SystemId = SystemId.L,
) -> Derivation:
    """Theorem-mode proof of ``[C]_p body -> [D]_p body`` for C a subset
    of D: what a small coalition can force, a larger one can force too.
    When C equals D the implication is a tautology; otherwise the extra
    members commit at threshold 0 and cooperation combines the parts."""
    strong, weak = Coal(smaller, p, body), Coal(larger, p, body)
    c, dd = strong.coalition, weak.coalition
    if not c <= dd:
        raise ValueError("first coalition must be a subset of the second")
    if system is SystemId.LPLUS:
        if not c:
            raise ValueError(
                "the restricted language cannot name the empty coalition"
            )
        if not in_plus_language(body):
            raise ValueError("body lies outside the restricted language")
    goal = Impl(strong, weak)
    if c == dd:
        lines = (ProofLine(goal, Tautology()),)
        result = Derivation(system, lines, None)
        verify(result)
        return result
    rest = dd - c
    reflexive = Impl(body, body)
    lines = (
        ProofLine(reflexive, Tautology()),
        ProofLine(Coal(rest, 0, reflexive), Necessitation(0)),
        ProofLine(Impl(Coal(rest, 0, reflexive), goal), AxCooperation()),
        ProofLine(goal, MP(1, 2)),
    )
    result = Derivation(system, lines, None)
    verify(result)
    return result


# --- serialization -----------------------------------------------------------


class ProofFormatError(ValueError):
    pass


# a rule is written as its tag, then, when it has fields, ":" and their
# values joined by ","
_TAGS = {
    Tautology: "taut",
    AxCooperation: "coop",
    AxMonotonicity: "mono-ax",
    AxFalsehood: "false-ax",
    Assumption: "assume",
    TheoremImport: "import",
    MP: "mp",
    Necessitation: "nec",
    RuleMonotonicity: "mono-rule",
}
_RULES = {tag: rule for rule, tag in _TAGS.items()}


def _rule_to_str(rule: Justification) -> str:
    tag = _TAGS.get(type(rule))
    if tag is None:
        raise TypeError(f"unknown rule {rule!r}")
    if not fields(rule):
        return tag
    return f"{tag}:{','.join(map(str, astuple(rule)))}"


# a rule's line references: ASCII decimals only, as _rule_to_str writes
# them, so that int() reads no other digits, spaces or underscores
_LINE_REF = re.compile(r"[0-9]+")


def _rule_from_str(text: str) -> Justification:
    tag, colon, rest = text.partition(":")
    rule = _RULES.get(tag)
    if rule is None or bool(colon) != bool(fields(rule)):
        raise ProofFormatError(f"unknown rule {text!r}")
    if not colon:
        return rule()
    if rule is TheoremImport:  # the name is the whole rest of the text
        return rule(rest)
    refs = rest.split(",")
    try:
        if len(refs) == len(fields(rule)) and all(map(_LINE_REF.fullmatch, refs)):
            return rule(*map(int, refs))
    except ValueError:  # more digits than int() reads
        pass
    raise ProofFormatError(f"malformed rule {text!r}")


def derivation_to_dict(d: Derivation) -> dict:
    doc: dict = {
        "system": d.system.value,
        "mode": "theorem"
        if d.theorem_mode
        else {"assumptions": sorted(render(a) for a in d.assumptions)},
        "lines": [
            {"formula": render(line.formula), "rule": _rule_to_str(line.rule)}
            for line in d.lines
        ],
    }
    if d.imports:
        doc["imports"] = {
            name: derivation_to_dict(sub) for name, sub in sorted(d.imports.items())
        }
    return doc


def derivation_from_dict(doc: dict) -> Derivation:
    return _derivation_from_dict(doc, {})


def _derivation_from_dict(doc, parsed: dict) -> Derivation:
    """The derivation of ``doc``; ``parsed`` maps each formula text read
    so far in the document, imports included, to its formula, so each
    distinct text is parsed once."""

    def read(text):
        f = parsed.get(text)
        if f is None:
            f = parsed[text] = parse(text)
        return f

    if not isinstance(doc, dict):
        raise ProofFormatError("proof document must be an object")
    if "system" not in doc:
        raise ProofFormatError("system is missing")
    system_text = doc["system"]
    if not isinstance(system_text, str):
        raise ProofFormatError("system must be a string")
    try:
        system = SystemId(system_text)
    except ValueError:
        raise ProofFormatError(f"unknown system {system_text!r}") from None
    mode = doc.get("mode")
    if mode == "theorem":
        assumptions = None
    elif isinstance(mode, dict) and isinstance(mode.get("assumptions"), list):
        texts = mode["assumptions"]
        if not all(isinstance(text, str) for text in texts):
            raise ProofFormatError("assumptions must be formula strings")
        assumptions = frozenset(read(text) for text in texts)
    else:
        raise ProofFormatError(
            "mode must be \"theorem\" or {\"assumptions\": [...]}"
        )
    raw_lines = doc.get("lines")
    if not isinstance(raw_lines, list):
        raise ProofFormatError("lines must be a list")
    lines = []
    for i, entry in enumerate(raw_lines):
        if not isinstance(entry, dict) or not isinstance(entry.get("formula"), str) \
                or not isinstance(entry.get("rule"), str):
            raise ProofFormatError(f"line {i}: expected formula and rule strings")
        lines.append(
            ProofLine(read(entry["formula"]), _rule_from_str(entry["rule"]))
        )
    imports = {}
    raw_imports = doc.get("imports", {})
    if not isinstance(raw_imports, dict):
        raise ProofFormatError("imports must be an object")
    for name, sub in raw_imports.items():
        imports[name] = _derivation_from_dict(sub, parsed)
    return Derivation(system, tuple(lines), assumptions, imports)


def save_proof(d: Derivation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(derivation_to_dict(d), fh, indent=2)
        fh.write("\n")


def load_proof(path) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=json_int)
        except (json.JSONDecodeError, IntegerTooLong) as exc:
            raise ProofFormatError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ProofFormatError(f"not valid JSON: not UTF-8 at byte {exc.start}") from exc
        except RecursionError:
            raise ProofFormatError("document nests too deeply") from None
    return derivation_from_dict(doc)
