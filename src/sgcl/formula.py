"""Syntax of the coalition-survival modal language.

Formulas are built from propositional variables, falsum, negation,
implication, and the coalition modality ``[C]_p body``: coalition C can
commit to actions so that, however the remaining agents act, every
reachable non-failure state satisfies the body and the probability of
avoiding failure is at least p.  Subscripts are exact rationals in
[0, 1]; no floating point is used anywhere.

Concrete grammar (whitespace-insensitive)::

    formula  := impl
    impl     := unary ( "->" impl )?          # right associative
    unary    := ( "~" | modal )* atom
    modal    := "[" ( ident ("," ident)* )? "]" "_" rational
    atom     := "false" | "true" | ident | "(" formula ")"
    rational := integer | integer "/" integer | decimal
    ident    := [A-Za-z][A-Za-z0-9_]*

``true`` is parsed as ``~false``; ``[]`` is the empty coalition.  The
full language allows the empty coalition, the restricted "plus"
sub-language does not (see :func:`in_plus_language`).

:func:`parse` reads a text in one pass.  One regex scan yields its
tokens as strings.  One loop then reads them with an explicit stack of
open parentheses and pending ``->`` left operands (operator-precedence
parsing), so no nesting exhausts the interpreter stack.  Token positions
are found only to word an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Union


# ---------------------------------------------------------------------------
# exact rationals

# optional sign and surrounding ASCII whitespace around an integer, num/den
# with a nonzero denominator, or a plain decimal; group 1 catches exponent
# notation, which is refused before Fraction would expand it in full
_LITERAL = re.compile(
    r"\s*[+-]?(?:[0-9]+/0*[1-9][0-9]*"
    r"|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?)\s*",
    re.ASCII,
)
_FORMS = "an integer, num/den or a plain decimal"
# longest literal accepted: Python's default limit on the digits of one
# int parsed from a string, applied to the whole literal on every version
MAX_LITERAL_CHARS = 4300
# characters of a refused value echoed in its error
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """A value for an error message, cut to ``_SHOWN_CHARS`` characters; a
    ``Fraction`` shows as num/den."""
    text = str(value) if isinstance(value, Fraction) else repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def exact(value) -> Fraction:
    """The one gate from a caller's probability or threshold to a
    ``Fraction``: a Fraction is returned unchanged, an int that is not a
    bool is converted, and a string must be a literal of the grammar
    above and at most ``MAX_LITERAL_CHARS`` long, checked here so that
    what is accepted does not depend on the Python version.  Anything
    else, a subclass of Fraction included (exact arithmetic reads its
    numerator and denominator), raises ValueError, whose message shows
    only a short prefix of the value."""
    if type(value) is Fraction:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        problem = (
            "binary floating point is rejected" if isinstance(value, float)
            else "a subclass of Fraction is rejected" if isinstance(value, Fraction)
            else "not a Fraction, an int or a string"
        )
        raise ValueError(f"{_shown(value)}: {problem}; write {_FORMS} as a string")
    if len(value) > MAX_LITERAL_CHARS:
        raise ValueError(
            f"{_shown(value)}: literal of {len(value)} characters is longer"
            f" than the {MAX_LITERAL_CHARS} allowed")
    m = _LITERAL.fullmatch(value)
    if m is None or m.group(1):
        problem = "not a rational literal" if m is None else "exponent notation is rejected"
        raise ValueError(f"{_shown(value)}: {problem}; write {_FORMS}")
    return Fraction(value)


class IntegerTooLong(ValueError):
    """A JSON integer longer than ``MAX_LITERAL_CHARS`` characters."""


def json_int(text: str) -> int:
    """``json``'s ``parse_int`` hook for game and proof files: an integer
    is bounded like a literal, so a longer one raises IntegerTooLong
    instead of the interpreter's own digit-limit error."""
    if len(text) > MAX_LITERAL_CHARS:
        raise IntegerTooLong(
            f"integer of {len(text)} characters is longer than the"
            f" {MAX_LITERAL_CHARS} allowed")
    return int(text)


# ---------------------------------------------------------------------------
# formula nodes

# Every node computes its hash and its agent set once, at construction,
# from the cached values of its children: sets and dicts of formulas
# never walk a subtree, however deep.  Each hash equals the one the
# dataclass would generate (the hash of the field tuple), so sets of
# formulas iterate in the same order as with the generated hash.

_NO_AGENTS: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a | b if a and b else a or b


class _Node:
    """What every formula node shares: its cached hash, and ``==``, which
    walks two formulas along their chains of single children, keeping the
    right operands of implications on an explicit stack, so no depth
    exhausts the interpreter stack.  A pair of subtrees that are one
    object is equal unwalked; one whose types or cached hashes differ is
    unequal."""

    __slots__ = ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        a, b = self, other
        pending = []  # pairs of right operands still to compare
        while True:
            if a is not b:
                kind = type(a)
                if kind is not type(b) or a._hash != b._hash:
                    return False
                if kind is Impl:
                    pending.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
                if kind is Var:
                    if a.name != b.name:
                        return False
                elif kind is not Bot:  # a negation or a modality
                    if kind is Coal and (a.p != b.p or a.coalition != b.coalition):
                        return False
                    a, b = a.body, b.body
                    continue
            if not pending:
                return True
            a, b = pending.pop()


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))
        object.__setattr__(self, "_agents", _NO_AGENTS)


@dataclass(frozen=True, eq=False)
class Bot(_Node):
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(()))
        object.__setattr__(self, "_agents", _NO_AGENTS)


@dataclass(frozen=True, eq=False)
class Neg(_Node):
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.body,)))
        object.__setattr__(self, "_agents", self.body._agents)


@dataclass(frozen=True, eq=False)
class Impl(_Node):
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))
        object.__setattr__(self, "_agents", _union(self.left._agents, self.right._agents))


@dataclass(frozen=True, eq=False)
class Coal(_Node):
    """Coalition modality.  ``coalition`` is a set of agent names and may
    be empty; ``p`` must be an exact rational in [0, 1] (see :func:`exact`)."""

    coalition: frozenset
    p: Fraction
    body: "Formula"

    def __post_init__(self):
        if isinstance(self.coalition, str):
            raise ValueError(
                f"coalition {self.coalition!r} is a string; pass a set of agent names"
            )
        coalition = frozenset(self.coalition)
        p = exact(self.p)
        if not 0 <= p.numerator <= p.denominator:
            raise ValueError(f"modal subscript {_shown(p)} outside [0, 1]")
        object.__setattr__(self, "coalition", coalition)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_hash", hash((coalition, p, self.body)))
        object.__setattr__(self, "_agents", _union(coalition, self.body._agents))


Formula = Union[Var, Bot, Neg, Impl, Coal]

TOP: Formula = Neg(Bot())

_RESERVED = frozenset({"false", "true"})


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AtomCapError(ValueError):
    """Raised when a truth-table check would exceed the atom cap."""

    def __init__(self, atoms: int, cap: int):
        super().__init__(f"truth table over {atoms} atoms exceeds cap {cap}")
        self.atoms = atoms
        self.cap = cap


# ---------------------------------------------------------------------------
# traversal helpers


def subformulas(f: Formula) -> set:
    """All subformulas of f, including f itself."""
    seen: set = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, Neg):
            stack.append(g.body)
        elif isinstance(g, Impl):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Coal):
            stack.append(g.body)
    return seen


def agents_of(f: Formula) -> frozenset:
    """Agents named by any coalition in f, cached on the node."""
    return f._agents


def variables_of(f: Formula) -> frozenset:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        if isinstance(g, Neg):
            stack.append(g.body)
        elif isinstance(g, Impl):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Coal):
            stack.append(g.body)
    return n


def in_plus_language(f: Formula) -> bool:
    """True when no modality in f has an empty coalition."""
    return all(
        g.coalition for g in subformulas(f) if isinstance(g, Coal)
    )


# ---------------------------------------------------------------------------
# printing


def render(f: Formula) -> str:
    """Canonical rendering; ``parse(render(f))`` returns f.  Prefixes
    (negations and modalities) are printed in a loop, and the right
    operand of each implication waits on an explicit stack, with the text
    that closes it, until its left operand is printed, so no depth
    exhausts the interpreter stack."""
    text = ""
    pending = []  # right operands and closing texts still to print, last first
    while True:
        kind = type(f)
        if kind is Impl:
            text += "("
            pending.append(")")
            pending.append(f.right)
            pending.append(" -> ")
            f = f.left
            continue
        if kind is Var:
            text += f.name
        elif kind is Neg:
            if type(f.body) is Bot:
                text += "true"
            else:
                text += "~"
                f = f.body
                continue
        elif kind is Coal:
            text += f"[{','.join(sorted(f.coalition))}]_{f.p} "
            f = f.body
            continue
        elif kind is Bot:
            text += "false"
        else:
            raise TypeError(f"not a formula: {f!r}")
        # a leaf is printed: add closing texts up to the next operand
        while pending:
            f = pending.pop()
            if type(f) is not str:
                break
            text += f
        else:
            return text


def canonical_key(f: Formula):
    """Deterministic ordering key: size first, then rendered text."""
    return (formula_size(f), render(f))


# ---------------------------------------------------------------------------
# parsing

# one token after any blanks (ASCII whitespace only, as in the literals
# `exact` reads): an arrow, an identifier, a number or any other single
# character, which the parser refuses unless it is a punctuation mark
_TOKEN = re.compile(
    r"[ \t\n\r\f\v]*(->|[A-Za-z][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?|[^ \t\n\r\f\v])"
)
_PUNCT = "~[](),/_"
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")


def _error(text: str, tokens: list, message: str, index: int) -> ParseError:
    """The error to raise at token ``index`` (the end of input past the
    last token), unless the text holds a character no token may start
    with: the first such character is reported instead, wherever it is.
    Token positions are found only here, by the same regex."""
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    for t, start in zip(tokens, starts):
        if len(t) == 1 and t not in _PUNCT and not (t.isascii() and t.isalnum()):
            return ParseError(f"unexpected character {t!r}", start)
    return ParseError(message, starts[index] if index < len(starts) else len(text))


def parse(text: str) -> Formula:
    """Parse a formula; agent names are taken at face value."""
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    tokens.append("")  # the end of input
    atoms = {"false": TOP.body, "true": TOP}
    # for each open parenthesis, the list of prefixes read before it; for
    # each pending "->", its left operand
    stack: list = []
    prefixes: list = []
    i = 0
    while True:
        t = tokens[i]
        if t == "~":
            prefixes.append(None)
            i += 1
            continue
        if t == "[":
            i += 1
            agents = []
            if tokens[i] != "]":
                while True:
                    t = tokens[i]
                    if t[:1] not in _LETTERS:
                        raise _error(text, tokens, "expected an agent name", i)
                    if t in _RESERVED:
                        raise _error(text, tokens, f"reserved word {t!r} cannot name an agent", i)
                    agents.append(t)
                    i += 1
                    if tokens[i] != ",":
                        break
                    i += 1
            for mark in "]_":
                if tokens[i] != mark:
                    raise _error(text, tokens, f"expected {mark!r}", i)
                i += 1
            t, at = tokens[i], i
            if t[:1] not in _DIGITS:
                raise _error(text, tokens, "unexpected end of input" if i == end
                             else "expected a rational subscript", i)
            i += 1
            if "." not in t and tokens[i] == "/":
                i += 1
                den = tokens[i]
                if den[:1] not in _DIGITS or "." in den:
                    raise _error(text, tokens, "unexpected end of input" if i == end
                                 else "expected a denominator", i)
                if not den.strip("0"):
                    raise _error(text, tokens, "zero denominator is not a rational", i)
                t += "/" + den
                i += 1
            try:
                p = exact(t)
            except ValueError as exc:
                raise _error(text, tokens, str(exc), at) from None
            if p.numerator > p.denominator:
                raise _error(text, tokens, f"subscript {_shown(p)} outside [0, 1]", at)
            prefixes.append((frozenset(agents), p))
            continue
        if t == "(":
            stack.append(prefixes)
            prefixes = []
            i += 1
            continue
        if t[:1] not in _LETTERS:
            raise _error(text, tokens, "unexpected end of input" if i == end
                         else f"unexpected token {t!r}", i)
        f = atoms.get(t)
        if f is None:
            f = atoms[t] = Var(t)
        i += 1
        # an operand is complete: apply its prefixes innermost first, then
        # close every implication and parenthesis that it completes
        while True:
            for prefix in reversed(prefixes):
                f = Neg(f) if prefix is None else Coal(prefix[0], prefix[1], f)
            prefixes = []
            t = tokens[i]
            if t == "->":
                stack.append(f)
                i += 1
                break
            while stack and type(stack[-1]) is not list:
                f = Impl(stack.pop(), f)
            if not stack:
                if i < end:
                    raise _error(text, tokens, f"unexpected trailing token {t!r}", i)
                return f
            if t != ")":
                raise _error(text, tokens, "expected ')'", i)
            prefixes = stack.pop()
            i += 1


# ---------------------------------------------------------------------------
# closure sets


@dataclass(frozen=True)
class ClosureSet:
    """A finite set of formulas closed under subformulas, where every
    non-negation member also has its negation present.  Formulas are kept
    deduplicated in canonical order.  ``texts`` maps each member, in the
    same order, to its rendering, taken from the sort's own keys, so no
    caller needs to render a member again."""

    formulas: tuple
    texts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keyed = sorted(
            ((canonical_key(f), f) for f in set(self.formulas)),
            key=lambda pair: pair[0],
        )
        ordered = tuple(f for _, f in keyed)
        object.__setattr__(self, "formulas", ordered)
        object.__setattr__(self, "texts", {f: key[1] for key, f in keyed})
        present = self.texts
        for f in ordered:
            for g in _direct_children(f):
                if g not in present:
                    raise ValueError(f"not subformula-closed: missing {render(g)}")
            if not isinstance(f, Neg) and Neg(f) not in present:
                raise ValueError(f"missing complement ~{render(f)}")

    def __contains__(self, f: Formula) -> bool:
        return f in self.texts

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def agents(self) -> frozenset:
        out: set = set()
        for f in self.formulas:
            out |= agents_of(f)
        return frozenset(out)

    def variables(self) -> frozenset:
        """Names of the closure's variables: being subformula-closed, it
        holds each of them as a member."""
        return frozenset(f.name for f in self.formulas if isinstance(f, Var))


def _direct_children(f: Formula):
    if isinstance(f, Neg):
        return (f.body,)
    if isinstance(f, Impl):
        return (f.left, f.right)
    if isinstance(f, Coal):
        return (f.body,)
    return ()


def closure(seed: Iterable[Formula]) -> ClosureSet:
    """Smallest closure set containing every seed formula."""
    subs: set = set()
    for f in seed:
        subs |= subformulas(f)
    full = set(subs)
    for f in subs:
        if not isinstance(f, Neg):
            full.add(Neg(f))
    return ClosureSet(tuple(full))


# ---------------------------------------------------------------------------
# propositional reasoning over the modal skeleton

# truth tables wider than this many atoms are refused, not approximated
ATOM_CAP = 20

# the tautology check evaluates every valuation of up to this many atoms
# in one pass and enumerates the valuations of the rest, so a truth value
# never takes more than 2**_PARALLEL bits
_PARALLEL = 10


def evaluate(order: Iterable[Formula], truth: dict) -> dict:
    """Extend ``truth``, which gives the truth value of every variable and
    modality among ``order``, to each ``false``, negation and implication
    of ``order``.  Formulas must be listed children first.

    A truth value is an int read as a vector of bits, one bit per
    valuation: a formula holds in the valuations whose bit is set, so -1
    is true and 0 is false in every valuation.  ``truth`` is extended in
    place and returned."""
    for f in order:
        if isinstance(f, Bot):
            truth[f] = 0
        elif isinstance(f, Neg):
            truth[f] = ~truth[f.body]
        elif isinstance(f, Impl):
            truth[f] = ~truth[f.left] | truth[f.right]
    return truth


def _skeleton(f: Formula) -> list:
    """The nodes of f down to its maximal variables and modalities, each
    once, children first."""
    order: list = []
    seen: set = set()
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            order.append(g)
            continue
        if g in seen:
            continue
        seen.add(g)
        stack.append((g, True))
        if isinstance(g, Neg):
            stack.append((g.body, False))
        elif isinstance(g, Impl):
            stack.append((g.right, False))
            stack.append((g.left, False))
    return order


def _column(i: int, every: int) -> int:
    """The truth value of inner atom i when ``every`` has one set bit per
    valuation of the inner atoms: bit b is bit i of b, so the columns of
    the inner atoms hold every valuation once.  The column repeats 2**i
    zeros then 2**i ones, a block of 2 << i bits; ``every`` divided by
    an all-ones block has a 1 at the start of each block, so one product
    lays the ones of every block at once."""
    return every // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))


def is_tautology(f: Formula) -> bool:
    """Truth-table validity of f's propositional skeleton, in which every
    variable and modality is an opaque atom.

    The proof kernel's ``taut`` rule and the bounded search's screen
    both call it.  Raises :class:`AtomCapError` rather than
    approximating when the skeleton has more than :data:`ATOM_CAP`
    distinct atoms.
    """
    order = _skeleton(f)
    atoms = [g for g in order if isinstance(g, (Var, Coal))]
    if len(atoms) > ATOM_CAP:
        raise AtomCapError(len(atoms), ATOM_CAP)
    inner, outer = atoms[:_PARALLEL], atoms[_PARALLEL:]
    rows = 1 << len(inner)
    every = (1 << rows) - 1
    columns = {a: _column(i, every) for i, a in enumerate(inner)}
    for signs in product((-1, 0), repeat=len(outer)):
        truth = dict(zip(outer, signs))
        truth.update(columns)
        if evaluate(order, truth)[f] & every != every:
            return False
    return True
