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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Optional, Union


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


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))
        object.__setattr__(self, "_agents", _NO_AGENTS)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Bot:
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(()))
        object.__setattr__(self, "_agents", _NO_AGENTS)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Neg:
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.body,)))
        object.__setattr__(self, "_agents", self.body._agents)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Impl:
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))
        object.__setattr__(self, "_agents", _union(self.left._agents, self.right._agents))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Coal:
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

    def __hash__(self):
        return self._hash


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
    """Canonical rendering; ``parse(render(f))`` returns f.  A chain of
    prefixes (negations and modalities) is printed in a loop, so a deep
    chain never exhausts the interpreter stack."""
    prefix = ""
    while True:
        if isinstance(f, Var):
            return prefix + f.name
        if isinstance(f, Impl):
            return f"{prefix}({render(f.left)} -> {render(f.right)})"
        if isinstance(f, Neg):
            if isinstance(f.body, Bot):
                return prefix + "true"
            prefix += "~"
        elif isinstance(f, Coal):
            names = ",".join(sorted(f.coalition))
            prefix += f"[{names}]_{f.p} "
        elif isinstance(f, Bot):
            return prefix + "false"
        else:
            raise TypeError(f"not a formula: {f!r}")
        f = f.body


def canonical_key(f: Formula):
    """Deterministic ordering key: size first, then rendered text."""
    return (formula_size(f), render(f))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(->)|([A-Za-z][A-Za-z0-9_]*)|([0-9]+\.[0-9]+)|([0-9]+)|([~\[\](),/_])"
)

_ARROW, _IDENT, _DECIMAL, _INT, _PUNCT = range(1, 6)

# ASCII whitespace only, as in the literals `exact` reads
_BLANKS = frozenset(" \t\n\r\f\v")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos] in _BLANKS:
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastindex
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, text_len: int, universe: Optional[frozenset]):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len
        self.universe = universe

    def _pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][2]
        return self.text_len

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text_len)
        self.i += 1
        return tok

    def expect_punct(self, ch: str):
        tok = self.peek()
        if tok is None or tok[0] != _PUNCT or tok[1] != ch:
            raise ParseError(f"expected {ch!r}", self._pos())
        self.i += 1

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == _PUNCT and tok[1] == ch

    def impl(self) -> Formula:
        left = self.unary()
        tok = self.peek()
        if tok is not None and tok[0] == _ARROW:
            self.i += 1
            return Impl(left, self.impl())
        return left

    def unary(self) -> Formula:
        # a chain of prefixes is read in a loop and applied innermost
        # first, so a deep chain never exhausts the interpreter stack
        prefixes = []
        while True:
            if self.at_punct("~"):
                self.i += 1
                prefixes.append(None)
            elif self.at_punct("["):
                prefixes.append(self.modal())
            else:
                break
        f = self.atom()
        for prefix in reversed(prefixes):
            f = Neg(f) if prefix is None else Coal(prefix[0], prefix[1], f)
        return f

    def modal(self):
        self.expect_punct("[")
        agents = []
        if not self.at_punct("]"):
            agents.append(self.agent())
            while self.at_punct(","):
                self.i += 1
                agents.append(self.agent())
        self.expect_punct("]")
        self.expect_punct("_")
        p = self.rational()
        return frozenset(agents), p

    def agent(self) -> str:
        tok = self.peek()
        if tok is None or tok[0] != _IDENT:
            raise ParseError("expected an agent name", self._pos())
        if tok[1] in _RESERVED:
            raise ParseError(f"reserved word {tok[1]!r} cannot name an agent", tok[2])
        if self.universe is not None and tok[1] not in self.universe:
            raise ParseError(f"unknown agent {tok[1]!r}", tok[2])
        self.i += 1
        return tok[1]

    def rational(self) -> Fraction:
        kind, text, pos = self.take()
        if kind not in (_DECIMAL, _INT):
            raise ParseError("expected a rational subscript", pos)
        if kind == _INT and self.at_punct("/"):
            self.i += 1
            den = self.take()
            if den[0] != _INT:
                raise ParseError("expected a denominator", den[2])
            if not den[1].strip("0"):
                raise ParseError("zero denominator is not a rational", den[2])
            text += "/" + den[1]
        try:
            value = exact(text)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        if not 0 <= value <= 1:
            raise ParseError(f"subscript {_shown(value)} outside [0, 1]", pos)
        return value

    def atom(self) -> Formula:
        tok = self.take()
        kind, text, pos = tok
        if kind == _IDENT:
            if text == "false":
                return Bot()
            if text == "true":
                return Neg(Bot())
            return Var(text)
        if kind == _PUNCT and text == "(":
            inner = self.impl()
            self.expect_punct(")")
            return inner
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text: str, universe: Optional[Iterable[str]] = None) -> Formula:
    """Parse a formula.

    When ``universe`` is given, every agent name must belong to it;
    otherwise agent names are taken at face value.
    """
    uni = frozenset(universe) if universe is not None else None
    parser = _Parser(_tokenize(text), len(text), uni)
    result = parser.impl()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing token {tok[1]!r}", tok[2])
    return result


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
