"""Canonical game construction over a finite closure set.

Given a closure set of formulas, the states of the canonical game are
the maximal consistent subsets of that closure, plus one failure state.
A maximal set is fixed by the truth values of the closure's atoms (its
variables and modalities); every other member follows by evaluation, so
the sets are enumerated over atom signs and a pluggable oracle rejects
those whose modal literals visibly contradict a theorem.

Each agent's action is a request: the pair (body, p) of a modality
[C]_p body of the closure whose coalition C is non-empty, or the opt-out
(true, -1), which belongs to no modality and so grants nothing.  The
requests are numbered in the order of :func:`action_domain`, and a
profile is a tuple of those numbers, one per agent.

At a state s under a complete profile, the granted commitments are the
modalities in s whose coalition members all chose the number of the
matching (body, p) request; a modality with an empty coalition is
granted by every profile and so needs no action.  Their strongest
threshold (0 when none is granted) is shared uniformly among the target
states, the maximal sets containing every granted body; the rest of the
mass goes to the failure state.  The point of the construction is that membership
and truth coincide, which :func:`audit_truth_lemma` measures rather than
assumes.

The domain is a quotient of the paper's, where an agent may request any
closure formula (or true) at any subscript of the closure, 0 or -1.  A
request no non-empty-coalition modality of the closure asks for is never
granted, so it yields the opt-out's row at every state: every row of the
paper's game is the row of the profile that replaces such requests by the
opt-out, and no formula changes its truth value.

The correspondence is provable only for positive thresholds.  A profile
granting nothing yields rows that send all mass to the failure state, at
which point any zero-threshold modality holds vacuously, member or not,
and the audit will report exactly those disagreements when the closure
contains a formula [C]_0 x whose denial is satisfiable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping, Optional, Protocol, Sequence

from .formula import (
    TOP,
    Bot,
    ClosureSet,
    Coal,
    Formula,
    Impl,
    Neg,
    Var,
    evaluate,
    formula_size,
    in_plus_language,
    render,
)
from .game import Game
from .modelcheck import CheckError, label
from .proof import SystemId

FAILURE_STATE = "f"


class CanonicalError(Exception):
    pass


class ClosureCapError(CanonicalError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"closure set has {size} formulas, cap is {cap}")
        self.size = size
        self.cap = cap


class Judgment(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"


class ConsistencyOracle(Protocol):
    def judge(self, candidate: frozenset) -> Judgment: ...


class HintikkaOracle:
    """Sound but incomplete consistency filter.

    Rejects a candidate set when it holds a formula and its negation (or
    falsum itself), when it claims falsum achievable at positive
    threshold, or when it visibly contradicts one of the derivable
    closure principles (threshold weakening, coalition weakening,
    cooperation).  Every rejection is backed by a theorem, so rejected
    sets are genuinely inconsistent; accepted sets are only "not refuted
    here".  Propositional consistency of a whole maximal set is not
    checked here: :func:`enumerate_maximal_sets` derives every
    non-atomic member by evaluation.
    """

    def judge(self, candidate: frozenset) -> Judgment:
        for f in candidate:
            if isinstance(f, Bot) or (isinstance(f, Neg) and f.body in candidate):
                return Judgment.INCONSISTENT
        positives = [f for f in candidate if isinstance(f, Coal)]
        negatives = [
            f.body for f in candidate
            if isinstance(f, Neg) and isinstance(f.body, Coal)
        ]

        def denied(claim: Coal) -> bool:
            # anything the claim entails by weakening the threshold or
            # enlarging the coalition must not be negated alongside it
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


def default_oracle() -> HintikkaOracle:
    return HintikkaOracle()


@dataclass(frozen=True)
class MaximalSet:
    """A maximal consistent subset of a closure set: for every
    non-negation formula of the closure, exactly one of it and its
    negation is a member."""

    members: frozenset

    def key(self) -> tuple:
        return tuple(sorted((render(f) for f in self.members)))


def enumerate_maximal_sets(
    sigma: ClosureSet,
    oracle: Optional[ConsistencyOracle] = None,
    cap: int = 24,
) -> tuple:
    """All maximal subsets of the closure accepted by the oracle.

    A maximal set is fixed by the truth values of its atoms, the
    variables and modalities of the closure.  Backtracking picks a sign
    for each atom in canonical order and prunes a branch as soon as the
    oracle rejects the atom literals chosen so far.  At a leaf every other
    member follows by evaluation (canonical order puts subformulas first),
    and the oracle judges the whole set once, so a custom oracle still
    sees complete sets."""
    if len(sigma) > cap:
        raise ClosureCapError(len(sigma), cap)
    if oracle is None:
        oracle = default_oracle()
    atoms = [f for f in sigma if isinstance(f, (Var, Coal))]
    truth: dict = {}
    literals: list = []
    out = []

    def descend(i: int) -> None:
        if i == len(atoms):
            value = evaluate(sigma, dict(truth))
            members = frozenset(f for f in sigma if value[f])
            if oracle.judge(members) is not Judgment.INCONSISTENT:
                out.append(MaximalSet(members))
            return
        if oracle.judge(frozenset(literals)) is Judgment.INCONSISTENT:
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


# ---------------------------------------------------------------------------
# actions and transition data

# the request that belongs to no modality and so grants nothing
OPT_OUT = (TOP, Fraction(-1))


def _text(sigma: ClosureSet, f: Formula) -> str:
    """The closure's stored rendering of f; the opt-out's ``true`` need
    not be a member, and is rendered here when it is not."""
    return sigma.texts.get(f) or render(f)


def action_domain(sigma: ClosureSet) -> tuple:
    """One request ``(body, p)`` per modality [C]_p body of the closure
    with a non-empty coalition, plus :data:`OPT_OUT`, in canonical order
    of the body, then of the threshold."""
    requests = {(f.body, f.p) for f in sigma if isinstance(f, Coal) and f.coalition}
    requests.add(OPT_OUT)
    return tuple(sorted(requests, key=lambda r: (
        formula_size(r[0]), _text(sigma, r[0]), r[1])))


def _row(granted: tuple, sets: Sequence[MaximalSet], names: Sequence[str]) -> tuple:
    """``(row, guarded)`` for the modalities a profile grants at a state:
    their strongest threshold mu (0 when none is granted) shared
    uniformly among the targets, the states of ``sets`` (named by
    ``names``) containing every granted body, and the rest of the mass on
    the failure state.  When no maximal set contains all granted bodies
    yet mu is positive, the construction cannot honor the grant; all mass
    then routes to the failure state and ``guarded`` is true (callers
    report such pairs)."""
    mu = max((m.p for m in granted), default=0)
    if mu == 0:
        return {FAILURE_STATE: Fraction(1)}, False
    bodies = {m.body for m in granted}
    targets = [name for name, t in zip(names, sets) if bodies <= t.members]
    if not targets:
        return {FAILURE_STATE: Fraction(1)}, True
    row = dict.fromkeys(targets, mu / len(targets))
    if mu < 1:
        row[FAILURE_STATE] = 1 - mu
    return row, False


@dataclass
class CanonicalDiagnostics:
    guard_pairs: list = field(default_factory=list)
    action_count: int = 0
    # state name -> MaximalSet, s0, s1, ... in order
    sets: dict = field(default_factory=dict, repr=False)
    # the closure the sets were drawn from
    closure: Optional[ClosureSet] = field(default=None, init=False, repr=False)

    @property
    def state_count(self) -> int:
        return len(self.sets)

    @property
    def profile_count(self) -> int:
        """Complete profiles: one action for each agent of the closure."""
        return self.action_count ** len(self.closure.agents())

    @property
    def no_consistent_sets(self) -> bool:
        return not self.sets

    @property
    def state_members(self) -> dict:
        """State name -> rendered members in canonical order: the
        closure's own order and texts, filtered by membership."""
        texts = self.closure.texts.items()
        return {
            name: [text for f, text in texts if f in s.members]
            for name, s in self.sets.items()
        }

    def to_dict(self) -> dict:
        return {
            "states": self.state_count,
            "actions": self.action_count,
            "profiles": self.profile_count,
            "state_members": self.state_members,
            "guard_pairs": [
                {"state": s, "profile": p} for s, p in self.guard_pairs
            ],
            "no_consistent_sets": self.no_consistent_sets,
        }


def build_canonical_game(
    sigma: ClosureSet,
    system: SystemId = SystemId.L,
    oracle: Optional[ConsistencyOracle] = None,
    cap: int = 24,
) -> tuple:
    """Construct the canonical game for a closure set.

    Returns ``(game, diagnostics)``.  States are named s0, s1, ... in the
    order of their sorted member renderings (:meth:`MaximalSet.key`, read
    from the closure's stored texts), plus the failure state
    ``f``; ``diagnostics.sets`` maps each name to its maximal set.  The
    rows are exact and well formed by construction, so the game is built
    from its row table and not validated (the tests validate it); when
    the oracle rejects every candidate set the game has only the failure
    state and the diagnostics say so.
    """
    texts = sigma.texts
    if system is SystemId.LPLUS:
        for f, text in texts.items():
            if not in_plus_language(f):
                raise CanonicalError(f"{text} lies outside the restricted language")
    agents = tuple(sorted(sigma.agents()))
    sets = sorted(
        enumerate_maximal_sets(sigma, oracle, cap),
        key=lambda s: sorted(texts[f] for f in s.members),
    )
    actions = action_domain(sigma)
    action_ids = tuple(f"({_text(sigma, body)},{p})" for body, p in actions)
    diag = CanonicalDiagnostics(action_count=len(actions))
    diag.sets = {f"s{i}": s for i, s in enumerate(sets)}
    diag.closure = sigma
    names = tuple(diag.sets)
    # each modality of the closure with the index of its request (-1 when
    # the domain has none) and the positions of its coalition's members;
    # a profile is a tuple of action indices in product order, and it
    # grants a modality when every member chose the request's index
    index = {r: i for i, r in enumerate(actions)}
    position = {a: j for j, a in enumerate(agents)}
    modalities = [
        (f, index.get((f.body, f.p), -1), tuple(position[a] for a in f.coalition))
        for f in sigma if isinstance(f, Coal)
    ]
    profiles = tuple(product(range(len(actions)), repeat=len(agents)))
    # a row depends only on the granted modalities, so each distinct
    # granted tuple (in closure order) is turned into a row once:
    # granted -> (row id, guarded)
    rows = []
    row_of = {}
    row_ids = {}
    for name, s in diag.sets.items():
        held = [m for m in modalities if m[0] in s.members]
        ids = []
        for profile in profiles:
            granted = tuple(
                f for f, r, js in held if all(profile[j] == r for j in js))
            entry = row_of.get(granted)
            if entry is None:
                row, guarded = _row(granted, sets, names)
                entry = row_of[granted] = (len(rows), guarded)
                rows.append(row)
            i, guarded = entry
            if guarded:
                diag.guard_pairs.append(
                    (name, {a: action_ids[x] for a, x in zip(agents, profile)}))
            ids.append(i)
        row_ids[name] = ids
    row_ids[FAILURE_STATE] = (len(rows),) * len(profiles)
    rows.append({FAILURE_STATE: Fraction(1)})
    valuation = {
        v: frozenset(name for name, s in diag.sets.items() if Var(v) in s.members)
        for v in sorted(sigma.variables())
    }
    game = Game(
        agents=agents,
        states=names + (FAILURE_STATE,),
        failures=(FAILURE_STATE,),
        actions=action_ids,
        rows=rows,
        row_ids=row_ids,
        valuation=valuation,
    )
    return game, diag


@dataclass
class TruthLemmaReport:
    checked: int = 0
    disagreements: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.disagreements


def audit_truth_lemma(
    game: Game, sigma: ClosureSet, sets: Mapping[str, MaximalSet]
) -> TruthLemmaReport:
    """Compare membership against model-checked truth for every formula of
    the closure at every state of ``sets``, which maps non-failure state
    names to maximal sets, as ``CanonicalDiagnostics.sets`` does.
    Disagreements are listed by state in the order of ``sets``, then by
    formula in closure order, and localize a gap in the oracle (or a
    construction bug); a clean report is evidence the canonical game
    means what its states say.

    Every formula is wanted at every state, so the closure is labeled
    once by :func:`sgcl.modelcheck.label`, children first, and truth is
    read bit by bit from each extent; the point queries of
    :func:`sgcl.modelcheck.holds` stay lazy for the callers that ask
    about one state."""
    extents = label(game, sigma.formulas)
    bit = {s: 1 << i for i, s in enumerate(game.nonfailure_states)}
    # membership as masks over the same bits as the extents
    membership = dict.fromkeys(sigma.texts, 0)
    audited = 0
    for name, s in sets.items():
        b = bit.get(name)
        if b is None:
            raise CheckError(f"{name!r} is not a non-failure state of the game")
        audited |= b
        for f in s.members:
            if f in membership:
                membership[f] |= b
    wrong = {}  # formula -> bits of the states where membership and truth split
    for f, m in membership.items():
        split = (extents[f] ^ m) & audited
        if split:
            wrong[f] = split
    report = TruthLemmaReport(checked=len(sets) * len(sigma))
    if not wrong:
        return report
    for name, s in sets.items():
        b = bit[name]
        for f, split in wrong.items():
            if split & b:
                member = f in s.members
                report.disagreements.append(
                    {"state": name, "formula": sigma.texts[f],
                     "member": member, "holds": not member}
                )
    return report
