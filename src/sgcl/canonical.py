"""Canonical game construction over a finite closure set.

Given a closure set of formulas, the states of the canonical game are
the maximal consistent subsets of that closure, plus one failure state.
A maximal set is fixed by the truth values of the closure's atoms (its
variables and modalities); every other member follows by evaluation, so
the sets are enumerated over atom signs, each non-atomic member settled
as soon as its last atom is, and an oracle judges each complete set once,
rejecting those whose modal literals visibly contradict a theorem.  A set
is one integer mask over the closure's positions (bit k for
``sigma.formulas[k]``): the enumerator builds it, the oracle, compiled
once per closure into nogoods over those bits, judges it, and the rest of
this module works on it.

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
mass goes to the failure state.  As masks, a profile's grant is the AND
over its agents of the modalities each agent's choice leaves grantable,
the modalities granted at s are s's mask AND the grant, and a target
is a state whose mask holds every granted body's bit.  The point of the
construction is that membership and truth coincide, which
:func:`audit_truth_lemma` measures rather than assumes.

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
from typing import Mapping, Optional, Sequence

from .formula import (
    TOP,
    Bot,
    ClosureSet,
    Coal,
    Formula,
    Impl,
    Neg,
    Var,
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


class HintikkaOracle:
    """Sound but incomplete consistency filter over the masks of one
    closure (bit k for ``sigma.formulas[k]``).

    Every rule is a theorem-backed constraint on two or three modalities
    of the closure, so the oracle is compiled once, on construction, into
    nogoods: pairs ``(need, deny)`` of bit masks, and a set is rejected
    when it holds every modality of ``need`` and none of ``deny``.  There
    are three kinds:

    - falsum at a positive threshold: ``[C]_p false`` with ``p > 0``;
    - threshold and coalition weakening: ``[C]_p x`` without
      ``[D]_r x``, where ``C ⊆ D`` and ``r ≤ p``;
    - cooperation: ``[C]_p (x -> y)`` and ``[D]_q x`` with ``C`` and
      ``D`` disjoint, without ``[E]_r y``, where ``C ∪ D ⊆ E`` and
      ``r ≤ max(p, q)``.

    The closure holds the negation of every modality, and a maximal set
    holds exactly one of the two, so lacking ``[D]_r x`` is denying it.
    A pair whose ``deny`` shares a bit with its ``need`` could never fire
    and is not kept.
    Rejected sets are genuinely inconsistent; accepted sets are only "not
    refuted here".  A formula beside its negation, or ``false`` as a
    member, needs no rule: :func:`enumerate_maximal_sets` derives every
    non-atomic member by evaluation, which makes both impossible.
    """

    def __init__(self, sigma: ClosureSet):
        bits = {f: 1 << k for k, f in enumerate(sigma.formulas)}
        coals = [f for f in sigma.formulas if isinstance(f, Coal)]
        on_body: dict = {}  # body -> [(bit, coalition, p)] of each [C]_p body
        for f in coals:
            on_body.setdefault(f.body, []).append((bits[f], f.coalition, f.p))
        nogoods = []
        for f in coals:
            bit = bits[f]
            if isinstance(f.body, Bot) and f.p > 0:
                nogoods.append((bit, 0))
            nogoods += [(bit, b) for b, c, r in on_body[f.body]
                        if not bit & b and c >= f.coalition and r <= f.p]
        for outer in coals:
            body = outer.body
            if not isinstance(body, Impl) or body.right not in on_body:
                continue
            for bit, coalition, q in on_body.get(body.left, ()):
                if outer.coalition & coalition:
                    continue
                union = outer.coalition | coalition
                p = max(outer.p, q)
                need = bits[outer] | bit
                nogoods += [(need, b) for b, c, r in on_body[body.right]
                            if not need & b and c >= union and r <= p]
        self.nogoods = tuple(nogoods)

    def judge(self, mask: int) -> Judgment:
        for need, deny in self.nogoods:
            if mask & need == need and not mask & deny:
                return Judgment.INCONSISTENT
        return Judgment.CONSISTENT


def enumerate_maximal_sets(sigma: ClosureSet, oracle=None, cap: int = 24) -> tuple:
    """The masks of the complete sets of the closure that the oracle
    accepts, in order; bit k of a mask is set when ``sigma.formulas[k]``
    is a member.  ``oracle`` defaults to the closure's
    :class:`HintikkaOracle`; any object whose ``judge`` takes a mask can
    stand in for it, as the tests' stricter oracles do.

    A maximal set is fixed by the truth values of its atoms, the
    variables and modalities of the closure.  Backtracking picks a sign
    for each atom in canonical order, true before false, and the first
    atom outermost.  Every other formula is settled at the depth of the
    last atom it depends on (formulas over no atom, such as ``false``,
    before the first), so setting an atom evaluates only the formulas it
    completes, reading its operands' bits from the mask passed down.  At
    a leaf the mask holds one of f and ~f for every non-negation f of the
    closure, and the oracle judges that complete set once."""
    if len(sigma) > cap:
        raise ClosureCapError(len(sigma), cap)
    if oracle is None:
        oracle = HintikkaOracle(sigma)
    formulas = sigma.formulas
    bits = {f: 1 << k for k, f in enumerate(formulas)}
    atoms = [f for f in formulas if isinstance(f, (Var, Coal))]
    atom_bits = [bits[f] for f in atoms]
    # schedule[d]: the formulas settled once d atoms are set, each as
    # (bit, a, b), a member when the mask lacks a or holds b; a negation
    # ~x is x -> false, and ``false`` is never a member, so its b is 0
    schedule: list = [[] for _ in range(len(atoms) + 1)]
    depth = {f: d for d, f in enumerate(atoms, 1)}
    for f in formulas:
        if isinstance(f, Bot):
            depth[f] = 0
        elif isinstance(f, Neg):
            d = depth[f] = depth[f.body]
            schedule[d].append((bits[f], bits[f.body], 0))
        elif isinstance(f, Impl):
            d = depth[f] = max(depth[f.left], depth[f.right])
            schedule[d].append((bits[f], bits[f.left], bits[f.right]))
    out = []

    def settle(steps, mask: int) -> int:
        for bit, a, b in steps:
            if not mask & a or mask & b:
                mask |= bit
        return mask

    def descend(i: int, mask: int) -> None:
        if i == len(atoms):
            if oracle.judge(mask) is not Judgment.INCONSISTENT:
                out.append(mask)
            return
        for bit in (atom_bits[i], 0):  # true, then false
            descend(i + 1, settle(schedule[i + 1], mask | bit))

    descend(0, settle(schedule[0], 0))
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


def _row(granted: int, modalities: Sequence[tuple], masks: Sequence[int],
         names: Sequence[str]) -> tuple:
    """``(row, guarded)`` for the modalities a profile grants at a state,
    given as the mask ``granted`` over the closure's positions, with
    ``modalities`` listing each modality of the closure as (bit,
    threshold, its body's bit): their strongest threshold mu (0 when
    none is granted) shared uniformly among the targets, the states
    named by ``names`` whose ``masks`` hold every granted body, and the
    rest of the mass on the failure state.  When no maximal set contains
    all granted bodies yet mu is positive, the construction cannot honor
    the grant; all mass then routes to the failure state and ``guarded``
    is true (callers report such pairs)."""
    mu = 0
    bodies = 0
    for bit, p, body in modalities:
        if granted & bit:
            mu = max(mu, p)
            bodies |= body
    if mu == 0:
        return {FAILURE_STATE: Fraction(1)}, False
    targets = [name for name, m in zip(names, masks) if m & bodies == bodies]
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
    # state name -> the mask of its maximal set, s0, s1, ... in order
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
        texts = [(1 << k, text) for k, text in enumerate(self.closure.texts.values())]
        return {
            name: [text for bit, text in texts if mask & bit]
            for name, mask in self.sets.items()
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
    oracle=None,
    cap: int = 24,
) -> tuple:
    """Construct the canonical game for a closure set.

    Returns ``(game, diagnostics)``.  States are named s0, s1, ... in the
    order of their sorted member renderings (read from the closure's
    stored texts), plus the failure state ``f``; ``diagnostics.sets``
    maps each name to the mask of its maximal set.  The rows are exact
    and well formed by construction, so the game is built from its row
    table and not validated (the tests validate it); when the oracle
    rejects every candidate set the game has only the failure state and
    the diagnostics say so.

    States are sorted by the ranks of their members among the closure's
    sorted texts; the texts are unique, so this is the order of the
    sorted texts themselves.
    Once per closure, each agent's choice of each action gets the mask
    of the modalities it leaves grantable (those whose coalition lacks
    the agent, or whose request is that action), and each complete
    profile, in product order, the AND of its agents' masks.  A state's
    modalities granted by profile k are then ``mask & grants[k]``, and
    the row built for that int is shared by every pair granting it.
    """
    texts = sigma.texts
    if system is SystemId.LPLUS:
        for f, text in texts.items():
            if not in_plus_language(f):
                raise CanonicalError(f"{text} lies outside the restricted language")
    formulas = sigma.formulas
    agents = tuple(sorted(sigma.agents()))
    # rank_bits[r]: the bit of the closure position whose text is r-th
    # in sorted order, so a set's ranks are read off its mask in order
    rank_bits = [1 << k for k in sorted(range(len(formulas)),
                                         key=list(texts.values()).__getitem__)]
    masks = sorted(
        enumerate_maximal_sets(sigma, oracle, cap),
        key=lambda m: [r for r, b in enumerate(rank_bits) if m & b],
    )
    actions = action_domain(sigma)
    action_ids = tuple(f"({_text(sigma, body)},{p})" for body, p in actions)
    diag = CanonicalDiagnostics(action_count=len(actions))
    diag.sets = {f"s{i}": m for i, m in enumerate(masks)}
    diag.closure = sigma
    names = tuple(diag.sets)
    position = {f: k for k, f in enumerate(formulas)}
    coals = [(1 << k, f) for k, f in enumerate(formulas) if isinstance(f, Coal)]
    modalities = [(bit, f.p, 1 << position[f.body]) for bit, f in coals]
    # grants[k]: the modalities profile k grants, profiles in product
    # order of the action indices over the agents, first agent outermost;
    # a modality with an empty coalition is granted by every profile
    index = {r: i for i, r in enumerate(actions)}
    grants = [sum(bit for bit, _ in coals)]
    for a in agents:
        allowed = [sum(bit for bit, f in coals if a not in f.coalition)] * len(actions)
        for bit, f in coals:
            if a in f.coalition:
                allowed[index[f.body, f.p]] |= bit
        grants = [g & m for g in grants for m in allowed]
    # a row depends only on the granted modalities, so each distinct
    # granted mask is turned into a row once: granted -> (row id, guarded)
    rows = []
    row_of = {}
    row_ids = {}
    for name, held in zip(names, masks):
        ids = []
        for k, grant in enumerate(grants):
            granted = held & grant
            entry = row_of.get(granted)
            if entry is None:
                row, guarded = _row(granted, modalities, masks, names)
                entry = row_of[granted] = (len(rows), guarded)
                rows.append(row)
            i, guarded = entry
            if guarded:
                # profile k's action indices are its base-len(actions)
                # digits, the last agent's least significant
                chosen = []
                rest = k
                for _ in agents:
                    rest, x = divmod(rest, len(actions))
                    chosen.append(action_ids[x])
                diag.guard_pairs.append((name, dict(zip(agents, reversed(chosen)))))
            ids.append(i)
        row_ids[name] = ids
    row_ids[FAILURE_STATE] = (len(rows),) * len(grants)
    rows.append({FAILURE_STATE: Fraction(1)})
    valuation = {}
    for v in sorted(sigma.variables()):
        bit = 1 << position[Var(v)]
        valuation[v] = frozenset(name for name, m in zip(names, masks) if m & bit)
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
    game: Game, sigma: ClosureSet, sets: Mapping[str, int]
) -> TruthLemmaReport:
    """Compare membership against model-checked truth for every formula of
    the closure at every state of ``sets``, which maps non-failure state
    names to the masks of maximal sets over sigma's positions, as
    ``CanonicalDiagnostics.sets`` does.
    Disagreements are listed by state in the order of ``sets``, then by
    formula in closure order, and localize a gap in the oracle (or a
    construction bug); a clean report is evidence the canonical game
    means what its states say.

    Every formula is wanted at every state, so the closure is labeled
    once by :func:`sgcl.modelcheck.label`, children first, and truth is
    read bit by bit from each extent; the point queries of
    :func:`sgcl.modelcheck.holds` stay lazy for the callers that ask
    about one state.  The masks are transposed into one column of state
    bits per closure formula, which is compared with its extent."""
    extents = label(game, sigma.formulas)
    bit = {s: 1 << i for i, s in enumerate(game.nonfailure_states)}
    # the set masks transposed: per closure position, the states (as
    # bits like the extents') whose set holds that formula
    column = [0] * len(sigma)
    audited = 0
    for name, mask in sets.items():
        b = bit.get(name)
        if b is None:
            raise CheckError(f"{name!r} is not a non-failure state of the game")
        audited |= b
        while mask:
            low = mask & -mask
            column[low.bit_length() - 1] |= b
            mask ^= low
    # (position, bits of the states where membership and truth split)
    wrong = []
    for k, f in enumerate(sigma.formulas):
        split = (extents[f] ^ column[k]) & audited
        if split:
            wrong.append((k, split))
    report = TruthLemmaReport(checked=len(sets) * len(sigma))
    if not wrong:
        return report
    texts = list(sigma.texts.values())
    for name, mask in sets.items():
        b = bit[name]
        for k, split in wrong:
            if split & b:
                member = mask >> k & 1 == 1
                report.disagreements.append(
                    {"state": name, "formula": texts[k],
                     "member": member, "holds": not member}
                )
    return report
