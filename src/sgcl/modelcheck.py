"""Exact model checking of the coalition-survival modality.

A coalition claim ``[C]_p body`` holds at a non-failure state s when the
coalition can fix its actions so that, for every completion by the
remaining agents, (a) the one-step probability of staying outside the
failure set is at least p, and (b) every non-failure state reachable
with positive probability satisfies the body.  Condition (b) applies
even at threshold p = 0.

A context compiles each row of ``game.rows`` once, when it is made,
into its ``entries``, indexed by row id: the row's survival probability
and its positive non-failure successors.  Profiles that share a row, as
the canonical game's do, share its entry, so the work grows with the
distinct rows, not with the states times the complete profiles.  A
completion at a state is the entry of its row id, read through
``game.row_ids(state)``, whose positions are the complete profiles in
the product order of ``game.actions`` over ``game.agents``,
``game.agents[0]`` most significant.  Survival stays in integers: an
entry is ``(numerator, denominator, successors)``, the numerator summed
over a running common denominator and never reduced
(:func:`sgcl.game._row_mass`), and a threshold p is met unless
``numerator * p.denominator < p.numerator * denominator``.  No
``Fraction`` is made or compared while checking; :func:`witness` makes
the one it reports.  A coalition's choice is the tuple of its
completions' positions among a state's row ids, and its choices are
listed in the product order of its members once per agents-and-actions
layout (:func:`choice_table`); the list holds only ints and is shared by
every context, and so by every game, of that layout.  No action profile
is made while checking: :func:`witness` decodes the one it reports from
its choice's index.  A caller that compiles the entries itself hands
them to the context (``CheckContext.entries``): the bounded search does
so for each game it draws, which never becomes a :class:`Game` unless it
refutes.

The lazy checker has no node table: it computes truth values on
demand, memoized per (state, formula), dispatching on each node's type.
Each node caches its hash and formula ``==`` walks an explicit stack, so
two equal subformulas share their memo entries whether or not they are
one object.  A bounded search shares nothing among the contexts of the
games it draws.  ``holds``, ``extent`` and ``witness`` stay lazy in this
way, because a query of one formula at one state, or of a few formulas,
touches only part of a game: a labeling ``extent`` was slower than the
lazy one on the bench's extent queries.

:func:`label` is the eager route, the labeling algorithm of ATL model
checking (Alur, Henzinger and Kupferman, JACM 2002), for a caller that
needs every formula of a list at every state, as the truth-lemma audit
of the canonical game does.  It computes each formula's extent once, as
an int bit mask over the non-failure states, children first; a
modality's extent comes from its body's by :func:`_modality_mask`, the
one kernel over the game's rows compiled to masks.  The schema audit
shares that kernel: an axiom instance's truth at every state depends
only on the extents of its modalities, so it draws each instance as
indices (its schema, coalitions, grid thresholds and pool formulas),
labels each distinct modality once, and finds the states that violate an
instance by integer AND over their extents; no formula is made for an
instance unless it is violated, to render it.  The pool formulas'
extents come from :func:`label` and the necessitation lifts' from the
kernel, so the audit leaves the memo empty.

Truth is defined at non-failure states only; querying a failure state is
an error.  Variables missing from the valuation are false everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Optional

from .formula import (
    TOP,
    Bot,
    Coal,
    Formula,
    Impl,
    Neg,
    Var,
    agents_of,
    canonical_key,
    evaluate,
    formula_size,
    render,
    subformulas,
)
from .game import ActionProfile, Game, _profile_at, _row_mass


class CheckError(Exception):
    pass


# the number of axiom instances an audit draws, by default
AUDIT_BUDGET = 1000

# (agents, actions, coalition) keys whose choice tables are kept: a
# bounded search meets one agent tuple, the formula's, and at most three
# action counts, so three keys per coalition of the formula
CHOICE_TABLES_KEPT = 64


@lru_cache(maxsize=CHOICE_TABLES_KEPT)
def choice_table(agents: tuple, actions: tuple, coalition: frozenset) -> tuple:
    """The coalition's choices in the product order of its members, each
    as the ascending indices of its completions among the complete
    profiles.  A complete profile's index is the sum of one place value
    per agent, ``agents[0]`` most significant: the members' part fixes a
    choice, and each completion adds one part the outsiders can take.
    The choices of every agent together are the complete profiles
    themselves, each completing only itself."""
    base, n = len(actions), len(agents)
    # every sum of the members' parts, and of the outsiders', in product order
    members, outsiders = [0], [0]
    for j, a in enumerate(agents):
        place = base ** (n - 1 - j)
        if a in coalition:
            members = [k + d * place for k in members for d in range(base)]
        else:
            outsiders = [k + d * place for k in outsiders for d in range(base)]
    return tuple(tuple(k + o for o in outsiders) for k in members)


@dataclass
class CheckContext:
    """Memo tables shared across queries against one game.

    ``memo`` holds the truth values computed so far, keyed by (state,
    formula).

    ``entries`` holds, for each row of ``game.rows`` by its row id, the
    triple (survival numerator, survival denominator, positive
    non-failure successors in row order) of :func:`sgcl.game._row_mass`,
    compiled once when the context is made.  A completion at a state is
    read as ``entries[ids[i]]``, ``ids`` being ``game.row_ids(state)``.
    ``choices(coalition)`` lists the coalition's choices in the product
    order of its members, each as the ascending indices of its
    completions among the state's row ids; it is :func:`choice_table`,
    built once per agents-and-actions layout and shared across contexts.

    A caller that has the entries ready passes them in, as the bounded
    search does for the games it draws
    (:func:`sgcl.decide.bounded_countermodel`): it gives one for every
    row of every state it evaluates, and ``game`` then need only have
    the ``agents``, ``actions``, ``valuation`` and ``row_ids`` of a game,
    its states and successors being those its entries name."""

    game: Game
    memo: dict = field(default_factory=dict, init=False)
    profile_evals: int = field(default=0, init=False)
    entries: Optional[list] = field(default=None, repr=False)

    def __post_init__(self):
        if self.entries is None:
            failures = self.game.failures
            self.entries = [_row_mass(row, failures) for row in self.game.rows]

    def choices(self, coalition: frozenset) -> tuple:
        return choice_table(self.game.agents, self.game.actions, coalition)


def _committing_choice(ctx: CheckContext, state, f: Coal):
    """The index in ``ctx.choices`` of the first choice of the modality's
    coalition under which every completion survives with probability at
    least its threshold and reaches only states satisfying its body, or
    None."""
    body, p_num, p_den = f.body, f.p.numerator, f.p.denominator
    entries, ids = ctx.entries, ctx.game.row_ids(state)
    for k, completions in enumerate(ctx.choices(f.coalition)):
        for i in completions:
            ctx.profile_evals += 1
            n, d, successors = entries[ids[i]]
            if n * p_den < p_num * d:
                break
            for t in successors:
                if not _eval(ctx, t, body):
                    break
            else:
                continue  # this completion commits: try the next one
            break  # a successor fails the body
        else:
            return k
    return None


def _eval(ctx: CheckContext, state, f: Formula) -> bool:
    key = (state, f)
    cached = ctx.memo.get(key)
    if cached is not None:
        return cached
    kind = type(f)
    if kind is Coal:
        value = _committing_choice(ctx, state, f) is not None
    elif kind is Impl:
        value = (not _eval(ctx, state, f.left)) or _eval(ctx, state, f.right)
    elif kind is Neg:
        value = not _eval(ctx, state, f.body)
    elif kind is Var:
        value = state in ctx.game.valuation.get(f.name, frozenset())
    else:  # Bot
        value = False
    ctx.memo[key] = value
    return value


def _reject_foreign(foreign) -> None:
    if foreign:
        raise CheckError(f"formula names agents outside the game: {sorted(foreign)}")


def _require_agents(game: Game, f: Formula) -> None:
    if not isinstance(f, (Var, Bot, Neg, Impl, Coal)):
        raise CheckError(f"not a formula: {f!r}")
    _reject_foreign(agents_of(f) - set(game.agents))


def _require_checkable(game: Game, state, f: Formula) -> None:
    if state not in game.states:
        raise CheckError(f"unknown state {state!r}")
    if state in game.failures:
        raise CheckError(f"truth is undefined at failure state {state!r}")
    _require_agents(game, f)


def holds(game: Game, state, f: Formula, ctx: Optional[CheckContext] = None) -> bool:
    """Exact truth of f at a non-failure state."""
    _require_checkable(game, state, f)
    if ctx is None:
        ctx = CheckContext(game)
    return _eval(ctx, state, f)


def extent(game: Game, f: Formula, ctx: Optional[CheckContext] = None) -> frozenset:
    """The set of non-failure states satisfying f."""
    _require_agents(game, f)
    if ctx is None:
        ctx = CheckContext(game)
    return frozenset(s for s in game.nonfailure_states if _eval(ctx, s, f))


def _compile_masks(ctx: CheckContext, bit: dict) -> list:
    """(state bit, [(numerator, denominator, successor mask), ...]) per
    state of ``bit``: the entry of each of its row ids in product order,
    its successors as a mask.  Each entry's mask is made once."""
    triples = [(n, d, sum(bit[t] for t in successors))
               for n, d, successors in ctx.entries]
    row_ids = ctx.game.row_ids
    return [(b, [triples[i] for i in row_ids(s)]) for s, b in bit.items()]


def _modality_mask(compiled: list, choices: tuple, p_num: int, p_den: int,
                   outside: int) -> tuple:
    """(mask, evaluations): the states of ``compiled`` (see
    :func:`_compile_masks`) at which some choice of ``choices``, taken in
    order, has every completion survive with probability at least p_num /
    p_den and reach no successor in the mask ``outside``, ORed from their
    bits; and the number of complete profiles examined."""
    mask = evals = 0
    for b, table in compiled:
        for completions in choices:
            for i in completions:
                evals += 1
                n, d, successors = table[i]
                # survival n / d < p exactly when n * p_den < p_num * d
                if n * p_den < p_num * d or successors & outside:
                    break
            else:
                mask |= b
                break
    return mask, evals


def label(game: Game, order: Iterable[Formula],
          ctx: Optional[CheckContext] = None) -> dict:
    """The extent of every formula of ``order``, which lists children
    before their parents, as an int read as a bit mask: bit i is set when
    the formula holds at ``game.nonfailure_states[i]``.  ``false``,
    negation and implication go through :func:`sgcl.formula.evaluate`, so
    a mask may be negative; only its low bits, one per non-failure state,
    carry meaning.  A modality holds at a state when some choice of its
    coalition, taken in the order ``ctx.choices`` lists them, has every
    completion survive with probability at least its threshold and reach
    no successor outside the body's extent; :func:`_modality_mask`, which
    the schema audit shares, computes its extent from the body's.  Every
    row of the game is compiled, and its successor set turned into a mask,
    once.  The memo is neither read nor filled."""
    if ctx is None:
        ctx = CheckContext(game)
    bit = {s: 1 << i for i, s in enumerate(game.nonfailure_states)}
    ext: dict = {}
    compiled = None  # see _compile_masks
    evals = 0
    for f in order:
        if isinstance(f, Var):
            ext[f] = sum(bit.get(s, 0) for s in game.valuation.get(f.name, ()))
        elif isinstance(f, Coal):
            _require_agents(game, f)
            if compiled is None:
                compiled = _compile_masks(ctx, bit)
            ext[f], n = _modality_mask(compiled, ctx.choices(f.coalition),
                                       f.p.numerator, f.p.denominator, ~ext[f.body])
            evals += n
        elif isinstance(f, (Bot, Neg, Impl)):
            evaluate((f,), ext)
        else:
            raise CheckError(f"not a formula: {f!r}")
    ctx.profile_evals += evals
    return ext


@dataclass(frozen=True)
class Witness:
    """A coalition commitment backing a true modality, with the worst-case
    survival probability over all completions."""

    profile: ActionProfile
    guaranteed_survival: Fraction


# entries ordered by survival n / d, compared as n * d' against n' * d
_SURVIVAL_ORDER = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def witness(
    game: Game, state, modality: Formula, ctx: Optional[CheckContext] = None
) -> Optional[Witness]:
    """First committing profile (in enumeration order) for a modality, or
    None when the modality fails at the state: the choice's index in the
    product order of the coalition's members, decoded."""
    if not isinstance(modality, Coal):
        raise CheckError("witness requires a formula whose top node is a modality")
    _require_checkable(game, state, modality)
    if ctx is None:
        ctx = CheckContext(game)
    k = _committing_choice(ctx, state, modality)
    if k is None:
        return None
    entries, ids = ctx.entries, game.row_ids(state)
    n, d, _ = min((entries[ids[i]] for i in ctx.choices(modality.coalition)[k]),
                  key=_SURVIVAL_ORDER)
    members = tuple(a for a in game.agents if a in modality.coalition)
    profile = ActionProfile.of(_profile_at(members, game.actions, k))
    return Witness(profile, Fraction(n, d))


# ---------------------------------------------------------------------------
# randomized schema audits

# the probability grid of the schema audits and of the bounded search
QUARTER_GRID = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)


@dataclass
class SoundnessReport:
    instances: int = 0
    violations: list = field(default_factory=list)
    necessitation_cases: int = 0
    necessitation_violations: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations and not self.necessitation_violations


def _below(getrandbits, n: int) -> int:
    """An index below n, drawn as ``Random.randrange(n)`` and
    ``Random.choice`` of n items draw it (``Random._randbelow`` on CPython
    3.10 to 3.13): n.bit_length() random bits, drawn again until they fall
    below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


_SCHEMAS = ("cooperation", "monotonicity", "falsehood")

# a threshold drawn as an index of QUARTER_GRID, which ascends from 0, so
# indices compare as the thresholds do and the positive ones start at 1
_GRID = len(QUARTER_GRID)
_GRID_NODES = tuple((g.numerator, g.denominator) for g in QUARTER_GRID)


def _instance(key: tuple, coalition_of, pool: tuple) -> Formula:
    """The axiom instance drawn as ``key``: a schema's index in
    ``_SCHEMAS`` and its draws, coalitions as bit masks over the game's
    agents, read by ``coalition_of(mask)``, thresholds as indices of
    ``QUARTER_GRID`` and pool formulas as indices of ``pool``.

    * cooperation ``(0, c1, c2, p, q, x, y)``:
      ``[c1]_p (x -> y) -> ([c2]_q x -> [c1 | c2]_max(p, q) y)``;
    * monotonicity ``(1, c, p, q, x)``, p at least q:
      ``[c]_p x -> [c]_q x``;
    * falsehood ``(2, c, p)``: ``~[c]_p false``."""
    grid = QUARTER_GRID
    if key[0] == 0:
        _, c1, c2, p, q, x, y = key
        x, y = pool[x], pool[y]
        return Impl(Coal(coalition_of(c1), grid[p], Impl(x, y)),
                    Impl(Coal(coalition_of(c2), grid[q], x),
                         Coal(coalition_of(c1 | c2), grid[max(p, q)], y)))
    if key[0] == 1:
        _, c, p, q, x = key
        return Impl(Coal(coalition_of(c), grid[p], pool[x]),
                    Coal(coalition_of(c), grid[q], pool[x]))
    _, c, p = key
    return Neg(Coal(coalition_of(c), grid[p], Bot()))


def audit_axiom_soundness(
    game: Game,
    pool: Iterable[Formula],
    sample_budget: int = AUDIT_BUDGET,
    seed: int = 0,
) -> SoundnessReport:
    """Sample axiom instances over the pool and check each one at every
    non-failure state; also check that universally true bodies stay
    universally true under the threshold-zero modality.  A budget that is
    not positive raises ValueError: an audit of no instances proves
    nothing.

    Each instance is drawn as indices (see :func:`_instance`), with the
    random stream a draw of the thresholds and pool formulas themselves
    would read: ``randrange`` and ``choice`` draw an index below a length
    (:func:`_below`).  An instance's truth at every state depends only on
    the extents of its modalities, so the first draw of a key checks its
    pool formulas' agents and reads the states that violate it by integer
    AND over extent masks:

    * cooperation, ``A & B & ~C`` for its three modalities in order;
    * monotonicity, ``M_p & ~M_q``;
    * falsehood, ``F``, the extent of ``[c]_p false``.

    Each pool formula's extent is read from :func:`label` before the
    first draw; one that names agents outside the game raises CheckError
    at the first instance drawn with it, or else where the necessitation
    check reaches it.  A modality's extent comes from
    :func:`_modality_mask`, once per (coalition, threshold, body extent),
    over rows compiled once per audit; the necessitation check reads the
    threshold-zero lift of a body true everywhere the same way.  A key
    drawn again reports the violations stored for it, and only a
    violating instance or lift is built as a formula, to render it."""
    if sample_budget <= 0:
        raise ValueError("budget must be positive")
    pool = tuple(sorted(set(pool), key=canonical_key)) or (TOP,)
    rng = random.Random(seed)
    bits, draw = rng.getrandbits, rng.random
    ctx = CheckContext(game)
    report = SoundnessReport(instances=sample_budget)
    checkable = game.nonfailure_states
    agents = game.agents
    members = set(agents)
    agent_bits = [1 << j for j in range(len(agents))]
    size = len(pool)
    bit = {s: 1 << i for i, s in enumerate(checkable)}
    full = (1 << len(checkable)) - 1

    coalitions: dict = {}  # agent bit mask -> coalition

    def coalition_of(mask: int) -> frozenset:
        c = coalitions.get(mask)
        if c is None:
            c = coalitions[mask] = frozenset(a for a, b in zip(agents, agent_bits) if mask & b)
        return c

    # each pool formula's agents outside the game, and its extent, or None
    # when it names such agents: the first instance drawn with it fails.
    # label's masks of true and ~x are negative, so each is ANDed with full
    foreign = [agents_of(f) - members for f in pool]
    labeled = label(game, sorted({g for f, outsiders in zip(pool, foreign) if not outsiders
                                  for g in subformulas(f)}, key=formula_size), ctx)
    extents = [None if outsiders else labeled[f] & full for f, outsiders in zip(pool, foreign)]

    compiled = _compile_masks(ctx, bit)
    modalities: dict = {}  # (coalition mask, grid index, body extent) -> extent

    def modality(c: int, p: int, body: int) -> int:
        key = (c, p, body)
        mask = modalities.get(key)
        if mask is None:
            mask, evals = _modality_mask(compiled, ctx.choices(coalition_of(c)),
                                         *_GRID_NODES[p], ~body)
            ctx.profile_evals += evals
            modalities[key] = mask
        return mask

    seen: dict = {}  # key -> the violations of its instance
    for _ in range(sample_budget):
        schema = _below(bits, len(_SCHEMAS))
        if schema == 0:
            c1 = c2 = 0
            for b in agent_bits:
                side = _below(bits, 3)
                if side == 0:
                    c1 |= b
                elif side == 1:
                    c2 |= b
            p, q = _below(bits, _GRID), _below(bits, _GRID)
            i, j = _below(bits, size), _below(bits, size)
            key = (0, c1, c2, p, q, i, j)
        else:
            c = 0
            for b in agent_bits:
                if draw() < 0.5:
                    c |= b
            if schema == 1:
                p, q = _below(bits, _GRID), _below(bits, _GRID)
                if q > p:
                    p, q = q, p
                i = _below(bits, size)
                key = (1, c, p, q, i)
            else:
                p = 1 + _below(bits, _GRID - 1)
                key = (2, c, p)
        if not checkable:  # every state fails: nothing to evaluate
            continue
        found = seen.get(key)
        if found is None:
            # bad: the states at which the instance is false
            if schema == 0:
                x, y = extents[i], extents[j]
                if x is None or y is None:
                    _reject_foreign(foreign[i] | foreign[j])
                # (~x | y) & full is the extent of x -> y
                bad = (modality(c1, p, (~x | y) & full) & modality(c2, q, x)
                       & ~modality(c1 | c2, max(p, q), y))
            elif schema == 1:
                x = extents[i]
                if x is None:
                    _reject_foreign(foreign[i])
                bad = modality(c, p, x) & ~modality(c, q, x)
            else:
                bad = modality(c, p, 0)
            found = []
            if bad:
                text = render(_instance(key, coalition_of, pool))
                found = [(_SCHEMAS[schema], text, s) for s, b in bit.items() if bad & b]
            seen[key] = found
        report.violations += found
    for body, x, outsiders in zip(pool, extents, foreign):
        c = 0
        for b in agent_bits:
            if draw() < 0.5:
                c |= b
        if x is None:
            _reject_foreign(outsiders)
        if x == full:
            report.necessitation_cases += 1
            if modality(c, 0, x) != full:
                lifted = Coal(coalition_of(c), QUARTER_GRID[0], body)
                report.necessitation_violations.append((render(lifted),))
    return report
