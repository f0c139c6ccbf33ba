"""Exact model checking of the coalition-survival modality.

A coalition claim ``[C]_p body`` holds at a non-failure state s when the
coalition can fix its actions so that, for every completion by the
remaining agents, (a) the one-step probability of staying outside the
failure set is at least p, and (b) every non-failure state reachable
with positive probability satisfies the body.  Condition (b) applies
even at threshold p = 0.

Within one context the checker reads each row of ``game.rows`` once.
The first time a modality is checked at a state, the state's outcome
table is compiled from ``game.row_ids(state)``: one entry per complete
profile, in the product order of ``game.actions`` over ``game.agents``
(:func:`sgcl.game.product_profiles`), holding that profile's survival
probability and its positive non-failure successors.  Keys that share a
row, as the canonical game's do, share its entry.  Survival stays in
integers: an entry is ``(numerator, denominator, successors)``, the
numerator summed over a running common denominator and never reduced,
and a threshold p is met unless ``numerator * p.denominator <
p.numerator * denominator``.  No ``Fraction`` is made or compared while
checking; :func:`witness` makes the one it reports.  Each coalition's
choices are listed once per agents-and-actions layout, in the same
order, with the indices of their completions in that table; the list
is shared by every context, and so by every game, of that layout.  A
caller that compiles the tables itself hands them to the context
(``CheckContext.outcome_tables``): the bounded search does so for each
game it draws, which never becomes a :class:`Game` unless it refutes.

The lazy checker reads a formula once: a query first interns it in a
:class:`NodeTable` (hash-consing, limited to the checker): every
distinct subformula becomes one integer node id, children first, so two
equal subformulas are one node whether or not they are one object.
Truth values are memoized per (state, node id) and computed on demand,
dispatching on each node's kind; no formula is hashed or compared while
checking, and states no query reaches are never compiled.  A table
depends on no game: a bounded search interns its formula once and shares
the table among the contexts of every game it draws.
``holds``, ``extent`` and ``witness`` stay lazy in this way, because a
query of one formula at one state, or of a few formulas, touches only
part of a game: compiling every state up front made the canonical
route's decide slower, and a labeling ``extent`` was slower than the
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
instance unless it is violated, to render it.

Truth is defined at non-failure states only; querying a failure state is
an error.  Variables missing from the valuation are false everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import gcd
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
    render,
)
from .game import ActionProfile, Game, product_profiles


class CheckError(Exception):
    pass


# (agents, actions, coalition) keys whose choice tables are kept: a
# bounded search over two agents and up to three actions meets at most 24
CHOICE_TABLES_KEPT = 64


@lru_cache(maxsize=CHOICE_TABLES_KEPT)
def choice_table(agents: tuple, actions: tuple, coalition: frozenset) -> tuple:
    """The coalition's choices, each as (partial profile, indices of its
    completions among the complete profiles), the choices and the complete
    profiles both in product order (:func:`sgcl.game.product_profiles`).
    The choices of every agent together are the complete profiles
    themselves, each completing only itself."""
    base, n = len(actions), len(agents)
    # a complete profile's index has one digit per agent, most significant
    # first; the digits of the members, in order, index its choice
    places = [n - 1 - j for j, a in enumerate(agents) if a in coalition]
    choices = product_profiles(tuple(a for a in agents if a in coalition), actions)
    completions = [[] for _ in choices]
    for i in range(len(product_profiles(agents, actions))):
        k = 0
        for place in places:
            k = k * base + i // base**place % base
        completions[k].append(i)
    return tuple(zip(choices, map(tuple, completions)))


# the kinds of a node of a NodeTable, its first field
VAR, BOT, NEG, IMPL, COAL = range(5)


class NodeTable:
    """Every distinct subformula interned once, as an integer node id.

    ``nodes[i]`` is node i: ``(VAR, name)``, ``(BOT,)``, ``(NEG, body)``,
    ``(IMPL, left, right)`` or ``(COAL, body, coalition, p numerator, p
    denominator)``, its children given by their ids, which are smaller
    than its own.  ``ids`` maps each node back to its id, so two equal
    subformulas, the same object or not, are one node; ``interned`` maps
    each formula interned so far to its id, so interning it again is one
    lookup.  A table depends on no game and may be shared by the contexts
    of several."""

    def __init__(self):
        self.nodes: list = []
        self.ids: dict = {}
        self.interned: dict = {}

    def intern(self, f: Formula) -> int:
        """The id of f, interning f and its subformulas, children first."""
        found = self.interned.get(f)
        if found is not None:
            return found
        # f's subformulas, each parent before its children and a right
        # child before the left, so that read backwards they come children
        # first and left to right
        order = []
        stack = [f]
        while stack:
            g = stack.pop()
            order.append(g)
            kind = type(g)
            if kind is Impl:
                stack.append(g.left)
                stack.append(g.right)
            elif kind is Neg or kind is Coal:
                stack.append(g.body)
        add = self.add
        done = []  # ids of the subformulas read whose parent is still to come
        for g in reversed(order):
            kind = type(g)
            if kind is Impl:
                right = done.pop()
                node = (IMPL, done.pop(), right)
            elif kind is Coal:
                node = (COAL, done.pop(), g.coalition, g.p.numerator, g.p.denominator)
            elif kind is Neg:
                node = (NEG, done.pop())
            elif kind is Var:
                node = (VAR, g.name)
            elif kind is Bot:
                node = (BOT,)
            else:
                raise CheckError(f"not a formula: {g!r}")
            i = add(node)
            done.append(i)
        self.interned[f] = i
        return i

    def add(self, node: tuple) -> int:
        """The id of a node whose children are in the table, adding it
        when it is new."""
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
        return i


@dataclass
class CheckContext:
    """Memo tables shared across queries against one game.

    ``memo`` holds the truth values computed so far, keyed by (state,
    node id) in ``table``, the node table, which contexts of other games
    may share.

    ``outcomes(state)`` is the state's outcome table: for each complete
    profile, in the order of ``game.row_ids(state)``, the ``entry`` of its
    row, the triple (survival numerator, survival denominator, positive
    non-failure successors in row order), compiled on first use.
    ``choices(coalition)`` lists the coalition's choices in the same
    order, each as (partial profile, indices of its completions in the
    outcome table); it is :func:`choice_table`, built once per
    agents-and-actions layout and shared across contexts.

    ``outcome_tables`` maps each state to its outcome table.  A caller
    that has the tables ready passes them in, as the bounded search does
    for the games it draws (:func:`sgcl.decide.bounded_countermodel`):
    it gives one for every state it evaluates, and ``game`` then need
    only have the ``agents``, ``actions`` and ``valuation`` of a game,
    its states being the keys of the tables and the successors in
    them."""

    game: Game
    memo: dict = field(default_factory=dict)
    profile_evals: int = 0
    table: NodeTable = field(default_factory=NodeTable)
    outcome_tables: dict = field(default_factory=dict, repr=False)
    _entries: dict = field(default_factory=dict, init=False, repr=False)

    def entry(self, i: int) -> tuple:
        entry = self._entries.get(i)
        if entry is None:
            failures = self.game.failures
            # non-failure mass as num / den, den the lcm of the denominators so far
            num, den = 0, 1
            successors = []
            for t, v in self.game.rows[i].items():
                if t in failures:
                    continue
                n, d = v.numerator, v.denominator
                if den % d:
                    scale = d // gcd(den, d)
                    num *= scale
                    den *= scale
                num += n * (den // d)
                if n > 0:
                    successors.append(t)
            entry = self._entries[i] = (num, den, tuple(successors))
        return entry

    def outcomes(self, state) -> list:
        table = self.outcome_tables.get(state)
        if table is None:
            table = self.outcome_tables[state] = list(
                map(self.entry, self.game.row_ids(state)))
        return table

    def choices(self, coalition: frozenset) -> tuple:
        return choice_table(self.game.agents, self.game.actions, coalition)


def _committing_choice(ctx: CheckContext, state, node: tuple):
    """The first choice of a modality node's coalition (partial profile,
    completion indices) under which every completion survives with
    probability at least its threshold and reaches only states satisfying
    its body, or None."""
    _, body, coalition, p_num, p_den = node
    table = ctx.outcomes(state)
    for choice in ctx.choices(coalition):
        for i in choice[1]:
            ctx.profile_evals += 1
            n, d, successors = table[i]
            if n * p_den < p_num * d:
                break
            for t in successors:
                if not _eval(ctx, t, body):
                    break
            else:
                continue  # this completion commits: try the next one
            break  # a successor fails the body
        else:
            return choice
    return None


def _eval(ctx: CheckContext, state, i: int) -> bool:
    key = (state, i)
    cached = ctx.memo.get(key)
    if cached is not None:
        return cached
    node = ctx.table.nodes[i]
    kind = node[0]
    if kind == COAL:
        value = _committing_choice(ctx, state, node) is not None
    elif kind == IMPL:
        value = (not _eval(ctx, state, node[1])) or _eval(ctx, state, node[2])
    elif kind == NEG:
        value = not _eval(ctx, state, node[1])
    elif kind == VAR:
        value = state in ctx.game.valuation.get(node[1], frozenset())
    else:  # BOT
        value = False
    ctx.memo[key] = value
    return value


def _reject_foreign(foreign) -> None:
    if foreign:
        raise CheckError(f"formula names agents outside the game: {sorted(foreign)}")


def _require_agents(game: Game, f: Formula) -> None:
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
    return _eval(ctx, state, ctx.table.intern(f))


def extent(game: Game, f: Formula, ctx: Optional[CheckContext] = None) -> frozenset:
    """The set of non-failure states satisfying f."""
    _require_agents(game, f)
    if ctx is None:
        ctx = CheckContext(game)
    i = ctx.table.intern(f)
    return frozenset(s for s in game.nonfailure_states if _eval(ctx, s, i))


def _compile_masks(ctx: CheckContext, bit: dict) -> list:
    """(state bit, [(numerator, denominator, successor mask), ...]) per
    state of ``bit``: each outcome entry in its table's order, its
    successors as a mask.  Each row of ``game.rows`` is compiled once."""
    game = ctx.game
    triples = [(n, d, sum(bit[t] for t in successors))
               for n, d, successors in map(ctx.entry, range(len(game.rows)))]
    return [(b, [triples[i] for i in game.row_ids(s)]) for s, b in bit.items()]


def _modality_mask(compiled: list, choices: tuple, p_num: int, p_den: int,
                   outside: int) -> tuple:
    """(mask, evaluations): the states of ``compiled`` (see
    :func:`_compile_masks`) at which some choice of ``choices``, taken in
    order, has every completion survive with probability at least p_num /
    p_den and reach no successor in the mask ``outside``, ORed from their
    bits; and the number of complete profiles examined."""
    mask = evals = 0
    for b, table in compiled:
        for _, completions in choices:
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
    None when the modality fails at the state."""
    if not isinstance(modality, Coal):
        raise CheckError("witness requires a formula whose top node is a modality")
    _require_checkable(game, state, modality)
    if ctx is None:
        ctx = CheckContext(game)
    choice = _committing_choice(ctx, state, ctx.table.nodes[ctx.table.intern(modality)])
    if choice is None:
        return None
    partial, completions = choice
    table = ctx.outcomes(state)
    n, d, _ = min((table[i] for i in completions), key=_SURVIVAL_ORDER)
    return Witness(partial, Fraction(n, d))


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


def _random_coalition(rng, agents) -> frozenset:
    return frozenset(a for a in agents if rng.random() < 0.5)


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
    sample_budget: int = 1000,
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

    Each pool formula's extent is evaluated by node id at every
    non-failure state before the first draw; one that names agents
    outside the game raises CheckError at the first instance drawn with
    it.  A modality's extent comes from :func:`_modality_mask`, once per
    (coalition, threshold, body extent), over rows compiled once per
    audit.  A key drawn again reports the violations stored for it,
    and only a violating instance is built as a formula, to render it."""
    if sample_budget <= 0:
        raise ValueError("budget must be positive")
    pool = tuple(sorted(set(pool), key=canonical_key)) or (TOP,)
    rng = random.Random(seed)
    bits, draw = rng.getrandbits, rng.random
    ctx = CheckContext(game)
    report = SoundnessReport(instances=sample_budget)
    checkable = game.nonfailure_states
    everywhere = frozenset(checkable)
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

    def pool_extent(f: Formula) -> int:
        i = ctx.table.intern(f)
        return sum(b for s, b in bit.items() if _eval(ctx, s, i))

    # each pool formula's agents outside the game, and its extent, or None
    # when it names such agents: the first instance drawn with it fails
    foreign = [agents_of(f) - members for f in pool]
    extents = [None if outsiders else pool_extent(f) for f, outsiders in zip(pool, foreign)]

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
    for body in pool:
        coalition = _random_coalition(rng, game.agents)
        if extent(game, body, ctx) == everywhere:
            report.necessitation_cases += 1
            lifted = Coal(coalition, Fraction(0), body)
            if extent(game, lifted, ctx) != everywhere:
                report.necessitation_violations.append((render(lifted),))
    return report
