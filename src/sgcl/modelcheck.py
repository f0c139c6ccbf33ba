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
is shared by every context, and so by every game, of that layout.

The lazy checker reads a formula once: a query first interns it in a
:class:`NodeTable` (hash-consing, limited to the checker): every
distinct subformula becomes one integer node id, children first, so two
equal subformulas are one node whether or not they are one object.
Truth values are memoized per (state, node id) and computed on demand,
dispatching on each node's kind; no formula is hashed or compared while
checking, and states no query reaches are never compiled.  A table
depends on no game: a bounded search interns its formula once and shares
the table among the contexts of every game it samples.  The schema audit
makes no formula for an axiom instance: it draws each one as indices
(its schema, coalitions, grid thresholds and pool formulas), builds each
distinct draw straight into its table as nodes over the pool's interned
ids, and evaluates it by id at every state once; a repeated draw reuses
that result, and only a violating instance is turned back into a formula
(:meth:`NodeTable.formula`), to render it.
``holds``, ``extent``, ``witness`` and the schema audits stay lazy in
this way, because a query of one formula at one state, or of a few
formulas, touches only part of a game: compiling every state up front
made the canonical route's decide slower, and a labeling ``extent`` was
slower than the lazy one on the bench's extent queries.

:func:`label` is the eager route, the labeling algorithm of ATL model
checking (Alur, Henzinger and Kupferman, JACM 2002), for a caller that
needs every formula of a list at every state, as the truth-lemma audit
of the canonical game does.  It computes each formula's extent once, as
an int bit mask over the non-failure states, children first.

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

    def formula(self, i: int) -> Formula:
        """The formula of node i, the inverse of :meth:`intern`: the nodes
        i reaches are built in the order of their ids, children first, so
        however deep the formula, nothing recurses."""
        nodes = self.nodes
        reached = {i}
        stack = [i]
        while stack:
            node = nodes[stack.pop()]
            kind = node[0]
            if kind == IMPL:
                children = node[1:]
            elif kind == NEG or kind == COAL:
                children = node[1:2]
            else:
                continue
            for child in children:
                if child not in reached:
                    reached.add(child)
                    stack.append(child)
        built: dict = {}
        for j in sorted(reached):
            node = nodes[j]
            kind = node[0]
            if kind == COAL:
                f = Coal(node[2], Fraction(node[3], node[4]), built[node[1]])
            elif kind == IMPL:
                f = Impl(built[node[1]], built[node[2]])
            elif kind == NEG:
                f = Neg(built[node[1]])
            elif kind == VAR:
                f = Var(node[1])
            else:  # BOT
                f = Bot()
            built[j] = f
        return built[i]


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
    agents-and-actions layout and shared across contexts."""

    game: Game
    memo: dict = field(default_factory=dict)
    profile_evals: int = 0
    table: NodeTable = field(default_factory=NodeTable)
    _outcomes: dict = field(default_factory=dict, init=False, repr=False)
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
        table = self._outcomes.get(state)
        if table is None:
            table = self._outcomes[state] = list(map(self.entry, self.game.row_ids(state)))
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
    no successor outside the body's extent.  Every row of the game is
    compiled, and its successor set turned into a mask, once.  The memo
    is neither read nor filled."""
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
            # survival n / d < p exactly when n * p_den < p_num * d
            p_num, p_den = f.p.numerator, f.p.denominator
            outside = ~ext[f.body]
            choices = ctx.choices(f.coalition)
            mask = 0
            for b, table in compiled:
                for _, completions in choices:
                    for i in completions:
                        evals += 1
                        n, d, successors = table[i]
                        if n * p_den < p_num * d or successors & outside:
                            break
                    else:
                        mask |= b
                        break
            ext[f] = mask
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


_SCHEMAS = ("cooperation", "monotonicity", "falsehood")

# a threshold drawn as an index of QUARTER_GRID, which ascends from 0, so
# indices compare as the thresholds do and the positive ones start at 1
_GRID_INDICES = range(len(QUARTER_GRID))
_POSITIVE_INDICES = range(1, len(QUARTER_GRID))
_GRID_NODES = tuple((g.numerator, g.denominator) for g in QUARTER_GRID)


def _instance_node(table: NodeTable, key: tuple, coalition_of, bodies) -> int:
    """The id of the axiom instance drawn as ``key``, built into ``table``
    as the nodes :meth:`NodeTable.intern` would make of its formula.

    A key is a schema's index in ``_SCHEMAS`` and its draws: coalitions as
    bit masks over the game's agents, read by ``coalition_of(mask)``;
    thresholds as indices of ``QUARTER_GRID``; pool formulas as indices of
    the pool, whose node ids ``bodies(*indices)`` gives; it raises
    CheckError when they name agents outside the game.

    * cooperation ``(0, c1, c2, p, q, x, y)``:
      ``[c1]_p (x -> y) -> ([c2]_q x -> [c1 | c2]_max(p, q) y)``;
    * monotonicity ``(1, c, p, q, x)``, p at least q:
      ``[c]_p x -> [c]_q x``;
    * falsehood ``(2, c, p)``: ``~[c]_p false``."""
    add = table.add
    schema = key[0]
    if schema == 0:
        _, c1, c2, p, q, x, y = key
        x, y = bodies(x, y)
        return add((IMPL,
                    add((COAL, add((IMPL, x, y)), coalition_of(c1), *_GRID_NODES[p])),
                    add((IMPL,
                         add((COAL, x, coalition_of(c2), *_GRID_NODES[q])),
                         add((COAL, y, coalition_of(c1 | c2), *_GRID_NODES[max(p, q)]))))))
    if schema == 1:
        _, c, p, q, x = key
        (x,) = bodies(x)
        return add((IMPL, add((COAL, x, coalition_of(c), *_GRID_NODES[p])),
                    add((COAL, x, coalition_of(c), *_GRID_NODES[q]))))
    _, c, p = key
    return add((NEG, add((COAL, add((BOT,)), coalition_of(c), *_GRID_NODES[p]))))


def audit_axiom_soundness(
    game: Game,
    pool: Iterable[Formula],
    sample_budget: int = 1000,
    seed: int = 0,
) -> SoundnessReport:
    """Sample axiom instances over the pool and evaluate each one at every
    non-failure state; also check that universally true bodies stay
    universally true under the threshold-zero modality.  A budget that is
    not positive raises ValueError: an audit of no instances proves
    nothing.

    Each instance is drawn as indices (see :func:`_instance_node`), with
    the random calls a draw of the thresholds and pool formulas themselves
    would make: ``choice`` draws an index below a sequence's length, so
    choosing from a range of indices takes the same draws.  The first
    draw of a key builds its instance straight into the context's node
    table, checks its agents and evaluates it by node id at every
    non-failure state; a key drawn again reports the failing states
    stored for it.  A pool formula is interned and its agents checked on
    first use, and a violating instance is rendered from its node; no
    formula is made for a drawn instance."""
    if sample_budget <= 0:
        raise ValueError("budget must be positive")
    pool = tuple(sorted(set(pool), key=canonical_key)) or (TOP,)
    rng = random.Random(seed)
    below, pick, draw = rng.randrange, rng.choice, rng.random
    ctx = CheckContext(game)
    table = ctx.table
    report = SoundnessReport(instances=sample_budget)
    checkable = game.nonfailure_states
    everywhere = frozenset(checkable)
    agents = game.agents
    members = set(agents)
    bits = [1 << j for j in range(len(agents))]
    pool_indices = range(len(pool))

    coalitions: dict = {}  # agent bit mask -> coalition

    def coalition_of(mask: int) -> frozenset:
        c = coalitions.get(mask)
        if c is None:
            c = coalitions[mask] = frozenset(a for a, bit in zip(agents, bits) if mask & bit)
        return c

    pool_entries: list = [None] * len(pool)  # (node id, agents outside the game)

    def bodies(*indices) -> list:
        ids, foreign = [], set()
        for k in indices:
            entry = pool_entries[k]
            if entry is None:
                f = pool[k]
                entry = pool_entries[k] = (table.intern(f), agents_of(f) - members)
            ids.append(entry[0])
            foreign |= entry[1]
        _reject_foreign(foreign)
        return ids

    seen: dict = {}  # key -> the violations of its instance
    for _ in range(sample_budget):
        schema = below(len(_SCHEMAS))
        if schema == 0:
            c1 = c2 = 0
            for bit in bits:
                side = below(3)
                if side == 0:
                    c1 |= bit
                elif side == 1:
                    c2 |= bit
            key = (0, c1, c2, pick(_GRID_INDICES), pick(_GRID_INDICES),
                   pick(pool_indices), pick(pool_indices))
        else:
            c = 0
            for bit in bits:
                if draw() < 0.5:
                    c |= bit
            if schema == 1:
                p, q = pick(_GRID_INDICES), pick(_GRID_INDICES)
                if q > p:
                    p, q = q, p
                key = (1, c, p, q, pick(pool_indices))
            else:
                key = (2, c, pick(_POSITIVE_INDICES))
        if not checkable:  # every state fails: nothing to evaluate
            continue
        found = seen.get(key)
        if found is None:
            i = _instance_node(table, key, coalition_of, bodies)
            failing = [s for s in checkable if not _eval(ctx, s, i)]
            text = render(table.formula(i)) if failing else ""
            found = seen[key] = [(_SCHEMAS[schema], text, s) for s in failing]
        report.violations.extend(found)
    for body in pool:
        coalition = _random_coalition(rng, game.agents)
        if extent(game, body, ctx) == everywhere:
            report.necessitation_cases += 1
            lifted = Coal(coalition, Fraction(0), body)
            if extent(game, lifted, ctx) != everywhere:
                report.necessitation_violations.append((render(lifted),))
    return report
