"""Validity classification and bounded countermodel search.

A formula is classified by negating it, closing the negation under
subformulas, and building the canonical game over that closure: if the
formula fails at a state whose member set contains the negation, that
game is a genuine finite countermodel and the verdict is unconditionally
sound.  If no such state refutes it, the verdict is "valid relative to
the oracle": a consistency oracle with gaps could have admitted too few
states to expose a countermodel.

The bounded search is the cross-check: it samples small games with exact
grid probabilities and looks for any non-failure state falsifying the
formula.  A formula whose propositional skeleton, every variable and
modality an opaque atom, is a tautology holds at every non-failure state
of every game, so the search settles it by :func:`is_tautology` and
returns before it draws a game; a skeleton of more than ``ATOM_CAP``
atoms, which that check refuses, is searched like any other formula.
Each game is drawn as integers, its rows as grid units over
the grid's common denominator, and compiled straight into the model
checker's row entries; only a countermodel is built as a
:class:`Game`.  The two routes are independent, and each refutation
either route returns is re-verified, on a ``Game``, before being
reported.

One blind spot of the canonical route is worth knowing about: a
zero-threshold claim [C]_0 x is vacuously true at any state all of whose
outgoing mass can land on the failure state, and canonical rows put
exactly mu of their mass on non-failure states.  When mu is 0 the claim
therefore holds no matter what x says, so a countermodel that needs
[C]_0 x to be false is invisible to classify and only the bounded search
can find it.

The survival-threshold demonstration shows why no finite-instance rule
set can capture limit thresholds: a start state can satisfy every
approximation of certain survival while failing the certain-survival
claim itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .canonical import CLOSURE_CAP, ClosureCapError, build_canonical_game
from .formula import (
    TOP,
    AtomCapError,
    Coal,
    Formula,
    Neg,
    agents_of,
    closure,
    exact,
    is_tautology,
    render,
    variables_of,
)
from .game import Game, game_to_dict, survival_ladder
from .modelcheck import QUARTER_GRID, CheckContext, _eval, holds
from .proof import SystemId


class DecideError(Exception):
    pass


@dataclass(frozen=True)
class SearchBounds:
    """Limits for the random game search.  ``budget`` is the number of
    games a search may draw; a formula that :func:`is_tautology` settles
    draws none, and its ``Exhausted`` verdict still reports the budget.
    ``budget``, ``max_states`` and ``max_actions`` must be ints, not
    bools; ``agents`` is a sequence of distinct names, not a string."""

    max_states: int = 4
    max_actions: int = 3
    agents: tuple = ("a", "b")
    probability_grid: tuple = QUARTER_GRID
    budget: int = 2000

    def __post_init__(self):
        for name in ("budget", "max_states", "max_actions"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DecideError(
                    f"{name} must be an int, not {type(value).__name__}")
        if isinstance(self.agents, str):
            raise DecideError("agents must be a sequence of names, not a string")
        grid = tuple(sorted({exact(x) for x in self.probability_grid}))
        object.__setattr__(self, "probability_grid", grid)
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.max_states < 1 or self.max_actions < 1:
            raise DecideError("need at least one state and one action")
        if not self.agents:
            raise DecideError("need at least one agent")
        if len(set(self.agents)) != len(self.agents):
            raise DecideError("duplicate entries in agents")
        if self.budget <= 0:
            raise DecideError("budget must be positive")
        if any(p < 0 or p > 1 for p in grid):
            raise DecideError("grid probabilities must lie in [0, 1]")
        if Fraction(0) not in grid or Fraction(1) not in grid:
            raise DecideError("probability grid must contain 0 and 1")
        # for the sampler: the grid's common denominator, each grid point's
        # integer units over it, and the Fraction of every k units
        den = lcm(*(p.denominator for p in grid))
        object.__setattr__(self, "_units", (
            den,
            tuple(p.numerator * (den // p.denominator) for p in grid),
            tuple(Fraction(k, den) for k in range(den + 1)),
        ))


@dataclass(frozen=True)
class Refuted:
    """A genuine countermodel: the formula fails at this state."""

    game: Game
    state: str

    def fields(self) -> dict:
        """:meth:`to_dict` with the Game itself as ``"game"``."""
        return {"verdict": "refuted", "state": self.state, "game": self.game}

    def to_dict(self) -> dict:
        return {**self.fields(), "game": game_to_dict(self.game)}


@dataclass(frozen=True)
class ValidRelativeToOracle:
    """No refuting state exists in the canonical game; trust in this
    verdict is bounded by the consistency oracle's completeness."""

    closure_size: int
    state_count: int

    def to_dict(self) -> dict:
        return {
            "verdict": "valid-relative-to-oracle",
            "closure_size": self.closure_size,
            "state_count": self.state_count,
        }


@dataclass(frozen=True)
class Exhausted:
    """The bounded search ran out of budget without a refutation."""

    attempts: int

    def to_dict(self) -> dict:
        return {"verdict": "exhausted", "attempts": self.attempts}


def classify(f: Formula, system: SystemId = SystemId.L, cap: int = CLOSURE_CAP):
    """Canonical-game route: Refuted with a re-verified countermodel, or
    ValidRelativeToOracle.  Raises ClosureCapError when the negation's
    closure is too large for exhaustive enumeration."""
    negation = Neg(f)
    sigma = closure([negation])
    game, diag = build_canonical_game(sigma, system=system, cap=cap)
    ctx = CheckContext(game)
    bit = 1 << sigma.formulas.index(negation)
    for state, mask in diag.sets.items():
        if not mask & bit:
            continue
        if not holds(game, state, f, ctx):
            if holds(game, state, f):  # pragma: no cover - fresh re-check
                raise DecideError("countermodel failed independent re-verification")
            return Refuted(game, state)
    return ValidRelativeToOracle(len(sigma), diag.state_count)


class Draw(NamedTuple):
    """One random game as :func:`sample_game` draws it, by state index.

    ``states`` names the states ``q0``, ``q1``, ...; ``failures`` and
    the ``valuation`` (variable -> states where it holds) give states by
    their index in it.  ``rows`` holds one row per state and complete
    profile, state by state and each state's in product order, a row
    being its positive entries in draw order as (target state index,
    units) pairs over ``SearchBounds``' grid denominator, summing to it."""

    agents: tuple
    states: tuple
    failures: frozenset
    actions: tuple
    rows: list
    valuation: dict

    def row_ids(self, s: int) -> range:
        """The ids in ``rows`` of state index s's rows, in product order."""
        width = len(self.actions) ** len(self.agents)
        return range(s * width, (s + 1) * width)


def _draw(
    rng: random.Random,
    bounds: SearchBounds,
    variables: Sequence[str],
    require_agents: frozenset,
) -> Draw:
    """The random part of :func:`sample_game`: the only code of the
    search that reads the random stream.  Rows are exact: all but one
    entry come from the grid and the remaining state absorbs the
    residual; draws pushing the partial sum past 1 are discarded and
    retried.

    The row loop's ``shuffle`` and ``choice`` are replayed through
    ``rng.getrandbits`` as CPython's ``Random._randbelow`` draws them
    (n.bit_length() bits, drawn again while the value is at least n), so
    the random stream and the games are those of the plain calls.
    ``TestSamplerMatchesReference`` in ``tests/test_decide.py`` pins
    this, random state included.  The caller has checked that the
    bounds hold ``require_agents`` (:func:`_check_agents`)."""
    required = tuple(sorted(require_agents))
    optional = [a for a in bounds.agents if a not in require_agents]
    extra = rng.randint(0 if required else 1, len(optional))
    agent_pool = tuple(sorted(required + tuple(optional[:extra])))
    n_states = rng.randint(1, bounds.max_states)
    indices = range(n_states)
    n_fail = rng.randint(0, n_states - 1)
    failures = frozenset(rng.sample(indices, n_fail))
    actions = tuple(f"m{i}" for i in range(rng.randint(1, bounds.max_actions)))
    n_profiles = len(actions) ** len(agent_pool)
    # partial sums are kept as integers over the grid's common denominator
    den, units, _ = bounds._units
    getrandbits = rng.getrandbits
    # shuffle swaps position i with a draw below i + 1, for i from the end
    swaps = [(i, (i + 1).bit_length()) for i in reversed(range(1, n_states))]
    n_units = len(units)
    unit_bits = n_units.bit_length()
    rows = []
    for _ in range(n_states * n_profiles):
        row = None
        for _attempt in range(16):
            order = list(indices)
            for i, k in swaps:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                order[i], order[j] = order[j], order[i]
            entries = []
            total = 0
            for target in order[:-1]:
                r = getrandbits(unit_bits)
                while r >= n_units:
                    r = getrandbits(unit_bits)
                u = units[r]
                total += u
                if total > den:
                    break
                if u:
                    entries.append((target, u))
            else:
                if total < den:
                    entries.append((order[-1], den - total))
                row = entries
                break
        if row is None:
            row = [(rng.choice(indices), den)]
        rows.append(row)
    valuation = {
        v: frozenset(i for i in indices if rng.choice((True, False)))
        for v in variables
    }
    return Draw(agent_pool, tuple(f"q{i}" for i in indices), failures,
                actions, rows, valuation)


def _check_agents(bounds: SearchBounds, require_agents: frozenset) -> None:
    """Raise DecideError when the bounds lack an agent the game needs."""
    missing = set(require_agents) - set(bounds.agents)
    if missing:
        raise DecideError(f"bounds omit required agents {sorted(missing)}")


def _materialize(draw: Draw, bounds: SearchBounds) -> Game:
    """The :class:`Game` of a draw, its row table handed straight to the
    constructor with each entry's units as an exact ``Fraction``."""
    fractions = bounds._units[2]
    states = draw.states
    return Game(
        agents=draw.agents,
        states=states,
        failures=[states[i] for i in draw.failures],
        actions=draw.actions,
        rows=[{states[t]: fractions[u] for t, u in row} for row in draw.rows],
        row_ids={s: draw.row_ids(k) for k, s in enumerate(states)},
        valuation={v: [states[i] for i in members]
                   for v, members in draw.valuation.items()},
    )


def sample_game(
    rng: random.Random,
    bounds: SearchBounds,
    variables: Sequence[str] = ("u", "v"),
    require_agents: frozenset = frozenset(),
) -> Game:
    """One random game within bounds (see :func:`_draw`).  Each state
    gets one row per complete profile, in product order."""
    _check_agents(bounds, require_agents)
    return _materialize(_draw(rng, bounds, variables, require_agents), bounds)


def _row_entries(draw: Draw, den: int) -> list:
    """The ``CheckContext.entries`` of a draw, by row id: each row's
    (survival units, den, non-failure targets in row order).  Truth is
    undefined at a failure state, so its rows' entries are None."""
    failures = draw.failures
    width = len(draw.actions) ** len(draw.agents)
    entries = []
    for s in range(len(draw.states)):
        if s in failures:
            entries += [None] * width
            continue
        for row in draw.rows[s * width:(s + 1) * width]:
            survival = 0
            successors = []
            for t, u in row:
                if t not in failures:
                    survival += u
                    successors.append(t)
            entries.append((survival, den, tuple(successors)))
    return entries


def bounded_countermodel(
    f: Formula, bounds: Optional[SearchBounds] = None, seed: int = 0
) -> Optional[tuple]:
    """Search seeded random games for a non-failure state falsifying f.
    Returns (game, state) re-verified under the model checker, or None
    when the budget runs out.

    ``~`` and ``->`` are read classically at every non-failure state, so
    no game falsifies a formula whose skeleton :func:`is_tautology`
    accepts: such a search returns None before it seeds the stream,
    having drawn no game.  The agents check comes first, so bounds that
    omit an agent of f raise DecideError whatever f is.  A skeleton of
    more than ``ATOM_CAP`` atoms is searched as below.

    The games are those :func:`sample_game` makes from ``Random(seed)``,
    but each is checked as drawn: its rows go straight into the
    context's entries (:func:`_row_entries`), and f is evaluated at each
    non-failure state on one context per game, the draw standing in for
    the game; the contexts share nothing.  Every drawn game has the
    agents of f, so no state checks them again.  Only a refuting draw becomes a
    :class:`Game`: ``sample_game`` makes it from a fresh ``Random(seed)``
    advanced past the draws before it, so that ``sample_game`` stays the
    one maker of a sampled game, the one the benchmark's tracer counts
    (``decide.games_sampled``), and a fresh :func:`holds` re-verifies
    it."""
    if bounds is None:
        bounds = SearchBounds()
    needed = agents_of(f)
    _check_agents(bounds, needed)
    try:
        if is_tautology(f):
            return None
    except AtomCapError:
        pass  # too wide for a truth table: draw games as for any formula
    rng = random.Random(seed)
    names = tuple(sorted(variables_of(f))) or ("v",)
    den = bounds._units[0]
    for attempt in range(bounds.budget):
        draw = _draw(rng, bounds, names, needed)
        ctx = CheckContext(draw, entries=_row_entries(draw, den))
        for s in range(len(draw.states)):
            if s not in draw.failures and not _eval(ctx, s, f):
                replay = random.Random(seed)
                for _ in range(attempt):
                    _draw(replay, bounds, names, needed)
                game = sample_game(replay, bounds, variables=names, require_agents=needed)
                state = game.states[s]
                if holds(game, state, f):  # pragma: no cover - fresh re-check
                    raise DecideError(
                        "countermodel failed independent re-verification"
                    )
                return game, state
    return None


def decide_formula(
    f: Formula,
    system: SystemId = SystemId.L,
    bounds: Optional[SearchBounds] = None,
    seed: int = 0,
    cap: int = CLOSURE_CAP,
):
    """Classify through the canonical game when the closure fits the cap,
    falling back to bounded random search otherwise."""
    try:
        return classify(f, system=system, cap=cap)
    except ClosureCapError:
        if bounds is None:
            bounds = SearchBounds(agents=tuple(sorted(agents_of(f))) or ("a",))
        hit = bounded_countermodel(f, bounds, seed=seed)
        if hit is not None:
            return Refuted(*hit)
        return Exhausted(bounds.budget)


# ---------------------------------------------------------------------------
# the survival-threshold gap


@dataclass
class IncompletenessReport:
    """Outcome of the finite-entailment gap demonstration.

    At the start state of the ladder game every threshold reachable with
    n <= depth is satisfied, yet certain survival is not, so the finite
    family of threshold claims does not semantically entail the limit
    claim."""

    depth: int
    survival: Fraction
    prefix: list
    limit_formula: str
    limit_at_start: bool
    limit_at_absorbing: bool
    game: Game

    @property
    def gap_demonstrated(self) -> bool:
        return (
            all(entry["holds"] for entry in self.prefix)
            and not self.limit_at_start
            and self.limit_at_absorbing
        )

    def fields(self) -> dict:
        """:meth:`to_dict` with the Game itself as ``"game"``."""
        return {
            "depth": self.depth,
            "survival": str(self.survival),
            "prefix": self.prefix,
            "limit": {
                "formula": self.limit_formula,
                "holds_at_start": self.limit_at_start,
                "holds_at_absorbing": self.limit_at_absorbing,
            },
            "gap_demonstrated": self.gap_demonstrated,
            "game": self.game,
        }

    def to_dict(self) -> dict:
        return {**self.fields(), "game": game_to_dict(self.game)}


def incompleteness_demo(n: int) -> IncompletenessReport:
    """Evaluate the threshold ladder claims on the three-state game whose
    start state survives one step with probability exactly 1 - 10**-n."""
    if not 0 <= n <= 12:
        raise ValueError("depth must be between 0 and 12")
    game = survival_ladder(n)
    ctx = CheckContext(game)
    prefix = []
    for k in range(n + 1):
        threshold = 1 - Fraction(1, 10**k)
        claim = Coal(frozenset(), threshold, TOP)
        prefix.append(
            {
                "n": k,
                "formula": render(claim),
                "threshold": str(threshold),
                "holds": holds(game, "s", claim, ctx),
            }
        )
    limit = Coal(frozenset(), Fraction(1), TOP)
    return IncompletenessReport(
        depth=n,
        survival=1 - Fraction(1, 10**n),
        prefix=prefix,
        limit_formula=render(limit),
        limit_at_start=holds(game, "s", limit, ctx),
        limit_at_absorbing=holds(game, "t", limit, ctx),
        game=game,
    )
