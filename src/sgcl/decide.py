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
formula.  Its games have at most ``MAX_STATES`` (4) states and
``MAX_ACTIONS`` (3) actions and are played by the formula's agents, or by
``a`` alone when it names none; it draws ``BUDGET`` (2000) of them unless
the caller gives a budget.  A formula whose propositional skeleton, every
variable and modality an opaque atom, is a tautology holds at every
non-failure state of every game, so the search settles it by
:func:`is_tautology` and returns before it draws a game; a skeleton of
more than ``ATOM_CAP`` atoms, which that check refuses, is searched like
any other formula.  Each game is drawn once, as integers, its rows as
units over the quarter grid's denominator 4, and compiled straight into
the model checker's row entries; only a refuting draw is built, as it
stands, into a :class:`Game`.  The two routes are independent, and each
refutation either route returns is re-verified, on a ``Game``, before
being reported.

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
    is_tautology,
    render,
    variables_of,
)
from .game import Game, game_to_dict, survival_ladder
from .modelcheck import QUARTER_GRID, CheckContext, _eval, holds
from .proof import SystemId


class DecideError(Exception):
    pass


# the sampler draws rows on QUARTER_GRID: as integer units over its
# denominator, each grid point's units, and the Fraction of every k units
_DEN = 4
_UNITS = tuple(p.numerator * (_DEN // p.denominator) for p in QUARTER_GRID)
_FRACTIONS = tuple(Fraction(k, _DEN) for k in range(_DEN + 1))


# the bounded search's games: at most MAX_STATES states and MAX_ACTIONS
# actions, over the agents of the formula or ``a`` alone, BUDGET of them
# unless the caller gives a budget
MAX_STATES = 4
MAX_ACTIONS = 3
BUDGET = 2000


def _check_budget(budget) -> None:
    """Raise DecideError unless budget is a positive int, not a bool."""
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise DecideError(f"budget must be an int, not {type(budget).__name__}")
    if budget <= 0:
        raise DecideError("budget must be positive")


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
    """One random game as :func:`_draw` draws it, by state index; the
    search checks it as it stands and :func:`sample_game` builds it.

    ``states`` names the states ``q0``, ``q1``, ...; ``failures`` and
    the ``valuation`` (variable -> states where it holds) give states by
    their index in it.  ``rows`` holds one row per state and complete
    profile, state by state and each state's in product order, a row
    being its positive entries in draw order as (target state index,
    units) pairs over the quarter grid's denominator 4, summing to it."""

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


def _draw(rng: random.Random, agents: tuple, variables: Sequence[str]) -> Draw:
    """One random game over ``agents``, as a :class:`Draw`: the only code
    of the search that reads the random stream, called once per game.
    It has 1 to ``MAX_STATES`` states, fewer failure states than states
    and 1 to ``MAX_ACTIONS`` actions.  Rows are exact: all but one entry
    come from ``QUARTER_GRID`` and the remaining state absorbs the
    residual; draws pushing the partial sum past 1 are discarded and
    retried.

    The row loop's ``shuffle`` and ``choice`` are replayed through
    ``rng.getrandbits`` as CPython's ``Random._randbelow`` draws them
    (n.bit_length() bits, drawn again while the value is at least n), so
    the random stream and the games are those of the plain calls.
    ``TestSamplerMatchesReference`` in ``tests/test_decide.py`` pins
    this, random state included."""
    # a draw with one outcome: it keeps each seed's random stream, and so
    # the games that the benchmark's recorded answers rest on
    rng.randrange(1)
    n_states = rng.randint(1, MAX_STATES)
    indices = range(n_states)
    n_fail = rng.randint(0, n_states - 1)
    failures = frozenset(rng.sample(indices, n_fail))
    actions = tuple(f"m{i}" for i in range(rng.randint(1, MAX_ACTIONS)))
    n_profiles = len(actions) ** len(agents)
    # partial sums are kept as integers over the grid's denominator
    den, units = _DEN, _UNITS
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
    return Draw(agents, tuple(f"q{i}" for i in indices), failures,
                actions, rows, valuation)


def sample_game(draw: Draw) -> Game:
    """The :class:`Game` of a draw: the one maker of a search game.  Each
    state gets one row per complete profile, in product order, the row
    table handed straight to the constructor with each entry's units as
    an exact ``Fraction``."""
    states = draw.states
    return Game(
        agents=draw.agents,
        states=states,
        failures=[states[i] for i in draw.failures],
        actions=draw.actions,
        rows=[{states[t]: _FRACTIONS[u] for t, u in row} for row in draw.rows],
        row_ids={s: draw.row_ids(k) for k, s in enumerate(states)},
        valuation={v: [states[i] for i in members]
                   for v, members in draw.valuation.items()},
    )


def _row_entries(draw: Draw) -> list:
    """The ``CheckContext.entries`` of a draw, by row id: each row's
    (survival units, 4, non-failure targets in row order).  Truth is
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
            entries.append((survival, _DEN, tuple(successors)))
    return entries


def bounded_countermodel(
    f: Formula, budget: int = BUDGET, seed: int = 0
) -> Optional[tuple]:
    """Search ``budget`` seeded random games for a non-failure state
    falsifying f.  Returns (game, state) re-verified under the model
    checker, or None when the budget runs out.  A budget that is not a
    positive int raises DecideError whatever f is.

    ``~`` and ``->`` are read classically at every non-failure state, so
    no game falsifies a formula whose skeleton :func:`is_tautology`
    accepts: such a search returns None before it seeds the stream,
    having drawn no game.  A skeleton of more than ``ATOM_CAP`` atoms is
    searched as below.

    The games are those :func:`_draw` draws from one ``Random(seed)``,
    over the sorted agents of f, or ``a`` alone when f names none: at
    most ``MAX_STATES`` states and ``MAX_ACTIONS`` actions each.  Each is
    drawn once and checked as drawn: its rows go straight into the
    context's entries (:func:`_row_entries`), and f is evaluated at each
    non-failure state on one context per game, the draw standing in for
    the game; the contexts share nothing.  Only a refuting draw becomes
    a :class:`Game`: :func:`sample_game` builds it from the draw in
    hand, so that ``sample_game`` stays the one maker of a search game,
    the one the benchmark's tracer counts (``decide.games_sampled``),
    and a fresh :func:`holds` re-verifies it."""
    _check_budget(budget)
    try:
        if is_tautology(f):
            return None
    except AtomCapError:
        pass  # too wide for a truth table: draw games as for any formula
    rng = random.Random(seed)
    agents = tuple(sorted(agents_of(f))) or ("a",)
    names = tuple(sorted(variables_of(f))) or ("v",)
    for _ in range(budget):
        draw = _draw(rng, agents, names)
        ctx = CheckContext(draw, entries=_row_entries(draw))
        for s in range(len(draw.states)):
            if s not in draw.failures and not _eval(ctx, s, f):
                game = sample_game(draw)
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
    budget: int = BUDGET,
    seed: int = 0,
    cap: int = CLOSURE_CAP,
):
    """Classify through the canonical game when the closure fits the cap,
    falling back to the bounded search of ``budget`` games otherwise
    (:func:`bounded_countermodel`).  The budget is checked first,
    whichever route runs, so a bad budget raises DecideError before
    either route."""
    _check_budget(budget)
    try:
        return classify(f, system=system, cap=cap)
    except ClosureCapError:
        hit = bounded_countermodel(f, budget, seed=seed)
        if hit is not None:
            return Refuted(*hit)
        return Exhausted(budget)


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
