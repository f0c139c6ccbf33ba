"""Formula syntax: parser, printer, closure sets, tautology checking."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgcl.decide import SearchBounds, sample_game
from sgcl.formula import (
    ATOM_CAP,
    TOP,
    AtomCapError,
    Bot,
    ClosureSet,
    Coal,
    Impl,
    MAX_LITERAL_CHARS,
    Neg,
    ParseError,
    Var,
    _column,
    _skeleton,
    agents_of,
    canonical_key,
    closure,
    exact,
    in_plus_language,
    is_tautology,
    parse,
    render,
    subformulas,
)
from sgcl.game import (
    ActionProfile,
    Game,
    GameError,
    game_from_dict,
    survival_ladder,
)
from sgcl.modelcheck import CheckContext, holds
from sgcl.proof import (
    Derivation,
    ProofLine,
    SystemId,
    Tautology,
    build_coalition_weakening,
    build_lifted_implication,
)

from conftest import (
    acceptance_corpus,
    pool_decides,
    pool_queries,
    profile_row,
    reference_game_to_dict,
    reference_parse,
    reference_render,
)

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def coal(agents, p, body):
    return Coal(frozenset(agents), F(p), body)


# ---------------------------------------------------------------------------
# parsing


class TestParse:
    def test_modal_with_decimal_subscript(self):
        f = parse("[a,b]_0.9 pass")
        assert f == coal({"a", "b"}, F(9, 10), Var("pass"))

    def test_implication(self):
        assert parse("p -> p") == Impl(Var("p"), Var("p"))

    def test_negated_empty_coalition(self):
        assert parse("~[]_1 true") == Neg(coal((), 1, Neg(Bot())))

    def test_arrow_is_right_associative(self):
        assert parse("p -> q -> r") == Impl(
            Var("p"), Impl(Var("q"), Var("r"))
        )

    def test_modal_binds_tighter_than_arrow(self):
        f = parse("[a]_1 p -> q")
        assert f == Impl(coal({"a"}, 1, Var("p")), Var("q"))

    def test_fraction_subscript(self):
        assert parse("[]_1/2 true") == coal((), F(1, 2), TOP)

    def test_agents_unchecked_without_universe(self):
        assert parse("[c]_1 v") == coal({"c"}, 1, Var("v"))

    def test_subscript_above_one_rejected(self):
        with pytest.raises(ParseError, match="outside"):
            parse("[a]_3/2 v")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse("[a]_1/0 v")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p -> ")
        assert err.value.position == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("p q")

    def test_reserved_word_as_agent_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("[true]_1 v")

    def test_duplicate_agents_collapse(self):
        assert parse("[a,a]_1 v") == coal({"a"}, 1, Var("v"))


def _pool_texts():
    """Every ``--formula`` argument of the game-queries pool."""
    return sorted({a for q in pool_queries()
                   for flag, a in zip(q["argv"], q["argv"][1:]) if flag == "--formula"})


# pieces a mutation inserts: every kind of token, blanks ASCII and not,
# and characters no token starts with
_PIECES = [
    "~", "[", "]", "(", ")", ",", "/", "_", "->", "-", ">", ".", "0", "1",
    "2", "0.5", "1/2", "3/2", "1/0", "a", "b", "c", "v", "u", "true", "false",
    "[a]_1/2 ", "[]_0 ", " ", "\t", "\n", "\u2003", "\u0663", "\xe9", "#",
]


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        k = rng.random()
        if k < 0.3:
            text = text[:i] + text[j:]
        elif k < 0.6:
            text = text[:i] + rng.choice(_PIECES) + text[i:]
        elif k < 0.85:
            text = text[:i] + rng.choice(_PIECES) + text[j:]
        else:
            text = text[:i] + text[i:j] * 2 + text[j:]
    return text


def _reading(parser, text):
    """What a parser makes of a text: the formula's rendering and hash
    (``==`` would recurse on deep formulas), or the error's message and
    position."""
    try:
        f = parser(text)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "formula", render(f), hash(f)


class TestParserMatchesReference:
    """``parse`` reads every text as the recursive-descent reference does:
    the same formula, or the same error at the same position."""

    def test_corpus_pool_and_mutations(self):
        texts = [render(f) for f in acceptance_corpus()] + _pool_texts()
        rng = random.Random(2026)
        cases = texts + [_mutate(rng, rng.choice(texts)) for _ in range(30_000)]
        kinds = {"formula": 0, "error": 0}
        for text in cases:
            got = _reading(parse, text)
            assert got == _reading(reference_parse, text), text
            kinds[got[0]] += 1
        assert kinds["formula"] > 3000 and kinds["error"] > 10_000, kinds

    def test_deep_parentheses_and_chains_do_not_recurse(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            nested = parse("(" * 3000 + "v" + ")" * 3000)
            chain = parse("v -> " * 3000 + "v")
        finally:
            sys.setrecursionlimit(limit)
        assert nested == Var("v")
        depth = 0
        while isinstance(chain, Impl):
            assert chain.left == Var("v")
            chain, depth = chain.right, depth + 1
        assert depth == 3000 and chain == Var("v")

    def test_one_var_per_name(self):
        f = parse("(v -> (u -> ~v))")
        assert f.left is f.right.right.body
        assert f.right.left == Var("u")


# ---------------------------------------------------------------------------
# rendering


class TestRender:
    @pytest.mark.parametrize(
        "f, text",
        [
            (coal({"a"}, 0, Var("v")), "[a]_0 v"),
            (Impl(Var("p"), Bot()), "(p -> false)"),
            (coal((), F(1, 2), TOP), "[]_1/2 true"),
            (Neg(Neg(Var("v"))), "~~v"),
            (coal({"b", "a"}, F(9, 10), Var("v")), "[a,b]_9/10 v"),
        ],
    )
    def test_examples(self, f, text):
        assert render(f) == text

    def test_decimal_input_renders_in_lowest_terms(self):
        assert render(parse("[a]_0.5 v")) == "[a]_1/2 v"


class TestDeepPrefixChains:
    """Prefix chains far deeper than the interpreter's recursion limit
    parse and print back, one node per prefix."""

    @pytest.mark.parametrize("prefix, kind", [("~", Neg), ("[a]_1 ", Coal)])
    def test_chain_of_3000(self, prefix, kind):
        text = prefix * 3000 + "v"
        f = parse(text)
        depth = 0
        while isinstance(f, kind):
            f, depth = f.body, depth + 1
        assert depth == 3000 and f == Var("v")
        assert render(parse(text)) == text

    def test_mixed_chain_keeps_order(self):
        text = "~[a]_1/2 ~~[]_0 true"
        f = parse(text)
        assert f == Neg(coal({"a"}, F(1, 2), Neg(Neg(coal((), 0, TOP)))))
        assert render(f) == text


class TestDeepNodes:
    def test_chain_of_100000_negations_builds_and_hashes(self):
        f = Var("v")
        for _ in range(100_000):
            f = Neg(f)
        assert f in {f}
        assert hash(f) == hash((f.body,))
        deep_box = coal({"a"}, 1, f)
        assert agents_of(Impl(deep_box, f)) == frozenset({"a"})


class TestDeepEquality:
    """``==`` walks two formulas with an explicit stack: separately parsed
    copies of formulas 3000 deep compare, hash and look up equal at the
    default recursion limit, and differ where they do."""

    @pytest.mark.parametrize("text", [
        "~" * 3000 + "v",
        "v -> " * 3000 + "v",
        "[a]_1/2 " * 3000 + "v",
    ], ids=["negations", "implications", "modalities"])
    def test_separate_copies(self, text):
        assert sys.getrecursionlimit() <= 1000
        f, copy = parse(text), parse(text)
        assert f is not copy
        assert f == copy and copy == f
        assert not f != copy
        assert hash(f) == hash(copy)
        assert copy in {f} and {f: 1}[copy] == 1
        other = parse(text[:-1] + "u")
        assert f != other and not f == other
        assert other not in {f} and other not in {f: 1}

    def test_differing_fields_and_types(self):
        assert parse("[a]_1/2 v") != parse("[a]_1/4 v")
        assert parse("[a]_1/2 v") != parse("[b]_1/2 v")
        assert parse("(v -> u)") != parse("(u -> v)")
        assert parse("v") != parse("~v") and Bot() == Bot()
        assert Var("v") != "v" and not Var("v") == "v"


class TestFloatSubscripts:
    def test_float_subscript_rejected(self):
        with pytest.raises(ValueError, match="floating point"):
            Coal(frozenset(), 0.1, Var("v"))

    @pytest.mark.parametrize("p, exact", [(F(1, 10), F(1, 10)), ("1/10", F(1, 10)), (1, F(1))])
    def test_exact_subscripts_accepted(self, p, exact):
        subscript = Coal(frozenset(), p, Var("v")).p
        assert subscript == exact and isinstance(subscript, Fraction)


# ---------------------------------------------------------------------------
# exact rationals


def _game_row(value):
    game = Game(("a",), ("s",), (), ("x",), [{"s": value}], {"s": (0,)}, {})
    return profile_row(game, "s", ActionProfile.of({"a": "x"}))["s"]


def _game_file(value):
    # the loader checks row sums, and every accepted value below is 1/2
    doc = reference_game_to_dict(survival_ladder(0))
    doc["transitions"][0]["to"] = {"f": value, "s": "1/2"}
    return profile_row(game_from_dict(doc), "f", ActionProfile.of({"a": "act"}))["f"]


_REFLEXIVE = Derivation(SystemId.L, (ProofLine(parse("v -> v"), Tautology()),))

# every entry point that takes a caller's probability or threshold, each
# returning the Fraction it kept
ENTRY_POINTS = {
    "Coal": lambda v: Coal(frozenset(), v, Var("v")).p,
    "Game": _game_row,
    "game_from_dict": _game_file,
    "SearchBounds": lambda v: SearchBounds(probability_grid=(0, v, 1)).probability_grid[1],
    "build_coalition_weakening": lambda v: build_coalition_weakening(
        ["a"], ["a", "b"], v, Var("v")).conclusion.left.p,
    "build_lifted_implication": lambda v: build_lifted_implication(
        ["a"], v, Var("v"), Var("v"), _REFLEXIVE).conclusion.left.p,
    "parse": lambda v: parse(f"[a]_{v} v").p,
}

INEXACT = [0.1, True, "1e-1", "1_0/2_0", "1 / 2", "\u0663/\u0664"]

# formula text is whitespace-insensitive, and 0.1 written in it is the
# decimal 1/10, not a float
_FORMULA_TEXT_ACCEPTS = {"0.1", "'1 / 2'"}


class TestExactGate:
    @pytest.mark.parametrize("entry, value", [
        (entry, value) for entry in ENTRY_POINTS for value in INEXACT
        if not (entry == "parse" and repr(value) in _FORMULA_TEXT_ACCEPTS)
    ], ids=repr)
    def test_every_entry_point_rejects(self, entry, value):
        with pytest.raises((ValueError, GameError)):
            ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [F(1, 2), "1/2", "0.5"], ids=repr)
    def test_every_entry_point_accepts(self, entry, value):
        kept = ENTRY_POINTS[entry](value)
        assert kept == F(1, 2) and isinstance(kept, Fraction)

    @pytest.mark.parametrize("literal, value", [
        ("3", F(3)), ("-3/4", F(-3, 4)), (" +.5 ", F(1, 2)), ("1.", F(1)),
        ("-0.0", F(0)), ("1/010", F(1, 10)), ("\t2/4\n", F(1, 2)),
    ])
    def test_literal_grammar(self, literal, value):
        assert exact(literal) == value

    @pytest.mark.parametrize("value, message", [
        (0.5, "binary floating point is rejected"),
        (None, "not a Fraction, an int or a string"),
        ("0e-999999999", "exponent notation is rejected"),
        ("1/0", "not a rational literal"),
        ("1/2e3", "not a rational literal"),
        ("", "not a rational literal"),
        ("- 1", "not a rational literal"),
        ("\u00bd", "not a rational literal"),
        ("\u20031/2", "not a rational literal"),
        (type("Half", (Fraction,), {})(1, 2), "a subclass of Fraction is rejected"),
    ], ids=repr)
    def test_rejections_name_the_problem(self, value, message):
        with pytest.raises(ValueError, match=message):
            exact(value)

    def test_overlong_literal_refused_before_fraction(self):
        # Fraction itself fails past 4300 digits, asking for
        # sys.set_int_max_str_digits() on Python versions that limit it
        assert exact("1" * MAX_LITERAL_CHARS) == int("1" * MAX_LITERAL_CHARS)
        for literal in ("1" * 5000, "1/" + "3" * 5000, "0." + "5" * 5000):
            with pytest.raises(ValueError) as err:
                exact(literal)
            message = str(err.value)
            assert f"characters is longer than the {MAX_LITERAL_CHARS} allowed" in message
            assert "set_int_max_str_digits" not in message
            assert len(message) < 150

    @pytest.mark.parametrize("value", ["x" * 5000, [0] * 5000, "1e" + "9" * 4000],
                             ids=["text", "list", "exponent"])
    def test_errors_show_a_short_prefix(self, value):
        with pytest.raises(ValueError) as err:
            exact(value)
        assert len(str(err.value)) < 150

    def test_overlong_subscript_is_parse_error(self):
        with pytest.raises(ParseError, match="longer than") as err:
            parse("[a]_1/" + "1" * 5000 + " v")
        assert err.value.position == 4 and len(str(err.value)) < 150

    def test_out_of_range_subscript_shown_short(self):
        with pytest.raises(ParseError, match="outside") as err:
            parse("[a]_" + "9" * 4290 + " v")
        assert err.value.position == 4 and len(str(err.value)) < 200
        with pytest.raises(ValueError, match="modal subscript 9999.* outside") as err:
            Coal(frozenset(), F(10**2000 - 1), Var("v"))
        assert len(str(err.value)) < 200
        with pytest.raises(ParseError, match=r"subscript 3/2 outside \[0, 1\]"):
            parse("[a]_3/2 v")

    def test_only_ascii_whitespace_separates_tokens(self):
        assert parse("\t[a]_\n1/2\r\x0b\x0c v ") == coal({"a"}, F(1, 2), Var("v"))
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse("[a]_\u20031/2 v")
        assert err.value.position == 4

    def test_string_coalition_rejected(self):
        with pytest.raises(ValueError, match="is a string"):
            Coal("alice", F(1, 2), Var("v"))
        with pytest.raises(ValueError, match="is a string"):
            build_coalition_weakening("a", "ab", F(1, 2), Var("v"))
        with pytest.raises(ValueError, match="is a string"):
            build_lifted_implication("a", F(1, 2), Var("v"), Var("v"), _REFLEXIVE)

FORMULA_NAMES = st.sampled_from(["p", "q", "v", "goal"])
AGENT_SETS = st.frozensets(st.sampled_from(["a", "b", "c"]), max_size=3)
SUBSCRIPTS = st.sampled_from([F(0), F(1), F(1, 2), F(9, 10), F(1, 3), F(3, 4)])

formulas = st.recursive(
    st.one_of(FORMULA_NAMES.map(Var), st.just(Bot())),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Impl(*t)),
        st.tuples(AGENT_SETS, SUBSCRIPTS, sub).map(lambda t: Coal(*t)),
    ),
    max_leaves=12,
)


@given(formulas)
def test_parse_render_round_trip(f):
    assert parse(render(f)) == f


def _pool_formulas():
    """Every formula of the benchmark's pools: the game-queries pool's
    ``--formula`` arguments and the canonical and coalition pools'
    formulas."""
    texts = _pool_texts()
    for name in ("canonical_pool", "coalition_pool"):
        texts += [e["formula"] for e in json.loads(
            (ROOT / "perfbench" / "data" / f"{name}.json").read_text(encoding="utf-8"))]
    return [parse(text) for text in texts]


class TestRenderMatchesReference:
    """``render`` prints what the recursive reference prints, on every
    member of the corpus's and the pools' closures and on generated
    formulas, and prints implication chains the reference cannot."""

    def test_corpus_and_pool_closures(self):
        seen = set()
        for f in acceptance_corpus() + _pool_formulas():
            seen.update(closure([f]))
        assert len(seen) > 3000
        for f in seen:
            assert render(f) == reference_render(f)

    @given(formulas)
    def test_generated(self, f):
        assert render(f) == reference_render(f)

    @pytest.mark.parametrize("text", [
        "v -> " * 3000 + "v",
        "(" * 3000 + "v" + " -> v)" * 3000,
        "(~v -> [a]_1/2 " * 1500 + "v" + ")" * 1500,
    ], ids=["right-nested", "left-nested", "mixed"])
    def test_deep_implications_do_not_recurse(self, text):
        f = parse(text)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = render(f)
        finally:
            sys.setrecursionlimit(limit)
        assert parse(got) == f
        with pytest.raises(RecursionError):
            reference_render(f)

    def test_right_nested_chain_text(self):
        assert render(parse("v -> " * 3 + "v")) == "(v -> (v -> (v -> v)))"

    def test_not_a_formula(self):
        with pytest.raises(TypeError, match="not a formula"):
            render("v")


@given(formulas)
def test_plus_language_closed_under_subformulas(f):
    if in_plus_language(f):
        assert all(in_plus_language(g) for g in subformulas(f))


# ---------------------------------------------------------------------------
# closure sets


class TestClosure:
    def test_negated_variable(self):
        assert set(closure([Neg(Var("v"))])) == {Var("v"), Neg(Var("v"))}

    def test_modal_seed(self):
        f = coal({"a"}, F(1, 2), Var("v"))
        assert set(closure([f])) == {f, Neg(f), Var("v"), Neg(Var("v"))}

    def test_implication_seed(self):
        f = Impl(Var("u"), Var("v"))
        assert set(closure([f])) == {
            f,
            Neg(f),
            Var("u"),
            Neg(Var("u")),
            Var("v"),
            Neg(Var("v")),
        }

    def test_rejects_non_closed_tuple(self):
        with pytest.raises(ValueError, match="missing"):
            ClosureSet((Neg(Var("v")),))

    def test_ordering_is_canonical(self):
        sigma = closure([Impl(Var("u"), Var("v"))])
        assert list(sigma.formulas) == sorted(sigma.formulas, key=canonical_key)


@given(st.lists(formulas, min_size=1, max_size=3))
def test_closure_is_idempotent(seed):
    sigma = closure(seed)
    assert closure(sigma.formulas).formulas == sigma.formulas


@given(formulas)
def test_closure_size_bound(f):
    assert len(closure([f])) <= 2 * len(subformulas(f)) + 2


@given(st.lists(formulas, min_size=1, max_size=3))
def test_closure_members_keep_their_subformulas(seed):
    sigma = closure(seed)
    members = set(sigma)
    for g in sigma:
        assert subformulas(g) <= members


# ---------------------------------------------------------------------------
# plus language


def test_plus_language_examples():
    assert in_plus_language(coal({"a"}, 1, Var("v")))
    assert not in_plus_language(coal((), 1, Var("v")))
    assert not in_plus_language(Impl(coal((), 0, Var("v")), Var("v")))
    assert in_plus_language(Var("v"))


# ---------------------------------------------------------------------------
# tautology checking


def naive_tautology(f, atoms=None):
    """Independent oracle: substitute truth values for the maximal
    non-Boolean subformulas directly, no abstraction layer."""

    def collect(g, acc):
        if isinstance(g, (Var, Coal)):
            acc.append(g)
        elif isinstance(g, Neg):
            collect(g.body, acc)
        elif isinstance(g, Impl):
            collect(g.left, acc)
            collect(g.right, acc)
        return acc

    def evaluate(g, true_set):
        if isinstance(g, Bot):
            return False
        if isinstance(g, (Var, Coal)):
            return g in true_set
        if isinstance(g, Neg):
            return not evaluate(g.body, true_set)
        return (not evaluate(g.left, true_set)) or evaluate(g.right, true_set)

    atoms = sorted(set(collect(f, [])), key=canonical_key)
    from itertools import combinations

    for r in range(len(atoms) + 1):
        for chosen in combinations(atoms, r):
            if not evaluate(f, frozenset(chosen)):
                return False
    return True


def implication_chain(width):
    """x1 -> (x2 -> ... -> x0): false only when x0 is false and every
    other atom is true."""
    f = Var("x0")
    for i in range(width - 1, 0, -1):
        f = Impl(Var(f"x{i}"), f)
    return f


class TestTautology:
    def test_positive_example(self):
        f = parse("p -> q -> p")
        assert is_tautology(f)

    def test_modal_instances_are_opaque(self):
        same = parse("[a]_1/2 v -> [a]_1/2 v")
        assert is_tautology(same)
        different = parse("[a]_1/2 v -> [a]_1/4 v")
        assert not is_tautology(different)

    def test_excluded_middle_with_modal_atom(self):
        f = parse("~([a]_1 v -> false) -> [a]_1 v")
        assert is_tautology(f)

    def test_atom_cap_refuses(self):
        f = implication_chain(ATOM_CAP + 1)
        message = f"truth table over {ATOM_CAP + 1} atoms exceeds cap {ATOM_CAP}"
        with pytest.raises(AtomCapError, match=message):
            is_tautology(f)

    @pytest.mark.parametrize("width", [11, 14])
    def test_more_atoms_than_one_pass(self, width):
        chain = implication_chain(width)
        for f in (chain, Impl(Var("x0"), chain), Impl(Neg(Var("x0")), chain)):
            assert is_tautology(f) == naive_tautology(f), render(f)

    def test_widest_skeleton_within_cap(self):
        chain = implication_chain(ATOM_CAP)
        assert not is_tautology(chain)
        assert is_tautology(Impl(Var("x0"), chain))

    def test_deep_negation_chain(self):
        f = parse("~" * 3000 + "(v -> v)")
        assert is_tautology(f)
        assert not is_tautology(Neg(f))

    def test_top_is_tautology(self):
        assert is_tautology(TOP)
        assert not is_tautology(Bot())

    @pytest.mark.parametrize("inner", range(1, 11))
    def test_columns_equal_the_comprehension(self, inner):
        """Each closed-form column sets bit b exactly when bit i of b is
        set, as the comprehension over the valuations does."""
        rows = 1 << inner
        every = (1 << rows) - 1
        for i in range(inner):
            assert _column(i, every) == sum(
                1 << b for b in range(rows) if b >> i & 1), (inner, i)

    def test_corpus_verdicts(self):
        assert sum(is_tautology(f) for f in acceptance_corpus()) == 32

    def test_pool_decide_verdicts(self):
        """The decide queries of the game-queries pool: every
        ``decide-tautology`` entry is a tautology, and one
        ``decide-random`` entry is one too."""
        queries = pool_decides()
        kinds = [q["kind"] for q in queries if is_tautology(parse(q["formula"]))]
        assert len(queries) == 32
        assert sorted(kinds) == ["decide-random"] + ["decide-tautology"] * 16


@settings(max_examples=300)
@given(formulas)
def test_tautology_agrees_with_naive_oracle(f):
    atoms = {g for g in subformulas(f) if isinstance(g, (Var, Coal))}
    assume(len(atoms) <= 10)
    assert is_tautology(f) == naive_tautology(f)


# formulas over u and v with coalitions of agents a and b, and shapes that
# are tautologies whatever their parts, so that tautologies over modal
# atoms come up often
SEARCH_SUBSCRIPTS = st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)])
search_formulas = st.recursive(
    st.one_of(st.sampled_from(["u", "v"]).map(Var), st.just(Bot())),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda t: Impl(*t)),
        st.tuples(st.frozensets(st.sampled_from(["a", "b"])), SEARCH_SUBSCRIPTS, sub)
        .map(lambda t: Coal(*t)),
    ),
    max_leaves=6,
)
tautology_shapes = st.one_of(
    search_formulas,
    search_formulas.map(lambda x: Impl(x, x)),
    search_formulas.map(lambda x: Impl(Neg(Neg(x)), x)),
    st.tuples(search_formulas, search_formulas).map(
        lambda t: Impl(t[0], Impl(t[1], t[0]))),
    st.tuples(search_formulas, search_formulas, search_formulas).map(
        lambda t: Impl(Impl(t[0], Impl(t[1], t[2])),
                       Impl(Impl(t[0], t[1]), Impl(t[0], t[2])))),
)


@settings(max_examples=100)
@given(tautology_shapes, st.integers(0, 2**32 - 1))
def test_tautologies_hold_in_sampled_games(f, seed):
    """The screen the bounded search applies is sound: a formula that
    is_tautology accepts holds at every non-failure state of sampled
    games, and is_tautology agrees with evaluating the skeleton under
    each valuation of its atoms."""
    atoms = [g for g in _skeleton(f) if isinstance(g, (Var, Coal))]
    assume(len(atoms) <= 12)
    verdict = is_tautology(f)
    assert verdict == naive_tautology(f)
    if verdict:
        rng = random.Random(seed)
        for _ in range(20):
            game = sample_game(rng, SearchBounds(), require_agents=agents_of(f))
            ctx = CheckContext(game)
            for state in game.nonfailure_states:
                assert holds(game, state, f, ctx), (render(f), state)
