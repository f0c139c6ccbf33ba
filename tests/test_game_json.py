"""The one game writer against the dict-built references: ``game_json``,
``game_to_dict`` and ``save`` write what ``json`` writes for
``reference_row_table``, on every game the package builds and on
hand-built games whose names need escapes; the listed form that
``reference_game_to_dict`` builds and the row form load to equal games;
and a malformed row form fails at its JSON pointer."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sgcl.canonical import build_canonical_game
from sgcl.cli import run
from sgcl.decide import Refuted, decide_formula
from sgcl.formula import closure, parse
from sgcl.game import (
    Game,
    GameValidationError,
    SchemaError,
    game_from_dict,
    game_json,
    game_to_dict,
    load,
    save,
    survival_ladder,
)

from conftest import (
    acceptance_corpus,
    drawn_game,
    overtake_game,
    reference_game_to_dict,
    reference_row_table,
)

F = Fraction
ROOT = Path(__file__).resolve().parents[1]
KILLED_INSTANCE = "(([a]_1/2 u -> [b]_1/2 v) -> ([a,b]_1/2 (u -> w) -> [a]_0 (v -> w)))"


def loaded(doc):
    """The game a document loads to, or the sorted violations it is
    refused with: the two forms list a game's keys in different orders."""
    try:
        return game_from_dict(doc)
    except GameValidationError as err:
        return sorted(err.violations)


def assert_written_as_reference(games, path):
    """Each game's text and dict equal the reference's, and its listed
    and row forms load to equal games, or to the same violations; ``save``
    of the game with the most rows writes the reference's text and a newline
    (a file per game would cost more than the rest of the check)."""
    games = list(games)
    assert games
    for game in games:
        reference = reference_row_table(game)
        assert game_json(game) == json.dumps(reference)
        assert game_to_dict(game) == reference
        from_rows = loaded(reference)
        assert from_rows == loaded(reference_game_to_dict(game))
        if isinstance(from_rows, Game):
            assert from_rows == game
    largest = max(games, key=lambda g: len(g.rows))
    save(largest, path)
    expected = json.dumps(reference_row_table(largest)) + "\n"
    assert path.read_bytes() == expected.encode()


def test_corpus_refutations(tmp_path):
    verdicts = map(decide_formula, acceptance_corpus())
    assert_written_as_reference(
        (v.game for v in verdicts if isinstance(v, Refuted)), tmp_path / "g.json")


def test_canonical_pool_games(tmp_path):
    pool = json.loads((ROOT / "perfbench" / "data" / "canonical_pool.json")
                      .read_text(encoding="utf-8"))
    assert_written_as_reference(
        (build_canonical_game(closure([parse(e["formula"])]), cap=32)[0] for e in pool),
        tmp_path / "g.json")


def test_sampled_games(tmp_path):
    assert_written_as_reference(
        (drawn_game(random.Random(seed)) for seed in range(50)),
        tmp_path / "g.json")


def test_example_games(tmp_path):
    games = [overtake_game()] + [survival_ladder(n) for n in range(13)]
    games += [load(path) for path in sorted((ROOT / "games").glob("*.json"))]
    assert_written_as_reference(games, tmp_path / "g.json")


# state names that json escapes: a quote, a backslash, a non-ASCII
# letter, the line separator U+2028 and a control character
QUOTE, BACKSLASH, ACUTE, LINE_SEPARATOR, CONTROL = (
    'q"', "b\\", "é", "l\u2028", "c\x01")


def escaped_game():
    """Two agents and two actions, neither in sorted order; a row whose
    targets are out of order, one with a zero entry, one whose target is
    not a state."""
    states = (QUOTE, BACKSLASH, ACUTE, LINE_SEPARATOR, CONTROL)
    rows = [
        {QUOTE: F(1, 2), BACKSLASH: F(1, 2)},
        {ACUTE: F(0), LINE_SEPARATOR: F(1)},
        {"ghost": F(1)},
        {CONTROL: F(1)},
    ]
    row_ids = {s: ((k + i) % 4 for k in range(4)) for i, s in enumerate(states)}
    return Game(("b", "aé"), states, (CONTROL,), ("y", 'x"'), rows, row_ids,
                {'v"': (QUOTE,), ACUTE: (LINE_SEPARATOR, BACKSLASH)})


def zero_agent_game():
    """One profile, the empty one, and an empty valuation."""
    return Game((), ("s", "f"), ("f",), ("act",), [{"f": F(1)}],
                {"s": (0,), "f": (0,)}, {})


@pytest.mark.parametrize("build", [escaped_game, zero_agent_game])
def test_hand_built_games(tmp_path, build):
    assert_written_as_reference([build()], tmp_path / "g.json")


def test_escaped_game_covers_its_cases():
    """The hand-built game's names need each escape, and its zero entry
    is left out."""
    text = game_json(escaped_game())
    assert text.isascii()
    for escaped in ('"q\\""', '"b\\\\"', '"\\u00e9"', '"l\\u2028"', '"c\\u0001"'):
        assert escaped in text
    assert {LINE_SEPARATOR: "1"} in game_to_dict(escaped_game())["rows"]


def same_game_other_tables():
    """The overtake game, whose table already holds two rows twice, and
    games ``==`` to it: its table doubled, each copy with zero entries
    added, the ids alternating between the copies, and an unused row; and
    its table reversed."""
    base = overtake_game()
    n = len(base.rows)
    zeros = [dict(row, **{s: F(0) for s in base.states if s not in row}) for row in base.rows]
    doubled = Game(base.agents, base.states, base.failures, base.actions,
                   list(base.rows) + zeros + [{"p": F(1, 3)}],
                   {s: [i + n * (k % 2) for k, i in enumerate(base.row_ids(s))]
                    for s in base.states},
                   base.valuation)
    reversed_table = Game(base.agents, base.states, base.failures, base.actions,
                          base.rows[::-1],
                          {s: [n - 1 - i for i in base.row_ids(s)] for s in base.states},
                          base.valuation)
    return base, [doubled, reversed_table]


def test_equal_games_write_equal_documents():
    base, others = same_game_other_tables()
    text = game_json(base)
    doc = json.loads(text)
    # 13 rows in the table, 9 distinct distributions: p's row for
    # (minus, plus) is ab's, and its row for (plus, plus) is f_t's
    assert len(base.rows) == 13 and len(doc["rows"]) == 9
    assert doc["row_ids"] == {"p": [0, 1, 2, 3, 4, 1, 3, 5, 6], "ab": [2] * 9,
                              "ba": [7] * 9, "f_c": [8] * 9, "f_t": [6] * 9}
    for game in others:
        assert game == base
        assert game_json(game) == text


def test_rows_numbered_by_first_use():
    # the table lists f's row before s's, the document s's before f's
    g = Game(("a",), ("s", "f"), ("f",), ("x", "y"),
             [{"f": F(1)}, {"s": F(1, 2), "f": F(1, 2)}],
             {"s": (1, 0), "f": (0, 0)}, {})
    doc = game_to_dict(g)
    assert doc["rows"] == [{"f": "1/2", "s": "1/2"}, {"f": "1"}]
    assert doc["row_ids"] == {"s": [0, 1], "f": [1, 1]}


def row_doc():
    """The overtake game's row form: 9 rows, states p, ab, ba, f_c and
    f_t, 9 ids each."""
    return game_to_dict(overtake_game())


def _set(path, value):
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return change


def _delete(path):
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return change


MALFORMED_ROW_FORMS = {
    "id-not-an-int": (_set(("row_ids", "p", 3), "1"), "/row_ids/p/3"),
    "id-a-bool": (_set(("row_ids", "p", 3), True), "/row_ids/p/3"),
    "id-a-float": (_set(("row_ids", "p", 3), 1.0), "/row_ids/p/3"),
    "id-past-the-end": (_set(("row_ids", "ba", 0), 9), "/row_ids/ba/0"),
    "id-negative": (_set(("row_ids", "p", 8), -1), "/row_ids/p/8"),
    "ids-too-short": (lambda doc: doc["row_ids"]["p"].pop(), "/row_ids/p/8"),
    "ids-too-long": (lambda doc: doc["row_ids"]["f_t"].append(0), "/row_ids/f_t/9"),
    "ids-not-a-list": (_set(("row_ids", "ab"), 0), "/row_ids/ab"),
    "state-without-ids": (_delete(("row_ids", "ab")), "/row_ids/ab"),
    "ids-of-an-unknown-state": (_set(("row_ids", "zz"), [0] * 9), "/row_ids/zz"),
    "row-ids-not-an-object": (_set(("row_ids",), [[0] * 9] * 5), "/row_ids"),
    "row-ids-missing": (_delete(("row_ids",)), "/row_ids"),
    "row-not-an-object": (_set(("rows", 1), [["ab", "1"]]), "/rows/1"),
    "row-value-a-float": (_set(("rows", 2, "ba"), 0.9), "/rows/2/ba"),
    "row-value-exponent": (_set(("rows", 2, "ba"), "9e-1"), "/rows/2/ba"),
    "rows-not-a-list": (_set(("rows",), {"0": {"ab": "1"}}), "/rows"),
    "unknown-format": (_set(("format",), "table"), "/format"),
    "transitions-in-the-row-form": (_set(("transitions",), []), "/transitions"),
    "rows-in-the-listed-form": (_delete(("format",)), "/rows"),
    "row-ids-in-the-listed-form": (
        lambda doc: [doc.pop(key) for key in ("format", "rows")], "/row_ids"),
}


@pytest.mark.parametrize("change, pointer", MALFORMED_ROW_FORMS.values(),
                         ids=MALFORMED_ROW_FORMS.keys())
def test_malformed_row_form_fails_at_its_pointer(change, pointer):
    doc = row_doc()
    change(doc)
    with pytest.raises(SchemaError, match=f"^{re.escape(pointer)}: "):
        game_from_dict(doc)


def test_bad_row_reported_under_every_key():
    """A row that sums to 1/2 breaks a rule, not the schema: every key
    that names it is reported, as for the listed form."""
    doc = row_doc()
    doc["rows"][1] = {"ab": "1/2"}
    listed = reference_game_to_dict(overtake_game())
    for entry in listed["transitions"]:
        if entry["to"] == {"ab": "9/10", "f_c": "1/10"}:
            entry["to"] = {"ab": "1/2"}
    violations = loaded(doc)
    assert violations == loaded(listed)
    assert violations == [
        f"row ('p', {profile!r}): probabilities sum to 1/2, expected 1"
        for profile in ({"a": "minus", "b": "zero"}, {"a": "zero", "b": "plus"})]


def test_killed_instance_prints_a_small_game(capsys):
    assert run(["decide", "--format", "json", "--formula", KILLED_INSTANCE]) == 1
    game = json.loads(capsys.readouterr().out)["game"]
    assert len(json.dumps(game)) < 32 * 1024
    assert game_from_dict(game) == decide_formula(parse(KILLED_INSTANCE)).game
