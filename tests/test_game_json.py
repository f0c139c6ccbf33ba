"""The one game writer against the dict-built reference: ``game_json``,
``game_to_dict`` and ``save`` write what ``json`` writes for
``reference_game_to_dict``, on every game the package builds and on
hand-built games whose names need escapes."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sgcl.canonical import build_canonical_game
from sgcl.decide import Refuted, SearchBounds, decide_formula, sample_game
from sgcl.formula import closure, parse
from sgcl.game import (
    Game,
    game_json,
    game_to_dict,
    load,
    overtake_game,
    save,
    survival_ladder,
)

from conftest import acceptance_corpus, reference_game_to_dict

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def assert_written_as_reference(games, path):
    """Each game's text and dict equal the reference's; ``save`` of the
    game with the most rows writes the reference's indented text (a file
    per game would cost more than the rest of the check)."""
    games = list(games)
    assert games
    for game in games:
        reference = reference_game_to_dict(game)
        assert game_json(game) == json.dumps(reference)
        assert game_to_dict(game) == reference
    largest = max(games, key=lambda g: len(g.rows))
    save(largest, path)
    expected = json.dumps(reference_game_to_dict(largest), indent=2) + "\n"
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
        (sample_game(random.Random(seed), SearchBounds()) for seed in range(50)),
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
    rows = [t["to"] for t in game_to_dict(escaped_game())["transitions"]]
    assert {LINE_SEPARATOR: "1"} in rows
