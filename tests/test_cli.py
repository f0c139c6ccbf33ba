"""Command-line interface: exit codes, JSON payloads, input faults."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sgcl.cli
import sgcl.decide
import sgcl.game
from sgcl.canonical import audit_truth_lemma, build_canonical_game
from sgcl.cli import run
from sgcl.decide import Refuted, decide_formula, incompleteness_demo
from sgcl.formula import closure, parse
from sgcl.proof import (
    SystemId,
    build_coalition_weakening,
    build_lifted_implication,
    derivation_to_dict,
    Derivation,
    ProofLine,
    Tautology,
    save_proof,
)

from conftest import reference_row_table

ROOT = Path(__file__).resolve().parents[1]
GAMES = ROOT / "games"
LADDER = str(GAMES / "ladder1.json")
OVERTAKE = str(GAMES / "overtake.json")


def run_json(capsys, argv):
    """Run the CLI with --format json and return (exit code, payload)."""
    code = run(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


@pytest.fixture(scope="module")
def proof_files(tmp_path_factory):
    """A verifying proof, a sabotaged copy, and an L+ proof on disk."""
    root = tmp_path_factory.mktemp("proofs")
    imp = Derivation(
        SystemId.L, (ProofLine(parse("(v -> v)"), Tautology()),), None
    )
    lifted = build_lifted_implication(["a"], Fraction(1, 2), parse("v"), parse("v"), imp)
    good = root / "lifted.json"
    save_proof(lifted, good)

    doc = derivation_to_dict(lifted)
    doc["lines"][-1]["formula"] = "([a]_1/2 v -> [a]_1 v)"
    bad = root / "sabotaged.json"
    bad.write_text(json.dumps(doc))

    weak = build_coalition_weakening(
        ["a"], ["a", "b"], Fraction(1, 4), parse("v"), SystemId.LPLUS
    )
    plus = root / "weakening_plus.json"
    save_proof(weak, plus)
    return {"good": str(good), "bad": str(bad), "plus": str(plus)}


class TestCheck:
    def test_true_formula_exits_zero(self, capsys):
        code, doc = run_json(
            capsys, ["check", "--game", LADDER, "--state", "s",
                     "--formula", "[]_9/10 true"]
        )
        assert code == 0
        assert doc == {
            "command": "check",
            "state": "s",
            "formula": "[]_9/10 true",
            "holds": True,
        }

    def test_false_formula_exits_one(self, capsys):
        code, doc = run_json(
            capsys, ["check", "--game", LADDER, "--state", "s",
                     "--formula", "[]_1 true"]
        )
        assert code == 1
        assert doc["holds"] is False

    def test_text_format_is_human_line(self, capsys):
        code = run(["check", "--game", LADDER, "--state", "s",
                    "--formula", "[]_1 true"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "[]_1 true at s: false"

    def test_failure_state_is_input_error(self, capsys):
        code = run(["check", "--game", LADDER, "--state", "f", "--formula", "v"])
        assert code == 2
        assert "failure" in capsys.readouterr().err.lower()

    def test_unknown_state_is_input_error(self):
        assert run(["check", "--game", LADDER, "--state", "zz", "--formula", "v"]) == 2

    @pytest.mark.parametrize("survive, fail", [("1", "0e-2000000"),
                                               ("9E-1", "1e-1")])
    def test_exponent_probability_is_input_error(self, tmp_path, capsys,
                                                 survive, fail):
        doc = json.loads(Path(LADDER).read_text())
        row = next(r for r in doc["transitions"] if r["from"] == "s")
        row["to"] = {"t": survive, "f": fail}
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc))
        code = run(["check", "--game", str(path), "--state", "s",
                    "--formula", "[]_9/10 true"])
        assert code == 2
        assert "exponent notation is rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("layout, message", [
        ({"agents": ["a", "a"]}, "duplicate entries in agents"),
        ({"actions": []}, "action domain is empty"),
    ], ids=["repeated-agent", "no-actions"])
    def test_bad_layout_is_reported_alone(self, tmp_path, capsys, layout, message):
        doc = {"agents": ["a"], "states": ["s"], "failures": [], "actions": ["x"],
               "transitions": [{"from": "s", "profile": {"a": "x"}, "to": {"s": "1"}}],
               "valuation": {}}
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(dict(doc, **layout)))
        code = run(["check", "--game", str(path), "--state", "s", "--formula", "v"])
        assert code == 2
        assert capsys.readouterr().err == f"error: invalid game: {message}\n"

    def test_missing_game_file_is_input_error(self, capsys):
        code = run(["check", "--game", "no_such.json", "--state", "s",
                    "--formula", "v"])
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_unparseable_formula_is_input_error(self):
        assert run(["check", "--game", LADDER, "--state", "s",
                    "--formula", "[a]_3 v"]) == 2

    def test_formula_file_alternative(self, capsys, tmp_path):
        src = tmp_path / "f.txt"
        src.write_text("[]_9/10 true\n")
        code, doc = run_json(
            capsys, ["check", "--game", LADDER, "--state", "s",
                     "--formula-file", str(src)]
        )
        assert code == 0 and doc["holds"] is True

    def test_formula_and_file_together_rejected(self, tmp_path):
        src = tmp_path / "f.txt"
        src.write_text("v")
        assert run(["check", "--game", LADDER, "--state", "s",
                    "--formula", "v", "--formula-file", str(src)]) == 2

    def test_jobs_flag_is_rejected(self):
        assert run(["check", "--game", LADDER, "--state", "s",
                    "--formula", "[]_9/10 true", "--jobs", "4"]) == 2


class TestExtent:
    def test_lists_sorted_satisfying_states(self, capsys):
        code, doc = run_json(
            capsys, ["extent", "--game", OVERTAKE,
                     "--formula", "[a,b]_9/10 passed"]
        )
        assert code == 0
        assert doc["states"] == ["ba", "p"]
        assert doc["states"] == sorted(doc["states"])

    def test_empty_extent_still_exits_zero(self, capsys):
        code, doc = run_json(
            capsys, ["extent", "--game", LADDER, "--formula", "false"]
        )
        assert code == 0
        assert doc["states"] == []

    def test_absorbing_state_keeps_certain_survival(self, capsys):
        code, doc = run_json(
            capsys, ["extent", "--game", LADDER, "--formula", "[]_1 true"]
        )
        assert code == 0
        assert doc["states"] == ["t"]

    def test_foreign_agents_on_a_failure_only_game(self, tmp_path, capsys):
        # no state is checked, so the formula's agents are checked first
        path = tmp_path / "failure-only.json"
        path.write_text(json.dumps({
            "agents": ["a"], "states": ["f"], "failures": ["f"], "actions": ["x"],
            "transitions": [{"from": "f", "profile": {"a": "x"}, "to": {"f": "1"}}],
            "valuation": {}}))
        assert run(["extent", "--game", str(path), "--formula", "[zz]_1 v"]) == 2
        assert ("formula names agents outside the game: ['zz']"
                in capsys.readouterr().err)


class TestWitness:
    def test_found_witness_reports_profile_and_survival(self, capsys):
        code, doc = run_json(
            capsys, ["witness", "--game", OVERTAKE, "--state", "p",
                     "--formula", "[a,b]_9/10 passed"]
        )
        assert code == 0
        w = doc["witness"]
        assert set(w["profile"]) == {"a", "b"}
        assert Fraction(w["guaranteed_survival"]) >= Fraction(9, 10)

    def test_no_witness_exits_one(self, capsys):
        code = run(["witness", "--game", OVERTAKE, "--state", "p",
                    "--formula", "[a,b]_1 passed"])
        assert code == 1
        assert "no witness" in capsys.readouterr().out


class TestVerifyProof:
    def test_good_proof_exits_zero(self, capsys, proof_files):
        code, doc = run_json(capsys, ["verify-proof", "--proof", proof_files["good"]])
        assert code == 0
        assert doc["ok"] is True
        assert doc["system"] == "L"
        assert doc["conclusion"] == "([a]_1/2 v -> [a]_1/2 v)"

    def test_sabotaged_proof_reports_offending_line(self, capsys, proof_files):
        code, doc = run_json(capsys, ["verify-proof", "--proof", proof_files["bad"]])
        assert code == 1
        assert doc["ok"] is False
        assert doc["line"] == 3
        assert doc["reason"]

    def test_system_cross_check_accepts_match(self, capsys, proof_files):
        code, doc = run_json(
            capsys, ["verify-proof", "--proof", proof_files["plus"], "--system", "L+"]
        )
        assert code == 0 and doc["system"] == "L+"

    def test_system_cross_check_rejects_mismatch(self, proof_files):
        assert run(["verify-proof", "--proof", proof_files["plus"],
                    "--system", "L"]) == 2

    def test_malformed_proof_json_is_input_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text('{"lines": "nope"}')
        assert run(["verify-proof", "--proof", str(path)]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"agents": []}, "error: system is missing"),
        ({"system": 1, "mode": "theorem", "lines": []}, "error: system must be a string"),
        ({"system": "K", "mode": "theorem", "lines": []}, "error: unknown system 'K'"),
    ], ids=["missing", "not-a-string", "unknown"])
    def test_proof_system_is_named(self, tmp_path, capsys, doc, message):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        assert run(["verify-proof", "--proof", str(path)]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_missing_proof_file_is_input_error(self):
        assert run(["verify-proof", "--proof", "absent.json"]) == 2

    def test_non_string_assumption_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "assume.json"
        path.write_text(json.dumps(
            {"system": "L", "mode": {"assumptions": [1]}, "lines": []}
        ))
        assert run(["verify-proof", "--proof", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: assumptions must be formula strings"
        )

    def test_empty_theorem_proof_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"system": "L", "mode": "theorem", "lines": []}))
        assert run(["verify-proof", "--proof", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: empty derivation has no conclusion"
        )

    def test_import_of_empty_derivation_is_rejected_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "import.json"
        path.write_text(json.dumps({
            "system": "L",
            "mode": {"assumptions": []},
            "lines": [{"formula": "(v -> v)", "rule": "import:x"}],
            "imports": {"x": {"system": "L", "mode": "theorem", "lines": []}},
        }))
        code, doc = run_json(capsys, ["verify-proof", "--proof", str(path)])
        assert code == 1
        assert doc["line"] == 0
        assert doc["reason"] == "import 'x' is an empty derivation"

    @pytest.mark.parametrize(
        "negations, code, reason",
        [(3000, 0, None), (3001, 1, "not a propositional tautology")],
    )
    def test_deep_tautology_line(self, tmp_path, capsys, negations, code, reason):
        text = "~" * negations + "(v -> v)"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "system": "L",
            "mode": "theorem",
            "lines": [{"formula": text, "rule": "taut"}],
        }))
        got, doc = run_json(capsys, ["verify-proof", "--proof", str(path)])
        assert got == code
        assert doc["ok"] is (code == 0)
        assert doc.get("reason") == reason


    def test_deep_modus_ponens(self, tmp_path, capsys):
        # mp compares the antecedent of (D -> v), parsed within it, with
        # the separately parsed D, 3000 negations deep
        deep = "~" * 3000 + "v"
        path = tmp_path / "deep-mp.json"
        path.write_text(json.dumps({
            "system": "L",
            "mode": {"assumptions": [deep, f"({deep} -> v)"]},
            "lines": [{"formula": deep, "rule": "assume"},
                      {"formula": f"({deep} -> v)", "rule": "assume"},
                      {"formula": "v", "rule": "mp:0,1"}],
        }))
        assert run(["verify-proof", "--proof", str(path)]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == ("proof verifies (3 lines)\n", "")


class TestAuditSoundness:
    def test_clean_audit_exits_zero(self, capsys):
        code, doc = run_json(
            capsys, ["audit-soundness", "--game", OVERTAKE,
                     "--budget", "80", "--seed", "3"]
        )
        assert code == 0
        assert doc["violations"] == []
        assert doc["instances"] == 80
        assert doc["necessitation_violations"] == []

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_budget_must_be_positive(self, capsys, budget):
        code = run(["audit-soundness", "--game", OVERTAKE, "--budget", budget])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: budget must be positive"


class TestCanonical:
    def test_positive_threshold_closure_is_clean(self, capsys):
        code, doc = run_json(capsys, ["canonical", "--formula", "[a]_1/2 v"])
        assert code == 0
        assert doc["clean"] is True
        assert doc["truth_audit"]["disagreements"] == []
        assert doc["diagnostics"]["guard_pairs"] == []
        states = doc["game"]["states"]
        assert len(states) == 5 and "f" in states

    def test_zero_threshold_closure_reports_disagreements(self, capsys):
        code, doc = run_json(capsys, ["canonical", "--formula", "[a]_0 v"])
        assert code == 1
        assert doc["clean"] is False
        bad = doc["truth_audit"]["disagreements"]
        assert bad
        assert all("[a]_0 v" in entry["formula"] for entry in bad)

    def test_plus_system_rejects_empty_coalition(self):
        assert run(["canonical", "--formula", "[]_1/2 v", "--system", "L+"]) == 2

    def test_closure_cap_is_input_error(self):
        assert run(["canonical", "--formula", "[a]_1/2 (v -> [b]_1/4 u)",
                    "--max-closure", "3"]) == 2

    def test_negative_closure_cap_is_usage_error(self, capsys):
        assert run(["canonical", "--formula", "v", "--max-closure", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-closure: must be nonnegative" in captured.err


class TestDecide:
    def test_valid_formula_exits_zero(self, capsys):
        code, doc = run_json(capsys, ["decide", "--formula", "(v -> v)"])
        assert code == 0
        assert doc["verdict"] == "valid-relative-to-oracle"
        assert doc["closure_size"] == 4

    def test_refutable_formula_exits_one_with_game(self, capsys):
        code, doc = run_json(capsys, ["decide", "--formula", "[a]_1/2 v"])
        assert code == 1
        assert doc["verdict"] == "refuted"
        assert doc["state"] in doc["game"]["states"]

    def test_exhausted_search_exits_zero(self, capsys):
        formula = ("([a]_1/2 ([a]_1/2 ([a]_1/2 ([a]_1/2 v -> v) -> v) -> v)"
                   " -> [a]_1/2 ([a]_1/2 ([a]_1/2 ([a]_1/2 v -> v) -> v) -> v))")
        code, doc = run_json(
            capsys, ["decide", "--formula", formula,
                     "--max-closure", "4", "--budget", "25"]
        )
        assert code == 0
        assert doc["verdict"] == "exhausted"
        assert doc["attempts"] == 25

    def test_seed_is_echoed(self, capsys):
        code, doc = run_json(
            capsys, ["decide", "--formula", "(v -> v)", "--seed", "11"]
        )
        assert code == 0 and doc["seed"] == 11

    def test_payload_is_reproducible(self, capsys):
        # the payload holds no timing, so the seed fixes every byte of it
        argv = ["decide", "--formula", "[a]_1/2 v", "--format", "json"]
        outputs = []
        for _ in range(2):
            assert run(argv) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert set(json.loads(outputs[0])) == {
            "verdict", "state", "game", "command", "formula", "seed"}

    def test_negative_closure_cap_is_usage_error(self, capsys):
        assert run(["decide", "--formula", "v", "--max-closure", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --max-closure: must be nonnegative" in captured.err

    def test_negative_budget_is_input_error(self, capsys):
        for budget in ("-1", "0"):
            assert run(["decide", "--formula", "v", "--budget", budget]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip() == "error: budget must be positive"


class TestDemoIncompleteness:
    def test_depth_three_report(self, capsys):
        code, doc = run_json(capsys, ["demo-incompleteness", "--n", "3"])
        assert code == 0
        assert doc["survival"] == "999/1000"
        assert [e["holds"] for e in doc["prefix"]] == [True] * 4
        assert doc["limit"]["formula"] == "[]_1 true"
        assert doc["limit"]["holds_at_start"] is False
        assert doc["limit"]["holds_at_absorbing"] is True
        assert doc["gap_demonstrated"] is True

    def test_out_of_range_depth_is_input_error(self, capsys):
        assert run(["demo-incompleteness", "--n", "44"]) == 2
        assert capsys.readouterr().err.strip()


class TestFmt:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("~~(v->false)", "~~(v -> false)"),
            ("[ b , a ]_2/4 v", "[a,b]_1/2 v"),
            ("[]_1true", "[]_1 true"),
        ],
    )
    def test_normalizes_spacing_and_fractions(self, capsys, raw, expected):
        code = run(["fmt", "--formula", raw])
        assert code == 0
        assert capsys.readouterr().out.strip() == expected

    def test_bad_formula_exits_two(self):
        assert run(["fmt", "--formula", "(v ->"]) == 2

    @pytest.mark.parametrize("prefix", ["~", "[a]_1 "])
    def test_deep_prefix_chain_prints_back(self, capsys, prefix):
        text = prefix * 3000 + "v"
        code, doc = run_json(capsys, ["fmt", "--formula", text])
        assert code == 0
        assert doc == {"command": "fmt", "formula": text}

    def test_deep_parentheses_print_the_body(self, capsys):
        assert run(["fmt", "--formula", "(" * 3000 + "v" + ")" * 3000]) == 0
        assert capsys.readouterr().out == "v\n"

    def test_formula_file_is_parsed_as_read(self, capsys, tmp_path):
        """Only ASCII blanks separate tokens in a formula file, as on the
        command line, and an error's position counts the leading blanks."""
        src = tmp_path / "f.txt"
        src.write_text("\u2003v\u2003", encoding="utf-8")
        assert run(["fmt", "--formula-file", str(src)]) == 2
        from_file = capsys.readouterr().err
        assert run(["fmt", "--formula", "\u2003v\u2003"]) == 2
        assert from_file == capsys.readouterr().err == (
            "error: unexpected character '\\u2003' (at position 0)\n")
        src.write_text("   p q\n")
        assert run(["fmt", "--formula-file", str(src)]) == 2
        assert capsys.readouterr().err == (
            "error: unexpected trailing token 'q' (at position 5)\n")


class TestOverlongLiterals:
    """A probability or subscript too long for ``Fraction`` is an input
    error with a short message."""

    def test_game_file_probability(self, tmp_path, capsys):
        doc = json.loads(Path(LADDER).read_text())
        doc["transitions"][0]["to"] = {"f": "1" * 5000}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--game", str(path), "--state", "s",
                    "--formula", "v"]) == 2
        err = capsys.readouterr().err
        assert "longer than the 4300 allowed" in err and len(err) < 200

    def test_formula_subscript(self, capsys):
        assert run(["fmt", "--formula", "[a]_1/" + "1" * 5000 + " v"]) == 2
        err = capsys.readouterr().err
        assert "longer than the 4300 allowed" in err and len(err) < 200

    def test_out_of_range_subscript(self, capsys):
        assert run(["fmt", "--formula", "[a]_" + "9" * 4290 + " v"]) == 2
        err = capsys.readouterr().err
        assert "outside [0, 1]" in err and len(err) < 200

    def test_game_file_row_sum(self, tmp_path, capsys):
        doc = json.loads(Path(LADDER).read_text())
        doc["transitions"][0]["to"] = {"f": "1/" + "3" * 2000}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--game", str(path), "--state", "s",
                    "--formula", "v"]) == 2
        err = capsys.readouterr().err
        assert "sum to 1/3333" in err and len(err) < 200

    @pytest.mark.parametrize("argv, message", [
        (["check", "--state", "s", "--formula", "v", "--game"],
         "error: /: not valid JSON: integer of 5000 characters is longer than"
         " the 4300 allowed"),
        (["verify-proof", "--proof"],
         "error: not valid JSON: integer of 5000 characters is longer than"
         " the 4300 allowed"),
    ], ids=["game", "proof"])
    def test_json_integer(self, tmp_path, capsys, argv, message):
        # an integer too long for int() on its own is a file error, not
        # the interpreter's digit-limit advice
        path = tmp_path / "long.json"
        path.write_text('{"agents": ' + "1" * 5000 + "}")
        assert run(argv + [str(path)]) == 2
        assert capsys.readouterr().err.strip() == message


class TestNotUtf8:
    """A game, proof or formula file that is not UTF-8 is an input error
    naming the byte offset of the first bad byte, not the codec's own
    message."""

    # the 0xff stands at byte 15 and character 14: the é before it takes
    # two bytes
    DOC = '{"agents": ["é'.encode() + b'\xff"]}'

    @pytest.mark.parametrize("argv, message", [
        (["check", "--state", "s", "--formula", "v", "--game"],
         "error: /: not valid JSON: not UTF-8 at byte 15"),
        (["verify-proof", "--proof"],
         "error: not valid JSON: not UTF-8 at byte 15"),
        (["fmt", "--formula-file"],
         "error: cannot read formula file: not UTF-8 at byte 15"),
    ], ids=["game", "proof", "formula"])
    def test_offset_is_reported(self, tmp_path, capsys, argv, message):
        path = tmp_path / "bad"
        path.write_bytes(self.DOC)
        assert run(argv + [str(path)]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_offset_counts_from_the_start_of_a_long_file(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_bytes(b'{"agents": ["' + b"a" * 20000 + b'\xff"]}')
        assert run(["verify-proof", "--proof", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: not valid JSON: not UTF-8 at byte 20013")


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        assert run([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_missing_required_flag_is_usage_error(self):
        assert run(["check", "--state", "s", "--formula", "v"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "--formula", "~" * 3000 + "v"],
            ["check", "--game", LADDER, "--state", "s",
             "--formula", "~" * 3000 + "v"],
        ],
        ids=["decide", "check"],
    )
    def test_deep_nesting_is_input_error(self, capsys, argv):
        assert run(argv) == 2
        assert capsys.readouterr().err.strip() == "error: formula nests too deeply"

    def test_deep_implication_chain_prints(self, capsys):
        # render keeps the chain's right operands on an explicit stack
        assert run(["fmt", "--formula", "v -> " * 3000 + "v"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "(v -> " * 3000 + "v" + ")" * 3000 + "\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--state", "s", "--formula", "v", "--game"],
             "error: /: document nests too deeply"),
            (["verify-proof", "--proof"], "error: document nests too deeply"),
        ],
        ids=["game", "proof"],
    )
    def test_deeply_nested_document_is_input_error(self, tmp_path, capsys,
                                                   argv, message):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        assert run(argv + [str(path)]) == 2
        assert capsys.readouterr().err.strip() == message


# a JSON call then a text call, a budget then none, and usage errors in
# between: no option or default may carry over from one call to the next
PARSER_SEQUENCE = [
    ["fmt", "--formula", "[a]_1/2 v", "--format", "json"],
    ["fmt", "--formula", "[a]_1/2 v"],
    ["decide", "--formula", "v -> v", "--max-closure", "1", "--budget", "5"],
    ["check", "--state", "s", "--formula", "v"],
    ["decide", "--formula", "v -> v", "--max-closure", "1"],
    ["check", "--game", LADDER, "--state", "s", "--formula", "[]_1/2 true",
     "--format", "json"],
    ["frobnicate"],
    ["check", "--game", LADDER, "--state", "s", "--formula", "[]_1 true"],
    ["audit-soundness", "--game", LADDER, "--budget", "3", "--format", "json"],
    ["audit-soundness", "--game", LADDER, "--budget", "4"],
]


class TestParserBuiltOnce:
    """``run`` builds its parser on the first call and reuses it, with the
    same output and exit codes as a parser built afresh for every call."""

    def outputs(self, capsys):
        results = []
        for argv in PARSER_SEQUENCE:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_same_results_as_a_fresh_parser_per_call(self, capsys, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(sgcl.cli, "_build_parser", sgcl.cli._build_parser.__wrapped__)
            fresh = self.outputs(capsys)
        sgcl.cli._build_parser.cache_clear()
        reused = self.outputs(capsys)
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 0, 2, 1, 0, 0]
        assert "after 5 games" in fresh[2][1]
        assert "after 5 games" not in fresh[4][1]
        assert json.loads(fresh[8][1])["instances"] == 3
        assert fresh[9][1].startswith("axiom instances checked: 4\n")

    def test_parser_built_once(self, capsys):
        sgcl.cli._build_parser.cache_clear()
        self.outputs(capsys)
        info = sgcl.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(PARSER_SEQUENCE) - 1)


class TestClosedStdout:
    """A reader that closes stdout early ends ``sgcl`` in exit 2 with one
    ``error:`` line, not a traceback and exit 1, which means "refuted"."""

    @pytest.mark.parametrize("argv", [
        # a short text report, left in the buffer until the flush at exit
        ["decide", "--formula", "[a]_1/2 v"],
        # a JSON countermodel of about 400 KB, far over the 8 KB stdout
        # buffer, so the write fails inside print
        ["decide", "--format", "json", "--formula",
         "([a0,a1,a2,a3,a4,a5]_1/2 v -> [a0]_1/2 [a0,a1,a2,a3,a4,a5]_1 u)"],
    ])
    def test_exit_2_with_one_error_line(self, argv):
        # the read end is closed before the child starts, so its first
        # write to stdout fails, whatever the timing
        read, write = os.pipe()
        os.close(read)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        try:
            done = subprocess.run([sys.executable, "-m", "sgcl.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write)
        err = done.stderr.decode()
        assert done.returncode == 2, err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("error: ")


KILLED_INSTANCE = "(([a]_1/2 u -> [b]_1/2 v) -> ([a,b]_1/2 (u -> w) -> [a]_0 (v -> w)))"
EXHAUSTING = ("([a]_1/2 ([a]_1/2 ([a]_1/2 ([a]_1/2 v -> v) -> v) -> v)"
              " -> [a]_1/2 ([a]_1/2 ([a]_1/2 ([a]_1/2 v -> v) -> v) -> v))")


class TestPrintedGames:
    """The routes that print a game write ``json.dumps`` of their payload
    with the reference document in the game's place, byte for byte; text
    output renders no game."""

    def json_out(self, capsys, argv):
        code = run(list(argv) + ["--format", "json"])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("text, code", [
        ("[a]_1/2 v", 1),
        (KILLED_INSTANCE, 1),
        ("(v -> v)", 0),
    ])
    def test_decide_on_the_canonical_route(self, capsys, text, code):
        verdict = decide_formula(parse(text))
        expected = verdict.to_dict()
        if isinstance(verdict, Refuted):
            expected["game"] = reference_row_table(verdict.game)
        expected.update({"command": "decide", "formula": text, "seed": 0})
        assert self.json_out(capsys, ["decide", "--formula", text]) == (
            code, json.dumps(expected) + "\n")

    def test_decide_exhausted(self, capsys):
        verdict = decide_formula(parse(EXHAUSTING), cap=4, budget=25)
        expected = {**verdict.to_dict(),
                    "command": "decide", "formula": EXHAUSTING, "seed": 0}
        assert expected["verdict"] == "exhausted"
        got = self.json_out(capsys, ["decide", "--formula", EXHAUSTING,
                                     "--max-closure", "4", "--budget", "25"])
        assert got == (0, json.dumps(expected) + "\n")

    @pytest.mark.parametrize("text", ["[a]_1/2 v", "([a]_1/2 v -> [a,b]_3/4 v)"])
    def test_canonical(self, capsys, text):
        sigma = closure([parse(text)])
        game, diag = build_canonical_game(sigma)
        audit = audit_truth_lemma(game, sigma, diag.sets)
        clean = audit.clean and not diag.guard_pairs
        expected = {
            "command": "canonical",
            "closure_size": len(sigma),
            "game": reference_row_table(game),
            "diagnostics": diag.to_dict(),
            "truth_audit": {"checked": audit.checked,
                            "disagreements": audit.disagreements},
            "clean": clean,
        }
        assert self.json_out(capsys, ["canonical", "--formula", text]) == (
            0 if clean else 1, json.dumps(expected) + "\n")

    def test_demo_incompleteness(self, capsys):
        report = incompleteness_demo(3)
        expected = {**report.to_dict(), "game": reference_row_table(report.game),
                    "command": "demo-incompleteness"}
        assert self.json_out(capsys, ["demo-incompleteness", "--n", "3"]) == (
            0, json.dumps(expected) + "\n")

    @pytest.mark.parametrize("argv", [
        ["decide", "--formula", "[a]_1/2 v"],
        ["canonical", "--formula", "[a]_1/2 v"],
        ["demo-incompleteness", "--n", "3"],
    ], ids=["decide", "canonical", "demo-incompleteness"])
    def test_text_output_renders_no_game(self, capsys, monkeypatch, argv):
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        spy(sgcl.cli, "game_json")
        spy(sgcl.game, "game_json")
        spy(sgcl.decide, "game_to_dict")
        assert run(argv) in (0, 1)
        assert "{" not in capsys.readouterr().out
        assert calls == []
        # the spies are in place: JSON output renders the game once
        assert run(argv + ["--format", "json"]) in (0, 1)
        capsys.readouterr()
        assert calls == ["game_json"]
