"""Batch command line front end.

Every subcommand binds one library operation over files and prints one
report, as human-readable text by default or as a single JSON object
with ``--format json``.  Exit codes: 0 means the queried property holds
(or the requested object was produced cleanly), 1 means it fails or was
refuted, 2 means the invocation or an input file was unusable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .canonical import CLOSURE_CAP, CanonicalError, audit_truth_lemma, build_canonical_game
from .decide import DecideError, Refuted, SearchBounds, decide_formula, incompleteness_demo
from .formula import TOP, Bot, Var, agents_of, closure, parse, render
from .game import Game, GameError, game_json, load
from .modelcheck import AUDIT_BUDGET, CheckError, audit_axiom_soundness, extent, holds, witness
from .proof import ProofError, SystemId, load_proof, verify


class _InputError(Exception):
    pass


def _closure_cap(text: str) -> int:
    """``--max-closure``: a nonnegative integer (0 sends every decide to
    the bounded search)."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {cap}")
    return cap


def _read_formula(args):
    # argparse requires exactly one of --formula and --formula-file
    if args.formula is not None:
        return parse(args.formula)
    try:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise _InputError(f"cannot read formula file: {e}")
    except UnicodeDecodeError as e:
        raise _InputError(f"cannot read formula file: not UTF-8 at byte {e.start}")


def _load_game(args):
    try:
        return load(args.game)
    except OSError as e:
        raise _InputError(f"cannot read game file: {e}")


def _emit(args, payload: dict, text_lines) -> None:
    # a payload carries a game as the Game itself: game_json writes it
    # from its row table, json.dumps writes every other value, and the
    # object reads as json.dumps of the payload with the game's document
    # in its place.  Text output renders no game
    if args.format == "json":
        print("{" + ", ".join(
            f"{json.dumps(key)}: "
            + (game_json(value) if isinstance(value, Game) else json.dumps(value))
            for key, value in payload.items()) + "}")
    else:
        for line in text_lines:
            print(line)


def _cmd_check(args) -> int:
    game = _load_game(args)
    f = _read_formula(args)
    value = holds(game, args.state, f)
    _emit(
        args,
        {"command": "check", "state": args.state, "formula": render(f), "holds": value},
        [f"{render(f)} at {args.state}: {str(value).lower()}"],
    )
    return 0 if value else 1


def _cmd_extent(args) -> int:
    game = _load_game(args)
    f = _read_formula(args)
    states = sorted(extent(game, f))
    _emit(
        args,
        {"command": "extent", "formula": render(f), "states": states},
        [f"{render(f)} holds at: {', '.join(states) if states else '(nowhere)'}"],
    )
    return 0


def _cmd_witness(args) -> int:
    game = _load_game(args)
    f = _read_formula(args)
    found = witness(game, args.state, f)
    if found is None:
        _emit(
            args,
            {"command": "witness", "state": args.state, "formula": render(f), "witness": None},
            [f"no witness: {render(f)} fails at {args.state}"],
        )
        return 1
    payload = {
        "command": "witness",
        "state": args.state,
        "formula": render(f),
        "witness": {
            "profile": found.profile.as_dict(),
            "guaranteed_survival": str(found.guaranteed_survival),
        },
    }
    _emit(
        args,
        payload,
        [
            f"witness profile: {found.profile.as_dict()}",
            f"guaranteed survival: {found.guaranteed_survival}",
        ],
    )
    return 0


def _cmd_verify_proof(args) -> int:
    try:
        derivation = load_proof(args.proof)
    except OSError as e:
        raise _InputError(f"cannot read proof file: {e}")
    if args.system is not None and derivation.system is not SystemId(args.system):
        raise _InputError(
            f"proof declares system {derivation.system.value},"
            f" expected {args.system}"
        )
    try:
        verify(derivation)
    except ProofError as e:
        _emit(
            args,
            {
                "command": "verify-proof",
                "ok": False,
                "line": e.line,
                "reason": e.reason,
            },
            [f"proof rejected at line {e.line}: {e.reason}"],
        )
        return 1
    _emit(
        args,
        {
            "command": "verify-proof",
            "ok": True,
            "system": derivation.system.value,
            "lines": len(derivation.lines),
            "conclusion": render(derivation.conclusion),
        },
        [f"proof verifies ({len(derivation.lines)} lines)"],
    )
    return 0


def _cmd_audit_soundness(args) -> int:
    game = _load_game(args)
    pool = [Var(v) for v in sorted(game.valuation)] + [TOP, Bot()]
    report = audit_axiom_soundness(
        game, pool, sample_budget=args.budget, seed=args.seed
    )
    payload = {
        "command": "audit-soundness",
        "instances": report.instances,
        "violations": report.violations,
        "necessitation_cases": report.necessitation_cases,
        "necessitation_violations": report.necessitation_violations,
        "clean": report.clean,
    }
    _emit(
        args,
        payload,
        [
            f"axiom instances checked: {report.instances}",
            f"violations: {len(report.violations)}",
            f"necessitation cases: {report.necessitation_cases}"
            f" (violations: {len(report.necessitation_violations)})",
        ],
    )
    return 0 if report.clean else 1


def _cmd_canonical(args) -> int:
    f = _read_formula(args)
    sigma = closure([f])
    game, diag = build_canonical_game(
        sigma, system=SystemId(args.system), cap=args.max_closure
    )
    audit = audit_truth_lemma(game, sigma, diag.sets)
    clean = audit.clean and not diag.guard_pairs
    payload = {
        "command": "canonical",
        "closure_size": len(sigma),
        "game": game,
        "diagnostics": diag.to_dict(),
        "truth_audit": {
            "checked": audit.checked,
            "disagreements": audit.disagreements,
        },
        "clean": clean,
    }
    _emit(
        args,
        payload,
        [
            f"closure size: {len(sigma)}",
            f"states: {diag.state_count} (+failure), actions: {diag.action_count}",
            f"guard pairs: {len(diag.guard_pairs)}",
            f"membership/truth disagreements: {len(audit.disagreements)}",
        ],
    )
    return 0 if clean else 1


def _cmd_decide(args) -> int:
    f = _read_formula(args)
    bounds = None
    if args.budget is not None:
        bounds = SearchBounds(
            agents=tuple(sorted(agents_of(f))) or ("a",), budget=args.budget
        )
    verdict = decide_formula(
        f,
        system=SystemId(args.system),
        bounds=bounds,
        seed=args.seed,
        cap=args.max_closure,
    )
    payload = verdict.fields() if isinstance(verdict, Refuted) else verdict.to_dict()
    payload.update({"command": "decide", "formula": render(f), "seed": args.seed})
    kind = payload["verdict"]
    if isinstance(verdict, Refuted):
        lines = [f"refuted at state {verdict.state} (countermodel attached in json format)"]
    elif kind == "valid-relative-to-oracle":
        lines = [
            "valid relative to the consistency oracle "
            f"({payload['state_count']} canonical states checked)"
        ]
    else:
        lines = [f"search exhausted after {payload['attempts']} games, no countermodel"]
    _emit(args, payload, lines)
    return 1 if isinstance(verdict, Refuted) else 0


def _cmd_demo_incompleteness(args) -> int:
    report = incompleteness_demo(args.n)
    payload = report.fields()
    payload["command"] = "demo-incompleteness"
    lines = [
        f"start-state one-step survival: {report.survival}",
    ]
    for entry in report.prefix:
        lines.append(f"  {entry['formula']}: {str(entry['holds']).lower()}")
    lines.append(f"  {report.limit_formula}: {str(report.limit_at_start).lower()}")
    lines.append(
        "every finite threshold prefix is satisfied while the limit claim fails"
        if report.gap_demonstrated
        else "gap NOT demonstrated"
    )
    _emit(args, payload, lines)
    return 0 if report.gap_demonstrated else 1


def _cmd_fmt(args) -> int:
    f = _read_formula(args)
    _emit(args, {"command": "fmt", "formula": render(f)}, [render(f)])
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged, since every call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="sgcl",
        description="workbench for probabilistic coalition logics over stochastic games",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def formula_opts(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula", help="formula text")
        group.add_argument("--formula-file", help="file containing one formula")

    def common_opts(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    systems = [s.value for s in SystemId]

    p = sub.add_parser("check", help="truth of a formula at a state")
    p.add_argument("--game", required=True)
    p.add_argument("--state", required=True)
    formula_opts(p)
    common_opts(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("extent", help="all non-failure states satisfying a formula")
    p.add_argument("--game", required=True)
    formula_opts(p)
    common_opts(p)
    p.set_defaults(fn=_cmd_extent)

    p = sub.add_parser("witness", help="committing profile for a true modality")
    p.add_argument("--game", required=True)
    p.add_argument("--state", required=True)
    formula_opts(p)
    common_opts(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("verify-proof", help="check a derivation file")
    p.add_argument("--proof", required=True)
    p.add_argument(
        "--system",
        choices=systems,
        default=None,
        help="require the proof to declare this system",
    )
    common_opts(p)
    p.set_defaults(fn=_cmd_verify_proof)

    p = sub.add_parser("audit-soundness", help="sample axiom instances on a game")
    p.add_argument("--game", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=AUDIT_BUDGET)
    common_opts(p)
    p.set_defaults(fn=_cmd_audit_soundness)

    p = sub.add_parser("canonical", help="build and audit the canonical game")
    formula_opts(p)
    p.add_argument("--system", choices=systems, default=SystemId.L.value)
    p.add_argument("--max-closure", type=_closure_cap, default=CLOSURE_CAP)
    common_opts(p)
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("decide", help="classify a formula or search for a countermodel")
    formula_opts(p)
    p.add_argument("--system", choices=systems, default=SystemId.L.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="bounded-search budget override")
    p.add_argument("--max-closure", type=_closure_cap, default=CLOSURE_CAP)
    common_opts(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser(
        "demo-incompleteness", help="threshold ladder where the limit claim fails"
    )
    p.add_argument("--n", type=int, required=True)
    common_opts(p)
    p.set_defaults(fn=_cmd_demo_incompleteness)

    p = sub.add_parser("fmt", help="parse and reprint a formula canonically")
    formula_opts(p)
    common_opts(p)
    p.set_defaults(fn=_cmd_fmt)

    return top


_INPUT_FAULTS = (
    _InputError,
    GameError,
    CanonicalError,
    CheckError,
    DecideError,
    ValueError,
)


def run(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _INPUT_FAULTS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the model checker recurses; the parser, render, hashing, == and
        # the tautology check do not
        print("error: formula nests too deeply", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull, so the
        # flush at shutdown cannot raise the same error again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written",
              file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
