"""Seeded inputs and answer checks for the four benchmark workloads.

A workload turns a seed into a fixed-size list of requests.  Each request
is the argv of one ``sgcl`` invocation plus a check that judges the
answer.  The program only ever sees formula text and the game or proof
files written into the run's work directory.

Where the right answer cannot be derived from the input alone, it comes
from a pool recorded by ``record.py`` (files under ``data/``); a seed then
picks and orders pool entries.  Checks run outside the timed region.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"

VERDICTS = ("refuted", "valid-relative-to-oracle", "exhausted")

# The decide that ROADMAP.md names as the canonical-route hot spot
# (16-formula closure, 134 096 rows, about 30 s) and the 24-formula
# closure that did not finish within ten minutes.  Both stay in every
# decide-coalition pass.
COOPERATION_INSTANCE = "([a]_1/2 (v -> u) -> ([b]_1/4 v -> [a,b]_1/2 u))"
KILLED_INSTANCE = "(([a]_1/2 u -> [b]_1/2 v) -> ([a,b]_1/2 (u -> w) -> [a]_0 (v -> w)))"


@dataclass
class Request:
    argv: list
    # (exit code, captured stdout) -> None when the answer is right,
    # otherwise a message saying what is wrong
    check: Callable[[int, str], Optional[str]]
    # overrides the workload's deadline
    deadline_s: Optional[float] = None
    # never ends at the baseline commit, so it always runs into its
    # deadline; such requests come last in a pass, and the peak memory is
    # read before them, so that no memory figure comes from a build a
    # deadline cut off
    runs_to_deadline: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float
    generate: Callable  # (seed, workdir) -> list of Request


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_data(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def stratified_pick(pool, count, cost) -> list:
    """The middle entry of each of ``count`` equal strata of the pool
    ordered by recorded cost: the same entries on every seed.  Recorded
    costs are single timings on a noisy host, so entries of one stratum
    can differ by half; where a pass has few requests, its median and
    tail sit on single entries, and drawing them by seed would make those
    figures vary with the seed rather than with the program."""
    ordered = sorted(pool, key=cost)
    bounds = [len(ordered) * i // count for i in range(count + 1)]
    return [ordered[(lo + hi) // 2] for lo, hi in zip(bounds, bounds[1:])]


def write_json(path: Path, doc) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# formula text


def corpus_texts(connectives: int = 3) -> list:
    """The acceptance corpus as canonical text: one variable v, coalitions
    [] and [a], subscripts 0, 1/2, 1, at most ``connectives`` connectives,
    in the order tests/test_acceptance.py builds it (793 formulas for 3)."""
    subs = ("0", "1/2", "1")
    coals = ("", "a")
    layers = [["v"]]
    for k in range(1, connectives + 1):
        layer = []
        for f in layers[k - 1]:
            layer.append("~" + f)
            for c in coals:
                for p in subs:
                    layer.append(f"[{c}]_{p} {f}")
        for i in range(k):
            for a in layers[i]:
                for b in layers[k - 1 - i]:
                    layer.append(f"({a} -> {b})")
        layers.append(layer)
    return [f for layer in layers for f in layer]


def random_text(rng, depth, coalitions, subscripts, variables, p_leaf=0.2):
    """A random formula in canonical text over the given vocabulary."""
    if depth == 0 or rng.random() < p_leaf:
        return rng.choice(variables)
    k = rng.random()
    if k < 0.15:
        return "~" + random_text(rng, depth - 1, coalitions, subscripts, variables, p_leaf)
    if k < 0.55:
        left = random_text(rng, depth - 1, coalitions, subscripts, variables, p_leaf)
        right = random_text(rng, depth - 1, coalitions, subscripts, variables, p_leaf)
        return f"({left} -> {right})"
    c = ",".join(sorted(rng.choice(coalitions)))
    p = rng.choice(subscripts)
    return f"[{c}]_{p} " + random_text(rng, depth - 1, coalitions, subscripts, variables, p_leaf)


# ---------------------------------------------------------------------------
# checks


@functools.cache
def has_obvious_proof(text: str) -> bool:
    """Whether a one-step theorem-mode derivation of the formula (a
    tautology or axiom line, coalition weakening, or the threshold-zero
    lift of either) passes the proof kernel.  These are the shapes the
    acceptance test never lets ``classify`` refute."""
    from sgcl.formula import parse

    return _obvious_proof(parse(text)) is not None


def _obvious_proof(f):
    from sgcl.formula import Coal, Impl
    from sgcl.proof import (
        AxCooperation,
        AxFalsehood,
        AxMonotonicity,
        Derivation,
        Necessitation,
        ProofError,
        ProofLine,
        SystemId,
        Tautology,
        build_coalition_weakening,
        verify,
    )

    for rule in (Tautology(), AxCooperation(), AxMonotonicity(), AxFalsehood()):
        d = Derivation(SystemId.L, (ProofLine(f, rule),))
        try:
            verify(d)
            return d
        except (ProofError, ValueError):
            pass
    if (
        isinstance(f, Impl)
        and isinstance(f.left, Coal)
        and isinstance(f.right, Coal)
        and f.left.body == f.right.body
        and f.left.p == f.right.p
        and f.left.coalition <= f.right.coalition
    ):
        return build_coalition_weakening(
            f.left.coalition, f.right.coalition, f.left.p, f.left.body
        )
    if isinstance(f, Coal) and f.p == 0:
        sub = _obvious_proof(f.body)
        if sub is not None:
            d = Derivation(
                SystemId.L,
                sub.lines + (ProofLine(f, Necessitation(len(sub.lines) - 1)),),
            )
            verify(d)
            return d
    return None


def recheck_countermodel(text: str, payload: dict) -> Optional[str]:
    """Rebuild the attached game from its JSON, validate it, and confirm
    with a fresh model-checker call that the formula fails at the state."""
    from sgcl.formula import parse
    from sgcl.game import game_from_dict, validate
    from sgcl.modelcheck import holds

    game = game_from_dict(payload["game"])
    problems = validate(game)
    if problems:
        return f"countermodel does not validate: {problems[0]}"
    state = payload["state"]
    if state not in game.states or state in game.failures:
        return f"countermodel state {state!r} is not a non-failure state"
    if holds(game, state, parse(text)):
        return f"formula holds at countermodel state {state!r}"
    return None


def decide_check(text: str, expected: Optional[str]):
    """Check of one ``decide --format json`` answer.  ``expected`` is the
    verdict recorded at the baseline commit, or None where none was."""

    def check(rc: int, out: str) -> Optional[str]:
        payload = json.loads(out)
        verdict = payload.get("verdict")
        if verdict not in VERDICTS:
            return f"unknown verdict {verdict!r}"
        if rc != (1 if verdict == "refuted" else 0):
            return f"exit code {rc} for verdict {verdict}"
        if payload.get("formula") != text:
            return f"payload names formula {payload.get('formula')!r}"
        if expected is not None and verdict != expected:
            return f"verdict {verdict}, recorded {expected}"
        if verdict == "refuted":
            if has_obvious_proof(text):
                return "refuted a formula whose proof the kernel verifies"
            return recheck_countermodel(text, payload)
        return None

    return check


def payload_check(rc_expected: int, expected: dict):
    """Exit code and JSON payload equal to the expected ones."""

    def check(rc: int, out: str) -> Optional[str]:
        if rc != rc_expected:
            return f"exit code {rc}, expected {rc_expected}"
        payload = json.loads(out)
        if payload != expected:
            return f"payload {payload!r} differs from {expected!r}"
        return None

    return check


def exit_check(rc_expected: int):
    def check(rc: int, out: str) -> Optional[str]:
        if rc != rc_expected:
            return f"exit code {rc}, expected {rc_expected}"
        return None

    return check


# ---------------------------------------------------------------------------
# decide-corpus


def decide_corpus(seed: int, workdir: Path) -> list:
    texts = corpus_texts()
    random.Random(seed).shuffle(texts)
    recorded = load_data("corpus_verdicts.json")
    return [
        Request(["decide", "--format", "json", "--formula", t],
                decide_check(t, recorded[t]))
        for t in texts
    ]


# ---------------------------------------------------------------------------
# decide-coalition

COALITION_DRAW = 12
# the killed instance never ends; a short deadline keeps a pass within
# the run budget
KILLED_DEADLINE_S = 5.0


def decide_coalition(seed: int, workdir: Path) -> list:
    pool = load_data("coalition_pool.json")
    # the seed sets the order only (see stratified_pick)
    chosen = stratified_pick(pool, COALITION_DRAW, lambda e: e["seconds"])
    entries = [(e["formula"], e["verdict"]) for e in chosen]
    entries.append((COOPERATION_INSTANCE, "valid-relative-to-oracle"))
    random.Random(seed).shuffle(entries)
    requests = [
        Request(["decide", "--format", "json", "--formula", t], decide_check(t, v))
        for t, v in entries
    ]
    requests.append(Request(
        ["decide", "--format", "json", "--formula", KILLED_INSTANCE],
        decide_check(KILLED_INSTANCE, None),
        deadline_s=KILLED_DEADLINE_S, runs_to_deadline=True))
    return requests


# ---------------------------------------------------------------------------
# canonical-wide

CANONICAL_DRAW = 32
CANONICAL_MAX_CLOSURE = "32"


def canonical_check(entry: dict):
    def check(rc: int, out: str) -> Optional[str]:
        payload = json.loads(out)
        if rc != entry["rc"]:
            return f"exit code {rc}, recorded {entry['rc']}"
        if payload["closure_size"] != entry["closure"]:
            return f"closure size {payload['closure_size']}, recorded {entry['closure']}"
        if digest(payload["diagnostics"]["state_members"]) != entry["members_sha256"]:
            return "state members differ from the recorded ones"
        if digest(payload["truth_audit"]["disagreements"]) != entry["disagreements_sha256"]:
            return "audit disagreements differ from the recorded ones"
        return None

    return check


def canonical_wide(seed: int, workdir: Path) -> list:
    pool = load_data("canonical_pool.json")
    # the seed sets the order only (see stratified_pick)
    chosen = stratified_pick(pool, CANONICAL_DRAW, lambda e: e["seconds"])
    random.Random(seed).shuffle(chosen)
    return [
        Request(["canonical", "--format", "json", "--max-closure",
                 CANONICAL_MAX_CLOSURE, "--formula", e["formula"]],
                canonical_check(e))
        for e in chosen
    ]


# ---------------------------------------------------------------------------
# game-queries

# requests per pass, by kind; the same pool entries of each kind on every
# seed (see stratified_pick), the seed draws the proof chains and the order.
# The exhausting searches are the heaviest requests and alike in cost;
# there are more of them than the ten samples the tail leaves beyond it,
# so the tail falls inside that group and not on a seed's luck.
GAME_QUERY_MIX = {
    "check": 60,
    "extent": 36,
    "witness": 36,
    "audit-soundness": 8,
    "decide-random": 6,
    "decide-tautology": 12,
}
PROOF_CHAINS = 12
DEEP_NEGATIONS = 3000


def hostile_game_doc() -> dict:
    """A game file with 10 agents, 3 actions and a single transition row;
    loading it must end in a clean input error."""
    names = [f"a{i}" for i in range(10)]
    acts = ["x0", "x1", "x2"]
    return {
        "agents": names,
        "states": ["s"],
        "failures": [],
        "actions": acts,
        "transitions": [
            {"from": "s", "profile": {a: acts[0] for a in names}, "to": {"s": "1"}}
        ],
        "valuation": {"v": ["s"]},
    }


def chain_derivation(rng):
    """Assumption-mode derivation using only assumptions and detachment,
    built forward so every detachment fires; returns (derivation, phi)
    where phi is the first assumption."""
    from sgcl.formula import Impl, Var
    from sgcl.proof import MP, Assumption, Derivation, ProofLine, SystemId

    atoms = [Var(n) for n in ("x0", "x1", "x2", "x3")]
    pool = atoms + [Impl(a, b) for a in atoms for b in atoms]
    phi = rng.choice(atoms)
    assumptions = {phi}
    lines = [ProofLine(phi, Assumption())]
    line_of = {phi: 0}
    for _ in range(rng.randrange(4, 12)):
        if rng.random() < 0.6:
            source = rng.choice(sorted(line_of, key=repr))
            target = rng.choice(pool)
            imp = Impl(source, target)
            assumptions.add(imp)
            lines.append(ProofLine(imp, Assumption()))
            lines.append(ProofLine(target, MP(line_of[source], len(lines) - 1)))
            line_of[target] = len(lines) - 1
        else:
            extra = rng.choice(pool)
            assumptions.add(extra)
            lines.append(ProofLine(extra, Assumption()))
            line_of[extra] = len(lines) - 1
    return Derivation(SystemId.L, tuple(lines), frozenset(assumptions)), phi


def proof_check(doc: dict, conclusion: str):
    """A derivation the benchmark built must verify, with its own line
    count and the conclusion it was built for."""
    expected = {
        "command": "verify-proof",
        "ok": True,
        "system": doc["system"],
        "lines": len(doc["lines"]),
        "conclusion": conclusion,
    }
    return payload_check(0, expected)


def game_queries(seed: int, workdir: Path) -> list:
    from sgcl.formula import Impl, render
    from sgcl.proof import deduction_transform, derivation_to_dict

    pool = load_data("game_queries_pool.json")
    rng = random.Random(seed)
    paths = {}
    for name, doc in pool["games"].items():
        paths[name] = str(write_json(workdir / f"{name}.json", doc))
    for name in ("overtake", "ladder1"):
        paths[name] = str(ROOT / "games" / f"{name}.json")

    requests = []
    for kind, count in GAME_QUERY_MIX.items():
        entries = [q for q in pool["queries"] if q["kind"] == kind]
        for q in stratified_pick(entries, count, lambda e: e["seconds"]):
            argv = [paths.get(a[len("@game:"):], a) if a.startswith("@game:") else a
                    for a in q["argv"]]
            if kind.startswith("decide-"):
                check = decide_check(q["formula"], q["verdict"])
            else:
                check = payload_check(q["rc"], q["payload"])
            requests.append(Request(argv, check))

    for i in range(PROOF_CHAINS):
        d, phi = chain_derivation(rng)
        for tag, proof, conclusion in (
            ("chain", d, d.conclusion),
            ("transform", deduction_transform(d, phi), Impl(phi, d.conclusion)),
        ):
            doc = derivation_to_dict(proof)
            path = write_json(workdir / f"proof-{i}-{tag}.json", doc)
            requests.append(Request(
                ["verify-proof", "--format", "json", "--proof", str(path)],
                proof_check(doc, render(conclusion))))

    hostile = write_json(workdir / "hostile.json", hostile_game_doc())
    requests.append(Request(
        ["check", "--format", "json", "--game", str(hostile), "--state", "s",
         "--formula", "v"],
        exit_check(2)))
    deep = "~" * DEEP_NEGATIONS + "v"
    requests.append(Request(
        ["fmt", "--format", "json", "--formula", deep],
        payload_check(0, {"command": "fmt", "formula": deep})))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        # Deadlines sit far from every request's time at the baseline
        # commit, so no request flips between decided and undecided from
        # run to run.  There, on a 2-cpu Xeon VM: corpus requests take at
        # most 0.2 s; coalition pool requests at most 2 s and the
        # cooperation instance about 30 s, while the killed instance
        # never ends (KILLED_DEADLINE_S); canonical pool requests at most
        # 1.5 s; game queries at most 1.5 s (the 10-agent game file).
        Workload("decide-corpus", 5.0, decide_corpus),
        Workload("decide-coalition", 120.0, decide_coalition),
        Workload("canonical-wide", 20.0, canonical_wide),
        Workload("game-queries", 15.0, game_queries),
    )
}
