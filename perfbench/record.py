"""Regenerate the recorded pools and answers under ``data/``.

    python3 perfbench/record.py [--only NAME]

Each pool is drawn from a fixed generator seed, then every entry is run
once through ``sgcl.cli.run`` and its answer and time are stored next to
it.  The benchmark compares later answers with these, and uses the times
only to order a pool into cost strata.  Re-record only when a change of
answer is intended, and say so where the change is described.
Recording takes several minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sgcl import cli  # noqa: E402
from sgcl.canonical import action_domain, enumerate_maximal_sets  # noqa: E402
from sgcl.formula import closure, parse  # noqa: E402

from workloads import (  # noqa: E402
    DATA,
    corpus_texts,
    digest,
    has_obvious_proof,
    random_text,
)

POOL_SEED = 20191010

# decide-coalition pool: two-agent formulas whose negation's closure has
# 10 to 16 members and whose canonical game has at most this many rows
# (states x actions^2), so every request ends far below the deadline
COALITION_POOL = 100
COALITION_ROWS = (4000, 16000)

# canonical-wide pool: empty-coalition formulas with closures of 20 to
# 32 members and at most this many maximal sets
CANONICAL_POOL = 80
CANONICAL_CLOSURE = (20, 32)
CANONICAL_STATES = 128

QUARTERS = ("1/4", "1/2", "3/4", "1")


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        rc = cli.run(argv)
        seconds = time.perf_counter() - started
    text = out.getvalue()
    return rc, (json.loads(text) if text else None), seconds


def save(name, doc):
    with open(DATA / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_corpus():
    verdicts = {}
    slowest = 0.0
    for text in corpus_texts():
        rc, payload, seconds = invoke(["decide", "--format", "json", "--formula", text])
        verdicts[text] = payload["verdict"]
        slowest = max(slowest, seconds)
    save("corpus_verdicts.json", verdicts)
    print(f"corpus: {len(verdicts)} verdicts, slowest {slowest:.3f}s")


def coalition_candidate(rng):
    coalitions = (("a",), ("b",), ("a", "b"))
    subs = ("1/4", "1/2", "1")

    def part(depth):
        return random_text(rng, depth, coalitions, subs, "uvw")

    shape = rng.random()
    if shape < 0.1:
        c = ",".join(rng.choice(coalitions[:2]))
        p = rng.choice(subs)
        x = part(2)
        return f"([{c}]_{p} {x} -> [a,b]_{p} {x})"
    if shape < 0.2:
        c = ",".join(rng.choice(coalitions))
        hi, lo = sorted(rng.sample(subs, 2), key=lambda s: -eval_fraction(s))
        x = part(2)
        return f"([{c}]_{hi} {x} -> [{c}]_{lo} {x})"
    if shape < 0.3:
        x, y = part(3), part(3)
        return f"({x} -> ({y} -> {x}))"
    return part(4)


def eval_fraction(text):
    num, _, den = text.partition("/")
    return int(num) / int(den or 1)


def record_coalition():
    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    slowest = 0.0
    while len(pool) < COALITION_POOL:
        text = coalition_candidate(rng)
        if text in seen:
            continue
        seen.add(text)
        sigma = closure([parse(f"~{text}")])
        if not 10 <= len(sigma) <= 16 or len(sigma.agents()) != 2:
            continue
        states = len(enumerate_maximal_sets(sigma, cap=24))
        actions = len(action_domain(sigma))
        rows = states * actions * actions
        if not COALITION_ROWS[0] <= rows <= COALITION_ROWS[1]:
            continue
        rc, payload, seconds = invoke(["decide", "--format", "json", "--formula", text])
        slowest = max(slowest, seconds)
        pool.append({
            "formula": text, "closure": len(sigma), "states": states,
            "actions": actions, "rows": rows, "verdict": payload["verdict"],
            "obvious_proof": has_obvious_proof(text),
            "seconds": round(seconds, 3),
        })
        print(f"coalition {len(pool)}: {rows} rows {seconds:.2f}s {text}", flush=True)
    save("coalition_pool.json", pool)
    print(f"coalition: {len(pool)} formulas, slowest {slowest:.3f}s, "
          f"{sum(e['obvious_proof'] for e in pool)} with obvious proofs")


def record_canonical():
    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    while len(pool) < CANONICAL_POOL:
        text = random_text(rng, 6, ((),), QUARTERS, "uvw", p_leaf=0.15)
        if text in seen:
            continue
        seen.add(text)
        sigma = closure([parse(text)])
        if not CANONICAL_CLOSURE[0] <= len(sigma) <= CANONICAL_CLOSURE[1]:
            continue
        states = len(enumerate_maximal_sets(sigma, cap=CANONICAL_CLOSURE[1]))
        if states > CANONICAL_STATES:
            continue
        rc, payload, seconds = invoke(["canonical", "--format", "json", "--max-closure",
                                       str(CANONICAL_CLOSURE[1]), "--formula", text])
        pool.append({
            "formula": text, "closure": len(sigma), "states": states, "rc": rc,
            "members_sha256": digest(payload["diagnostics"]["state_members"]),
            "disagreements": len(payload["truth_audit"]["disagreements"]),
            "disagreements_sha256": digest(payload["truth_audit"]["disagreements"]),
            "seconds": round(seconds, 3),
        })
        print(f"canonical {len(pool)}: closure {len(sigma)} states {states} "
              f"{seconds:.2f}s {text}", flush=True)
    save("canonical_pool.json", pool)


def sample_game_doc(rng, agents):
    """A small random game with quarter-grid rows, independent of the
    package's own sampler."""
    n = rng.randint(3, 6)
    states = [f"q{i}" for i in range(n)]
    failures = sorted(rng.sample(states, rng.randint(0, n - 1)))
    actions = [f"m{i}" for i in range(rng.randint(2, 3))]
    rows = []
    profiles = [[]]
    for _ in agents:
        profiles = [p + [x] for p in profiles for x in actions]
    for s in states:
        for combo in profiles:
            quarters = {}
            for _ in range(4):
                t = rng.choice(states)
                quarters[t] = quarters.get(t, 0) + 1
            rows.append({
                "from": s,
                "profile": dict(zip(agents, combo)),
                "to": {t: f"{k}/4" for t, k in sorted(quarters.items())},
            })
    valuation = {v: sorted(s for s in states if rng.random() < 0.5) for v in ("u", "v")}
    return {"agents": list(agents), "states": states, "failures": failures,
            "actions": actions, "transitions": rows, "valuation": valuation}


def record_game_queries():
    from sgcl.game import game_from_dict, load

    rng = random.Random(POOL_SEED)
    games = {}
    for i in range(12):
        agents = ("a", "b", "c")[: 1 + i % 3]
        games[f"sampled{i}"] = sample_game_doc(rng, agents)
    loaded = {name: game_from_dict(doc) for name, doc in games.items()}
    repo_games = HERE.parent / "games"
    for name in ("overtake", "ladder1"):
        loaded[name] = load(repo_games / f"{name}.json")
    files = {name: str(repo_games / f"{name}.json") for name in ("overtake", "ladder1")}
    tmp = DATA / "_record_tmp"
    tmp.mkdir(exist_ok=True)
    for name, doc in games.items():
        files[name] = str(tmp / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def vocab(game):
        coalitions = [()] + [(a,) for a in game.agents]
        if len(game.agents) > 1:
            coalitions.append(tuple(game.agents))
        variables = sorted(game.valuation) or ["v"]
        return coalitions, variables

    queries = []

    def add(kind, argv_tail, **extra):
        argv = [kind, "--format", "json"] + argv_tail
        real = [files[a[6:]] if a.startswith("@game:") else a for a in argv]
        rc, payload, seconds = invoke(real)
        entry = {"kind": kind, "argv": argv, "rc": rc, "payload": payload,
                 "seconds": round(seconds, 4), **extra}
        queries.append(entry)
        return entry

    names = sorted(loaded)
    for _ in range(72):
        name = rng.choice(names)
        game = loaded[name]
        coalitions, variables = vocab(game)
        state = rng.choice(game.nonfailure_states)
        text = random_text(rng, 4, coalitions, QUARTERS + ("0",), variables)
        add("check", ["--game", f"@game:{name}", "--state", state, "--formula", text])
    for _ in range(48):
        name = rng.choice(names)
        coalitions, variables = vocab(loaded[name])
        text = random_text(rng, 4, coalitions, QUARTERS + ("0",), variables)
        add("extent", ["--game", f"@game:{name}", "--formula", text])
    for _ in range(48):
        name = rng.choice(names)
        game = loaded[name]
        coalitions, variables = vocab(game)
        c = ",".join(rng.choice(coalitions))
        body = random_text(rng, 3, coalitions, QUARTERS + ("0",), variables)
        text = f"[{c}]_{rng.choice(QUARTERS + ('0',))} {body}"
        state = rng.choice(game.nonfailure_states)
        add("witness", ["--game", f"@game:{name}", "--state", state, "--formula", text])
    for i in range(30):
        name = rng.choice(names)
        add("audit-soundness", ["--game", f"@game:{name}", "--budget", "2000",
                                "--seed", str(i)])
    # over-cap formulas take the bounded-search route; half are tautology
    # shaped, so the search runs its whole budget
    for i in range(32):
        shape = ("decide-random", "decide-tautology")[i % 2]
        while True:
            text = random_text(rng, 5, (("a",), ("b",), ("a", "b")),
                               ("1/4", "1/2", "1"), "uv", p_leaf=0.1)
            if shape == "decide-tautology":
                text = f"({text} -> (v -> {text}))"
            if len(closure([parse(f"~{text}")])) > 24:
                break
        entry = add("decide", ["--formula", text, "--budget", "600", "--seed", str(i)],
                    formula=text)
        entry["kind"] = shape
        entry["verdict"] = entry.pop("payload")["verdict"]
    for name in games:
        Path(files[name]).unlink()
    tmp.rmdir()
    for q in queries:
        print(f"{q['kind']}: rc {q['rc']} {q['seconds']:.3f}s")
    save("game_queries_pool.json", {"games": games, "queries": queries})


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--only", choices=("corpus", "coalition", "canonical", "game-queries"))
    args = p.parse_args()
    DATA.mkdir(exist_ok=True)
    steps = {"corpus": record_corpus, "coalition": record_coalition,
             "canonical": record_canonical, "game-queries": record_game_queries}
    for name, step in steps.items():
        if args.only in (None, name):
            step()


if __name__ == "__main__":
    main()
