"""The benchmark's tracer against the package: the names it wraps must
still be bound and called, so a change that drops one fails here."""

import importlib.util
from pathlib import Path

import sgcl.canonical
from sgcl import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """``perfbench/tracer.py`` loaded by path, as its own module."""
    spec = importlib.util.spec_from_file_location("sgcl_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_canonical_and_decide_requests(capsys):
    original = sgcl.canonical.action_domain
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        requests = [
            ["canonical", "--format", "json", "--formula", "[a]_1/2 v"],
            ["decide", "--format", "json", "--formula", "([a]_1/2 v -> v)"],
        ]
        for i, argv in enumerate(requests):
            tracer.begin(i)
            rc = cli.run(argv)
            tracer.end(0)
            assert rc in (0, 1), argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("canonical.rows", "canonical.actions",
                 "canonical.oracle.judgments", "modelcheck.holds.calls"):
        assert tracer.counters[name] > 0, name
    # the oracle judges only complete sets, so every set it accepts is
    # one of the maximal sets the enumerator returns
    assert tracer.counters["canonical.oracle.consistent"] == (
        tracer.counters["canonical.maximal_sets"])
    assert {"canonical.build", "canonical.action_domain"} <= {
        span[0] for span in tracer.spans}
    assert sgcl.canonical.action_domain is original


def test_tracer_counts_only_the_games_a_search_builds(capsys):
    """A search-route decide shows as a ``decide.search`` span, and
    ``decide.games_sampled`` counts the games built as ``Game`` objects:
    one for a refutation, none for an exhausted search, however many
    games were drawn."""
    tracer = load_tracer().Tracer()
    tracer.install()
    seen = []  # games_sampled after each request
    try:
        for i, argv in enumerate([
            ["decide", "--max-closure", "1", "--formula", "[]_1 true"],
            ["decide", "--max-closure", "1", "--budget", "40", "--formula", "(v -> v)"],
        ]):
            tracer.begin(i)
            rc = cli.run(argv)
            tracer.end(0)
            assert rc == 1 - i, argv
            seen.append(tracer.counters["decide.games_sampled"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert seen == [1, 1]
    names = [span[0] for span in tracer.spans]
    assert names.count("decide.search") == 2
    assert names.count("decide.sample_game") == 1
