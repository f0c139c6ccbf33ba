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
    assert {"canonical.build", "canonical.action_domain"} <= {
        span[0] for span in tracer.spans}
    assert sgcl.canonical.action_domain is original
