"""Per-layer spans and counters recorded from outside the package.

``Tracer.install`` rebinds public functions in the ``sgcl.*`` module
namespaces to timing wrappers.  Module globals are looked up at call
time, so a wrapper also sees the calls one module makes into another
(``canonical`` calling ``validate``, ``decide`` calling ``sample_game``).
Two class attributes are wrapped as well: ``HintikkaOracle.judge``, to
count judgments by kind, and ``CheckContext.__init__``, to sum
``profile_evals`` and memo sizes over every context a request creates.
``uninstall`` restores every binding.

A span is (name, start, end, parent index, request id).  Spans stay in
memory until ``write``.  A layer's self time is the sum of its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter


def _closure_count(c, args, result):
    c["formula.closure.formulas"] += len(result)


def _enumerate_count(c, args, result):
    c["canonical.enumerate.calls"] += 1
    c["canonical.maximal_sets"] += len(result)


def _build_count(c, args, result):
    game, diag = result
    c["canonical.rows"] += len(game.transitions)
    c["canonical.actions"] += diag.action_count
    c["canonical.guard_pairs"] += len(diag.guard_pairs)


def _audit_count(c, args, result):
    c["canonical.audit.checked"] += result.checked


def _validate_count(c, args, result):
    c["game.validate.rows"] += len(args[0].transitions)


def _holds_count(c, args, result):
    c["modelcheck.holds.calls"] += 1


def _soundness_count(c, args, result):
    c["modelcheck.audit_soundness.instances"] += result.instances


def _sample_count(c, args, result):
    c["decide.games_sampled"] += 1


def _verify_count(c, args, result):
    c["proof.lines_verified"] += len(args[0].lines)


# (module, function, span name, counter); functions that several
# modules import are rebound wherever they are bound
TRACED = (
    ("formula", "parse", "formula.parse", None),
    ("formula", "closure", "formula.closure", _closure_count),
    ("canonical", "enumerate_maximal_sets", "canonical.enumerate", _enumerate_count),
    ("canonical", "action_domain", "canonical.action_domain", None),
    ("canonical", "build_canonical_game", "canonical.build", _build_count),
    ("canonical", "audit_truth_lemma", "canonical.audit", _audit_count),
    ("game", "validate", "game.validate", _validate_count),
    ("game", "load", "game.load", None),
    ("game", "game_to_dict", "cli.serialize", None),
    ("modelcheck", "holds", "modelcheck.holds", _holds_count),
    ("modelcheck", "extent", "modelcheck.holds", None),
    ("modelcheck", "witness", "modelcheck.holds", None),
    ("modelcheck", "audit_axiom_soundness", "modelcheck.audit_soundness", _soundness_count),
    ("decide", "bounded_countermodel", "decide.search", None),
    ("decide", "sample_game", "decide.sample_game", _sample_count),
    ("proof", "verify", "proof.verify", _verify_count),
    ("proof", "deduction_transform", "proof.transform", None),
    ("cli", "run", "cli.run", None),
)

# span names whose self time is reported, with the metric they feed
SELF_TIMES = (
    "canonical.build", "game.validate", "canonical.enumerate",
    "canonical.action_domain", "canonical.audit", "modelcheck.holds",
    "modelcheck.audit_soundness", "decide.search", "decide.sample_game",
    "proof.verify", "proof.transform", "formula.parse", "formula.closure",
    "cli.serialize", "game.load", "cli.run",
)

COUNTS = (
    "canonical.rows", "canonical.actions", "canonical.guard_pairs",
    "game.validate.rows", "canonical.enumerate.calls",
    "canonical.oracle.judgments", "canonical.oracle.consistent",
    "canonical.oracle.inconsistent", "canonical.oracle.unknown",
    "canonical.maximal_sets", "canonical.audit.checked",
    "modelcheck.holds.calls", "modelcheck.profile_evals",
    "modelcheck.memo_entries", "modelcheck.audit_soundness.instances",
    "decide.games_sampled", "proof.lines_verified",
    "formula.closure.formulas",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.request = None
        self.active = False
        self._stack = []
        self._contexts = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.request)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        mods = {name: sys.modules[f"sgcl.{name}"] for name in
                ("formula", "canonical", "game", "modelcheck", "decide", "proof", "cli")}
        for module, fname, span, count in TRACED:
            original = getattr(mods[module], fname)
            wrapper = self._wrap(original, span, count)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, attr, wrapper)

        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(vars(mods["cli"].json))
        json_proxy.dumps = self._wrap(json_proxy.dumps, "cli.serialize", None)
        self._rebind(mods["cli"], "json", json_proxy)

        tracer = self
        oracle = mods["canonical"].HintikkaOracle
        judge = oracle.judge

        def counting_judge(self, candidate):
            verdict = judge(self, candidate)
            if tracer.active:
                tracer.counters["canonical.oracle.judgments"] += 1
                tracer.counters[f"canonical.oracle.{verdict.value}"] += 1
            return verdict

        self._rebind(oracle, "judge", counting_judge)

        context = mods["modelcheck"].CheckContext
        init = context.__init__

        def registering_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if tracer.active:
                tracer._contexts.append(self)

        self._rebind(context, "__init__", registering_init)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- requests -----------------------------------------------------------

    def begin(self, request) -> None:
        self.request = request
        self._stack = []
        self.active = True

    def end(self, output_bytes: int) -> None:
        """Close the request: harvest the model-checking contexts it made."""
        self.active = False
        self.counters["cli.output_bytes"] += output_bytes
        for ctx in self._contexts:
            self.counters["modelcheck.profile_evals"] += ctx.profile_evals
            self.counters["modelcheck.memo_entries"] += len(ctx.memo)
        self._contexts = []

    # -- results ------------------------------------------------------------

    def _closed_spans(self):
        # a deadline can interrupt a wrapper before it records its span
        return [(i, span) for i, span in enumerate(self.spans) if span is not None]

    def self_times(self, requests) -> dict:
        """Self time per span name, over spans of the given request ids."""
        closed = self._closed_spans()
        covered = defaultdict(float)
        for _, (name, start, end, parent, request) in closed:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, request) in closed:
            if request in requests:
                out[name] += (end - start) - covered[i]
        return out

    def metrics(self, pass_requests, setup_requests) -> dict:
        """Every per-layer metric: self times of the timed pass (the
        deduction transform runs only while inputs are generated, so its
        self time comes from the set-up spans) and the pass counters."""
        pass_self = self.self_times(pass_requests)
        setup_self = self.self_times(setup_requests)
        out = {}
        for name in SELF_TIMES:
            source = setup_self if name == "proof.transform" else pass_self
            out[f"{name}.self_s"] = (source.get(name, 0.0), "s")
        for name in COUNTS:
            out[name] = (self.counters.get(name, 0), "count")
        out["cli.output_bytes"] = (self.counters.get("cli.output_bytes", 0), "bytes")
        judgments = self.counters.get("canonical.oracle.judgments", 0)
        sets = self.counters.get("canonical.maximal_sets", 0)
        out["canonical.enumerate.yield"] = (sets / judgments if judgments else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for _, (name, start, end, parent, request) in self._closed_spans():
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
