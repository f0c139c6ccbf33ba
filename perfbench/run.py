"""Benchmark for sgcl: time to verdict, decided share and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, one closed-loop client: each request
is one in-process ``sgcl.cli.run(argv)`` call, sent after the previous
one returned, under a per-request deadline (``setitimer``).  A pass
sends the workload's whole request list once; passes repeat while the
next one is expected to end within ``--seconds`` (at least one pass).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it runs one untraced pass, then the same inputs again
with every layer boundary wrapped, and reports the per-layer metrics.
Exit code 1 means an answer failed its check; 2 means the benchmark
could not start.

``setup_s`` is the median over several cold set-ups, each in a fresh
interpreter started with ``--setup-only``: the time from starting that
process until its first request is ready, covering interpreter start,
importing ``sgcl`` and generating and writing the inputs.

Every reported time is scaled to a host of fixed speed.  The shared
host this benchmark was written on ran the same pure-Python work 20-40%
faster or slower from one second to the next, which swamped the
differences a benchmark has to show.  So while a pass runs, a CPU-time
interval timer (``ITIMER_VIRTUAL``) interrupts the process every
``SAMPLE_EVERY_S`` of its CPU time to time a fixed stdlib loop (the
calibration chunk).  A request's time is its wall time minus the chunks
run inside it, divided by the host's speed while it ran: the mean chunk
time of the samples taken in it (at least the last ``MIN_SAMPLES``) over
``REFERENCE_CHUNK_S``.  Each cold set-up is scaled by chunks timed right
after it.  The unscaled times and the mean speed are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# cold set-ups per run, half before the timed passes and half after
# them, so that their median samples the host's speed at two moments;
# setup_s is their median
SETUPS = 6
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
# CPU time between two speed samples while a pass runs; a sample takes
# about a fortieth of that
SAMPLE_EVERY_S = 0.01
# samples a speed estimate rests on at least: a request shorter than
# that many intervals is scaled by the samples just before it as well
MIN_SAMPLES = 20
# samples timed right after each cold set-up to scale it
SETUP_SAMPLES = 200
# typical time of one calibration chunk on the reference host, a 2-vCPU
# Xeon VM with Python 3.11.7; reported times are in its seconds
REFERENCE_CHUNK_S = 0.00025


class DeadlineHit(BaseException):
    """Raised by the interval timer.  A BaseException, so that no
    ``except ValueError`` (or ``except Exception``) inside the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


def set_up(workload, seed: int, workdir: Path) -> list:
    """Import sgcl, then generate the requests and write their files."""
    from sgcl import cli

    if Path(cli.__file__).resolve().parent != SRC / "sgcl":
        print(f"error: sgcl imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    requests = workload.generate(seed, workdir)
    # requests that run into their deadline come last (see Request)
    flags = [r.runs_to_deadline for r in requests]
    if flags != sorted(flags):
        print(f"error: {workload.name} sends a request that runs to its "
              "deadline before one that does not", file=sys.stderr)
        raise SystemExit(2)
    return requests


def calibration_chunk() -> int:
    """Fixed interpreter work of the kinds sgcl does most: tuple keys,
    small frozensets, dict stores and lookups.  It never changes and frees
    all it allocates, so its time measures the host, not the program."""
    table = {}
    acc = 0
    for i in range(250):
        key = (i % 17, i % 5)
        members = frozenset((i % 7, i % 11, i % 5))
        table[key] = members
        if i % 5 in members:
            acc += len(table.get((i % 13, i % 5), ()))
    return acc


class HostSpeed:
    """Speed samples (start, seconds of one calibration chunk) taken by a
    CPU-time interval timer while it is on (``with``), or on demand."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None) -> None:
        # no collection inside the chunk: its cost would depend on the
        # program's objects, and the chunk leaves the collector's counts
        # as it found them
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            calibration_chunk()
            self.samples.append((started, perf_counter() - started))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self._sample)
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def now(self, count: int) -> float:
        """Speed over ``count`` chunks timed at once (above 1: slower than
        the reference host)."""
        for _ in range(count):
            self._sample()
        return statistics.fmean(c for _, c in self.samples[-count:]) / REFERENCE_CHUNK_S

    def scale(self, started: float, elapsed: float) -> float:
        """Seconds of the reference host for a request that ran ``elapsed``
        seconds from ``started``, without the chunks run inside it."""
        lo = bisect.bisect_left(self.samples, started, key=itemgetter(0))
        hi = bisect.bisect_left(self.samples, started + elapsed, key=itemgetter(0))
        inside = math.fsum(c for _, c in self.samples[lo:hi])
        window = [c for _, c in self.samples[max(0, min(lo, hi - MIN_SAMPLES)):hi]]
        return (elapsed - inside) / (statistics.fmean(window) / REFERENCE_CHUNK_S)

    @property
    def mean(self) -> float:
        return statistics.fmean(c for _, c in self.samples) / REFERENCE_CHUNK_S


def cold_set_up(workload, seed: int) -> float:
    """Seconds from starting a fresh interpreter on ``--setup-only`` until
    it reports its first request ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    started = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = perf_counter() - started
        child.stdout.read()
        rc = child.wait()
    if rc != 0 or line.strip() != "ready":
        print(f"error: set-up of {workload.name} failed (exit code {rc})", file=sys.stderr)
        raise SystemExit(2)
    return seconds


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    # the same in seconds of the reference host, when a HostSpeed ran
    scaled: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (argv, reason)
    wrong: list = field(default_factory=list)  # (argv, reason)
    # the process's peak RSS before the first request that runs to its
    # deadline, or at the end of the pass if there is none
    peak_rss_mb: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(requests, deadline: float, tracer=None, speed=None) -> Pass:
    """Send every request once.  Only the ``cli.run`` call is timed; the
    answer check follows outside the timed region."""
    cli = sys.modules["sgcl.cli"]
    result = Pass()
    gc.collect()
    for i, req in enumerate(requests):
        if req.runs_to_deadline and not result.peak_rss_mb:
            result.peak_rss_mb = peak_rss_mb()
        limit = deadline if req.deadline_s is None else req.deadline_s
        out = io.StringIO()
        rc, fault = None, None
        if tracer is not None:
            tracer.begin(i)
        started = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.run(req.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineHit:
            fault = f"no answer within the {limit:g} s deadline"
        except (Exception, SystemExit) as exc:
            fault = f"uncaught {type(exc).__name__}"
        elapsed = perf_counter() - started
        text = out.getvalue()
        if tracer is not None:
            tracer.end(len(text.encode()))
        result.latencies.append(elapsed)
        if speed is not None:
            result.scaled.append(speed.scale(started, elapsed))
        if fault is None and rc not in (0, 1, 2):
            fault = f"exit code {rc}"
        if fault is None:
            try:
                problem = req.check(rc, text)
            except Exception as exc:  # a malformed answer is a wrong answer
                problem = f"answer check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                result.wrong.append((req.argv, problem))
                fault = "wrong answer"
        if fault is not None:
            result.failures.append((req.argv, fault))
    if not result.peak_rss_mb:
        result.peak_rss_mb = peak_rss_mb()
    return result


def tail(latencies, per_pass: int):
    """Nearest-rank value at the highest percentile that leaves at least
    TAIL_BEYOND samples of one pass beyond it; the percentile depends on
    the pass size only, so it is the same on every commit."""
    q = max(per_pass - TAIL_BEYOND, 1) / per_pass
    ordered = sorted(latencies)
    return ordered[math.ceil(q * len(ordered)) - 1], 100 * q


def short(argv) -> str:
    text = " ".join(argv)
    return text if len(text) <= 160 else text[:157] + "..."


def report(passes, extra_lines) -> tuple:
    """Print failures and wrong answers; return (correct, attempted, failed)."""
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    wrong = [w for p in passes for w in p.wrong]
    for argv, reason in sorted(set((short(a), r) for a, r in failures)):
        print(f"failed: {argv}: {reason}")
    for argv, reason in wrong:
        print(f"WRONG ANSWER: {short(argv)}: {reason}", file=sys.stderr)
    for line in extra_lines:
        print(line)
    return not wrong, attempted, len(failures)


def emit(correct, attempted, failed, metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def timed_run(workload, args, workdir: Path) -> bool:
    speed = HostSpeed()
    setups = []  # (unscaled, scaled)

    def cold_set_ups(count):
        for _ in range(count):
            seconds = cold_set_up(workload, args.seed)
            setups.append((seconds, seconds / speed.now(SETUP_SAMPLES)))

    cold_set_ups(SETUPS // 2)
    requests = set_up(workload, args.seed, workdir)
    passes = []
    with speed:
        while True:
            passes.append(run_pass(requests, workload.deadline_s, speed=speed))
            spent = sum(p.seconds for p in passes)
            if spent + statistics.median(p.seconds for p in passes) > args.seconds:
                break
    cold_set_ups(SETUPS - SETUPS // 2)
    per_pass = len(requests)
    latencies = [x for p in passes for x in p.latencies]
    scaled = [x for p in passes for x in p.scaled]
    unscaled = {
        "setup_s": statistics.median(u for u, _ in setups),
        "run_s": statistics.median(p.seconds for p in passes),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail(latencies, per_pass)[0],
    }
    tail_s, percentile = tail(scaled, per_pass)
    correct, attempted, failed = report(passes, [
        f"workload {workload.name}, seed {args.seed}: {len(passes)} pass(es) of "
        f"{per_pass} requests, deadline {workload.deadline_s:g} s",
        f"latency_tail_ms is p{percentile:.2f} of {len(scaled)} samples",
        f"cold set-up times: {', '.join(f'{u:.4f}' for u, _ in setups)} s",
        f"host speed {speed.mean:.4f} ({len(speed.samples)} samples); unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()),
    ])
    emit(correct, attempted, failed, {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "run_s": (statistics.median(math.fsum(p.scaled) for p in passes), "s"),
        "latency_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "decided_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    })
    return correct


def traced_run(workload, args, workdir: Path) -> bool:
    from tracer import Tracer

    requests = set_up(workload, args.seed, workdir)
    untraced = run_pass(requests, workload.deadline_s)
    tracer = Tracer()
    tracer.install()
    try:
        # input generation once more, traced, for the set-up-only layers
        tracer.begin("setup")
        requests = workload.generate(args.seed, workdir)
        tracer.end(0)
        tracer.counters.clear()
        traced = run_pass(requests, workload.deadline_s, tracer)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    metrics = tracer.metrics(set(range(len(requests))), {"setup"})
    metrics["trace.run_s"] = (traced.seconds, "s")
    metrics["trace.overhead_s"] = (traced.seconds - untraced.seconds, "s")
    layer_sum = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".self_s") and k != "proof.transform.self_s")
    correct, attempted, failed = report([untraced, traced], [
        f"workload {workload.name}, seed {args.seed}: traced pass of {len(requests)} "
        f"requests; untraced pass {untraced.seconds:.3f} s",
        f"self times sum to {layer_sum:.3f} s of traced run_s {traced.seconds:.3f} s",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ])
    emit(correct, attempted, failed, metrics)
    return correct


def main() -> int:
    p = argparse.ArgumentParser(description="sgcl benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (timed by a run for setup_s)")
    args = p.parse_args()
    if not (SRC / "sgcl" / "cli.py").is_file():
        print(f"error: no sgcl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    if args.setup_only:
        try:
            set_up(workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"python {platform.python_version()}, {os.cpu_count()} cpus")
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        run = traced_run if args.trace else timed_run
        return 0 if run(workload, args, workdir) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
