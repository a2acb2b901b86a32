"""Plumbing shared by the workload processes: run context, the outcome
record a workload hands back to ``run.py``, percentiles, the time-boxed
iteration loop, set-up timing in fresh processes, and the traced phase
of the in-process workloads."""

import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: How far past ``--seconds`` a run's last iteration may be expected to
#: end (a share of the window).
OVERRUN = 1.25


@dataclass
class Context:
    """One workload run as ``run.py`` asked for it."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: Scratch directory of this run, inside the checkout.
    run_dir: str
    #: Where the traced run writes its spans (JSONL).
    trace_path: str = None

    def fresh_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix, dir=self.run_dir)


@dataclass
class Outcome:
    """What a workload reports: op latencies and set-up times of the
    untraced run, layout quality, counts, checks and (traced) layers."""

    ops_ms: list = field(default_factory=list)
    #: Timed samples (ms) per part of an operation, e.g. per drift cell.
    #: When set, ``op_ms`` is the sum of the parts' medians, which a
    #: slow moment of the host during one part of one iteration cannot
    #: move the way it moves that iteration's total.
    op_parts_ms: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: [name, ok, detail] triples; the run is correct iff all are ok.
    checks: list = field(default_factory=list)
    #: Quality numbers compared with ``reference.json``; ``util_vs_see``
    #: is also an end-to-end metric.
    quality: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    def check(self, name, ok, detail=""):
        self.checks.append([name, bool(ok), str(detail)[:300]])
        return bool(ok)

    def op(self, ok):
        """Count one attempted operation and whether it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1


def percentile(values, q):
    """Linearly interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def iterate(ctx, prepare, execute, verify, first=0, tracer=None, warmup=0):
    """The time-boxed loop: iterations run until ``ctx.seconds`` have
    passed, at least once, but none starts that is expected (judged by
    the last one) to end beyond ``OVERRUN`` times the window.  That keeps
    an 18 s pipeline at one iteration per 20 s window while 5 s
    iterations fill it.  ``prepare(i)`` builds iteration ``i``'s inputs
    and ``verify(i, inputs, result)`` checks its outputs, both untimed;
    only ``execute(inputs)`` is timed (and, with a tracer, wrapped in a
    ``bench.iteration`` root span).  The first ``warmup`` iterations
    run inside the window but untimed: a fresh process pays first-call
    costs (lazy imports, caches) in its first iteration.

    Returns ``(wall seconds per timed iteration, root spans, next
    index)``.
    """
    started = time.perf_counter()
    times, roots = [], []
    index = first
    while True:
        begun = time.perf_counter()
        inputs = prepare(index)
        opened = tracer.start("bench.iteration", index=index) \
            if tracer else None
        t0 = time.perf_counter()
        result = execute(inputs)
        if index >= first + warmup:
            times.append(time.perf_counter() - t0)
        if tracer:
            roots.append(tracer.finish(opened))
        verify(index, inputs, result)
        # Free this iteration's data before the next one builds its own,
        # so peak memory is one iteration's, however many run.
        inputs = result = None
        index += 1
        elapsed = time.perf_counter() - started
        last = time.perf_counter() - begun
        if times and (elapsed >= ctx.seconds
                      or elapsed + last > OVERRUN * ctx.seconds):
            return times, roots, index


def time_setups(ctx, reps=SETUP_REPS):
    """Time ``reps`` cold starts, each a fresh ``worker.py --setup-only``
    process (imports plus the workload's set-up) with an empty cost-model
    cache.  Returns the times and the last cache directory, which the
    caller may reuse warm."""
    times, cache = [], None
    for _ in range(reps):
        cache = ctx.fresh_dir("cache-")
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        command = [sys.executable, WORKER, "--setup-only",
                   "--workload", ctx.workload, "--seed", str(ctx.seed)]
        if ctx.smoke:
            command.append("--smoke")
        t0 = time.perf_counter()
        subprocess.run(command, env=env, cwd=ctx.fresh_dir("cwd-"),
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times, cache


def traced_phase(ctx, outcome, untraced_times, prepare, execute, verify,
                 first, setup=None):
    """Run the iteration loop again under the program-layer wrappers.

    ``setup`` (optional) runs first, traced, so set-up-only layers such
    as calibration get numbers.  Writes the spans to ``ctx.trace_path``
    and fills ``outcome.layer`` with per-iteration layer metrics plus
    ``trace_overhead`` (traced ÷ untraced median iteration time).
    """
    from layers import install_program, program_layer_metrics
    from spans import SpanTree, Tracer

    tracer = Tracer(ctx.workload)
    install_program(tracer)
    try:
        setup_roots = []
        if setup is not None:
            opened = tracer.start("bench.setup")
            setup()
            setup_roots.append(tracer.finish(opened))
        times, roots, _ = iterate(ctx, prepare, execute, verify, first,
                                  tracer)
    finally:
        tracer.uninstall()
    tracer.write(ctx.trace_path, meta={"seed": ctx.seed,
                                       "iterations": len(roots)})
    tree = SpanTree(tracer.records())
    outcome.layer.update(program_layer_metrics(tree, roots, setup_roots))
    outcome.layer["trace_overhead"] = median(times) / median(untraced_times)
    outcome.info["traced_iterations"] = len(roots)
