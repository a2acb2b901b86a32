"""fleet-advise: the advisor alone on synthetic fleets.

``LayoutAdvisor(regular=True, method="auto")`` on two ring-overlap
problems with analytic cost models: N=150 objects on M=8 targets (1200
variables, which ``auto`` solves with the coordinate method) and
N=400 on M=32 (12800 variables, the partitioned method).  Nearly all of
the time is in ``core`` (objective, solver, partition, regularize) —
no simulator, no table lookups, no I/O — so a solver change shows here
while a simulator or serving change must show no change.

Inputs: a fixed pair of problems whose objects iteration ``i`` renames
with a prefix drawn from ``(seed, i)``, so no two iterations show the
program the same names.  Drawing a new pair per iteration was tried and
rejected: solve time varies by about ±12% between pairs, which the
few iterations of a run cannot average away, so ``op_ms`` would measure
the draw.  Layout quality (``util_vs_see``) is the same in every
iteration and ``reference.json`` checks it.

``op_ms`` is the sum over the two problems of each one's median advise
time.  There is no warm-up iteration: a fresh process's first one is
not slower here, and a window holds only about three.
"""

import time

import numpy as np

from harness import iterate, time_setups, traced_phase
from inputs import relabel_token, ring_problem
from repro.core import LayoutAdvisor

SIZES = ((150, 8), (400, 32))
SMOKE_SIZES = ((20, 4),)
#: Entropy of the fixed problem pair.
REFERENCE = 2010


def _problems(sizes, prefix):
    return [ring_problem(np.random.default_rng([REFERENCE, k]), n, m,
                         prefix=prefix)
            for k, (n, m) in enumerate(sizes)]


def setup(ctx):
    """Imports plus building the problem pair once."""
    sizes = SMOKE_SIZES if ctx.smoke else SIZES
    _problems(sizes, "obj")
    return sizes


def _advise(problems):
    """Each problem's advisor result and wall time (ms)."""
    results, times = [], []
    for problem in problems:
        t0 = time.perf_counter()
        results.append(
            LayoutAdvisor(problem, regular=True, method="auto").recommend())
        times.append((time.perf_counter() - t0) * 1e3)
    return results, times


def run(ctx, outcome):
    if not ctx.trace:
        outcome.setup_s, _ = time_setups(ctx)
    sizes = setup(ctx)
    qualities = []
    problem_times = []

    def verify(_index, problems, outputs):
        results, problem_ms = outputs
        problem_times.append(problem_ms)
        for problem, result in zip(problems, results):
            try:
                problem.validate_layout(result.recommended)
                ok = True
            except Exception as error:  # noqa: BLE001 — reported as a check
                ok = outcome.check("advised layout valid", False, error)
            outcome.op(ok)
        qualities.append(float(np.mean([
            r.max_utilization("regular") / r.max_utilization("see")
            for r in results])))
        outcome.info["methods"] = [r.method for r in results]

    def prepare(index):
        return _problems(sizes, "o%s-" % relabel_token(ctx.seed, index))

    times, _, index = iterate(ctx, prepare, _advise, verify)
    outcome.ops_ms = [t * 1e3 for t in times]
    outcome.op_parts_ms = {"%dx%d" % size: [ms[k] for ms in problem_times]
                           for k, size in enumerate(sizes)}
    outcome.quality["util_vs_see"] = qualities[0]
    outcome.info["iterations"] = len(times)
    if ctx.trace:
        traced_phase(ctx, outcome, times, prepare, _advise, verify, index)
    outcome.check("relabelled iterations agree on quality",
                  all(q == qualities[0] for q in qualities), qualities)
