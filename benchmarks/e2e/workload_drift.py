"""drift-matrix: every library scenario under the default controller.

One iteration is a sweep of ``scenarios.matrix.run_cell`` over all 12
library scenarios with the ``default`` controller config, serially in
this process.  The work is in ``scenarios`` (trace synthesis) and
``online`` (``OnlineController.replay`` and its monitor), plus small
``core`` re-solves; matrix cells construct no simulator.

Inputs: sweep ``i >= 1`` compiles every scenario with seed
``1000 * seed + i``; sweep 0 compiles each with its own declared seed.
The quality numbers — ``util_vs_see`` (mean over cells of the end-state
predicted max utilization under the controller's final layout ÷ the
same under SEE), ``drift.util_end`` and ``drift.migrated_mb``, which
trade against each other — come from sweep 0, so they do not move with
the seed.  Sweep 0 is also the warm-up, untimed though inside the
window: a fresh process's first sweep can run 40% slower on first-call
costs.

``op_ms`` is the sum over cells of each cell's median time over the
timed sweeps: identical sweeps on a shared host vary by 10–40%, mostly
through one or two cells slowed by a busy moment, which a per-cell
median drops while a median of three or four sweep totals does not.
"""

import time

import numpy as np

from harness import iterate, time_setups, traced_phase
from repro.cli import load_problem
from repro.core.problem import LayoutProblem
from repro.scenarios import compile_scenario, list_scenarios, load_scenario
from repro.scenarios.matrix import check_results, run_cell

CONTROLLER = {"name": "default"}
LIBRARY_SIZE = 12
SMOKE_CELLS = 2


def setup(ctx):
    """Imports plus loading and validating the scenario library."""
    names = [name for name, _ in list_scenarios()]
    if ctx.smoke:
        names = names[:SMOKE_CELLS]
    for name in names:
        load_scenario(name)
    return names


def _see_end_util(name):
    """End-state predicted max utilization of SEE, as ``run_cell``
    computes ``util_end`` for the controller's layout."""
    compiled = compile_scenario(load_scenario(name))
    problem = load_problem(compiled.problem_payload())
    duration = compiled.duration_s
    end_state = compiled.mean_workloads(0.75 * duration, duration)
    end = LayoutProblem(compiled.object_sizes, problem.targets, end_state,
                        stripe_size=problem.stripe_size)
    return float(end.evaluator().objective(end.see_layout().matrix))


def run(ctx, outcome):
    if not ctx.trace:
        outcome.setup_s, _ = time_setups(ctx)
    names = setup(ctx)
    outcome.check("library has %d scenarios" % LIBRARY_SIZE,
                  ctx.smoke or len(names) == LIBRARY_SIZE, names)

    swept = []

    def sweep(compile_seed):
        cells, cell_ms = [], []
        for name in names:
            t0 = time.perf_counter()
            try:
                cells.append(run_cell(name, CONTROLLER, seed=compile_seed))
            except Exception as error:  # noqa: BLE001 — counted as failed
                cells.append({"scenario": name, "controller": "default",
                              "status": "error", "error": repr(error)})
            cell_ms.append((time.perf_counter() - t0) * 1e3)
        return cells, cell_ms

    def verify(index, _seed, result):
        cells, cell_ms = result
        swept.append((index, cell_ms))
        for cell in cells:
            outcome.op(cell["status"] == "ok")
        try:
            check_results({"cells": cells})
        except Exception as error:  # noqa: BLE001 — reported as a check
            outcome.check("matrix results well-formed", False, error)
        failed = [c["scenario"] for c in cells if c["status"] != "ok"]
        if failed:
            outcome.check("every cell ok", False, failed)
        elif index == 0:
            outcome.quality = {
                "util_vs_see": float(np.mean([
                    c["util_end"] / _see_end_util(c["scenario"])
                    for c in cells])),
                "util_end": float(np.mean([c["util_end"] for c in cells])),
                "migrated_mb": sum(c["bytes_moved"] for c in cells) / 1e6,
            }
            outcome.layer["drift.util_end"] = outcome.quality["util_end"]
            outcome.layer["drift.migrated_mb"] = \
                outcome.quality["migrated_mb"]

    def prepare(index):
        return None if index == 0 else 1000 * ctx.seed + index

    times, _, index = iterate(ctx, prepare, sweep, verify, warmup=1)
    outcome.ops_ms = [t * 1e3 for t in times]
    timed = [cell_ms for i, cell_ms in swept if i > 0]
    outcome.op_parts_ms = {name: [cell_ms[k] for cell_ms in timed]
                           for k, name in enumerate(names)}
    outcome.info["iterations"] = len(times)
    if ctx.trace:
        traced_phase(ctx, outcome, times, prepare, sweep, verify, index)
