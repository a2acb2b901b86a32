"""Wall-clock watchdog around the layout solve.

An emergency re-solve (a target just died; see
:mod:`repro.online.controller`) cannot afford an open-ended
optimization: every second spent solving is a second the workload runs
on a degraded layout — or errors against a dead device.  The watchdog
runs the solve under a wall-clock budget and, when a rung of the chain
times out or raises, falls back to a cheaper one.  Each bounded rung
gets whatever budget is left, so the first gets all of it: after a
timeout less than :data:`MIN_RUNG_BUDGET_S` remains and the chain drops
straight to greedy, while a rung that raises early leaves the rest of
the budget to the next:

1. **portfolio** — the full requested solve (multi-start, possibly a
   parallel worker pool);
2. **partitioned** — a single-start partitioned solve
   (:func:`repro.core.partition.solve_partitioned`): decompose the
   overlap graph, solve the pieces, stitch and balance.  On large
   instances this finishes in a fraction of the monolithic time.  It
   is the first fallback when the portfolio rung raises, and skipped
   when the caller already asked for ``method="partitioned"``
   (retrying the same thing is not a fallback);
3. **serial** — a single-start, single-process solve from the best
   available starting layout, with a tightened iteration cap;
4. **greedy** — the Section-4.2 greedy construction, evaluated inline.
   It needs no optimization loop at all and always yields a valid,
   capacity-respecting layout, so the chain cannot come back empty.

Bounded rungs run in daemon threads that are *abandoned* on timeout
(SciPy's SLSQP offers no cancellation); an abandoned rung therefore
gets a private evaluator and no shared instrumentation, so a zombie
solve can never race the caller.  The watchdog itself reports which
rung answered (``repro_watchdog_rung_total``), every timeout and error
(``repro_watchdog_timeouts_total`` / ``repro_watchdog_errors_total``),
and a ``watchdog.rung`` span per attempt on the caller's ``obs``.
"""

import threading
import time
from dataclasses import dataclass, field

from repro.core.initial import initial_layout
from repro.core.solver import SolveResult, solve
from repro.obs import ensure_obs

#: Wall-clock floor given to a bounded rung; below this the rung is
#: skipped outright rather than started with no realistic chance.
MIN_RUNG_BUDGET_S = 0.05

#: Iteration cap for the serial fallback rung (the portfolio rung keeps
#: the caller's ``max_iter``).
SERIAL_FALLBACK_MAX_ITER = 40

RUNG_PORTFOLIO = "portfolio"
RUNG_PARTITIONED = "partitioned"
RUNG_SERIAL = "serial"
RUNG_GREEDY = "greedy"


@dataclass
class WatchdogResult:
    """A solve result plus the story of how it was obtained.

    Attributes:
        result: The winning :class:`~repro.core.solver.SolveResult`.
        rung: Which rung answered (``portfolio`` / ``partitioned`` /
            ``serial`` / ``greedy``).
        degraded: True when the first rung did not answer — the layout
            is valid but weaker than an unconstrained solve would give.
        budget_s: The wall-clock budget (None = unbounded).
        elapsed_s: Total wall clock spent in the watchdog.
        attempts: ``(rung, outcome)`` pairs, outcome one of ``ok`` /
            ``timeout`` / ``error`` / ``skipped``.
    """

    result: SolveResult
    rung: str
    degraded: bool
    budget_s: float = None
    elapsed_s: float = 0.0
    attempts: list = field(default_factory=list)

    @property
    def layout(self):
        return self.result.layout


def _greedy_result(problem, started):
    """The bottom rung: greedy construction, no optimization loop."""
    layout = initial_layout(problem)
    evaluator = problem.evaluator()
    utilizations = evaluator.utilizations(layout.matrix)
    return SolveResult(
        layout=layout,
        objective=float(utilizations.max()),
        utilizations=utilizations,
        method="greedy",
        evaluations=evaluator.evaluations,
        elapsed_s=time.perf_counter() - started,
        success=True,
    )


def _run_bounded(target, budget_s, chaos_hook):
    """Run ``target()`` in an abandonable daemon thread.

    Returns ``(outcome, value)`` where outcome is ``ok`` / ``timeout``
    / ``error``.  The chaos hook runs inside the thread, first, so an
    injected stall consumes this rung's budget exactly like a genuinely
    hung solve would.
    """
    box = {}

    def runner():
        try:
            if chaos_hook is not None:
                chaos_hook()
            box["value"] = target()
        except BaseException as error:  # noqa: BLE001 — reported, not hidden
            box["error"] = error

    thread = threading.Thread(target=runner, daemon=True,
                              name="layout-solve-watchdog")
    thread.start()
    thread.join(timeout=budget_s)
    if thread.is_alive():
        return "timeout", None
    if "error" in box:
        return "error", box["error"]
    return "ok", box["value"]


def solve_with_watchdog(problem, initial=None, budget_s=None, method="auto",
                        restarts=1, seed=0, max_iter=150, expert_layouts=(),
                        warm_start=False, workers=1, obs=None,
                        chaos_hook=None):
    """Solve under a wall-clock budget with graceful fallback.

    Args:
        problem: The layout problem.
        budget_s: Wall-clock budget in seconds.  None runs the plain
            solve (no threads, no fallback) and reports rung
            ``portfolio``, not degraded.
        chaos_hook: Optional no-arg callable run at the start of each
            bounded optimization rung — the fault injector's
            :meth:`~repro.faults.injector.FaultInjector.solver_hook`
            plugs in here to simulate hung solves.
        (remaining args as for :func:`repro.core.solver.solve`.)

    Returns:
        A :class:`WatchdogResult`; its ``result.layout`` is always a
        valid layout — the greedy rung guarantees the chain never
        returns empty-handed.
    """
    obs = ensure_obs(obs)
    started = time.perf_counter()

    if budget_s is None:
        result = solve(problem, initial=initial, method=method,
                       restarts=restarts, seed=seed, max_iter=max_iter,
                       expert_layouts=expert_layouts, warm_start=warm_start,
                       workers=workers, obs=obs)
        obs.metrics.counter("repro_watchdog_rung_total",
                            rung=RUNG_PORTFOLIO).inc()
        return WatchdogResult(
            result=result, rung=RUNG_PORTFOLIO, degraded=False,
            budget_s=None, elapsed_s=time.perf_counter() - started,
            attempts=[(RUNG_PORTFOLIO, "ok")],
        )

    budget_s = float(budget_s)
    attempts = []

    # Bounded rungs build private evaluators (evaluator=None) and get no
    # shared obs: if the rung times out its thread keeps running, and a
    # zombie must not touch anything the caller still uses.
    rungs = [
        (RUNG_PORTFOLIO, lambda: solve(
            problem, initial=initial, method=method, restarts=restarts,
            seed=seed, max_iter=max_iter, expert_layouts=expert_layouts,
            warm_start=warm_start, workers=workers,
        )),
    ]
    if method != "partitioned":
        # A partitioned single-start solve is dramatically cheaper than
        # the portfolio on large instances while staying a real
        # optimization — worth a rung of its own before the tightened
        # serial retry.  Pointless when the portfolio rung *was*
        # partitioned already.
        rungs.append((RUNG_PARTITIONED, lambda: solve(
            problem, initial=initial, method="partitioned", restarts=1,
            seed=seed, max_iter=max_iter, workers=workers,
        )))
    rungs += [
        (RUNG_SERIAL, lambda: solve(
            problem, initial=initial, method=method, restarts=1, seed=seed,
            max_iter=min(max_iter, SERIAL_FALLBACK_MAX_ITER),
            warm_start=warm_start and initial is not None, workers=1,
        )),
    ]

    for rung, target in rungs:
        remaining = budget_s - (time.perf_counter() - started)
        if remaining < MIN_RUNG_BUDGET_S:
            attempts.append((rung, "skipped"))
            continue
        rung_started = time.perf_counter()
        outcome, value = _run_bounded(target, remaining, chaos_hook)
        obs.tracer.add_span("watchdog.rung",
                            time.perf_counter() - rung_started,
                            rung=rung, outcome=outcome)
        attempts.append((rung, outcome))
        if outcome == "ok":
            obs.metrics.counter("repro_watchdog_rung_total", rung=rung).inc()
            return WatchdogResult(
                result=value, rung=rung,
                degraded=rung != RUNG_PORTFOLIO,
                budget_s=budget_s,
                elapsed_s=time.perf_counter() - started,
                attempts=attempts,
            )
        if outcome == "timeout":
            obs.metrics.counter("repro_watchdog_timeouts_total",
                                rung=rung).inc()
        else:
            obs.metrics.counter("repro_watchdog_errors_total",
                                rung=rung).inc()

    rung_started = time.perf_counter()
    result = _greedy_result(problem, rung_started)
    obs.tracer.add_span("watchdog.rung",
                        time.perf_counter() - rung_started,
                        rung=RUNG_GREEDY, outcome="ok")
    attempts.append((RUNG_GREEDY, "ok"))
    obs.metrics.counter("repro_watchdog_rung_total", rung=RUNG_GREEDY).inc()
    return WatchdogResult(
        result=result, rung=RUNG_GREEDY, degraded=True, budget_s=budget_s,
        elapsed_s=time.perf_counter() - started, attempts=attempts,
    )
