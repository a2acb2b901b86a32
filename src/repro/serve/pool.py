"""The shared solver pool behind the serving layer.

Every tenant's CPU-heavy work — one-shot advises and drift re-solves —
funnels into one :class:`SolverPool`, a ``ProcessPoolExecutor`` shared
across tenants so the service consolidates many small layout problems
onto a fixed worker budget (the provisioning-as-a-service setting).
Jobs are module-level functions taking picklable arguments and
returning plain JSON-safe dicts, so the pool works under any
multiprocessing start method and results can go straight onto the wire.

The pool is self-healing: a worker that dies hard (``os._exit``, OOM
kill, segfault) breaks a ``ProcessPoolExecutor`` permanently, so the
pool detects ``BrokenProcessPool``, fails only the jobs in flight, and
rebuilds the executor — one crashing tenant job must not poison the
service for everyone else.  Environments that cannot fork at all demote
the pool to threads once, keeping the service alive (slower, but
correct).
"""

import asyncio
import functools
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.core.advisor import LayoutAdvisor
from repro.core.regularize import regularize
from repro.core.solver import SolveResult, solve
from repro.core.watchdog import solve_with_watchdog
from repro.errors import ReproError
from repro.obs import Instrumentation


class PoolCrashError(ReproError):
    """The worker executing this job died; the pool was rebuilt."""


class DeadlineError(ReproError):
    """The request's deadline expired before its work ran (HTTP 503).

    Raised at admission when the deadline is already in the past, by
    the fair scheduler when a queued job's deadline lapses before
    dispatch (the job is shed without wasting a worker), and by a pool
    job that finds its wall-clock deadline gone on entry."""


def _deadline_guard(options, job_name):
    """Shed a job whose wall-clock deadline already passed.

    Deadlines cross the process boundary as ``options["deadline_unix"]``
    (wall clock — monotonic clocks do not travel between processes);
    returns the remaining seconds, or None when the job carries no
    deadline.  The scheduler already clamps ``solve_budget_s`` to the
    remaining *monotonic* deadline at dispatch; this guard catches the
    executor's own queueing delay on a saturated pool.
    """
    deadline = (options.get("deadline_unix")
                if isinstance(options, dict) else None)
    if deadline is None:
        return None
    remaining = float(deadline) - time.time()
    if remaining <= 0:
        raise DeadlineError(
            "deadline expired before %s started; retry later" % job_name
        )
    return remaining


def _clamped_budget(options, remaining):
    """The watchdog budget honoring both the caller and the deadline."""
    budget = options.get("solve_budget_s") if isinstance(options, dict) \
        else None
    if remaining is None:
        return budget
    if budget is None:
        return remaining
    return min(float(budget), remaining)


# ----------------------------------------------------------------------
# Job entry points (must be module-level: workers import them by name)
# ----------------------------------------------------------------------

def _worker_obs(options, job_name):
    """The worker bundle of a traced job, or None.

    A job is traced when its options carry a ``trace_ctx`` dict (the
    wire form of :class:`~repro.obs.TraceContext`).  The worker then
    records its whole pipeline under a ``job_name`` root span tagged
    with the trace id and its pid, and ships the span tree and metrics
    back with the result (``"obs"``) for the scheduler to absorb into
    the request trace.
    """
    ctx = options.get("trace_ctx")
    if not ctx:
        return None
    return Instrumentation.worker(job_name, trace_id=ctx["trace_id"])


def advise_job(problem, options):
    """One-shot advise: the full Figure-4 pipeline, in a worker.

    Returns ``{"payload": AdvisorResult.to_payload(), "solver_time_s"}``
    — the same JSON shape ``repro.cli advise --json`` prints, plus the
    worker-measured wall time the fair scheduler charges the tenant.
    Traced jobs (``options["trace_ctx"]``) additionally carry an
    ``"obs"`` payload with the worker's span tree and counters.
    """
    started = time.perf_counter()
    remaining = _deadline_guard(options, "advise")
    obs = _worker_obs(options, "worker.advise")
    result = LayoutAdvisor(
        problem,
        regular=bool(options.get("regular", False)),
        restarts=int(options.get("restarts", 1)),
        method=options.get("method", "auto"),
        seed=int(options.get("seed", 0)),
        solve_budget_s=_clamped_budget(options, remaining),
        obs=obs,
    ).recommend()
    out = {
        "payload": result.to_payload(),
        "rung": result.watchdog_rung,
        "solver_time_s": time.perf_counter() - started,
    }
    if obs is not None:
        out["obs"] = obs.ship()
    return out


def resolve_job(problem, initial_matrix, options):
    """Warm-started drift re-solve for a served tenant, in a worker.

    Returns the candidate layout as a plain matrix plus diagnostics;
    :class:`~repro.serve.tenant.ServedController` rebuilds a
    :class:`~repro.core.solver.SolveResult` from it on the way back.
    """
    import numpy as np

    started = time.perf_counter()
    remaining = _deadline_guard(options, "resolve")
    obs = _worker_obs(options, "worker.resolve")
    initial = problem.make_layout(np.asarray(initial_matrix, dtype=float))
    budget = _clamped_budget(options, remaining)
    method = options.get("method", "auto")
    restarts = int(options.get("restarts", 1))
    rung = ""
    degraded = False
    if budget is not None:
        watchdog = solve_with_watchdog(
            problem, initial=initial, warm_start=True, budget_s=budget,
            method=method, restarts=restarts, obs=obs,
        )
        result = watchdog.result
        rung = watchdog.rung
        degraded = watchdog.degraded
    else:
        result = solve(problem, initial=initial, warm_start=True,
                       method=method, restarts=restarts, obs=obs)
    layout = result.layout
    if options.get("regular"):
        layout = regularize(problem, layout)
    out = {
        "matrix": [[float(f) for f in row] for row in layout.matrix],
        "objective": float(result.objective),
        "method": result.method,
        "rung": rung,
        "degraded": degraded,
        "solver_time_s": time.perf_counter() - started,
    }
    if obs is not None:
        out["obs"] = obs.ship()
    return out


def rebuild_solve_result(problem, out):
    """Inflate a :func:`resolve_job` dict back into a ``SolveResult``."""
    import numpy as np

    layout = problem.make_layout(np.asarray(out["matrix"], dtype=float))
    utilizations = problem.evaluator().utilizations(layout.matrix)
    return SolveResult(
        layout=layout,
        objective=float(out["objective"]),
        utilizations=utilizations,
        method=out["method"],
        evaluations=0,
        elapsed_s=float(out["solver_time_s"]),
        success=True,
    )


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

class SolverPool:
    """A crash-tolerant process pool shared by every tenant.

    Args:
        workers: Worker process count (also the concurrency cap the
            fair scheduler dispatches against).
        use_processes: ``False`` runs jobs on threads instead — for
            tests and for hosts where forking is unavailable.
    """

    def __init__(self, workers=2, use_processes=True):
        self.max_workers = max(1, int(workers))
        self.use_processes = bool(use_processes)
        #: Incremented every time a broken executor is replaced.
        self.generation = 0
        self._executor = self._make_executor()

    def _make_executor(self):
        if self.use_processes:
            try:
                return ProcessPoolExecutor(max_workers=self.max_workers)
            except (OSError, NotImplementedError):
                self.use_processes = False
        return ThreadPoolExecutor(max_workers=self.max_workers,
                                  thread_name_prefix="repro-serve-solver")

    async def run(self, fn, *args):
        """Run ``fn(*args)`` on the pool; await and return its result.

        A hard worker death surfaces as :class:`PoolCrashError` for the
        affected job only; the executor is rebuilt before the error is
        raised, so the next job runs on a fresh pool.
        """
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, functools.partial(fn, *args)
            )
        except BrokenProcessPool:
            self._rebuild()
            raise PoolCrashError(
                "solver worker died executing %s; pool rebuilt"
                % getattr(fn, "__name__", fn)
            ) from None
        except OSError:
            # Forking refused at submit time (sandboxed host): demote to
            # threads once and retry the job there.
            if self.use_processes:
                self.use_processes = False
                self._rebuild()
                return await loop.run_in_executor(
                    self._executor, functools.partial(fn, *args)
                )
            raise

    def _rebuild(self):
        old = self._executor
        self.generation += 1
        self._executor = self._make_executor()
        try:
            old.shutdown(wait=False)
        except Exception:  # noqa: BLE001 — a broken pool may refuse even this
            pass

    def shutdown(self, wait=True):
        self._executor.shutdown(wait=wait)
