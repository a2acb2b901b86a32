"""Admission control and weighted-fair scheduling of solver work.

Every request that needs solver CPU — an advise, a drift re-solve —
becomes a *job* queued per tenant.  Admission is a single bounded count
across all tenants: when ``max_pending`` jobs are already waiting, new
external work is rejected with :class:`AdmissionError` (the HTTP layer
turns that into a 429), so an overloaded service degrades by shedding
load instead of by growing an unbounded backlog.  Internal follow-up
work (a re-solve spawned by an already-admitted trace chunk) is
pre-admitted: rejecting it would waste the work the service already
accepted.

Dispatch is weighted-fair virtual-time (start-time fair queueing): each
tenant carries a virtual clock that advances by ``charged_seconds /
weight`` per completed job, and the dispatcher always serves the
backlogged tenant with the smallest clock.  A tenant that was idle
re-enters at the current virtual time — fairness does not accumulate
credit while idle — so one large tenant can never starve the rest, and
two tenants at equal weight receive solver time within a small constant
of each other no matter how unequal their demand.

Jobs are dispatched in micro-batches: every scheduling round fills all
free pool slots at once, so a many-core pool starts many small tenant
problems back to back instead of one per event-loop wakeup.
"""

import asyncio
import time
from collections import deque

from repro.errors import ReproError
from repro.obs.metrics import NULL_REGISTRY
from repro.serve.pool import DeadlineError


class AdmissionError(ReproError):
    """The bounded admission queue is full; retry later (HTTP 429)."""


class TenantGoneError(ReproError):
    """The tenant was deleted while this job waited (HTTP 404)."""


class _Job:
    __slots__ = ("key", "fn", "args", "future", "enqueued_s", "rtrace",
                 "queue_span", "deadline")

    def __init__(self, key, fn, args, future, rtrace=None, deadline=None):
        self.key = key
        self.fn = fn
        self.args = args
        self.future = future
        self.enqueued_s = time.perf_counter()
        self.rtrace = rtrace
        self.deadline = deadline  # absolute time.perf_counter() seconds
        self.queue_span = (rtrace.start("scheduler.queue", tenant=key)
                           if rtrace is not None else None)

    def remaining_s(self):
        """Seconds until this job's deadline (None = no deadline)."""
        if self.deadline is None:
            return None
        return float(self.deadline) - time.perf_counter()


class FairScheduler:
    """Bounded, weighted-fair dispatcher over a :class:`SolverPool`.

    Args:
        pool: The shared :class:`~repro.serve.pool.SolverPool`.
        max_pending: Global bound on queued (not yet dispatched) jobs;
            external submits beyond it raise :class:`AdmissionError`.
        metrics: Optional metrics registry (queue depth gauge, admission
            and completion counters, queue-wait histogram); traced
            workers' metrics merge into it too.
    """

    def __init__(self, pool, max_pending=64, metrics=None):
        self.pool = pool
        self.max_pending = int(max_pending)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._queues = {}          # key -> deque[_Job]
        self._weights = {}         # key -> float
        self._vtimes = {}          # key -> virtual time (s / weight)
        self._served_s = {}        # key -> charged solver seconds
        self._jobs_done = {}       # key -> completed job count
        self._vclock = 0.0
        self.pending = 0
        self.inflight = 0
        self.rejected = 0
        self.completed = 0
        self.deadline_shed = 0
        self._wake = asyncio.Event()
        self._task = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self._stopped = False
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="serve-fair-scheduler"
        )
        return self

    async def stop(self):
        """Stop dispatching; queued jobs fail, in-flight jobs finish."""
        self._stopped = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        for key in list(self._queues):
            self._fail_queue(key, ReproError("scheduler stopped"))

    async def join(self):
        """Wait until every queued and in-flight job has completed."""
        while self.pending or self.inflight:
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------

    def register(self, key, weight=1.0):
        weight = float(weight)
        if weight <= 0:
            raise ReproError("tenant weight must be positive")
        self._weights[key] = weight
        # An idle or new tenant enters at the current virtual time: no
        # credit accumulates while away, no debt is carried in.
        self._vtimes[key] = max(self._vtimes.get(key, 0.0), self._vclock)
        self._queues.setdefault(key, deque())
        self._served_s.setdefault(key, 0.0)
        self._jobs_done.setdefault(key, 0)

    def forget(self, key):
        """Drop a tenant: queued jobs fail with :class:`TenantGoneError`
        (in-flight jobs finish on the pool; their results are simply
        discarded by the caller)."""
        self._fail_queue(key, TenantGoneError("tenant %r deleted" % key))
        self._queues.pop(key, None)
        self._weights.pop(key, None)
        self._vtimes.pop(key, None)

    def _fail_queue(self, key, error):
        queue = self._queues.get(key)
        if not queue:
            return
        while queue:
            job = queue.popleft()
            self.pending -= 1
            if job.queue_span is not None:
                job.rtrace.finish(job.queue_span,
                                  error=type(error).__name__)
            if not job.future.done():
                job.future.set_exception(error)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(self, key, fn, *args, preadmitted=False, rtrace=None,
                     deadline=None):
        """Queue ``fn(*args)`` for tenant ``key``; await its result.

        Raises :class:`AdmissionError` when the global bound is hit and
        the job is not ``preadmitted`` (follow-up work of an already
        admitted request bypasses admission — shedding it would waste
        work the service committed to).

        ``rtrace`` (a :class:`~repro.serve.tracing.RequestTrace`) makes
        the job part of that request's distributed trace: the queue
        wait and pool dispatch become spans (the dispatch span tagged
        with the watchdog rung), and the worker result's obs payload is
        grafted under the dispatch span.

        ``deadline`` (absolute ``time.perf_counter()`` seconds) sheds
        the job with :class:`~repro.serve.pool.DeadlineError` — at
        submit when already expired, at dispatch when its queue wait
        ate the whole budget (no worker is wasted on a dead request),
        and clamps the solver watchdog budget to whatever deadline
        remains at dispatch.
        """
        if key not in self._queues:
            raise TenantGoneError("unknown tenant %r" % key)
        if deadline is not None and time.perf_counter() >= deadline:
            self.deadline_shed += 1
            self._count_deadline_shed("submit")
            raise DeadlineError(
                "deadline expired before admission; retry later"
            )
        if not preadmitted and self.pending >= self.max_pending:
            self.rejected += 1
            self.metrics.counter("repro_serve_rejected_total").inc()
            raise AdmissionError(
                "admission queue full (%d pending); retry later"
                % self.pending
            )
        job = _Job(key, fn, args,
                   asyncio.get_running_loop().create_future(),
                   rtrace=rtrace, deadline=deadline)
        self._queues[key].append(job)
        self.pending += 1
        self._gauge()
        self._wake.set()
        return await job.future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _pick(self):
        """The backlogged tenant with the smallest virtual time."""
        best, best_vtime = None, None
        for key, queue in self._queues.items():
            if not queue:
                continue
            vtime = self._vtimes.get(key, 0.0)
            if best_vtime is None or vtime < best_vtime:
                best, best_vtime = key, vtime
        return best

    async def _dispatch_loop(self):
        while not self._stopped:
            await self._wake.wait()
            self._wake.clear()
            while (not self._stopped
                   and self.inflight < self.pool.max_workers):
                key = self._pick()
                if key is None:
                    break
                job = self._queues[key].popleft()
                self.pending -= 1
                remaining = job.remaining_s()
                if remaining is not None and remaining <= 0:
                    # Expired while queued: shed before it wastes a
                    # worker slot (503 + Retry-After at the HTTP layer).
                    self.deadline_shed += 1
                    self._count_deadline_shed("queue")
                    if job.queue_span is not None:
                        job.rtrace.finish(job.queue_span,
                                          error="DeadlineError")
                    if not job.future.done():
                        job.future.set_exception(DeadlineError(
                            "deadline expired after %.3fs in queue; "
                            "retry later"
                            % (time.perf_counter() - job.enqueued_s)
                        ))
                    continue
                self.inflight += 1
                self._vclock = max(self._vclock,
                                   self._vtimes.get(key, 0.0))
                asyncio.get_running_loop().create_task(
                    self._run_job(job)
                )
            self._gauge()

    async def _run_job(self, job):
        started = time.perf_counter()
        self.metrics.histogram(
            "repro_serve_queue_wait_seconds"
        ).observe(started - job.enqueued_s)
        rtrace = job.rtrace
        dispatch_span = None
        args = job.args
        if rtrace is not None:
            rtrace.finish(job.queue_span)
            dispatch_span = rtrace.start(
                "pool.dispatch",
                job=getattr(job.fn, "__name__", str(job.fn)),
                generation=self.pool.generation,
            )
        # By convention the job's last positional argument is its
        # options dict; a copy carries the picklable trace context and
        # the remaining deadline into the worker process.
        remaining = job.remaining_s()
        if args and isinstance(args[-1], dict) \
                and (dispatch_span is not None or remaining is not None):
            options = dict(args[-1])
            if dispatch_span is not None:
                options["trace_ctx"] = rtrace.worker_context(dispatch_span)
            if remaining is not None:
                remaining = max(0.0, remaining)
                # The watchdog budget never exceeds what is left of the
                # request's deadline; a job with no budget of its own
                # inherits the deadline as one.
                budget = options.get("solve_budget_s")
                options["solve_budget_s"] = (
                    remaining if budget is None
                    else min(float(budget), remaining)
                )
                options["deadline_unix"] = time.time() + remaining
            args = args[:-1] + (options,)
        try:
            result = await self.pool.run(job.fn, *args)
            error = None
        except BaseException as exc:  # noqa: BLE001 — forwarded to caller
            result, error = None, exc
        elapsed = time.perf_counter() - started
        if dispatch_span is not None:
            if error is not None:
                dispatch_span.set_tag("error", type(error).__name__)
            rtrace.finish(dispatch_span)
            if isinstance(result, dict):
                rung = result.get("rung")
                if rung:
                    dispatch_span.set_tag("rung", rung)
                # Stitch the worker's span tree under the dispatch span
                # (anchored at result arrival) and fold its metrics
                # into the service registry; the obs payload must not
                # leak into the HTTP response body.
                rtrace.obs.absorb(result.pop("obs", None),
                                  parent=dispatch_span,
                                  end_at=dispatch_span.end_s,
                                  metrics=self.metrics)
        # Charge the worker-measured solver time when the job reports
        # one (it excludes result-transfer overhead); fall back to the
        # dispatch-to-completion wall time.
        charged = elapsed
        if isinstance(result, dict):
            charged = float(result.get("solver_time_s", elapsed))
        key = job.key
        if key in self._weights:
            self._vtimes[key] = (self._vtimes.get(key, 0.0)
                                 + charged / self._weights[key])
        self._served_s[key] = self._served_s.get(key, 0.0) + charged
        self._jobs_done[key] = self._jobs_done.get(key, 0) + 1
        self.inflight -= 1
        self.completed += 1
        self.metrics.counter(
            "repro_serve_jobs_total",
            outcome="error" if error is not None else "ok",
        ).inc()
        if not job.future.done():
            if error is not None:
                job.future.set_exception(error)
            else:
                job.future.set_result(result)
        elif error is not None and isinstance(error, asyncio.CancelledError):
            raise error
        self._wake.set()

    def _gauge(self):
        self.metrics.gauge("repro_serve_queue_depth").set(self.pending)

    def _count_deadline_shed(self, stage):
        self.metrics.counter("repro_serve_deadline_shed_total",
                             stage=stage).inc()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def served_seconds(self, key):
        """Charged solver seconds for one tenant (fairness accounting)."""
        return self._served_s.get(key, 0.0)

    def jobs_done(self, key):
        return self._jobs_done.get(key, 0)

    def fairness_spread(self, keys=None):
        """max/min charged solver time across tenants (1.0 = perfectly
        fair at equal weights); None with fewer than two samples."""
        keys = list(keys if keys is not None else self._served_s)
        samples = [self._served_s.get(k, 0.0) for k in keys]
        samples = [s for s in samples if s > 0]
        if len(samples) < 2:
            return None
        return max(samples) / min(samples)
