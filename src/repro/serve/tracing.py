"""Per-request distributed traces for the serving layer.

One external request — an advise, a trace-chunk feed, a tenant create —
gets one :class:`RequestTrace`: a private live tracer whose root span
covers the whole request, and a :class:`~repro.obs.TraceContext` that
rides into solver-pool jobs as a plain dict.  The span tree is the
request's only record: the breakdown the access log, the debug ring
and the SLO engine report (queue wait, solve time, watchdog rung,
worker pids) is read from it, never set beside it.  Keeping the tracer
per-request means the hot serving path never contends on one shared
span list, and a finished trace is a self-contained artifact: the ring
buffer and ``/debug/traces/<id>`` can hand it out without touching
live service state.

Threading: the HTTP handler and the scheduler touch a request's trace
from the event loop; feed work touches it from a tenant worker thread —
but never concurrently for the *same* request (the handler awaits the
feed).  All serve-layer spans are started detached with explicit
parents, so the tracer's parent stack is never shared across threads.

A solver-pool job's spans and metrics come home through the request's
bundle: the scheduler hands the job's ``"obs"`` payload to
``rtrace.obs.absorb`` (:meth:`repro.obs.Instrumentation.absorb`), which
anchors the worker's tree, stamped by the worker's own monotonic clock,
so its last finished span lands at the parent-observed arrival time.
"""

import os
import threading
import time
from collections import deque

from repro import jsonl
from repro.obs import Instrumentation, TraceContext

#: Default capacity of the debug trace ring.
DEFAULT_RING = 64

#: Root span names of a solver-pool job's worker-side tree.
WORKER_ROOTS = ("worker.advise", "worker.resolve")


class RequestTrace:
    """The stitched cross-process trace of one request.

    Args:
        route: Short route label (``"advise"``, ``"feed"``, ...).
        tenant: Tenant id, when the route has one.
    """

    def __init__(self, route, tenant=None):
        self.obs = Instrumentation.on()
        self.tracer = self.obs.tracer
        self.ctx = TraceContext.mint()
        self.trace_id = self.ctx.trace_id
        self.route = str(route)
        self.tenant = tenant
        self.status = None
        self.error = None
        self.started_unix = time.time()
        self._closed = False
        tags = {"trace_id": self.trace_id, "route": self.route,
                "pid": os.getpid()}
        if tenant is not None:
            tags["tenant"] = tenant
        self.root = self.tracer.start("request", parent=False,
                                      detached=True, **tags)

    # -- span recording (detached, explicit parents) --------------------

    def start(self, name, parent=None, **tags):
        """Open a detached span under ``parent`` (the root by default)."""
        return self.tracer.start(
            name, parent=parent if parent is not None else self.root,
            detached=True, **tags,
        )

    def finish(self, span, **tags):
        return self.tracer.finish(span, **tags)

    # -- cross-process propagation --------------------------------------

    def worker_context(self, span):
        """The picklable context a worker acting under ``span`` carries."""
        return self.ctx.child(span).to_dict()

    # -- completion -----------------------------------------------------

    def close(self, status=200, error=None):
        """Finish the root span; idempotent (first close wins)."""
        if self._closed:
            return self
        self._closed = True
        self.status = int(status)
        if error is not None:
            self.error = str(error)
            self.root.set_tag("error", self.error)
        self.root.set_tag("status", self.status)
        self.tracer.finish(self.root)
        return self

    @property
    def closed(self):
        return self._closed

    @property
    def duration_s(self):
        return self.root.duration_s

    @property
    def rung(self):
        """The last watchdog rung tagged on a ``pool.dispatch`` span."""
        rungs = [span.tags["rung"] for span in self.tracer.find(
            "pool.dispatch") if "rung" in span.tags]
        return rungs[-1] if rungs else None

    @property
    def worker_pids(self):
        """The ``pid`` tags of the grafted worker root spans."""
        return {int(span.tags["pid"]) for span in self.tracer.spans
                if span.name in WORKER_ROOTS and "pid" in span.tags}

    # -- serialization --------------------------------------------------

    def _total_s(self, *names):
        """The summed duration of the finished spans with these names,
        or None when there is none (a memo hit queues and solves
        nothing)."""
        durations = [span.duration_s for span in self.tracer.spans
                     if span.name in names and span.end_s is not None]
        return round(sum(durations), 6) if durations else None

    def meta(self):
        """The request-summary record (the access-log line's payload).
        Every time in it is read off the span tree: queue wait sums the
        ``scheduler.queue`` spans (a job shed from the queue counts its
        wait), solve time the worker root spans."""
        duration = self.root.duration_s
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "tenant": self.tenant,
            "status": self.status,
            "error": self.error,
            "unix_time": round(self.started_unix, 6),
            "duration_s": (round(duration, 6) if duration is not None
                           else None),
            "queue_wait_s": self._total_s("scheduler.queue"),
            "solve_s": self._total_s(*WORKER_ROOTS),
            "rung": self.rung,
            "worker_pids": sorted(self.worker_pids),
        }

    def to_payload(self):
        """The ``/debug/traces/<id>`` response body."""
        payload = self.meta()
        payload["spans"] = self.tracer.to_records()
        return payload


class TraceRing:
    """Bounded, thread-safe ring of the last N finished request traces."""

    def __init__(self, capacity=DEFAULT_RING):
        self.capacity = max(1, int(capacity))
        self._ring = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def add(self, rtrace):
        with self._lock:
            self._ring.append(rtrace)

    def get(self, trace_id):
        """The trace with this id, or None (capacity is small; a linear
        scan beats maintaining an eviction-synced index)."""
        with self._lock:
            for rtrace in reversed(self._ring):
                if rtrace.trace_id == trace_id:
                    return rtrace
        return None

    def traces(self):
        """Newest-first snapshot of the ring."""
        with self._lock:
            return list(reversed(self._ring))

    def __len__(self):
        with self._lock:
            return len(self._ring)


class AccessLog:
    """Append-only JSONL access log, one line per finished request.

    Lines are written whole under a lock and flushed immediately, so a
    tail -f (or the CI artifact collector) always sees complete JSON.
    The file opens at construction: an unwritable path fails at startup.
    """

    def __init__(self, path):
        self.path = str(path)
        self._log = jsonl.AppendLog(self.path, fsync=False)
        self._log.open()
        self._lock = threading.Lock()
        self._closed = False

    def write(self, entry):
        with self._lock:
            if not self._closed:
                self._log.append(entry)

    def close(self):
        with self._lock:
            if not self._closed:
                self._closed = True
                self._log.close()
