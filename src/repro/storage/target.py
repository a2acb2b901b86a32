"""Storage target: a device plus per-unit queues and accounting.

A target is the unit of layout in the paper — "independent containers into
which data can be stored".  It owns the device, routes incoming requests
to device units, queues them first-come first-served when all servers of
a unit are busy, and records completions into an optional trace for the
workload analyzer.  It also accumulates per-unit busy time, which gives
the *measured* utilization that the advisor's estimated utilizations
(paper Figure 13) are judged against.
"""

import math
from collections import deque

from repro.errors import SimulationError
from repro.storage.request import CompletionRecord, IORequest


class _UnitServer:
    """FCFS queue and in-service bookkeeping for one device unit.

    ``streams`` counts the queued requests of each stream, so the number
    of distinct streams waiting at the unit is ``len(streams)`` without
    a pass over the queue.
    """

    __slots__ = ("unit", "queue", "streams", "in_service", "busy_time")

    def __init__(self, unit):
        self.unit = unit
        self.queue = deque()
        self.streams = {}
        self.in_service = 0
        self.busy_time = 0.0


class StorageTarget:
    """A storage target backed by a :class:`~repro.storage.device.Device`.

    Besides normal operation the target models the degraded states a
    production array exposes (and the fault injector of
    :mod:`repro.faults` drives): a **failed** target errors every
    submission after :data:`ERROR_LATENCY_S` instead of serving it, a
    **stalled** target queues arrivals but dispatches nothing until the
    stall window passes, and a **degraded** target serves everything
    slowed by ``service_scale``.

    Args:
        device: The backing device; its capacity is the target capacity.
        engine: The simulation engine; may be attached later via
            :meth:`bind`.
        trace: Optional list that receives a
            :class:`~repro.storage.request.CompletionRecord` per completed
            request.
    """

    #: Time a request submitted to a failed target takes to come back
    #: with ``failed=True`` (the host's error-return latency; also what
    #: keeps a retrying closed-loop stream from spinning at zero cost).
    ERROR_LATENCY_S = 0.01

    def __init__(self, device, engine=None, trace=None):
        self.device = device
        self.engine = engine
        self.trace = trace
        self._servers = [_UnitServer(unit) for unit in device.units]
        self.completed = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.failed = False
        self.errors = 0
        self.service_scale = 1.0
        self._stalled_until = None

    @property
    def name(self):
        return self.device.name

    @property
    def capacity(self):
        return self.device.capacity

    @property
    def queue_depth(self):
        """Requests waiting (not yet in service) across all units."""
        return sum(len(server.queue) for server in self._servers)

    @property
    def in_service(self):
        """Requests currently being served across all units."""
        return sum(server.in_service for server in self._servers)

    def bind(self, engine, trace=None):
        """Attach the target to a simulation engine (and fresh trace)."""
        self.engine = engine
        if trace is not None:
            self.trace = trace
        return self

    @property
    def stalled(self):
        """True while a stall window is in effect."""
        return self._stalled_until is not None

    @property
    def healthy(self):
        return not self.failed and not self.stalled and self.service_scale == 1.0

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.injector)
    # ------------------------------------------------------------------

    def fail(self):
        """Fail-stop: error all queued requests and every future submit.

        Requests already in service complete normally (the device had
        them); everything waiting in a queue errors out now.
        """
        self.failed = True
        for server in self._servers:
            queue, server.queue = server.queue, deque()
            server.streams.clear()
            for request in queue:
                self._error(request)

    def repair(self):
        """Return the target to full health (clears every fault state)."""
        self.failed = False
        self.service_scale = 1.0
        self._stalled_until = None
        for server in self._servers:
            self._dispatch(server)

    def degrade(self, service_scale):
        """Scale every subsequent service time by ``service_scale``
        (> 1 is slower; 1.0 restores nominal speed)."""
        service_scale = float(service_scale)
        if not (service_scale > 0 and math.isfinite(service_scale)):
            raise SimulationError(
                "service scale must be positive and finite, not %r"
                % service_scale)
        self.service_scale = service_scale

    def stall(self, duration_s):
        """Pause dispatching for ``duration_s``; arrivals queue up and
        in-service requests still complete.  Overlapping stalls extend
        the window rather than shortening it."""
        if self.engine is None:
            raise SimulationError("target %s is not bound to an engine" % self.name)
        duration_s = float(duration_s)
        if not (duration_s >= 0 and math.isfinite(duration_s)):
            raise SimulationError(
                "stall duration must be non-negative and finite, not %r"
                % duration_s)
        until = self.engine.now + duration_s
        if self._stalled_until is None or until > self._stalled_until:
            self._stalled_until = until
            self.engine.schedule(duration_s, self._resume)

    def _resume(self):
        if self._stalled_until is not None and self.engine.now >= self._stalled_until - 1e-12:
            self._stalled_until = None
            for server in self._servers:
                self._dispatch(server)

    def _error(self, request):
        """Complete a request as a failure after the error latency."""
        self.errors += 1
        request.failed = True
        self.engine.schedule(self.ERROR_LATENCY_S, self._error_complete, request)

    def _error_complete(self, request):
        request.finish_time = self.engine.now
        if request.on_complete is not None:
            request.on_complete(request)

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------

    def submit(self, request):
        """Submit a request; splits it if it crosses a unit boundary."""
        engine = self.engine
        if engine is None:
            raise SimulationError("target %s is not bound to an engine" % self.name)
        lba = request.lba
        size = request.size
        device = self.device
        if lba < 0 or lba + size > device.capacity:
            raise SimulationError(
                "request [%d, %d) outside target %s capacity %d"
                % (lba, lba + size, self.name, self.capacity)
            )
        request.submit_time = engine.now
        if self.failed:
            self._error(request)
            return
        limit = device.boundary(lba)
        if size <= limit:
            self._enqueue(request)
        else:
            self._submit_split(request, limit)

    def _submit_split(self, request, first_limit):
        """Split a boundary-crossing request into per-unit fragments.

        The original request completes when every fragment has completed.
        """
        fragments = []
        offset = 0
        limit = first_limit
        while offset < request.size:
            size = min(limit, request.size - offset)
            fragments.append(
                IORequest(
                    stream_id=request.stream_id,
                    kind=request.kind,
                    lba=request.lba + offset,
                    size=size,
                    obj=request.obj,
                    logical_offset=None,
                )
            )
            offset += size
            limit = self.device.boundary(request.lba + offset) if offset < request.size else 0

        state = {"remaining": len(fragments)}

        def fragment_done(fragment):
            state["remaining"] -= 1
            if fragment.failed:
                request.failed = True
            if state["remaining"] == 0:
                request.start_time = request.submit_time
                request.finish_time = self.engine.now
                if request.on_complete is not None:
                    request.on_complete(request)

        for fragment in fragments:
            fragment.on_complete = fragment_done
            fragment.submit_time = request.submit_time
            self._enqueue(fragment)

    def _enqueue(self, request):
        unit_index, request.lba = self.device.route(request.lba)
        server = self._servers[unit_index]
        server.queue.append(request)
        streams = server.streams
        stream_id = request.stream_id
        streams[stream_id] = streams.get(stream_id, 0) + 1
        self._dispatch(server)

    def _dispatch(self, server):
        """Start queued requests, first come first served, while the
        unit has free service slots.

        New arrivals always pass through the queue, so a stream that
        reissues synchronously from its completion callback cannot jump
        ahead of requests that were already waiting.  A request enters
        service seeing ``active_streams``: the distinct streams among
        itself and the requests still queued, plus one per request in
        service.
        """
        if self._stalled_until is not None or self.failed:
            return
        queue = server.queue
        streams = server.streams
        unit = server.unit
        engine = self.engine
        while queue and server.in_service < unit.parallelism:
            request = queue.popleft()
            stream_id = request.stream_id
            waiting = streams[stream_id] - 1
            if waiting:
                streams[stream_id] = waiting
            else:
                del streams[stream_id]
            request.start_time = engine.now
            service = unit.service_time(
                request,
                active_streams=(len(streams) + (stream_id not in streams)
                                + server.in_service),
            ) * self.service_scale
            server.in_service += 1
            server.busy_time += service
            engine.schedule(service, self._complete, server, request)

    def _complete(self, server, request):
        server.in_service -= 1
        engine = self.engine
        request.finish_time = now = engine.now
        self.completed += 1
        if request.kind == "read":
            self.bytes_read += request.size
        else:
            self.bytes_written += request.size
        trace = self.trace
        if trace is not None or engine.has_completion_observers:
            record = CompletionRecord(
                request.submit_time, now, self.device.name, request.obj,
                request.stream_id, request.kind, request.lba,
                request.logical_offset, request.size,
                now - request.start_time,
            )
            if trace is not None:
                trace.append(record)
            engine.notify_completion(record)
        if request.on_complete is not None:
            request.on_complete(request)
        self._dispatch(server)

    def utilization(self, elapsed):
        """Measured utilization: busy time over available server time."""
        if elapsed <= 0:
            return 0.0
        available = sum(
            elapsed * server.unit.parallelism for server in self._servers
        )
        busy = sum(server.busy_time for server in self._servers)
        return busy / available

    def busy_time(self):
        """Total busy time summed over device units."""
        return sum(server.busy_time for server in self._servers)

    def reset(self):
        """Reset device state and accounting for a fresh run."""
        self.device.reset()
        self._servers = [_UnitServer(unit) for unit in self.device.units]
        self.completed = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.failed = False
        self.errors = 0
        self.service_scale = 1.0
        self._stalled_until = None

    def __repr__(self):
        return "StorageTarget(name={!r}, capacity={})".format(
            self.name, self.capacity
        )
