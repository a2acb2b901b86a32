"""Closed-loop request streams driving the storage simulator.

Database I/O is predominantly closed-loop: a scan issues the next page
read when the previous one returns (with OS readahead keeping a window of
requests in flight), and an OLTP terminal issues the next transaction when
the current one commits.  These stream classes model that, issuing
requests through a :class:`SimContext` that resolves object offsets to
physical target addresses via the placement map.
"""

import itertools

from repro import units
from repro.errors import SimulationError
from repro.storage.request import IORequest

_stream_ids = itertools.count(1)


def next_stream_id():
    """Allocate a fresh globally-unique stream identifier."""
    return next(_stream_ids)


class SimContext:
    """Bundles the engine, placement map, and bound targets.

    Args:
        engine: The simulation engine.
        placement: A :class:`~repro.storage.mapping.PlacementMap`.
        targets: Sequence of bound :class:`StorageTarget`, indexed the
            same way as the placement map's fractions.
    """

    def __init__(self, engine, placement, targets):
        self.engine = engine
        self.placement = placement
        self.targets = list(targets)

    def set_placement(self, placement):
        """Swap the placement map (an online layout change).

        Requests already submitted keep the target they were routed to;
        every subsequent :meth:`submit` resolves against the new map.
        This is how the online controller brings a migrated layout into
        effect once the background copy finishes.
        """
        self.placement = placement
        return placement

    def submit(self, obj, offset, size, kind, stream_id, on_complete=None):
        """Issue one request against the target holding this extent."""
        target_index, address = self.placement.locate(obj, offset, size)
        request = IORequest(stream_id, kind, address, size, obj, offset,
                            on_complete)
        self.targets[target_index].submit(request)
        return request


class _ClosedLoopStream:
    """Base for streams that keep up to ``window`` requests in flight.

    A subclass's :meth:`_issue` submits the next request and sets
    ``drained`` once no further request can follow, so a completion
    takes one call to refill the window and none once the stream has
    nothing left to issue.
    """

    def __init__(self, ctx, obj, kind="read", page=units.DEFAULT_PAGE_SIZE,
                 window=1, think_s=0.0, on_done=None):
        if window < 1:
            raise SimulationError("stream window must be at least 1")
        self.ctx = ctx
        self.obj = obj
        self.kind = kind
        self.page = int(page)
        self.window = int(window)
        self.think_s = float(think_s)
        self.on_done = on_done
        self.stream_id = next(_stream_ids)
        self.outstanding = 0
        self.completions = 0
        self.errors = 0
        self.finished = False
        #: True once the stream has no further request to issue.
        self.drained = False
        self._started = False

    def start(self):
        """Begin issuing requests; fills the window."""
        if self._started:
            raise SimulationError("stream already started")
        self._started = True
        for _ in range(self.window):
            if self.drained:
                break
            self._issue()
        if self.drained and not self.outstanding:
            self._finish()
        return self

    def _issue(self):
        """Submit the next request and update ``drained``; called only
        while the stream is not drained."""
        raise NotImplementedError

    def _completed(self, request):
        self.outstanding -= 1
        if request.failed:
            # Errored at a failed target; the stream retries (the next
            # issue re-resolves the placement, which an evacuation may
            # have repaired in the meantime).
            self.errors += 1
        else:
            self.completions += 1
        if self.think_s > 0:
            self.ctx.engine.schedule(self.think_s, self._refill)
        elif not self.drained:
            self._issue()
        elif not self.outstanding:
            self._finish()

    def _refill(self):
        if not self.drained:
            self._issue()
        elif not self.outstanding and not self.finished:
            self._finish()

    def _finish(self):
        self.finished = True
        if self.on_done is not None:
            self.on_done(self)


class ScanStream(_ClosedLoopStream):
    """Sequential scan over a logical range of an object.

    Models a table scan with OS readahead: ``window`` page requests stay
    in flight, offsets strictly increasing.  On a striped layout
    consecutive pages resolve to different targets, so a wide window keeps
    several targets busy — the reason SEE performs tolerably for a single
    sequential scan.
    """

    def __init__(self, ctx, obj, length=None, start=0,
                 page=units.DEFAULT_PAGE_SIZE, window=8, kind="read",
                 think_s=0.0, on_done=None):
        super().__init__(ctx, obj, kind=kind, page=page, window=window,
                         think_s=think_s, on_done=on_done)
        size = ctx.placement.object_size(obj)
        if length is None:
            length = size - start
        if start + length > size:
            raise SimulationError(
                "scan range [%d, %d) beyond object %s size %d"
                % (start, start + length, obj, size)
            )
        self._cursor = int(start)
        self._end = int(start + length)
        self.drained = self._cursor + self.page > self._end

    def _issue(self):
        page = self.page
        offset = self._cursor
        self._cursor = cursor = offset + page
        self.drained = cursor + page > self._end
        self.outstanding += 1
        self.ctx.submit(self.obj, offset, page, self.kind, self.stream_id,
                        self._completed)


class RunStream(_ClosedLoopStream):
    """Random-with-runs access: bursts of ``run_count`` sequential pages.

    This is the calibration workload of Section 5.2.2: request streams
    with a known request size, run count, and (via concurrent streams)
    degree of contention.  ``run_count=1`` is a purely random workload.
    """

    def __init__(self, ctx, obj, n_requests, run_count=1, rng=None,
                 page=units.DEFAULT_PAGE_SIZE, window=1, kind="read",
                 think_s=0.0, on_done=None):
        super().__init__(ctx, obj, kind=kind, page=page, window=window,
                         think_s=think_s, on_done=on_done)
        if run_count < 1:
            raise SimulationError("run count must be at least 1")
        if rng is None:
            import numpy.random
            rng = numpy.random.default_rng(0)
        self.rng = rng
        self.run_count = int(run_count)
        self._remaining = int(n_requests)
        self.drained = self._remaining <= 0
        self._run_left = 0
        self._cursor = 0
        size = ctx.placement.object_size(obj)
        self._n_pages = max(1, size // self.page)

    def _issue(self):
        page = self.page
        if self._run_left <= 0 or self._cursor + page > self._n_pages * page:
            self._cursor = int(self.rng.integers(0, self._n_pages)) * page
            self._run_left = self.run_count
        offset = self._cursor
        self._cursor = offset + page
        self._run_left -= 1
        self._remaining -= 1
        self.drained = self._remaining <= 0
        self.outstanding += 1
        self.ctx.submit(self.obj, offset, page, self.kind, self.stream_id,
                        self._completed)


class RandomStream(RunStream):
    """Uniform random page accesses (a run count of one)."""

    def __init__(self, ctx, obj, n_requests, rng=None,
                 page=units.DEFAULT_PAGE_SIZE, window=1, kind="read",
                 think_s=0.0, on_done=None):
        super().__init__(ctx, obj, n_requests, run_count=1, rng=rng,
                         page=page, window=window, kind=kind,
                         think_s=think_s, on_done=on_done)


class SteadyStream(RunStream):
    """A run stream that keeps issuing until explicitly stopped.

    Used as calibration "competitor" load: it runs alongside the measured
    stream and its completion count yields the realised contention factor.
    """

    def __init__(self, ctx, obj, run_count=1, rng=None,
                 page=units.DEFAULT_PAGE_SIZE, window=1, kind="read",
                 think_s=0.0):
        super().__init__(ctx, obj, n_requests=1, run_count=run_count,
                         rng=rng, page=page, window=window, kind=kind,
                         think_s=think_s, on_done=None)
        self._remaining = 1 << 62

    def stop(self):
        """Stop issuing new requests; in-flight ones still complete."""
        self.drained = True
