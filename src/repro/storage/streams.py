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
    """Base for streams that keep up to ``window`` requests in flight."""

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
        self.stream_id = next_stream_id()
        self.outstanding = 0
        self.completions = 0
        self.errors = 0
        self.finished = False
        self._started = False

    def start(self):
        """Begin issuing requests; fills the window."""
        if self._started:
            raise SimulationError("stream already started")
        self._started = True
        for _ in range(self.window):
            if not self._issue():
                break
        self._check_done()
        return self

    def _next_offset(self):
        """Return the next logical offset, or None when exhausted."""
        raise NotImplementedError

    def _issue(self):
        offset = self._next_offset()
        if offset is None:
            return False
        self.outstanding += 1
        self.ctx.submit(self.obj, offset, self.page, self.kind,
                        self.stream_id, self._completed)
        return True

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
        else:
            self._issue()
            self._check_done()

    def _refill(self):
        self._issue()
        self._check_done()

    def _check_done(self):
        if not self.finished and self.outstanding == 0 and self._exhausted():
            self.finished = True
            if self.on_done is not None:
                self.on_done(self)

    def _exhausted(self):
        raise NotImplementedError


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

    def _next_offset(self):
        if self._cursor + self.page > self._end:
            return None
        offset = self._cursor
        self._cursor += self.page
        return offset

    def _exhausted(self):
        return self._cursor + self.page > self._end


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
        self._run_left = 0
        self._cursor = 0
        size = ctx.placement.object_size(obj)
        self._n_pages = max(1, size // self.page)

    def _next_offset(self):
        if self._remaining <= 0:
            return None
        if self._run_left <= 0 or self._cursor + self.page > self._n_pages * self.page:
            self._cursor = int(self.rng.integers(0, self._n_pages)) * self.page
            self._run_left = self.run_count
        offset = self._cursor
        self._cursor += self.page
        self._run_left -= 1
        self._remaining -= 1
        return offset

    def _exhausted(self):
        return self._remaining <= 0


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
        self._stopped = False
        self._remaining = 1 << 62

    def stop(self):
        """Stop issuing new requests; in-flight ones still complete."""
        self._stopped = True
        self._remaining = 0

    def _next_offset(self):
        if self._stopped:
            return None
        return super()._next_offset()

    def _exhausted(self):
        return self._stopped
