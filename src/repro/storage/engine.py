"""Discrete-event simulation core.

A minimal but fast event loop: a heap of ``(time, sequence, callback,
args)`` entries.  Targets and streams schedule callbacks against it; the
simulation runs until the heap drains (all closed-loop streams finished)
or an explicit horizon is reached.
"""

import heapq

from repro.errors import SimulationError


class SimulationEngine:
    """The simulation clock and event queue.

    Besides scheduling, the engine carries a small completion-observer
    registry: targets publish every
    :class:`~repro.storage.request.CompletionRecord` they produce to the
    registered observers.  This is the hook online components (the
    workload monitor of :mod:`repro.online`) use to watch live traffic
    without owning the trace list.
    """

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._sequence = 0
        self._completion_observers = []

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self):
        """Lifetime count of events taken off the queue and run.

        Every scheduled event gets one sequence number, so this is the
        number scheduled minus the number still pending; the event loop
        pays nothing to keep it.  Exported by the simulator metrics
        collector as ``repro_sim_engine_events_total``.
        """
        return self._sequence - len(self._heap)

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # Written as a negated comparison so a NaN delay is refused too.
        if not delay >= 0:
            raise SimulationError(
                "cannot schedule an event in the past (delay %r)" % (delay,))
        heapq.heappush(
            self._heap, (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not time >= self._now:
            raise SimulationError(
                "cannot schedule an event in the past (time %r)" % (time,))
        heapq.heappush(self._heap, (time, self._sequence, callback, args))
        self._sequence += 1

    def step(self):
        """Run the next event.  Returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _, callback, args = heapq.heappop(self._heap)
        self._now = time
        callback(*args)
        return True

    def run(self, until=None):
        """Run events until the queue drains or ``until`` is reached.

        Returns the final simulated time.
        """
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                time, _, callback, args = pop(heap)
                self._now = time
                callback(*args)
        else:
            while heap and heap[0][0] <= until:
                time, _, callback, args = pop(heap)
                self._now = time
                callback(*args)
            if self._now < until:
                self._now = until
        return self._now

    @property
    def pending(self):
        """Number of events waiting in the queue."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Completion observers
    # ------------------------------------------------------------------

    def add_completion_observer(self, callback):
        """Register ``callback(record)`` for every completed request.

        Targets bound to this engine call :meth:`notify_completion` when
        a request finishes, whether or not they keep a trace list.
        """
        if callback not in self._completion_observers:
            self._completion_observers.append(callback)
        return callback

    def remove_completion_observer(self, callback):
        """Deregister a completion observer (no-op when absent)."""
        try:
            self._completion_observers.remove(callback)
        except ValueError:
            pass

    @property
    def has_completion_observers(self):
        return bool(self._completion_observers)

    def notify_completion(self, record):
        """Publish one completion record to every observer."""
        for callback in self._completion_observers:
            callback(record)
