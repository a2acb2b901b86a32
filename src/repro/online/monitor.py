"""Continuous workload estimation from the live completion stream.

The offline pipeline fits Rome-style workload descriptions from an
archived trace (:mod:`repro.workload.analyzer`).  Online, the same
parameters must track a *moving* workload: the monitor buckets
completions into fixed windows and folds each closed window into
exponentially-decayed aggregates, so the fitted rates, sizes, run
counts, and overlaps follow drift with a configurable half-life while
old phases fade out instead of polluting the estimate forever.
"""

from collections import OrderedDict, defaultdict
from operator import attrgetter

from repro import units
from repro.workload.spec import ObjectWorkload


class _DecayedObjectStats:
    """Exponentially-decayed per-object workload aggregates."""

    def __init__(self):
        # Decayed sums over closed windows.
        self.reads = 0.0
        self.writes = 0.0
        self.read_bytes = 0.0
        self.write_bytes = 0.0
        self.runs = 0.0
        # Current (open) window accumulators.
        self.cur_reads = 0
        self.cur_writes = 0
        self.cur_read_bytes = 0
        self.cur_write_bytes = 0
        self.cur_runs = 0
        self._last_end = None

    def fold(self, decay):
        """Close the current window into the decayed aggregates."""
        self.reads = self.reads * decay + self.cur_reads
        self.writes = self.writes * decay + self.cur_writes
        self.read_bytes = self.read_bytes * decay + self.cur_read_bytes
        self.write_bytes = self.write_bytes * decay + self.cur_write_bytes
        self.runs = self.runs * decay + self.cur_runs
        self.cur_reads = self.cur_writes = 0
        self.cur_read_bytes = self.cur_write_bytes = 0
        self.cur_runs = 0

    def decay_only(self, decay):
        """Age the aggregates across an idle window."""
        self.reads *= decay
        self.writes *= decay
        self.read_bytes *= decay
        self.write_bytes *= decay
        self.runs *= decay

    @property
    def total(self):
        return self.reads + self.writes


class WorkloadMonitor:
    """Sliding-window per-object workload estimation with decay.

    Feed it completion records — live, by registering
    :meth:`observe` as an engine completion observer, or offline by
    replaying a trace — then ask for fitted
    :class:`~repro.workload.spec.ObjectWorkload` descriptions at any
    point in time.

    Args:
        window_s: Bucketing window; also the granularity of overlap
            estimation (two objects overlap in a window when both
            complete at least one request in it).
        halflife_s: Half-life of the exponential decay applied to
            closed windows.  Roughly: the estimate forgets a workload
            phase a few half-lives after it ends.
        overlap_windows: How many recent windows of per-object activity
            to retain for overlap estimation.
    """

    def __init__(self, window_s=2.0, halflife_s=20.0, overlap_windows=64):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if halflife_s <= 0:
            raise ValueError("halflife_s must be positive")
        self.window_s = float(window_s)
        self.halflife_s = float(halflife_s)
        self.overlap_windows = int(overlap_windows)
        #: Decay applied per closed window.
        self.window_decay = 0.5 ** (self.window_s / self.halflife_s)

        self._stats = defaultdict(_DecayedObjectStats)
        self._window = None          # index of the open window
        self._weight = 0.0           # decayed seconds of closed windows
        self._active = defaultdict(OrderedDict)  # obj -> recent windows
        self.observed = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def observe(self, record):
        """Account one completion record (engine observer entry point);
        see :meth:`observe_many`."""
        self.observe_many((record,))

    def observe_many(self, records):
        """Account completion records in order: the one ingest loop.

        Records with ``obj=None`` (calibration noise, migration
        traffic) are ignored.  Timestamps are expected to be
        near-nondecreasing, as completions naturally are; a record
        older than the open window is folded into the open window.
        Leaves the state that one :meth:`observe` call per record
        would.
        """
        window_s = self.window_s
        stats_by_obj = self._stats
        active_by_obj = self._active
        limit = self.overlap_windows
        current = self._window
        observed = 0
        try:
            for record in records:
                obj = record.obj
                if obj is None:
                    continue
                window = int(record.finish_time // window_s)
                if current is None:
                    current = self._window = window
                elif window > current:
                    self._roll(window)
                    current = window
                stats = stats_by_obj[obj]
                size = record.size
                if record.kind == "read":
                    stats.cur_reads += 1
                    stats.cur_read_bytes += size
                else:
                    stats.cur_writes += 1
                    stats.cur_write_bytes += size
                # Run detection over the object's time-ordered request
                # stream, the same rule the offline analyzer applies.
                offset = record.logical_offset
                if offset is None:
                    stats.cur_runs += 1
                else:
                    if offset != stats._last_end:
                        stats.cur_runs += 1
                    stats._last_end = offset + size
                active = active_by_obj[obj]
                active[window if window > current else current] = True
                if len(active) > limit:
                    active.popitem(last=False)
                observed += 1
        finally:
            self.observed += observed

    def advance(self, now):
        """Close windows up to simulated time ``now`` (controller tick)."""
        if self._window is None:
            self._window = int(now // self.window_s)
            return
        window = int(now // self.window_s)
        if window > self._window:
            self._roll(window)

    def _roll(self, new_window):
        decay = self.window_decay
        closed = new_window - self._window      # windows to close (≥ 1)
        idle = closed - 1                       # trailing empty windows
        for stats in self._stats.values():
            stats.fold(decay)
            if idle:
                stats.decay_only(decay ** idle)
        # Every closed window contributes window_s of observation time,
        # decayed by its age relative to the newest closed window — a
        # geometric partial sum; steady state converges to
        # window_s / (1 - decay), so rate = decayed_count / weight is
        # unbiased under a stationary workload.
        if decay < 1.0:
            geometric = (1.0 - decay ** closed) / (1.0 - decay)
        else:
            geometric = float(closed)
        self._weight = self._weight * decay ** closed + self.window_s * geometric
        self._window = new_window

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    @property
    def objects(self):
        """Names of objects observed so far."""
        return sorted(self._stats)

    @property
    def horizon_s(self):
        """Effective (decayed) observation time behind the estimates."""
        return self._weight

    def overlap(self, obj, other):
        """Fraction of ``obj``-active recent windows with ``other`` active."""
        mine = self._active.get(obj)
        if not mine:
            return 0.0
        theirs = self._active.get(other)
        if not theirs:
            return 0.0
        shared = sum(1 for w in mine if w in theirs)
        return shared / len(mine)

    def fit(self, obj):
        """Fitted :class:`ObjectWorkload` for one object (zero-rate when
        the object was never observed or has fully decayed away)."""
        stats = self._stats.get(obj)
        if stats is None or self._weight <= 0 or stats.total <= 0:
            return ObjectWorkload(name=obj)
        read_rate = stats.reads / self._weight
        write_rate = stats.writes / self._weight
        read_size = (stats.read_bytes / stats.reads
                     if stats.reads > 0 else units.DEFAULT_PAGE_SIZE)
        write_size = (stats.write_bytes / stats.writes
                      if stats.writes > 0 else units.DEFAULT_PAGE_SIZE)
        run_count = stats.total / stats.runs if stats.runs > 0 else 1.0

        overlap = {}
        for other in self._stats:
            if other == obj:
                continue
            value = self.overlap(obj, other)
            if value > 0:
                overlap[other] = min(1.0, value)

        return ObjectWorkload(
            name=obj,
            read_size=max(1.0, read_size),
            write_size=max(1.0, write_size),
            read_rate=read_rate,
            write_rate=write_rate,
            run_count=max(1.0, run_count),
            overlap=overlap,
        )

    def workloads(self, names=None):
        """Fitted workloads for ``names`` (default: every observed
        object), including zero-rate specs for never-observed names so
        the full catalog can be re-solved."""
        if names is None:
            names = self.objects
        return [self.fit(name) for name in names]

    def snapshot(self):
        """Compact per-object estimate dict for event logging."""
        out = {}
        for obj in self.objects:
            spec = self.fit(obj)
            out[obj] = {
                "read_rate": round(spec.read_rate, 3),
                "write_rate": round(spec.write_rate, 3),
                "run_count": round(spec.run_count, 2),
            }
        return out

    def decayed_rate(self, obj):
        """Current total request rate estimate for one object."""
        stats = self._stats.get(obj)
        if stats is None or self._weight <= 0:
            return 0.0
        return stats.total / self._weight

    # ------------------------------------------------------------------
    # Durability (serving-layer snapshots)
    # ------------------------------------------------------------------

    def to_state(self):
        """JSON-safe digest of the whole estimation state.

        Captures the decayed aggregates, the open-window accumulators,
        and the per-object activity windows — everything
        :meth:`restore_state` needs to resume estimation exactly where
        a crashed process left off.
        """
        objects = {}
        for name, stats in self._stats.items():
            objects[name] = {
                "reads": stats.reads, "writes": stats.writes,
                "read_bytes": stats.read_bytes,
                "write_bytes": stats.write_bytes, "runs": stats.runs,
                "cur_reads": stats.cur_reads,
                "cur_writes": stats.cur_writes,
                "cur_read_bytes": stats.cur_read_bytes,
                "cur_write_bytes": stats.cur_write_bytes,
                "cur_runs": stats.cur_runs,
                "last_end": stats._last_end,
            }
        return {
            "window_s": self.window_s,
            "halflife_s": self.halflife_s,
            "window": self._window,
            "weight": self._weight,
            "observed": self.observed,
            "objects": objects,
            "active": {name: sorted(windows)
                       for name, windows in self._active.items()},
        }

    def restore_state(self, state):
        """Load a :meth:`to_state` digest into this monitor.

        Tolerant of a digest taken under different tuning (the current
        window/half-life stay in force); a None/empty digest is a
        no-op, so recovery from a pre-durability snapshot still works.
        """
        if not state:
            return self
        self._window = state.get("window")
        self._weight = float(state.get("weight", 0.0))
        self.observed = int(state.get("observed", 0))
        self._stats = defaultdict(_DecayedObjectStats)
        for name, values in (state.get("objects") or {}).items():
            stats = self._stats[name]
            stats.reads = float(values.get("reads", 0.0))
            stats.writes = float(values.get("writes", 0.0))
            stats.read_bytes = float(values.get("read_bytes", 0.0))
            stats.write_bytes = float(values.get("write_bytes", 0.0))
            stats.runs = float(values.get("runs", 0.0))
            stats.cur_reads = int(values.get("cur_reads", 0))
            stats.cur_writes = int(values.get("cur_writes", 0))
            stats.cur_read_bytes = int(values.get("cur_read_bytes", 0))
            stats.cur_write_bytes = int(values.get("cur_write_bytes", 0))
            stats.cur_runs = int(values.get("cur_runs", 0))
            stats._last_end = values.get("last_end")
        self._active = defaultdict(OrderedDict)
        for name, windows in (state.get("active") or {}).items():
            active = self._active[name]
            for window in sorted(windows)[-self.overlap_windows:]:
                active[int(window)] = True
        return self


def replay_into(monitor, records):
    """Feed an iterable of completion records through a monitor in
    timestamp order; returns the monitor for chaining."""
    monitor.observe_many(sorted(records, key=attrgetter("finish_time")))
    return monitor
