"""Trace analysis: fit Rome-style workload descriptions from I/O traces.

The paper collects kernel block-I/O traces from the operational database
and fits per-object workload parameters with HP's Rubicon tool.  Our
simulator records :class:`~repro.storage.request.CompletionRecord` traces;
this module plays Rubicon's role, estimating request sizes, request
rates, run counts, and pairwise temporal overlaps from a trace.
"""

from collections import defaultdict

from repro.errors import WorkloadError
from repro.workload.spec import ObjectWorkload


class _ObjectStats:
    """Accumulated per-object statistics during a trace pass."""

    def __init__(self):
        self.n_reads = 0
        self.n_writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.n_runs = 0
        self.times = []
        self._last_end = None

    def add(self, record):
        if record.kind == "read":
            self.n_reads += 1
            self.read_bytes += record.size
        else:
            self.n_writes += 1
            self.write_bytes += record.size
        self.times.append(record.finish_time)
        # Runs are measured over the object's time-ordered request
        # stream as a whole, the way a block-trace tool like Rubicon
        # sees it.  Interleaved concurrent scans of the same object
        # therefore fit as a less sequential workload — the effect the
        # paper highlights for LINEITEM under OLAP8-63.
        if record.logical_offset is not None:
            if self._last_end is None or record.logical_offset != self._last_end:
                self.n_runs += 1
            self._last_end = record.logical_offset + record.size
        else:
            self.n_runs += 1

    @property
    def total(self):
        return self.n_reads + self.n_writes


class TraceAnalyzer:
    """Fits per-object workload descriptions from a completion trace.

    Args:
        trace: Iterable of completion records.  Records whose ``obj`` is
            None (e.g. calibration noise) are ignored.
        duration: Observation interval in seconds; inferred from the
            trace extent when omitted.
        window_s: Width of the time windows used to estimate overlaps.
            Two objects overlap in a window when both complete at least
            one request in it; ``O_i[k]`` is the fraction of *i*'s active
            windows in which *k* is also active.
    """

    def __init__(self, trace, duration=None, window_s=1.0):
        self.window_s = float(window_s)
        records = [r for r in trace if r.obj is not None]
        if duration is None:
            if records:
                start = min(r.submit_time for r in records)
                end = max(r.finish_time for r in records)
                duration = max(end - start, 1e-9)
            else:
                duration = 1.0
        self.duration = float(duration)

        self._stats = defaultdict(_ObjectStats)
        for record in sorted(records, key=lambda r: r.finish_time):
            self._stats[record.obj].add(record)

        self._active_windows = {
            obj: frozenset(
                int(t // self.window_s) for t in stats.times
            )
            for obj, stats in self._stats.items()
        }

    @property
    def objects(self):
        """Names of objects observed in the trace."""
        return sorted(self._stats)

    def overlap(self, obj, other):
        """Estimated ``O_i[k]``: fraction of i-active windows with k active."""
        mine = self._active_windows.get(obj, frozenset())
        theirs = self._active_windows.get(other, frozenset())
        if not mine:
            return 0.0
        return len(mine & theirs) / len(mine)

    def fit(self, obj):
        """Fit an :class:`ObjectWorkload` for one object."""
        if obj not in self._stats:
            raise WorkloadError("object %s does not appear in the trace" % obj)
        stats = self._stats[obj]
        read_rate = stats.n_reads / self.duration
        write_rate = stats.n_writes / self.duration
        read_size = stats.read_bytes / stats.n_reads if stats.n_reads else 8192
        write_size = stats.write_bytes / stats.n_writes if stats.n_writes else 8192
        run_count = stats.total / max(1, stats.n_runs)

        overlap = {}
        for other in self.objects:
            if other == obj:
                continue
            value = self.overlap(obj, other)
            if value > 0:
                overlap[other] = value

        return ObjectWorkload(
            name=obj,
            read_size=read_size,
            write_size=write_size,
            read_rate=read_rate,
            write_rate=write_rate,
            run_count=max(1.0, run_count),
            overlap=overlap,
        )

    def fit_all(self, include_idle=()):
        """Fit workloads for every traced object.

        Args:
            include_idle: Extra object names to emit with zero rates, so
                the advisor still lays out objects that saw no I/O during
                the observation interval.
        """
        workloads = [self.fit(obj) for obj in self.objects]
        seen = set(self.objects)
        for name in include_idle:
            if name not in seen:
                workloads.append(ObjectWorkload(name=name))
        return workloads


def fit_workloads(trace, duration=None, window_s=1.0, include_idle=()):
    """Convenience wrapper: fit all object workloads from a trace."""
    analyzer = TraceAnalyzer(trace, duration=duration, window_s=window_s)
    return analyzer.fit_all(include_idle=include_idle)


def summarize_trace(trace):
    """Small human-readable per-object trace summary (for reports/tests)."""
    analyzer = TraceAnalyzer(trace)
    lines = []
    for obj in analyzer.objects:
        spec = analyzer.fit(obj)
        lines.append(
            "%-22s reads/s %8.1f  writes/s %8.1f  runcount %7.1f"
            % (obj, spec.read_rate, spec.write_rate, spec.run_count)
        )
    return "\n".join(lines)
