"""Metrics: counters, gauges, histograms, and sample series.

A :class:`MetricsRegistry` hands out label-scoped instruments memoized
by ``(name, labels)``, so hot paths resolve their instrument once at
setup and pay a bare method call per update.  The disabled counterpart,
:class:`NullRegistry`, hands out shared inert singletons — updating a
null instrument is a no-op method call, and loops that want to pay even
less can guard on ``registry.enabled``.

Instrument semantics follow the Prometheus data model (counters only go
up, histogram buckets are exported cumulatively); :class:`Series` is a
local extension for ordered samples — the solver's per-restart
convergence trajectories — which has no Prometheus equivalent and is
exported only to JSONL.
"""

#: Default histogram buckets, in seconds — spans request service times
#: from SSD hits to overloaded-disk queueing.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels):
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        return self.value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)
        return self.value

    def inc(self, amount=1.0):
        self.value += amount
        return self.value


class Histogram:
    """Fixed-bucket histogram with sum and count.

    Buckets are *upper bounds*; an implicit +Inf bucket catches the
    tail.  Internally counts are per-bucket; export is cumulative, as
    the Prometheus exposition format requires.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self):
        """Per-bucket cumulative counts, +Inf last (== ``count``)."""
        total = 0
        out = []
        for bucket in self.bucket_counts:
            total += bucket
            out.append(total)
        return out

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the q-th sample); None when empty."""
        if not self.count:
            return None
        rank = q * self.count
        for index, cumulative in enumerate(self.cumulative_counts()):
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return float("inf")
        return float("inf")


class Series:
    """Ordered structured samples (e.g. a convergence trajectory)."""

    __slots__ = ("points",)
    kind = "series"

    def __init__(self):
        self.points = []

    def record(self, **fields):
        self.points.append(fields)
        return fields

    def __len__(self):
        return len(self.points)

    def field(self, name):
        """One field of every point, in order (missing points skipped)."""
        return [p[name] for p in self.points if name in p]


class MetricsRegistry:
    """Creates and memoizes instruments by ``(name, labels)``."""

    enabled = True

    def __init__(self):
        self._instruments = {}

    def _get(self, factory, kind, name, labels):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, "gauge", name, labels)

    def histogram(self, name, buckets=DEFAULT_LATENCY_BUCKETS, **labels):
        return self._get(lambda: Histogram(buckets), "histogram", name,
                         labels)

    def series(self, name, **labels):
        return self._get(Series, "series", name, labels)

    # -- inspection -----------------------------------------------------

    def __iter__(self):
        """Yields ``(kind, name, labels_dict, instrument)``."""
        for (kind, name, labels), instrument in self._instruments.items():
            yield kind, name, dict(labels), instrument

    def __len__(self):
        return len(self._instruments)

    def get(self, name, **labels):
        """Look up an existing instrument of any kind, or None."""
        key = _label_key(labels)
        for kind in ("counter", "gauge", "histogram", "series"):
            instrument = self._instruments.get((kind, name, key))
            if instrument is not None:
                return instrument
        return None

    def find(self, name):
        """All ``(labels, instrument)`` pairs registered under a name."""
        return [
            (dict(labels), instrument)
            for (_, n, labels), instrument in self._instruments.items()
            if n == name
        ]

    # -- serialization --------------------------------------------------

    def to_records(self):
        """One JSONL record per instrument."""
        records = []
        for kind, name, labels, instrument in self:
            record = {"type": "metric", "kind": kind, "name": name}
            if labels:
                record["labels"] = labels
            if kind in ("counter", "gauge"):
                record["value"] = instrument.value
            elif kind == "histogram":
                record["buckets"] = list(instrument.bounds)
                record["bucket_counts"] = list(instrument.bucket_counts)
                record["sum"] = instrument.sum
                record["count"] = instrument.count
            else:  # series
                record["points"] = instrument.points
            records.append(record)
        return records

    @classmethod
    def from_records(cls, records):
        """Rebuild a registry from parsed metric records."""
        registry = cls()
        for record in records:
            if record.get("type") != "metric":
                continue
            labels = record.get("labels", {})
            kind = record["kind"]
            name = record["name"]
            if kind == "counter":
                registry.counter(name, **labels).value = record["value"]
            elif kind == "gauge":
                registry.gauge(name, **labels).value = record["value"]
            elif kind == "histogram":
                histogram = registry.histogram(
                    name, buckets=record["buckets"], **labels
                )
                histogram.bucket_counts = list(record["bucket_counts"])
                histogram.sum = record["sum"]
                histogram.count = record["count"]
            elif kind == "series":
                registry.series(name, **labels).points = list(
                    record["points"]
                )
        return registry

    def merge_records(self, records):
        """Fold another registry's serialized records into this one.

        Used to stitch metrics captured inside a worker process back
        into the parent's registry: counters add, a gauge takes the
        remote value (last write wins, as in :meth:`from_records`),
        histogram buckets merge bucket-wise (when the bounds match;
        mismatched bounds fall back to re-observing the remote mean,
        which keeps sum/count exact at bucket-resolution cost), and
        series points are appended in arrival order.
        """
        for record in records:
            if record.get("type") != "metric":
                continue
            labels = record.get("labels", {})
            kind = record["kind"]
            name = record["name"]
            if kind == "counter":
                self.counter(name, **labels).inc(record["value"])
            elif kind == "gauge":
                self.gauge(name, **labels).set(record["value"])
            elif kind == "histogram":
                histogram = self.histogram(
                    name, buckets=record["buckets"], **labels
                )
                if list(histogram.bounds) == [float(b) for b
                                              in record["buckets"]]:
                    for index, bucket in enumerate(record["bucket_counts"]):
                        histogram.bucket_counts[index] += bucket
                    histogram.sum += record["sum"]
                    histogram.count += record["count"]
                else:
                    count = int(record["count"])
                    mean = record["sum"] / count if count else 0.0
                    for _ in range(count):
                        histogram.observe(mean)
            elif kind == "series":
                self.series(name, **labels).points.extend(record["points"])
        return self

    # -- summary --------------------------------------------------------

    def summary(self):
        """Human-readable table of every instrument."""
        lines = []
        for kind, name, labels, instrument in sorted(
            self, key=lambda row: (row[1], sorted(row[2].items()))
        ):
            label_text = ",".join(
                "%s=%s" % kv for kv in sorted(labels.items())
            )
            display = "%s{%s}" % (name, label_text) if label_text else name
            if kind in ("counter", "gauge"):
                value = instrument.value
                text = ("%d" % value if isinstance(value, int)
                        else "%.6g" % value)
            elif kind == "histogram":
                text = ("count %d  mean %.6g  p95 %.6g"
                        % (instrument.count, instrument.mean,
                           instrument.quantile(0.95) or 0.0))
            else:
                text = "%d points" % len(instrument)
            lines.append("  %-58s %s" % (display, text))
        return "\n".join(lines) if lines else "  (no metrics recorded)"


class _NullInstrument:
    """Shared inert instrument answering every update with a no-op."""

    __slots__ = ()
    kind = "null"
    value = 0
    sum = 0.0
    count = 0
    mean = 0.0
    points = ()
    bounds = ()

    def inc(self, amount=1):
        return 0

    def set(self, value):
        return 0.0

    def observe(self, value):
        return None

    def record(self, **fields):
        return fields

    def cumulative_counts(self):
        return []

    def quantile(self, q):
        return None

    def field(self, name):
        return []

    def __len__(self):
        return 0


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name, **labels):
        return NULL_INSTRUMENT

    def gauge(self, name, **labels):
        return NULL_INSTRUMENT

    def histogram(self, name, buckets=DEFAULT_LATENCY_BUCKETS, **labels):
        return NULL_INSTRUMENT

    def series(self, name, **labels):
        return NULL_INSTRUMENT

    def get(self, name, **labels):
        return None

    def find(self, name):
        return []

    def __iter__(self):
        return iter(())

    def __len__(self):
        return 0

    def to_records(self):
        return []

    def merge_records(self, records):
        return self

    def summary(self):
        return "  (metrics disabled)"


NULL_REGISTRY = NullRegistry()
