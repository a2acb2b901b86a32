"""Tests for metric instruments and the registry: semantics, round-trips,
and the disabled (null) path."""

import pytest

from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    NullRegistry,
    Series,
)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------

def test_counter_only_goes_up():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_inc():
    gauge = Gauge()
    gauge.set(3.5)
    gauge.inc(0.5)
    assert gauge.value == 4.0
    gauge.set(-2)
    assert gauge.value == -2.0


def test_histogram_buckets_are_upper_bounds():
    histogram = Histogram(buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 3.0, 100.0):
        histogram.observe(value)
    # Per-bucket: <=1: {0.5, 1.0}, <=2: {1.5}, <=4: {3.0}, +Inf: {100.0}
    assert histogram.bucket_counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(106.0)


def test_histogram_cumulative_counts_end_at_total():
    histogram = Histogram(buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 9.0):
        histogram.observe(value)
    cumulative = histogram.cumulative_counts()
    assert cumulative == [1, 2, 3, 4]
    assert cumulative[-1] == histogram.count
    # Cumulative counts never decrease (exposition-format invariant).
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))


def test_histogram_sorts_bounds_and_rejects_empty():
    histogram = Histogram(buckets=(4.0, 1.0, 2.0))
    assert histogram.bounds == (1.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_histogram_mean_and_quantile():
    histogram = Histogram(buckets=(1.0, 2.0, 4.0))
    assert histogram.mean == 0.0
    assert histogram.quantile(0.5) is None
    for value in (0.5, 0.5, 0.5, 0.5, 3.0):
        histogram.observe(value)
    assert histogram.mean == pytest.approx(1.0)
    assert histogram.quantile(0.5) == 1.0       # bucket upper bound
    assert histogram.quantile(0.99) == 4.0
    tail = Histogram(buckets=(1.0,))
    tail.observe(50.0)
    assert tail.quantile(0.99) == float("inf")


def test_series_records_ordered_points():
    series = Series()
    series.record(iteration=0, objective=2.0)
    series.record(iteration=1, objective=1.5, accepted=True)
    assert len(series) == 2
    assert series.field("objective") == [2.0, 1.5]
    assert series.field("accepted") == [True]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_registry_memoizes_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("hits", target="d0")
    b = registry.counter("hits", target="d0")
    c = registry.counter("hits", target="d1")
    assert a is b
    assert a is not c
    assert len(registry) == 2


def test_registry_kinds_do_not_collide():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    gauge = registry.gauge("x")
    assert counter is not gauge
    assert registry.get("x") is counter       # counter wins lookup order


def test_registry_get_and_find():
    registry = MetricsRegistry()
    registry.counter("reqs", target="d0").inc(2)
    registry.counter("reqs", target="d1").inc(3)
    assert registry.get("reqs", target="d1").value == 3
    assert registry.get("missing") is None
    found = registry.find("reqs")
    assert sorted(labels["target"] for labels, _ in found) == ["d0", "d1"]


def test_registry_iteration_yields_label_dicts():
    registry = MetricsRegistry()
    registry.gauge("util", target="ssd").set(0.5)
    rows = list(registry)
    assert rows[0][0] == "gauge"
    assert rows[0][1] == "util"
    assert rows[0][2] == {"target": "ssd"}


def test_registry_records_round_trip():
    registry = MetricsRegistry()
    registry.counter("c", k="v").inc(7)
    registry.gauge("g").set(1.25)
    histogram = registry.histogram("h", buckets=(1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(5.0)
    registry.series("s", attempt=0).record(iteration=0, objective=2.0)

    rebuilt = MetricsRegistry.from_records(registry.to_records())
    assert rebuilt.get("c", k="v").value == 7
    assert rebuilt.get("g").value == 1.25
    loaded = rebuilt.get("h")
    assert loaded.bounds == (1.0, 2.0)
    assert loaded.bucket_counts == histogram.bucket_counts
    assert loaded.cumulative_counts() == histogram.cumulative_counts()
    assert loaded.sum == histogram.sum
    assert loaded.count == 2
    assert rebuilt.get("s", attempt=0).field("objective") == [2.0]


def test_registry_from_records_skips_foreign_records():
    rebuilt = MetricsRegistry.from_records([
        {"type": "span", "id": 1, "name": "x", "start_s": 0.0},
        {"type": "meta", "format": 1},
        {"type": "metric", "kind": "counter", "name": "c", "value": 2},
    ])
    assert len(rebuilt) == 1
    assert rebuilt.get("c").value == 2


def test_merge_records_folds_each_kind_by_its_rule():
    """Worker metrics come home through merge_records: counters add, a
    gauge takes the last write, histogram buckets add when the bounds
    match (else the remote mean is re-observed), series points append."""
    worker = MetricsRegistry()
    worker.counter("c", k="v").inc(3)
    worker.gauge("g", stage="see").set(0.25)
    worker.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
    other = worker.histogram("m", buckets=(5.0,))
    other.observe(3.0)
    other.observe(5.0)
    worker.series("s", attempt=0).record(objective=2.0)

    parent = MetricsRegistry()
    parent.series("s", attempt=0).record(objective=3.0)
    parent.histogram("m", buckets=(1.0, 2.0))
    records = worker.to_records()
    parent.merge_records(records)
    parent.merge_records(records)

    assert parent.get("c", k="v").value == 6
    assert parent.get("g", stage="see").value == 0.25
    merged = parent.get("h")
    assert merged.bucket_counts == [0, 2, 0]
    assert (merged.sum, merged.count) == (3.0, 2)
    mismatched = parent.get("m")
    assert mismatched.bounds == (1.0, 2.0)
    assert mismatched.bucket_counts == [0, 0, 4]
    assert (mismatched.sum, mismatched.count) == (16.0, 4)
    assert parent.get("s", attempt=0).field("objective") == [3.0, 2.0, 2.0]
    assert NULL_REGISTRY.merge_records(records) is NULL_REGISTRY


def test_registry_summary_mentions_every_instrument():
    registry = MetricsRegistry()
    registry.counter("hits", target="d0").inc()
    registry.histogram("lat", buckets=(1.0,)).observe(0.5)
    text = registry.summary()
    assert "hits{target=d0}" in text
    assert "lat" in text
    assert MetricsRegistry().summary() == "  (no metrics recorded)"


def test_default_latency_buckets_are_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


# ----------------------------------------------------------------------
# Null path
# ----------------------------------------------------------------------

def test_null_registry_hands_out_shared_inert_instrument():
    null = NullRegistry()
    assert null.enabled is False
    counter = null.counter("anything", label="x")
    assert counter is NULL_INSTRUMENT
    assert counter is null.gauge("other")
    assert counter is null.histogram("h")
    assert counter is null.series("s")
    counter.inc(10)
    counter.set(5)
    counter.observe(1.0)
    counter.record(objective=1.0)
    assert counter.value == 0
    assert counter.count == 0
    assert len(null) == 0
    assert list(null) == []
    assert null.get("anything") is None
    assert null.find("anything") == []
    assert null.to_records() == []


def test_shared_null_registry_is_disabled():
    assert NULL_REGISTRY.enabled is False
    assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
