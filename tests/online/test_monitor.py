"""Tests for the sliding-window workload monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.monitor import WorkloadMonitor, replay_into
from repro.storage.request import CompletionRecord


def _rec(t, obj="a", kind="read", size=8192, offset=None, stream=1):
    return CompletionRecord(
        submit_time=t - 0.001, finish_time=t, target="t0", obj=obj,
        stream_id=stream, kind=kind, lba=0, logical_offset=offset,
        size=size, service_time=0.001,
    )


def _feed(monitor, obj, rate, t0, t1, kind="read", size=8192):
    n = int(round((t1 - t0) * rate))
    for i in range(n):
        monitor.observe(_rec(t0 + (i + 0.5) / rate, obj=obj, kind=kind,
                             size=size))


def test_steady_rate_is_unbiased():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    _feed(monitor, "a", rate=100.0, t0=0.0, t1=60.0)
    monitor.advance(60.0)
    spec = monitor.fit("a")
    assert spec.read_rate == pytest.approx(100.0, rel=1e-6)
    assert spec.write_rate == 0.0
    assert spec.read_size == pytest.approx(8192)


def test_mixed_kinds_and_sizes():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    records = (
        [_rec((i + 0.5) / 40.0, kind="read", size=8192)
         for i in range(40 * 30)]
        + [_rec((i + 0.5) / 10.0, kind="write", size=4096)
           for i in range(10 * 30)]
    )
    replay_into(monitor, records)
    monitor.advance(30.0)
    spec = monitor.fit("a")
    assert spec.read_rate == pytest.approx(40.0, rel=1e-6)
    assert spec.write_rate == pytest.approx(10.0, rel=1e-6)
    assert spec.write_size == pytest.approx(4096)


def test_old_phase_decays_away():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    _feed(monitor, "a", rate=50.0, t0=0.0, t1=10.0)
    monitor.advance(110.0)   # ten half-lives of silence
    assert monitor.decayed_rate("a") < 0.5
    assert monitor.fit("a").read_rate < 0.5


def test_drift_is_tracked():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=5.0)
    _feed(monitor, "a", rate=200.0, t0=0.0, t1=30.0)
    _feed(monitor, "a", rate=20.0, t0=30.0, t1=90.0)
    monitor.advance(90.0)
    # Several half-lives after the switch the estimate follows the new
    # phase, not the average of both.
    assert monitor.fit("a").read_rate == pytest.approx(20.0, rel=0.05)


def test_untagged_records_ignored():
    monitor = WorkloadMonitor()
    monitor.observe(_rec(1.0, obj=None))
    assert monitor.observed == 0
    assert monitor.objects == []


def test_run_detection_sequential_vs_random():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    # Four runs of eight contiguous pages.
    t = 0.0
    for run in range(4):
        base = run * 100 * 8192
        for i in range(8):
            t += 0.01
            monitor.observe(_rec(t, obj="seq", offset=base + i * 8192))
    # Pure random: every offset discontiguous.
    for i in range(32):
        monitor.observe(_rec(i * 0.01, obj="rnd", offset=i * 3 * 8192))
    monitor.advance(10.0)
    assert monitor.fit("seq").run_count == pytest.approx(8.0)
    assert monitor.fit("rnd").run_count == pytest.approx(1.0)


def test_fit_unobserved_object_is_zero_rate():
    monitor = WorkloadMonitor()
    spec = monitor.fit("ghost")
    assert spec.name == "ghost"
    assert spec.total_rate == 0.0


def test_workloads_cover_requested_catalog():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    _feed(monitor, "a", rate=10.0, t0=0.0, t1=5.0)
    monitor.advance(5.0)
    specs = monitor.workloads(["a", "never"])
    assert [s.name for s in specs] == ["a", "never"]
    assert specs[0].read_rate > 0
    assert specs[1].total_rate == 0.0


def test_overlap_of_concurrent_objects():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    records = (
        [_rec((i + 0.5) / 10.0, obj="a") for i in range(100)]
        + [_rec((i + 0.5) / 10.0, obj="b") for i in range(100)]
        + [_rec(20.0 + (i + 0.5) / 10.0, obj="c") for i in range(100)]
    )
    replay_into(monitor, records)
    monitor.advance(30.0)
    assert monitor.overlap("a", "b") == pytest.approx(1.0)
    assert monitor.overlap("a", "c") == 0.0
    fitted = monitor.fit("a")
    assert fitted.overlap.get("b", 0.0) == pytest.approx(1.0)
    assert "c" not in fitted.overlap


def test_replay_into_sorts_out_of_order_records():
    records = [_rec(t) for t in (5.0, 1.0, 3.0, 2.0, 4.0)]
    sorted_monitor = replay_into(WorkloadMonitor(window_s=1.0), sorted(
        records, key=lambda r: r.finish_time))
    shuffled_monitor = replay_into(WorkloadMonitor(window_s=1.0), records)
    sorted_monitor.advance(6.0)
    shuffled_monitor.advance(6.0)
    assert (shuffled_monitor.fit("a").read_rate
            == pytest.approx(sorted_monitor.fit("a").read_rate))


def test_horizon_is_bounded_by_decay_sum():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    _feed(monitor, "a", rate=10.0, t0=0.0, t1=500.0)
    monitor.advance(500.0)
    limit = monitor.window_s / (1.0 - monitor.window_decay)
    assert monitor.horizon_s <= limit + 1e-9
    assert monitor.horizon_s == pytest.approx(limit, rel=0.01)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WorkloadMonitor(window_s=0.0)
    with pytest.raises(ValueError):
        WorkloadMonitor(halflife_s=0.0)


def test_snapshot_shape():
    monitor = WorkloadMonitor(window_s=1.0, halflife_s=10.0)
    _feed(monitor, "a", rate=10.0, t0=0.0, t1=5.0)
    monitor.advance(5.0)
    snap = monitor.snapshot()
    assert set(snap) == {"a"}
    assert set(snap["a"]) == {"read_rate", "write_rate", "run_count"}


# ----------------------------------------------------------------------
# Batched ingest equals one record at a time
# ----------------------------------------------------------------------

def _reference_observe(monitor, record):
    """One record, as the monitor ingested before it took batches (the
    oracle ``observe_many`` must match)."""
    if record.obj is None:
        return
    window = int(record.finish_time // monitor.window_s)
    if monitor._window is None:
        monitor._window = window
    elif window > monitor._window:
        monitor._roll(window)
    stats = monitor._stats[record.obj]
    if record.kind == "read":
        stats.cur_reads += 1
        stats.cur_read_bytes += record.size
    else:
        stats.cur_writes += 1
        stats.cur_write_bytes += record.size
    if record.logical_offset is not None:
        if stats._last_end is None or record.logical_offset != stats._last_end:
            stats.cur_runs += 1
        stats._last_end = record.logical_offset + record.size
    else:
        stats.cur_runs += 1
    active = monitor._active[record.obj]
    active[max(window, monitor._window)] = True
    if len(active) > monitor.overlap_windows:
        active.popitem(last=False)
    monitor.observed += 1


#: (gap before the record, object, kind, size, offset rule, goes back).
#: Gaps of several windows leave idle windows; a record that goes back
#: lands before the open window.
STEPS = st.lists(st.tuples(
    st.sampled_from([0.0, 0.01, 0.3, 1.7, 9.0]),
    st.sampled_from(["a", "b", "c", None]),
    st.sampled_from(["read", "write"]),
    st.sampled_from([4096, 8192, 65536]),
    st.sampled_from(["none", "next", "jump"]),
    st.booleans(),
), max_size=80)


def _records(steps):
    out, now, ends = [], 1.0, {}
    for gap, obj, kind, size, rule, back in steps:
        now += gap
        offset = {"none": None, "next": ends.get(obj, 0),
                  "jump": 7 * size}[rule]
        if offset is not None:
            ends[obj] = offset + size
        out.append(_rec(now - 5.0 if back else now, obj=obj, kind=kind,
                        size=size, offset=offset))
    return out


def _monitor():
    return WorkloadMonitor(window_s=1.0, halflife_s=3.0, overlap_windows=3)


def _digest(monitor):
    return monitor.to_state(), {obj: list(windows) for obj, windows
                                in monitor._active.items()}


@settings(max_examples=150, deadline=None)
@given(steps=STEPS, cuts=st.lists(st.integers(min_value=0, max_value=80),
                                  max_size=8))
def test_observe_many_equals_one_record_at_a_time(steps, cuts):
    records = _records(steps)
    reference, single, batched = _monitor(), _monitor(), _monitor()
    for record in records:
        _reference_observe(reference, record)
        single.observe(record)
    bounds = sorted({0, len(records)} | {c for c in cuts
                                         if c < len(records)})
    for start, end in zip(bounds, bounds[1:]):
        batched.observe_many(records[start:end])
    assert _digest(single) == _digest(reference)
    assert _digest(batched) == _digest(reference)
