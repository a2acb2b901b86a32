"""Tests for storage target queueing, dispatch, and accounting."""

import pytest

from repro import units
from repro.errors import SimulationError
from repro.storage.disk import DiskDrive
from repro.storage.engine import SimulationEngine
from repro.storage.raid import Raid0Group
from repro.storage.request import IORequest
from repro.storage.ssd import SolidStateDrive
from repro.storage.target import StorageTarget


def _request(lba, size=8192, stream=1, kind="read", on_complete=None):
    return IORequest(stream_id=stream, kind=kind, lba=lba, size=size,
                     on_complete=on_complete)


@pytest.fixture
def target(engine):
    return StorageTarget(DiskDrive("d", units.gib(1)), engine=engine,
                         trace=[])


def test_unbound_target_rejects_requests():
    target = StorageTarget(DiskDrive("d", units.gib(1)))
    with pytest.raises(SimulationError):
        target.submit(_request(0))


def test_out_of_range_request_rejected(engine, target):
    with pytest.raises(SimulationError):
        target.submit(_request(target.capacity))


def test_request_completes_with_timestamps(engine, target):
    done = []
    target.submit(_request(0, on_complete=done.append))
    engine.run()
    assert len(done) == 1
    request = done[0]
    assert request.finish_time > request.submit_time
    assert request.service_time > 0
    assert target.completed == 1


def test_queueing_serializes_disk_requests(engine, target):
    finished = []
    for i in range(3):
        target.submit(_request(units.mib(100 * i), stream=i + 1,
                               on_complete=lambda r: finished.append(r)))
    engine.run()
    assert len(finished) == 3
    # A single-spindle disk serves one at a time: finish times differ.
    times = sorted(r.finish_time for r in finished)
    assert times[0] < times[1] < times[2]


def test_no_starvation_under_synchronous_reissue(engine, target):
    """A stream that reissues from its completion callback must not

    starve other queued streams (regression for the dispatch bug)."""
    counts = {"greedy": 0, "victim": 0}

    def greedy_done(request):
        counts["greedy"] += 1
        if counts["greedy"] < 50:
            target.submit(_request(request.lba + 8192, stream=1,
                                   on_complete=greedy_done))

    def victim_done(request):
        counts["victim"] += 1
        if counts["victim"] < 5:
            target.submit(_request(units.mib(700), stream=2,
                                   on_complete=victim_done))

    target.submit(_request(0, stream=1, on_complete=greedy_done))
    target.submit(_request(units.mib(700), stream=2, on_complete=victim_done))
    engine.run()
    assert counts["victim"] == 5
    assert counts["greedy"] == 50


def test_trace_records_completions(engine, target):
    target.submit(_request(0, stream=7))
    engine.run()
    assert len(target.trace) == 1
    record = target.trace[0]
    assert record.stream_id == 7
    assert record.target == "d"
    assert record.service_time > 0


def test_bytes_accounted_by_kind(engine, target):
    target.submit(_request(0, kind="read"))
    target.submit(_request(units.mib(1), kind="write"))
    engine.run()
    assert target.bytes_read == 8192
    assert target.bytes_written == 8192


def test_utilization_between_zero_and_one(engine, target):
    for i in range(5):
        target.submit(_request(units.mib(i * 50), stream=i))
    engine.run()
    utilization = target.utilization(engine.now)
    assert 0.0 < utilization <= 1.0


def test_utilization_zero_elapsed(target):
    assert target.utilization(0.0) == 0.0


def test_ssd_parallelism_overlaps_service(engine):
    ssd = SolidStateDrive("s", units.gib(1))
    target = StorageTarget(ssd, engine=engine)
    finishes = []
    for i in range(4):
        target.submit(_request(units.mib(i), stream=i,
                               on_complete=lambda r: finishes.append(r.finish_time)))
    engine.run()
    # All four fit in the channels: they finish at the same time.
    assert len(set(round(t, 9) for t in finishes)) == 1


def test_raid_split_request_completes_once(engine):
    raid = Raid0Group("r", units.mib(256) * 2, 2, stripe_unit=units.kib(64))
    target = StorageTarget(raid, engine=engine, trace=[])
    done = []
    # 128 KiB spanning two stripe units on different members.
    target.submit(_request(0, size=units.kib(128), on_complete=done.append))
    engine.run()
    assert len(done) == 1
    # The fragments each completed on their member.
    assert len(target.trace) == 2


def test_raid_members_work_in_parallel(engine):
    raid = Raid0Group("r", units.mib(256) * 2, 2, stripe_unit=units.kib(64))
    target = StorageTarget(raid, engine=engine)
    finishes = []
    su = units.kib(64)
    target.submit(_request(0, stream=1,
                           on_complete=lambda r: finishes.append(r.finish_time)))
    target.submit(_request(su, stream=2,
                           on_complete=lambda r: finishes.append(r.finish_time)))
    engine.run()
    assert finishes[0] == pytest.approx(finishes[1], rel=0.2)


def test_reset_clears_accounting(engine, target):
    target.submit(_request(0))
    engine.run()
    target.reset()
    assert target.completed == 0
    assert target.busy_time() == 0.0


def test_bind_attaches_engine_and_trace():
    target = StorageTarget(DiskDrive("d", units.gib(1)))
    engine = SimulationEngine()
    trace = []
    target.bind(engine, trace)
    target.submit(_request(0))
    engine.run()
    assert len(trace) == 1


def _run_requests(engine, target, n=50):
    for i in range(n):
        target.submit(_request(units.mib(i % 20), stream=i % 3 + 1))
    return engine.run()


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_degrade_rejects_non_positive_or_non_finite_scale(engine, target,
                                                          scale):
    with pytest.raises(SimulationError):
        target.degrade(scale)
    assert target.service_scale == 1.0
    assert _run_requests(engine, target) > 0
    assert target.errors == 0


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
def test_stall_rejects_negative_or_non_finite_duration(engine, target,
                                                       duration):
    with pytest.raises(SimulationError):
        target.stall(duration)
    assert not target.stalled
    elapsed = _run_requests(engine, target)
    assert 0 < elapsed < 10
    assert target.completed == 50
