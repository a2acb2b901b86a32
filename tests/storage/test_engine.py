"""Tests for the discrete-event simulation core."""

import gc

import pytest

from repro.errors import SimulationError
from repro.storage.engine import SimulationEngine, collector_paused


def test_engine_starts_at_time_zero(engine):
    assert engine.now == 0.0
    assert engine.pending == 0


def test_events_run_in_time_order(engine):
    seen = []
    engine.schedule(3.0, seen.append, "c")
    engine.schedule(1.0, seen.append, "a")
    engine.schedule(2.0, seen.append, "b")
    engine.run()
    assert seen == ["a", "b", "c"]


def test_ties_run_in_schedule_order(engine):
    seen = []
    engine.schedule(1.0, seen.append, "first")
    engine.schedule(1.0, seen.append, "second")
    engine.run()
    assert seen == ["first", "second"]


def test_clock_advances_to_event_time(engine):
    times = []
    engine.schedule(2.5, lambda: times.append(engine.now))
    engine.run()
    assert times == [2.5]
    assert engine.now == 2.5


def test_events_can_schedule_more_events(engine):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(1.0, chain, 1)
    final = engine.run()
    assert seen == [1, 2, 3]
    assert final == 3.0


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected(engine):
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(1.0, lambda: None)


def test_run_until_stops_early(engine):
    seen = []
    engine.schedule(1.0, seen.append, "early")
    engine.schedule(10.0, seen.append, "late")
    engine.run(until=5.0)
    assert seen == ["early"]
    assert engine.now == 5.0
    assert engine.pending == 1
    engine.run()
    assert seen == ["early", "late"]


def test_step_returns_false_when_empty(engine):
    assert engine.step() is False
    engine.schedule(1.0, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_run_returns_final_time(engine):
    engine.schedule(4.5, lambda: None)
    assert engine.run() == 4.5


def test_zero_delay_event_runs_now(engine):
    engine.schedule(1.0, lambda: engine.schedule(0.0, lambda: None))
    engine.run()
    assert engine.now == 1.0


# ----------------------------------------------------------------------
# Completion observers (the online monitor's attachment point)
# ----------------------------------------------------------------------

def _request(obj="x", on_complete=None):
    from repro.storage.request import IORequest

    return IORequest(stream_id=1, kind="read", lba=0, size=8192, obj=obj,
                     logical_offset=0, on_complete=on_complete)


def _target(engine, trace=None):
    from repro import units
    from repro.storage.disk import DiskDrive
    from repro.storage.target import StorageTarget

    return StorageTarget(DiskDrive("d0", units.mib(64)), engine, trace=trace)


def test_no_observers_by_default(engine):
    assert not engine.has_completion_observers


def test_observer_sees_completions_without_a_trace(engine):
    target = _target(engine)        # no trace configured
    seen = []
    engine.add_completion_observer(seen.append)
    target.submit(_request())
    engine.run()
    assert len(seen) == 1
    assert seen[0].obj == "x"
    assert seen[0].target == "d0"


def test_observers_and_trace_see_the_same_record(engine):
    trace = []
    target = _target(engine, trace=trace)
    seen = []
    engine.add_completion_observer(seen.append)
    target.submit(_request())
    engine.run()
    assert seen == trace


def test_multiple_observers_all_notified(engine):
    target = _target(engine)
    first, second = [], []
    engine.add_completion_observer(first.append)
    engine.add_completion_observer(second.append)
    target.submit(_request())
    engine.run()
    assert len(first) == len(second) == 1


def test_removed_observer_stops_seeing(engine):
    target = _target(engine)
    seen = []
    engine.add_completion_observer(seen.append)
    engine.remove_completion_observer(seen.append)
    assert not engine.has_completion_observers
    target.submit(_request())
    engine.run()
    assert seen == []


def test_remove_unknown_observer_is_a_noop(engine):
    engine.remove_completion_observer(lambda record: None)
    assert not engine.has_completion_observers


@pytest.mark.parametrize("delay", [float("nan"), -1e-9])
def test_schedule_rejects_nan_and_negative_delays(engine, delay):
    with pytest.raises(SimulationError):
        engine.schedule(delay, lambda: None)
    assert engine.pending == 0


def test_schedule_at_rejects_nan_time(engine):
    with pytest.raises(SimulationError):
        engine.schedule_at(float("nan"), lambda: None)
    assert engine.pending == 0


def test_events_processed_counts_every_executed_event(engine):
    seen = []

    def chain(n):
        seen.append(engine.events_processed)
        if n:
            engine.schedule(1.0, chain, n - 1)

    engine.schedule(1.0, chain, 2)
    engine.schedule(5.0, lambda: None)
    assert engine.events_processed == 0
    engine.run(until=2.5)
    assert seen == [1, 2]
    assert engine.events_processed == 2
    engine.step()
    assert engine.events_processed == 3
    engine.run()
    assert engine.events_processed == 4
    assert engine.pending == 0


# ----------------------------------------------------------------------
# The collector pause around bulk builds
# ----------------------------------------------------------------------

def test_collector_paused_restores_the_collector_after_an_exception():
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with collector_paused():
            assert not gc.isenabled()
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_collector_paused_leaves_a_paused_collector_paused():
    gc.disable()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_pauses_the_collector_while_events_run(engine):
    seen = []
    engine.schedule(1.0, lambda: seen.append(gc.isenabled()))
    engine.run()
    assert seen == [False]
    assert gc.isenabled()


def test_run_restores_the_collector_when_an_event_raises(engine):
    def fail():
        raise RuntimeError("event failed")

    engine.schedule(1.0, fail)
    with pytest.raises(RuntimeError):
        engine.run()
    assert gc.isenabled()
