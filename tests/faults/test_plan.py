"""Tests for declarative fault plans: validation, determinism, and
JSON round-trips."""

import json

import pytest

from repro.errors import FaultError
from repro.faults.plan import FaultEvent, FaultPlan

pytestmark = pytest.mark.chaos


def test_events_sorted_by_time():
    plan = FaultPlan([
        FaultEvent(time=30.0, kind="fail-stop", target="t1"),
        FaultEvent(time=10.0, kind="stall", target="t0", duration_s=2.0),
    ])
    assert [e.time for e in plan] == [10.0, 30.0]
    assert len(plan) == 2


@pytest.mark.parametrize("event", [
    FaultEvent(time=1.0, kind="meteor", target="t0"),
    FaultEvent(time=-1.0, kind="fail-stop", target="t0"),
    FaultEvent(time=1.0, kind="fail-stop"),              # no target
    FaultEvent(time=1.0, kind="stall", target="t0"),     # no duration
    FaultEvent(time=1.0, kind="degrade", target="t0", service_scale=0.0),
    FaultEvent(time=1.0, kind="capacity-loss", target="t0",
               capacity_factor=1.5),
    FaultEvent(time=1.0, kind="solver-stall"),           # no duration
])
def test_invalid_events_rejected(event):
    with pytest.raises(FaultError):
        FaultPlan([event])


def test_validate_targets_rejects_unknown_names():
    plan = FaultPlan([FaultEvent(time=1.0, kind="fail-stop", target="t9")])
    with pytest.raises(FaultError):
        plan.validate_targets(["t0", "t1"])
    plan.validate_targets(["t9"])  # and passes when the target exists


def test_kind_partitions():
    plan = FaultPlan([
        FaultEvent(time=1.0, kind="fail-stop", target="t0"),
        FaultEvent(time=2.0, kind="solver-stall", duration_s=1.0),
        FaultEvent(time=3.0, kind="crash"),
    ])
    assert [e.kind for e in plan.target_events] == ["fail-stop"]
    assert [e.kind for e in plan.solver_stalls] == ["solver-stall"]
    assert [e.kind for e in plan.crashes] == ["crash"]


def test_same_seed_same_schedule():
    """The determinism contract: one seed, one fault schedule."""
    names = ["t0", "t1", "t2"]
    first = FaultPlan.random(42, names, horizon_s=100.0, n_faults=5)
    second = FaultPlan.random(42, names, horizon_s=100.0, n_faults=5)
    assert first.signature() == second.signature()
    assert FaultPlan.random(43, names, 100.0, n_faults=5).signature() \
        != first.signature()


def test_random_plan_is_valid_and_windowed():
    names = ["t0", "t1"]
    plan = FaultPlan.random(7, names, horizon_s=200.0, n_faults=8)
    plan.validate_targets(names)
    strikes = [e for e in plan if e.kind != "repair"]
    assert strikes
    for event in strikes:
        assert 20.0 <= event.time <= 180.0  # middle 80% of the horizon


def test_random_plan_one_fail_stop_per_target_with_repair():
    names = ["t0"]
    plan = FaultPlan.random(3, names, horizon_s=100.0, n_faults=20,
                            kinds=("fail-stop",))
    fails = [e for e in plan if e.kind == "fail-stop"]
    repairs = [e for e in plan if e.kind == "repair"]
    assert len(fails) == 1
    assert len(repairs) == 1
    assert repairs[0].time > fails[0].time


def test_random_needs_targets():
    with pytest.raises(FaultError):
        FaultPlan.random(0, [], horizon_s=10.0)


def test_save_load_round_trip(tmp_path):
    plan = FaultPlan.random(11, ["t0", "t1"], horizon_s=60.0, n_faults=4)
    path = tmp_path / "plan.json"
    plan.save(str(path))
    loaded = FaultPlan.load(str(path))
    assert loaded.signature() == plan.signature()


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FaultError):
        FaultPlan.load(str(path))


def test_from_payload_rejects_bad_shapes():
    with pytest.raises(FaultError):
        FaultPlan.from_payload(["not", "a", "dict"])
    with pytest.raises(FaultError):
        FaultPlan.from_payload({"faults": "nope"})
    with pytest.raises(FaultError):
        FaultPlan.from_payload({"faults": [{"time": 1.0, "kind": "stall",
                                            "target": "t0", "bogus": 1}]})


def test_payload_omits_defaults(tmp_path):
    plan = FaultPlan([FaultEvent(time=5.0, kind="fail-stop", target="t0")])
    path = tmp_path / "plan.json"
    plan.save(str(path))
    entry = json.loads(path.read_text())["faults"][0]
    assert entry == {"time": 5.0, "kind": "fail-stop", "target": "t0"}


@pytest.mark.parametrize("field", [
    "time", "duration_s", "service_scale", "capacity_factor",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_parameters_rejected(field, value):
    event = dict(time=1.0, kind="degrade", target="t0", duration_s=1.0,
                 service_scale=2.0)
    event[field] = value
    with pytest.raises(FaultError, match=field):
        FaultPlan([FaultEvent(**event)])


@pytest.mark.parametrize("entry", [
    '{"time": NaN, "kind": "fail-stop", "target": "t0"}',
    '{"time": 1, "kind": "degrade", "target": "t0", "service_scale": Infinity}',
    '{"time": 1, "kind": "stall", "target": "t0", "duration_s": NaN}',
])
def test_json_plan_with_non_finite_values_does_not_load(tmp_path, entry):
    path = tmp_path / "plan.json"
    path.write_text('{"faults": [%s]}' % entry)
    with pytest.raises(FaultError):
        FaultPlan.load(str(path))
