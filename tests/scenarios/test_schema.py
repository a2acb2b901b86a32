"""Tests for scenario spec validation."""

import pytest

from repro import units
from repro.errors import ScenarioError
from repro.scenarios.schema import ScenarioSpec
from repro.scenarios.yamlio import parse_yaml

from tests.scenarios.conftest import base_payload


def parse(payload):
    return ScenarioSpec.from_payload(payload, label="unit.yaml")


def test_happy_path(payload):
    spec = parse(payload)
    assert spec.name == "unit"
    assert spec.object_sizes == {"hot": units.mib(32),
                                 "cold": units.mib(64)}
    assert spec.sets["all"] == ("hot", "cold")
    assert spec.target_names == ["d0", "d1"]
    mix = spec.mixes["steady"]
    rates = dict((t.name, r) for t, r in mix.task_rates())
    assert rates["read"] == pytest.approx(70.0)
    assert rates["write"] == pytest.approx(30.0)


def test_error_messages_are_one_line_with_path(payload):
    del payload["mixes"]["steady"]["rate"]
    with pytest.raises(ScenarioError) as exc:
        parse(payload)
    message = str(exc.value)
    assert "\n" not in message
    assert "unit.yaml" in message
    assert "mixes.steady.rate" in message


@pytest.mark.parametrize("mutate, fragment", [
    (lambda p: p.pop("name"), "name is required"),
    (lambda p: p.update(duration_s=-1), "duration_s"),
    (lambda p: p.update(seed=-3), "seed"),
    (lambda p: p.update(seed=True), "seed"),
    (lambda p: p.update(objects={}), "objects"),
    (lambda p: p["sets"].update(hot=["cold"]), "collides"),
    (lambda p: p["sets"].update(bad=["nope"]), "unknown object"),
    (lambda p: p["mixes"]["steady"]["tasks"][0].update(objects="nope"),
     "unknown object"),
    (lambda p: p["mixes"]["steady"]["tasks"][0].update(kind="scan"),
     "kind"),
    (lambda p: p["mixes"]["steady"]["tasks"][0].update(weight=0),
     "positive"),
    (lambda p: p.update(schedule=[]), "schedule"),
    (lambda p: p["schedule"][0].update(shape="sawtooth"), "shape"),
    (lambda p: p["schedule"][0].update(mix="nope"), "unknown mix"),
    (lambda p: p["schedule"][0].update(t0=10, t1=5), "t1"),
    (lambda p: p["targets"][0].update(kind="tape"), "kind"),
    (lambda p: p.update(unexpected=1), "unknown top-level key"),
])
def test_validation_failures(mutate, fragment):
    payload = base_payload()
    mutate(payload)
    with pytest.raises(ScenarioError, match=fragment):
        parse(payload)


def test_duplicate_target_names(payload):
    payload["targets"].append(
        {"name": "d0", "kind": "disk15k", "capacity_mib": 100})
    with pytest.raises(ScenarioError, match="duplicates target"):
        parse(payload)


def test_schedule_shapes_parse(payload):
    payload["schedule"] = [
        {"mix": "steady", "shape": "ramp", "t0": 0, "t1": 5,
         "from": 0.2, "to": 1.0},
        {"mix": "steady", "shape": "diurnal", "t0": 5, "t1": 15,
         "mean": 1.0, "amplitude": 0.5, "period_s": 5},
        {"mix": "steady", "shape": "step", "t0": 15, "t1": 20,
         "base": 1.0, "peak": 3.0, "at": 16, "until": 18},
    ]
    spec = parse(payload)
    assert [e.shape for e in spec.schedule] == ["ramp", "diurnal", "step"]
    assert spec.schedule[0].ramp_from == pytest.approx(0.2)


def test_drift_needs_both_mixes(payload):
    payload["schedule"] = [
        {"shape": "drift", "from_mix": "steady", "t0": 0, "t1": 20},
    ]
    with pytest.raises(ScenarioError, match="to_mix"):
        parse(payload)


def test_step_window_must_nest(payload):
    payload["schedule"] = [
        {"mix": "steady", "shape": "step", "t0": 0, "t1": 20,
         "base": 1, "peak": 2, "at": 15, "until": 25},
    ]
    with pytest.raises(ScenarioError, match="until"):
        parse(payload)


def test_faults_compile_to_plan(payload):
    payload["faults"] = [
        {"time": 5, "kind": "stall", "target": "d0", "duration_s": 2},
        {"time": 8, "kind": "degrade", "target": "d1",
         "service_scale": 2.0, "duration_s": 4},
    ]
    spec = parse(payload)
    assert len(spec.fault_plan) == 2
    assert spec.fault_plan.signature()  # FaultPlan contract holds


def test_fault_on_unknown_target(payload):
    payload["faults"] = [
        {"time": 5, "kind": "stall", "target": "nope", "duration_s": 2},
    ]
    with pytest.raises(ScenarioError, match="nope"):
        parse(payload)


def test_tenants_section(payload):
    payload["tenants"] = {"arrival_rate_per_s": 0.5,
                          "mean_lifetime_s": 10, "max_active": 3}
    spec = parse(payload)
    assert spec.tenants.max_active == 3


def test_initial_layout_happy(payload):
    payload["initial_layout"] = {
        "hot": [1.0, 0.0],
        "cold": [0.25, 0.75],
    }
    spec = parse(payload)
    assert spec.initial_layout["cold"] == (0.25, 0.75)


@pytest.mark.parametrize("layout, fragment", [
    ({"hot": [1.0, 0.0]}, "cold"),                      # missing row
    ({"hot": [1.0], "cold": [0.5, 0.5]}, "per target"),  # wrong width
    ({"hot": [0.7, 0.7], "cold": [1, 0]}, "sum to 1"),
    ({"hot": [1.5, -0.5], "cold": [1, 0]}, r"\[0, 1\]"),
    ({"hot": [1, 0], "cold": [1, 0], "x": [1, 0]}, "unknown object"),
])
def test_initial_layout_failures(payload, layout, fragment):
    payload["initial_layout"] = layout
    with pytest.raises(ScenarioError, match=fragment):
        parse(payload)


def test_initial_layout_requires_targets(payload):
    payload.pop("targets")
    payload["initial_layout"] = {"hot": [1.0], "cold": [1.0]}
    with pytest.raises(ScenarioError, match="targets"):
        parse(payload)


@pytest.mark.parametrize("fault", [
    "{time: .nan, kind: fail-stop, target: d0}",
    "{time: 5, kind: degrade, target: d1, service_scale: .inf}",
    "{time: 5, kind: stall, target: d0, duration_s: .inf}",
])
def test_yaml_faults_with_non_finite_values_rejected(payload, fault):
    payload["faults"] = parse_yaml("faults: [%s]" % fault)["faults"]
    with pytest.raises(ScenarioError, match="finite"):
        parse(payload)
