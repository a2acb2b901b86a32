"""Tests for the storage target kind table."""

import numpy as np
import pytest

from repro import units
from repro.errors import ScenarioError
from repro.models.analytic import analytic_target_model
from repro.scenarios.schema import ScenarioSpec
from repro.storage.device import Device
from repro.storage.kinds import KINDS, build_device

from tests.scenarios.conftest import base_payload


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_builds_a_device_and_an_analytic_model(kind):
    device = build_device(kind, "t", units.gib(1), members=2)
    assert isinstance(device, Device) and device.capacity == units.gib(1)
    assert isinstance(device, KINDS[kind].device)
    model = analytic_target_model("t", kind, members=2)
    for cost in (model.read_model, model.write_model):
        value = cost.lookup(np.array([8192.0]), np.array([1.0]),
                            np.array([1.0]))
        assert np.all(np.isfinite(value)) and np.all(value > 0)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_only_grouped_kinds_use_members(kind):
    one = build_device(kind, "t", units.gib(1))
    three = build_device(kind, "t", units.gib(1), members=3)
    grouped = KINDS[kind].grouped
    assert len(three.units) == len(one.units) * (3 if grouped else 1)
    model = analytic_target_model("t", kind, members=3).read_model
    assert getattr(model, "n_members", 1) == (3 if grouped else 1)


def test_simulator_only_raid_levels_are_not_kinds():
    for kind in ("raid1", "raid5"):
        with pytest.raises(ValueError, match=kind):
            build_device(kind, "r", units.gib(1), members=4)


def _spec_with_kind(kind):
    payload = base_payload()
    payload["targets"][0]["kind"] = kind
    return ScenarioSpec.from_payload(payload, label="unit.yaml")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_schema_accepts_every_table_kind(kind):
    assert _spec_with_kind(kind).targets[0].kind == kind


@pytest.mark.parametrize("kind", ["raid1", "raid5", "tape", "", 1, ["ssd"]])
def test_schema_rejects_kinds_outside_the_table(kind):
    with pytest.raises(ScenarioError, match="targets\\[0\\]\\.kind"):
        _spec_with_kind(kind)
