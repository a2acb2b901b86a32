"""Tests for the JSON problem format reader."""

import pytest

from repro.errors import ReproError
from repro.experiments import runner
from repro.models.analytic import analytic_target_model
from repro.problem_io import load_problem
from repro.units import gib, mib


def _problem(**target):
    return {
        "targets": [dict({"name": "r", "capacity": gib(2)}, **target)],
        "objects": [{"name": "a", "size": mib(64), "read_rate": 100}],
    }


def test_raid0_members_default_to_one_on_both_paths(monkeypatch):
    specs = []

    def fake_calibration(spec):
        specs.append(spec)
        return analytic_target_model(spec.name, spec.kind, spec.n_members)

    monkeypatch.setattr(runner, "get_target_model", fake_calibration)
    data = _problem(kind="raid0")
    analytic = load_problem(data).targets[0].model
    load_problem(data, calibrate=True)
    assert analytic.read_model.n_members == 1
    assert specs[0].n_members == 1
    assert specs[0].build().n_members == 1


@pytest.mark.parametrize("calibrate", [False, True])
@pytest.mark.parametrize("members", [0, -2, 1.5, True, "2", None])
@pytest.mark.parametrize("kind", ["raid0", "disk15k"])
def test_bad_members_rejected(monkeypatch, kind, members, calibrate):
    monkeypatch.setattr(runner, "get_target_model", pytest.fail)
    with pytest.raises(ReproError, match=r"^targets\[0\]\.members must be"):
        load_problem(_problem(kind=kind, members=members),
                     calibrate=calibrate)


def test_unknown_kind_names_the_table():
    with pytest.raises(ReproError,
                       match=r"^targets\[0\]\.kind must be one of "
                             r"disk15k/disk7200/ssd/raid0$"):
        load_problem(_problem(kind="raid5"))
