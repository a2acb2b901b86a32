"""Tests for LayoutProblem validation and helpers."""

import pytest

from repro import units
from repro.core.problem import LayoutProblem, TargetSpec
from repro.errors import CapacityError, WorkloadError
from repro.models.analytic import analytic_disk_target_model
from repro.workload.spec import ObjectWorkload

from tests.conftest import make_problem


def test_object_order_follows_size_mapping(small_problem):
    assert small_problem.object_names == ["big", "medium", "small"]
    assert small_problem.sizes[0] == units.gib(1)


def test_workloads_matched_by_name():
    problem = make_problem()
    assert [w.name for w in problem.workloads] == problem.object_names


def test_missing_workload_rejected():
    targets = [TargetSpec("t", units.gib(4), analytic_disk_target_model("t"))]
    with pytest.raises(WorkloadError):
        LayoutProblem({"a": units.mib(1)}, targets, [])


def test_extra_workload_rejected():
    targets = [TargetSpec("t", units.gib(4), analytic_disk_target_model("t"))]
    workloads = [ObjectWorkload("a"), ObjectWorkload("ghost")]
    with pytest.raises(WorkloadError):
        LayoutProblem({"a": units.mib(1)}, targets, workloads)


def test_total_capacity_shortfall_rejected():
    targets = [TargetSpec("t", units.mib(1), analytic_disk_target_model("t"))]
    with pytest.raises(CapacityError):
        LayoutProblem({"a": units.mib(100)}, targets, [ObjectWorkload("a")])


def test_objects_by_rate_descends(small_problem):
    order = small_problem.objects_by_rate()
    rates = [small_problem.workloads[i].total_rate for i in order]
    assert rates == sorted(rates, reverse=True)


def test_see_layout_shape(small_problem):
    see = small_problem.see_layout()
    assert see.matrix.shape == (3, 4)
    small_problem.validate_layout(see)


def test_evaluator_round_trip(small_problem):
    evaluator = small_problem.evaluator()
    see = small_problem.see_layout()
    utilizations = evaluator.utilizations(see.matrix)
    assert utilizations.shape == (4,)
    assert (utilizations > 0).all()
    # SEE on identical targets is perfectly balanced.
    assert utilizations.max() == pytest.approx(utilizations.min())


def test_objective_is_max_utilization(small_problem):
    evaluator = small_problem.evaluator()
    see = small_problem.see_layout()
    assert evaluator.objective(see.matrix) == pytest.approx(
        evaluator.utilizations(see.matrix).max()
    )


def test_object_loads_sum_to_total(small_problem):
    evaluator = small_problem.evaluator()
    see = small_problem.see_layout()
    loads = evaluator.object_loads(see.matrix)
    assert loads.sum() == pytest.approx(
        evaluator.utilizations(see.matrix).sum()
    )
