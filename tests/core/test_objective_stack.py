"""Stacked (B, N, M) evaluation equals B per-layout evaluations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core.problem import LayoutProblem, TargetSpec
from repro.core.robust import RobustProblem
from repro.models.analytic import (
    analytic_disk_target_model,
    analytic_ssd_target_model,
)
from repro.models.target_model import estimate_utilization_matrix
from repro.obs.metrics import MetricsRegistry
from repro.workload.spec import ObjectWorkload


def _workloads(rng, n):
    names = ["o%d" % i for i in range(n)]
    return [
        ObjectWorkload(
            names[i],
            read_rate=float(rng.uniform(0, 500)),
            write_rate=float(rng.uniform(0, 100)),
            run_count=float(rng.choice([1.0, 4.0, 32.0, 256.0])),
            overlap={names[k]: float(rng.uniform(0, 1))
                     for k in range(n) if k != i and rng.random() < 0.5},
        )
        for i in range(n)
    ]


def _targets(m):
    """Disks, two-member RAID0 groups and SSDs: several model groups."""
    models = [
        analytic_ssd_target_model("t%d" % j) if j % 3 == 2
        else analytic_disk_target_model("t%d" % j, n_members=j % 2 + 1)
        for j in range(m)
    ]
    return [TargetSpec(model.name, units.gib(64), model) for model in models]


def _stack(rng, b, n, m):
    stack = rng.dirichlet(np.ones(m), size=(b, n))
    stack[rng.random((b, n, m)) < 0.3] = 0.0
    return stack


SHAPES = dict(
    seed=st.integers(0, 10_000),
    b=st.integers(1, 9),
    n=st.integers(1, 12),
    m=st.integers(1, 9),
)


@settings(max_examples=40, deadline=None)
@given(**SHAPES)
def test_estimate_utilization_matrix_stack_is_per_layout(seed, b, n, m):
    rng = np.random.default_rng(seed)
    workloads = _workloads(rng, n)
    models = [spec.model for spec in _targets(m)]
    stack = _stack(rng, b, n, m)
    stacked = estimate_utilization_matrix(workloads, stack, models)
    single = np.array([estimate_utilization_matrix(workloads, layout, models)
                       for layout in stack])
    assert stacked.tobytes() == single.tobytes()


@settings(max_examples=40, deadline=None)
@given(**SHAPES)
def test_objective_evaluator_stack_is_per_layout(seed, b, n, m):
    rng = np.random.default_rng(seed)
    workloads = _workloads(rng, n)
    problem = LayoutProblem({w.name: units.mib(10) for w in workloads},
                            _targets(m), workloads)
    metrics = MetricsRegistry()
    evaluator = problem.evaluator(metrics=metrics)
    stack = _stack(rng, b, n, m)
    stacked = evaluator.utilizations(stack)
    assert evaluator.evaluations == b
    assert evaluator.full_evaluations == b
    assert metrics.get("repro_evaluator_full_evaluations_total").value == b
    single = np.array([evaluator.utilizations(layout) for layout in stack])
    assert stacked.shape == (b, m)
    assert stacked.tobytes() == single.tobytes()


@settings(max_examples=25, deadline=None)
@given(**SHAPES)
def test_robust_evaluator_stack_is_per_layout(seed, b, n, m):
    rng = np.random.default_rng(seed)
    first = _workloads(rng, n)
    second = _workloads(rng, n)
    problem = RobustProblem({w.name: units.mib(10) for w in first},
                            _targets(m), [first, second])
    metrics = MetricsRegistry()
    evaluator = problem.evaluator(metrics=metrics)
    stack = _stack(rng, b, n, m)
    stacked = evaluator.utilizations(stack)
    assert evaluator.evaluations == b
    for scenario in evaluator.evaluators:
        assert scenario.full_evaluations == b
    # The scenarios share the registry: one increment per scenario.
    assert (metrics.get("repro_evaluator_full_evaluations_total").value
            == 2 * b)
    single = np.array([evaluator.utilizations(layout) for layout in stack])
    assert stacked.tobytes() == single.tobytes()
