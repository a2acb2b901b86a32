"""Robust layout across multiple workload scenarios.

The paper recommends one layout per workload description, and its §6.6
comparison shows why that matters: a layout tuned for OLAP1-63 can hurt
under OLAP8-63.  When a system alternates between workloads (daytime
OLTP, nightly batch), an administrator wants a single layout that is
acceptable under *all* of them.  :class:`RobustProblem` extends the
layout problem to a set of workload scenarios and optimizes

    min_L  max_s  max_j  µ_j(W^s, L)

— the worst per-target utilization across every scenario.  It
duck-types :class:`~repro.core.problem.LayoutProblem`, so the solvers,
the regularizer, and the advisor all work on it unchanged.
"""

import numpy as np

from repro import units
from repro.core.objective import ObjectiveEvaluator, layout_count
from repro.core.problem import LayoutProblem
from repro.errors import WorkloadError


class RobustEvaluator:
    """Scenario-wise max of the single-scenario evaluators."""

    def __init__(self, evaluators):
        self.evaluators = list(evaluators)
        self.evaluations = 0

    def utilization_matrix(self, matrix):
        """Elementwise worst-case µ_ij across scenarios.

        Like :meth:`ObjectiveEvaluator.utilization_matrix`, accepts a
        (B, N, M) stack and counts it as B evaluations.
        """
        self.evaluations += layout_count(matrix)
        stacked = [e.utilization_matrix(matrix) for e in self.evaluators]
        return np.maximum.reduce(stacked)

    def utilizations(self, matrix):
        """Per-target worst-case utilization across scenarios (a (B, M)
        array for a (B, N, M) stack)."""
        self.evaluations += layout_count(matrix)
        stacked = [e.utilizations(matrix) for e in self.evaluators]
        return np.maximum.reduce(stacked)

    def objective(self, matrix):
        return float(self.utilizations(matrix).max())

    def object_loads(self, matrix):
        """Worst-case total load per object (regularization order)."""
        stacked = [e.object_loads(matrix) for e in self.evaluators]
        return np.maximum.reduce(stacked)

    def softmax_objective(self, matrix, beta=25.0):
        mu = self.utilizations(matrix)
        peak = mu.max()
        return float(peak + np.log(np.exp(beta * (mu - peak)).sum()) / beta)

    def per_scenario_objectives(self, matrix):
        """The max utilization under each scenario separately."""
        return [e.objective(matrix) for e in self.evaluators]

    # -- incremental evaluation: scenario-wise max of the per-scenario
    #    incremental caches (see ObjectiveEvaluator) -------------------

    def utilizations_with_rows(self, matrix, i, rows):
        stacked = [
            e.utilizations_with_rows(matrix, i, rows) for e in self.evaluators
        ]
        return np.maximum.reduce(stacked)

    def evaluate_rows(self, matrix, i, rows):
        self.evaluations += np.atleast_2d(np.asarray(rows)).shape[0]
        return self.utilizations_with_rows(matrix, i, rows).max(axis=1)

    def utilizations_with_row(self, matrix, i, row):
        return self.utilizations_with_rows(matrix, i, row)[0]

    def objective_with_row(self, matrix, i, row):
        return float(self.utilizations_with_row(matrix, i, row).max())

    def utilizations_without_row(self, matrix, i):
        stacked = [
            e.utilizations_without_row(matrix, i) for e in self.evaluators
        ]
        return np.maximum.reduce(stacked)

    def commit_row(self, i, row):
        for e in self.evaluators:
            e.commit_row(i, row)

    def utilizations_for(self, matrix):
        stacked = [e.utilizations_for(matrix) for e in self.evaluators]
        return np.maximum.reduce(stacked)

    def object_loads_for(self, matrix):
        stacked = [e.object_loads_for(matrix) for e in self.evaluators]
        return np.maximum.reduce(stacked)


class RobustProblem(LayoutProblem):
    """A layout problem with several workload scenarios.

    Args:
        object_sizes: Mapping of object name to size.
        targets: Target specs (shared across scenarios).
        scenarios: Sequence of workload-description lists, one list per
            scenario; every scenario must describe the same objects.
        stripe_size / pinning: As for :class:`LayoutProblem`.
    """

    def __init__(self, object_sizes, targets, scenarios,
                 stripe_size=units.DEFAULT_STRIPE_SIZE, pinning=None):
        scenarios = [list(s) for s in scenarios]
        if not scenarios:
            raise WorkloadError("a robust problem needs at least one scenario")
        super().__init__(object_sizes, targets, scenarios[0],
                         stripe_size=stripe_size, pinning=pinning)
        self.scenario_problems = [self]
        for workloads in scenarios[1:]:
            self.scenario_problems.append(
                LayoutProblem(object_sizes, targets, workloads,
                              stripe_size=stripe_size, pinning=pinning)
            )
        self.n_scenarios = len(scenarios)

    def evaluator(self, metrics=None):
        # Scenario evaluators share the registry: the counters total the
        # real per-scenario evaluation work, one increment per scenario.
        return RobustEvaluator([
            ObjectiveEvaluator(problem, metrics=metrics)
            for problem in self.scenario_problems
        ])

    def objects_by_rate(self):
        """Order objects by their worst-case total request rate."""
        rates = np.zeros(self.n_objects)
        for problem in self.scenario_problems:
            rates = np.maximum(
                rates,
                np.array([w.total_rate for w in problem.workloads]),
            )
        return list(np.argsort(-rates, kind="stable"))