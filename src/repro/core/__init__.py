"""The layout advisor — the paper's primary contribution.

Pipeline (paper Figure 4): build a valid initial layout, hand the
non-convex minimax program to an NLP solver, and optionally regularize
the solver's fractional layout into equal-share form for layout
mechanisms that only support round-robin striping.
"""

from repro.core.layout import Layout
from repro.core.problem import LayoutProblem, TargetSpec
from repro.core.objective import ObjectiveEvaluator
from repro.core.initial import initial_layout
from repro.core.solver import solve, solve_slsqp, solve_coordinate, SolveResult
from repro.core.anneal import solve_anneal
from repro.core.partition import overlap_partitions, solve_partitioned
from repro.core.migration import (
    MigrationPlan,
    Move,
    migration_cost_seconds,
    plan_migration,
)
from repro.core.regularize import regularize
from repro.core.pinning import PinningConstraints
from repro.core.advisor import LayoutAdvisor, AdvisorResult

__all__ = [
    "Layout",
    "LayoutProblem",
    "TargetSpec",
    "ObjectiveEvaluator",
    "initial_layout",
    "solve",
    "solve_slsqp",
    "solve_coordinate",
    "solve_anneal",
    "solve_partitioned",
    "overlap_partitions",
    "SolveResult",
    "MigrationPlan",
    "Move",
    "migration_cost_seconds",
    "plan_migration",
    "regularize",
    "PinningConstraints",
    "LayoutAdvisor",
    "AdvisorResult",
]
