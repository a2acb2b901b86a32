"""The layout advisor: the full Figure-4 pipeline in one call.

``LayoutAdvisor.recommend()`` runs initial-layout construction, the NLP
solve (optionally from several starting points), and — when a regular
layout is requested — the regularization step, and returns every
intermediate stage with its estimated utilizations so callers can
reproduce the paper's Figure 13 stage-by-stage comparison and the
Figure 19 timing breakdown.
"""

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.initial import initial_layout
from repro.core.layout import Layout
from repro.core.regularize import regularize
from repro.core.solver import solve
from repro.core.watchdog import solve_with_watchdog
from repro.obs import ensure_obs


@dataclass
class AdvisorResult:
    """All stages of one advisor run.

    Attributes:
        initial: The Section-4.2 greedy starting layout.
        solver: The (possibly non-regular) NLP solution.
        regular: The regularized layout, or None when regularization was
            not requested.
        utilizations: Estimated µ_j per stage, keyed by stage name
            (``"see"`` is included for comparison, as in Figure 13).
        solver_time_s / regularization_time_s / initial_time_s: Wall
            clock per stage (the paper's Figure 19 columns).
        method: The solve method that produced ``solver``.
        degraded: True when the solve ran under a watchdog budget and a
            fallback rung answered — the layout is valid but weaker
            than an unconstrained solve would give.
        watchdog_rung: Which watchdog rung produced ``solver``
            (``portfolio`` / ``partitioned`` / ``serial`` / ``greedy``;
            empty when no budget was set).
    """

    initial: Layout
    solver: Layout
    regular: Optional[Layout]
    utilizations: Dict[str, np.ndarray] = field(default_factory=dict)
    initial_time_s: float = 0.0
    solver_time_s: float = 0.0
    regularization_time_s: float = 0.0
    method: str = ""
    degraded: bool = False
    watchdog_rung: str = ""

    @property
    def recommended(self):
        """The layout a caller should implement."""
        return self.regular if self.regular is not None else self.solver

    @property
    def total_time_s(self):
        return self.initial_time_s + self.solver_time_s + self.regularization_time_s

    def max_utilization(self, stage):
        return float(np.max(self.utilizations[stage]))

    def to_payload(self):
        """Machine-readable summary of the run.

        The shared JSON shape consumed by ``repro.cli advise --json``,
        the online controller's event log, and the online benchmarks:
        per-object fractions, per-stage max and per-target estimated
        utilizations, solve method, and stage timings.
        """
        layout = self.recommended
        return {
            "layout": layout.fractions_by_name(),
            "targets": list(layout.target_names),
            "objects": list(layout.object_names),
            "max_utilization": {
                stage: float(np.max(values))
                for stage, values in self.utilizations.items()
            },
            "utilizations": {
                stage: {
                    name: float(value)
                    for name, value in zip(layout.target_names, values)
                }
                for stage, values in self.utilizations.items()
            },
            "method": self.method,
            "degraded": self.degraded,
            "watchdog_rung": self.watchdog_rung,
            "initial_time_s": self.initial_time_s,
            "solver_time_s": self.solver_time_s,
            "regularization_time_s": self.regularization_time_s,
            "total_time_s": self.total_time_s,
        }


class LayoutAdvisor:
    """Standalone database storage layout advisor.

    Args:
        problem: The :class:`~repro.core.problem.LayoutProblem` to solve.
        regular: Whether the final layout must be regular (needed when
            the layout mechanism round-robin stripes; see Definition 2).
        restarts: Number of solver starting points (Figure 4 repeat loop).
        method: Solve method, ``"auto"`` / ``"slsqp"`` / ``"coordinate"``
            / ``"anneal"`` / ``"partitioned"``.  ``"partitioned"``
            decomposes the workload overlap graph and solves the pieces
            independently (:mod:`repro.core.partition`) — the scale-out
            path for thousand-object fleets; ``"auto"`` picks it on its
            own above the solver's variable-count threshold.
        seed: RNG seed for restart jitter.
        expert_layouts: Optional domain-expert starting layouts, used as
            extra solver restarts (paper §4.1).
        workers: Process count for the solver's multi-start portfolio;
            ``1`` (the default) keeps every restart in-process, larger
            values fan restarts out over a process pool with
            deterministic per-restart seeds.
        solve_budget_s: Optional wall-clock budget for the solve step.
            When set, the solve runs under
            :func:`~repro.core.watchdog.solve_with_watchdog` rather than
            overrunning.  Its first rung gets the whole budget, so a
            timeout falls straight back to the greedy construction; the
            partitioned and serial rungs answer only after the rung
            above raises.  The result's ``degraded`` /
            ``watchdog_rung`` report which rung answered.
        chaos_hook: Optional no-arg callable run at the start of each
            bounded watchdog rung (fault injection for tests and chaos
            runs); ignored without ``solve_budget_s``.
        obs: Optional :class:`~repro.obs.Instrumentation`.  When given,
            the run is wrapped in an ``advise`` root span with
            ``advise.initial`` / ``advise.solve`` / ``advise.regularize``
            children, per-stage objectives land in the
            ``repro_advise_objective`` gauge, and the evaluator/solver
            feed their own metrics.  The default no-op bundle keeps the
            pipeline uninstrumented at zero cost.
    """

    def __init__(self, problem, regular=True, restarts=1, method="auto",
                 seed=0, expert_layouts=(), workers=1, solve_budget_s=None,
                 chaos_hook=None, obs=None):
        self.problem = problem
        self.regular = regular
        self.restarts = restarts
        self.method = method
        self.seed = seed
        self.expert_layouts = tuple(expert_layouts)
        self.workers = workers
        self.solve_budget_s = solve_budget_s
        self.chaos_hook = chaos_hook
        self.obs = ensure_obs(obs)

    def recommend(self):
        """Run the pipeline and return an :class:`AdvisorResult`."""
        problem = self.problem
        obs = self.obs
        root = obs.tracer.start(
            "advise", n_objects=problem.n_objects,
            n_targets=problem.n_targets, method=self.method,
            restarts=self.restarts, regular=self.regular,
        )
        evaluator = problem.evaluator(metrics=obs.metrics)
        utilizations = {
            "see": evaluator.utilizations(problem.see_layout().matrix)
        }

        start = time.perf_counter()
        with obs.tracer.span("advise.initial"):
            start_layout = initial_layout(problem)
        initial_time = time.perf_counter() - start
        utilizations["initial"] = evaluator.utilizations(start_layout.matrix)

        solve_started = time.perf_counter()
        degraded = False
        watchdog_rung = ""
        with obs.tracer.span("advise.solve", restarts=self.restarts,
                             workers=self.workers) as solve_span:
            if self.solve_budget_s is not None:
                watchdog = solve_with_watchdog(
                    problem,
                    initial=start_layout,
                    budget_s=self.solve_budget_s,
                    method=self.method,
                    restarts=self.restarts,
                    seed=self.seed,
                    expert_layouts=self.expert_layouts,
                    workers=self.workers,
                    chaos_hook=self.chaos_hook,
                    obs=obs,
                )
                solve_result = watchdog.result
                degraded = watchdog.degraded
                watchdog_rung = watchdog.rung
                solve_span.set_tag("rung", watchdog.rung)
                solve_span.set_tag("degraded", watchdog.degraded)
            else:
                solve_result = solve(
                    problem,
                    initial=start_layout,
                    method=self.method,
                    restarts=self.restarts,
                    seed=self.seed,
                    evaluator=evaluator,
                    expert_layouts=self.expert_layouts,
                    workers=self.workers,
                    obs=obs,
                )
            solve_span.set_tag("objective", solve_result.objective)
            solve_span.set_tag("method", solve_result.method)
        # Wall time of the whole solve step (all portfolio starts), the
        # quantity the paper's Figure 19 reports — not just the winning
        # attempt's share.
        solve_wall_time = time.perf_counter() - solve_started
        utilizations["solver"] = solve_result.utilizations

        regular_layout = None
        regularization_time = 0.0
        if self.regular:
            start = time.perf_counter()
            with obs.tracer.span("advise.regularize"):
                regular_layout = regularize(problem, solve_result.layout,
                                            evaluator=evaluator, obs=obs)
            regularization_time = time.perf_counter() - start
            utilizations["regular"] = evaluator.utilizations(regular_layout.matrix)

        result = AdvisorResult(
            initial=start_layout,
            solver=solve_result.layout,
            regular=regular_layout,
            utilizations=utilizations,
            initial_time_s=initial_time,
            solver_time_s=solve_wall_time,
            regularization_time_s=regularization_time,
            method=solve_result.method,
            degraded=degraded,
            watchdog_rung=watchdog_rung,
        )
        if obs.enabled:
            for stage, values in utilizations.items():
                obs.metrics.gauge("repro_advise_objective",
                                  stage=stage).set(float(values.max()))
            for stage, seconds in (
                ("initial", initial_time),
                ("solve", solve_wall_time),
                ("regularize", regularization_time),
            ):
                obs.metrics.gauge("repro_advise_stage_seconds",
                                  stage=stage).set(seconds)
        obs.tracer.finish(
            root, method=result.method,
            objective=result.max_utilization(
                "regular" if regular_layout is not None else "solver"
            ),
        )
        return result

    #: ``advise()`` is the operator-facing alias of :meth:`recommend`.
    advise = recommend
