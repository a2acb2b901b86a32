"""The column-grouped utilization Jacobian against SciPy's own.

``solve_slsqp`` hands SLSQP an explicit Jacobian for ``t - µ_j(L)``
that must be the one SciPy's 2-point finite differences would build,
byte for byte, so that SLSQP takes the same path.  The oracle is
``scipy.optimize._numdiff.approx_derivative`` on the free-variable
program; end to end, the oracle is ``solve_slsqp`` with the Jacobian
dropped so that SciPy finite-differences the constraint itself.
"""

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

from repro import units
from repro.core import solver
from repro.core.initial import initial_layout
from repro.core.pinning import PinningConstraints
from repro.core.problem import LayoutProblem, TargetSpec
from repro.core.robust import RobustProblem
from repro.models.analytic import analytic_disk_target_model
from repro.models.table_model import TableCostModel
from repro.models.target_model import TargetModel
from repro.workload.spec import ObjectWorkload

from tests.conftest import make_problem, make_workloads
from tests.core.test_solver import make_wide_problem


def _sizes():
    return {"big": units.gib(1), "medium": units.mib(300),
            "small": units.mib(100)}


def _robust_problem():
    targets = [
        TargetSpec("t%d" % j, units.gib(2),
                   analytic_disk_target_model("t%d" % j))
        for j in range(4)
    ]
    shifted = [
        ObjectWorkload("big", read_rate=100.0, run_count=1.0),
        ObjectWorkload("medium", read_rate=900.0, write_rate=10.0,
                       run_count=64.0, overlap={"small": 0.7}),
        ObjectWorkload("small", read_rate=300.0, run_count=8.0,
                       overlap={"medium": 0.7}),
    ]
    return RobustProblem(_sizes(), targets, [make_workloads(), shifted])


def _degraded_problem():
    models = [analytic_disk_target_model("t%d" % j) for j in range(4)]
    models[1] = models[1].scaled(2.5)
    targets = [TargetSpec("t%d" % j, units.gib(2), model)
               for j, model in enumerate(models)]
    return LayoutProblem(_sizes(), targets, make_workloads())


def _table_problem():
    rng = np.random.default_rng(3)
    grid = ([4096.0, 65536.0, 1048576.0], [1.0, 8.0, 64.0],
            [0.0, 1.0, 4.0, 16.0])
    table = TargetModel(
        "tab",
        read_model=TableCostModel(*grid, rng.uniform(1e-4, 1e-2, (3, 3, 4))),
        write_model=TableCostModel(*grid,
                                   rng.uniform(1e-4, 1e-2, (3, 3, 4))),
    )
    targets = [TargetSpec("tab", units.gib(2), table)] + [
        TargetSpec("t%d" % j, units.gib(2),
                   analytic_disk_target_model("t%d" % j))
        for j in range(1, 3)
    ]
    return LayoutProblem(_sizes(), targets, make_workloads())


PROBLEMS = {
    "small": make_problem,
    "wide": make_wide_problem,
    "robust": _robust_problem,
    "degraded": _degraded_problem,
    "table": _table_problem,
    "allowed": lambda: make_problem(pinning=PinningConstraints(
        allowed={"big": ["t0", "t1"], "small": ["t2"]})),
    "fixed": lambda: make_problem(pinning=PinningConstraints(
        fixed={"small": [0.5, 0.5, 0.0, 0.0]})),
}


def _starts(problem):
    """Greedy, SEE, random-Dirichlet and one-target-per-row layouts.

    The last puts every free row on an upper bound, so its entries take
    SciPy's backward steps.
    """
    upper, fixed = problem.pinning.resolve(problem.object_names,
                                           problem.target_names)
    rng = np.random.default_rng(11)
    dirichlet = rng.dirichlet(np.ones(problem.n_targets),
                              size=problem.n_objects) * upper
    corner = np.zeros_like(upper)
    corner[np.arange(problem.n_objects), np.argmax(upper, axis=1)] = 1.0
    for matrix in (dirichlet, corner):
        matrix /= matrix.sum(axis=1, keepdims=True)
        for i, row in fixed.items():
            matrix[i] = row
    return {
        "greedy": initial_layout(problem),
        "see": problem.see_layout(),
        "dirichlet": problem.make_layout(dirichlet),
        "corner": problem.make_layout(corner),
    }


class _Captured(Exception):
    pass


def _program(monkeypatch, problem, start):
    """The free-variable program ``solve_slsqp`` hands to SciPy."""
    seen = {}

    def capture(fun, x0, bounds=None, constraints=(), **kwargs):
        seen.update(x0=x0, bounds=bounds, constraints=constraints)
        raise _Captured

    monkeypatch.setattr(solver, "minimize", capture)
    with pytest.raises(_Captured):
        solver.solve_slsqp(problem, start)
    monkeypatch.undo()
    return seen


CASES = [(name, start) for name in PROBLEMS
         for start in ("greedy", "see", "dirichlet", "corner")]


@pytest.mark.parametrize("name,start", CASES)
def test_jacobian_matches_scipy_finite_differences(monkeypatch, name,
                                                   start):
    problem = PROBLEMS[name]()
    program = _program(monkeypatch, problem, _starts(problem)[start])
    utilization = program["constraints"][2]
    bounds = program["bounds"]
    x = program["x0"]
    oracle = np.atleast_2d(approx_derivative(
        utilization["fun"], x, method="2-point", abs_step=solver.FD_STEP,
        bounds=(bounds.lb, bounds.ub),
    ))
    jac = utilization["jac"](x)
    assert jac.shape == oracle.shape
    assert jac.tobytes() == oracle.tobytes()


def test_corner_start_takes_backward_steps(monkeypatch):
    problem = make_problem()
    program = _program(monkeypatch, problem, _starts(problem)["corner"])
    bounds = program["bounds"]
    steps = solver._fd_steps(program["x0"], bounds.lb, bounds.ub)
    assert np.any(steps < 0)
    jac = program["constraints"][2]["jac"](program["x0"])
    # A stepped-back column's structural zeros are -0.0, as in SciPy.
    backward = np.flatnonzero(steps < 0)
    assert np.any(np.signbit(jac[:, backward]) & (jac[:, backward] == 0))


def test_pinned_entries_leave_the_program(monkeypatch):
    problem = PROBLEMS["fixed"]()
    program = _program(monkeypatch, problem, initial_layout(problem))
    # One fixed row of four entries leaves N·M + 1 - 4 free variables.
    nm = problem.n_objects * problem.n_targets
    assert program["x0"].size == nm + 1 - problem.n_targets
    assert len(program["bounds"].lb) == program["x0"].size


def _solve(monkeypatch, problem, start, finite_differences):
    """``solve_slsqp`` plus SciPy's (status, nit); the oracle drops the
    utilization Jacobian so SciPy finite-differences the constraint."""
    real = solver.minimize
    exits = []

    def run(*args, **kwargs):
        if finite_differences:
            constraints = [dict(c) for c in kwargs["constraints"]]
            del constraints[2]["jac"]
            kwargs["constraints"] = constraints
        result = real(*args, **kwargs)
        exits.append((int(result.status), int(result.nit)))
        return result

    monkeypatch.setattr(solver, "minimize", run)
    result = solver.solve_slsqp(problem, start)
    monkeypatch.undo()
    return result, exits


@pytest.mark.parametrize("name,start", CASES)
def test_solve_matches_finite_difference_solve(monkeypatch, name, start):
    problem = PROBLEMS[name]()
    layout = _starts(problem)[start]
    ours, our_exit = _solve(monkeypatch, problem, layout, False)
    oracle, oracle_exit = _solve(monkeypatch, problem, layout, True)
    assert ours.layout.matrix.tobytes() == oracle.layout.matrix.tobytes()
    assert ours.objective == oracle.objective
    assert ours.success == oracle.success
    assert our_exit == oracle_exit
