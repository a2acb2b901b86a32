"""Tests for the NLP solve step."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import units
from repro.core.initial import initial_layout
from repro.core.pinning import PinningConstraints
from repro.core.solver import (
    PARALLEL_MIN_VARIABLES,
    SLSQP_VARIABLE_LIMIT,
    _renormalize_row,
    _snap,
    solve,
    solve_coordinate,
    solve_slsqp,
)

from repro.obs import Instrumentation

from tests.conftest import make_problem


def make_wide_problem(n_objects=16, n_targets=4):
    """A problem with enough layout variables to engage the process pool."""
    from repro.core.problem import LayoutProblem, TargetSpec
    from repro.models.analytic import analytic_disk_target_model
    from repro.workload.spec import ObjectWorkload

    rng = np.random.default_rng(42)
    sizes = {}
    workloads = []
    names = ["obj%02d" % i for i in range(n_objects)]
    for i, name in enumerate(names):
        sizes[name] = units.mib(50 + 10 * i)
        overlap = {names[(i + 1) % n_objects]: 0.5} if i % 2 == 0 else {}
        workloads.append(ObjectWorkload(
            name,
            read_rate=float(rng.integers(50, 400)),
            write_rate=float(rng.integers(0, 100)),
            run_count=float(rng.integers(1, 32)),
            overlap=overlap,
        ))
    targets = [
        TargetSpec("t%d" % j, units.gib(8),
                   analytic_disk_target_model("t%d" % j))
        for j in range(n_targets)
    ]
    return LayoutProblem(sizes, targets, workloads)


@pytest.fixture
def problem():
    return make_problem()


def test_slsqp_improves_on_initial(problem):
    start = initial_layout(problem)
    evaluator = problem.evaluator()
    before = evaluator.objective(start.matrix)
    result = solve_slsqp(problem, start, evaluator=evaluator)
    assert result.objective <= before + 1e-9
    assert result.method == "slsqp"


def test_slsqp_beats_see(problem):
    """The solver must find something at least as good as SEE — the

    paper's core claim that optimization dominates the heuristic."""
    evaluator = problem.evaluator()
    see_value = evaluator.objective(problem.see_layout().matrix)
    result = solve_slsqp(problem, initial_layout(problem),
                         evaluator=evaluator)
    assert result.objective <= see_value * 1.001


def test_slsqp_result_is_valid(problem):
    result = solve_slsqp(problem, initial_layout(problem))
    problem.validate_layout(result.layout)


def test_slsqp_exit_status_is_counted(problem):
    obs = Instrumentation.on()
    solve_slsqp(problem, initial_layout(problem), obs=obs)
    assert obs.metrics.get("repro_solver_slsqp_exits_total",
                           status=0).value == 1


def test_slsqp_fixed_row_exit_is_visible():
    """A fixed row's integrity constraint has no free variable left, so
    SLSQP stops with "Singular matrix C in LSQ subproblem" (status 6);
    the counter makes that exit visible instead of silent."""
    problem = make_problem(pinning=PinningConstraints(
        fixed={"small": [0.5, 0.5, 0.0, 0.0]}))
    obs = Instrumentation.on()
    result = solve_slsqp(problem, initial_layout(problem), obs=obs)
    assert not result.success
    exits = obs.metrics.find("repro_solver_slsqp_exits_total")
    assert [(labels, counter.value) for labels, counter in exits] == [
        ({"status": 6}, 1)]


def test_solver_separates_interfering_objects(problem):
    """big and medium overlap heavily and are sequential: a good layout

    gives them disjoint target sets."""
    result = solve(problem, restarts=1)
    big = set(np.nonzero(result.layout.row("big") > 0.02)[0])
    medium = set(np.nonzero(result.layout.row("medium") > 0.02)[0])
    assert not (big & medium)


def test_coordinate_improves_on_initial(problem):
    start = initial_layout(problem)
    evaluator = problem.evaluator()
    before = evaluator.objective(start.matrix)
    result = solve_coordinate(problem, start, evaluator=evaluator)
    assert result.objective <= before + 1e-9
    assert result.method == "coordinate"
    problem.validate_layout(result.layout)


def test_auto_picks_method_by_size(problem):
    result = solve(problem, method="auto")
    expected = (
        "slsqp"
        if problem.n_objects * problem.n_targets <= SLSQP_VARIABLE_LIMIT
        else "coordinate"
    )
    # A coordinate polish pass may be appended when it improves the
    # solution; the base method is still the expected one.
    assert result.method.split("+")[0] == expected


def test_explicit_method_is_respected(problem):
    assert solve(problem, method="coordinate").method == "coordinate"


def test_expert_layouts_are_considered(problem):
    """A domain-expert starting layout that happens to be optimal must

    not be ignored (paper §4.1)."""
    from repro.core.layout import Layout

    good = solve(problem, restarts=2).layout
    result = solve(problem, expert_layouts=[good])
    assert result.objective <= solve(problem).objective + 1e-9


def test_invalid_expert_layout_rejected(problem):
    import numpy as np
    import pytest as _pytest
    from repro.core.layout import Layout
    from repro.errors import LayoutError

    bad = Layout(
        np.full((problem.n_objects, problem.n_targets), 0.4),
        problem.object_names, problem.target_names,
    )
    with _pytest.raises(LayoutError):
        solve(problem, expert_layouts=[bad])


def test_restarts_never_hurt(problem):
    single = solve(problem, restarts=1, seed=3)
    multi = solve(problem, restarts=3, seed=3)
    assert multi.objective <= single.objective + 1e-9


def test_pinning_respected_by_both_methods():
    pinning = PinningConstraints(allowed={"big": ["t0", "t1"]})
    problem = make_problem(pinning=pinning)
    for method in ("slsqp", "coordinate"):
        result = solve(problem, method=method)
        row = result.layout.row("big")
        assert row[2] == 0.0
        assert row[3] == 0.0


def test_fixed_rows_survive_solving():
    pinning = PinningConstraints(fixed={"small": [1.0, 0.0, 0.0, 0.0]})
    problem = make_problem(pinning=pinning)
    for method in ("slsqp", "coordinate"):
        result = solve(problem, method=method)
        assert result.layout.row("small").tolist() == [1.0, 0.0, 0.0, 0.0]


def test_capacity_constraint_enforced():
    """Squeeze capacity so 'big' cannot sit on one target alone."""
    problem = make_problem(capacity=units.mib(700))
    result = solve(problem)
    assigned = problem.sizes @ result.layout.matrix
    assert np.all(assigned <= problem.capacities * (1 + 1e-6))


def test_result_diagnostics_populated(problem):
    result = solve(problem)
    assert result.elapsed_s > 0
    assert result.evaluations > 0
    assert result.utilizations.shape == (4,)
    assert result.objective == pytest.approx(result.utilizations.max())


def test_serial_restarts_report_lifetime_evaluations(problem):
    """Regression: serial restarts share one evaluator, and each restart
    result snapshots the counter at its own finish — so when an *early*
    restart wins, the reported count silently dropped everything later
    restarts spent.  Both the serial and parallel paths must report the
    evaluator's lifetime total."""
    evaluator = problem.evaluator()
    result = solve(problem, method="coordinate", restarts=3, seed=0,
                   evaluator=evaluator, workers=1)
    assert result.evaluations == evaluator.evaluations

    # A single-start solve does strictly less work, so the multi-start
    # count can only be a lifetime total, never one restart's snapshot.
    single = solve(problem, method="coordinate", restarts=1, seed=0,
                   workers=1)
    assert result.evaluations > single.evaluations


# ----------------------------------------------------------------------
# Warm-started (incremental) solves
# ----------------------------------------------------------------------

def test_warm_start_requires_initial(problem):
    from repro.errors import SolverError

    with pytest.raises(SolverError):
        solve(problem, warm_start=True)


def _spy_starts(monkeypatch):
    import repro.core.solver as solver_module

    starts = []
    real = solver_module.solve_slsqp

    def spy(problem, initial, **kwargs):
        starts.append(initial)
        return real(problem, initial, **kwargs)

    monkeypatch.setattr(solver_module, "solve_slsqp", spy)
    return starts


def test_warm_start_skips_greedy_and_see(problem, monkeypatch):
    starts = _spy_starts(monkeypatch)
    prior = solve(problem, method="slsqp").layout
    cold_starts = len(starts)
    assert cold_starts >= 2   # greedy + SEE portfolio

    del starts[:]
    result = solve(problem, initial=prior, warm_start=True, method="slsqp")
    assert len(starts) == 1
    assert starts[0] is prior
    # Refining a near-optimal prior does not lose ground.
    evaluator = problem.evaluator()
    assert result.objective <= evaluator.objective(prior.matrix) + 1e-9


def test_warm_start_restarts_add_exploration(problem, monkeypatch):
    starts = _spy_starts(monkeypatch)
    prior = initial_layout(problem)
    solve(problem, initial=prior, warm_start=True, restarts=3,
          method="slsqp")
    # Explicit restarts still add jittered greedy starts to the warm one.
    assert len(starts) == 3
    assert starts[0] is prior


def test_warm_start_keeps_expert_layouts(problem, monkeypatch):
    starts = _spy_starts(monkeypatch)
    prior = initial_layout(problem)
    expert = problem.see_layout()
    solve(problem, initial=prior, warm_start=True, method="slsqp",
          expert_layouts=[expert])
    assert len(starts) == 2
    assert starts[1] is expert


def test_warm_start_same_seed_same_portfolio(problem):
    prior = initial_layout(problem)
    first = solve(problem, initial=prior, warm_start=True, restarts=3,
                  seed=11, method="slsqp")
    second = solve(problem, initial=prior, warm_start=True, restarts=3,
                   seed=11, method="slsqp")
    assert np.allclose(first.layout.matrix, second.layout.matrix)


# ----------------------------------------------------------------------
# Row renormalization within pinning caps (_snap)
# ----------------------------------------------------------------------

def test_renormalize_respects_fractional_caps():
    """Regression: dividing a short row by its sum can push an entry
    back over a cap it was just clamped to."""
    row = np.array([0.5, 0.3])
    upper = np.array([0.5, 1.0])
    fixed = _renormalize_row(row, upper)
    assert fixed.sum() == pytest.approx(1.0)
    assert np.all(fixed <= upper + 1e-12)
    assert fixed == pytest.approx([0.5, 0.5])


def test_renormalize_scaling_down_unchanged():
    row = np.array([0.8, 0.8])
    fixed = _renormalize_row(row, np.array([1.0, 1.0]))
    assert fixed == pytest.approx([0.5, 0.5])


def test_renormalize_cascading_caps():
    """Growing the slack entries can push another entry to its cap; the
    deficit must keep flowing to whatever slack remains."""
    row = np.array([0.4, 0.29, 0.01])
    upper = np.array([0.4, 0.3, 1.0])
    fixed = _renormalize_row(row, upper)
    assert fixed.sum() == pytest.approx(1.0)
    assert np.all(fixed <= upper + 1e-12)
    assert fixed == pytest.approx([0.4, 0.3, 0.3])


def test_renormalize_zero_mass_slack():
    """When all row mass sits on capped entries, the deficit spreads
    over zero-mass slack entries headroom-proportionally."""
    row = np.array([0.5, 0.0, 0.0])
    upper = np.array([0.5, 0.3, 1.0])
    fixed = _renormalize_row(row, upper)
    assert fixed.sum() == pytest.approx(1.0)
    assert np.all(fixed <= upper + 1e-12)
    assert fixed[0] == pytest.approx(0.5)


def test_renormalize_zero_row():
    fixed = _renormalize_row(np.zeros(3), np.array([0.2, 0.5, 1.0]))
    assert fixed.sum() == pytest.approx(1.0)
    assert np.all(fixed <= np.array([0.2, 0.5, 1.0]) + 1e-12)


def test_renormalize_clamped_surplus_scales_down_within_caps():
    """A row far over budget whose proportional scaling violates a cap:
    clamping leaves a surplus, which must be scaled away rather than
    returned (found by the property test below)."""
    row = np.array([2.8459, 0.9355])
    upper = np.array([0.5867, 1.0])
    fixed = _renormalize_row(row, upper)
    assert fixed.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(fixed <= upper + 1e-12)


def test_renormalize_exact_cap_sum_has_no_residual_deficit():
    """Regression: when the caps are binding and sum to exactly 1.0,
    the cap-clamp loop can terminate with a residual deficit (float
    tolerance in the headroom test) and return a row summing to less
    than 1.  The only feasible answer is the caps themselves."""
    row = np.array([0.3, 0.2])
    upper = np.array([0.3, 0.7])
    fixed = _renormalize_row(row, upper)
    assert fixed.sum() == pytest.approx(1.0, abs=1e-9)
    assert fixed == pytest.approx([0.3, 0.7])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    m=st.integers(2, 6),
    tight=st.booleans(),
)
def test_renormalize_row_property(seed, m, tight):
    """Whenever the caps admit a distribution (upper.sum() >= 1), the
    renormalized row is one: sums to 1 within 1e-9, within caps,
    nonnegative.  ``tight`` draws caps summing to exactly 1.0 — the
    regime of the residual-deficit regression."""
    rng = np.random.default_rng(seed)
    upper = rng.random(m) + 1e-3
    if tight:
        upper = upper / upper.sum()
    else:
        upper = np.minimum(1.0, upper * (1.0 + rng.random()))
        assume(upper.sum() >= 1.0)
    row = rng.random(m) * rng.choice([0.2, 1.0, 3.0])
    fixed = _renormalize_row(row, upper)
    assert abs(fixed.sum() - 1.0) <= 1e-9
    assert np.all(fixed <= upper + 1e-9)
    assert np.all(fixed >= -1e-12)


def test_snap_rows_sum_to_one_within_caps():
    rng = np.random.default_rng(0)
    matrix = rng.random((6, 4))
    matrix[0, 0] = 1e-5     # dust entry below SNAP_THRESHOLD gets zeroed
    upper = np.clip(rng.random((6, 4)) + 0.4, 0.0, 1.0)
    snapped = _snap(matrix, upper)
    assert np.allclose(snapped.sum(axis=1), 1.0)
    assert np.all(snapped <= upper + 1e-9)
    assert snapped[0, 0] == 0.0 or upper[0, 0] == 0.0


# ----------------------------------------------------------------------
# Parallel multi-start portfolio
# ----------------------------------------------------------------------

def test_parallel_portfolio_matches_serial():
    """workers > 1 fans restarts over a process pool with deterministic
    per-restart seeds, so the result is identical to the serial path."""
    wide = make_wide_problem()
    assert wide.n_objects * wide.n_targets >= PARALLEL_MIN_VARIABLES
    serial = solve(wide, method="coordinate", restarts=2, seed=7, workers=1)
    pooled = solve(wide, method="coordinate", restarts=2, seed=7, workers=2)
    assert pooled.objective == pytest.approx(serial.objective, abs=1e-12)
    assert np.allclose(pooled.layout.matrix, serial.layout.matrix)


def test_tiny_problem_skips_pool(problem, monkeypatch):
    """Below PARALLEL_MIN_VARIABLES the pool is never engaged."""
    import repro.core.solver as solver_module

    def boom(*args, **kwargs):
        raise AssertionError("pool used for a tiny problem")

    monkeypatch.setattr(solver_module, "_run_portfolio_parallel", boom)
    assert problem.n_objects * problem.n_targets < PARALLEL_MIN_VARIABLES
    result = solve(problem, method="coordinate", restarts=2, workers=4)
    assert result.success


def test_pool_failure_falls_back_to_serial(monkeypatch):
    """A pool that cannot start must not lose the solve."""
    import repro.core.solver as solver_module

    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        return None

    monkeypatch.setattr(solver_module, "_run_portfolio_parallel", broken)
    wide = make_wide_problem()
    result = solve(wide, method="coordinate", restarts=2, seed=7, workers=2)
    assert calls, "pool path was not attempted"
    serial = solve(wide, method="coordinate", restarts=2, seed=7, workers=1)
    assert result.objective == pytest.approx(serial.objective, abs=1e-12)


def _suicidal_attempt(problem, start_layout, method, attempt_seed,
                      max_iter, capture=False):
    """Worker entry that dies the way an OOM-killed worker does.

    Module-level so the pool can pickle it by reference; only pool
    workers ever execute it (the serial path has its own closure)."""
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def test_worker_crash_mid_run_falls_back_to_serial(monkeypatch):
    """A worker process dying *mid-solve* (OOM kill, segfault) surfaces
    as BrokenProcessPool from future.result(); the portfolio must catch
    it and redo the restarts serially rather than crash or return a
    partial result."""
    import repro.core.solver as solver_module

    monkeypatch.setattr(solver_module, "_portfolio_attempt",
                        _suicidal_attempt)
    wide = make_wide_problem()
    result = solve(wide, method="coordinate", restarts=2, seed=7, workers=2)
    assert result.success
    serial = solve(wide, method="coordinate", restarts=2, seed=7, workers=1)
    assert result.objective == pytest.approx(serial.objective, abs=1e-12)
    assert np.allclose(result.layout.matrix, serial.layout.matrix)
