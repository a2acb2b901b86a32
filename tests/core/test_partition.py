"""Tests for the overlap-graph partitioned solver (fleet scale-out).

The load-bearing invariants:

* partitions are an exact cover of the object indices, never larger
  than the size cap, and never split a true connected component that
  fits under the cap;
* for a block-diagonal overlap matrix the decomposition is *exact*:
  the stitched full-problem utilizations equal the sums of the
  independently-evaluated per-partition utilizations, so the
  partitioned objective meets the monolithic one at solver tolerance;
* pinned-fixed rows survive budgeting, sub-solving, stitching, and the
  balancing pass;
* the result is always validated against the full (monolithic) model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core.partition import (
    PARTITION_PARITY_RTOL,
    _partition_budgets,
    _subproblem,
    overlap_partitions,
    solve_partitioned,
)
from repro.core.pinning import PinningConstraints
from repro.core.problem import LayoutProblem, TargetSpec
from repro.core.solver import solve, solve_coordinate
from repro.core.initial import initial_layout
from repro.models.analytic import analytic_disk_target_model
from repro.obs import Instrumentation
from repro.workload.spec import ObjectWorkload

from tests.conftest import make_problem


def block_problem(block_sizes, n_targets=3, seed=0, pinning=None):
    """A problem whose overlap graph is exactly the given blocks."""
    rng = np.random.default_rng(seed)
    names = []
    blocks = []
    for b, size in enumerate(block_sizes):
        block = ["b%d_o%d" % (b, i) for i in range(size)]
        blocks.append(block)
        names.extend(block)
    workloads = []
    sizes = {}
    for block in blocks:
        for name in block:
            sizes[name] = units.mib(int(rng.integers(50, 150)))
            overlap = {
                other: float(rng.uniform(0.3, 0.9))
                for other in block if other != name
            }
            workloads.append(ObjectWorkload(
                name,
                read_rate=float(rng.integers(50, 400)),
                write_rate=float(rng.integers(0, 80)),
                run_count=float(rng.integers(1, 32)),
                overlap=overlap,
            ))
    targets = [
        TargetSpec("t%d" % j, units.gib(4),
                   analytic_disk_target_model("t%d" % j))
        for j in range(n_targets)
    ]
    return LayoutProblem(sizes, targets, workloads, pinning=pinning), blocks


# ----------------------------------------------------------------------
# overlap_partitions: cover, cap, component integrity
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 24),
    density=st.floats(0.0, 0.4),
    max_size=st.integers(1, 10),
)
def test_partitions_cover_exactly_and_respect_cap(seed, n, density, max_size):
    rng = np.random.default_rng(seed)
    overlap = (rng.random((n, n)) < density).astype(float)
    overlap = np.triu(overlap, 1)
    overlap = overlap + overlap.T
    partitions = overlap_partitions(overlap, max_size=max_size)
    flat = sorted(i for part in partitions for i in part)
    assert flat == list(range(n))
    assert all(len(part) <= max_size for part in partitions)
    assert all(part == sorted(part) for part in partitions)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    block_sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
)
def test_small_components_are_never_split(seed, block_sizes):
    """A component that fits under the cap lands whole in one partition
    (merging whole components into a bin is fine; cutting one is not)."""
    rng = np.random.default_rng(seed)
    n = sum(block_sizes)
    overlap = np.zeros((n, n))
    start = 0
    blocks = []
    for size in block_sizes:
        idx = list(range(start, start + size))
        blocks.append(idx)
        for a in idx:
            for b in idx:
                if a != b:
                    overlap[a, b] = rng.uniform(0.2, 1.0)
        start += size
    cap = max(block_sizes)
    partitions = [set(p) for p in overlap_partitions(overlap, max_size=cap)]
    for block in blocks:
        owners = [p for p in partitions if p & set(block)]
        assert len(owners) == 1
        assert set(block) <= owners[0]


def test_giant_component_is_split_to_cap():
    """One ring (a single connected component) larger than the cap is
    cut into BFS chunks, all within the cap."""
    n = 13
    overlap = np.zeros((n, n))
    for i in range(n):
        overlap[i, (i + 1) % n] = overlap[(i + 1) % n, i] = 0.5
    partitions = overlap_partitions(overlap, max_size=5)
    assert sorted(i for p in partitions for i in p) == list(range(n))
    assert all(len(p) <= 5 for p in partitions)
    assert len(partitions) >= 3


def test_no_overlap_merges_into_bins():
    """N isolated objects pack first-fit into ceil(N / cap) partitions
    instead of paying per-object solve overhead N times."""
    partitions = overlap_partitions(np.zeros((10, 10)), max_size=4)
    assert sorted(i for p in partitions for i in p) == list(range(10))
    assert len(partitions) == 3


# ----------------------------------------------------------------------
# Exact decomposition on block-diagonal overlap
# ----------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1_000),
    block_sizes=st.lists(st.integers(2, 3), min_size=2, max_size=3),
)
def test_block_diagonal_utilizations_are_additive(seed, block_sizes):
    """For true components the stitched full-model utilizations are
    exactly the sums of the per-partition ones — the decomposition
    theorem the whole module rests on."""
    problem, blocks = block_problem(block_sizes, seed=seed)
    cap = max(block_sizes)
    result = solve_partitioned(problem, restarts=1, seed=seed,
                               max_partition_size=cap, balance_rounds=0)
    arrays_overlap = problem.evaluator().arrays["overlap"]
    partitions = overlap_partitions(arrays_overlap, max_size=cap)
    total = np.zeros(problem.n_targets)
    for indices in partitions:
        sub = _subproblem(problem, indices, problem.capacities)
        total += sub.evaluator().utilizations(
            result.layout.matrix[indices]
        )
    full = problem.evaluator().utilizations(result.layout.matrix)
    assert np.allclose(full, total, atol=1e-9)
    assert result.objective == pytest.approx(float(full.max()))


@pytest.mark.parametrize("seed", [0, 7, 42, 500, 999])
def test_block_diagonal_meets_monolithic_at_tolerance(seed):
    """The documented parity contract on exactly-decomposable
    instances: the partitioned objective comes within
    PARTITION_PARITY_RTOL of the monolithic coordinate solve.

    Deliberately *not* hypothesis-fuzzed: on 8-object instances both
    solvers' basins of attraction swing the comparison by ±30% (almost
    always in the partitioned path's favor — sub-solves escape local
    minima the monolithic descent walks into), so the statistical form
    of the contract is enforced where basin noise averages out: the
    N=80 forced-decomposition gate in ``bench_solver_scaling``."""
    problem, blocks = block_problem([3, 3, 2], seed=seed)
    mono = solve_coordinate(problem, initial_layout(problem))
    part = solve_partitioned(problem, restarts=1, seed=0,
                             max_partition_size=3)
    assert part.objective <= mono.objective * (1 + PARTITION_PARITY_RTOL)
    problem.validate_layout(part.layout)


# ----------------------------------------------------------------------
# Budgets, pinning, degenerate cases
# ----------------------------------------------------------------------

def test_partition_budgets_never_oversubscribe():
    problem, _ = block_problem([3, 2, 2])
    partitions = overlap_partitions(
        problem.evaluator().arrays["overlap"], max_size=3
    )
    budgets = _partition_budgets(problem, partitions)
    floors = len(partitions)  # 1-byte floor per partition per target
    assert np.all(budgets.sum(axis=0) <= problem.capacities + floors)
    assert np.all(budgets >= 1.0)


def test_pinned_object_spanning_partitions_keeps_its_row():
    """A pinned-fixed object keeps its exact row through budgeting,
    sub-solving, stitching, and balancing, even when the partitioner is
    forced to put every object in its own partition."""
    pinning = PinningConstraints(fixed={"big": [1.0, 0.0, 0.0, 0.0]})
    problem = make_problem(pinning=pinning)
    result = solve_partitioned(problem, restarts=1, seed=0,
                               max_partition_size=1)
    i = problem.object_names.index("big")
    assert result.layout.matrix[i] == pytest.approx([1.0, 0.0, 0.0, 0.0])
    problem.validate_layout(result.layout)


def test_pinned_allowed_targets_respected():
    pinning = PinningConstraints(allowed={"medium": ["t1", "t2"]})
    problem = make_problem(pinning=pinning)
    result = solve_partitioned(problem, restarts=1, seed=0,
                               max_partition_size=1)
    i = problem.object_names.index("medium")
    assert result.layout.matrix[i, 0] == 0.0
    assert result.layout.matrix[i, 3] == 0.0
    problem.validate_layout(result.layout)


def test_single_partition_degenerates_gracefully():
    """A fully-connected small problem yields one partition; the solve
    still runs end to end and reports the partitioned method."""
    problem = make_problem()
    result = solve_partitioned(problem, restarts=1, seed=0)
    assert result.method == "partitioned"
    assert result.success
    problem.validate_layout(result.layout)
    mono = solve_coordinate(problem, initial_layout(problem))
    assert result.objective <= mono.objective * (1 + PARTITION_PARITY_RTOL)


def test_solve_dispatches_partitioned_method():
    problem = make_problem()
    result = solve(problem, method="partitioned", restarts=1, seed=0)
    assert result.method in ("partitioned", "partitioned-fallback")
    problem.validate_layout(result.layout)


def test_balancing_pass_never_hurts():
    """The reconciliation pass starts from the stitched matrix and is
    pure descent, so enabling it can only improve the objective."""
    problem, _ = block_problem([3, 3])
    unbalanced = solve_partitioned(problem, restarts=1, seed=0,
                                   max_partition_size=3, balance_rounds=0)
    balanced = solve_partitioned(problem, restarts=1, seed=0,
                                 max_partition_size=3)
    assert balanced.objective <= unbalanced.objective + 1e-9


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

def test_partition_spans_and_counters_recorded():
    problem, _ = block_problem([3, 2, 2])
    obs = Instrumentation.on()
    solve_partitioned(problem, restarts=1, seed=0, max_partition_size=3,
                      obs=obs)
    spans = obs.tracer.find("solver.partition")
    gauge = obs.metrics.get("repro_solver_partition_count")
    assert gauge is not None and gauge.value == len(spans)
    assert len(spans) >= 2
    assert sorted(s.tags["partition"] for s in spans) == list(
        range(len(spans))
    )
    assert sum(s.tags["n_objects"] for s in spans) == problem.n_objects
    counter = obs.metrics.get("repro_solver_partitions_total",
                              method="coordinate")
    assert counter is not None and counter.value == len(spans)
    balance = obs.tracer.find("solver.partition_balance")
    assert len(balance) == 1
    assert balance[0].tags["objective"] > 0


def test_parallel_partitions_bring_worker_spans_home():
    """Each pooled partition solve ships its ``partition.solve`` tree
    back under its ``solver.partition`` span, rooted in another pid."""
    import os

    problem, _ = block_problem([3, 2, 2])
    obs = Instrumentation.on()
    solve_partitioned(problem, restarts=1, seed=0, max_partition_size=3,
                      workers=2, obs=obs)
    spans = obs.tracer.find("solver.partition")
    assert len(spans) >= 2
    _, children = obs.tracer.tree()
    for span in spans:
        (worker,) = children[span.span_id]
        assert worker.name == "partition.solve"
        assert worker.tags["pid"] != os.getpid()
        assert worker.tags["n_objects"] == span.tags["n_objects"]
        assert worker.tags["objective"] == pytest.approx(
            span.tags["objective"])
