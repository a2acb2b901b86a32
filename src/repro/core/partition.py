"""Overlap-graph decomposition of the layout NLP (fleet-scale solves).

The contention term (Eq. 2) is the only coupling between objects in the
objective: µ_ij depends on object *i*'s own row plus the rows of objects
whose request streams temporally overlap *i*'s.  Objects in different
connected components of the overlap graph therefore contribute
*independent* terms to every target utilization, and the NLP decomposes:
each component can be solved against a per-partition share of the
capacity budget, in parallel, and the component layouts stitched into
one matrix whose full-problem utilizations are exactly the sums of the
per-partition ones ("Distributed Data Placement via Graph Partitioning"
reaches the same structure for Paxos groups).

What cannot be decomposed exactly is the *minimax* coupling through
shared targets: partitions solved against proportional capacity shares
may stack their hottest objects on the same device.  A bounded
cross-partition balancing pass — plain block-coordinate descent over the
stitched matrix, which moves whole object rows between targets with the
full objective in view — reconciles the partitions, so the final layout
is always evaluated (and validated) against the monolithic model.

Partitioning is exact for true components.  One giant component (e.g.
a ring of pairwise overlaps) is *split* by cutting edges — BFS-ordered
chunks of at most ``max_partition_size`` objects — which drops the cut
edges' contention terms from the sub-solves only; small components are
*merged* first-fit-decreasing into partition bins so per-partition solve
overhead amortizes.  The split makes the sub-solves approximate, which
is why callers get a parity gate in ``bench_solver_scaling`` rather than
a proof: the stitched-and-balanced objective must stay within
:data:`PARTITION_PARITY_RTOL` of a monolithic coordinate solve.
"""

import time
import warnings
from collections import deque

import numpy as np

from repro.core.initial import initial_layout
from repro.core.layout import Layout
from repro.core.pinning import PinningConstraints
from repro.core.problem import LayoutProblem, TargetSpec
from repro.core.solver import SolveResult, _pool_map, solve_coordinate
from repro.errors import SolverError
from repro.obs import Instrumentation, ensure_obs

#: Default cap on objects per partition: big enough that ring cuts are
#: rare relative to kept edges, small enough that a partition's
#: block-coordinate solve stays interactive.
MAX_PARTITION_OBJECTS = 128

#: Cross-partition balancing rounds over the stitched matrix.
BALANCE_ROUNDS = 3

#: Documented tolerance of the partitioned-vs-monolithic objective
#: parity gate (relative).  Exact decomposition (block-diagonal overlap)
#: solves the identical program per partition; split giant components
#: lose cut-edge contention terms in the sub-solves, and the balancing
#: pass must bring the stitched layout back within this band.
PARTITION_PARITY_RTOL = 0.05


def overlap_partitions(overlap, max_size=MAX_PARTITION_OBJECTS):
    """Partition object indices by overlap-graph connectivity.

    Connected components of the symmetrized nonzero structure of
    ``overlap`` are the exact decomposition units.  Components larger
    than ``max_size`` are split into BFS-ordered chunks (cutting as few
    neighborhood edges as a greedy order manages); components smaller
    than the cap are packed first-fit-decreasing so a fleet of tiny
    components does not pay per-partition solve overhead N times.

    Returns:
        A list of sorted index lists covering ``range(n)`` exactly once.
    """
    overlap = np.asarray(overlap)
    n = overlap.shape[0]
    max_size = max(1, int(max_size))
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    structure = csr_matrix(overlap != 0)
    count, labels = connected_components(structure, directed=False)
    components = [np.where(labels == c)[0] for c in range(count)]

    pieces = []
    for component in components:
        if component.size <= max_size:
            pieces.append(list(component))
            continue
        # Split one giant component along a BFS order: chunks keep
        # whole neighborhoods together and cut only frontier edges.
        member = set(component.tolist())
        adjacency = {i: set() for i in component}
        sub = overlap[np.ix_(component, component)]
        rows, cols = np.nonzero(sub)
        for r, c in zip(rows, cols):
            a, b = int(component[r]), int(component[c])
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = set()
        order = []
        for root in component:
            root = int(root)
            if root in seen:
                continue
            queue = deque([root])
            seen.add(root)
            while queue:
                node = queue.popleft()
                order.append(node)
                for neighbor in sorted(adjacency[node]):
                    if neighbor in member and neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
        for start in range(0, len(order), max_size):
            pieces.append(sorted(order[start:start + max_size]))

    # First-fit-decreasing merge of small pieces into partition bins.
    pieces.sort(key=len, reverse=True)
    bins = []
    for piece in pieces:
        for bin_ in bins:
            if len(bin_) + len(piece) <= max_size:
                bin_.extend(piece)
                break
        else:
            bins.append(list(piece))
    return [sorted(bin_) for bin_ in bins]


def _partition_budgets(problem, partitions):
    """Per-partition, per-target capacity budgets (bytes).

    Bytes consumed by pinned-fixed rows are reserved off the top — they
    land on their targets in every layout — and the remaining capacity
    of each target is shared between partitions proportionally to their
    unfixed bytes.  Budgets sum to at most the true capacities, so
    stitching per-partition-valid layouts cannot oversubscribe a target.
    """
    n_targets = problem.n_targets
    _, fixed_rows = problem.pinning.resolve(
        problem.object_names, problem.target_names
    )
    fixed_bytes = np.zeros((len(partitions), n_targets))
    unfixed_sizes = np.zeros(len(partitions))
    for p, indices in enumerate(partitions):
        for i in indices:
            if i in fixed_rows:
                fixed_bytes[p] += problem.sizes[i] * fixed_rows[i]
            else:
                unfixed_sizes[p] += problem.sizes[i]
    remaining = np.maximum(problem.capacities - fixed_bytes.sum(axis=0), 0.0)
    total_unfixed = unfixed_sizes.sum()
    if total_unfixed > 0:
        shares = unfixed_sizes / total_unfixed
    else:
        shares = np.full(len(partitions), 1.0 / len(partitions))
    budgets = fixed_bytes + shares[:, None] * remaining[None, :]
    # LayoutProblem rejects non-positive capacities; a one-byte floor on
    # a target some partition cannot use anyway is far inside the
    # validator's relative tolerance.
    return np.maximum(budgets, 1.0)


def _subproblem(problem, indices, budget):
    """The layout sub-problem for one partition under its budget."""
    names = [problem.object_names[i] for i in indices]
    name_set = set(names)
    sizes = {
        problem.object_names[i]: float(problem.sizes[i]) for i in indices
    }
    targets = [
        TargetSpec(spec.name, float(budget[j]), spec.model)
        for j, spec in enumerate(problem.targets)
    ]
    workloads = [problem.workloads[i] for i in indices]
    pinning = PinningConstraints(
        allowed={k: v for k, v in problem.pinning.allowed.items()
                 if k in name_set},
        fixed={k: v for k, v in problem.pinning.fixed.items()
               if k in name_set},
    )
    return LayoutProblem(sizes, targets, workloads,
                         stripe_size=problem.stripe_size, pinning=pinning)


def _solve_partition(subproblem, start_rows, restarts, seed, max_iter,
                     capture=False):
    """Solve one partition (module-level: process-pool picklable).

    Partitions always use block-coordinate descent — partitioned solving
    is the scale-out of the coordinate path, and a per-partition SLSQP
    would dominate the wall clock it exists to cut.  ``start_rows``
    optionally warm-starts the sub-solve from the caller's initial
    layout when those rows are valid under the partition budget.

    Returns ``(result, shipped)``.  With ``capture=True`` the sub-solve
    records under a ``partition.solve`` worker bundle and ``shipped`` is
    its payload for :meth:`~repro.obs.Instrumentation.absorb`, which
    keeps the per-round solver spans across the process boundary;
    otherwise ``shipped`` is None.
    """
    del max_iter  # coordinate search has no continuous iteration cap
    obs = (Instrumentation.worker("partition.solve",
                                  n_objects=subproblem.n_objects)
           if capture else None)
    start = None
    if start_rows is not None:
        candidate = subproblem.make_layout(np.asarray(start_rows, dtype=float))
        try:
            subproblem.validate_layout(candidate)
            start = candidate
        except Exception:
            start = None
    if start is None:
        start = initial_layout(subproblem)
    evaluator = subproblem.evaluator(
        metrics=obs.metrics if obs is not None else None
    )
    best = None
    for attempt in range(max(1, restarts)):
        attempt_start = start if attempt == 0 else initial_layout(
            subproblem, rng=np.random.default_rng(seed + attempt), jitter=0.3
        )
        result = solve_coordinate(subproblem, attempt_start,
                                  evaluator=evaluator, obs=obs,
                                  attempt=attempt)
        if best is None or result.objective < best.objective:
            best = result
    solved = SolveResult(
        layout=best.layout,
        objective=best.objective,
        utilizations=best.utilizations,
        method=best.method,
        evaluations=evaluator.evaluations,
        elapsed_s=best.elapsed_s,
        success=best.success,
    )
    if obs is None:
        return solved, None
    return solved, obs.ship(objective=solved.objective)


def solve_partitioned(problem, initial=None, restarts=1, seed=0,
                      evaluator=None, max_iter=150, warm_start=False,
                      workers=1, max_partition_size=MAX_PARTITION_OBJECTS,
                      balance_rounds=BALANCE_ROUNDS, obs=None):
    """Solve via overlap-graph decomposition, then reconcile.

    Pipeline: partition the overlap graph (exact components, size-capped
    merge/split), solve every partition independently against its
    capacity budget — over a process pool when ``workers > 1`` — stitch
    the partition layouts into one matrix, and run a bounded
    cross-partition balancing pass (block-coordinate descent over the
    full problem, starting from the stitched matrix) so the minimax
    coupling through shared targets is restored.

    Args:
        problem: The layout problem.
        initial: Optional starting layout; partition rows that remain
            valid under the partition budget warm-start their sub-solve.
        restarts: Per-partition restart portfolio size.
        seed: RNG seed for restart jitter (per-partition offsets keep
            the outcome deterministic under any worker count).
        evaluator: Optional shared full-problem evaluator; used for the
            balancing pass and final accounting.
        max_iter: Iteration cap forwarded to continuous sub-solves.
        warm_start: Accepted for :func:`repro.core.solver.solve`
            signature compatibility; partition warm starts are already
            derived from ``initial`` when it is given.
        workers: Process count for the partition fan-out.
        max_partition_size: Object cap per partition (merge/split knob).
        balance_rounds: Coordinate rounds for the reconciliation pass
            (0 skips it).
        obs: Optional instrumentation; every partition solve is recorded
            as a ``solver.partition`` span and counted in
            ``repro_solver_partitions_total``, the balancing pass in a
            ``solver.partition_balance`` span.

    Returns:
        A :class:`~repro.core.solver.SolveResult` with
        ``method="partitioned"``; its objective and utilizations are
        always evaluated against the full (monolithic) model.
    """
    del warm_start  # signature compatibility with solve()
    started = time.perf_counter()
    obs = ensure_obs(obs)
    if evaluator is None:
        evaluator = problem.evaluator(metrics=obs.metrics)

    partitions = overlap_partitions(evaluator.arrays["overlap"],
                                    max_size=max_partition_size)
    obs.metrics.gauge("repro_solver_partition_count").set(len(partitions))

    budgets = _partition_budgets(problem, partitions)
    capture = bool(obs.tracer.enabled)
    tasks = []
    for p, indices in enumerate(partitions):
        sub = _subproblem(problem, indices, budgets[p])
        start_rows = initial.matrix[indices] if initial is not None else None
        tasks.append((sub, start_rows, restarts, seed + 1000 * p, max_iter,
                      capture))

    solved = None
    if workers is not None and workers > 1 and len(tasks) > 1:
        solved = _pool_map(_solve_partition, tasks, workers)
    if solved is None:
        solved = [_solve_partition(*task) for task in tasks]

    matrix = np.zeros((problem.n_objects, problem.n_targets))
    evaluations = 0
    for p, (indices, (result, shipped)) in enumerate(zip(partitions,
                                                         solved)):
        matrix[indices] = result.layout.matrix
        evaluations += result.evaluations
        span = obs.tracer.add_span(
            "solver.partition", result.elapsed_s, partition=p,
            n_objects=len(indices), objective=result.objective,
            method=result.method,
        )
        obs.absorb(shipped, parent=span, end_at=span.end_s)
        obs.metrics.counter("repro_solver_partitions_total",
                            method=result.method).inc()
    evaluator.evaluations += evaluations

    stitched = problem.make_layout(matrix)
    try:
        problem.validate_layout(stitched)
    except Exception:
        # Budget floors or pinning interactions produced an invalid
        # stitch (rare: requires a near-infeasible instance).  Fall back
        # to a monolithic coordinate solve rather than failing a solve
        # the monolithic path could still answer.
        warnings.warn(
            "partitioned solve produced an invalid stitched layout; "
            "falling back to a monolithic coordinate solve",
            RuntimeWarning, stacklevel=2,
        )
        fallback = solve_coordinate(problem, initial_layout(problem),
                                    evaluator=evaluator, obs=obs,
                                    attempt="partition-fallback")
        return SolveResult(
            layout=fallback.layout,
            objective=fallback.objective,
            utilizations=fallback.utilizations,
            method="partitioned-fallback",
            evaluations=evaluator.evaluations,
            elapsed_s=time.perf_counter() - started,
            success=fallback.success,
        )

    if balance_rounds > 0:
        span = obs.tracer.start("solver.partition_balance",
                                rounds=balance_rounds)
        balanced = solve_coordinate(problem, stitched, evaluator=evaluator,
                                    max_rounds=balance_rounds, obs=obs,
                                    attempt="balance")
        obs.tracer.finish(span, objective=balanced.objective)
        layout = balanced.layout
        utilizations = balanced.utilizations
        success = balanced.success
    else:
        layout = stitched
        utilizations = evaluator.utilizations(stitched.matrix)
        success = True

    if layout is None:
        raise SolverError("partitioned solve produced no layout")
    return SolveResult(
        layout=layout,
        objective=float(utilizations.max()),
        utilizations=utilizations,
        method="partitioned",
        evaluations=evaluator.evaluations,
        elapsed_s=time.perf_counter() - started,
        success=success,
    )
