"""NLP solve step (paper Section 4.1).

The paper formulates layout as a non-convex NLP in AMPL and solves it
with MINOS, whose external-function facility hosts the black-box target
cost models.  Here the same program — minimize ``t`` subject to
``µ_j(L) ≤ t``, capacity, integrity, and box constraints — is solved
with SciPy's SLSQP, with the cost-model lookups inside the constraint
functions playing the external-function role.  Because local NLP methods
need tractable dimensionality, large instances (the Figure 19 scaling
workloads) fall back to a block-coordinate search over per-object row
candidates, which the paper's related-work section sketches as the
randomized-search alternative to an NLP solver.

The utilization constraint's Jacobian is SciPy's own 2-point finite
difference, built with column grouping (Curtis, Powell & Reid, 1974):
µ_j depends on column j of L only, so one layout that steps every entry
of object i's row yields ∂µ_j/∂L_ij for all j at once, and the N stepped
layouts go through one stacked evaluation.  The result is byte for byte
the Jacobian SciPy would build one variable at a time, so SLSQP takes
the same path at a fraction of the cost-model lookups.
"""

import os
import pickle
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, minimize

from repro.errors import SolverError
from repro.core.initial import initial_layout
from repro.core.layout import Layout
from repro.obs import Instrumentation, ensure_obs

#: Instances with more than this many layout variables use the
#: coordinate method under ``method="auto"``.
SLSQP_VARIABLE_LIMIT = 600

#: Instances with more than this many layout variables use the
#: partitioned method under ``method="auto"``: one monolithic
#: block-coordinate pass stops fitting interactive budgets well before
#: the overlap graph stops decomposing.
PARTITIONED_VARIABLE_LIMIT = 8192

#: Entries below this are snapped to zero after the continuous solve.
SNAP_THRESHOLD = 1e-4

#: SLSQP's finite-difference step (SciPy's default ``eps``, √eps).
FD_STEP = np.sqrt(np.finfo(float).eps)

#: Problems with fewer layout variables than this never use the process
#: pool: worker startup would dwarf the solve itself.
PARALLEL_MIN_VARIABLES = 64

#: Coordinate search enumerates equal-share candidate rows over the k
#: least-utilized targets for every k up to this; beyond it k follows a
#: geometric ladder so wide fleets (M = 64+) do not pay O(M) candidate
#: evaluations per object step.
DENSE_CANDIDATE_TARGETS = 16


@dataclass
class SolveResult:
    """Outcome of a solve: the layout plus diagnostics."""

    layout: Layout
    objective: float
    utilizations: np.ndarray
    method: str
    evaluations: int
    elapsed_s: float
    success: bool


def _renormalize_row(row, upper):
    """Scale one row to sum one without pushing entries above their caps.

    Dividing the whole row by its sum is only safe when the sum exceeds
    one (entries shrink) or no entry is near its upper bound; scaling a
    short row *up* can push a just-clamped entry back over its cap
    (e.g. ``[0.5, 0.3]`` with caps ``[0.5, 1.0]`` would renormalize to
    ``[0.625, 0.375]``).  Instead the deficit is spread over the entries
    with slack — proportionally to their mass, or to their remaining
    headroom when the slack entries carry no mass — re-clamping and
    repeating as entries hit their caps.
    """
    total = row.sum()
    if total <= 0:
        # A fully-zero row can only appear from pathological inputs;
        # spread it over the allowed targets, headroom-proportionally so
        # fractional caps are respected whenever the caps admit any
        # valid row at all.
        headroom = np.maximum(upper, 0.0)
        if headroom.sum() <= 0:
            return row
        return np.minimum(headroom / headroom.sum(), headroom)
    scaled = row / total
    if np.all(scaled <= upper + 1e-12):
        return scaled
    row = np.minimum(row.copy(), upper)
    clamped_total = row.sum()
    if clamped_total > 1.0:
        # Clamping left a surplus: scaling *down* shrinks every entry,
        # so the result stays under the caps and sums to exactly one.
        return row / clamped_total
    for _ in range(row.size + 1):
        deficit = 1.0 - row.sum()
        if deficit <= 1e-12:
            break
        # Strict headroom test: the old ``row < upper - 1e-12`` marked
        # entries within 1e-12 of their cap as frozen, so a row whose
        # caps are binding yet sum to one (within float tolerance) could
        # exit with a residual deficit spread across those entries.
        head = upper - row
        free = head > 0.0
        if not free.any():
            # Caps sum to less than one: no valid row exists, return the
            # clamped best effort and let layout validation flag it.
            break
        mass = row[free].sum()
        if mass > 0:
            grown = row[free] * (mass + deficit) / mass
        else:
            grown = row[free] + deficit * head[free] / head[free].sum()
        row[free] = np.minimum(grown, upper[free])
    deficit = 1.0 - row.sum()
    if deficit > 1e-12:
        # Mass-proportional growth cannot feed zero-mass entries, and
        # clamping can strand a sub-1e-12 sliver per entry; one exact
        # headroom-proportional water-fill clears any residual whenever
        # the caps admit a full row at all.
        head = np.maximum(upper - row, 0.0)
        if head.sum() > 0.0:
            row = np.minimum(row + deficit * head / head.sum(), upper)
    return row


def _snap(matrix, upper):
    """Zero out dust entries and renormalize rows within pin bounds."""
    matrix = np.where(matrix < SNAP_THRESHOLD, 0.0, matrix)
    matrix = np.minimum(matrix, upper)
    for i in range(matrix.shape[0]):
        matrix[i] = _renormalize_row(matrix[i], upper[i])
    return matrix


def _fd_steps(x, lower, upper):
    """SciPy's 2-point steps at ``x`` (``abs_step=FD_STEP``, bounded).

    Mirrors ``scipy.optimize._numdiff.approx_derivative``: a step that
    vanishes in ``x + h`` falls back to a relative one, a step that
    leaves the box flips to a backward step, and where neither direction
    fits the step shrinks to the distance to the farther bound.
    """
    h = np.full(x.shape, FD_STEP)
    sign = (x >= 0).astype(float) * 2 - 1
    h = np.where((x + h) - x == 0,
                 FD_STEP * sign * np.maximum(1.0, np.abs(x)), h)
    below, above = x - lower, upper - x
    fits = np.abs(h) <= np.maximum(below, above)
    h[(((x + h) < lower) | ((x + h) > upper)) & fits] *= -1
    forward = (above >= below) & ~fits
    h[forward] = above[forward]
    backward = (above < below) & ~fits
    h[backward] = -below[backward]
    return h


def solve_slsqp(problem, initial, evaluator=None, max_iter=150, obs=None,
                attempt=0):
    """Solve the continuous layout NLP with SLSQP.

    SLSQP sees only the free variables: entries pinned by equal bounds
    (disallowed targets, fixed rows) are dropped before the call and put
    back into the result, as SciPy itself does whenever it
    finite-differences a constraint.  Every Jacobian is explicit; the
    utilization constraint's is the column-grouped finite difference
    described in the module docstring.

    Args:
        problem: The layout problem.
        initial: Starting :class:`Layout` (must be valid).
        evaluator: Optional shared
            :class:`~repro.core.objective.ObjectiveEvaluator`.
        max_iter: SLSQP iteration cap.
        obs: Optional :class:`~repro.obs.Instrumentation`; records the
            epigraph-variable trajectory as a
            ``repro_solver_convergence`` series and counts SciPy's exit
            status in ``repro_solver_slsqp_exits_total{status}``.
        attempt: Restart index used to label the convergence series.
    """
    start = time.perf_counter()
    obs = ensure_obs(obs)
    if evaluator is None:
        evaluator = problem.evaluator(metrics=obs.metrics)
    n, m = problem.n_objects, problem.n_targets
    nm = n * m

    upper, fixed_rows = problem.pinning.resolve(
        problem.object_names, problem.target_names
    )

    x0 = np.concatenate([initial.matrix.ravel(), [0.0]])
    x0[-1] = evaluator.objective(initial.matrix) * 1.05 + 1e-6

    lower_all = np.zeros(nm + 1)
    upper_all = np.append(upper.ravel(), np.inf)
    for i, row in fixed_rows.items():
        lower_all[i * m:(i + 1) * m] = row
        upper_all[i * m:(i + 1) * m] = row
    free = lower_all != upper_all
    lower_free, upper_free = lower_all[free], upper_all[free]
    x0 = x0[free]

    def expand(x):
        """The full variable vector with the pinned entries put back."""
        full = lower_all.copy()
        full[free] = x
        return full

    # Integrity: row sums equal one (linear).
    integrity_jac = np.zeros((n, nm + 1))
    for i in range(n):
        integrity_jac[i, i * m:(i + 1) * m] = 1.0
    integrity_jac = integrity_jac[:, free]

    def integrity_fun(x):
        return expand(x)[:nm].reshape(n, m).sum(axis=1) - 1.0

    # Capacity: c_j - Σ_i s_i L_ij >= 0 (linear).
    capacity_jac = np.zeros((m, nm + 1))
    for j in range(m):
        capacity_jac[j, j:nm:m] = -problem.sizes
    capacity_jac = capacity_jac[:, free]

    def capacity_fun(x):
        layout = expand(x)[:nm].reshape(n, m)
        return problem.capacities - problem.sizes @ layout

    # Utilization epigraph: t - µ_j(L) >= 0 (nonlinear).
    def utilization_fun(x):
        layout = expand(x)[:nm].reshape(n, m)
        return x[-1] - evaluator.utilizations(layout)

    # Free layout variable k sits at (objects[k], columns[k]); ``slots``
    # maps it to the stacked layout that steps its object's row.
    objects, columns = np.divmod(np.flatnonzero(free[:nm]), m)
    rows = np.unique(objects)
    slots = 1 + np.searchsorted(rows, objects)
    variables = np.arange(objects.size)

    def utilization_jac(x):
        # Clip into the box, as SciPy's finite-difference wrapper does.
        if np.any((x < lower_free) | (x > upper_free)):
            x = np.clip(x, lower_free, upper_free)
        h = _fd_steps(x, lower_free, upper_free)
        dx = (x + h) - x
        base = expand(x)[:nm].reshape(n, m)
        stack = np.repeat(base[None], 1 + rows.size, axis=0)
        stack[slots, objects, columns] = x[:-1] + h[:-1]
        mu = evaluator.utilizations(stack)
        f0 = x[-1] - mu[0]
        # µ_j does not move when another column is stepped: SciPy's
        # difference there is an exact 0, signed by the step.
        jac = np.zeros((m, x.size)) / dx
        jac[columns, variables] = (
            (x[-1] - mu[slots, columns]) - f0[columns]) / dx[:-1]
        jac[:, -1] = (((x[-1] + h[-1]) - mu[0]) - f0) / dx[-1]
        return jac

    constraints = [
        {"type": "eq", "fun": integrity_fun, "jac": lambda x: integrity_jac},
        {"type": "ineq", "fun": capacity_fun, "jac": lambda x: capacity_jac},
        {"type": "ineq", "fun": utilization_fun, "jac": utilization_jac},
    ]

    objective_jac = np.zeros(x0.size)
    objective_jac[-1] = 1.0

    callback = None
    if obs.enabled:
        series = obs.metrics.series("repro_solver_convergence",
                                    attempt=attempt, method="slsqp")
        series.record(iteration=0, objective=float(x0[-1]), accepted=False)
        state = {"iteration": 0}

        def callback(xk):
            state["iteration"] += 1
            series.record(iteration=state["iteration"],
                          objective=float(xk[-1]), accepted=True)

    result = minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: objective_jac,
        bounds=Bounds(lower_free, upper_free),
        constraints=constraints,
        method="SLSQP",
        callback=callback,
        options={"maxiter": max_iter, "ftol": 1e-6},
    )
    obs.metrics.counter("repro_solver_slsqp_exits_total",
                        status=int(result.status)).inc()

    matrix = _snap(expand(result.x)[:nm].reshape(n, m), upper)
    layout = problem.make_layout(matrix)
    try:
        problem.validate_layout(layout)
        valid = True
    except Exception:
        valid = False
    if not valid:
        # Fall back to the feasible starting point rather than returning
        # an unusable layout.
        layout = initial.copy()

    utilizations = evaluator.utilizations(layout.matrix)
    return SolveResult(
        layout=layout,
        objective=float(utilizations.max()),
        utilizations=utilizations,
        method="slsqp",
        evaluations=evaluator.evaluations,
        elapsed_s=time.perf_counter() - start,
        success=bool(result.success) and valid,
    )


def _row_candidates(problem, matrix, i, utilizations, upper):
    """Candidate replacement rows for object *i* in coordinate search."""
    m = problem.n_targets
    allowed = [j for j in range(m) if upper[i, j] > 0]
    if not allowed:
        return []

    candidates = []
    # Equal shares over the k least-utilized allowed targets.  Dense in
    # k on narrow fleets; a geometric ladder past
    # DENSE_CANDIDATE_TARGETS keeps the per-object candidate count
    # O(log M) on wide ones.
    by_load = sorted(allowed, key=lambda j: (utilizations[j], j))
    count = len(by_load)
    if count <= DENSE_CANDIDATE_TARGETS:
        widths = range(1, count + 1)
    else:
        widths = list(range(1, DENSE_CANDIDATE_TARGETS + 1))
        k = DENSE_CANDIDATE_TARGETS
        while k < count:
            k = min(count, k * 3 // 2)
            widths.append(k)
    for k in widths:
        candidates.append(Layout.regular_row(by_load[:k], m))

    # Shift part of the row's mass from its most-loaded used target to
    # the least-loaded allowed target.
    row = matrix[i]
    used = [j for j in allowed if row[j] > 0]
    if used:
        worst = max(used, key=lambda j: utilizations[j])
        best = by_load[0]
        if worst != best:
            for delta in (0.25, 0.5, 1.0):
                shifted = row.copy()
                moved = shifted[worst] * delta
                shifted[worst] -= moved
                shifted[best] += moved
                candidates.append(shifted)
    return candidates


def solve_coordinate(problem, initial, evaluator=None, max_rounds=25,
                     obs=None, attempt=0):
    """Block-coordinate descent over per-object row candidates.

    Scales to instances where SLSQP's dense quadratic subproblems become
    impractical; used for the paper's Figure 19 large synthetic
    workloads.

    Args:
        obs: Optional :class:`~repro.obs.Instrumentation`; wraps every
            descent round in a ``solver.round`` span and records the
            ``(iteration, objective, accepted-move)`` trajectory as a
            ``repro_solver_convergence`` series.  The hot loop checks
            ``obs.enabled`` once, so disabled instrumentation costs one
            attribute read per solve.
        attempt: Restart index used to label spans and series.
    """
    start = time.perf_counter()
    obs = ensure_obs(obs)
    if evaluator is None:
        evaluator = problem.evaluator(metrics=obs.metrics)
    upper, fixed_rows = problem.pinning.resolve(
        problem.object_names, problem.target_names
    )

    matrix = initial.matrix.copy()
    for i, row in fixed_rows.items():
        matrix[i] = row

    observing = obs.enabled
    series = None
    current = float(evaluator.utilizations_for(matrix).max())
    if observing:
        series = obs.metrics.series("repro_solver_convergence",
                                    attempt=attempt, method="coordinate")
        series.record(iteration=0, objective=current, accepted=False)
    iteration = 0
    for round_index in range(max_rounds):
        improved = False
        round_span = obs.tracer.start("solver.round", attempt=attempt,
                                      round=round_index) if observing \
            else None
        loads = evaluator.object_loads_for(matrix)
        order = list(np.argsort(-loads, kind="stable"))
        for i in order:
            if i in fixed_rows:
                continue
            iteration += 1
            utilizations = evaluator.utilizations_for(matrix)
            other_bytes = problem.sizes @ matrix - problem.sizes[i] * matrix[i]
            proposed = _row_candidates(problem, matrix, i, utilizations,
                                       upper)
            if not proposed:
                continue
            # One vectorized capacity check over the whole candidate
            # stack (a per-row np.any here dominates profiles on wide
            # fleets).
            stack = np.array(proposed)
            fits = ~np.any(
                other_bytes + problem.sizes[i] * stack
                > problem.capacities * (1 + 1e-9),
                axis=1,
            )
            if not fits.any():
                continue
            candidates = stack[fits]
            # One vectorized incremental pass over every candidate row.
            values = evaluator.evaluate_rows(matrix, i, candidates)
            pick = int(np.argmin(values))
            if values[pick] < current - 1e-9:
                matrix[i] = candidates[pick]
                evaluator.commit_row(i, candidates[pick])
                current = float(values[pick])
                improved = True
                if observing:
                    series.record(iteration=iteration, objective=current,
                                  accepted=True, object=i)
        if observing:
            series.record(iteration=iteration, objective=current,
                          accepted=False, round=round_index)
            obs.tracer.finish(round_span, objective=current,
                              improved=improved)
        if not improved:
            break

    layout = problem.make_layout(matrix)
    problem.validate_layout(layout)
    utilizations = evaluator.utilizations(matrix)
    return SolveResult(
        layout=layout,
        objective=float(utilizations.max()),
        utilizations=utilizations,
        method="coordinate",
        evaluations=evaluator.evaluations,
        elapsed_s=time.perf_counter() - start,
        success=True,
    )


def _portfolio_attempt(problem, start_layout, method, attempt_seed,
                       max_iter, capture=False):
    """Run one restart with its own evaluator (worker-process entry).

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it; each worker builds a private evaluator because the
    incremental µ_ij cache cannot be shared across processes.

    With ``capture=True`` the attempt runs under live instrumentation
    and returns ``{"result", "spans", "metrics", "pid"}`` instead of a
    bare result, so the parent can stitch the worker's span tree into
    its own trace (the registry itself still cannot be shared across
    the process boundary — serialized records can).
    """
    obs = Instrumentation.on() if capture else None
    root = None
    if obs is not None:
        root = obs.tracer.start("portfolio.attempt", method=method,
                                pid=os.getpid())

    def attempt():
        if method == "slsqp":
            return solve_slsqp(problem, start_layout, max_iter=max_iter,
                               obs=obs)
        if method == "anneal":
            from repro.core.anneal import solve_anneal

            return solve_anneal(problem, start_layout, seed=attempt_seed,
                                obs=obs)
        return solve_coordinate(problem, start_layout, obs=obs)

    result = attempt()
    if obs is None:
        return result
    obs.tracer.finish(root, objective=result.objective,
                      method=result.method)
    return {
        "result": result,
        "spans": obs.tracer.to_records(),
        "metrics": obs.metrics.to_records(),
        "pid": os.getpid(),
    }


def _run_portfolio_parallel(problem, starts, method, seed, max_iter,
                            workers, capture=False):
    """Fan the start portfolio out over a process pool.

    Per-restart seeds are assigned deterministically (``seed + attempt``)
    in the parent, so the result is identical to the serial loop
    regardless of worker count.  Returns None when the pool cannot be
    used (unpicklable problem, restricted OS), letting the caller fall
    back to the serial path; solver errors inside an attempt propagate.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(
            max_workers=min(int(workers), len(starts))
        ) as pool:
            futures = [
                pool.submit(_portfolio_attempt, problem, start, method,
                            seed + attempt, max_iter, capture)
                for attempt, start in enumerate(starts)
            ]
            return [future.result() for future in futures]
    except (OSError, BrokenProcessPool, pickle.PicklingError):
        return None


def solve(problem, initial=None, method="auto", restarts=1, seed=0,
          evaluator=None, max_iter=150, expert_layouts=(),
          warm_start=False, workers=1, obs=None):
    """Solve the layout NLP, optionally from multiple starting points.

    Args:
        problem: The layout problem.
        initial: Starting layout; the Section 4.2 greedy layout when
            omitted.  Extra restarts perturb the greedy construction.
        method: ``"slsqp"``, ``"coordinate"``, ``"anneal"``,
            ``"partitioned"``, or ``"auto"`` (pick by problem size:
            SLSQP up to :data:`SLSQP_VARIABLE_LIMIT` variables,
            block-coordinate up to :data:`PARTITIONED_VARIABLE_LIMIT`,
            overlap-graph-partitioned beyond).  ``"partitioned"``
            delegates to :func:`repro.core.partition.solve_partitioned`:
            the restart portfolio runs per partition and
            ``expert_layouts`` are ignored (partition budgets make them
            ill-defined).
        restarts: Number of starting points (Figure 4's repeat loop).
            Restart/seed interaction: attempt 0 starts from ``initial``
            when given (unjittered greedy otherwise); attempts 1..k-1
            re-run the greedy construction with multiplicative jitter
            drawn from ``default_rng(seed)``, so the same seed always
            produces the same start portfolio; stochastic methods
            (``"anneal"``) additionally receive ``seed + attempt``.
        seed: RNG seed for restart jitter.
        expert_layouts: Extra starting layouts supplied by a domain
            expert — the paper notes multiple initial layouts "offer a
            convenient way of introducing the knowledge of domain
            experts into the optimization process".  Each is used as an
            additional restart.
        warm_start: Incremental re-solve mode for online callers.  With
            ``warm_start=True`` (requires ``initial``) the portfolio is
            exactly ``initial`` plus ``expert_layouts``: no greedy
            construction runs and the SEE start is skipped, so a
            near-optimal prior layout is refined rather than rebuilt.
            Requesting ``restarts > 1`` still adds jittered greedy
            starts — an explicit ask for exploration wins over
            warmness.
        workers: Process count for the start portfolio.  With
            ``workers > 1`` the restarts run concurrently in a
            ``ProcessPoolExecutor`` with deterministic per-restart seeds,
            so results match the serial path exactly; ``workers=1`` (the
            default), a single start, or a problem smaller than
            :data:`PARALLEL_MIN_VARIABLES` layout variables run serially.
        obs: Optional :class:`~repro.obs.Instrumentation`.  Each restart
            is wrapped in a ``solver.restart`` span (parallel-portfolio
            restarts are recorded from their reported elapsed time,
            tagged ``parallel``, and carry no convergence series because
            worker processes cannot share the registry), the polish pass
            in ``solver.polish``, and the descent methods record
            per-restart ``repro_solver_convergence`` trajectories.

    Returns:
        The best :class:`SolveResult` across all starting points.

    Raises:
        SolverError: If no restart produced a valid layout, or if
            ``warm_start`` is requested without an ``initial`` layout.
    """
    if warm_start and initial is None:
        raise SolverError("warm_start requires an initial layout")
    obs = ensure_obs(obs)
    if evaluator is None:
        evaluator = problem.evaluator(metrics=obs.metrics)
    variables = problem.n_objects * problem.n_targets
    if method == "auto":
        if variables <= SLSQP_VARIABLE_LIMIT:
            method = "slsqp"
        elif variables <= PARTITIONED_VARIABLE_LIMIT:
            method = "coordinate"
        else:
            method = "partitioned"
    if method == "partitioned":
        from repro.core.partition import solve_partitioned

        return solve_partitioned(
            problem, initial=initial, restarts=restarts, seed=seed,
            evaluator=evaluator, max_iter=max_iter,
            warm_start=warm_start, workers=workers, obs=obs,
        )

    def run(start_layout, attempt_seed, attempt):
        if method == "slsqp":
            return solve_slsqp(problem, start_layout, evaluator=evaluator,
                               max_iter=max_iter, obs=obs, attempt=attempt)
        if method == "anneal":
            from repro.core.anneal import solve_anneal

            return solve_anneal(problem, start_layout, evaluator=evaluator,
                                seed=attempt_seed, obs=obs, attempt=attempt)
        return solve_coordinate(problem, start_layout, evaluator=evaluator,
                                obs=obs, attempt=attempt)

    rng = np.random.default_rng(seed)
    starts = []
    for attempt in range(max(1, restarts)):
        if attempt == 0 and initial is not None:
            starts.append(initial)
        else:
            # attempt > 0 only happens under an explicit restarts > 1,
            # which requests greedy exploration even for warm starts.
            jitter = 0.0 if attempt == 0 else 0.3
            starts.append(initial_layout(problem, rng=rng, jitter=jitter))
    # Local NLP methods get stuck in starting-point-dependent local
    # minima (the paper reports the same of MINOS and repeats the solve
    # from different initial layouts).  SEE, although often itself a
    # local minimum, is a cheap structurally different second start.
    # Warm starts skip it: the prior layout already encodes structure.
    if not warm_start:
        try:
            see = problem.see_layout()
            problem.validate_layout(see)
            starts.append(see)
        except Exception:
            pass
    for expert in expert_layouts:
        problem.validate_layout(expert)
        starts.append(expert)

    best = None
    use_pool = (
        workers is not None and workers > 1 and len(starts) > 1
        and problem.n_objects * problem.n_targets >= PARALLEL_MIN_VARIABLES
    )
    if use_pool:
        raw = _run_portfolio_parallel(problem, starts, method, seed,
                                      max_iter, workers,
                                      capture=obs.tracer.enabled)
        if raw is not None:
            results = [entry["result"] if isinstance(entry, dict)
                       else entry for entry in raw]
            evaluator.evaluations += sum(r.evaluations for r in results)
            for attempt, (entry, result) in enumerate(zip(raw, results)):
                span = obs.tracer.add_span(
                    "solver.restart", result.elapsed_s, attempt=attempt,
                    method=result.method, objective=result.objective,
                    parallel=True,
                )
                if isinstance(entry, dict):
                    # Stitch the worker's captured span tree under this
                    # restart span, anchored at its (backdated) end.
                    grafted = obs.tracer.graft_records(
                        entry["spans"], parent=span, end_at=span.end_s
                    )
                    for remote in grafted:
                        if remote.parent_id == span.span_id:
                            remote.set_tag("pid", entry["pid"])
                    if obs.metrics.enabled:
                        obs.metrics.merge_records(entry["metrics"])
                obs.metrics.counter("repro_solver_restarts_total",
                                    method=result.method).inc()
                if best is None or result.objective < best.objective:
                    best = result
            best = replace(best, evaluations=evaluator.evaluations)
    if best is None:
        for attempt, start_layout in enumerate(starts):
            span = obs.tracer.start("solver.restart", attempt=attempt,
                                    method=method)
            result = run(start_layout, seed + attempt, attempt)
            obs.tracer.finish(span, objective=result.objective,
                              method=result.method, success=result.success)
            obs.metrics.counter("repro_solver_restarts_total",
                                method=result.method).inc()
            if best is None or result.objective < best.objective:
                best = result
        # Serial restarts share one evaluator, and each result snapshots
        # its lifetime counter at that restart's finish — so the best
        # restart's snapshot undercounts whenever a later restart did
        # more work.  Report the same lifetime total the parallel path
        # reports.
        best = replace(best, evaluations=evaluator.evaluations)
    if best is None:
        raise SolverError("no solve attempt produced a layout")

    # Cheap block-coordinate polish: escapes the vertex local optima
    # the continuous method can converge into.
    if method != "coordinate":
        span = obs.tracer.start("solver.polish")
        polished = solve_coordinate(problem, best.layout,
                                    evaluator=evaluator, max_rounds=5,
                                    obs=obs, attempt="polish")
        obs.tracer.finish(span, objective=polished.objective)
        if polished.objective < best.objective - 1e-12:
            best = SolveResult(
                layout=polished.layout,
                objective=polished.objective,
                utilizations=polished.utilizations,
                method=best.method + "+polish",
                evaluations=evaluator.evaluations,
                elapsed_s=best.elapsed_s + polished.elapsed_s,
                success=best.success,
            )
    return best
