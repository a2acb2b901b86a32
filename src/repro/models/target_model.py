"""Per-target utilization estimation (paper Eq. 1 and Figure 6).

A :class:`TargetModel` pairs a read and a write cost model for one
storage target.  :func:`estimate_utilization_matrix` is the full Figure-6
pipeline: apply the layout model to every object workload, compute
contention factors, look up per-request costs, and combine them into the
per-object-per-target utilizations

    µ_ij = λ^R_ij · CostR_j(B^R_i, Q_ij, χ_ij)
         + λ^W_ij · CostW_j(B^W_i, Q_ij, χ_ij)

whose column sums are the target utilizations µ_j the solver minimizes
the maximum of.
"""

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.workload.contention import contention_factors
from repro.workload.layout_model import (
    overlap_matrix,
    per_target_run_counts,
)


@dataclass
class TargetModel:
    """Read/write cost models for one storage target.

    The cost models only need a vectorized
    ``lookup(sizes, run_counts, chis) -> costs`` method, so calibrated
    :class:`~repro.models.table_model.TableCostModel` instances and the
    analytic models are interchangeable — the "plug in models for
    different targets" property the paper gets from MINOS external
    functions.
    """

    name: str
    read_model: object
    write_model: object

    def request_cost(self, kind, size, run_count, chi):
        model = self.read_model if kind == "read" else self.write_model
        return model.lookup(size, run_count, chi)

    def scaled(self, factor):
        """A degraded-device view: every request costs ``factor`` times
        the calibrated cost.

        This is how the online controller re-plans around a slowed
        device (fault kind ``degrade``): the device's cost model is
        scaled by the observed service-time multiplier, so the solver
        naturally shifts load away from it in proportion to how slow
        it has become.
        """
        return TargetModel(
            name=self.name,
            read_model=ScaledCostModel(self.read_model, factor),
            write_model=ScaledCostModel(self.write_model, factor),
        )


class ScaledCostModel:
    """Wraps a cost model, multiplying every looked-up cost.

    Exposes the same vectorized ``lookup`` the estimator needs, so a
    scaled model is usable anywhere a calibrated one is.
    """

    def __init__(self, model, factor):
        if factor <= 0:
            raise ValueError("cost scale factor must be positive")
        self.model = model
        self.factor = float(factor)

    def batch_key(self):
        """Batchable iff the wrapped model is, at the same factor."""
        inner = _batch_key(self.model)
        if inner is None:
            return None
        return ("scaled", inner, self.factor)

    def lookup(self, sizes, run_counts, chis):
        return self.model.lookup(sizes, run_counts, chis) * self.factor


def workload_arrays(workloads):
    """Extract numpy arrays from a list of workload specs.

    Returns a dict with keys ``read_rate``, ``write_rate``, ``read_size``,
    ``write_size``, ``total_rate``, ``mean_size``, ``run_count`` (each of
    shape (N,)) and ``overlap`` of shape (N, N) with a zero diagonal.
    The diagonal is normalized to zero unconditionally: Eq. 2 sums over
    ``k ≠ i``, and a self-overlap entry smuggled in through a workload
    spec (or a hand-built matrix) would double-count the object's own µ
    contribution in the incremental probe path.
    """
    overlap = overlap_matrix(workloads)
    np.fill_diagonal(overlap, 0.0)
    return {
        "read_rate": np.array([w.read_rate for w in workloads]),
        "write_rate": np.array([w.write_rate for w in workloads]),
        "read_size": np.array([w.read_size for w in workloads]),
        "write_size": np.array([w.write_size for w in workloads]),
        "total_rate": np.array([w.total_rate for w in workloads]),
        "mean_size": np.array([w.mean_size for w in workloads]),
        "run_count": np.array([w.run_count for w in workloads]),
        "overlap": overlap,
    }


def _batch_key(cost_model):
    """Structural identity of a cost model, or None when unbatchable.

    Cost models that can prove two instances produce identical lookups
    expose a hashable ``batch_key()``; models without one (e.g.
    per-target calibrated tables) fall back to singleton groups.
    """
    key = getattr(cost_model, "batch_key", None)
    if key is None:
        return None
    try:
        return key()
    except TypeError:
        return None


def batch_model_groups(models):
    """Group target indices whose read *and* write models are identical.

    Returns a list of ``(column_indices, representative_model)`` pairs
    covering every target exactly once.  The evaluator's probe loop runs
    one vectorized lookup per group instead of one per target, which is
    the difference between O(M) and O(#distinct-models) Python-level
    calls on homogeneous fleets.
    """
    groups = {}
    order = []
    for j, model in enumerate(models):
        read_key = _batch_key(model.read_model)
        write_key = _batch_key(model.write_model)
        if read_key is None or write_key is None:
            key = ("__singleton__", j)
        else:
            key = (read_key, write_key)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(j)
    return [
        (np.array(groups[key], dtype=int), models[groups[key][0]])
        for key in order
    ]


def estimate_utilization_matrix(workloads, layout, models,
                                stripe_size=units.DEFAULT_STRIPE_SIZE,
                                arrays=None):
    """Estimate the (N, M) matrix of utilizations µ_ij.

    Args:
        workloads: List of N :class:`ObjectWorkload`.
        layout: Layout matrix, shape (N, M), or a (B, N, M) stack of
            layouts.  Every step is elementwise or per layout, so each
            layout of a stack gets exactly the bytes a call on it alone
            would.
        models: Sequence of M :class:`TargetModel` (one per target).
        stripe_size: LVM stripe size used by the layout model.
        arrays: Optional precomputed :func:`workload_arrays` result — the
            solver calls this function thousands of times on fixed
            workloads, so extraction is hoisted.

    Returns:
        µ, a numpy array shaped like ``layout``.  ``µ.sum(axis=-2)``
        gives the target utilizations µ_j.
    """
    layout = np.asarray(layout, dtype=float)
    n_targets = layout.shape[-1]
    if len(models) != n_targets:
        raise ValueError(
            "%d target models for %d targets" % (len(models), n_targets)
        )
    if arrays is None:
        arrays = workload_arrays(workloads)

    run_counts = per_target_run_counts(
        arrays["run_count"], arrays["mean_size"], layout, stripe_size
    )
    chi = contention_factors(arrays["total_rate"], arrays["overlap"], layout)

    mu = np.zeros(layout.shape)
    for cols, model in batch_model_groups(models):
        read_cost = model.read_model.lookup(
            arrays["read_size"][:, None], run_counts[..., cols], chi[..., cols]
        )
        write_cost = model.write_model.lookup(
            arrays["write_size"][:, None], run_counts[..., cols],
            chi[..., cols]
        )
        mu[..., cols] = (
            arrays["read_rate"][:, None] * layout[..., cols] * read_cost
            + arrays["write_rate"][:, None] * layout[..., cols] * write_cost
        )
    return mu


def estimate_utilizations(workloads, layout, models,
                          stripe_size=units.DEFAULT_STRIPE_SIZE,
                          arrays=None):
    """Target utilizations µ_j (shape (M,)): column sums of µ_ij."""
    return estimate_utilization_matrix(
        workloads, layout, models, stripe_size=stripe_size, arrays=arrays
    ).sum(axis=0)
