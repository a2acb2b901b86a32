"""The LVM-striping layout model (paper Figure 7).

Transforms an object workload ``W_i`` plus a candidate layout into the
per-target workloads ``W_ij``.  Request sizes are unchanged, request
rates scale with the assigned fraction ``L_ij``, overlaps survive only
between objects that share a target, and the run count follows the
three-case stripe formula:

* ``Q_ij = Q_i``                    if ``Q_i · B_i < StripeSize``
  (a whole run fits inside one stripe, so striping cannot break it),
* ``Q_ij = Q_i · L_ij``             if ``Q_i · B_i > StripeSize / L_ij``
  (runs span many stripes; target *j* sees its proportional share, and
  its stripes are physically contiguous so the share stays sequential),
* ``Q_ij = StripeSize / B_i``       otherwise
  (runs are broken at stripe granularity).

The piecewise formula is continuous at both case boundaries, which
matters because it sits inside the NLP solver's objective.
"""

import numpy as np

from repro import units
from repro.workload.spec import ObjectWorkload


def per_target_run_counts(run_counts, mean_sizes, layout,
                          stripe_size=units.DEFAULT_STRIPE_SIZE):
    """Vectorized Figure-7 run-count transformation.

    Args:
        run_counts: Array of ``Q_i``, shape (N,).
        mean_sizes: Array of ``B_i`` (rate-weighted mean sizes), shape (N,).
        layout: Layout matrix ``L``, shape (N, M), or a (B, N, M) stack.
        stripe_size: LVM stripe size.

    Returns:
        Array of ``Q_ij`` shaped like ``layout``.  Entries where
        ``L_ij = 0`` are set to 1 (they carry no load, so the value is
        irrelevant but must stay in the cost models' valid domain).
    """
    q = np.asarray(run_counts, dtype=float)[:, None]
    b = np.asarray(mean_sizes, dtype=float)[:, None]
    layout = np.asarray(layout, dtype=float)
    run_bytes = q * b

    with np.errstate(divide="ignore"):
        threshold = np.where(layout > 0, stripe_size / np.maximum(layout, 1e-12),
                             np.inf)
    fits_in_stripe = run_bytes < stripe_size
    spans_many = run_bytes > threshold

    result = np.where(
        fits_in_stripe,
        np.broadcast_to(q, layout.shape),
        np.where(spans_many, q * layout, stripe_size / b),
    )
    result = np.where(layout > 0, result, 1.0)
    return np.maximum(result, 1.0)


def per_target_rates(rates, layout):
    """Per-target request rates: ``λ_ij = λ_i · L_ij`` (shape (N, M))."""
    return np.asarray(rates, dtype=float)[:, None] * np.asarray(layout, dtype=float)


def per_target_overlap(overlap_matrix, layout):
    """Per-target overlaps ``O_ij[k]`` as an (N, N, M) array.

    ``O_ij[k] = O_i[k]`` when both objects have a positive share on
    target *j*, else 0.
    """
    layout = np.asarray(layout, dtype=float)
    present = (layout > 0).astype(float)
    both = present[:, None, :] * present[None, :, :]
    return np.asarray(overlap_matrix, dtype=float)[:, :, None] * both


def per_target_workload(workload, layout_row, target_index, all_workloads=None,
                        layout=None, stripe_size=units.DEFAULT_STRIPE_SIZE):
    """Scalar (non-vectorized) Figure-7 transform for one object/target.

    Returns an :class:`ObjectWorkload` describing ``W_ij``.  Overlap
    remapping requires the full layout and the peer workload list; when
    they are omitted, overlaps are carried over unchanged.

    This is the readable reference implementation; the solver uses the
    vectorized functions above.
    """
    fraction = float(layout_row[target_index])
    q = workload.run_count
    b = workload.mean_size

    if fraction <= 0:
        run_count = 1.0
    elif q * b < stripe_size:
        run_count = q
    elif q * b > stripe_size / fraction:
        run_count = max(1.0, q * fraction)
    else:
        run_count = max(1.0, stripe_size / b)

    overlap = dict(workload.overlap)
    if all_workloads is not None and layout is not None:
        names = [w.name for w in all_workloads]
        overlap = {}
        for k, other in enumerate(names):
            if other == workload.name:
                continue
            value = workload.overlap_with(other)
            if value > 0 and fraction > 0 and layout[k][target_index] > 0:
                overlap[other] = value

    return ObjectWorkload(
        name="%s@%d" % (workload.name, target_index),
        read_size=workload.read_size,
        write_size=workload.write_size,
        read_rate=workload.read_rate * fraction,
        write_rate=workload.write_rate * fraction,
        run_count=run_count,
        overlap=overlap,
    )


def overlap_matrix(workloads):
    """Assemble the (N, N) overlap matrix from workload descriptions.

    The diagonal is zero: an object does not interfere with itself in
    Eq. 2 (the sum runs over ``k ≠ i``).
    """
    names = [w.name for w in workloads]
    n = len(names)
    matrix = np.zeros((n, n))
    for i, w in enumerate(workloads):
        for k, other in enumerate(names):
            if k != i:
                matrix[i, k] = w.overlap_with(other)
    return matrix
