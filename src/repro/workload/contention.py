"""Contention factors (paper Eq. 2).

``χ_ij`` measures the number of temporally-correlated competing requests
from other workloads per request of workload ``W_ij`` on target *j*:

    χ_ij = Σ_{k≠i} (λ^R_kj + λ^W_kj) · O_ij[k]  /  (λ^R_ij + λ^W_ij)

With the Figure-7 layout model, ``λ_kj = λ_k · L_kj`` and
``O_ij[k] = O_i[k]`` whenever both objects are present on the target, so
the numerator reduces to ``Σ_{k≠i} λ_k · L_kj · O_i[k]`` — smooth in the
layout variables, which is exactly what the NLP solver needs.
"""

import numpy as np


def contention_factors(total_rates, overlap_matrix, layout, floor=1e-9):
    """Compute the (N, M) matrix of contention factors ``χ_ij``.

    Args:
        total_rates: Array of per-object total request rates, shape (N,).
        overlap_matrix: (N, N) array of ``O_i[k]`` with a zero diagonal.
        layout: Layout matrix ``L``, shape (N, M), or a (B, N, M) stack
            (one matrix product per layout).
        floor: Denominator floor; entries with (near-)zero own rate on a
            target get a contention of zero since they impose no load.

    Returns:
        Array of contention factors shaped like ``layout`` (zero where
        ``L_ij ≈ 0``).
    """
    rates = np.asarray(total_rates, dtype=float)
    overlaps = np.asarray(overlap_matrix, dtype=float)
    layout = np.asarray(layout, dtype=float)
    if np.any(np.diagonal(overlaps) != 0.0):
        # Enforce the k ≠ i sum of Eq. 2 even for hand-built matrices:
        # a nonzero diagonal would count an object's own requests as
        # competing with themselves.
        overlaps = overlaps.copy()
        np.fill_diagonal(overlaps, 0.0)

    per_target = rates[:, None] * layout            # λ_kj, shape (N, M)
    competing = overlaps @ per_target               # Σ_k O_i[k]·λ_k·L_kj
    own = rates[:, None] * layout                   # λ_ij
    chi = np.where(own > floor, competing / np.maximum(own, floor), 0.0)
    return chi
