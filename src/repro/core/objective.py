"""Objective evaluation: estimated target utilizations for a layout.

The solver evaluates the objective thousands of times, so workload
arrays are extracted once and all evaluation is vectorized numpy over
the (N, M) layout matrix.

On top of the full (N, M) evaluation the evaluator maintains an
*incremental* cache keyed to one bound base matrix: the per-object
utilization contributions ``µ_ij``, their column sums ``µ_j``, the
contention numerators (Eq. 2), and the per-target run counts.  Because
``µ_ij`` depends on the layout only through object *i*'s own row and the
contention factor ``χ_ij`` — whose numerator sums the *other* objects'
rates — replacing a single row *i* perturbs only row *i* itself plus the
rows of objects that overlap with *i*.  A single-row probe therefore
costs O(M · (1 + overlap-degree)) cost-model lookups instead of the full
O(N · M) rebuild, and a batch of K candidate rows for the same object is
evaluated in one vectorized pass.
"""

import warnings

import numpy as np

from repro.models.target_model import (
    batch_model_groups,
    estimate_utilization_matrix,
    workload_arrays,
)
from repro.obs.metrics import NULL_REGISTRY
from repro.workload.layout_model import per_target_run_counts

#: Denominator floor of the contention factor; must match
#: :func:`repro.workload.contention.contention_factors`.
_CHI_FLOOR = 1e-9

#: Committed row updates between full cache rebuilds.  The rank-1
#: updates to the contention numerators are exact up to float rounding,
#: so periodic rebuilds keep accumulated drift orders of magnitude below
#: the solver's 1e-9 comparison tolerance.
REFRESH_INTERVAL = 256

#: Rebinds below this floor never warn: multi-restart portfolios
#: legitimately rebind once per starting point.
REBIND_WARN_FLOOR = 8


def layout_count(matrix):
    """Layouts in an (N, M) matrix (one) or a (B, N, M) stack (B)."""
    return len(matrix) if np.ndim(matrix) == 3 else 1


class ObjectiveEvaluator:
    """Bound evaluator of µ_ij, µ_j and the minimax objective.

    Args:
        problem: A :class:`~repro.core.problem.LayoutProblem`.
        incremental: Enable the single-row incremental cache.  With
            ``False`` every probe falls back to a full (N, M) rebuild —
            the pre-optimization behaviour, kept for benchmarking and as
            a correctness oracle.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            the evaluator feeds ``repro_evaluator_*`` counters (probe
            rows, full rebuilds, commits, rebinds, refreshes).  Defaults
            to the shared no-op registry.
    """

    def __init__(self, problem, incremental=True, metrics=None):
        self.problem = problem
        self.arrays = workload_arrays(problem.workloads)
        self.incremental = bool(incremental)
        #: Total candidate evaluations (full rebuilds + row probes).
        self.evaluations = 0
        #: Full (N, M) utilization-matrix rebuilds.
        self.full_evaluations = 0
        #: Single-row probe evaluations served from the cache.
        self.incremental_evaluations = 0
        #: Cache rebinds forced by a base-matrix mismatch (callers that
        #: thrash this defeat the incremental layer; see _ensure_bound).
        self.rebinds = 0
        #: Periodic full rebuilds triggered by REFRESH_INTERVAL.
        self.refreshes = 0
        #: Lifetime committed row updates (never reset, unlike the
        #: refresh countdown).
        self.commits = 0
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_probe_rows = metrics.counter(
            "repro_evaluator_probe_rows_total")
        self._m_full = metrics.counter(
            "repro_evaluator_full_evaluations_total")
        self._m_commits = metrics.counter("repro_evaluator_commits_total")
        self._m_rebinds = metrics.counter("repro_evaluator_rebinds_total")
        self._m_refreshes = metrics.counter(
            "repro_evaluator_refreshes_total")
        self._rebind_warned = False
        self._base = None
        self._mu = None
        self._colsums = None
        self._competing = None
        self._run_counts = None
        self._neighbors = None
        self._overlap_offdiag = None
        self._model_groups = None
        self._commits = 0

    # ------------------------------------------------------------------
    # Full evaluation
    # ------------------------------------------------------------------

    def utilization_matrix(self, matrix):
        """µ_ij for a raw (N, M) layout matrix or a (B, N, M) stack.

        A stack counts as B full evaluations.
        """
        count = layout_count(matrix)
        self.evaluations += count
        self.full_evaluations += count
        self._m_full.inc(count)
        return estimate_utilization_matrix(
            self.problem.workloads,
            matrix,
            self.problem.models,
            stripe_size=self.problem.stripe_size,
            arrays=self.arrays,
        )

    def utilizations(self, matrix):
        """Per-target utilizations µ_j: shape (M,), or (B, M) for a stack."""
        return self.utilization_matrix(matrix).sum(axis=-2)

    def objective(self, matrix):
        """The minimax objective: ``max_j µ_j``."""
        return float(self.utilizations(matrix).max())

    def object_loads(self, matrix):
        """Per-object total system load ``Σ_j µ_ij`` (regularizer order)."""
        return self.utilization_matrix(matrix).sum(axis=1)

    # ------------------------------------------------------------------
    # Incremental evaluation
    # ------------------------------------------------------------------

    def bind(self, matrix):
        """Make ``matrix`` the base of the incremental cache.

        Performs one full evaluation and caches µ_ij, its column sums,
        the contention numerators ``Σ_k O_i[k]·λ_k·L_kj``, and the
        per-target run counts.  Returns µ_j of the bound matrix.
        """
        a = self.arrays
        self._base = np.array(matrix, dtype=float, copy=True)
        self._mu = self.utilization_matrix(self._base)
        self._colsums = self._mu.sum(axis=0)
        self._competing = self._overlap() @ (
            a["total_rate"][:, None] * self._base
        )
        self._run_counts = per_target_run_counts(
            a["run_count"], a["mean_size"], self._base,
            self.problem.stripe_size,
        )
        self._commits = 0
        return self._colsums.copy()

    def _ensure_bound(self, matrix):
        if self._base is None:
            self.bind(matrix)
        elif not np.array_equal(self._base, matrix):
            # A silent rebind is correct but expensive (one full (N, M)
            # rebuild); callers that alternate between base matrices
            # instead of committing rows thrash the cache into
            # worse-than-non-incremental behaviour.  Count every rebind
            # and warn once when rebinds overtake committed updates.
            self.rebinds += 1
            self._m_rebinds.inc()
            if (not self._rebind_warned
                    and self.rebinds >= REBIND_WARN_FLOOR
                    and self.rebinds > self.commits):
                self._rebind_warned = True
                warnings.warn(
                    "ObjectiveEvaluator rebound its incremental cache %d "
                    "times against %d committed row updates; a caller is "
                    "probing alternating base matrices, which degrades "
                    "the cache to full rebuilds (use commit_row, or a "
                    "separate evaluator per base)"
                    % (self.rebinds, self.commits),
                    RuntimeWarning, stacklevel=3,
                )
            self.bind(matrix)

    def _overlap(self):
        """The overlap matrix with its diagonal normalized to zero.

        Eq. 2 sums over ``k ≠ i``; :func:`workload_arrays` already zeroes
        the diagonal, but callers can hand the evaluator externally-built
        arrays, and a nonzero diagonal would put every object in its own
        neighbor set — double-counting its µ contribution in probe totals
        and desynchronizing the contention-numerator cache.
        """
        if self._overlap_offdiag is None:
            overlap = self.arrays["overlap"]
            if np.any(np.diagonal(overlap) != 0.0):
                overlap = overlap.copy()
                np.fill_diagonal(overlap, 0.0)
            self._overlap_offdiag = overlap
        return self._overlap_offdiag

    def _neighbor_indices(self, i):
        """Objects ``k ≠ i`` whose contention depends on object *i*'s row.

        Built once for all objects from the sparse nonzero structure of
        the overlap matrix — one ``np.nonzero`` over the whole matrix
        plus an argsort of the column indices — instead of N dense
        column scans, which dominated cache construction at fleet scale.
        """
        if self._neighbors is None:
            overlap = self._overlap()
            n = overlap.shape[0]
            rows, cols = np.nonzero(overlap)
            order = np.argsort(cols, kind="stable")
            rows = rows[order]
            counts = np.bincount(cols, minlength=n)
            self._neighbors = np.split(rows, np.cumsum(counts)[:-1])
        return self._neighbors[i]

    def _probe(self, i, rows):
        """Evaluate candidate rows for object *i* against the bound base.

        Returns ``(totals, mu_i, q_i, neighbours)``: per-candidate µ_j of
        shape (K, M), object *i*'s own µ contributions and run counts,
        and ``[(k, mu_k)]`` for every overlap-coupled object whose
        contribution shifts with the probe.

        The probed object and its neighbours are stacked into one (P, K)
        batch per target and request direction, so a probe costs 2M
        cost-model lookups regardless of the overlap degree (the degree
        only widens the batched arrays).
        """
        a = self.arrays
        overlap = self._overlap()
        k_count, m = rows.shape

        q_i = per_target_run_counts(
            np.full(k_count, a["run_count"][i]),
            np.full(k_count, a["mean_size"][i]),
            rows, self.problem.stripe_size,
        )
        delta = rows - self._base[i][None, :]
        nbrs = [
            int(k) for k in self._neighbor_indices(i)
            if overlap[k, i] * a["total_rate"][i] != 0.0
        ]
        objs = np.array([i] + nbrs)
        p_count = len(objs)

        fractions = np.empty((p_count, k_count, m))
        run_counts = np.empty((p_count, k_count, m))
        chi = np.empty((p_count, k_count, m))

        fractions[0] = rows
        run_counts[0] = q_i
        own = a["total_rate"][i] * rows
        chi[0] = np.where(
            own > _CHI_FLOOR,
            self._competing[i][None, :] / np.maximum(own, _CHI_FLOOR),
            0.0,
        )
        for t, k in enumerate(nbrs, start=1):
            coupling = overlap[k, i] * a["total_rate"][i]
            competing = self._competing[k][None, :] + coupling * delta
            own_k = a["total_rate"][k] * self._base[k]
            chi[t] = np.where(
                own_k[None, :] > _CHI_FLOOR,
                competing / np.maximum(own_k, _CHI_FLOOR)[None, :],
                0.0,
            )
            fractions[t] = self._base[k][None, :]
            run_counts[t] = self._run_counts[k][None, :]

        read_sizes = a["read_size"][objs][:, None, None]
        write_sizes = a["write_size"][objs][:, None, None]
        read_rates = a["read_rate"][objs][:, None, None]
        write_rates = a["write_rate"][objs][:, None, None]
        mu = np.empty((p_count, k_count, m))
        # One vectorized lookup per distinct target model, not per
        # target: on homogeneous fleets the per-target Python loop was
        # the per-partition hot path at M = 64.
        for cols, model in self._target_groups():
            read = model.read_model.lookup(
                read_sizes, run_counts[:, :, cols], chi[:, :, cols]
            )
            write = model.write_model.lookup(
                write_sizes, run_counts[:, :, cols], chi[:, :, cols]
            )
            mu[:, :, cols] = (
                read_rates * fractions[:, :, cols] * read
                + write_rates * fractions[:, :, cols] * write
            )

        totals = (self._colsums[None, :]
                  + mu.sum(axis=0)
                  - self._mu[objs].sum(axis=0)[None, :])
        neighbours = [(k, mu[t]) for t, k in enumerate(nbrs, start=1)]
        return totals, mu[0], q_i, neighbours

    def _target_groups(self):
        """Targets grouped by identical cost models (lazily cached)."""
        if self._model_groups is None:
            self._model_groups = batch_model_groups(self.problem.models)
        return self._model_groups

    def utilizations_with_rows(self, matrix, i, rows):
        """µ_j for ``matrix`` with row *i* replaced by each candidate.

        Args:
            matrix: The base (N, M) layout matrix.  Rebinds the cache
                when it differs from the currently bound base.
            i: Object index whose row is probed.
            rows: (K, M) array (or a single (M,) row) of candidates.

        Returns:
            (K, M) array of per-target utilizations, one row per
            candidate.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if not self.incremental:
            scratch = np.array(matrix, dtype=float, copy=True)
            totals = np.empty((rows.shape[0], scratch.shape[1]))
            for t, row in enumerate(rows):
                scratch[i] = row
                totals[t] = self.utilizations(scratch)
            return totals
        self._ensure_bound(matrix)
        totals, _, _, _ = self._probe(i, rows)
        self.evaluations += rows.shape[0]
        self.incremental_evaluations += rows.shape[0]
        self._m_probe_rows.inc(rows.shape[0])
        return totals

    def evaluate_rows(self, matrix, i, rows):
        """Minimax objective for each candidate row, shape (K,)."""
        return self.utilizations_with_rows(matrix, i, rows).max(axis=1)

    def utilizations_with_row(self, matrix, i, row):
        """µ_j for ``matrix`` with row *i* replaced by ``row`` (shape (M,))."""
        return self.utilizations_with_rows(matrix, i, row)[0]

    def objective_with_row(self, matrix, i, row):
        """``max_j µ_j`` for ``matrix`` with row *i* replaced by ``row``."""
        return float(self.utilizations_with_row(matrix, i, row).max())

    def utilizations_without_row(self, matrix, i):
        """µ_j with object *i* removed (its row zeroed).

        Used by the regularizer to rank balancing targets without the
        object's own load biasing the order.
        """
        zero = np.zeros((1, np.shape(matrix)[1]))
        return self.utilizations_with_rows(matrix, i, zero)[0]

    def commit_row(self, i, row):
        """Install ``row`` as object *i*'s row in the bound base.

        Updates the cached µ_ij, column sums, run counts, and contention
        numerators in O(M · (1 + overlap-degree)); every
        :data:`REFRESH_INTERVAL` commits the cache is rebuilt from
        scratch so float drift from the rank-1 numerator updates cannot
        accumulate.  No-op when incremental evaluation is disabled.
        """
        if not self.incremental:
            return
        if self._base is None:
            raise ValueError("commit_row requires a bound base matrix")
        row = np.asarray(row, dtype=float)
        self._commits += 1
        self.commits += 1
        self._m_commits.inc()
        if self._commits >= REFRESH_INTERVAL:
            self.refreshes += 1
            self._m_refreshes.inc()
            base = self._base
            base[i] = row
            self.bind(base)
            return
        totals, mu_i, q_i, neighbours = self._probe(i, row[None, :])
        a = self.arrays
        nbrs = self._neighbor_indices(i)
        if nbrs.size:
            delta = row - self._base[i]
            coupling = (self._overlap()[nbrs, i]
                        * a["total_rate"][i])[:, None]
            self._competing[nbrs] += coupling * delta[None, :]
        self._base[i] = row
        self._run_counts[i] = q_i[0]
        self._mu[i] = mu_i[0]
        for k, mu_k in neighbours:
            self._mu[k] = mu_k[0]
        self._colsums = totals[0].copy()

    def utilizations_for(self, matrix):
        """µ_j of ``matrix``, served from the cache when possible."""
        if not self.incremental:
            return self.utilizations(matrix)
        self._ensure_bound(matrix)
        return self._colsums.copy()

    def object_loads_for(self, matrix):
        """Per-object loads of ``matrix``, served from the cache."""
        if not self.incremental:
            return self.object_loads(matrix)
        self._ensure_bound(matrix)
        return self._mu.sum(axis=1)
