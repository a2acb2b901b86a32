"""Closed-form analytic cost models.

The paper notes that accurate analytic models are "possible, but
difficult" and uses tabulated measurements instead.  These analytic
models exist as a fast, calibration-free alternative: they reproduce the
same qualitative surface (sequential discount that collapses under
contention, mild elevator gain for random requests, flat SSD behaviour)
and share the ``lookup`` interface with
:class:`~repro.models.table_model.TableCostModel`, so they can stand in
for calibrated models in tests and quick what-if analyses.
"""

import numpy as np

from repro.storage.disk import DiskParameters, ENTERPRISE_15K
from repro.storage.kinds import KINDS
from repro.storage.ssd import SsdParameters, SATA_SSD_2010


class AnalyticDiskCostModel:
    """Closed-form per-request cost for a (possibly RAID0) disk target.

    Args:
        params: Disk mechanical parameters.
        n_members: RAID0 member count; aggregate bandwidth scales with it
            and each member sees ``1/n`` of the requests, which shows up
            as an effective service-cost divisor for throughput purposes.
        kind: ``"read"`` or ``"write"``.
    """

    def __init__(self, params=ENTERPRISE_15K, n_members=1, kind="read"):
        self.params = params
        self.n_members = int(n_members)
        self.kind = kind

    def batch_key(self):
        """Structural identity: two instances with equal parameters
        produce identical lookups, so the evaluator may batch their
        targets into one vectorized call."""
        return ("analytic-disk", self.params, self.n_members, self.kind)

    def lookup(self, sizes, run_counts, chis):
        p = self.params
        # No explicit broadcast: the cost expression below mixes all
        # three inputs, so ordinary numpy broadcasting produces the full
        # output shape — and skipping np.broadcast_arrays keeps this
        # hot path (called once per probe per direction) cheap.
        sizes = np.asarray(sizes, dtype=float)
        run_counts = np.maximum(np.asarray(run_counts, dtype=float), 1.0)
        chis = np.maximum(np.asarray(chis, dtype=float), 0.0)

        transfer = sizes / p.transfer_bps
        # Elevator gain: average seek shrinks as the queue deepens.
        avg_seek = 0.65 * p.max_seek_s / (1.0 + 0.15 * chis)
        random_cost = p.overhead_s + avg_seek + p.rotation_s + transfer
        if self.kind == "write":
            random_cost = (
                p.overhead_s
                + (avg_seek + p.rotation_s) * p.write_penalty
                + transfer
            )
        sequential_cost = p.sequential_overhead_s + transfer

        # Probability the drive's prefetched data survives: collapses
        # once the contention factor exceeds the readahead depth.
        depth = float(p.readahead_depth)
        exponent = np.clip(4.0 * (chis - depth - 0.5), -50.0, 50.0)
        tracked = 1.0 / (1.0 + np.exp(exponent))

        hit_fraction = (run_counts - 1.0) / run_counts
        cost = (1.0 - hit_fraction) * random_cost + hit_fraction * (
            tracked * sequential_cost + (1.0 - tracked) * random_cost
        )
        return cost / self.n_members


class AnalyticSsdCostModel:
    """Closed-form per-request SSD cost: latency plus transfer, flat in Q/χ."""

    def __init__(self, params=SATA_SSD_2010, kind="read"):
        self.params = params
        self.kind = kind

    def batch_key(self):
        """Structural identity for cross-target lookup batching."""
        return ("analytic-ssd", self.params, self.kind)

    def lookup(self, sizes, run_counts, chis):
        p = self.params
        sizes = np.asarray(sizes, dtype=float)
        sizes, run_counts, chis = np.broadcast_arrays(
            sizes, np.asarray(run_counts, dtype=float),
            np.asarray(chis, dtype=float),
        )
        if self.kind == "write":
            per_request = p.write_latency_s + sizes / p.write_bps
        else:
            per_request = p.read_latency_s + sizes / p.read_bps
        # Channel parallelism: n concurrent requests share the package,
        # so per-request cost in utilization terms divides by channels.
        return np.full(sizes.shape, 0.0) + per_request / p.channels


def analytic_disk_target_model(name, params=ENTERPRISE_15K, n_members=1):
    """Convenience: a TargetModel with analytic read and write models."""
    from repro.models.target_model import TargetModel

    return TargetModel(
        name=name,
        read_model=AnalyticDiskCostModel(params, n_members, kind="read"),
        write_model=AnalyticDiskCostModel(params, n_members, kind="write"),
    )


def analytic_ssd_target_model(name, params=SATA_SSD_2010):
    """Convenience: a TargetModel with analytic SSD read/write models."""
    from repro.models.target_model import TargetModel

    return TargetModel(
        name=name,
        read_model=AnalyticSsdCostModel(params, kind="read"),
        write_model=AnalyticSsdCostModel(params, kind="write"),
    )


def analytic_target_model(name, kind, members=1):
    """The analytic TargetModel of a target of ``kind``
    (:data:`repro.storage.kinds.KINDS`); ``members`` sizes a group."""
    row = KINDS[kind]
    if isinstance(row.params, SsdParameters):
        return analytic_ssd_target_model(name, row.params)
    return analytic_disk_target_model(name, row.params,
                                      members if row.grouped else 1)
