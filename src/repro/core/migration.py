"""Migration planning between layouts.

A layout recommendation is only useful if an administrator can act on
it: the paper's §3 discusses implementing layouts via logical volumes
or tablespace containers, and moving from the current layout to a
recommended one means physically relocating data.  This module computes
that plan — how many bytes of each object move between which targets —
and summarizes the total movement cost, so a DBA can weigh a
recommendation's benefit (utilization reduction) against its migration
bill.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import LayoutError


@dataclass(frozen=True)
class Move:
    """One relocation: bytes of an object from one target to another."""

    obj: str
    source: str
    destination: str
    bytes: int


@dataclass
class MigrationPlan:
    """The full movement plan between two layouts.

    Attributes:
        moves: Individual relocations, largest first.
        total_bytes: Total data moved.
        bytes_read / bytes_written: Per-target traffic the migration
            itself generates (reads at sources, writes at destinations).
    """

    moves: List[Move] = field(default_factory=list)
    total_bytes: int = 0
    bytes_read: Dict[str, int] = field(default_factory=dict)
    bytes_written: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_moves(cls, moves):
        """The plan that performs exactly ``moves``, in their order."""
        plan = cls(moves=list(moves))
        for move in plan.moves:
            plan.total_bytes += move.bytes
            plan.bytes_read[move.source] = (
                plan.bytes_read.get(move.source, 0) + move.bytes
            )
            plan.bytes_written[move.destination] = (
                plan.bytes_written.get(move.destination, 0) + move.bytes
            )
        return plan

    def chunks(self, size):
        """Split the moves, in order, into copies of at most ``size``
        bytes: ``[(source, destination, bytes), ...]``.

        This indexing is what a migration journal records, so the live
        copy and a resumed one agree on which chunk is which.
        """
        chunks = []
        for move in self.moves:
            left = move.bytes
            while left > 0:
                piece = min(int(size), left)
                chunks.append((move.source, move.destination, piece))
                left -= piece
        return chunks

    def moved_fraction(self, total_size):
        """Moved bytes as a fraction of total database size."""
        return self.total_bytes / total_size if total_size else 0.0

    def describe(self, top=None):
        """Human-readable plan listing, largest moves first."""
        lines = [
            "migration plan: %.1f MiB total" % (self.total_bytes / (1 << 20))
        ]
        moves = self.moves[:top] if top else self.moves
        for move in moves:
            lines.append(
                "  %-22s %s -> %s  %.1f MiB"
                % (move.obj, move.source, move.destination,
                   move.bytes / (1 << 20))
            )
        if top and len(self.moves) > top:
            lines.append("  ... and %d smaller moves"
                         % (len(self.moves) - top))
        return "\n".join(lines)


def plan_migration(current, target, object_sizes):
    """Compute the minimal per-object movement plan between two layouts.

    For each object, targets whose share shrinks are sources and targets
    whose share grows are destinations; surpluses are matched to
    deficits greedily (largest first), which minimizes per-object moved
    bytes (the total surplus) regardless of matching order.

    Args:
        current: The :class:`~repro.core.layout.Layout` in production.
        target: The recommended layout.
        object_sizes: Mapping of object name to bytes.

    Raises:
        LayoutError: If the two layouts disagree on objects or targets.
    """
    if current.object_names != target.object_names:
        raise LayoutError("layouts describe different object sets")
    if current.target_names != target.target_names:
        raise LayoutError("layouts describe different target sets")

    moves = []
    for i, obj in enumerate(current.object_names):
        size = object_sizes[obj]
        delta = (target.matrix[i] - current.matrix[i]) * size
        sources = [
            (j, -delta[j]) for j in np.nonzero(delta < -0.5)[0]
        ]
        destinations = [
            (j, delta[j]) for j in np.nonzero(delta > 0.5)[0]
        ]
        sources.sort(key=lambda item: -item[1])
        destinations.sort(key=lambda item: -item[1])

        si, di = 0, 0
        while si < len(sources) and di < len(destinations):
            source_j, available = sources[si]
            dest_j, needed = destinations[di]
            amount = int(round(min(available, needed)))
            if amount > 0:
                moves.append(Move(
                    obj=obj,
                    source=current.target_names[source_j],
                    destination=current.target_names[dest_j],
                    bytes=amount,
                ))
            available -= amount
            needed -= amount
            if available <= 0.5:
                si += 1
            else:
                sources[si] = (source_j, available)
            if needed <= 0.5:
                di += 1
            else:
                destinations[di] = (dest_j, needed)

    moves.sort(key=lambda move: -move.bytes)
    return MigrationPlan.from_moves(moves)


def migration_cost_seconds(plan, transfer_bps=80 * (1 << 20)):
    """Rough lower bound on migration wall time.

    Each target reads its outgoing bytes and writes its incoming bytes
    at ``transfer_bps``; targets work in parallel, so the bound is the
    busiest target's traffic over the rate.
    """
    busiest = max(
        (plan.bytes_read.get(name, 0) + plan.bytes_written.get(name, 0)
         for name in set(plan.bytes_read) | set(plan.bytes_written)),
        default=0,
    )
    return busiest / transfer_bps
