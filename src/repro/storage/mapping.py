"""Layout-to-physical placement mapping.

The paper implements layouts with a host logical volume manager that
divides each object into fixed-size stripes and distributes them to
storage targets.  :class:`PlacementMap` reproduces that: given per-object
target fractions (a row of the layout matrix), it deals the object's
stripes to targets with a deterministic weighted round-robin so that each
target receives its fraction, and allocates each target's share as one
physically contiguous region — exactly what an LVM does, and the reason a
logically sequential scan stays sequential on every member target.
"""

import math
import zlib

from repro import units
from repro.errors import CapacityError, LayoutError


def _stable_hash(name):
    """Deterministic cross-run hash (unlike builtin ``hash`` of str)."""
    return zlib.crc32(name.encode("utf-8"))


class _ObjectPlacement:
    """Resolved placement for one object: stripe → (target, address)."""

    def __init__(self, name, size, stripe_size, stripe_targets, stripe_addresses):
        self.name = name
        self.size = size
        self.stripe_size = stripe_size
        self.stripe_targets = stripe_targets
        self.stripe_addresses = stripe_addresses
        self.n_stripes = len(stripe_targets)


class PlacementMap:
    """Maps (object, logical offset) to (target index, physical address).

    Args:
        object_sizes: Mapping of object name to size in bytes.
        fractions: Mapping of object name to a sequence of per-target
            fractions (must sum to ~1 per object).
        target_capacities: Sequence of target capacities in bytes.
        stripe_size: LVM stripe size.

    Raises:
        LayoutError: If fractions are malformed.
        CapacityError: If the resulting regions overflow some target.
    """

    #: Tie-breaking policies for distributing an object's stripes.
    ALLOCATION_POLICIES = ("first-fit", "rotate")

    def __init__(
        self,
        object_sizes,
        fractions,
        target_capacities,
        stripe_size=units.DEFAULT_STRIPE_SIZE,
        allocation="first-fit",
    ):
        if allocation not in self.ALLOCATION_POLICIES:
            raise LayoutError("unknown allocation policy %r" % allocation)
        self.allocation = allocation
        self.stripe_size = int(stripe_size)
        self.n_targets = len(target_capacities)
        self._placements = {}
        allocated = [0] * self.n_targets

        for name, size in object_sizes.items():
            row = list(fractions[name])
            if len(row) != self.n_targets:
                raise LayoutError(
                    "object %s has %d fractions for %d targets"
                    % (name, len(row), self.n_targets)
                )
            if any(f < -1e-9 for f in row):
                raise LayoutError("object %s has a negative fraction" % name)
            total = sum(row)
            if abs(total - 1.0) > 1e-6:
                raise LayoutError(
                    "fractions for object %s sum to %.6f, not 1" % (name, total)
                )
            placement = self._place_object(name, size, row, allocated)
            self._placements[name] = placement

        for j, capacity in enumerate(target_capacities):
            if allocated[j] > capacity:
                raise CapacityError(
                    "target %d needs %d bytes but has capacity %d"
                    % (j, allocated[j], capacity)
                )
        self.allocated = allocated

    def _place_object(self, name, size, row, allocated):
        n_stripes = max(1, math.ceil(size / self.stripe_size))
        # Weighted round-robin (largest remainder): target j receives
        # ~row[j] * n_stripes stripes, interleaved as evenly as possible.
        #
        # Credit *ties* (equal fractions) must be broken somehow, and the
        # choice is visible for objects of only a few stripes:
        #
        # * ``first-fit`` starts every object at the first target, the
        #   way naive volume managers allocate from the first device
        #   with free extents.  Under a nominal stripe-everything layout
        #   the many small catalog objects then pile onto the low-
        #   numbered targets — exactly the kind of hidden imbalance the
        #   paper's workload-aware advisor gets to fix.
        # * ``rotate`` starts each object at a per-object pseudo-random
        #   target, emulating an idealized allocator (or a full-scale
        #   database whose every object spans many stripes).
        if self.allocation == "rotate":
            rotation = _stable_hash(name) % self.n_targets
        else:
            rotation = 0
        order = [
            (rotation + j) % self.n_targets for j in range(self.n_targets)
        ]
        if not any(row[j] > 0.0 for j in order):
            raise LayoutError("object %s has no positive fraction" % name)

        # Largest-remainder quotas pin each target's total to within one
        # stripe of row[j] * n_stripes.  (A pure smooth-round-robin deal
        # can drift up to n_targets - 1 stripes below a target's share,
        # because credits only sum to zero jointly.)
        quota = [
            math.floor(row[j] * n_stripes) if row[j] > 0.0 else 0
            for j in range(self.n_targets)
        ]
        leftover = n_stripes - sum(quota)
        by_remainder = sorted(
            (j for j in order if row[j] > 0.0),
            key=lambda j: -(row[j] * n_stripes - quota[j]),
        )
        while leftover > 0:
            for j in by_remainder:
                if leftover <= 0:
                    break
                quota[j] += 1
                leftover -= 1

        # Smooth weighted round-robin interleave, constrained to the
        # quotas so the totals stay exact while consecutive stripes still
        # spread across targets roughly in proportion.
        credit = [0.0] * self.n_targets
        stripe_targets = []
        per_target_count = [0] * self.n_targets
        for _ in range(n_stripes):
            best = None
            for j in order:
                if per_target_count[j] >= quota[j]:
                    continue
                credit[j] += row[j]
                if best is None or credit[j] > credit[best]:
                    best = j
            credit[best] -= 1.0
            stripe_targets.append(best)
            per_target_count[best] += 1

        region_start = list(allocated)
        for j in range(self.n_targets):
            allocated[j] += per_target_count[j] * self.stripe_size

        # Each target's stripes are physically consecutive inside the
        # object's region on that target.
        next_slot = [0] * self.n_targets
        stripe_addresses = []
        for j in stripe_targets:
            address = region_start[j] + next_slot[j] * self.stripe_size
            next_slot[j] += 1
            stripe_addresses.append(address)

        return _ObjectPlacement(
            name, size, self.stripe_size, stripe_targets, stripe_addresses
        )

    def locate(self, obj, offset, size):
        """Resolve a request to ``(target_index, physical_address)``.

        The request must not cross a stripe boundary (database page
        requests are far smaller than a stripe, so callers naturally
        satisfy this).
        """
        placement = self._placements[obj]
        stripe = offset // self.stripe_size
        within = offset % self.stripe_size
        if within + size > self.stripe_size:
            raise LayoutError(
                "request at offset %d size %d crosses a stripe boundary"
                % (offset, size)
            )
        if stripe >= placement.n_stripes:
            raise LayoutError(
                "offset %d beyond object %s (%d bytes)"
                % (offset, obj, placement.size)
            )
        target = placement.stripe_targets[stripe]
        address = placement.stripe_addresses[stripe] + within
        return target, address

    def targets_of(self, obj):
        """Set of target indices that hold any part of ``obj``."""
        return sorted(set(self._placements[obj].stripe_targets))

    def bytes_on_target(self, obj, target_index):
        """Bytes of ``obj`` stored on the given target."""
        placement = self._placements[obj]
        count = sum(1 for t in placement.stripe_targets if t == target_index)
        return count * self.stripe_size

    def object_size(self, obj):
        return self._placements[obj].size

    @property
    def objects(self):
        return list(self._placements)
