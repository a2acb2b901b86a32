"""Device abstractions shared by the disk, SSD, and RAID models.

A :class:`Device` is a container of one or more :class:`DeviceUnit`
servers.  A plain disk has one unit, an SSD has one unit with internal
parallelism (channels), and a RAID0 group has one unit per member disk.
The :class:`~repro.storage.target.StorageTarget` routes each request to a
unit via :meth:`Device.route` and runs an independent queue per unit.
"""

from abc import ABC, abstractmethod
from collections import OrderedDict

from repro.storage.request import IORequest


class ReadAheadTracker:
    """Tracks sequential streams the way drive prefetch caches do.

    A drive's cache holds a bounded amount of read-ahead data per
    sequential stream.  Every foreign request that the drive services in
    between consumes cache segments and head time, so a stream's
    prefetched data survives only a limited number of intervening
    requests.  This volume-based eviction is the mechanism behind the
    paper's Figure 8: with a contention factor of ``depth`` or less
    (that many competing requests per own request) sequential requests
    still hit prefetched data, and past it the advantage collapses to
    (near-)random cost.

    :meth:`access` reports whether a request continues a tracked
    sequential pattern *and* arrived before its prefetch state was
    evicted.
    """

    #: Dead slots are pruned when the table grows past this size.
    PRUNE_LIMIT = 64

    def __init__(self, depth):
        if depth < 1:
            raise ValueError("readahead tracker needs a depth of at least 1")
        self.depth = int(depth)
        self._clock = 0
        self._slots = {}  # stream_id -> (expected_lba, last_access_clock)

    def access(self, stream_id, lba, size):
        """Record an access and return True if it was a sequential hit."""
        self._clock += 1
        slot = self._slots.get(stream_id)
        hit = (
            slot is not None
            and slot[0] == lba
            and (self._clock - slot[1] - 1) <= self.depth
        )
        self._slots[stream_id] = (lba + size, self._clock)
        if len(self._slots) > self.PRUNE_LIMIT:
            horizon = self._clock - self.depth - 1
            self._slots = {
                sid: state
                for sid, state in self._slots.items()
                if state[1] >= horizon
            }
        return hit

    def reset(self):
        self._clock = 0
        self._slots.clear()


class DeviceUnit(ABC):
    """One independent server inside a device.

    Units are stateful: a disk unit remembers its head position and its
    readahead tracker, so service times depend on the order in which the
    target dispatches requests.  That order is first come first served:
    the target keeps one FCFS queue per unit.  The elevator effect the
    paper observes in Figure 8 (random request costs *decreasing* with
    contention) is an analytic factor on the seek time in
    :meth:`DiskUnit.service_time <repro.storage.disk.DiskUnit.service_time>`,
    not a reordering of the queue.
    """

    #: Number of requests the unit can service concurrently.
    parallelism = 1

    @abstractmethod
    def service_time(self, request: IORequest, active_streams=1) -> float:
        """Return the service time for ``request`` and update unit state.

        Args:
            request: The request entering service.
            active_streams: Number of distinct streams with requests
                in service or queued at this unit right now.  Disk
                firmware stops read-ahead when more streams compete than
                it can track, which is what collapses the sequential
                advantage in the paper's Figure 8.
        """

    def reset(self):
        """Reset any dynamic state (head position, readahead)."""


class Device(ABC):
    """A storage device presented to a target: units plus an LBA router."""

    def __init__(self, name, capacity, units):
        self.name = name
        self.capacity = int(capacity)
        self.units = list(units)
        if not self.units:
            raise ValueError("device must have at least one unit")

    def route(self, lba):
        """Map a target-level byte address to ``(unit_index, unit_lba)``.

        Single-unit devices route everything to unit 0 unchanged.
        """
        return 0, lba

    def boundary(self, lba):
        """Largest request size starting at ``lba`` that stays in one unit.

        Single-unit devices have no internal boundaries.
        """
        return self.capacity - lba

    def reset(self):
        for unit in self.units:
            unit.reset()

    def __repr__(self):
        return "{}(name={!r}, capacity={})".format(
            type(self).__name__, self.name, self.capacity
        )
