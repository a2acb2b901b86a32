"""Device abstractions shared by the disk, SSD, and RAID models.

A :class:`Device` is a container of one or more :class:`DeviceUnit`
servers.  A plain disk has one unit, an SSD has one unit with internal
parallelism (channels), and a RAID0 group has one unit per member disk.
The :class:`~repro.storage.target.StorageTarget` routes each request to a
unit via :meth:`Device.route` and runs an independent queue per unit.
"""

from abc import ABC, abstractmethod

from repro.storage.request import IORequest


class DeviceUnit(ABC):
    """One independent server inside a device.

    Units are stateful: a disk unit remembers its head position and the
    streams its read-ahead tracks, so service times depend on the order
    in which the target dispatches requests.  That order is first come
    first served: the target keeps one FCFS queue per unit.  The
    elevator effect the paper observes in Figure 8 (random request costs
    *decreasing* with contention) is an analytic factor on the seek time
    in
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
    """A storage device presented to a target: units plus an LBA router.

    A device with several units overrides :meth:`route` and
    :meth:`boundary`.  A target sends every request of a device that
    overrides neither to unit 0 whole, without calling them.
    """

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
