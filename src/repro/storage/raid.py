"""RAID0 group device: stripes a target's address space over member disks.

The paper's heterogeneous experiments build "3-1" and "2-1-1" target
configurations with a Perc RAID controller: a RAID0 group over several
disks presented as one storage target.  Here a :class:`Raid0Group` exposes
one :class:`~repro.storage.device.DeviceUnit` per member spindle; the
address router sends each request to the member that owns its stripe unit,
so concurrent streams spread across members and aggregate bandwidth scales
with the member count.
"""

from repro import units
from repro.storage.device import Device
from repro.storage.disk import DiskUnit, ENTERPRISE_15K


class Raid0Group(Device):
    """A RAID0 stripe set over ``n_members`` identical disks.

    Args:
        name: Device name.
        capacity: Total capacity of the group (sum over members).
        n_members: Number of member spindles.
        params: Disk parameters for every member.
        stripe_unit: RAID chunk size in bytes.  Requests must not cross a
            stripe-unit boundary; the storage target splits them if needed.
    """

    def __init__(
        self,
        name,
        capacity,
        n_members,
        params=ENTERPRISE_15K,
        stripe_unit=64 * units.KIB,
    ):
        if n_members < 1:
            raise ValueError("RAID0 group needs at least one member")
        member_capacity = capacity // n_members
        members = [DiskUnit(member_capacity, params) for _ in range(n_members)]
        super().__init__(name, capacity, members)
        self.n_members = int(n_members)
        self.stripe_unit = int(stripe_unit)
        self.params = params

    def route(self, lba):
        stripe = lba // self.stripe_unit
        unit_index = stripe % self.n_members
        unit_lba = (stripe // self.n_members) * self.stripe_unit + (
            lba % self.stripe_unit
        )
        return int(unit_index), int(unit_lba)

    def boundary(self, lba):
        """Bytes until the next stripe-unit boundary from ``lba``."""
        return self.stripe_unit - (lba % self.stripe_unit)
