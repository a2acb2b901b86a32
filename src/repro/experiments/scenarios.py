"""Storage target configurations used in the paper's evaluation.

The paper's testbed exposes four 18.4 GB 15K RPM SCSI drives (optionally
grouped into RAID0 sets by the Perc controller) and a 32 GB SATA SSD.
A :class:`DeviceSpec` describes one storage target declaratively so that
experiments can build fresh device instances per run and the calibration
cache can key models by device type.
"""

from dataclasses import dataclass

from repro import units
from repro.storage.kinds import DISK15K, RAID0, SSD, build_device

#: Paper testbed constants (bytes, before scaling).
DISK_CAPACITY = int(18.4 * units.GIB)
SSD_CAPACITY = 32 * units.GIB


def scaled_stripe(scale):
    """LVM stripe size for a scaled-down experiment: the full 1 MiB.

    Deliberately *not* scaled with the database.  The stripe size sets
    the per-target sequential run length in pages (stripe/page), which
    is the quantity the device readahead behaviour — and hence the
    whole interference story — depends on; shrinking it with the
    database would distort request-level dynamics.  The capacity
    side-effect of coarse stripes on scaled-down targets (per-object
    rounding to whole stripes) is handled by the placement slack in
    :func:`repro.experiments.runner.build_problem` instead.
    """
    del scale
    return units.DEFAULT_STRIPE_SIZE


@dataclass(frozen=True)
class DeviceSpec:
    """Declarative description of one storage target.

    Attributes:
        name: Target name.
        kind: A :data:`repro.storage.kinds.KINDS` name: ``"disk15k"``,
            ``"disk7200"``, ``"raid0"``, or ``"ssd"``.
        capacity: Capacity in bytes.
        n_members: RAID member count (1 for plain devices).
    """

    name: str
    kind: str
    capacity: int
    n_members: int = 1

    def build(self):
        """Create a fresh device instance."""
        return build_device(self.kind, self.name, self.capacity,
                            self.n_members)

    @property
    def model_key(self):
        """Cache key: device types with equal keys share cost models."""
        return (self.kind, self.n_members, int(self.capacity))


def disk_spec(name, scale=1.0, kind=DISK15K.name):
    """One of the testbed's 18.4 GB drives, scaled."""
    return DeviceSpec(name, kind, int(DISK_CAPACITY * scale))


def raid0_spec(name, n_members, scale=1.0):
    """A RAID0 group over ``n_members`` of the testbed drives."""
    return DeviceSpec(name, RAID0.name,
                      int(DISK_CAPACITY * scale) * n_members,
                      n_members=n_members)


def ssd_spec(name, capacity_gib=32, scale=1.0):
    """The testbed SSD with a configurable capacity (paper Figure 18)."""
    return DeviceSpec(name, SSD.name, int(capacity_gib * units.GIB * scale))


def four_disks(scale=1.0):
    """The homogeneous "1-1-1-1" configuration (paper §6.2)."""
    return [disk_spec("disk%d" % j, scale) for j in range(4)]


def config_3_1(scale=1.0):
    """The heterogeneous "3-1" configuration: 3-disk RAID0 + one disk."""
    return [raid0_spec("raid3", 3, scale), disk_spec("disk3", scale)]


def config_2_1_1(scale=1.0):
    """The heterogeneous "2-1-1" configuration: 2-disk RAID0 + 2 disks."""
    return [
        raid0_spec("raid2", 2, scale),
        disk_spec("disk2", scale),
        disk_spec("disk3", scale),
    ]


def disks_plus_ssd(scale=1.0, ssd_capacity_gib=32):
    """Four disks plus the SSD (paper §6.4's second experiment)."""
    return four_disks(scale) + [ssd_spec("ssd", ssd_capacity_gib, scale)]
