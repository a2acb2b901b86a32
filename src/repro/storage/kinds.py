"""Storage target kinds: the one table behind the simulator, the analytic
cost models, and the problem and scenario file formats.

The paper's testbed (§6) has 15K RPM SCSI drives, RAID0 groups of them
behind a Perc controller, and a SATA SSD; ``disk7200`` adds a nearline
drive for what-if problems.  A ``raid0`` target groups ``members``
drives; every other kind is one device.
"""

from typing import NamedTuple

from repro.errors import ScenarioError
from repro.storage.disk import DiskDrive, ENTERPRISE_15K, NEARLINE_7200
from repro.storage.raid import Raid0Group
from repro.storage.ssd import SolidStateDrive, SATA_SSD_2010


class Kind(NamedTuple):
    """One row of the table: how a target of this kind is built."""

    name: str
    device: type
    params: object
    grouped: bool = False


DISK15K = Kind("disk15k", DiskDrive, ENTERPRISE_15K)
DISK7200 = Kind("disk7200", DiskDrive, NEARLINE_7200)
SSD = Kind("ssd", SolidStateDrive, SATA_SSD_2010)
RAID0 = Kind("raid0", Raid0Group, ENTERPRISE_15K, grouped=True)

#: Kind name -> row.
KINDS = {kind.name: kind for kind in (DISK15K, DISK7200, SSD, RAID0)}


def build_device(kind, name, capacity, members=1):
    """A fresh simulated device of ``kind``; ``members`` sizes a group."""
    if kind not in KINDS:
        raise ValueError("unknown device kind %r" % kind)
    row = KINDS[kind]
    if row.grouped:
        return row.device(name, capacity, members, row.params)
    return row.device(name, capacity, row.params)


def target_kind(entry, where):
    """``(kind, members)`` of a problem or scenario target entry.

    ``kind`` defaults to ``disk15k`` and must name a row of
    :data:`KINDS`.  ``members`` defaults to 1 and must be a positive int,
    not a bool; only grouped kinds use it.  Failures raise a one-line
    :class:`~repro.errors.ScenarioError` that starts with ``where``.
    """
    kind = entry.get("kind", DISK15K.name)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ScenarioError("%s.kind must be one of %s"
                            % (where, "/".join(KINDS)))
    members = entry.get("members", 1)
    if isinstance(members, bool) or not isinstance(members, int) \
            or members < 1:
        raise ScenarioError("%s.members must be a positive integer" % where)
    return kind, members
