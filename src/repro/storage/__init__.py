"""Discrete-event storage simulator substrate.

The paper evaluates layouts on real hardware (15K RPM SCSI disks, a Perc
RAID controller, and a SATA SSD).  This subpackage provides the simulated
equivalent: device models whose service times reproduce the qualitative
behaviours the paper's results depend on (sequential vs. random disk costs,
readahead collapse under stream contention, an analytic elevator gain at
queue depth over FCFS unit queues, SSD flat latency, RAID0 bandwidth
scaling), an event engine, request streams, and the layout-to-physical
placement mapper.
"""

from repro.storage.request import IORequest, CompletionRecord
from repro.storage.device import Device, DeviceUnit, ReadAheadTracker
from repro.storage.disk import DiskDrive, DiskParameters, ENTERPRISE_15K, NEARLINE_7200
from repro.storage.ssd import SolidStateDrive, SsdParameters, SATA_SSD_2010
from repro.storage.raid import Raid0Group
from repro.storage.target import StorageTarget
from repro.storage.engine import SimulationEngine
from repro.storage.mapping import PlacementMap
from repro.storage.streams import (
    SimContext,
    ScanStream,
    RandomStream,
    SteadyStream,
    RunStream,
)

__all__ = [
    "IORequest",
    "CompletionRecord",
    "Device",
    "DeviceUnit",
    "ReadAheadTracker",
    "DiskDrive",
    "DiskParameters",
    "ENTERPRISE_15K",
    "NEARLINE_7200",
    "SolidStateDrive",
    "SsdParameters",
    "SATA_SSD_2010",
    "Raid0Group",
    "StorageTarget",
    "SimulationEngine",
    "PlacementMap",
    "SimContext",
    "ScanStream",
    "RandomStream",
    "SteadyStream",
    "RunStream",
]
