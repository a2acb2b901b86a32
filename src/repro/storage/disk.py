"""Mechanical disk drive model.

Service times decompose into per-request overhead, seek, rotational
latency, and media transfer, with a readahead tracker that lets a small
number of concurrent sequential streams skip the positioning costs.  The
parameters below are typical of the 18.4 GB 15K RPM SCSI drives used in
the paper's testbed and of the nearline 7200 RPM drives its introduction
contrasts them with.
"""

import math
from dataclasses import dataclass

from repro import units
from repro.storage.device import Device, DeviceUnit, ReadAheadTracker


@dataclass(frozen=True)
class DiskParameters:
    """Mechanical and firmware characteristics of a disk drive model.

    Attributes:
        rpm: Spindle speed; rotational latency is half a revolution.
        min_seek_s: Track-to-track seek time.
        max_seek_s: Full-stroke seek time; seeks follow the classic
            ``min + (max - min) * sqrt(distance_fraction)`` curve.
        transfer_bps: Sustained media transfer rate, bytes per second.
        overhead_s: Controller/command overhead for a random request.
        sequential_overhead_s: Residual overhead when a request hits the
            drive's prefetch buffer.
        readahead_depth: Number of intervening foreign requests a
            stream's prefetched data survives in the drive cache.  This
            sets the Figure 8 collapse point: the sequential advantage
            holds while the contention factor is at most
            ``readahead_depth`` and collapses past it (the paper's
            drives collapse once the contention factor reaches two).
        prefetch_chunk: Bytes of read-ahead the drive buffers per
            repositioning.  A tracked stream whose region the head has
            left is served from this buffer; once it drains, continuing
            the stream costs a repositioning.  This is why interleaving
            even *two* sequential streams on one spindle costs real
            throughput: each stream pays ~one seek per chunk instead of
            zero, while an isolated stream streams for free.
        write_penalty: Multiplier on positioning costs for writes
            (write-verify and cache-bypass effects; 1.0 disables it).
    """

    rpm: float = 15000.0
    min_seek_s: float = 0.2 * units.MS
    max_seek_s: float = 5.2 * units.MS
    transfer_bps: float = 80 * units.MIB
    overhead_s: float = 0.2 * units.MS
    sequential_overhead_s: float = 0.05 * units.MS
    readahead_depth: int = 1
    prefetch_chunk: int = 128 * units.KIB
    write_penalty: float = 1.1

    @property
    def rotation_s(self):
        """Average rotational latency: half a revolution."""
        return 0.5 * 60.0 / self.rpm


#: Enterprise 15K RPM drive, shaped after the paper's 18.4 GB SCSI disks.
ENTERPRISE_15K = DiskParameters()

#: Cost-effective nearline 7200 RPM drive: slower positioning, similar
#: sequential bandwidth — the heterogeneity case from the introduction.
NEARLINE_7200 = DiskParameters(
    rpm=7200.0,
    min_seek_s=0.5 * units.MS,
    max_seek_s=13.0 * units.MS,
    transfer_bps=70 * units.MIB,
    overhead_s=0.3 * units.MS,
    sequential_overhead_s=0.05 * units.MS,
    readahead_depth=1,
)


class DiskUnit(DeviceUnit):
    """A single spindle: one request in service at a time."""

    parallelism = 1

    def __init__(self, capacity, params):
        self.capacity = int(capacity)
        self.params = params
        self.head = 0
        self.readahead = ReadAheadTracker(params.readahead_depth)
        self._credits = {}
        # Per-request constants of the service-time formula.
        self._seek_span_s = params.max_seek_s - params.min_seek_s
        self._rotation_s = params.rotation_s

    def seek_time(self, distance):
        """Seek time for a byte-distance move, sqrt-curve interpolation."""
        if distance <= 0:
            return 0.0
        fraction = min(1.0, distance / self.capacity)
        return self.params.min_seek_s + self._seek_span_s * math.sqrt(fraction)

    def transfer_time(self, size):
        return size / self.params.transfer_bps

    def service_time(self, request, active_streams=1):
        p = self.params
        stream_id = request.stream_id
        lba = request.lba
        size = request.size
        # Read-ahead helps while the firmware still tracks this stream;
        # with more concurrent streams than tracker slots, each stream's
        # prefetch state is evicted between its own requests and the
        # sequential advantage collapses (the paper's Figure 8).
        hit = self.readahead.access(stream_id, lba, size)
        if hit and lba != self.head:
            # The head has been pulled away by another stream: the
            # request is served from the bounded prefetch buffer, which
            # drains after `prefetch_chunk` bytes and then costs a
            # repositioning to refill.
            credits = self._credits
            credit = credits.get(stream_id, 0)
            if credit >= size:
                credits[stream_id] = credit - size
            else:
                hit = False
                credits[stream_id] = p.prefetch_chunk
                if len(credits) > 64:
                    credits.clear()
        if hit:
            cost = p.sequential_overhead_s + size / p.transfer_bps
        else:
            # Elevator effect: with more concurrent streams the firmware
            # reorders among a deeper queue, shortening the average seek
            # — the gentle downward slope of the run-count-1 curve in
            # the paper's Figure 8.  Unit queues stay FCFS; this factor
            # is the whole of the elevator in the model.
            elevator = max(0.6, 1.0 / (1.0 + 0.12 * max(0, active_streams - 1)))
            positioning = (self.seek_time(abs(lba - self.head)) * elevator
                           + self._rotation_s)
            if request.kind == "write":
                positioning *= p.write_penalty
            cost = p.overhead_s + positioning + size / p.transfer_bps
        self.head = lba + size
        return cost

    def reset(self):
        self.head = 0
        self.readahead.reset()
        self._credits = {}


class DiskDrive(Device):
    """A standalone disk drive storage device (one unit)."""

    def __init__(self, name, capacity, params=ENTERPRISE_15K):
        super().__init__(name, capacity, [DiskUnit(capacity, params)])
        self.params = params
