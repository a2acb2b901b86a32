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
from repro.storage.device import Device, DeviceUnit


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
    """A single spindle: one request in service at a time.

    The unit tracks sequential streams the way a drive's prefetch cache
    does.  The cache holds a bounded amount of read-ahead data per
    stream, and every foreign request served in between consumes cache
    segments and head time, so a stream's prefetched data survives only
    ``readahead_depth`` intervening requests.  A request is a read-ahead
    hit when it continues its stream's last request and no more than
    that many foreign requests came between them.  This volume-based
    eviction is the mechanism behind the paper's Figure 8: with a
    contention factor of ``readahead_depth`` or less sequential requests
    still hit prefetched data, and past it the advantage collapses to
    (near-)random cost.
    """

    parallelism = 1

    #: Dead read-ahead slots are pruned when the table grows past this
    #: size.
    PRUNE_LIMIT = 64

    def __init__(self, capacity, params):
        if params.readahead_depth < 1:
            raise ValueError("readahead tracker needs a depth of at least 1")
        self.capacity = int(capacity)
        self.params = params
        self.head = 0
        self._depth = int(params.readahead_depth)
        self._clock = 0
        self._slots = {}  # stream_id -> (expected_lba, last_access_clock)
        self._credits = {}
        # Per-request constants of the service-time formula.
        self._seek_span_s = params.max_seek_s - params.min_seek_s
        self._rotation_s = params.rotation_s

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
        self._clock = clock = self._clock + 1
        slots = self._slots
        if stream_id in slots:
            expected, last = slots[stream_id]
            hit = expected == lba and clock - last - 1 <= self._depth
            slots[stream_id] = (lba + size, clock)
        else:
            hit = False
            slots[stream_id] = (lba + size, clock)
            # Only a new stream grows the table.  A pruned slot could
            # never hit again: it has seen more than `depth` foreign
            # requests.
            if len(slots) > self.PRUNE_LIMIT:
                horizon = clock - self._depth - 1
                self._slots = {sid: state for sid, state in slots.items()
                               if state[1] >= horizon}
        head = self.head
        if hit and lba != head:
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
            elevator = 1.0 / (1.0 + 0.12 * (
                active_streams - 1 if active_streams > 1 else 0))
            if elevator < 0.6:
                elevator = 0.6
            # Seek time follows the sqrt curve over the fraction of the
            # unit crossed, clamped at a full stroke.
            distance = lba - head if lba > head else head - lba
            if distance > 0:
                fraction = distance / self.capacity
                seek = p.min_seek_s + self._seek_span_s * math.sqrt(
                    fraction if fraction < 1.0 else 1.0)
            else:
                seek = 0.0
            positioning = seek * elevator + self._rotation_s
            if request.kind == "write":
                positioning *= p.write_penalty
            cost = p.overhead_s + positioning + size / p.transfer_bps
        self.head = lba + size
        return cost

    def reset(self):
        self.head = 0
        self._clock = 0
        self._slots = {}
        self._credits = {}


class DiskDrive(Device):
    """A standalone disk drive storage device (one unit)."""

    def __init__(self, name, capacity, params=ENTERPRISE_15K):
        super().__init__(name, capacity, [DiskUnit(capacity, params)])
        self.params = params
