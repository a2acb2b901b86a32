"""I/O request and completion record types used by the simulator."""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

READ = "read"
WRITE = "write"


@dataclass
class IORequest:
    """A single block I/O request against a storage target.

    Attributes:
        stream_id: Identifier of the logical request stream this request
            belongs to.  Device readahead trackers use it to recognise
            sequential streams, mirroring how a real drive's prefetch logic
            tracks a small number of concurrent sequential access patterns.
        kind: ``"read"`` or ``"write"``.
        lba: Byte address on the *target* (the target routes it to a
            device unit, e.g. a RAID member).
        size: Request size in bytes.
        obj: Optional name of the database object this request serves;
            carried through to the trace for workload fitting.
        logical_offset: Offset of the request within the object's logical
            address space, used by the trace analyzer to measure run
            counts independent of physical placement.
        on_complete: Callback invoked with this request when service
            finishes.
        failed: True when the request errored instead of completing
            (submitted to a failed target); such requests never produce
            a :class:`CompletionRecord` and carry no service time.
    """

    stream_id: int
    kind: str
    lba: int
    size: int
    obj: Optional[str] = None
    logical_offset: Optional[int] = None
    on_complete: Optional[Callable[["IORequest"], None]] = None
    submit_time: float = field(default=0.0)
    start_time: float = field(default=0.0)
    finish_time: float = field(default=0.0)
    failed: bool = field(default=False)

    @property
    def latency(self):
        """Total time from submission to completion (queueing + service)."""
        return self.finish_time - self.submit_time

    @property
    def service_time(self):
        """Time actually spent in service at the device."""
        return self.finish_time - self.start_time


class CompletionRecord(NamedTuple):
    """Immutable trace record emitted when a request completes.

    These records are the simulator's equivalent of the kernel block-I/O
    traces the paper collects; the workload analyzer fits Rome-style
    workload descriptions from a list of them.  A traced run keeps
    hundreds of thousands of them, so they are tuples: cheap to build,
    and, holding only atomic values, dropped from the cyclic garbage
    collector's tracking on its first pass, so a long trace does not
    slow every later collection.
    """

    submit_time: float
    finish_time: float
    target: str
    obj: Optional[str]
    stream_id: int
    kind: str
    lba: int
    logical_offset: Optional[int]
    size: int
    service_time: float

    @property
    def latency(self):
        return self.finish_time - self.submit_time
