"""Property test for the target's per-stream queue accounting.

A unit's service time depends on how many distinct streams compete for
it (the ``active_streams`` argument), and the target derives that count
from per-stream counters instead of scanning the queue.  Here random
interleavings of submissions, completions, synchronous reissues and
faults run through a recording unit that recomputes the count the slow
way for every request it serves.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.storage.device import DeviceUnit
from repro.storage.disk import DiskDrive
from repro.storage.engine import SimulationEngine
from repro.storage.raid import Raid0Group
from repro.storage.request import IORequest
from repro.storage.ssd import SolidStateDrive
from repro.storage.target import StorageTarget

CAPACITY = units.mib(64)
PAGE = units.kib(8)
MAX_PAGES = 12

DEVICES = {
    "disk": lambda: DiskDrive("disk", CAPACITY),
    "raid0": lambda: Raid0Group("raid0", CAPACITY, 3),
    "ssd": lambda: SolidStateDrive("ssd", CAPACITY),  # four channels
}


class RecordingUnit(DeviceUnit):
    """A device unit that checks every ``active_streams`` it is given
    against ``len({arrival} ∪ queued stream ids) + in_service``."""

    def __init__(self, inner):
        self.inner = inner
        self.parallelism = inner.parallelism
        self.server = None
        self.served = 0

    def service_time(self, request, active_streams=1):
        server = self.server
        queued = {queued.stream_id for queued in server.queue}
        assert active_streams == (len(queued | {request.stream_id})
                                  + server.in_service)
        self.served += 1
        return self.inner.service_time(request, active_streams)

    def reset(self):
        self.inner.reset()


_request = st.tuples(
    st.integers(1, 6),                               # stream
    st.integers(0, CAPACITY // PAGE - MAX_PAGES),    # first page
    st.integers(1, MAX_PAGES),                       # pages
    st.sampled_from(["read", "write"]),
    st.booleans(),                                   # reissue on completion
)
# A burst of submissions at one instant, deep enough to queue behind
# the SSD's four channels.
_submit = st.tuples(st.just("submit"), st.lists(_request, min_size=1,
                                                max_size=8))
_advance = st.tuples(st.just("advance"), st.floats(0.0, 0.02))
_fault = st.sampled_from([
    ("fail",), ("repair",), ("stall", 0.004), ("degrade", 2.5),
    ("degrade", 1.0),
])
OPERATIONS = st.lists(st.one_of(_submit, _submit, _advance, _fault),
                      max_size=60)


def _check_counts(target):
    for server in target._servers:
        assert server.streams == Counter(r.stream_id for r in server.queue)


@pytest.mark.parametrize("device", sorted(DEVICES))
@settings(max_examples=60, deadline=None)
@given(operations=OPERATIONS)
def test_active_streams_match_a_scan_of_the_queue(device, operations):
    engine = SimulationEngine()
    drive = DEVICES[device]()
    drive.units = [RecordingUnit(unit) for unit in drive.units]
    target = StorageTarget(drive, engine=engine)
    for server in target._servers:
        server.unit.server = server

    def submit(stream, page, pages, kind, reissue):
        lba = page * PAGE
        size = pages * PAGE

        def done(_request):
            _check_counts(target)
            if reissue:
                # Reissue synchronously from the completion callback,
                # once, continuing the stream sequentially.
                submit(stream, min(page + pages, CAPACITY // PAGE - pages),
                       pages, kind, False)

        target.submit(IORequest(stream, kind, lba, size, on_complete=done))

    for operation in operations:
        name, args = operation[0], operation[1:]
        if name == "submit":
            for request in args[0]:
                submit(*request)
        elif name == "advance":
            engine.run(until=engine.now + args[0])
        elif name == "fail":
            target.fail()
            assert all(not server.streams for server in target._servers)
        else:
            getattr(target, name)(*args)
        _check_counts(target)

    target.repair()
    engine.run()
    _check_counts(target)
    assert target.queue_depth == 0 and target.in_service == 0
    assert target.completed == sum(unit.served for unit in drive.units)
