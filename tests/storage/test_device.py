"""Tests for device abstractions and the disk's read-ahead tracking.

A read-ahead hit shows in a disk unit's service time: a hit that finds
the head where the stream continues costs exactly the sequential
overhead plus the transfer.  The foreign requests below therefore end
where the tracked stream continues, so the head stays put and the
tracker's decision alone sets the cost.
"""

import dataclasses

import pytest

from repro import units
from repro.storage.disk import DiskDrive, DiskUnit, ENTERPRISE_15K
from repro.storage.request import IORequest

PAGE = 8192


def _unit(depth):
    return DiskUnit(units.gib(1),
                    dataclasses.replace(ENTERPRISE_15K, readahead_depth=depth))


def _hit(unit, stream, lba):
    """Serve one page read; True when it cost a read-ahead hit."""
    p = unit.params
    cost = unit.service_time(IORequest(stream, "read", lba, PAGE))
    return cost == p.sequential_overhead_s + PAGE / p.transfer_bps


def _foreign(unit, stream, end):
    """A foreign page read that leaves the head at ``end``."""
    unit.service_time(IORequest(stream, "read", end - PAGE, PAGE))


def test_first_access_is_a_miss():
    assert _hit(_unit(depth=2), 1, 0) is False


def test_sequential_continuation_hits():
    unit = _unit(depth=2)
    _hit(unit, 1, 0)
    assert _hit(unit, 1, 8192) is True
    assert _hit(unit, 1, 16384) is True


def test_non_sequential_jump_misses():
    unit = _unit(depth=2)
    _hit(unit, 1, 0)
    assert _hit(unit, 1, 32768) is False
    # The jump re-primes the tracker at the new position.
    assert _hit(unit, 1, 40960) is True


def test_intervening_requests_within_depth_keep_the_hit():
    unit = _unit(depth=2)
    _hit(unit, 1, 0)
    _foreign(unit, 2, 8192)
    _foreign(unit, 3, 8192)
    assert _hit(unit, 1, 8192) is True


def test_eviction_past_depth():
    unit = _unit(depth=2)
    _hit(unit, 1, 0)
    for foreign in range(3):
        _foreign(unit, 10 + foreign, 8192)
    # Three intervening foreign requests exceed depth=2: prefetch lost.
    assert _hit(unit, 1, 8192) is False


def test_depth_one_collapses_at_two_competitors():
    """The paper's Figure 8: survival at chi=1, collapse at chi=2."""
    unit = _unit(depth=1)
    _hit(unit, 1, 0)
    _foreign(unit, 2, 8192)
    assert _hit(unit, 1, 8192) is True
    _foreign(unit, 2, 16384)
    _foreign(unit, 3, 16384)
    assert _hit(unit, 1, 16384) is False


def test_two_interleaved_streams_both_hit():
    """Each stream pulls the head away from the other.  Both stay
    tracked, so after one refill each is served from its prefetch
    buffer."""
    unit = _unit(depth=1)
    _hit(unit, 1, 0)
    _hit(unit, 2, 1 << 20)
    assert _hit(unit, 1, 8192) is False  # tracked, but the buffer is empty
    assert _hit(unit, 2, (1 << 20) + 8192) is False
    assert _hit(unit, 1, 16384) is True
    assert _hit(unit, 2, (1 << 20) + 16384) is True


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        _unit(depth=0)


def test_prune_keeps_live_streams():
    unit = _unit(depth=1)
    # Flood with dead streams to trigger pruning...
    for sid in range(200):
        _hit(unit, sid, sid * 100000)
    # ...the most recent stream is still tracked.
    assert _hit(unit, 199, 199 * 100000 + 8192) is True
    assert len(unit._slots) <= unit.PRUNE_LIMIT + 1


def test_reset_clears_state():
    unit = _unit(depth=2)
    _hit(unit, 1, 0)
    unit.reset()
    _foreign(unit, 2, 8192)
    assert _hit(unit, 1, 8192) is False


def test_single_unit_device_routes_identity():
    disk = DiskDrive("d", units.gib(1))
    assert disk.route(12345) == (0, 12345)
    assert disk.boundary(units.mib(1)) == disk.capacity - units.mib(1)


def test_device_repr_mentions_name():
    disk = DiskDrive("mydisk", units.gib(1))
    assert "mydisk" in repr(disk)
