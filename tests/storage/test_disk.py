"""Tests for the mechanical disk model."""

import dataclasses

import pytest

from repro import units
from repro.storage.disk import (
    DiskDrive,
    DiskParameters,
    ENTERPRISE_15K,
    NEARLINE_7200,
)
from repro.storage.request import IORequest


def _request(stream_id, lba, size=8192, kind="read"):
    return IORequest(stream_id=stream_id, kind=kind, lba=lba, size=size)


@pytest.fixture
def unit():
    return DiskDrive("d", units.gib(1)).units[0]


def test_rotation_is_half_a_revolution():
    params = DiskParameters(rpm=15000)
    assert params.rotation_s == pytest.approx(0.002)


def _seek(lba):
    """Seek time in the service time of a random read at ``lba``, the
    first request of a fresh unit (head at 0, no elevator gain)."""
    p = ENTERPRISE_15K
    cost = DiskDrive("d", units.gib(1)).units[0].service_time(
        _request(1, lba))
    return cost - p.overhead_s - p.rotation_s - 8192 / p.transfer_bps


def test_seek_time_zero_for_no_move():
    assert _seek(0) == pytest.approx(0.0, abs=1e-12)


def test_seek_time_monotone_in_distance():
    short = _seek(units.mib(1))
    longer = _seek(units.mib(100))
    assert 0 < short < longer <= ENTERPRISE_15K.max_seek_s


def test_seek_time_clamped_at_full_stroke():
    assert _seek(units.gib(10)) == pytest.approx(ENTERPRISE_15K.max_seek_s)


def test_sequential_requests_much_cheaper_than_random(unit):
    random_cost = unit.service_time(_request(1, units.mib(500)))
    sequential_cost = unit.service_time(_request(1, units.mib(500) + 8192))
    assert sequential_cost < random_cost / 5


def test_first_request_pays_positioning(unit):
    cost = unit.service_time(_request(1, units.mib(100)))
    assert cost > ENTERPRISE_15K.rotation_s


def test_readahead_interleaving_amortized_by_prefetch_chunk(unit):
    """With one foreign stream interleaving, the sequential stream is

    served from the drive's bounded prefetch buffer: one repositioning
    per chunk, cheap requests in between."""
    unit.service_time(_request(1, 0))
    foreign = units.mib(700)
    lba = 8192
    costs = []
    for _ in range(16):
        unit.service_time(_request(2, foreign))
        costs.append(unit.service_time(_request(1, lba)))
        lba += 8192
    # The first interleaved request pays the repositioning that fills
    # the prefetch chunk; most of the rest ride the buffer.
    assert costs[0] > 1e-3
    cheap = sum(1 for cost in costs if cost < 1e-3)
    assert cheap >= 12


def test_readahead_collapse_with_contention(unit):
    """Interleave foreign requests past the readahead depth: the

    sequential stream loses its discount entirely (Figure 8 collapse)."""
    unit.service_time(_request(1, 0))
    lba = 8192
    foreign = units.mib(700)
    for _ in range(6):
        for k in range(3):
            unit.service_time(_request(2 + k, foreign + k * units.mib(10)))
        cost = unit.service_time(_request(1, lba))
        lba += 8192
        # Three intervening requests (chi=3) exceed the tracking depth:
        # every sequential request pays full positioning.
        assert cost > 1e-3


def test_elevator_shortens_random_seeks(unit):
    solo = unit.service_time(_request(1, units.mib(600)), active_streams=1)
    unit.reset()
    busy = unit.service_time(_request(1, units.mib(600)), active_streams=9)
    assert busy < solo


def test_write_penalty_applies_to_positioning(unit):
    read_cost = unit.service_time(_request(1, units.mib(300), kind="read"))
    unit.reset()
    write_cost = unit.service_time(_request(1, units.mib(300), kind="write"))
    assert write_cost > read_cost


def test_transfer_time_scales_with_size(unit):
    small = unit.transfer_time(units.kib(8))
    large = unit.transfer_time(units.kib(64))
    assert large == pytest.approx(8 * small)


def test_nearline_slower_positioning_than_enterprise():
    assert NEARLINE_7200.rotation_s > ENTERPRISE_15K.rotation_s
    assert NEARLINE_7200.max_seek_s > ENTERPRISE_15K.max_seek_s


def test_reset_restores_head_and_tracker(unit):
    unit.service_time(_request(1, units.mib(100)))
    unit.reset()
    assert unit.head == 0
    # After reset the continuation is no longer a hit.
    cost = unit.service_time(_request(1, units.mib(100) + 8192))
    assert cost > 1e-3


def test_custom_parameters_respected():
    params = dataclasses.replace(ENTERPRISE_15K, transfer_bps=10 * units.MIB)
    disk = DiskDrive("slow", units.gib(1), params)
    assert disk.units[0].transfer_time(10 * units.MIB) == pytest.approx(1.0)
