"""Tests for the RAID1 and RAID5 device models."""

import pytest

from repro import units
from repro.storage.raid import Raid1Mirror, Raid5Group
from repro.storage.request import IORequest


def _request(lba, kind="read", size=8192, stream=1):
    return IORequest(stream_id=stream, kind=kind, lba=lba, size=size)


class TestRaid1:
    def test_single_unit_with_two_way_parallelism(self):
        raid = Raid1Mirror("m", units.gib(1))
        assert len(raid.units) == 1
        assert raid.units[0].parallelism == 2

    def test_reads_alternate_between_members(self):
        unit = Raid1Mirror("m", units.gib(1)).units[0]
        unit.service_time(_request(units.mib(100)))
        unit.service_time(_request(units.mib(500)))
        # Each member served one read: their heads differ.
        heads = [member.head for member in unit._members]
        assert heads[0] != heads[1]

    def test_writes_touch_both_members(self):
        unit = Raid1Mirror("m", units.gib(1)).units[0]
        unit.service_time(_request(units.mib(100), kind="write"))
        heads = {member.head for member in unit._members}
        assert heads == {units.mib(100) + 8192}

    def test_write_cost_at_least_read_cost(self):
        read_unit = Raid1Mirror("m1", units.gib(1)).units[0]
        write_unit = Raid1Mirror("m2", units.gib(1)).units[0]
        read_cost = read_unit.service_time(_request(units.mib(100)))
        write_cost = write_unit.service_time(
            _request(units.mib(100), kind="write")
        )
        assert write_cost >= read_cost

    def test_reset_clears_members(self):
        unit = Raid1Mirror("m", units.gib(1)).units[0]
        unit.service_time(_request(units.mib(100)))
        unit.reset()
        assert all(member.head == 0 for member in unit._members)


class TestRaid5:
    def test_needs_three_members(self):
        with pytest.raises(ValueError):
            Raid5Group("r", units.gib(1), 2)

    def test_member_capacity_accounts_for_parity(self):
        raid = Raid5Group("r", units.gib(2), 4)
        # Usable 2 GiB over 3 data-members' worth: each member holds
        # a third of usable capacity.
        assert raid.units[0].capacity == units.gib(2) // 3

    def test_round_robin_routing(self):
        raid = Raid5Group("r", units.gib(2), 4, stripe_unit=units.kib(64))
        su = raid.stripe_unit
        assert raid.route(0)[0] == 0
        assert raid.route(su)[0] == 1
        assert raid.route(4 * su)[0] == 0

    def test_small_write_penalty(self):
        raid = Raid5Group("r", units.gib(2), 4)
        read_cost = raid.units[0].service_time(_request(units.mib(10)))
        raid.units[0].reset()
        write_cost = raid.units[0].service_time(
            _request(units.mib(10), kind="write")
        )
        assert write_cost > 3 * read_cost

    def test_reads_cost_like_plain_disk(self):
        from repro.storage.disk import DiskUnit, ENTERPRISE_15K

        raid = Raid5Group("r", units.gib(2), 4)
        plain = DiskUnit(raid.units[0].capacity, ENTERPRISE_15K)
        assert raid.units[0].service_time(
            _request(units.mib(10))
        ) == pytest.approx(plain.service_time(_request(units.mib(10))))

