"""Tests for SEE and the isolation heuristics."""

import pytest

from repro import units
from repro.baselines.heuristics import (
    all_on_target_layout,
    isolate_tables_layout,
    isolate_tables_indexes_layout,
)
from repro.core.layout import Layout
from repro.db.schema import Database, DatabaseObject, INDEX, LOG, TABLE, TEMP
from repro.errors import LayoutError


@pytest.fixture
def db():
    return Database("t", [
        DatabaseObject("t1", TABLE, units.mib(100)),
        DatabaseObject("t2", TABLE, units.mib(50)),
        DatabaseObject("i1", INDEX, units.mib(20)),
        DatabaseObject("tmp", TEMP, units.mib(30)),
        DatabaseObject("log", LOG, units.mib(10)),
    ])


def test_see_layout_is_uniform(db):
    layout = Layout.see(db.object_names, ["a", "b", "c", "d"])
    assert (layout.matrix == 0.25).all()
    assert layout.is_regular()


def test_isolate_tables(db):
    layout = isolate_tables_layout(db, ["big", "small"], table_target=0)
    assert layout.fraction("t1", "big") == 1.0
    assert layout.fraction("t2", "big") == 1.0
    assert layout.fraction("i1", "big") == 0.0
    assert layout.fraction("i1", "small") == 1.0
    assert layout.is_regular()


def test_isolate_tables_needs_two_targets(db):
    with pytest.raises(LayoutError):
        isolate_tables_layout(db, ["only"])


def test_isolate_tables_and_indexes(db):
    layout = isolate_tables_indexes_layout(db, ["big", "s1", "s2"])
    assert layout.fraction("t1", "big") == 1.0
    assert layout.fraction("i1", "s1") == 1.0
    assert layout.fraction("tmp", "s2") == 1.0
    assert layout.fraction("log", "s2") == 1.0


def test_isolate_tables_and_indexes_needs_three_targets(db):
    with pytest.raises(LayoutError):
        isolate_tables_indexes_layout(db, ["a", "b"])


def test_all_on_target(db):
    layout = all_on_target_layout(db, ["d0", "ssd"], 1)
    assert all(layout.fraction(o, "ssd") == 1.0 for o in db.object_names)


def test_all_on_target_capacity_guard(db):
    with pytest.raises(LayoutError):
        all_on_target_layout(db, ["d0", "ssd"], 1, capacity=units.mib(100))
    # Large enough capacity passes.
    layout = all_on_target_layout(db, ["d0", "ssd"], 1,
                                  capacity=units.gib(1))
    assert layout is not None
