"""Tests for the migration planner."""

import numpy as np
import pytest

from repro import units
from repro.core.layout import Layout
from repro.core.migration import (
    MigrationPlan,
    Move,
    migration_cost_seconds,
    plan_migration,
)
from repro.errors import LayoutError

OBJECTS = ["a", "b"]
TARGETS = ["t0", "t1", "t2"]
SIZES = {"a": units.mib(120), "b": units.mib(60)}


def _layout(rows):
    return Layout(np.array(rows, dtype=float), OBJECTS, TARGETS)


def test_identical_layouts_move_nothing():
    layout = _layout([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    plan = plan_migration(layout, layout, SIZES)
    assert plan.total_bytes == 0
    assert plan.moves == []


def test_single_object_relocation():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    plan = plan_migration(current, target, SIZES)
    assert plan.total_bytes == units.mib(120)
    assert len(plan.moves) == 1
    move = plan.moves[0]
    assert (move.obj, move.source, move.destination) == ("a", "t0", "t1")


def test_partial_spread_moves_only_the_delta():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    plan = plan_migration(current, target, SIZES)
    assert plan.total_bytes == units.mib(60)


def test_multi_source_multi_destination():
    current = _layout([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
    plan = plan_migration(current, target, SIZES)
    # a: 60 MiB from each of t0, t1 to t2; b: 30 to t1, 30 to t2.
    assert plan.total_bytes == units.mib(120 + 60)
    assert plan.bytes_written["t2"] == units.mib(120 + 30)
    assert plan.bytes_read["t0"] == units.mib(60 + 60)


def test_moves_sorted_largest_first():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    plan = plan_migration(current, target, SIZES)
    sizes = [move.bytes for move in plan.moves]
    assert sizes == sorted(sizes, reverse=True)


def test_mismatched_layouts_rejected():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    other = Layout(np.array([[1.0, 0.0]]), ["a"], ["t0", "t1"])
    with pytest.raises(LayoutError):
        plan_migration(current, other, SIZES)


def test_moved_fraction():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    plan = plan_migration(current, target, SIZES)
    total = sum(SIZES.values())
    assert plan.moved_fraction(total) == pytest.approx(120 / 180)


def test_describe_lists_moves():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    plan = plan_migration(current, target, SIZES)
    text = plan.describe(top=1)
    assert "a" in text
    assert "smaller moves" in text


def test_cost_bound_uses_busiest_target():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    plan = plan_migration(current, target, SIZES)
    # t0 reads 180 MiB; t1 writes 180 MiB: bound = 180 MiB / rate.
    seconds = migration_cost_seconds(plan, transfer_bps=units.mib(180))
    assert seconds == pytest.approx(1.0)


def test_cost_bound_counts_targets_that_only_receive():
    moves = [Move("a", "t0", "t2", units.mib(10)),
             Move("b", "t1", "t2", units.mib(10))]
    plan = MigrationPlan(
        moves=moves, total_bytes=units.mib(20),
        bytes_read={"t0": units.mib(10), "t1": units.mib(10)},
        bytes_written={"t2": units.mib(20)},
    )
    # t2 writes 20 MiB; either source reads only 10.
    seconds = migration_cost_seconds(plan, transfer_bps=units.mib(80))
    assert seconds == pytest.approx(0.25)


def test_chunks_split_each_move_in_order():
    plan = MigrationPlan.from_moves([
        Move("a", "t0", "t1", units.mib(2) + 5),
        Move("b", "t2", "t0", units.mib(1)),
    ])
    assert plan.chunks(units.mib(1)) == [
        ("t0", "t1", units.mib(1)), ("t0", "t1", units.mib(1)),
        ("t0", "t1", 5), ("t2", "t0", units.mib(1)),
    ]


def test_advisor_migration_integration(small_problem):
    """Plan from SEE to the advisor's recommendation on a real problem."""
    from repro.core.advisor import LayoutAdvisor

    outcome = LayoutAdvisor(small_problem, regular=True).recommend()
    see = small_problem.see_layout()
    sizes = dict(zip(small_problem.object_names, small_problem.sizes))
    plan = plan_migration(see, outcome.recommended, sizes)
    assert plan.total_bytes > 0
    assert plan.moved_fraction(sum(sizes.values())) <= 1.0

def test_describe_without_top_lists_everything():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    plan = plan_migration(current, target, SIZES)
    text = plan.describe()
    assert "a" in text and "b" in text
    assert "smaller moves" not in text


def test_describe_top_covering_all_moves_adds_no_truncation_line():
    current = _layout([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    target = _layout([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    plan = plan_migration(current, target, SIZES)
    text = plan.describe(top=len(plan.moves))
    assert "smaller moves" not in text


def test_describe_truncation_counts_hidden_moves():
    sizes = {"a": units.mib(120), "b": units.mib(60), "c": units.mib(30)}
    current = Layout(np.array([[1.0, 0.0, 0.0]] * 3), list(sizes), TARGETS)
    target = Layout(np.array([[0.0, 1.0, 0.0]] * 3), list(sizes), TARGETS)
    plan = plan_migration(current, target, sizes)
    assert len(plan.moves) == 3
    text = plan.describe(top=1)
    # Largest move shown, the other two counted.
    assert "a" in text
    assert "... and 2 smaller moves" in text
    assert "\n  c" not in text
