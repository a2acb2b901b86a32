"""Tests for the crash-safe migration journal file format."""

import json

import numpy as np
import pytest

from repro import units
from repro.core.layout import Layout
from repro.core.migration import migration_cost_seconds, plan_migration
from repro.errors import FaultError
from repro.faults.journal import MigrationJournal

pytestmark = pytest.mark.chaos

SIZE = units.mib(8)


def _plan(sizes=None):
    current = Layout(np.array([[1.0, 0.0]]), ["a"], ["t0", "t1"])
    target = Layout(np.array([[0.0, 1.0]]), ["a"], ["t0", "t1"])
    return plan_migration(current, target, sizes or {"a": SIZE})


def test_create_then_load_round_trip(tmp_path):
    path = str(tmp_path / "migration.jsonl")
    plan = _plan()
    journal = MigrationJournal.create(path, plan, chunk=units.mib(1),
                                      meta={"predicted_util": 0.5})
    journal.record_chunk(0)
    journal.record_chunk(3)
    journal.close()

    loaded = MigrationJournal.load(path)
    assert loaded.done == {0, 3}
    assert loaded.total_chunks == 8
    assert loaded.remaining() == [1, 2, 4, 5, 6, 7]
    assert loaded.committed is False
    assert loaded.meta == {"predicted_util": 0.5}
    assert loaded.plan == plan
    assert loaded.chunks == plan.chunks(units.mib(1))
    assert loaded.matches(plan, units.mib(1))
    assert not loaded.matches(plan, units.mib(2))


def test_reloaded_plan_costs_what_the_accepted_plan_cost(tmp_path):
    # d0 -> d2 and d1 -> d2: d2 only receives, and it is the busiest.
    current = Layout(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                     ["a", "b"], ["d0", "d1", "d2"])
    target = Layout(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
                    ["a", "b"], ["d0", "d1", "d2"])
    plan = plan_migration(current, target,
                          {"a": units.mib(10), "b": units.mib(10)})
    path = str(tmp_path / "migration.jsonl")
    MigrationJournal.create(path, plan, chunk=units.mib(1)).close()

    rate = units.mib(80)
    accepted = migration_cost_seconds(plan, transfer_bps=rate)
    assert accepted == pytest.approx(0.25)
    reloaded = MigrationJournal.load(path).plan
    assert migration_cost_seconds(reloaded, transfer_bps=rate) == accepted


def test_chunking_matches_plan_bytes(tmp_path):
    journal = MigrationJournal.create(
        str(tmp_path / "m.jsonl"), _plan({"a": units.mib(3) + 17}),
        chunk=units.mib(1),
    )
    assert [size for _, _, size in journal.chunks] == \
        [units.mib(1), units.mib(1), units.mib(1), 17]
    journal.close()


def test_record_chunk_is_idempotent_and_bounded(tmp_path):
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.record_chunk(2)
    journal.record_chunk(2)
    journal.close()
    lines = [json.loads(l) for l in open(path) if l.strip()]
    assert sum(1 for r in lines if r["kind"] == "chunk") == 1
    with pytest.raises(FaultError):
        MigrationJournal.load(path).record_chunk(99)


def test_commit_recorded_once(tmp_path):
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.record_commit()
    journal.record_commit()
    journal.close()
    loaded = MigrationJournal.load(path)
    assert loaded.committed
    lines = [json.loads(l) for l in open(path) if l.strip()]
    assert sum(1 for r in lines if r["kind"] == "commit") == 1


def test_torn_final_line_is_tolerated(tmp_path):
    """A crash can leave one partial trailing write; recovery must shrug
    it off (the chunk it described is simply re-copied)."""
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.record_chunk(0)
    journal.close()
    with open(path, "a") as handle:
        handle.write('{"kind": "chunk", "ind')  # torn mid-record
    loaded = MigrationJournal.load(path)
    assert loaded.done == {0}


def test_mid_file_corruption_raises(tmp_path):
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.record_chunk(0)
    journal.close()
    lines = open(path).read().splitlines()
    lines.insert(1, "garbage not json")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(FaultError):
        MigrationJournal.load(path)


def test_missing_begin_record_raises(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"kind": "chunk", "index": 0}\n')
    with pytest.raises(FaultError):
        MigrationJournal.load(str(path))


def test_wrong_version_raises(tmp_path):
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.close()
    record = json.loads(open(path).readline())
    record["version"] = 99
    open(path, "w").write(json.dumps(record) + "\n")
    with pytest.raises(FaultError):
        MigrationJournal.load(path)


def test_unknown_record_kind_raises(tmp_path):
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.close()
    with open(path, "a") as handle:
        handle.write('{"kind": "sabotage"}\n')
        handle.write('{"kind": "chunk", "index": 1}\n')
    with pytest.raises(FaultError):
        MigrationJournal.load(path)


def test_out_of_range_done_index_raises(tmp_path):
    path = str(tmp_path / "m.jsonl")
    journal = MigrationJournal.create(path, _plan(), chunk=units.mib(1))
    journal.close()
    with open(path, "a") as handle:
        handle.write('{"kind": "chunk", "index": 12345}\n')
        handle.write('{"kind": "commit"}\n')
    with pytest.raises(FaultError):
        MigrationJournal.load(path)


def test_loaded_journal_appends_further_records(tmp_path):
    """Recovery continues the same file: chunks recorded after a load
    land alongside the pre-crash ones."""
    path = str(tmp_path / "m.jsonl")
    MigrationJournal.create(path, _plan(), chunk=units.mib(1)).close()
    first = MigrationJournal.load(path)
    first.record_chunk(0)
    first.close()
    second = MigrationJournal.load(path)
    assert second.done == {0}
    second.record_chunk(1)
    second.record_commit()
    second.close()
    final = MigrationJournal.load(path)
    assert final.done == {0, 1}
    assert final.committed
