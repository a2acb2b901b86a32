"""Durability primitives: WAL append/replay, snapshots, and the
crash-truncation property.

These tests exercise :mod:`repro.serve.durability` directly — no
service, no sockets — so the replay semantics (torn final line,
authoritative create, exactly-once swap accounting) are pinned down
independently of the recovery plumbing above them.  The truncation
property covers every log that forgives a torn tail: the WAL, the
migration journal and the controller event log, each cut at any byte
and, where the program appends to it again, appended to after the cut.
"""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core.layout import Layout
from repro.core.migration import plan_migration
from repro.faults.journal import MigrationJournal
from repro.online.events import EventLog
from repro.serve.durability import (DurabilityError, TenantWAL,
                                    load_snapshot, load_tenant_state,
                                    read_wal, recover_state_dir,
                                    write_snapshot)


def _create(wal, layout=None):
    return wal.append(
        "create", tenant_id="t1", problem={"objects": []}, controller={},
        weight=1.0, slo=None, layout=layout or {"a": [1.0]},
        journal_seq=0,
    )


def test_wal_appends_are_replayable_in_order(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    wal.append("feed", clock_s=2.0, records_fed=10, chunks_fed=1,
               resolves=0)
    wal.append("swap", journal="migration-000001.jsonl", journal_seq=1,
               resolves=1, layout={"a": [0.5]})
    wal.close()
    records, skipped = read_wal(wal.path)
    assert skipped == 0
    assert [r["seq"] for r in records] == [1, 2, 3]
    assert [r["kind"] for r in records] == ["create", "feed", "swap"]


def test_wal_rejects_unknown_kind(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    with pytest.raises(DurabilityError):
        wal.append("truncate-table")


def test_stray_config_line_is_skipped_like_any_unknown_kind(tmp_path):
    """Nothing writes a ``config`` record, so replay has no rule for
    one: it is a bad line, skipped and counted."""
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    wal.close()
    with open(wal.path, "a") as handle:
        for record in ({"v": 1, "seq": 2, "kind": "config",
                        "controller": {"patience": 9}, "weight": 5.0},
                       {"v": 1, "seq": 3, "kind": "feed", "clock_s": 1.0,
                        "records_fed": 5, "chunks_fed": 1,
                        "resolves": 0}):
            handle.write(json.dumps(record) + "\n")
    records, skipped = read_wal(wal.path)
    assert [r["kind"] for r in records] == ["create", "feed"]
    assert skipped == 1
    state = load_tenant_state(str(tmp_path / "t1"))
    assert (state["controller"], state["weight"]) == ({}, 1.0)
    assert (state["records_fed"], state["wal_skipped"]) == (5, 1)


def test_torn_final_line_is_dropped_mid_line_is_counted(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    wal.append("feed", clock_s=1.0, records_fed=5, chunks_fed=1,
               resolves=0)
    wal.close()
    with open(wal.path) as handle:
        create_line, feed_line = handle.read().splitlines()
    # Corrupt the middle, tear the end: only the middle counts.
    with open(wal.path, "w") as handle:
        handle.write(create_line + "\n")
        handle.write("{不json\n")
        handle.write(feed_line + "\n")
        handle.write(feed_line[: len(feed_line) // 2])  # torn by a crash
    records, skipped = read_wal(wal.path)
    assert [r["kind"] for r in records] == ["create", "feed"]
    assert skipped == 1
    state = load_tenant_state(str(tmp_path / "t1"))
    assert state["records_fed"] == 5
    assert state["wal_skipped"] == 1


def test_compaction_preserves_the_sequence_counter(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    wal.append("feed", clock_s=1.0, records_fed=5, chunks_fed=1,
               resolves=0)
    folded = wal.seq
    wal.compact(folded)
    assert read_wal(wal.path)[0] == []
    assert wal.append("feed", clock_s=2.0, records_fed=9, chunks_fed=2,
                      resolves=0) == folded + 1
    wal.close()
    resumed = TenantWAL.resume(str(tmp_path / "t1"))
    assert resumed.seq == folded + 1


def test_snapshot_write_is_atomic_and_pruned(tmp_path):
    directory = str(tmp_path / "t1")
    for index in range(3):
        write_snapshot(directory, {
            "tenant_id": "t1", "problem": {}, "layout": {"a": [1.0]},
            "marker": index, "wal_seq": index + 1,
        })
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("snapshot-"))
    assert len(names) == 2, "keep=2 prunes older snapshots"
    assert load_snapshot(directory)["marker"] == 2
    assert not any(n.endswith(".tmp") for n in os.listdir(directory))


def test_corrupt_newest_snapshot_falls_back_to_older(tmp_path):
    directory = str(tmp_path / "t1")
    write_snapshot(directory, {"tenant_id": "t1", "problem": {},
                               "layout": {"a": [1.0]}, "marker": "old",
                               "wal_seq": 1})
    newest = write_snapshot(directory, {"tenant_id": "t1", "problem": {},
                                        "layout": {"a": [1.0]},
                                        "marker": "new", "wal_seq": 2})
    with open(newest, "w") as handle:
        handle.write("not json at all")
    assert load_snapshot(directory)["marker"] == "old"


def test_snapshot_requires_wal_seq(tmp_path):
    with pytest.raises(DurabilityError):
        write_snapshot(str(tmp_path / "t1"), {"tenant_id": "t1"})


def test_delete_makes_the_tenant_unrecoverable(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    wal.append("delete", tenant_id="t1")
    wal.close()
    assert load_tenant_state(str(tmp_path / "t1")) is None
    states, errors = recover_state_dir(str(tmp_path))
    assert states == [] and errors == []


def test_recreate_after_delete_is_an_authoritative_rebirth(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    wal.append("feed", clock_s=9.0, records_fed=99, chunks_fed=9,
               resolves=3)
    wal.append("delete", tenant_id="t1")
    _create(wal, layout={"a": [0.0, 1.0]})
    wal.close()
    state = load_tenant_state(str(tmp_path / "t1"))
    assert state["layout"] == {"a": [0.0, 1.0]}
    assert state["records_fed"] == 0, "no leakage from the first life"
    assert state["clock_s"] is None


def test_swap_records_accumulate_exactly_once(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    for seq in (1, 2):
        wal.append("swap", journal="migration-%06d.jsonl" % seq,
                   journal_seq=seq, resolves=seq,
                   layout={"a": [1.0 - 0.25 * seq]})
    # A replayed swap line (crash between append and ack) must not
    # produce a duplicate entry.
    wal.append("swap", journal="migration-000002.jsonl", journal_seq=2,
               resolves=2, layout={"a": [0.5]})
    wal.close()
    state = load_tenant_state(str(tmp_path / "t1"))
    assert state["swapped_journals"] == ["migration-000001.jsonl",
                                         "migration-000002.jsonl"]
    assert state["journal_seq"] == 2


def test_swap_records_replay_the_drift_baseline(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    _create(wal)
    solved = [{"name": "a", "read_rate": 200.0}]
    wal.append("swap", journal="migration-000001.jsonl", journal_seq=1,
               resolves=1, layout={"a": [0.5]}, solved=solved)
    # A swap record without the field keeps the baseline it replays onto.
    wal.append("swap", journal="migration-000002.jsonl", journal_seq=2,
               resolves=2, layout={"a": [0.25]})
    wal.close()
    state = load_tenant_state(str(tmp_path / "t1"))
    assert state["solved"] == solved
    assert state["layout"] == {"a": [0.25]}


def test_orphan_records_without_create_are_not_a_tenant(tmp_path):
    wal = TenantWAL(str(tmp_path / "t1"))
    wal.append("feed", clock_s=1.0, records_fed=5, chunks_fed=1,
               resolves=0)
    wal.close()
    assert load_tenant_state(str(tmp_path / "t1")) is None


def test_recover_state_dir_isolates_a_corrupt_tenant(tmp_path):
    good = TenantWAL(str(tmp_path / "good"))
    _create(good)
    good.close()
    bad = str(tmp_path / "bad")
    os.makedirs(bad)
    # A create whose identity fields are gone: replay must error this
    # tenant but still return the healthy one.
    with open(os.path.join(bad, "wal.jsonl"), "w") as handle:
        handle.write(json.dumps({"seq": 1, "kind": "create", "v": 1}))
        handle.write("\n")
        handle.write(json.dumps({"seq": 2, "kind": "feed", "clock_s": 1.0}))
        handle.write("\n")
    states, errors = recover_state_dir(str(tmp_path))
    assert [s["tenant_id"] for s in states] == ["t1"]
    assert len(errors) == 1 and errors[0][0].endswith("bad")


# ----------------------------------------------------------------------
# The crash-truncation property
# ----------------------------------------------------------------------

def _cut(path, fraction):
    """Truncate ``path`` at ``fraction`` of its bytes, as a SIGKILL
    mid-append may; returns the bytes kept."""
    offset = int(fraction * os.path.getsize(path))
    with open(path, "r+b") as handle:
        handle.truncate(offset)
    return offset


def _build_walled_tenant(base, tail_kinds):
    """A tenant directory: snapshot + a WAL tail of feeds and swaps.

    Returns ``(directory, tail_records)`` where ``tail_records`` are
    the post-snapshot WAL records in append order.
    """
    directory = os.path.join(base, "t1")
    wal = TenantWAL(directory)
    _create(wal)
    wal.append("feed", clock_s=1.0, records_fed=10, chunks_fed=1,
               resolves=0)
    write_snapshot(directory, {
        "tenant_id": "t1", "problem": {"objects": []},
        "layout": {"a": [1.0]}, "clock_s": 1.0, "records_fed": 10,
        "chunks_fed": 1, "resolves": 0, "journal_seq": 0,
        "swapped_journals": [], "wal_seq": wal.seq,
    })
    wal.compact(wal.seq)
    feeds, swaps = 1, 0
    for kind in tail_kinds:
        if kind == "feed":
            feeds += 1
            wal.append("feed", clock_s=float(feeds),
                       records_fed=10 * feeds, chunks_fed=feeds,
                       resolves=swaps)
        else:
            swaps += 1
            wal.append("swap", journal="migration-%06d.jsonl" % swaps,
                       journal_seq=swaps, resolves=swaps,
                       layout={"a": [float(swaps)]})
    wal.close()
    return directory, read_wal(wal.path)[0]


@settings(max_examples=60, deadline=None)
@given(
    tail_kinds=st.lists(st.sampled_from(["feed", "swap"]), max_size=8),
    cut=st.floats(0.0, 1.0),
)
def test_wal_truncated_at_any_byte_recovers_consistently(tail_kinds, cut):
    """SIGKILL can cut the WAL at any byte past the last snapshot; the
    replayed state must be the longest record prefix, with no duplicate
    placement swaps and no regression below the snapshot."""
    with tempfile.TemporaryDirectory() as base:
        directory, full = _build_walled_tenant(base, tail_kinds)
        path = os.path.join(directory, "wal.jsonl")
        _cut(path, cut)

        records, skipped = read_wal(path)
        assert skipped == 0, "a clean truncation only tears the tail"
        # Replay sees exactly the longest surviving record prefix.
        assert records == full[: len(records)]

        state = load_tenant_state(directory)
        assert state is not None, "the snapshot floor always recovers"
        assert state["tenant_id"] == "t1"
        swaps = [r for r in records if r["kind"] == "swap"]
        feeds = [r for r in records if r["kind"] == "feed"]
        assert state["swapped_journals"] == [r["journal"] for r in swaps]
        assert len(set(state["swapped_journals"])) \
            == len(state["swapped_journals"])
        assert state["journal_seq"] == (swaps[-1]["journal_seq"]
                                        if swaps else 0)
        assert state["layout"] == (swaps[-1]["layout"] if swaps
                                   else {"a": [1.0]})
        assert state["records_fed"] == (feeds[-1]["records_fed"]
                                        if feeds else 10)
        assert state["wal_seq"] == (records[-1]["seq"] if records
                                    else 2), "seq floor is the snapshot"


@settings(max_examples=60, deadline=None)
@given(
    tail_kinds=st.lists(st.sampled_from(["feed", "swap"]), max_size=8),
    cut=st.floats(0.0, 1.0),
)
def test_wal_cut_at_any_byte_then_appended_loses_nothing_more(
        tail_kinds, cut):
    """After the cut, the next life resumes the WAL and appends: the new
    record lands after the longest surviving prefix, never glued onto a
    torn fragment."""
    with tempfile.TemporaryDirectory() as base:
        directory, full = _build_walled_tenant(base, tail_kinds)
        path = os.path.join(directory, "wal.jsonl")
        _cut(path, cut)
        kept, _ = read_wal(path)

        wal = TenantWAL.resume(directory)
        seq = wal.append("feed", clock_s=99.0, records_fed=999,
                         chunks_fed=99, resolves=0)
        wal.close()

        records, skipped = read_wal(path)
        assert skipped == 0
        assert kept == full[: len(kept)]
        assert records[:-1] == kept
        assert records[-1]["seq"] == seq == (kept[-1]["seq"] if kept
                                             else 2) + 1
        state = load_tenant_state(directory)
        assert (state["records_fed"], state["chunks_fed"]) == (999, 99)
        assert state["wal_seq"] == seq and state["wal_skipped"] == 0
        assert state["swapped_journals"] == [
            r["journal"] for r in kept if r["kind"] == "swap"]


def _journal_plan():
    current = Layout(np.array([[1.0, 0.0]]), ["a"], ["t0", "t1"])
    target = Layout(np.array([[0.0, 1.0]]), ["a"], ["t0", "t1"])
    return plan_migration(current, target, {"a": units.mib(8)})


@settings(max_examples=60, deadline=None)
@given(
    done=st.lists(st.integers(0, 7), max_size=8),
    commit=st.booleans(),
    cut=st.floats(0.0, 1.0),
)
def test_journal_cut_at_any_byte_then_finished_loads_whole(done, commit,
                                                           cut):
    """A resume loads the cut journal, records the remaining chunks and
    the commit, and the journal it leaves loads whole.  A cut inside
    the begin record is a migration that never began."""
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "migration-0001.jsonl")
        journal = MigrationJournal.create(path, _journal_plan(),
                                          chunk=units.mib(1))
        begin = os.path.getsize(path)
        for index in done:
            journal.record_chunk(index)
        if commit:
            journal.record_commit()
        journal.close()
        offset = _cut(path, cut)

        loaded = MigrationJournal.load(path)
        if loaded is None:
            assert offset < begin, "only a cut begin never began"
            return
        assert loaded.done <= set(done)
        for index in loaded.remaining():
            loaded.record_chunk(index)
        loaded.record_commit()
        loaded.close()

        final = MigrationJournal.load(path)
        assert final.committed
        assert final.remaining() == []
        assert final.done == set(range(8))


@settings(max_examples=60, deadline=None)
@given(events=st.integers(0, 6), cut=st.floats(0.0, 1.0))
def test_event_log_cut_at_any_byte_loads_the_longest_prefix(events, cut):
    log = EventLog()
    for index in range(events):
        log.emit(index * 0.5, "check", gain=index / 3.0, note="é" * index)
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "events.jsonl")
        log.to_jsonl(path)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")[:-1]
        offset = _cut(path, cut)
        # A line is whole once its last byte survives the cut, newline
        # or not; bytes past the last whole line are a torn line.
        whole = size = 0
        for line in lines:
            if size + len(line) > offset:
                break
            size += len(line) + 1
            whole += 1

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            loaded = EventLog.from_jsonl(path)
        assert loaded.events == log.events[:whole]
        assert loaded.skipped == (1 if offset > size else 0)
