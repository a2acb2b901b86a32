"""Tenant-level tests: record parsing, incremental feeding, and
journaled trace-paced migrations."""

import glob
import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.faults.journal import MigrationJournal
from repro.online.controller import ControllerConfig
from repro.problem_io import load_problem
from repro.serve.tenant import Tenant, records_from_payload

from tests.serve.conftest import CONTROLLER, PROBLEM, hot_chunk


def _make_tenant(journal_dir=None, **overrides):
    problem = load_problem(PROBLEM)
    config = ControllerConfig(journal_dir=journal_dir,
                              **{**CONTROLLER, **overrides})
    layout = problem.make_layout(np.array([[1.0, 0.0], [1.0, 0.0]]))
    return Tenant("t1", problem, layout, config=config)


# ----------------------------------------------------------------------
# Record parsing
# ----------------------------------------------------------------------

def test_records_from_payload_fills_defaults():
    records = records_from_payload([{"obj": "a", "finish_time": 1.5}])
    record = records[0]
    assert record.obj == "a"
    assert record.finish_time == 1.5
    assert record.submit_time == 1.5  # defaults to finish_time
    assert record.kind == "read"
    assert record.size == 8192


def test_records_from_payload_rejects_non_objects():
    with pytest.raises(ReproError, match="record 1 is not an object"):
        records_from_payload([{"obj": "a", "finish_time": 0.0}, "nope"])


def test_records_from_payload_requires_obj_and_finish_time():
    with pytest.raises(ReproError, match="needs 'obj' and 'finish_time'"):
        records_from_payload([{"obj": "a"}])


@pytest.mark.parametrize("field,value", [
    ("finish_time", "1e309"), ("finish_time", "Infinity"),
    ("finish_time", "-Infinity"), ("finish_time", "NaN"),
    ("finish_time", '"inf"'), ("finish_time", '"1.5"'),
    ("finish_time", "true"), ("finish_time", "null"),
    ("submit_time", "Infinity"),
])
def test_records_from_payload_rejects_a_non_finite_time(field, value):
    # Parsed as the HTTP layer parses a body: 1e309 and Infinity both
    # load as float infinity.
    entries = json.loads('[{"obj": "a", "finish_time": 1.0}, '
                         '{"obj": "a", "finish_time": 2.0, "%s": %s}]'
                         % (field, value))
    with pytest.raises(ReproError, match="trace chunk record 1: %s must "
                                         "be a finite number" % field):
        records_from_payload(entries)


# ----------------------------------------------------------------------
# Incremental feeding
# ----------------------------------------------------------------------

def test_chunked_feed_matches_one_shot_feed():
    """Streaming a trace in many small chunks makes the same decisions
    as feeding it in one call — the check clock persists."""
    entries = hot_chunk(0.0, 16.0)
    whole, chunked = _make_tenant(), _make_tenant()
    whole.feed(records_from_payload(entries))
    for start in range(0, 16, 4):
        part = [e for e in entries
                if start <= e["finish_time"] < start + 4]
        chunked.feed(records_from_payload(part))

    assert chunked.records_fed == whole.records_fed
    assert chunked.chunks_fed == 4 and whole.chunks_fed == 1
    assert chunked.controller.resolves == whole.controller.resolves
    assert [e["kind"] for e in chunked.controller.log] \
        == [e["kind"] for e in whole.controller.log]
    assert np.allclose(chunked.controller.layout.matrix,
                       whole.controller.layout.matrix)
    # The synthetic drift actually drove a decision; the test is not
    # vacuously comparing two idle controllers.
    assert whole.controller.resolves >= 1


def test_feed_rejects_chunks_that_go_back_in_time():
    tenant = _make_tenant()
    tenant.feed(records_from_payload(hot_chunk(0.0, 4.0)))
    with pytest.raises(ReproError, match="goes back in time"):
        tenant.feed(records_from_payload(hot_chunk(1.0, 2.0)))
    # The clock is untouched by the rejected chunk.
    tenant.feed(records_from_payload(hot_chunk(4.0, 6.0)))


# ----------------------------------------------------------------------
# Journaled, trace-paced migration
# ----------------------------------------------------------------------

def test_accept_journals_then_trace_time_completes_migration(tmp_path):
    state = str(tmp_path / "t1")
    # A slow copy estimate keeps the migration in flight for several
    # seconds of trace time after the accept.
    tenant = _make_tenant(journal_dir=state, transfer_bps=256 * 1024)
    tenant.feed(records_from_payload(hot_chunk(0.0, 10.0)))
    assert tenant.controller.migrating
    kinds = [e["kind"] for e in tenant.controller.log]
    assert "migration-journaled" in kinds

    journals = glob.glob(state + "/migration-*.jsonl")
    assert len(journals) == 1
    assert not MigrationJournal.load(journals[0]).committed

    # Keep the trace clock moving until the copy bill is paid.
    clock = 10.0
    while tenant.controller.migrating and clock < 400.0:
        tenant.feed(records_from_payload(hot_chunk(clock, clock + 10.0)))
        clock += 10.0
    assert not tenant.controller.migrating
    assert MigrationJournal.load(journals[0]).committed
    fractions = tenant.controller.layout.fractions_by_name()
    assert fractions["b"][1] > 0.1  # the hot object moved to the SSD


def test_suspend_leaves_resumable_journal(tmp_path):
    state = str(tmp_path / "t1")
    tenant = _make_tenant(journal_dir=state, transfer_bps=256 * 1024)
    tenant.feed(records_from_payload(hot_chunk(0.0, 10.0)))
    assert tenant.controller.migrating
    target = tenant.controller._pending.layout.fractions_by_name()

    path = tenant.suspend()
    assert path is not None
    lines = [json.loads(line) for line in open(path)]
    assert lines[0]["kind"] == "begin"
    assert not any(line["kind"] == "commit" for line in lines)

    # A fresh incarnation of the tenant finishes the journal.
    fresh = _make_tenant(journal_dir=state, transfer_bps=256 * 1024)
    journal = fresh.controller.resume_migration(path)
    assert journal.committed
    assert not journal.remaining()
    fractions = fresh.controller.layout.fractions_by_name()
    assert fractions == {name: [pytest.approx(f, abs=1e-9) for f in row]
                         for name, row in target.items()}


def test_suspend_without_inflight_migration_is_a_noop():
    tenant = _make_tenant()
    assert tenant.suspend() is None
