"""The one JSON-lines module: line format, torn-tail rule, durability.

Every log the program keeps writes and reads through
:mod:`repro.jsonl`.  These tests pin its rules directly, pin the bytes
each log's writer produces, and fail when a module other than
``repro/jsonl.py`` fsyncs or opens a file for appending.
"""

import ast
import hashlib
import itertools
import os
import pathlib

import numpy as np
import pytest

import repro
from repro import jsonl
from repro.core.layout import Layout
from repro.core.migration import plan_migration
from repro.faults.journal import MigrationJournal
from repro.obs import Instrumentation
from repro.obs.export import write_trace
from repro.online.events import EventLog
from repro.serve.durability import TenantWAL, write_snapshot
from repro.serve.tracing import AccessLog
from repro.storage.request import CompletionRecord
from repro.workload.trace_io import save_trace

SRC = pathlib.Path(repro.__file__).parent


# ----------------------------------------------------------------------
# Reading: records, bad lines, and the torn tail
# ----------------------------------------------------------------------

def test_read_separates_records_bad_lines_and_a_torn_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n[1, 2]\n  \nnot json\n{"b": 2}\n{"c": 3')
    records, bad, torn = jsonl.read(str(path))
    assert records == [{"a": 1}, {"b": 2}]
    assert bad == [3, 5, 7]
    assert torn


def test_a_bad_line_before_the_last_is_not_a_torn_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": \n{"c": 3}\n\n')
    assert jsonl.read(str(path)) == ([{"a": 1}, {"c": 3}], [2], False)


def test_read_applies_the_log_check_to_every_record(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"seq": 1}\n{"kind": "x"}\n{"seq": 2}\n')
    records, bad, torn = jsonl.read(str(path), check=lambda r: "seq" in r)
    assert (records, bad, torn) == ([{"seq": 1}, {"seq": 2}], [2], False)


def test_scan_numbers_lines_from_one_and_skips_blank_ones(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'\n{"a": 1}\r\n\xff\xfe\n"text"\n')
    assert list(jsonl.scan(str(path))) == [(2, {"a": 1}), (3, None),
                                           (4, None)]


# ----------------------------------------------------------------------
# Appending: the seal, the fsync, and reopening
# ----------------------------------------------------------------------

@pytest.mark.parametrize("tail,sealed", [
    ('{"b": 2}', '{"b": 2}\n'),      # a whole record lost its newline
    ('{"b": 2', ""),                 # a partial write is cut
    ("   ", ""),
    ("", ""),
])
def test_the_first_append_seals_the_tail(tmp_path, tail, sealed):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n' + tail)
    log = jsonl.AppendLog(str(path))
    log.append({"c": 3})
    log.close()
    assert path.read_text() == '{"a": 1}\n' + sealed + '{"c": 3}\n'
    records, bad, _ = jsonl.read(str(path))
    assert bad == [] and records[-1] == {"c": 3}


def test_the_seal_reaches_back_past_one_block(tmp_path):
    path = tmp_path / "log.jsonl"
    whole = jsonl.line({"pad": "x" * 10000})
    path.write_text('{"a": 1}\n' + whole[:-1])
    jsonl.AppendLog(str(path)).open().close()
    assert path.read_text() == '{"a": 1}\n' + whole
    path.write_text('{"a": 1}\n' + whole[:-2])
    jsonl.AppendLog(str(path)).open().close()
    assert path.read_text() == '{"a": 1}\n'
    path.write_text(whole[:-2])
    jsonl.AppendLog(str(path)).open().close()
    assert path.read_text() == ""


def test_the_seal_leaves_earlier_lines_alone(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('not json\n{"a": 1}\n')
    log = jsonl.AppendLog(str(path))
    log.append({"b": 2})
    log.close()
    assert path.read_text() == 'not json\n{"a": 1}\n{"b": 2}\n'


def test_append_creates_the_directory_and_reopens_after_close(tmp_path):
    path = tmp_path / "deep" / "er" / "log.jsonl"
    log = jsonl.AppendLog(str(path), fsync=False)
    log.append({"a": 1})
    log.close()
    log.append({"b": np.int64(2)})
    log.close()
    assert path.read_text() == '{"a": 1}\n{"b": 2}\n'


def test_append_fsyncs_before_it_returns_unless_told_not_to(
        tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(jsonl.os, "fsync", synced.append)
    durable = jsonl.AppendLog(str(tmp_path / "wal.jsonl"))
    durable.append({"a": 1})
    durable.append({"a": 2})
    assert len(synced) == 2
    flushed = jsonl.AppendLog(str(tmp_path / "access.jsonl"), fsync=False)
    flushed.append({"a": 1})
    assert len(synced) == 2
    durable.close()
    flushed.close()


def test_replace_writes_the_whole_file_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "snap.json")
    jsonl.replace(path, "old")
    jsonl.replace(path, '{"new": true}')
    assert pathlib.Path(path).read_text() == '{"new": true}'
    assert os.listdir(str(tmp_path)) == ["snap.json"]


def test_line_coerces_numpy_scalars():
    assert jsonl.line({"i": np.int64(7), "f": np.float32(0.5)}) \
        == '{"i": 7, "f": 0.5}\n'
    assert jsonl.json_default(np.float64(0.5)) == 0.5
    with pytest.raises(TypeError):
        jsonl.line({"x": object()})


# ----------------------------------------------------------------------
# Every writer's bytes, pinned
# ----------------------------------------------------------------------

#: Nested objects, floats and non-ASCII text.
PAYLOAD = {
    "nested": {"rows": [[0.25, 0.75], [1.0, 0.0]], "ok": True,
               "none": None},
    "rate": 0.1 + 0.2,
    "tiny": 1e-300,
    "label": "café 名 \U0001f4be",
}

#: sha256 of each writer's file for :func:`_every_writer`'s records.
#: Each equals what the writer produced before the logs shared
#: :mod:`repro.jsonl`.
DIGESTS = {
    "wal": "57882be3cc9b7f9f8ce57efd26be413f1edeb16fcb766e930b582103a62e2a84",
    "journal":
        "1340ceed545d7251af01db1e316a40f8286d0b3bd54b0ef7b151e618ee798eb8",
    "snapshot":
        "33532fb8392424e712fa80b0795e6a28ed19d4a8b0d180f584a1d8ee63bc759a",
    "events":
        "996340b168936090800bb1dcc154991d74951ade6398276c7733b69c9661eae3",
    "trace":
        "93c97c19a5b99673053e90f3e43c8f7665da0be6ee69ae303db1968e27ea1f61",
    "access":
        "750411329f444084ac0da23c490d5e60c2f2539db55fa51dba52f2f7a2dc981e",
    "io": "94c2a7b3021933bb58788b7a8e135b5e5f85b5568fda5cf5bbbc9b8a8215195e",
}


def _every_writer(directory):
    """``{writer: file bytes}`` for one set of records per writer."""
    def path(name):
        return os.path.join(directory, name)

    wal = TenantWAL(path("t1"))
    wal.append("create", tenant_id="t1", **PAYLOAD)
    wal.append("feed", clock_s=2.5, records_fed=10, chunks_fed=1)
    wal.close()

    plan = plan_migration(
        Layout(np.array([[1.0, 0.0]]), ["aé"], ["t0", "t1"]),
        Layout(np.array([[0.25, 0.75]]), ["aé"], ["t0", "t1"]),
        {"aé": 3 << 20},
    )
    journal = MigrationJournal.create(path("journal.jsonl"), plan,
                                      chunk=1 << 20, meta=PAYLOAD)
    journal.record_chunk(1)
    journal.record_commit()
    journal.close()

    snapshot = write_snapshot(path("snap"), dict(PAYLOAD, wal_seq=2))

    log = EventLog()
    log.emit(1.0000004, "check")
    log.emit(2.5, "accept", **PAYLOAD)
    log.to_jsonl(path("events.jsonl"))

    obs = Instrumentation.on(clock=itertools.count(0.5, 0.25).__next__)
    with obs.tracer.span("advise", index=np.int64(3), **PAYLOAD):
        obs.tracer.event("marker", share=np.float64(0.125))
    obs.metrics.counter("repro_x_total", tenant="名").inc(2)
    obs.metrics.histogram("repro_y_seconds").observe(0.003)
    write_trace(path("trace.jsonl"), obs, meta={"command": "café"})

    access = AccessLog(path("logs/access.jsonl"))
    access.write(dict(PAYLOAD, trace_id="00ff", status=200))
    access.write({"trace_id": "0100", "status": 404, "error": "no 名"})
    access.close()

    save_trace([
        CompletionRecord(0.0, 0.004, "dé", "obj名", 3, "read",
                         4096, 8192, 8192, 0.004),
        CompletionRecord(0.1 + 0.2, 1e-300, "d1", None, 0, "write", 0, 0,
                         512, 0.0),
    ], path("io.jsonl"))

    files = {"wal": path("t1/wal.jsonl"), "journal": path("journal.jsonl"),
             "snapshot": snapshot, "events": path("events.jsonl"),
             "trace": path("trace.jsonl"),
             "access": path("logs/access.jsonl"), "io": path("io.jsonl")}
    return {name: pathlib.Path(file).read_bytes()
            for name, file in files.items()}


def test_every_writer_writes_the_pinned_bytes(tmp_path):
    written = _every_writer(str(tmp_path))
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in written.items()} == DIGESTS
    assert written["wal"].splitlines()[1] == (
        b'{"seq": 2, "kind": "feed", "v": 1, "clock_s": 2.5, '
        b'"records_fed": 10, "chunks_fed": 1}')


# ----------------------------------------------------------------------
# Durability in one place
# ----------------------------------------------------------------------

def _durability_calls(tree):
    """Line numbers where ``tree`` fsyncs or opens a file to append."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name == "fsync" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "fsync" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if isinstance(mode, ast.Constant) \
                    and isinstance(mode.value, str) and "a" in mode.value:
                lines.append(node.lineno)
    return lines


def test_only_jsonl_fsyncs_or_appends():
    offenders = [
        "%s:%d" % (path.relative_to(SRC), number)
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "jsonl.py"
        for number in _durability_calls(ast.parse(path.read_text(),
                                                  str(path)))
    ]
    assert offenders == []


def test_the_durability_check_sees_every_call_form():
    for source in ("import os\nos.fsync(fd)",
                   "from os import fsync\nfsync(fd)",
                   'open(p, "a")', 'open(p, mode="a")', 'open(p, "ab+")',
                   'def f():\n    with open(p, "a") as h:\n        pass'):
        assert _durability_calls(ast.parse(source)), source
    for source in ('open(p, "w")', "open(p)", 'open(p, mode="rb")',
                   "os.replace(a, b)", "from os import path"):
        assert not _durability_calls(ast.parse(source)), source
