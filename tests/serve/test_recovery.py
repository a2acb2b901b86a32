"""Crash-recovery tests: the service's startup ``recover()`` path.

The in-process tests restart a service over the same state directory
(drain → new incarnation) and pin the recovery semantics: tenants come
back with their counters, layouts, SLO standing, and idempotency cache;
suspended migrations finish exactly once.  The chaos-marked test does
it the honest way — SIGKILL of a real server subprocess mid-work, no
drain, and the next incarnation must still recover everything.
"""

import asyncio
import glob
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.http import HttpFrontend

from tests.serve.conftest import (CONTROLLER, LAYOUT, PROBLEM, hot_chunk,
                                  make_service)

#: Copy estimate slow enough that a migration accepted mid-trace is
#: still in flight when the incarnation dies.
SLOW_COPY = {**CONTROLLER, "transfer_bps": 256 * 1024}

#: The checkout this file belongs to; a spawned server runs its code.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _payload(tenant_id="t1", controller=CONTROLLER, **extra):
    body = {"tenant_id": tenant_id, "problem": PROBLEM, "layout": LAYOUT,
            "controller": controller}
    body.update(extra)
    return body


def test_restart_recovers_counters_layout_and_slo(tmp_path):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload())
            await service.advise("t1")
            fed = await service.feed_trace_chunk("t1", hot_chunk(0.0, 10.0))
            return fed, service.tenant_status("t1")
        finally:
            await service.drain()

    fed, before = asyncio.run(first())
    assert fed["records_fed"] > 0

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            recovery = service.recovery
            after = service.tenant_status("t1")
            slo = service.slo.snapshot("t1")
            return recovery, after, slo
        finally:
            await service.drain()

    recovery, after, slo = asyncio.run(second())
    assert recovery["recovered_tenants"] == 1
    assert recovery["errors"] == []
    assert after["records_fed"] == before["records_fed"]
    assert after["chunks_fed"] == before["chunks_fed"]
    assert after["resolves"] == before["resolves"]
    assert after["layout"] == before["layout"]
    assert after["wal_seq"] > 0
    # The SLO window's lifetime high-water marks survived the restart.
    assert slo["total_requests"] > 0


def test_suspended_migration_resumes_exactly_once(tmp_path):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload(controller=SLOW_COPY))
            fed = await service.feed_trace_chunk("t1", hot_chunk(0.0, 10.0))
            assert fed["migrating"], "expected an in-flight migration"
        finally:
            await service.drain()

    asyncio.run(first())

    async def incarnation():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery
        finally:
            await service.drain()

    second = asyncio.run(incarnation())
    assert second["recovered_tenants"] == 1
    assert second["resumed_migrations"] == 1
    # The post-recovery snapshot folds the swap in: a third incarnation
    # has nothing left to resume — the migration ran exactly once.
    third = asyncio.run(incarnation())
    assert third["recovered_tenants"] == 1
    assert third["resumed_migrations"] == 0
    assert third["adopted_swaps"] == 0
    journal, = glob.glob(os.path.join(state, "t1", "migration-*.jsonl"))
    commits = sum(1 for line in open(journal)
                  if json.loads(line)["kind"] == "commit")
    assert commits == 1


def test_committed_swap_missing_from_wal_is_adopted(tmp_path):
    """Crash in the journal-commit → WAL-swap gap: recovery adopts the
    committed layout without re-copying and backfills the swap record."""
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload())
            fed = await service.feed_trace_chunk("t1", hot_chunk(0.0, 12.0))
            assert fed["resolves"] >= 1 and not fed["migrating"]
            return service.tenant_status("t1")["layout"]
        finally:
            await service.drain()

    swapped_layout = asyncio.run(first())

    # Rewind durable state to just before the swap reached the WAL:
    # keep the committed journal but replace snapshots + WAL with what
    # existed right after the create — exactly what a crash inside the
    # journal-commit → WAL-swap gap leaves behind.
    tenant_dir = os.path.join(state, "t1")
    for snapshot in glob.glob(os.path.join(tenant_dir, "snapshot-*.json")):
        os.remove(snapshot)
    with open(os.path.join(tenant_dir, "wal.jsonl"), "w") as handle:
        handle.write(json.dumps({
            "seq": 1, "kind": "create", "v": 1, "tenant_id": "t1",
            "problem": PROBLEM, "controller": CONTROLLER, "weight": 1.0,
            "slo": None, "layout": LAYOUT, "journal_seq": 0,
        }) + "\n")

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery, service.tenant_status("t1")["layout"]
        finally:
            await service.drain()

    recovery, layout = asyncio.run(second())
    assert recovery["recovered_tenants"] == 1
    assert recovery["resumed_migrations"] == 0
    assert recovery["adopted_swaps"] == 1
    assert layout == swapped_layout
    journal, = glob.glob(os.path.join(tenant_dir, "migration-*.jsonl"))
    commits = sum(1 for line in open(journal)
                  if json.loads(line)["kind"] == "commit")
    assert commits == 1, "adoption must not re-run the migration"


def test_idempotency_cache_survives_restart(tmp_path):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            made = await service.create_tenant(
                _payload(), idempotency_key="create-t1")
            again = await service.create_tenant(
                _payload(), idempotency_key="create-t1")
            assert again["replayed"] and again["tenant"] == made["tenant"]
            fed = await service.feed_trace_chunk(
                "t1", hot_chunk(0.0, 4.0), idempotency_key="chunk-0")
            replay = await service.feed_trace_chunk(
                "t1", hot_chunk(0.0, 4.0), idempotency_key="chunk-0")
            assert replay["replayed"]
            assert replay["records_fed"] == fed["records_fed"]
        finally:
            await service.drain()

    asyncio.run(first())

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            made = await service.create_tenant(
                _payload(), idempotency_key="create-t1")
            assert made["replayed"], "key must survive the restart"
            replay = await service.feed_trace_chunk(
                "t1", hot_chunk(0.0, 4.0), idempotency_key="chunk-0")
            assert replay["replayed"]
            status = service.tenant_status("t1")
            assert status["chunks_fed"] == 1, "the chunk applied once"
        finally:
            await service.drain()

    asyncio.run(second())


def test_deleted_tenant_stays_deleted_after_restart(tmp_path):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload())
            await service.delete_tenant("t1")
        finally:
            await service.drain()

    asyncio.run(first())

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery, dict(service.tenants)
        finally:
            await service.drain()

    recovery, tenants = asyncio.run(second())
    assert recovery["recovered_tenants"] == 0
    assert tenants == {}


def test_deleted_tenants_leave_no_state_directory(tmp_path):
    state = str(tmp_path / "state")

    async def cycles():
        service = make_service(state_dir=state)
        await service.start()
        try:
            for cycle in range(20):
                tenant_id = "t%d" % (cycle % 3)
                await service.create_tenant(_payload(tenant_id))
                await service.feed_trace_chunk(tenant_id,
                                               hot_chunk(0.0, 6.0))
                await service.delete_tenant(tenant_id)
                assert not os.path.exists(os.path.join(state, tenant_id))
        finally:
            await service.drain()

    asyncio.run(cycles())
    assert os.listdir(state) == []

    async def restart():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery
        finally:
            await service.drain()

    recovery = asyncio.run(restart())
    assert recovery["recovered_tenants"] == 0
    assert recovery["errors"] == []


def test_a_delete_cut_short_by_a_crash_is_finished_at_startup(
        tmp_path, monkeypatch):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload("gone"))
            await service.create_tenant(_payload("kept"))
            await service.feed_trace_chunk("gone", hot_chunk(0.0, 6.0))
            # The crash lands after the delete record is durable and
            # before the directory is removed.
            monkeypatch.setattr("repro.serve.tenant.shutil.rmtree",
                                lambda *args, **kwargs: None)
            await service.delete_tenant("gone")
            monkeypatch.undo()
        finally:
            await service.drain()

    asyncio.run(first())
    assert sorted(os.listdir(state)) == ["gone", "kept"]

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery, set(service.tenants)
        finally:
            await service.drain()

    recovery, tenants = asyncio.run(second())
    assert (recovery["recovered_tenants"], recovery["errors"]) == (1, [])
    assert tenants == {"kept"}
    assert os.listdir(state) == ["kept"]


#: Run in a child process: with the tenant lock taken on the event
#: loop, this delete would wait for a feed that waits for the loop.
_DELETE_MID_RESOLVE = r'''
import asyncio, json, os, sys, time
from tests.serve.conftest import hot_chunk, make_service
from tests.serve.test_recovery import _payload

STATE = sys.argv[1]


async def main():
    service = make_service(state_dir=STATE, workers=1, max_pending=16)
    await service.start()
    try:
        await service.create_tenant(_payload())
        # Hold the only solver slot so the feed's re-solve stays queued
        # while the feed thread holds the tenant lock.
        blocker = asyncio.ensure_future(service.scheduler.submit(
            "t1", time.sleep, 1.0, preadmitted=True))
        feed = asyncio.ensure_future(
            service.feed_trace_chunk("t1", hot_chunk(0.0, 10.0)))
        while not service.scheduler.pending:
            await asyncio.sleep(0.01)
        await service.delete_tenant("t1")
        errors = []
        for task in (feed, blocker):
            try:
                await task
            except Exception as error:
                errors.append(type(error).__name__)
        print(json.dumps({"errors": errors,
                          "left": sorted(os.listdir(STATE))}))
    finally:
        await service.drain()

asyncio.run(main())
'''


def test_delete_while_a_feed_waits_on_its_resolve(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    run = subprocess.run(
        [sys.executable, "-c", _DELETE_MID_RESOLVE, str(tmp_path / "state")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    # The feed's queued re-solve failed with the tenant, the feed let go
    # of the lock, and the delete removed the directory.
    assert out["errors"] == ["TenantGoneError"]
    assert out["left"] == []


# ----------------------------------------------------------------------
# A create starts a new life: the deleted tenant's journals stay dead
# ----------------------------------------------------------------------

#: The conftest problem with object ``b`` renamed to ``c``.
RENAMED = {**PROBLEM, "objects": [
    PROBLEM["objects"][0], {**PROBLEM["objects"][1], "name": "c"},
]}


def _recreate_after_mid_migration_delete(state, body):
    """Create t1, delete it while a migration is in flight, then create
    t1 again from ``body`` over HTTP; returns the second create's
    ``(status, payload)``, the scheduler's tenants and the service's
    tenants."""
    async def run():
        frontend = HttpFrontend(make_service(state_dir=state))
        await frontend.start()
        service = frontend.service
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            await client.create_tenant(_payload(controller=SLOW_COPY))
            _, fed = await client.feed("t1", hot_chunk(0.0, 10.0))
            assert fed["migrating"], "expected an in-flight migration"
            await client.request("DELETE", "/tenants/t1")
            status, made = await client.request(
                "POST", "/tenants", body, raise_for_status=False
            )
            return ((status, made), set(service.scheduler._weights),
                    set(service.tenants))
        finally:
            await client.close()
            await frontend.stop()

    return asyncio.run(run())


def test_recreated_tenant_keeps_the_layout_it_was_created_with(tmp_path):
    (status, made), _, _ = _recreate_after_mid_migration_delete(
        str(tmp_path / "state"), _payload(controller=SLOW_COPY)
    )
    assert status == 200
    assert made["layout"] == LAYOUT
    assert "resumed_migrations" not in made


def test_recreated_tenant_may_name_other_objects(tmp_path):
    layout = {"a": [1.0, 0.0], "c": [1.0, 0.0]}
    (status, made), scheduled, tenants = \
        _recreate_after_mid_migration_delete(
            str(tmp_path / "state"),
            _payload(controller=SLOW_COPY, problem=RENAMED, layout=layout),
        )
    assert status == 200, made
    assert made["layout"] == layout
    assert scheduled == tenants == {"t1"}


def test_recreated_tenant_recovers_as_it_was_created(tmp_path):
    state = str(tmp_path / "state")
    layout = {"a": [1.0, 0.0], "c": [1.0, 0.0]}
    (status, _), _, _ = _recreate_after_mid_migration_delete(
        state, _payload(controller=SLOW_COPY, problem=RENAMED, layout=layout)
    )

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery, dict(service.tenants)
        finally:
            await service.drain()

    recovery, tenants = asyncio.run(second())
    assert recovery["errors"] == []
    assert recovery["recovered_tenants"] == 1
    assert recovery["resumed_migrations"] == 0
    assert recovery["adopted_swaps"] == 0
    assert tenants["t1"].status()["layout"] == layout
    assert status == 200
    assert glob.glob(os.path.join(state, "t1", "migration-*.jsonl")) == []


def test_wal_skipped_lines_surface_in_status(tmp_path):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload())
            await service.feed_trace_chunk("t1", hot_chunk(0.0, 4.0))
        finally:
            await service.drain()

    asyncio.run(first())

    # Simulate a disk fault corrupting a *middle* WAL line: a garbage
    # line followed by a valid post-snapshot record.  (A garbage final
    # line would be the torn-write case, which is silently dropped.)
    tenant_dir = os.path.join(state, "t1")
    snapshot = json.load(open(sorted(glob.glob(
        os.path.join(tenant_dir, "snapshot-*.json")))[-1]))
    with open(os.path.join(tenant_dir, "wal.jsonl"), "w") as handle:
        handle.write("corrupted-by-a-disk-fault\n")
        handle.write(json.dumps({
            "seq": snapshot["wal_seq"] + 1, "kind": "feed", "v": 1,
            "clock_s": snapshot["clock_s"],
            "records_fed": snapshot["records_fed"],
            "chunks_fed": snapshot["chunks_fed"],
            "resolves": snapshot["resolves"],
        }) + "\n")

    async def second():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.status()
        finally:
            await service.drain()

    status = asyncio.run(second())
    durability = status["durability"]
    assert durability["recovery"]["wal_skipped_lines"] == 1
    assert durability["wal_skipped_lines"] == {"t1": 1}


# ----------------------------------------------------------------------
# A crash's torn final line: dropped on read, cut before the next append
# ----------------------------------------------------------------------

def _restart(state):
    """Start a service on ``state``, drain it, return its recovery."""
    async def run():
        service = make_service(state_dir=state)
        await service.start()
        try:
            return service.recovery, {
                tenant_id: tenant.status()["layout"]
                for tenant_id, tenant in service.tenants.items()
            }
        finally:
            await service.drain()

    return asyncio.run(run())


def test_a_resume_after_a_torn_journal_line_keeps_the_journal_whole(
        tmp_path):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload(controller=SLOW_COPY))
            fed = await service.feed_trace_chunk("t1", hot_chunk(0.0, 10.0))
            assert fed["migrating"], "expected an in-flight migration"
        finally:
            await service.drain()

    asyncio.run(first())
    journal, = glob.glob(os.path.join(state, "t1", "migration-*.jsonl"))
    with open(journal, "a") as handle:
        handle.write('{"kind": "chunk", "ind')  # a SIGKILL mid-append

    recovery, _ = _restart(state)
    assert (recovery["recovered_tenants"], recovery["resumed_migrations"],
            recovery["errors"]) == (1, 1, [])
    # The resume's records went after the cut, not onto the fragment:
    # every later start still finds a whole journal.
    recovery, _ = _restart(state)
    assert (recovery["recovered_tenants"], recovery["resumed_migrations"],
            recovery["errors"]) == (1, 0, [])
    with open(journal) as handle:
        kinds = [json.loads(line)["kind"] for line in handle]
    assert kinds[0] == "begin" and kinds.count("commit") == 1


def test_a_create_after_a_torn_wal_line_survives_a_crash(tmp_path):
    state = str(tmp_path / "state")
    tenant_dir = os.path.join(state, "t1")
    os.makedirs(tenant_dir)
    # A SIGKILL inside the tenant's first create leaves part of a line.
    with open(os.path.join(tenant_dir, "wal.jsonl"), "w") as handle:
        handle.write('{"seq": 1, "kind": "create", "v": 1, "tenant_id"')
    recovery, _ = _restart(state)
    assert recovery["recovered_tenants"] == 0
    crashed = str(tmp_path / "crashed")

    async def recreate():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload())
            fed = await service.feed_trace_chunk("t1", hot_chunk(0.0, 10.0))
            assert fed["resolves"] >= 1 and not fed["migrating"]
            # What a SIGKILL here leaves: no drain, so no snapshot.
            shutil.copytree(state, crashed)
            return service.tenant_status("t1")["layout"]
        finally:
            await service.drain()

    layout = asyncio.run(recreate())
    recovery, layouts = _restart(crashed)
    assert (recovery["recovered_tenants"], recovery["errors"],
            recovery["wal_skipped_lines"]) == (1, [], 0)
    assert layouts == {"t1": layout}


@pytest.mark.parametrize("torn", ["", '{"kind": "begin", "vers'])
def test_a_journal_torn_inside_its_begin_never_began(tmp_path, torn):
    state = str(tmp_path / "state")

    async def first():
        service = make_service(state_dir=state)
        await service.start()
        try:
            await service.create_tenant(_payload())
        finally:
            await service.drain()

    asyncio.run(first())
    journal = os.path.join(state, "t1", "migration-9999.jsonl")
    with open(journal, "w") as handle:
        handle.write(torn)

    recovery, layouts = _restart(state)
    assert (recovery["recovered_tenants"], recovery["resumed_migrations"],
            recovery["errors"]) == (1, 0, [])
    assert layouts == {"t1": LAYOUT}
    assert not os.path.exists(journal)


# ----------------------------------------------------------------------
# The honest version: SIGKILL a real server, no drain
# ----------------------------------------------------------------------

def _read_lines_until(stream, predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        ready, _, _ = select.select([stream], [], [], 0.25)
        if not ready:
            continue
        line = stream.readline()
        if not line:
            break
        if predicate(line):
            return line
    raise AssertionError("server never printed the expected line")


def _spawn_serve(state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "2", "--threads", "--feed-threads", "2",
         "--snapshot-every", "4", "--state-dir", state_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=ROOT,
    )
    banner = _read_lines_until(
        proc.stdout, lambda line: "serving on http://" in line, 30.0
    )
    port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


@pytest.mark.chaos
def test_sigkill_mid_migration_recovers_exactly_once(tmp_path):
    state = str(tmp_path / "state")
    proc, port = _spawn_serve(state)
    try:
        async def populate():
            client = ServeClient("127.0.0.1", port)
            try:
                for tenant_id in ("t1", "t2"):
                    await client.create_tenant(
                        _payload(tenant_id, controller=SLOW_COPY))
                migrating = 0
                for tenant_id in ("t1", "t2"):
                    _, fed = await client.feed(tenant_id,
                                               hot_chunk(0.0, 10.0))
                    migrating += 1 if fed["migrating"] else 0
                return migrating
            finally:
                await client.close()

        migrating = asyncio.run(populate())
        assert migrating == 2
        proc.kill()  # SIGKILL: no drain, no atexit
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()

    proc, port = _spawn_serve(state)
    try:
        async def inspect():
            client = ServeClient("127.0.0.1", port)
            try:
                status = await client.status()
                _, answer = await client.advise("t1")
                return status["durability"]["recovery"], answer
            finally:
                await client.close()

        recovery, answer = asyncio.run(inspect())
        assert recovery["recovered_tenants"] == 2
        assert recovery["resumed_migrations"] + \
            recovery["adopted_swaps"] >= 2
        assert recovery["errors"] == []
        assert answer["tenant"] == "t1" and "layout" in answer
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()

    # Exactly once: every journal carries a single commit record, and a
    # third incarnation finds nothing left to resume.
    for journal in glob.glob(os.path.join(state, "*",
                                          "migration-*.jsonl")):
        commits = sum(1 for line in open(journal)
                      if json.loads(line).get("kind") == "commit")
        assert commits <= 1, journal

    async def third():
        frontend = HttpFrontend(make_service(state_dir=state))
        await frontend.start()
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            return (await client.status())["durability"]["recovery"]
        finally:
            await client.close()
            await frontend.stop()

    recovery = asyncio.run(third())
    assert recovery["recovered_tenants"] == 2
    assert recovery["resumed_migrations"] == 0
