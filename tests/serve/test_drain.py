"""Graceful-drain tests: SIGTERM semantics end to end.

Acceptance for the serving layer: on drain, in-flight advises complete,
in-flight migrations are journaled and resumable through the existing
``resume_migration()`` path, and the listener stops accepting new work.
"""

import asyncio
import glob
import json
import os
import select
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.http import HttpFrontend

from tests.serve.conftest import (CONTROLLER, LAYOUT, PROBLEM, hot_chunk,
                                  make_service)

#: Controller overrides whose copy estimate is slow enough that a
#: migration accepted mid-trace is still in flight when we drain.
SLOW_COPY = {**CONTROLLER, "transfer_bps": 256 * 1024}

#: The checkout this file belongs to; a spawned server runs its code.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _create_body(tenant_id="t1"):
    return {"tenant_id": tenant_id, "problem": PROBLEM, "layout": LAYOUT,
            "controller": SLOW_COPY}


def test_drain_journals_migration_and_next_incarnation_resumes(tmp_path):
    state = str(tmp_path / "state")

    async def first_incarnation():
        frontend = HttpFrontend(make_service(state_dir=state))
        await frontend.start()
        client = ServeClient("127.0.0.1", frontend.port)
        await client.create_tenant(_create_body())
        _, fed = await client.feed("t1", hot_chunk(0.0, 10.0))
        assert fed["migrating"], "expected an in-flight migration"
        await client.close()
        await frontend.stop()  # SIGTERM path: drain

    asyncio.run(first_incarnation())

    journals = glob.glob(os.path.join(state, "t1", "migration-*.jsonl"))
    assert len(journals) == 1
    lines = [json.loads(line) for line in open(journals[0])]
    assert lines[0]["kind"] == "begin"
    assert not any(line["kind"] == "commit" for line in lines), \
        "drain must leave the in-flight migration uncommitted"

    async def second_incarnation():
        frontend = HttpFrontend(make_service(state_dir=state))
        await frontend.start()  # startup recovery rebuilds t1 from its WAL
        client = ServeClient("127.0.0.1", frontend.port)
        status = await client.status()
        recovery = status["durability"]["recovery"]
        assert recovery["recovered_tenants"] == 1
        assert recovery["resumed_migrations"] == 1
        assert recovery["errors"] == []
        # The resumed migration installed the journaled target layout:
        # the hot object is no longer pinned to d0.
        tenant = await client.tenant_status("t1")
        assert tenant["layout"]["b"][1] > 0.1
        await client.close()
        await frontend.stop()

    asyncio.run(second_incarnation())

    lines = [json.loads(line) for line in open(journals[0])]
    assert any(line["kind"] == "commit" for line in lines)


def test_drain_finishes_inflight_but_listener_stops_accepting():
    async def scenario():
        frontend = HttpFrontend(make_service(workers=1))
        await frontend.start()
        port = frontend.port
        client = ServeClient("127.0.0.1", port)
        await client.create_tenant(_create_body())
        # Hold the only pool slot so the advise is still in flight when
        # the drain begins.
        blocker = asyncio.ensure_future(frontend.service.scheduler.submit(
            "t1", time.sleep, 0.4, preadmitted=True
        ))
        inflight = asyncio.ensure_future(client.advise("t1"))
        await asyncio.sleep(0.05)

        stopping = asyncio.ensure_future(frontend.stop())
        await asyncio.sleep(0.05)
        # The listener is already closed while the drain waits ...
        with pytest.raises(OSError):
            await asyncio.open_connection("127.0.0.1", port)
        # ... yet admitted work still completes over its open socket.
        _, answer = await inflight
        assert answer["tenant"] == "t1" and "layout" in answer
        await blocker
        await stopping
        await client.close()

    asyncio.run(scenario())


def _read_lines_until(stream, predicate, timeout_s):
    """Read stream lines until one satisfies ``predicate``; returns it."""
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


def test_cli_serve_sigterm_drains_and_exits_cleanly(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", "1", "--threads", "--feed-threads", "1",
         "--state-dir", str(tmp_path / "state")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT,
    )
    try:
        banner = _read_lines_until(
            proc.stdout, lambda line: "serving on http://" in line, 30.0
        )
        port = int(banner.split("http://", 1)[1].split()[0]
                   .rsplit(":", 1)[1])

        async def poke():
            client = ServeClient("127.0.0.1", port)
            made = await client.create_tenant(_create_body())
            assert made["tenant"] == "t1"
            await client.close()

        asyncio.run(poke())
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        rest = proc.stdout.read()
        assert proc.returncode == 0
        assert "draining" in rest and "drained" in rest
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.stderr.close()
