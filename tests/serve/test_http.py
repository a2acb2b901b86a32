"""HTTP front-end tests: routing, status-code mapping, keep-alive,
and malformed-request handling."""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.client import ServeClient, ServeHttpError
from repro.serve.http import HttpFrontend

from tests.serve.conftest import (CONTROLLER, LAYOUT, PROBLEM, hot_chunk,
                                  make_service)


async def _frontend(**overrides):
    frontend = HttpFrontend(make_service(**overrides))
    await frontend.start()
    return frontend


def _create_body(tenant_id="t1"):
    return {"tenant_id": tenant_id, "problem": PROBLEM, "layout": LAYOUT,
            "controller": CONTROLLER}


def test_http_end_to_end_tenant_lifecycle():
    async def scenario():
        frontend = await _frontend()
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            made = await client.create_tenant(_create_body())
            assert made["tenant"] == "t1"
            assert made["layout"]["a"] == [1.0, 0.0]

            status = await client.status()
            assert status["tenants"] == 1 and not status["draining"]

            _, answer = await client.advise("t1")
            assert answer["tenant"] == "t1" and "layout" in answer

            _, fed = await client.feed("t1", hot_chunk(0.0, 6.0))
            assert fed["records_fed"] > 0 and fed["chunks_fed"] == 1

            tenant = await client.tenant_status("t1")
            assert tenant["advises"] == 1

            _, events = await client.request("GET", "/tenants/t1/events")
            assert events["tenant"] == "t1"
            assert any(e["kind"] == "check" for e in events["events"])

            text = await client.metrics()
            assert text.startswith("# ")
            assert 'tenant="t1"' in text

            _, gone = await client.delete_tenant("t1")
            assert gone["deleted"]
            with pytest.raises(ServeHttpError) as error:
                await client.tenant_status("t1")
            assert error.value.status == 404
        finally:
            await client.close()
            await frontend.stop()

    asyncio.run(scenario())


def test_http_error_code_mapping():
    async def scenario():
        frontend = await _frontend()
        client = ServeClient("127.0.0.1", frontend.port)

        async def code(method, path, body=None):
            status, _ = await client.request(method, path, body,
                                             raise_for_status=False)
            return status

        try:
            assert await code("GET", "/nope") == 404
            assert await code("GET", "/tenants") == 405
            assert await code("PUT", "/tenants/t1") == 405
            assert await code("POST", "/tenants/ghost/advise") == 404
            assert await code("POST", "/tenants", {"tenant_id": "x"}) \
                == 400  # missing problem
            assert await code("POST", "/tenants",
                              {"tenant_id": "bad id!",
                               "problem": PROBLEM}) == 400
            await client.create_tenant(_create_body())
            assert await code("POST", "/tenants/t1/trace",
                              {"records": "not-a-list"}) == 400
            assert await code("POST", "/tenants/t1/trace",
                              {"records": ["garbage"]}) == 400
        finally:
            await client.close()
            await frontend.stop()

    asyncio.run(scenario())



@pytest.mark.parametrize("members", [0, 1.5, True])
def test_http_bad_raid_members_is_400(members):
    """A problem with an unusable RAID0 member count never becomes a
    tenant (it used to, and its advise answered a bare NaN)."""
    problem = dict(PROBLEM, targets=[dict(PROBLEM["targets"][0],
                                          kind="raid0", members=members),
                                     PROBLEM["targets"][1]])

    async def scenario():
        frontend = await _frontend()
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            status, body = await client.request(
                "POST", "/tenants", {"tenant_id": "t1", "problem": problem},
                raise_for_status=False)
            assert status == 400
            assert "targets[0].members" in body["error"]
            assert (await client.status())["tenants"] == 0
        finally:
            await client.close()
            await frontend.stop()

    asyncio.run(scenario())

def test_http_draining_maps_to_503():
    async def scenario():
        frontend = await _frontend()
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            await client.create_tenant(_create_body())
            # Flag only — the full drain would also close the listener.
            frontend.service.draining = True
            status, payload = await client.advise("t1",
                                                  raise_for_status=False)
            assert status == 503
            assert payload["kind"] == "ServiceDrainingError"
            status, _ = await client.request(
                "POST", "/tenants", _create_body("t2"),
                raise_for_status=False,
            )
            assert status == 503
        finally:
            frontend.service.draining = False
            await client.close()
            await frontend.stop()

    asyncio.run(scenario())


def test_http_rejects_malformed_requests():
    async def scenario():
        frontend = await _frontend()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )
            writer.write(b"THIS IS NOT HTTP\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()

            # Non-JSON body on a JSON route.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )
            writer.write(b"POST /tenants HTTP/1.1\r\n"
                         b"Content-Length: 9\r\n\r\nnot json!")
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()
        finally:
            await frontend.stop()

    asyncio.run(scenario())


def test_http_keep_alive_reuses_the_connection():
    async def scenario():
        frontend = await _frontend()
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            await client.status()
            socket_before = client._writer
            await client.status()
            await client.status()
            assert client._writer is socket_before  # never reconnected
        finally:
            await client.close()
            await frontend.stop()

    asyncio.run(scenario())


def test_http_honors_connection_close():
    async def scenario():
        frontend = await _frontend()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )
            writer.write(b"GET /status HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()  # server closes after responding
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n")[0]
            assert b"Connection: close" in head
            assert json.loads(body)["tenants"] == 0
            writer.close()
        finally:
            await frontend.stop()

    asyncio.run(scenario())


#: Served in a child process, because a feed that accepts an infinite
#: time never returns: its thread spins with the tenant lock held.
_NON_FINITE_FEED = r'''
import asyncio, json
from repro.serve.client import ServeClient
from repro.serve.http import HttpFrontend
from tests.serve.conftest import CONTROLLER, LAYOUT, PROBLEM, make_service

BAD = ["1e309", "Infinity", "-Infinity", "NaN", '"inf"']


async def post(port, path, body):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"POST %s HTTP/1.1\r\nHost: t\r\nContent-Type: "
                 b"application/json\r\nContent-Length: %d\r\n"
                 b"Connection: close\r\n\r\n" % (path.encode(), len(body))
                 + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    writer.close()
    return status


async def main():
    frontend = HttpFrontend(make_service())
    await frontend.start()
    client = ServeClient("127.0.0.1", frontend.port)
    try:
        await client.create_tenant({"tenant_id": "t1", "problem": PROBLEM,
                                    "layout": LAYOUT,
                                    "controller": CONTROLLER})
        out = {}
        for value in BAD:
            body = ('{"records": [{"obj": "a", "finish_time": 1.0}, '
                    '{"obj": "a", "finish_time": %s}]}' % value).encode()
            out[value] = await post(frontend.port, "/tenants/t1/trace",
                                    body)
        out["status"] = await client.tenant_status("t1")
        _, out["fed"] = await client.feed("t1", [{"obj": "a",
                                                  "finish_time": 1.0}])
        print(json.dumps(out))
    finally:
        await client.close()
        await frontend.stop()

asyncio.run(main())
'''


def test_http_feed_with_a_non_finite_time_is_400():
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root)]))
    run = subprocess.run([sys.executable, "-c", _NON_FINITE_FEED], cwd=root,
                         env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    for value in ("1e309", "Infinity", "-Infinity", "NaN", '"inf"'):
        assert out[value] == 400, value
    # Rejected before any state changed: the good record before the bad
    # one was not observed, and the clock never moved.
    status = out["status"]
    assert (status["records_fed"], status["chunks_fed"],
            status["clock_s"]) == (0, 0, None)
    assert out["fed"]["records_fed"] == 1
