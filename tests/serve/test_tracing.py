"""Distributed request tracing and SLO serving tests.

The core claim under test: one external request = one stitched trace.
A traced advise must show admission wait, scheduler queue wait, pool
dispatch, and the worker-side solve as one tree under one trace id —
across OS process boundaries when the pool forks — and land in the
debug ring, the access log, and the tenant's SLO window exactly once.
"""

import asyncio
import json
import multiprocessing
import os

import pytest

from repro.serve.client import ServeClient, ServeHttpError
from repro.serve.http import HttpFrontend
from repro.serve.service import UnknownTenantError, UnknownTraceError
from repro.serve.tracing import AccessLog, RequestTrace, TraceRing

from tests.serve.conftest import (CONTROLLER, LAYOUT, PROBLEM, hot_chunk,
                                  make_service, trace_records)


def _payload(tenant_id, layout=LAYOUT, **extra):
    body = {"tenant_id": tenant_id, "problem": PROBLEM,
            "controller": CONTROLLER}
    if layout is not None:
        body["layout"] = layout
    body.update(extra)
    return body


def _crash_job():
    os._exit(13)


def _span_names(rtrace):
    return [span.name for span in rtrace.tracer.spans]


# -- the stitched advise trace ------------------------------------------

def test_advise_produces_one_stitched_trace():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            answer = await service.advise("t1")
            trace_id = answer["trace_id"]
            rtrace = service.traces.get(trace_id)
            assert rtrace is not None and rtrace.closed
            names = _span_names(rtrace)
            for required in ("request", "admission.wait",
                             "scheduler.queue", "pool.dispatch",
                             "worker.advise", "advise"):
                assert required in names, required
            # One tree: every span reaches the request root.
            roots, children = rtrace.tracer.tree()
            assert [s.name for s in roots] == ["request"]
            reached = set()

            def walk(span):
                reached.add(span.span_id)
                for child in children.get(span.span_id, ()):
                    walk(child)

            walk(roots[0])
            assert len(reached) == len(rtrace.tracer.spans)
            # The worker subtree hangs under the dispatch span.
            dispatch = rtrace.tracer.find("pool.dispatch")[0]
            worker = rtrace.tracer.find("worker.advise")[0]
            assert worker.parent_id == dispatch.span_id
            assert worker.tags["trace_id"] == trace_id
            # Breakdown fields for the access log / bench.
            meta = rtrace.meta()
            assert meta["status"] == 200
            assert meta["queue_wait_s"] >= 0.0
            assert meta["solve_s"] > 0.0
            assert meta["duration_s"] >= meta["solve_s"]
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_advise_trace_spans_two_os_processes():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("cross-process trace test needs fork workers")

    async def scenario():
        service = make_service(workers=1, use_processes=True)
        await service.start()
        try:
            if not service.pool.use_processes:
                pytest.skip("process pool unavailable; demoted to threads")
            await service.create_tenant(_payload("t1"))
            answer = await service.advise("t1")
            rtrace = service.traces.get(answer["trace_id"])
            # The solve happened in a different OS process, and its
            # spans were stitched back under this process's tree.
            assert rtrace.worker_pids
            assert os.getpid() not in rtrace.worker_pids
            worker = rtrace.tracer.find("worker.advise")[0]
            assert worker.tags["pid"] in rtrace.worker_pids
            assert worker.tags["trace_id"] == rtrace.trace_id
            # Skew anchoring: remote spans sit inside the local
            # dispatch window, not at their worker-clock epochs.
            dispatch = rtrace.tracer.find("pool.dispatch")[0]
            assert worker.end_s <= dispatch.end_s + 1e-6
            assert worker.end_s >= dispatch.start_s - 1e-6
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_trace_survives_pool_rebuild_after_worker_crash():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("process-pool crash test needs fork workers")

    async def scenario():
        service = make_service(workers=1, use_processes=True,
                               max_pending=8)
        await service.start()
        try:
            if not service.pool.use_processes:
                pytest.skip("process pool unavailable; demoted to threads")
            await service.create_tenant(_payload("t1"))
            from repro.serve.pool import PoolCrashError

            with pytest.raises(PoolCrashError):
                await service.scheduler.submit("t1", _crash_job,
                                               preadmitted=True)
            assert service.status()["pool"]["generation"] == 1
            # Tracing keeps working across the rebuilt executor: the
            # next advise stitches spans from the *new* worker.
            answer = await service.advise("t1")
            rtrace = service.traces.get(answer["trace_id"])
            assert rtrace.worker_pids
            assert os.getpid() not in rtrace.worker_pids
            dispatch = rtrace.tracer.find("pool.dispatch")[0]
            assert dispatch.tags["generation"] == 1
            assert "worker.advise" in _span_names(rtrace)
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_watchdog_rung_lands_in_trace_and_access_log(tmp_path):
    async def scenario():
        log_path = str(tmp_path / "access.jsonl")
        service = make_service(access_log=log_path)
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            # A budget below the watchdog's per-rung floor skips every
            # bounded rung: the chain answers from its greedy bottom.
            answer = await service.advise(
                "t1", options={"solve_budget_s": 0.01}
            )
            rtrace = service.traces.get(answer["trace_id"])
            assert rtrace.rung == "greedy"
            assert rtrace.meta()["rung"] == "greedy"
        finally:
            await service.drain()
        lines = [json.loads(line)
                 for line in open(log_path).read().splitlines()]
        advise = [l for l in lines if l["route"] == "advise"]
        assert advise and advise[-1]["rung"] == "greedy"

    asyncio.run(scenario())


def test_feed_resolve_joins_the_feed_trace():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            fed = await service.feed_trace_chunk("t1", hot_chunk(0.0, 8.0))
            assert fed["resolves"] >= 1
            rtrace = service.traces.get(fed["trace_id"])
            names = _span_names(rtrace)
            assert "tenant.feed" in names
            # The re-solve the chunk triggered ran on the shared pool
            # inside the same request trace.
            assert "worker.resolve" in names
            feed_span = rtrace.tracer.find("tenant.feed")[0]
            assert feed_span.tags["resolves"] >= 1
            queue = rtrace.tracer.find("scheduler.queue")[0]
            assert queue.tags["tenant"] == "t1"
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_feed_access_log_times_every_solver_job(tmp_path):
    """A chunk whose phases flip the hot object drives several
    re-solves; the access log sums every job's queue wait and solve
    time, exactly as the request's spans record them."""
    chunk = []
    for phase in range(4):
        start, end = 40.0 * phase, 40.0 * (phase + 1)
        hot, cold = ("a", "b") if phase % 2 == 0 else ("b", "a")
        chunk += (trace_records(hot, start, end, rate=200.0)
                  + trace_records(cold, start, end, rate=20.0))
    chunk.sort(key=lambda record: record["finish_time"])
    log_path = str(tmp_path / "access.jsonl")

    async def scenario():
        service = make_service(access_log=log_path)
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            fed = await service.feed_trace_chunk("t1", chunk)
            return service.traces.get(fed["trace_id"])
        finally:
            await service.drain()

    rtrace = asyncio.run(scenario())
    with open(log_path) as handle:
        line = [json.loads(text) for text in handle][-1]
    assert line["trace_id"] == rtrace.trace_id
    workers = rtrace.tracer.find("worker.resolve")
    queues = rtrace.tracer.find("scheduler.queue")
    assert len(workers) >= 2 and len(queues) == len(workers)
    assert line["solve_s"] == pytest.approx(
        sum(span.duration_s for span in workers), abs=1e-6)
    assert line["queue_wait_s"] == pytest.approx(
        sum(span.duration_s for span in queues), abs=1e-6)


# -- ring, access log, SLO feed -----------------------------------------

def test_debug_ring_serves_and_evicts_traces():
    async def scenario():
        service = make_service(trace_ring=2)
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            # A distinct seed per advise keeps each one a solve, not a
            # memo hit, so every trace has a worker subtree.
            ids = [
                (await service.advise("t1", options={"seed": seed}))
                ["trace_id"] for seed in range(3)
            ]
            listing = service.debug_traces()
            assert listing["capacity"] == 2
            # Newest first; the oldest trace aged out.
            assert [t["trace_id"] for t in listing["traces"]] \
                == [ids[2], ids[1]]
            payload = service.debug_trace(ids[2])
            assert payload["trace_id"] == ids[2]
            assert any(s["name"] == "worker.advise"
                       for s in payload["spans"])
            with pytest.raises(UnknownTraceError):
                service.debug_trace(ids[0])
            with pytest.raises(UnknownTraceError):
                service.debug_trace("never-existed")
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_failed_requests_are_traced_but_spare_the_error_budget():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            await service.advise("t1")
            with pytest.raises(UnknownTenantError):
                await service.advise("ghost")
            failed = [t for t in service.traces.traces()
                      if t.status == 404]
            assert failed and failed[0].error
            # The 404 belongs to no registered tenant and is a client
            # error besides: no SLO window may have counted it.
            report = service.slo_report()
            assert "ghost" not in report["tenants"]
            assert report["tenants"]["t1"]["window_requests"] == 1
            assert report["tenants"]["t1"]["attainment"] == 1.0
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_slo_observes_advises_and_exports_gauges():
    async def scenario():
        service = make_service(
            slo={"p50_s": 0.5, "p99_s": 2.0, "slo_target": 0.9},
        )
        await service.start()
        try:
            await service.create_tenant(
                _payload("t1", slo={"p99_s": 60.0})
            )
            for _ in range(3):
                await service.advise("t1")
            report = service.slo_report()
            assert report["default_objective"]["p99_s"] == 2.0
            snap = report["tenants"]["t1"]
            assert snap["objective"]["p99_s"] == 60.0     # tenant override
            assert snap["objective"]["p50_s"] == 0.5      # default filled
            assert snap["window_requests"] == 3
            assert snap["attainment"] == 1.0
            assert snap["burn_rate"] == 0.0
            text = service.metrics_text()
            assert 'repro_slo_attainment_ratio{tenant="t1"} 1.0' in text
            assert service.status()["slo"]["t1"]["attained"] is True
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_access_log_is_complete_json_per_request(tmp_path):
    async def scenario():
        log_path = str(tmp_path / "logs" / "access.jsonl")
        service = make_service(access_log=log_path)
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            await service.advise("t1")
            await service.feed_trace_chunk("t1", hot_chunk(0.0, 3.0))
            with pytest.raises(UnknownTenantError):
                await service.advise("ghost")
        finally:
            await service.drain()
        lines = [json.loads(line)
                 for line in open(log_path).read().splitlines()]
        assert [l["route"] for l in lines] \
            == ["create_tenant", "advise", "feed", "advise"]
        assert [l["status"] for l in lines] == [200, 200, 200, 404]
        for line in lines:
            assert line["trace_id"]
            assert line["duration_s"] >= 0.0
            assert "type" not in line         # meta marker stays internal
        advise = lines[1]
        assert advise["tenant"] == "t1"
        assert advise["queue_wait_s"] is not None
        assert advise["solve_s"] is not None

    asyncio.run(scenario())


def test_access_log_on_an_unwritable_path_fails_at_construction(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    with pytest.raises(OSError):
        AccessLog(str(blocker / "access.jsonl"))


# -- HTTP surface -------------------------------------------------------

def test_http_trace_and_slo_endpoints():
    async def scenario():
        frontend = HttpFrontend(make_service())
        await frontend.start()
        client = ServeClient("127.0.0.1", frontend.port)
        try:
            await client.create_tenant(
                {"tenant_id": "t1", "problem": PROBLEM, "layout": LAYOUT,
                 "controller": CONTROLLER}
            )
            _, answer = await client.advise("t1")
            trace_id = answer["trace_id"]

            status, payload = await client.debug_trace(trace_id)
            assert status == 200
            assert payload["trace_id"] == trace_id
            names = {span["name"] for span in payload["spans"]}
            for required in ("request", "scheduler.queue",
                             "pool.dispatch", "worker.advise"):
                assert required in names
            # Every worker-side span rode in under the same trace id.
            worker = next(s for s in payload["spans"]
                          if s["name"] == "worker.advise")
            assert worker["tags"]["trace_id"] == trace_id

            listing = await client.debug_traces()
            assert trace_id in [t["trace_id"] for t in listing["traces"]]

            slo = await client.slo()
            assert slo["tenants"]["t1"]["window_requests"] == 1

            with pytest.raises(ServeHttpError) as error:
                await client.debug_trace("missing-trace")
            assert error.value.status == 404
        finally:
            await client.close()
            await frontend.stop()

    asyncio.run(scenario())


# -- unit coverage for the building blocks ------------------------------

def test_request_trace_close_is_idempotent():
    rtrace = RequestTrace("advise", tenant="t1")
    span = rtrace.start("admission.wait")
    rtrace.finish(span)
    rtrace.close(200)
    first_end = rtrace.root.end_s
    rtrace.close(500, error="too late")       # loses: first close wins
    assert rtrace.status == 200
    assert rtrace.error is None
    assert rtrace.root.end_s == first_end


def test_request_trace_records_round_trip_through_reader(tmp_path):
    rtrace = RequestTrace("advise", tenant="t1")
    rtrace.obs.absorb({"spans": [{"type": "span", "id": 1,
                                  "name": "worker.advise", "start_s": 0.0,
                                  "end_s": 1.0, "tags": {"pid": 4242}}],
                       "metrics": []}, parent=rtrace.root)
    rtrace.close(200)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(rtrace.to_payload()))
    from repro.obs.export import read_request_trace

    trace = read_request_trace(str(path))
    assert trace.meta["trace_id"] == rtrace.trace_id
    assert trace.meta["worker_pids"] == [4242]
    roots, children = trace.tracer.tree()
    assert [s.name for s in roots] == ["request"]
    assert [s.name for s in children[roots[0].span_id]] \
        == ["worker.advise"]


def test_trace_ring_is_bounded_and_scans_newest_first():
    ring = TraceRing(capacity=2)
    traces = [RequestTrace("advise") for _ in range(3)]
    for rtrace in traces:
        ring.add(rtrace)
    assert len(ring) == 2
    assert ring.get(traces[0].trace_id) is None
    assert ring.get(traces[2].trace_id) is traces[2]
    assert [t.trace_id for t in ring.traces()] \
        == [traces[2].trace_id, traces[1].trace_id]
