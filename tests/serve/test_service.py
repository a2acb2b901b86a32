"""Service-level tests: concurrent admission, fairness under
contention, and tenant crash/delete isolation on the shared pool."""

import asyncio
import multiprocessing
import os
import time

import pytest

from repro.errors import ReproError
from repro.serve.scheduler import AdmissionError, TenantGoneError
from repro.serve.service import ServiceDrainingError, UnknownTenantError

from tests.serve.conftest import (CONTROLLER, LAYOUT, PROBLEM, hot_chunk,
                                  make_service)


def _payload(tenant_id, layout=LAYOUT, **extra):
    body = {"tenant_id": tenant_id, "problem": PROBLEM,
            "controller": CONTROLLER}
    if layout is not None:
        body["layout"] = layout
    body.update(extra)
    return body


def _crash_job():
    # Simulates a solver worker dying hard (OOM kill, segfault): the
    # process exits without raising, which breaks the executor.
    os._exit(13)


def test_concurrent_tenant_creation_and_advise():
    async def scenario():
        service = make_service(max_pending=32)
        await service.start()
        try:
            # All creates solve their initial layout on the shared pool.
            made = await asyncio.gather(*(
                service.create_tenant(_payload("t%d" % i, layout=None))
                for i in range(6)
            ))
            assert sorted(m["tenant"] for m in made) \
                == ["t%d" % i for i in range(6)]
            for m in made:
                row = m["layout"]["a"]
                assert sum(row) == pytest.approx(1.0, abs=1e-6)
            answers = await asyncio.gather(*(
                service.advise("t%d" % i) for i in range(6)
            ))
            assert all("layout" in a and a["solver_time_s"] >= 0
                       for a in answers)
            status = service.status()
            assert status["tenants"] == 6
            assert status["queue"]["completed"] >= 12
            assert status["pool"]["generation"] == 0
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_admission_bound_rejects_over_limit_requests():
    async def scenario():
        service = make_service(workers=1, max_pending=1)
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            # Occupy the only pool slot so advises pile up behind it.
            blocker = asyncio.ensure_future(service.scheduler.submit(
                "t1", time.sleep, 0.4, preadmitted=True
            ))
            await asyncio.sleep(0.05)
            outcomes = await asyncio.gather(
                *(service.advise("t1") for _ in range(6)),
                return_exceptions=True,
            )
            rejected = [o for o in outcomes
                        if isinstance(o, AdmissionError)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert rejected and served
            assert len(rejected) >= 4  # bound is 1: most must shed
            assert service.status()["queue"]["rejected"] == len(rejected)
            await blocker
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_no_tenant_starved_under_contention():
    async def scenario():
        service = make_service(workers=1, max_pending=64)
        await service.start()
        try:
            ids = ["t%d" % i for i in range(4)]
            for tenant_id in ids:
                await service.create_tenant(_payload(tenant_id))
            await asyncio.gather(*(
                service.advise(tenant_id)
                for tenant_id in ids for _ in range(3)
            ))
            for tenant_id in ids:
                status = service.tenant_status(tenant_id)
                assert status["jobs_done"] == 3
                assert status["served_solver_s"] > 0
            assert service.fairness_spread(ids) is not None
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_delete_mid_advise_does_not_poison_the_pool():
    async def scenario():
        service = make_service(workers=1, max_pending=16)
        await service.start()
        try:
            await service.create_tenant(_payload("victim"))
            await service.create_tenant(_payload("bystander"))
            # Hold the only slot so the victim's advise sits queued.
            blocker = asyncio.ensure_future(service.scheduler.submit(
                "victim", time.sleep, 0.3, preadmitted=True
            ))
            doomed = asyncio.ensure_future(service.advise("victim"))
            await asyncio.sleep(0.05)
            await service.delete_tenant("victim")
            with pytest.raises(TenantGoneError):
                await doomed
            await blocker  # the in-flight job still finishes quietly
            # The shared pool is unharmed: others keep being served.
            answer = await service.advise("bystander")
            assert answer["tenant"] == "bystander"
            assert service.status()["pool"]["generation"] == 0
            with pytest.raises(UnknownTenantError):
                service.tenant_status("victim")
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_worker_crash_rebuilds_process_pool():
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
            # The crash cost one generation, not the service.
            assert service.status()["pool"]["generation"] == 1
            answer = await service.advise("t1")
            assert "layout" in answer
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_draining_service_refuses_new_work():
    async def scenario():
        service = make_service()
        await service.start()
        await service.create_tenant(_payload("t1"))
        await service.drain()
        with pytest.raises(ServiceDrainingError):
            await service.create_tenant(_payload("t2"))
        with pytest.raises(ServiceDrainingError):
            await service.advise("t1")
        with pytest.raises(ServiceDrainingError):
            await service.feed_trace_chunk("t1", hot_chunk(0.0, 1.0))
        assert service.status()["draining"]

    asyncio.run(scenario())


def test_drain_completes_inflight_advise():
    async def scenario():
        service = make_service(workers=1)
        await service.start()
        await service.create_tenant(_payload("t1"))
        inflight = asyncio.ensure_future(service.advise("t1"))
        await asyncio.sleep(0.02)
        await service.drain()
        answer = await inflight
        assert answer["tenant"] == "t1" and "layout" in answer

    asyncio.run(scenario())


def test_feed_routes_resolves_through_the_shared_pool():
    async def scenario():
        service = make_service(max_pending=16)
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            before = service.scheduler.jobs_done("t1")
            status = await service.feed_trace_chunk("t1",
                                                    hot_chunk(0.0, 16.0))
            assert status["resolves"] >= 1
            # The re-solve ran as a pool job charged to this tenant.
            assert service.scheduler.jobs_done("t1") > before
            assert service.tenant_status("t1")["records_fed"] \
                == status["records_fed"]
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_create_tenant_validation_errors():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            with pytest.raises(ReproError, match="'problem'"):
                await service.create_tenant({"tenant_id": "x"})
            with pytest.raises(ReproError, match="invalid tenant id"):
                await service.create_tenant(_payload("bad id!"))
            await service.create_tenant(_payload("t1"))
            with pytest.raises(ReproError, match="already exists"):
                await service.create_tenant(_payload("t1"))
            with pytest.raises(ReproError, match="misses objects"):
                await service.create_tenant(
                    _payload("t2", layout={"a": [1.0, 0.0]})
                )
            with pytest.raises(ReproError, match="unknown controller"):
                await service.create_tenant(_payload(
                    "t3", controller={"bogus_knob": 1}
                ))
            # Failed creates must not leak scheduler registrations.
            assert "t2" not in service.scheduler._queues
            assert "t3" not in service.scheduler._queues
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_metrics_text_labels_each_tenant_once():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload("alpha"))
            await service.create_tenant(_payload("beta"))
            await service.advise("alpha")
            text = service.metrics_text()
            assert 'tenant="alpha"' in text and 'tenant="beta"' in text
            # Merged exposition: one TYPE header per metric name even
            # though several registries carry it.
            assert text.count("# TYPE repro_serve_tenants gauge") == 1
            assert "repro_serve_jobs_total" in text
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_merged_worker_gauges_keep_the_last_solve():
    """Every solved advise ships its stage gauges home; the service
    registry reports the last solve's value, not a sum over solves."""
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload("t1", layout=None))
            for seed in (1, 2, 3):
                answer = await service.advise("t1", {"seed": seed})
            see = answer["max_utilization"]["see"]
            gauge = service.metrics.get("repro_advise_objective",
                                        stage="see")
            assert gauge.value == pytest.approx(see)
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_tenants_keep_metrics_but_record_no_spans():
    """Nothing reads a served controller's spans, so a tenant keeps
    none however long it is fed; its counters still reach /metrics."""
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload("t1"))
            for start in range(0, 100, 20):
                await service.feed_trace_chunk(
                    "t1", hot_chunk(float(start), start + 20.0))
            tenant = service.tenants["t1"]
            assert tenant.chunks_fed == 5
            assert list(tenant.obs.tracer.spans) == []
            text = service.metrics_text()
            assert "repro_online_events_total{" in text
            assert 'repro_online_resolves_total{decision="accept",' \
                'tenant="t1"}' in text
        finally:
            await service.drain()

    asyncio.run(scenario())
