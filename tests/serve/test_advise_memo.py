"""Advise answers the tenant's drift baseline, and a repeat is a lookup.

``AdvisorService.advise`` solves the problem the tenant's controller
last installed a layout for and keeps the last complete answer per
tenant.  A repeat with the same merged options while the baseline
stands is answered from that memo.  The oracles here pin what the
memo must never change: a hit equals a fresh solve of the same state,
a never-fed tenant gets the answer it always got, and a tenant
recovered from its state dir answers like one that never crashed.
"""

import asyncio
import copy
import glob
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.journal import MigrationJournal
from repro.serve.pool import advise_job
from repro.serve.scheduler import AdmissionError
from repro.serve.service import ServiceDrainingError, UnknownTenantError
from repro.workload.spec import ObjectWorkload

from tests.serve.conftest import CONTROLLER, LAYOUT, PROBLEM, make_service

#: The per-tenant problem of ``benchmarks/bench_serve.py``: a workload
#: inversion moves the optimal layout of ``b`` all the way to the SSD.
SMALL_PROBLEM = {
    "stripe_size": 1 << 20,
    "targets": [
        {"name": "d0", "capacity": 8 << 20, "kind": "disk15k"},
        {"name": "ssd", "capacity": 4 << 20, "kind": "ssd"},
    ],
    "objects": [
        {"name": "a", "size": 3 << 20, "read_rate": 120.0, "run_count": 4},
        {"name": "b", "size": 3 << 20, "read_rate": 20.0, "run_count": 4},
    ],
}


def drifted_chunk(index=0, horizon_s=12.0):
    """Chunk ``index`` of a trace whose hot object flips every chunk,
    starting with ``b`` hot (the inversion of the solved workload)."""
    hot, cold = ("b", "a") if index % 2 == 0 else ("a", "b")
    start = index * horizon_s
    records = []
    for obj, rate in ((cold, 20.0), (hot, 200.0)):
        for k in range(int(horizon_s * rate)):
            records.append({"obj": obj,
                            "finish_time": round(start + k / rate, 6),
                            "kind": "read", "size": 8192,
                            "service_time": 0.002})
    records.sort(key=lambda r: r["finish_time"])
    return records


def _payload(tenant_id="t1", problem=SMALL_PROBLEM, **extra):
    body = {"tenant_id": tenant_id, "problem": problem,
            "controller": CONTROLLER}
    body.update(extra)
    return body


def _stable(answer):
    """An answer without its timings and trace id."""
    return {key: value for key, value in answer.items()
            if key != "trace_id" and not key.endswith("_time_s")}


def _fresh(service, tenant_id, problem=None, options=None):
    """What a fresh solve answers for the tenant's current baseline (or
    for ``problem``), as the advise route would shape it."""
    tenant = service.tenants[tenant_id]
    controller = tenant.controller
    if problem is None:
        problem = controller._problem(controller.solved_workloads)
    out = advise_job(problem,
                     service._advise_options(tenant.config, options))
    return _stable({"tenant": tenant_id, **out["payload"]})


def _memo_count(service, outcome):
    counter = service.metrics.get("repro_serve_advise_memo_total",
                                  outcome=outcome)
    return counter.value if counter is not None else 0


async def _abandon(service):
    """Stop a service the way a crash would: no drain, no parting
    snapshot, so its state dir holds only what was already durable
    (every WAL append is fsynced before it returns)."""
    await service.scheduler.stop()
    service.pool.shutdown()
    service._feeds.shutdown()
    for tenant in service.tenants.values():
        tenant.wal.close()


def test_advise_follows_an_install():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload())
            before = await service.advise("t1")
            fed = await service.feed_trace_chunk("t1", drifted_chunk())
            assert fed["resolves"] == 1 and not fed["migrating"]
            assert fed["layout"]["b"] == [0.0, 1.0]
            after = await service.advise("t1")
        finally:
            await service.drain()
        # The create-time workload keeps b partly on the disk; once the
        # controller installed the b-hot layout, advise answers that.
        assert before["layout"]["b"][0] == pytest.approx(2 / 3, abs=1e-6)
        assert after["layout"]["b"] == pytest.approx([0.0, 1.0], abs=1e-9)

    asyncio.run(scenario())


def test_never_fed_tenant_gets_the_create_time_answer():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload())
            tenant = service.tenants["t1"]
            answers = [await service.advise("t1") for _ in range(2)]
            expected = _fresh(service, "t1", problem=tenant.problem)
        finally:
            await service.drain()
        assert [_stable(a) for a in answers] == [expected, expected]
        assert (_memo_count(service, "miss"),
                _memo_count(service, "hit")) == (1, 1)

    asyncio.run(scenario())


def test_a_hit_equals_a_fresh_solve_of_the_baseline():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload())
            await service.feed_trace_chunk("t1", drifted_chunk())
            jobs = service.scheduler.jobs_done("t1")
            miss = await service.advise("t1")
            hit = await service.advise("t1")
            # The hit never reached the pool.
            assert service.scheduler.jobs_done("t1") == jobs + 1
            expected = _fresh(service, "t1")
        finally:
            await service.drain()
        assert _stable(hit) == _stable(miss) == expected
        # Timings are the solve's own, not the lookup's.
        assert hit["solver_time_s"] == miss["solver_time_s"]
        assert hit["trace_id"] != miss["trace_id"]

    asyncio.run(scenario())


def test_options_key_on_content_not_order():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload())
            await service.advise("t1", options={"seed": 1, "restarts": 1})
            await service.advise("t1", options={"restarts": 1, "seed": 1})
            assert _memo_count(service, "hit") == 1
            await service.advise("t1", options={"seed": 2})
            assert _memo_count(service, "miss") == 2
            # One entry per tenant: the newest options displaced the old.
            await service.advise("t1", options={"seed": 1, "restarts": 1})
            assert _memo_count(service, "miss") == 3
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_degraded_answer_is_not_stored():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload(problem=PROBLEM,
                                                 layout=LAYOUT))
            # A budget below the watchdog's per-rung floor answers from
            # the greedy rung: valid for this request, never reused.
            answers = [await service.advise(
                "t1", options={"solve_budget_s": 0.01}) for _ in range(2)]
            assert [a["degraded"] for a in answers] == [True, True]
            assert [service.traces.get(a["trace_id"]).rung
                    for a in answers] == ["greedy", "greedy"]
            assert (_memo_count(service, "miss"),
                    _memo_count(service, "hit")) == (2, 0)
            assert service.tenants["t1"].advise_memo is None
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_mutating_an_answer_does_not_change_the_next_hit():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload())
            first = await service.advise("t1")
            pristine = copy.deepcopy(_stable(first))
            first["layout"]["a"][0] = -1.0
            first["max_utilization"].clear()
            first["method"] = "tampered"
            second = await service.advise("t1")
            second["layout"]["b"].append(7.0)
            third = await service.advise("t1")
        finally:
            await service.drain()
        assert _memo_count(service, "hit") == 2
        assert _stable(third) == pristine

    asyncio.run(scenario())


def test_the_baseline_is_replaced_at_an_install_never_mutated():
    async def scenario():
        service = make_service()
        await service.start()
        try:
            await service.create_tenant(_payload())
            controller = service.tenants["t1"].controller
            baseline = controller.solved_workloads
            contents = list(baseline)
            await service.advise("t1")
            await service.feed_trace_chunk("t1", drifted_chunk())
            # The memo keys on the list object: an install must bind a
            # new list and leave the old one as it was.
            assert controller.solved_workloads is not baseline
            assert baseline == contents
            assert [w.read_rate for w in controller.solved_workloads] \
                == [20.0, 200.0]
            await service.advise("t1")
            assert _memo_count(service, "miss") == 2
        finally:
            await service.drain()

    asyncio.run(scenario())


def test_a_hit_skips_admission_but_not_the_other_checks():
    async def scenario():
        service = make_service(workers=1, max_pending=1)
        await service.start()
        try:
            await service.create_tenant(_payload())
            await service.advise("t1")
            # The only slot is busy and the queue is full: a miss would
            # be shed with 429, and an expired deadline with 503.
            blocker = asyncio.ensure_future(service.scheduler.submit(
                "t1", time.sleep, 0.3, preadmitted=True))
            await asyncio.sleep(0.05)
            queued = asyncio.ensure_future(service.scheduler.submit(
                "t1", sum, [], preadmitted=True))
            await asyncio.sleep(0.01)
            with pytest.raises(AdmissionError):
                await service.advise("t1", options={"seed": 1})
            hit = await service.advise(
                "t1", deadline=service.deadline_from(deadline_ms=1e-6))
            await asyncio.gather(blocker, queued)
            rtrace = service.traces.get(hit["trace_id"])
            names = {span.name for span in rtrace.tracer.spans}
            assert names == {"request"}
            assert rtrace.root.tags["memo"] == "hit"
            assert rtrace.meta()["queue_wait_s"] is None
            assert rtrace.meta()["solve_s"] is None
            # Hits still count as advises, in the SLO window and in the
            # latency histogram.
            assert service.tenants["t1"].advises == 2
            assert service.slo.snapshot("t1")["window_requests"] == 2
            histogram = service.metrics.get("repro_serve_advise_seconds")
            assert histogram.count == 2
            text = service.metrics_text()
            assert 'repro_serve_advise_memo_total{outcome="hit"} 1' in text
            assert 'repro_serve_advise_memo_total{outcome="miss"} 2' \
                in text
            await service.delete_tenant("t1")
            with pytest.raises(UnknownTenantError):
                await service.advise("t1")
            await service.create_tenant(_payload("t2"))
            await service.advise("t2")
        finally:
            await service.drain()
        with pytest.raises(ServiceDrainingError):
            await service.advise("t2")

    asyncio.run(scenario())


def test_concurrent_feeds_never_leave_a_stale_answer(tmp_path):
    """Feed threads replace baselines while the event loop reads them
    without a lock.  Under a short switch interval, every answer must
    be a fresh solve of a baseline its tenant held (the create-time
    workload or one a migration journal installed), and once the feeds
    are done, of the baseline it holds now."""
    ids = ["t%d" % i for i in range(4)]

    async def scenario():
        service = await make_service(state_dir=str(tmp_path),
                                     feed_threads=4).start()
        try:
            for tenant_id in ids:
                await service.create_tenant(_payload(tenant_id))
            answers = {tenant_id: [] for tenant_id in ids}

            async def feed(tenant_id):
                for index in range(3):
                    await service.feed_trace_chunk(
                        tenant_id, drifted_chunk(index, horizon_s=6.0))

            async def advise(tenant_id, feeder):
                while not feeder.done():
                    answers[tenant_id].append(
                        _stable(await service.advise(tenant_id)))
                    await asyncio.sleep(0.001)

            feeders = [asyncio.ensure_future(feed(t)) for t in ids]
            await asyncio.gather(*feeders, *(
                advise(t, f) for t, f in zip(ids, feeders)))
            assert _memo_count(service, "hit") > 0
            for tenant_id in ids:
                tenant = service.tenants[tenant_id]
                held = [tenant.problem.workloads] + [
                    [ObjectWorkload(**spec)
                     for spec in MigrationJournal.load(path).meta["fitted"]]
                    for path in sorted(glob.glob(os.path.join(
                        str(tmp_path), tenant_id, "migration-*.jsonl")))]
                assert len(held) > 1
                fresh = [_fresh(service, tenant_id,
                                problem=tenant.controller._problem(w))
                         for w in held]
                assert answers[tenant_id]
                assert all(a in fresh for a in answers[tenant_id])
                final = await service.advise(tenant_id)
                assert _stable(final) == _fresh(service, tenant_id)
        finally:
            await service.drain()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        asyncio.run(asyncio.wait_for(scenario(), 120))
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Against a never-crashed twin
# ----------------------------------------------------------------------

def test_crash_after_a_swap_recovers_the_swap_baseline(tmp_path):
    """A crash after a swap and before the next snapshot (every 16
    chunks by default) leaves the swap's drift baseline only in the
    WAL: the recovered tenant must still hold it, and answer like the
    incarnation that never crashed."""
    async def scenario():
        state = str(tmp_path / "state")
        live = await make_service(state_dir=state).start()
        try:
            await live.create_tenant(_payload())
            fed = await live.feed_trace_chunk("t1", drifted_chunk())
            assert fed["resolves"] == 1 and not fed["migrating"]
            # A second incarnation recovers the state dir as it stands.
            recovered = await make_service(state_dir=state).start()
            try:
                assert recovered.recovery["adopted_swaps"] == 0
                baselines = [service.tenants["t1"].controller
                             .solved_workloads
                             for service in (live, recovered)]
                answers = [await service.advise("t1")
                           for service in (live, recovered)]
            finally:
                await recovered.drain()
        finally:
            await _abandon(live)
        assert [w.read_rate for w in baselines[1]] == [20.0, 200.0]
        assert baselines[1] == baselines[0]
        assert _stable(answers[1]) == _stable(answers[0])

    asyncio.run(scenario())


def _durable(state_dir):
    # A snapshot per chunk makes the monitor's digest durable as well.
    # The WAL does not log the monitor, so at a sparser cadence a
    # recovered monitor lags by the chunks fed since the last snapshot
    # and later drift decisions can differ from the twin's.
    return make_service(state_dir=state_dir, snapshot_every=1).start()


async def _interleave(ops, base):
    """Apply ``ops`` to a tenant and to its never-crashed twin, each on
    a service with its own state dir; ``crash`` abandons the first
    service and recovers a new one from its state dir.  Every advise
    must equal a fresh solve of the tenant's current baseline, and the
    two tenants must answer alike."""
    state_dir = os.path.join(base, "live")
    live = await _durable(state_dir)
    twin = await _durable(os.path.join(base, "twin"))
    chunks = 0
    try:
        for service in (live, twin):
            await service.create_tenant(_payload())
        for op in ops + ["advise"]:
            if op == "feed":
                chunk = drifted_chunk(chunks, horizon_s=6.0)
                chunks += 1
                for service in (live, twin):
                    await service.feed_trace_chunk("t1", chunk)
                # Recovery finishes an in-flight migration at once, so a
                # crash mid-copy would rightly run ahead of the twin.
                assert not twin.tenants["t1"].controller.migrating
            elif op == "crash":
                await _abandon(live)
                live = await _durable(state_dir)
                assert live.recovery["recovered_tenants"] == 1
            else:
                answers = [await service.advise("t1")
                           for service in (live, twin)]
                for service, answer in zip((live, twin), answers):
                    assert _stable(answer) == _fresh(service, "t1")
                assert _stable(answers[0]) == _stable(answers[1])
                assert live.tenants["t1"].controller.solved_workloads \
                    == twin.tenants["t1"].controller.solved_workloads
    finally:
        for service in (live, twin):
            await service.drain()


@settings(max_examples=8, deadline=None)
@given(ops=st.lists(st.sampled_from(["feed", "advise", "crash"]),
                    max_size=6))
def test_recovered_tenant_answers_like_a_never_crashed_twin(ops):
    with tempfile.TemporaryDirectory() as base:
        asyncio.run(_interleave(ops, base))
