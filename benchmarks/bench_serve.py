"""Serving-layer load test: many tenants, one solver pool.

Boots the real service — :class:`~repro.serve.http.HttpFrontend` on a
TCP port — and drives it with a closed-loop load generator over real
sockets, one keep-alive connection per tenant:

1. **create** — N tenants admitted (``max-rate``: all at once;
   ``ramp``: staggered), each one's initial advise running on the
   shared pool under the bounded admission queue (429s are retried
   closed-loop and counted);
2. **advise storm** — every tenant issues back-to-back advises, each
   with a fresh seed so every one is a solve; their p50/p99 is the
   headline;
3. **feed** — every tenant streams a drifted trace chunk, so the
   server-side controllers run monitor → drift → re-solve on the pool;
   re-solve throughput is the pool's completed-job rate over this
   phase;
4. **fairness** — per-tenant charged solver seconds at equal weight;
   the spread (max/min) must stay ≤ 2× even under saturation.

Every request is traced, so every phase feeds the per-tenant SLO
engine and (with ``--access-log``) the JSONL access log; the payload
reports SLO attainment across tenants and the queue-wait vs solve-time
p50/p99 split of the storm's own advises, found in the log by the
trace ids of their responses.

Results go to ``benchmarks/results/BENCH_serve.json`` and the table
``serve.txt`` beside it (``--out`` moves both).
"""

import argparse
import asyncio
import json
import os
import time

from benchmarks.conftest import RESULTS_DIR, report
from repro.experiments.reporting import format_table
from repro.serve.client import ServeClient, ServeHttpError
from repro.serve.http import HttpFrontend
from repro.serve.service import AdvisorService, ServeConfig

#: Deliberately tiny per-tenant problem: the point is many tenants on
#: one pool, not one big solve.  The targets are heterogeneous (disk +
#: SSD) so a workload inversion genuinely changes the optimal layout —
#: the feed phase's re-solves then produce real accepted migrations.
PROBLEM = {
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

#: Aggressive controller: one drifted chunk is enough to re-solve.
CONTROLLER = {
    "check_interval_s": 2.0,
    "patience": 1,
    "cooldown_s": 0.0,
    "min_gain": 0.001,
    "amortization_s": 10000.0,
    "monitor_halflife_s": 4.0,
}

#: Retry pause after a 429 (closed loop: the tenant waits, not drops).
BACKOFF_S = 0.05


def drifted_chunk(horizon_s=12.0):
    """A trace whose rates invert the solved-for workload: ``b`` hot."""
    records = []
    for obj, rate in (("a", 20.0), ("b", 200.0)):
        t, step = 0.0, 1.0 / rate
        while t < horizon_s:
            records.append({"obj": obj, "finish_time": round(t, 6),
                            "kind": "read", "size": 8192,
                            "service_time": 0.002})
            t += step
    records.sort(key=lambda r: r["finish_time"])
    return records


def percentile(samples, q):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


async def _with_backpressure(call, counters):
    """Closed-loop request: retry 429s after a pause, count them."""
    while True:
        started = time.perf_counter()
        try:
            result = await call()
        except ServeHttpError as error:
            if error.status == 429:
                counters["rejected"] += 1
                await asyncio.sleep(BACKOFF_S)
                continue
            raise
        return time.perf_counter() - started, result


async def run_bench(tenants=120, mode="max-rate", workers=None,
                    use_processes=True, advises=3, feed=True,
                    max_pending=48, fairness_window_s=20.0,
                    access_log=None):
    workers = workers or max(2, (os.cpu_count() or 2) - 1)
    config = ServeConfig(port=0, workers=workers,
                         use_processes=use_processes,
                         max_pending=max_pending,
                         feed_threads=max(4, workers),
                         access_log=access_log)
    frontend = HttpFrontend(AdvisorService(config))
    await frontend.start()
    clients = [ServeClient(frontend.host, frontend.port)
               for _ in range(tenants)]
    counters = {"rejected": 0}
    payload = {
        "benchmark": "serve",
        "tenants": tenants,
        "mode": mode,
        "workers": workers,
        "use_processes": frontend.service.pool.use_processes,
        "max_pending": max_pending,
        "advises_per_tenant": advises,
    }
    try:
        # -- phase 1: create ------------------------------------------
        ramp_s = tenants * 0.02 if mode == "ramp" else 0.0

        async def create(index):
            if ramp_s:
                await asyncio.sleep(ramp_s * index / tenants)
            return await _with_backpressure(
                lambda: clients[index].create_tenant({
                    "tenant_id": "t%04d" % index,
                    "problem": PROBLEM,
                    "controller": CONTROLLER,
                }),
                counters,
            )
        wall = time.perf_counter()
        created = await asyncio.gather(*(create(i) for i in range(tenants)))
        create_wall = time.perf_counter() - wall
        create_lat = [latency for latency, _ in created]
        payload["create"] = {
            "wall_s": round(create_wall, 3),
            "p50_ms": round(percentile(create_lat, 0.50) * 1e3, 2),
            "p99_ms": round(percentile(create_lat, 0.99) * 1e3, 2),
            "rate_per_s": round(tenants / create_wall, 2),
        }

        # -- phase 2: advise storm ------------------------------------
        # Every advise carries a seed no earlier advise of its tenant
        # used.  With restarts=1 the seed does not change the answer,
        # only the memo key, so each advise is a solve, not a lookup of
        # the tenant's last answer.
        seeds = [0] * tenants

        def advise(index):
            seeds[index] += 1
            return clients[index].advise("t%04d" % index,
                                         {"seed": seeds[index]})

        async def storm(index):
            return [await _with_backpressure(lambda: advise(index),
                                             counters)
                    for _ in range(advises)]

        wall = time.perf_counter()
        answers = [answer for per in await asyncio.gather(
            *(storm(i) for i in range(tenants))) for answer in per]
        advise_wall = time.perf_counter() - wall
        lat = [latency for latency, _ in answers]
        storm_ids = {body["trace_id"] for _, (_, body) in answers}
        payload["advise"] = {
            "requests": len(lat),
            "wall_s": round(advise_wall, 3),
            "p50_ms": round(percentile(lat, 0.50) * 1e3, 2),
            "p99_ms": round(percentile(lat, 0.99) * 1e3, 2),
            "throughput_rps": round(len(lat) / advise_wall, 2),
        }

        # -- phase 3: feed (server-side re-solves) --------------------
        if feed:
            chunk = drifted_chunk()
            before = (await clients[0].status())["queue"]["completed"]
            wall = time.perf_counter()
            feeds = await asyncio.gather(*(
                _with_backpressure(
                    lambda i=i: clients[i].feed("t%04d" % i, chunk),
                    counters,
                ) for i in range(tenants)
            ))
            feed_wall = time.perf_counter() - wall
            after = (await clients[0].status())["queue"]["completed"]
            accepted = sum(result[1]["resolves"]
                           for _, (_, result) in enumerate(feeds))
            payload["resolve"] = {
                "wall_s": round(feed_wall, 3),
                "solver_jobs": after - before,
                "throughput_per_s": round((after - before) / feed_wall, 2),
                "accepted_migrations": accepted,
            }

        # -- phase 4: fairness under saturation -----------------------
        # Count-boxed phases measure job-duration variance, not the
        # scheduler: with a fixed number of jobs per tenant, total
        # charged time is the tenant's own jobs no matter the order.
        # Here every tenant stays continuously backlogged for a fixed
        # wall-clock window; the min-virtual-time dispatcher then hands
        # out solver seconds, and the per-tenant *delta* over the
        # window is the scheduler's actual allocation.
        # Fairness is a property of the *scheduler*, so every tenant
        # must be able to hold a queued job: with an admission bound
        # below the tenant count, who gets solver time is decided by
        # 429-retry luck at the door, not by virtual time inside.  The
        # backpressure path was exercised (and counted) above; here the
        # bound is lifted so the dispatcher is what's being measured.
        frontend.service.scheduler.max_pending = tenants + workers

        async def served_s(index):
            status = await clients[index].tenant_status("t%04d" % index)
            return status["served_solver_s"]

        before = await asyncio.gather(*(served_s(i)
                                        for i in range(tenants)))
        deadline = time.perf_counter() + fairness_window_s

        async def saturate(index):
            while time.perf_counter() < deadline:
                await _with_backpressure(lambda: advise(index), counters)
        await asyncio.gather(*(saturate(i) for i in range(tenants)))
        after = await asyncio.gather(*(served_s(i)
                                       for i in range(tenants)))
        deltas = [b - a for a, b in zip(before, after)]
        spread = (max(deltas) / min(deltas)) if min(deltas) > 0 else None
        payload["fairness"] = {
            "window_s": fairness_window_s,
            "spread": round(spread, 3) if spread else spread,
            "min_solver_s": round(min(deltas), 4),
            "max_solver_s": round(max(deltas), 4),
        }

        # -- SLO attainment across every traced advise ----------------
        slo = await clients[0].slo()
        snaps = list(slo["tenants"].values())
        if snaps:
            payload["slo"] = {
                "objective": slo["default_objective"],
                "tenants": len(snaps),
                "attained_tenants": sum(1 for s in snaps if s["attained"]),
                "min_attainment": round(
                    min(s["attainment"] for s in snaps), 4),
                "mean_attainment": round(
                    sum(s["attainment"] for s in snaps) / len(snaps), 4),
                "worst_burn_rate": round(
                    max(s["worst_burn_rate"] for s in snaps), 3),
            }

        # -- the storm's queue-wait vs solve-time split ---------------
        # Only the storm's own advises, by the trace ids their responses
        # carried: the log also holds the fairness phase's advises and
        # every 429 the closed loop retried.
        if access_log is not None:
            with open(access_log) as handle:
                entries = [entry for entry in map(json.loads, handle)
                           if entry["trace_id"] in storm_ids]
            waits = [e["queue_wait_s"] for e in entries
                     if e["queue_wait_s"] is not None]
            solves = [e["solve_s"] for e in entries
                      if e["solve_s"] is not None]
            if waits and solves:
                payload["latency_breakdown"] = {
                    "advises_logged": len(waits),
                    "queue_wait_p50_ms": round(
                        percentile(waits, 0.50) * 1e3, 2),
                    "queue_wait_p99_ms": round(
                        percentile(waits, 0.99) * 1e3, 2),
                    "solve_p50_ms": round(
                        percentile(solves, 0.50) * 1e3, 2),
                    "solve_p99_ms": round(
                        percentile(solves, 0.99) * 1e3, 2),
                }

        status = await clients[0].status()
        payload["rejected_429"] = counters["rejected"]
        payload["queue"] = status["queue"]
        payload["pool_generation"] = status["pool"]["generation"]
    finally:
        for client in clients:
            await client.close()
        await frontend.stop()
    return payload


def check_serve(payload, p99_bound_s=None):
    """The serving claims BENCH_serve.json is committed to prove."""
    advise = payload["advise"]
    assert advise["requests"] == (payload["tenants"]
                                  * payload["advises_per_tenant"]), payload
    # Every tenant was served end to end despite admission pressure.
    assert payload["queue"]["pending"] == 0, payload
    assert payload["queue"]["inflight"] == 0, payload
    # No worker crash during the run.
    assert payload["pool_generation"] == 0, payload
    # Weighted-fair scheduling: equal weights → near-equal solver time.
    spread = payload["fairness"]["spread"]
    assert spread is not None and spread <= 2.0, payload
    if "resolve" in payload:
        assert payload["resolve"]["solver_jobs"] >= payload["tenants"], \
            payload
        assert payload["resolve"]["throughput_per_s"] > 0, payload
    if p99_bound_s is not None:
        assert advise["p99_ms"] <= p99_bound_s * 1e3, payload
    # The breakdown covers exactly the storm's advises.
    if "latency_breakdown" in payload:
        assert (payload["latency_breakdown"]["advises_logged"]
                == advise["requests"]), payload
    # Every tenant's traced advises landed in an SLO window.
    assert payload["slo"]["tenants"] == payload["tenants"], payload


def _report(payload, directory):
    rows = [
        ["tenants (mode)", "%d (%s)" % (payload["tenants"],
                                        payload["mode"])],
        ["pool", "%d %s workers" % (
            payload["workers"],
            "process" if payload["use_processes"] else "thread")],
        ["create p50 / p99 (ms)", "%.1f / %.1f" % (
            payload["create"]["p50_ms"], payload["create"]["p99_ms"])],
        ["advise p50 / p99 (ms)", "%.1f / %.1f" % (
            payload["advise"]["p50_ms"], payload["advise"]["p99_ms"])],
        ["advise throughput (req/s)",
         "%.1f" % payload["advise"]["throughput_rps"]],
        ["admission rejections (429)", "%d" % payload["rejected_429"]],
        ["fairness spread (max/min solver s)",
         "%.2f" % payload["fairness"]["spread"]],
        ["SLO attainment (tenants met / total)",
         "%d / %d" % (payload["slo"]["attained_tenants"],
                      payload["slo"]["tenants"])],
        ["worst burn rate", "%.2f" % payload["slo"]["worst_burn_rate"]],
    ]
    if "latency_breakdown" in payload:
        split = payload["latency_breakdown"]
        rows.append(["queue wait p50 / p99 (ms)", "%.1f / %.1f" % (
            split["queue_wait_p50_ms"], split["queue_wait_p99_ms"])])
        rows.append(["solve p50 / p99 (ms)", "%.1f / %.1f" % (
            split["solve_p50_ms"], split["solve_p99_ms"])])
    if "resolve" in payload:
        rows.append(["re-solve throughput (jobs/s)",
                     "%.1f" % payload["resolve"]["throughput_per_s"]])
        rows.append(["accepted migrations",
                     "%d" % payload["resolve"]["accepted_migrations"]])
    report("serve", format_table(
        ["Metric", "Value"], rows,
        title="Advisor-as-a-service under %d concurrent tenants"
              % payload["tenants"],
    ), directory=directory)


def test_serve_bench_smoke(tmp_path, monkeypatch):
    """CI smoke: a small closed-loop run over real sockets, through
    ``main`` with a bare ``--out`` name, as CI runs it."""
    monkeypatch.chdir(tmp_path)
    assert main([
        "--tenants", "8", "--advises", "1", "--workers", "2", "--threads",
        "--max-pending", "8", "--fairness-window", "6",
        "--p99-bound", "60", "--access-log", "access.jsonl",
        "--out", "BENCH_serve.json",
    ]) == 0
    payload = json.loads((tmp_path / "BENCH_serve.json").read_text())
    assert payload["benchmark"] == "serve"
    assert payload["slo"]["tenants"] == 8
    split = payload["latency_breakdown"]
    assert split["advises_logged"] >= 8
    assert split["queue_wait_p99_ms"] >= 0.0
    assert split["solve_p99_ms"] > 0.0
    assert (tmp_path / "serve.txt").is_file()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=120,
                        help="concurrent tenants (default 120)")
    parser.add_argument("--mode", choices=("max-rate", "ramp"),
                        default="max-rate",
                        help="create-phase schedule (default max-rate)")
    parser.add_argument("--advises", type=int, default=3,
                        help="advise requests per tenant (default 3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="solver pool size (default: cores - 1)")
    parser.add_argument("--threads", action="store_true",
                        help="thread pool instead of worker processes")
    parser.add_argument("--max-pending", type=int, default=48,
                        help="admission bound (default 48: saturates)")
    parser.add_argument("--no-feed", action="store_true",
                        help="skip the server-side re-solve phase")
    parser.add_argument("--fairness-window", type=float, default=20.0,
                        metavar="SECONDS",
                        help="saturation window for the fairness "
                             "measurement (default 20)")
    parser.add_argument("--p99-bound", type=float, default=None,
                        metavar="SECONDS",
                        help="fail if advise p99 exceeds this")
    parser.add_argument("--access-log", default=None, metavar="FILE",
                        help="JSONL access log path (also the source of "
                             "the queue-wait vs solve-time breakdown)")
    parser.add_argument(
        "--out", default=os.path.join(RESULTS_DIR, "BENCH_serve.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    payload = asyncio.run(run_bench(
        tenants=args.tenants, mode=args.mode, workers=args.workers,
        use_processes=not args.threads, advises=args.advises,
        feed=not args.no_feed, max_pending=args.max_pending,
        fairness_window_s=args.fairness_window,
        access_log=args.access_log,
    ))
    check_serve(payload, p99_bound_s=args.p99_bound)
    _report(payload, os.path.dirname(os.path.abspath(args.out)))
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print("wrote %s (%d tenants: advise p50 %.1fms p99 %.1fms, "
          "fairness spread %.2f, %d rejections)"
          % (args.out, payload["tenants"], payload["advise"]["p50_ms"],
             payload["advise"]["p99_ms"], payload["fairness"]["spread"],
             payload["rejected_429"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
