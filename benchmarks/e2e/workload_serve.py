"""serve-mixed: the multi-tenant service under an open-loop read/write mix.

A ``repro serve --port 0 --state-dir <fresh dir>`` subprocess with the
CLI defaults — the flush policy under test: 2 solver worker processes,
a per-tenant write-ahead log (WAL) that fsyncs every record, and a
compacting snapshot every 16 chunks a tenant is fed.  It holds 64
tenants, each the disk+SSD two-object problem with its own rate jitter.

Load: one process, an open loop over 2 keep-alive connections.  Advise
requests arrive as a Poisson process at 20/s on uniformly drawn
tenants; feeds at 5/s, round-robin over 4 tenants drawn from the seed,
each a 4 s drift chunk whose hot object flips every 3 chunks, so
re-solves and migrations keep happening.  Reads (advise → scheduler →
pool → worker) run beside writes (feed → monitor → WAL fsync →
snapshot → re-solve on the same pool), so a gain on one that costs the
other shows.  Every request is timed from when it was due, which
counts the wait a stall imposes on the requests behind it; how late the
generator itself ran is reported as ``gen.late_*``.  The first 2 s are
warm-up and are not measured.

Inputs: arrival times, advised tenants, feed tenants and chunk contents
come from the seed.  The tenants' problems come from a fixed stream, so
``util_vs_see`` (mean over tenants of the advised layout's max
utilization ÷ SEE's, from one probe advise per tenant before the load)
does not move with the seed.

Set-up: booting the server process (imports, pool) and creating the 64
tenants (each runs an initial advise on the pool).
"""

import asyncio
import json
import os
import signal
import sys
import time

import numpy as np

from harness import HERE, SETUP_REPS, median, percentile
from inputs import drift_chunk, tenant_payload
from spans import SpanTree, Tracer, read_records

TENANTS = 64
FEED_TENANTS = 4
CONNECTIONS = 2
ADVISE_RATE = 20.0
FEED_RATE = 5.0
WARMUP_S = 2.0
SMOKE = {"tenants": 4, "feed_tenants": 2, "warmup_s": 0.5}
#: Entropy of the tenants' problems (fixed: see the module docstring).
REFERENCE = 2010

FLUSH_POLICY = ("repro serve CLI defaults: 2 process workers, WAL fsync "
                "on every record, compacting snapshot every 16 chunks fed")


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port):
        self.port = port
        self.reader = self.writer = None

    async def request(self, method, path, body=b""):
        """Send one request; returns ``(status, payload)``."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port)
        head = ("%s %s HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n\r\n" % (method, path, len(body)))
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(data) if data else None)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


class Server:
    """A ``repro serve`` subprocess on a free port and a fresh state dir;
    traced servers run under ``serve_launcher.py``."""

    def __init__(self, ctx, traced):
        self.dir = ctx.fresh_dir("server-")
        self.log_path = os.path.join(self.dir, "server.log")
        self.spans_path = (os.path.join(self.dir, "spans.jsonl")
                           if traced else None)
        args = ["--port", "0", "--state-dir", os.path.join(self.dir, "state")]
        if traced:
            self.command = [sys.executable,
                            os.path.join(HERE, "serve_launcher.py"),
                            self.spans_path] + args
        else:
            self.command = [sys.executable, "-m", "repro.cli", "serve"] + args
        self.proc = self.port = None

    async def start(self):
        with open(self.log_path, "w") as log:
            self.proc = await asyncio.create_subprocess_exec(
                *self.command, stdout=asyncio.subprocess.PIPE, stderr=log,
                cwd=self.dir)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if not line.startswith(b"serving on http://"):
            await self.stop()
            raise RuntimeError("server did not start: %r (see %s)"
                               % (line, self.log_path))
        self.port = int(line.split()[2].rsplit(b":", 1)[1])
        return self

    async def stop(self):
        """SIGTERM (graceful drain); returns the exit code."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.wait(), 60)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        await self.proc.stdout.read()
        return self.proc.returncode


def _sizes(ctx):
    if ctx.smoke:
        return SMOKE["tenants"], SMOKE["feed_tenants"], SMOKE["warmup_s"]
    return TENANTS, FEED_TENANTS, WARMUP_S


def _tenant_id(index):
    return "t%03d" % index


def make_plan(seed, duration_s, tenants, feed_tenants):
    """The open-loop schedule: due offsets, routes and encoded bodies."""
    rng = np.random.default_rng([seed, 1])
    events = []
    for kind, rate in (("advise", ADVISE_RATE), ("feed", FEED_RATE)):
        t = rng.exponential(1.0 / rate)
        while t < duration_s:
            events.append((t, kind))
            t += rng.exponential(1.0 / rate)
    events.sort()
    feeders = [int(i) for i in rng.permutation(tenants)[:feed_tenants]]
    chunks, fed, plan = {}, 0, []
    for t, kind in events:
        if kind == "advise":
            tenant = int(rng.integers(tenants))
            body = b"{}"
        else:
            tenant = feeders[fed % len(feeders)]
            fed += 1
            index = chunks.get(tenant, 0)
            chunks[tenant] = index + 1
            records = drift_chunk(
                np.random.default_rng([seed, 2, tenant, index]), index)
            body = json.dumps({"records": records}).encode()
        route = "advise" if kind == "advise" else "trace"
        plan.append({"t": t, "kind": kind, "tenant": tenant, "body": body,
                     "path": "/tenants/%s/%s" % (_tenant_id(tenant), route)})
    return plan


def _response_ok(kind, status, payload):
    if status != 200 or not isinstance(payload, dict):
        return False
    if kind == "advise":
        rows = payload.get("layout") or {}
        return bool(rows) and all(abs(sum(row) - 1.0) <= 1e-6
                                  for row in rows.values())
    return "chunks_fed" in payload


async def _spread(conns, calls):
    """Run ``calls`` (coroutine factories taking a connection) over the
    connections, each connection serially."""
    async def lane(k):
        return [await call(conns[k]) for call in calls[k::len(conns)]]
    lanes = await asyncio.gather(*(lane(k) for k in range(len(conns))))
    return [result for lane in lanes for result in lane]


async def boot(ctx, outcome, traced):
    """Start a server and create every tenant; returns (server,
    connections, seconds taken)."""
    tenants, _, _ = _sizes(ctx)
    rng = np.random.default_rng(REFERENCE)
    bodies = [json.dumps(tenant_payload(rng, _tenant_id(k))).encode()
              for k in range(tenants)]
    started = time.perf_counter()
    server = await Server(ctx, traced).start()
    conns = [Connection(server.port) for _ in range(CONNECTIONS)]

    def create(body):
        async def call(conn):
            return await conn.request("POST", "/tenants", body)
        return call

    try:
        created = await _spread(conns, [create(b) for b in bodies])
    except BaseException:
        await shutdown(server, conns)
        raise
    for status, payload in created:
        outcome.op(status == 200)
        if status != 200:
            outcome.check("tenant created", False, payload)
    return server, conns, time.perf_counter() - started


async def shutdown(server, conns):
    for conn in conns:
        await conn.close()
    return await server.stop()


async def probe(ctx, outcome, conns):
    """One advise per tenant: warms the pool and measures quality."""
    tenants, _, _ = _sizes(ctx)

    def advise(k):
        async def call(conn):
            return await conn.request(
                "POST", "/tenants/%s/advise" % _tenant_id(k), b"{}")
        return call

    ratios = []
    for status, payload in await _spread(conns,
                                         [advise(k) for k in range(tenants)]):
        ok = _response_ok("advise", status, payload)
        outcome.op(ok)
        if ok:
            utils = payload["max_utilization"]
            ratios.append(utils.get("regular", utils["solver"]) / utils["see"])
    return float(np.mean(ratios)) if ratios else float("nan")


async def drive(conns, plan):
    """Play the plan open-loop; returns one record per request."""
    queue = asyncio.Queue()
    feed_locks = {}
    records = []
    base = time.perf_counter() + 0.05

    async def generator():
        for event in plan:
            due = base + event["t"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((event, due, time.perf_counter()))
        for _ in conns:
            queue.put_nowait(None)

    async def sender(conn):
        while True:
            item = await queue.get()
            if item is None:
                return
            event, due, enqueued = item
            # Chunks of one tenant must arrive in time order.
            lock = (feed_locks.setdefault(event["tenant"], asyncio.Lock())
                    if event["kind"] == "feed" else None)
            if lock is not None:
                await lock.acquire()
            try:
                sent = time.perf_counter()
                try:
                    status, payload = await conn.request(
                        "POST", event["path"], event["body"])
                except (OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError) as error:
                    status, payload = None, repr(error)
                    await conn.close()
                done = time.perf_counter()
            finally:
                if lock is not None:
                    lock.release()
            records.append({"kind": event["kind"], "tenant": event["tenant"],
                            "bytes": len(event["body"]), "due": due,
                            "enqueued": enqueued, "sent": sent,
                            "done": done, "status": status,
                            "payload": payload})

    await asyncio.gather(generator(), *(sender(c) for c in conns))
    return records, base


def repeat_state_share(records, tenants):
    """Share of measured advises whose tenant was advised before (every
    tenant was, by the probe) and fed nothing since — what a per-tenant
    result cache would serve."""
    advised, changed = set(range(tenants)), set()
    repeats = total = 0
    for record in sorted(records, key=lambda r: r["sent"]):
        tenant = record["tenant"]
        if record["kind"] == "feed":
            changed.add(tenant)
            continue
        if record.get("measured"):
            total += 1
            repeats += tenant in advised and tenant not in changed
        advised.add(tenant)
        changed.discard(tenant)
    return repeats / total if total else 0.0


async def session(ctx, outcome, plan, traced, booted=None):
    """Boot (unless given a booted server), probe, play the plan, check
    the service drained, stop.  Returns the request records, the probe's
    quality, the server and its final queue status."""
    _, _, warmup_s = _sizes(ctx)
    server, conns, _ = booted or await boot(ctx, outcome, traced)
    try:
        util = await probe(ctx, outcome, conns)
        records, base = await drive(conns, plan)
        for record in records:
            record["measured"] = record["due"] >= base + warmup_s
            ok = _response_ok(record["kind"], record["status"],
                              record["payload"])
            outcome.op(ok)
            if not ok:
                outcome.check("%s answered 2xx" % record["kind"], False,
                              (record["status"], record["payload"]))
        _, status = await conns[0].request("GET", "/status")
        queue = status["queue"]
        outcome.check("queue drained", queue["pending"] == 0
                      and queue["inflight"] == 0, queue)
        outcome.check("no worker crash", status["pool"]["generation"] == 0,
                      status["pool"])
    finally:
        code = await shutdown(server, conns)
    outcome.check("server drained and exited 0", code == 0, code)
    return {"records": records, "util": util, "server": server,
            "queue": queue}


def _latencies(records, kind=None):
    return [(r["done"] - r["due"]) * 1e3 for r in records
            if r["measured"] and (kind is None or r["kind"] == kind)]


def _server_metrics(tree, roots, records, window):
    """Per-layer numbers from the traced server's spans."""
    start, end = window
    spans = [s for s in tree.spans if start <= s["start"] <= end]

    def named(name, job=None):
        return [s for s in spans if s["name"] == name
                and (job is None or s["tags"].get("job") == job)]

    def p50(values):
        return median(values) if values else 0.0

    waits, runs, workers, ipc = [], [], [], []
    for submit in named("serve.scheduler.submit", "advise_job"):
        pool_runs = [c for c in tree.children.get(submit["id"], ())
                     if c["name"] == "serve.pool.run"]
        run_s = sum(tree.duration(c) for c in pool_runs)
        waits.append((tree.duration(submit) - run_s) * 1e3)
    for run in named("serve.pool.run", "advise_job"):
        runs.append(tree.duration(run) * 1e3)
        if run["tags"].get("worker_s") is not None:
            workers.append(run["tags"]["worker_s"] * 1e3)
            ipc.append(tree.duration(run) * 1e3 - workers[-1])
    appends = named("serve.wal.append")
    snapshots = named("serve.wal.snapshot")
    resolves = named("serve.pool.run", "resolve_job")
    feeds = named("serve.tenant.feed")
    observe = sum(r["calls"] for f in feeds
                  for r in tree.hot_under.get(f["id"], ())
                  if r["name"] == "online.monitor.observe")
    user_bytes = sum(r["bytes"] for r in records
                     if r["kind"] == "feed" and start <= r["sent"] <= end)
    wal_bytes = sum(s["tags"].get("bytes", 0) for s in appends)
    layers = tree.layer_seconds(roots)
    wall = sum(tree.duration(r) for r in roots)
    out = {
        "unaccounted_share": layers.get("bench", 0.0) / wall if wall else 0.0,
        "serve.queue_wait_p50_ms": p50(waits),
        "serve.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
        "serve.pool_run_ms": p50(runs),
        "serve.worker_ms": p50(workers),
        "serve.ipc_ms": p50(ipc),
        "serve.feed_apply_ms": p50([tree.duration(s) * 1e3 for s in feeds]),
        "serve.wal_append_ms": p50([tree.duration(s) * 1e3
                                    for s in appends]),
        "serve.wal_appends": len(appends),
        "serve.wal_bytes_per_user_byte": (wal_bytes / user_bytes
                                          if user_bytes else 0.0),
        "serve.snapshot_ms": p50([tree.duration(s) * 1e3
                                  for s in snapshots]),
        "serve.snapshots": len(snapshots),
        "serve.resolves": len(resolves),
        "online.observe_calls": observe,
        "online.resolves": len(resolves),
        "online.resolve_s": sum(tree.duration(s) for s in resolves),
    }
    for layer in ("serve", "gen", "online"):
        out[layer + ".self_s"] = layers.get(layer, 0.0)
    return out


def _traced_layers(ctx, records, server):
    """Merge client request spans with the server's and compute the
    per-layer metrics of the traced session."""
    client = Tracer(ctx.workload)
    measured = [r for r in records if r["measured"]]
    roots = []
    for record in measured:
        payload = record["payload"]
        rid = payload.get("trace_id") if isinstance(payload, dict) else None
        root = client.add("bench.request", record["due"], record["done"],
                          rid=rid, kind=record["kind"])
        client.add("gen.wait", record["due"], record["sent"],
                   parent=root["id"], rid=rid)
        roots.append(root)
    server_records = read_records(server.spans_path)
    client.write(ctx.trace_path, meta={"seed": ctx.seed,
                                       "requests": len(measured)},
                 extra=server_records)
    tree = SpanTree(client.records() + server_records)
    window = (min(r["due"] for r in measured), max(r["done"] for r in measured))
    roots = [tree.by_id[r["id"]] for r in roots]
    return _server_metrics(tree, roots, records, window)


def run(ctx, outcome):
    tenants, feed_tenants, warmup_s = _sizes(ctx)
    plan = make_plan(ctx.seed, warmup_s + ctx.seconds, tenants, feed_tenants)
    outcome.info["flush_policy"] = FLUSH_POLICY
    outcome.info["requests_planned"] = len(plan)

    async def main():
        booted = None
        if not ctx.trace:
            reps = 1 if ctx.smoke else SETUP_REPS
            for rep in range(reps):
                booted = await boot(ctx, outcome, traced=False)
                outcome.setup_s.append(booted[2])
                if rep < reps - 1:
                    await shutdown(booted[0], booted[1])
        untraced = await session(ctx, outcome, plan, False, booted)
        traced = None
        if ctx.trace:
            traced = await session(ctx, outcome, plan, True)
        return untraced, traced

    untraced, traced = asyncio.run(main())
    records = untraced["records"]
    outcome.quality["util_vs_see"] = untraced["util"]
    outcome.ops_ms = _latencies(records)
    late = [(r["enqueued"] - r["due"]) * 1e3 for r in records
            if r["measured"]]
    outcome.layer.update({
        "serve.advise_p50_ms": median(_latencies(records, "advise")),
        "serve.requests": len(outcome.ops_ms),
        "serve.advise_p97_ms": percentile(_latencies(records, "advise"), 97),
        "serve.feed_p50_ms": median(_latencies(records, "feed")),
        "serve.rejected_429": sum(1 for r in records if r["status"] == 429),
        "serve.deadline_shed": untraced["queue"]["deadline_shed"],
        "serve.repeat_state_share": repeat_state_share(records, tenants),
        "gen.late_p50_ms": percentile(late, 50),
        "gen.late_p99_ms": percentile(late, 99),
    })
    outcome.info["measured_requests"] = len(outcome.ops_ms)
    if traced is not None:
        outcome.layer.update(_traced_layers(ctx, traced["records"],
                                            traced["server"]))
        outcome.layer["trace_overhead"] = (
            median(_latencies(traced["records"])) / median(outcome.ops_ms))
