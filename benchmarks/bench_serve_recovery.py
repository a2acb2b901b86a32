"""Chaos harness: SIGKILL the serving process, restart, prove recovery.

Boots the real CLI server (``repro serve``) as a subprocess with a
state directory, then runs K kill cycles:

1. **populate** — N tenants created over real sockets (first cycle
   only; later cycles find them already recovered), each with a
   deliberately slow copy estimate so migrations accepted mid-trace
   are still in flight when the process dies;
2. **drift** — every tenant streams a trace chunk whose hot object
   alternates between cycles, so the server-side controllers accept a
   fresh migration every time;
3. **storm + SIGKILL** — an advise storm saturates the pool and the
   process is killed hard mid-storm (no drain, no atexit: the only
   survivors are the WAL, the snapshots, and the migration journals);
4. **restart** — a new process on the same state directory; its
   startup recovery must rebuild every tenant, finish every suspended
   migration **exactly once**, and answer advises correctly.

The committed claims: 100% of tenants recover after every kill, the
duplicate-migration count is zero (each journal carries at most one
commit record across all incarnations), recovery stays under the
bound, and the post-restart advise path serves every tenant.

The harness always passes ``--threads``: a SIGKILL'd parent cannot
reap worker processes, and orphaned solvers would outlive the bench.

Results go to ``benchmarks/results/BENCH_serve_recovery.json`` and the
table ``serve_recovery.txt`` beside it (``--out`` moves both).  Without
``--state-dir`` the fleet's state lives in a temporary directory that
is removed at exit.
"""

import argparse
import asyncio
import contextlib
import glob
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time

from benchmarks.conftest import RESULTS_DIR, report
from repro.experiments.reporting import format_table
from repro.serve.client import ServeClient

#: Tiny per-tenant problem (the point is many tenants, not one big
#: solve) with heterogeneous targets so a workload inversion genuinely
#: moves the optimal layout — drift then yields real migrations.
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

#: Aggressive controller with a copy estimate slow enough that a
#: migration accepted mid-trace is still uncommitted at SIGKILL time.
CONTROLLER = {
    "check_interval_s": 2.0,
    "patience": 1,
    "cooldown_s": 0.0,
    "min_gain": 0.001,
    "amortization_s": 10000.0,
    "monitor_halflife_s": 4.0,
    "transfer_bps": 256 * 1024,
}


#: Trace-time horizon of one drift chunk; successive chunks start where
#: the previous one ended (the tenant's feed clock only moves forward,
#: and it survives recovery).
HORIZON_S = 12.0


def drift_chunk(hot, start_s):
    """A trace chunk making ``hot`` the dominant object."""
    cold = "a" if hot == "b" else "b"
    records = []
    for obj, rate in ((cold, 20.0), (hot, 200.0)):
        t, step = float(start_s), 1.0 / rate
        while t < start_s + HORIZON_S:
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
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# Server process management
# ----------------------------------------------------------------------

class ServerProcess:
    """One ``repro serve`` incarnation on a shared state directory."""

    def __init__(self, state_dir, workers=2, feed_threads=4,
                 snapshot_every=8, cwd=None):
        self.state_dir = state_dir
        self.workers = workers
        self.feed_threads = feed_threads
        self.snapshot_every = snapshot_every
        self.cwd = cwd or os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        self.proc = None
        self.port = None
        self.ready_wall_s = None

    def start(self, timeout_s=60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(self.workers), "--threads",
             "--feed-threads", str(self.feed_threads),
             "--snapshot-every", str(self.snapshot_every),
             "--state-dir", self.state_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=self.cwd,
        )
        banner = self._read_until(
            lambda line: "serving on http://" in line, timeout_s
        )
        self.ready_wall_s = time.perf_counter() - started
        self.port = int(banner.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        return self

    def _read_until(self, predicate, timeout_s):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.25)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if predicate(line):
                return line
        raise AssertionError("server never became ready")

    def kill(self):
        """SIGKILL: no drain, no cleanup — the crash being simulated."""
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def terminate(self):
        """SIGTERM: the graceful path, for the final clean shutdown."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return self.proc.returncode


# ----------------------------------------------------------------------
# Durable-state inspection (duplicate detection)
# ----------------------------------------------------------------------

def journal_stats(state_dir):
    """Scan every migration journal; a journal committed twice is a
    duplicated placement swap — the bug this bench exists to catch."""
    journals = commits = duplicates = torn = 0
    for path in sorted(glob.glob(
            os.path.join(state_dir, "*", "migration-*.jsonl"))):
        journals += 1
        seen = 0
        with open(path) as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    torn += 1  # SIGKILL mid-append: tolerated, not a dup
                    continue
                if record.get("kind") == "commit":
                    seen += 1
        commits += seen
        duplicates += max(0, seen - 1)
    return {"journals": journals, "commits": commits,
            "duplicates": duplicates, "torn_lines": torn}


def durable_artifacts(state_dir):
    return {
        "wal_files": len(glob.glob(
            os.path.join(state_dir, "*", "wal.jsonl"))),
        "snapshots": len(glob.glob(
            os.path.join(state_dir, "*", "snapshot-*.json"))),
        "journals": len(glob.glob(
            os.path.join(state_dir, "*", "migration-*.jsonl"))),
    }


# ----------------------------------------------------------------------
# Client phases
# ----------------------------------------------------------------------

def _tid(index):
    return "t%04d" % index


async def _create_all(port, tenants):
    clients = [ServeClient("127.0.0.1", port) for _ in range(tenants)]
    try:
        await asyncio.gather(*(
            clients[i].create_tenant(
                {"tenant_id": _tid(i), "problem": PROBLEM,
                 "controller": CONTROLLER},
                idempotency_key="create-%s" % _tid(i),
                retry_statuses=(429, 503),
            ) for i in range(tenants)
        ))
    finally:
        for client in clients:
            await client.close()


async def _feed_all(port, tenants, hot, round_index):
    chunk = drift_chunk(hot, round_index * HORIZON_S)
    clients = [ServeClient("127.0.0.1", port) for _ in range(tenants)]
    try:
        fed = await asyncio.gather(*(
            clients[i].feed(_tid(i), chunk,
                            idempotency_key="feed-%s-r%d"
                                            % (_tid(i), round_index),
                            retry_statuses=(429, 503))
            for i in range(tenants)
        ))
        return sum(1 for _, result in fed if result.get("migrating"))
    finally:
        for client in clients:
            await client.close()


async def _storm_and_kill(server, tenants, kill_after_s):
    """Advise storm with the rug pulled out mid-flight."""
    stop = asyncio.Event()
    completed = [0] * tenants

    async def storm(index):
        client = ServeClient("127.0.0.1", server.port, retries=0)
        try:
            while not stop.is_set():
                try:
                    # A fresh seed per advise keeps each one a solve for
                    # the kill to land in, not a lookup of the last
                    # answer; with restarts=1 it does not change it.
                    await client.advise(_tid(index),
                                        {"seed": completed[index]},
                                        raise_for_status=False)
                    completed[index] += 1
                except Exception:  # noqa: BLE001 — the server just died
                    return
        finally:
            try:
                await client.close()
            except Exception:  # noqa: BLE001
                pass

    tasks = [asyncio.ensure_future(storm(i)) for i in range(tenants)]
    await asyncio.sleep(kill_after_s)
    server.kill()  # SIGKILL while advises are in flight
    stop.set()
    await asyncio.gather(*tasks, return_exceptions=True)
    return sum(completed)


async def _recovery_status(port):
    client = ServeClient("127.0.0.1", port)
    try:
        status = await client.status()
    finally:
        await client.close()
    return status


async def _post_restart_storm(port, tenants, advises):
    """Measured advise latencies against the recovered fleet.

    Closed loop: 429 admission sheds are retried after a pause (the
    advise route is unkeyed, so the client's own status-retry policy
    rightly refuses to resend it — the loop lives here instead).
    """
    clients = [ServeClient("127.0.0.1", port) for _ in range(tenants)]
    latencies = []
    try:
        async def run(index):
            for _ in range(advises):
                while True:
                    started = time.perf_counter()
                    status, answer = await clients[index].advise(
                        _tid(index), raise_for_status=False)
                    if status == 429:
                        await asyncio.sleep(0.05)
                        continue
                    assert status == 200, (status, answer)
                    break
                latencies.append(time.perf_counter() - started)
                assert answer["tenant"] == _tid(index)
                assert "layout" in answer
        await asyncio.gather(*(run(i) for i in range(tenants)))
    finally:
        for client in clients:
            await client.close()
    return latencies


# ----------------------------------------------------------------------
# The bench
# ----------------------------------------------------------------------

def run_bench(state_dir, tenants=50, kills=3, workers=2,
              snapshot_every=8, kill_after_s=1.0, advises=1):
    payload = {
        "benchmark": "serve_recovery",
        "tenants": tenants,
        "kills": kills,
        "workers": workers,
        "snapshot_every": snapshot_every,
        "rounds": [],
    }
    hot_cycle = ("b", "a")
    server = ServerProcess(state_dir, workers=workers,
                           snapshot_every=snapshot_every).start()
    try:
        asyncio.run(_create_all(server.port, tenants))
        for round_index in range(kills):
            hot = hot_cycle[round_index % len(hot_cycle)]
            migrating = asyncio.run(
                _feed_all(server.port, tenants, hot, round_index))
            storm_advises = asyncio.run(
                _storm_and_kill(server, tenants, kill_after_s))
            stats = journal_stats(state_dir)
            server = ServerProcess(
                state_dir, workers=workers,
                snapshot_every=snapshot_every).start()
            status = asyncio.run(_recovery_status(server.port))
            recovery = status["durability"]["recovery"]
            after = journal_stats(state_dir)
            payload["rounds"].append({
                "round": round_index,
                "hot_object": hot,
                "migrating_at_kill": migrating,
                "storm_advises_completed": storm_advises,
                "journals_at_kill": stats,
                "ready_wall_s": round(server.ready_wall_s, 3),
                "recovery": recovery,
                "journals_after_recovery": after,
            })
        latencies = asyncio.run(
            _post_restart_storm(server.port, tenants, advises))
        payload["post_restart"] = {
            "advises_per_tenant": advises,
            "requests": len(latencies),
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 2),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
        }
        payload["artifacts"] = durable_artifacts(state_dir)
        exit_code = server.terminate()
        server = None
        payload["clean_exit"] = exit_code == 0
    finally:
        if server is not None and server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait(timeout=30)
            server.proc.stdout.close()
    rounds = payload["rounds"]
    payload["duplicate_migrations"] = sum(
        r["journals_after_recovery"]["duplicates"] for r in rounds)
    payload["max_recovery_s"] = max(
        r["recovery"]["elapsed_s"] for r in rounds)
    payload["total_resumed_migrations"] = sum(
        r["recovery"]["resumed_migrations"] for r in rounds)
    payload["total_adopted_swaps"] = sum(
        r["recovery"]["adopted_swaps"] for r in rounds)
    return payload


def check_recovery(payload, recovery_bound_s=None):
    """The claims BENCH_serve_recovery.json is committed to prove."""
    tenants = payload["tenants"]
    assert len(payload["rounds"]) == payload["kills"], payload
    for entry in payload["rounds"]:
        recovery = entry["recovery"]
        # Every kill: 100% of tenants recovered, no tenant-level error.
        assert recovery["recovered_tenants"] == tenants, entry
        assert recovery["errors"] == [], entry
        # Every migration in flight at SIGKILL time was finished by
        # recovery (resumed or, for the commit/WAL gap, adopted) — the
        # fleet never loses an accepted placement decision.
        finished = (recovery["resumed_migrations"]
                    + recovery["adopted_swaps"])
        assert finished >= entry["migrating_at_kill"], entry
        if recovery_bound_s is not None:
            assert recovery["elapsed_s"] <= recovery_bound_s, entry
    # The headline invariant: no journal ever commits twice.
    assert payload["duplicate_migrations"] == 0, payload
    # The recovered fleet answers advises for every tenant.
    post = payload["post_restart"]
    assert post["requests"] == tenants * post["advises_per_tenant"], \
        payload
    assert post["p99_ms"] > 0, payload
    assert payload["clean_exit"], payload


def _report(payload, directory):
    rounds = payload["rounds"]
    rows = [
        ["tenants x kill cycles", "%d x %d" % (payload["tenants"],
                                               payload["kills"])],
        ["tenants recovered (every cycle)", "%s" % " / ".join(
            str(r["recovery"]["recovered_tenants"]) for r in rounds)],
        ["migrations resumed after SIGKILL",
         "%d" % payload["total_resumed_migrations"]],
        ["committed swaps adopted (commit/WAL gap)",
         "%d" % payload["total_adopted_swaps"]],
        ["duplicate migration commits",
         "%d" % payload["duplicate_migrations"]],
        ["max recovery time (s)", "%.3f" % payload["max_recovery_s"]],
        ["post-restart advise p50 / p99 (ms)", "%.1f / %.1f" % (
            payload["post_restart"]["p50_ms"],
            payload["post_restart"]["p99_ms"])],
        ["durable artifacts (wal/snap/journal)", "%d / %d / %d" % (
            payload["artifacts"]["wal_files"],
            payload["artifacts"]["snapshots"],
            payload["artifacts"]["journals"])],
        ["clean final shutdown", "%s" % payload["clean_exit"]],
    ]
    report("serve_recovery", format_table(
        ["Metric", "Value"], rows,
        title="Kill-the-service drill: %d tenants, %d SIGKILLs"
              % (payload["tenants"], payload["kills"]),
    ), directory=directory)


def test_serve_recovery_bench_smoke(tmp_path, monkeypatch):
    """CI smoke: a small fleet through two kill cycles, through ``main``
    with a bare ``--out`` name and the default temporary state dir."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main([
        "--tenants", "4", "--kills", "2", "--workers", "2",
        "--kill-after", "0.5", "--recovery-bound", "30",
        "--out", "BENCH_serve_recovery.json",
    ]) == 0
    payload = json.loads(
        (tmp_path / "BENCH_serve_recovery.json").read_text())
    assert payload["benchmark"] == "serve_recovery"
    assert payload["duplicate_migrations"] == 0
    assert (tmp_path / "serve_recovery.txt").is_file()
    assert not list(tmp_path.glob("serve-recovery-*"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=50,
                        help="fleet size (default 50)")
    parser.add_argument("--kills", type=int, default=3,
                        help="SIGKILL cycles (default 3)")
    parser.add_argument("--workers", type=int, default=2,
                        help="solver threads per incarnation (default 2)")
    parser.add_argument("--snapshot-every", type=int, default=8,
                        help="snapshot cadence in chunks (default 8)")
    parser.add_argument("--kill-after", type=float, default=1.0,
                        metavar="SECONDS",
                        help="storm duration before SIGKILL (default 1)")
    parser.add_argument("--advises", type=int, default=1,
                        help="post-restart advises per tenant (default 1)")
    parser.add_argument("--recovery-bound", type=float, default=None,
                        metavar="SECONDS",
                        help="fail if any recovery exceeds this")
    parser.add_argument("--state-dir", default=None,
                        help="state directory, kept after the run "
                             "(default: a temporary one, removed)")
    parser.add_argument(
        "--out",
        default=os.path.join(RESULTS_DIR, "BENCH_serve_recovery.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    # Absolute: the server processes run from the repository root.
    with (contextlib.nullcontext(os.path.abspath(args.state_dir))
          if args.state_dir is not None
          else tempfile.TemporaryDirectory(prefix="serve-recovery-")) \
            as state_dir:
        payload = run_bench(
            state_dir, tenants=args.tenants, kills=args.kills,
            workers=args.workers, snapshot_every=args.snapshot_every,
            kill_after_s=args.kill_after, advises=args.advises,
        )
    check_recovery(payload, recovery_bound_s=args.recovery_bound)
    _report(payload, os.path.dirname(os.path.abspath(args.out)))
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print("wrote %s (%d tenants x %d kills: 100%% recovered, "
          "%d resumed + %d adopted, %d duplicates, max recovery %.3fs, "
          "post-restart p99 %.1fms)"
          % (args.out, payload["tenants"], payload["kills"],
             payload["total_resumed_migrations"],
             payload["total_adopted_swaps"],
             payload["duplicate_migrations"], payload["max_recovery_s"],
             payload["post_restart"]["p99_ms"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
