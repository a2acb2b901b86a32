"""The multi-tenant advisor service: admission, tenants, drain.

:class:`AdvisorService` is the serving layer's hub.  It owns the shared
:class:`~repro.serve.pool.SolverPool`, the
:class:`~repro.serve.scheduler.FairScheduler` in front of it, the
tenant table, and the service-level metrics registry; the HTTP front
end (:mod:`repro.serve.http`) is a thin translation onto the async
methods here, so tests can drive the service directly and the protocol
layer stays trivial.

Tenant lifecycle:

* ``create_tenant`` parses the problem JSON (the
  :mod:`repro.problem_io` format ``repro advise`` reads) — or compiles
  a named library scenario (``{"scenario": "oltp-steady"}``) into that
  format — registers the tenant with the fair scheduler, and either
  adopts an explicitly supplied layout or runs the initial
  advise through the shared pool (admission applies — creating hundreds
  of tenants at once is exactly the overload the bounded queue is for).
  A create starts a new life: journals an earlier tenant of the same
  id left in its state dir are removed, never resumed.
* ``feed_trace_chunk`` streams completion records into the tenant's
  server-side control loop on a worker thread (the loop is pure Python
  bookkeeping; re-solves it decides on go back through the shared pool
  as pre-admitted jobs).
* ``delete_tenant`` drops the tenant, fails its queued jobs and
  removes its state directory; anything already executing on the pool
  finishes and is discarded — one tenant's removal never poisons the
  shared executor.

Drain (SIGTERM): new external work is refused with 503, in-flight
feeds and advises run to completion, in-flight *migrations* are left
as uncommitted journals on disk (startup recovery on the same state
dir finishes them), and only then do the scheduler and pool shut down.
"""

import asyncio
import contextlib
import copy
import dataclasses
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor

from repro import jsonl
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.obs.export import prometheus_text_multi
from repro.obs.slo import SloEngine, SloObjective
from repro.online.controller import ControllerConfig
from repro.problem_io import load_problem
from repro.serve.durability import TenantWAL, recover_state_dir, \
    write_snapshot
from repro.serve.pool import DeadlineError, SolverPool, advise_job, \
    resolve_job
from repro.serve.scheduler import (AdmissionError, FairScheduler,
                                   TenantGoneError)
from repro.serve.tenant import Tenant, records_from_payload
from repro.serve.tracing import DEFAULT_RING, AccessLog, RequestTrace, \
    TraceRing

_TENANT_ID = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_JOURNAL = re.compile(r"^migration-(\d+)\.jsonl$")


def _journals(directory):
    """``(seq, basename)`` per migration journal in ``directory``, in
    name order."""
    found = []
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            match = _JOURNAL.match(name)
            if match:
                found.append((int(match.group(1)), name))
    return found

#: ControllerConfig fields a tenant may override at create time.
_TUNABLE = {f.name for f in dataclasses.fields(ControllerConfig)} - {
    "journal_dir",
}


class UnknownTenantError(ReproError):
    """No such tenant (HTTP 404)."""


class UnknownTraceError(ReproError):
    """No such trace in the debug ring (HTTP 404)."""


class ServiceDrainingError(ReproError):
    """The service is draining and takes no new work (HTTP 503)."""


def status_for(error):
    """Map a service-layer exception onto an HTTP status code."""
    if isinstance(error, AdmissionError):
        return 429
    if isinstance(error, (TenantGoneError, UnknownTenantError,
                          UnknownTraceError)):
        return 404
    if isinstance(error, (ServiceDrainingError, DeadlineError)):
        return 503
    if isinstance(error, (ReproError, ValueError, KeyError)):
        return 400
    return 500


def retry_after_for(error):
    """Whole seconds for a ``Retry-After`` header, or None.

    Shed load (admission full, deadline expired, draining) is
    retryable by construction; everything else is not.
    """
    if isinstance(error, (AdmissionError, DeadlineError)):
        return 1
    if isinstance(error, ServiceDrainingError):
        return 5
    return None


@dataclasses.dataclass
class ServeConfig:
    """Serving-layer knobs.

    Attributes:
        host / port: Listen address (port 0 picks a free port).
        workers: Shared solver pool size.
        use_processes: ``False`` runs solver jobs on threads (tests).
        max_pending: Admission bound on queued solver jobs.
        feed_threads: Worker threads applying trace chunks.
        state_dir: Root for per-tenant state (migration journals, the
            write-ahead log, and snapshots); ``None`` disables all
            durability.
        snapshot_every: Take a compacting snapshot of a tenant every
            this many applied trace chunks (0 disables periodic
            snapshots; one is still written at drain and after
            recovery).
        request_timeout_s: Kill a connection whose request does not
            arrive whole within this window once its first byte lands
            (HTTP 408 — slowloris guard).  ``None`` disables it.
        default_deadline_s: Deadline stamped on advise/create solver
            work when the request carries no ``X-Deadline-Ms`` header;
            ``None`` means no deadline unless the client asks.
        trace_ring: How many finished request traces the
            ``/debug/traces`` ring retains.
        access_log: Path for the JSONL access log (one line per
            request: trace_id, tenant, status, queue_wait_s, solve_s,
            rung); ``None`` disables it.
        slo: Default per-tenant SLO objective overrides
            (``{"p50_s", "p99_s", "slo_target", "window"}``); tenants
            may override at create time via their payload's ``slo``.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    use_processes: bool = True
    max_pending: int = 64
    feed_threads: int = 4
    state_dir: str = None
    snapshot_every: int = 16
    request_timeout_s: float = 30.0
    default_deadline_s: float = None
    trace_ring: int = DEFAULT_RING
    access_log: str = None
    slo: dict = None


class AdvisorService:
    """Hosts many tenant advisors on one solver pool."""

    def __init__(self, config=None):
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self.tenants = {}
        self.draining = False
        self.started_s = time.time()
        self.pool = SolverPool(workers=self.config.workers,
                               use_processes=self.config.use_processes)
        self.scheduler = FairScheduler(self.pool,
                                       max_pending=self.config.max_pending,
                                       metrics=self.metrics)
        self._feeds = ThreadPoolExecutor(
            max_workers=max(1, int(self.config.feed_threads)),
            thread_name_prefix="repro-serve-feed",
        )
        self.slo = SloEngine(SloObjective.from_payload(self.config.slo))
        self.traces = TraceRing(self.config.trace_ring)
        self.access_log = (AccessLog(self.config.access_log)
                           if self.config.access_log else None)
        self._loop = None
        self._seq = 0
        #: Idempotency-Key → {tenant, route, response} replay cache
        #: (WAL-backed; rebuilt by recovery).
        self._idem = {}
        #: Summary of the last startup recovery (None before one ran).
        self.recovery = None

    # ------------------------------------------------------------------
    # Request tracing
    # ------------------------------------------------------------------

    def begin_trace(self, route, tenant=None):
        """The :class:`RequestTrace` of one external request."""
        return RequestTrace(route, tenant=tenant)

    def end_trace(self, rtrace, status=200, error=None):
        """Finalize a request trace: close the root span, publish to
        the debug ring and access log, and feed the root span's
        duration to the SLO engine and, for a served advise, the advise
        latency histogram.  Idempotent — the first close wins, so a
        service method that owns its trace and the HTTP layer can both
        call this safely."""
        if rtrace.closed:
            return
        rtrace.close(status, error=error)
        self.traces.add(rtrace)
        if self.access_log is not None:
            self.access_log.write(rtrace.meta())
        if rtrace.route == "advise" and rtrace.tenant is not None:
            code = rtrace.status
            if code == 200:
                self.metrics.histogram("repro_serve_advise_seconds") \
                    .observe(rtrace.duration_s)
            # Client errors (4xx: unknown tenant, bad options) are not
            # the service failing the tenant's objective; shed load
            # (429) likewise consumes no error budget here — it shows
            # up in the rejected counter instead.
            if code < 400 or code >= 500:
                self.slo.observe(rtrace.tenant, rtrace.duration_s,
                                 error=code >= 500)

    @contextlib.contextmanager
    def _traced(self, rtrace, route, tenant=None):
        """One request's lifecycle around a ``with`` block.

        The HTTP layer passes its ``rtrace`` in and finalizes it itself
        after serializing the response.  Called without one (tests,
        embedded use), the service opens the trace here and finalizes
        it on the way out, with the error's status when the block
        raises.
        """
        if rtrace is not None:
            yield rtrace
            return
        rtrace = self.begin_trace(route, tenant=tenant)
        try:
            yield rtrace
        except BaseException as error:
            self.end_trace(rtrace, status_for(error), error=error)
            raise
        self.end_trace(rtrace)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self.scheduler.start()
        if self.config.state_dir is not None:
            # Recovery is pure bookkeeping (no pool work) but fsyncs
            # fresh snapshots; keep that off the event loop.
            await self._loop.run_in_executor(None, self.recover)
        return self

    async def drain(self):
        """Graceful shutdown: finish committed work, journal the rest.

        Order matters: feeds may block on pool re-solves, so the feed
        executor drains while the scheduler is still dispatching; only
        when both are quiet are in-flight migrations suspended to their
        journals and the pool torn down.
        """
        self.draining = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._feeds.shutdown)
        await self.scheduler.join()
        await self.scheduler.stop()
        for tenant in self.tenants.values():
            if tenant.deleted:
                continue  # its delete is retiring it
            tenant.suspend()
            # A parting snapshot makes the next boot's replay trivial;
            # the suspended journal (if any) stays uncommitted on disk
            # for the successor to resume.
            self._snapshot_tenant(tenant)
            if tenant.wal is not None:
                tenant.wal.close()
        await loop.run_in_executor(None, self.pool.shutdown)
        if self.access_log is not None:
            self.access_log.close()

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def _tenant(self, tenant_id):
        tenant = self.tenants.get(tenant_id)
        if tenant is None or tenant.deleted:
            raise UnknownTenantError("no tenant %r" % tenant_id)
        return tenant

    def _check_open(self):
        if self.draining:
            raise ServiceDrainingError("service is draining; no new work")

    def _controller_config(self, overrides, tenant_id):
        values = {}
        for key, value in (overrides or {}).items():
            if key not in _TUNABLE:
                raise ReproError("unknown controller option %r" % key)
            values[key] = value
        if self.config.state_dir is not None:
            values["journal_dir"] = os.path.join(self.config.state_dir,
                                                 tenant_id)
        return ControllerConfig(**values)

    def _advise_options(self, config, extra=None):
        options = {
            "method": config.solver_method,
            "restarts": config.restarts,
            "regular": config.regular,
            "solve_budget_s": config.solve_budget_s,
        }
        options.update(extra or {})
        return options

    def _solve_fn(self, tenant_id):
        """Blocking bridge from a tenant's feed thread to the pool.

        Re-solves triggered by an admitted trace chunk are pre-admitted:
        the service already accepted the chunk, so shedding its follow-up
        would silently drop a control decision.
        """
        def run(problem, initial_matrix):
            tenant = self._tenant(tenant_id)
            options = self._advise_options(tenant.config,
                                           {"regular": False})
            # The feed thread parked the active request's trace on the
            # tenant (under its lock) before entering the control loop;
            # the re-solve job joins that trace.
            future = asyncio.run_coroutine_threadsafe(
                self.scheduler.submit(tenant_id, resolve_job, problem,
                                      initial_matrix, options,
                                      preadmitted=True,
                                      rtrace=tenant.active_rtrace),
                self._loop,
            )
            return future.result()
        return run

    async def create_tenant(self, payload, rtrace=None, deadline=None,
                            idempotency_key=None):
        """Admit a tenant; returns its id, layout, and resume count.

        Like :meth:`advise`, the service owns the request trace when
        called without ``rtrace`` (see :meth:`_traced`).
        """
        with self._traced(rtrace, "create_tenant") as rtrace:
            response = await self._create_tenant(payload, rtrace,
                                                 deadline,
                                                 idempotency_key)
            response["trace_id"] = rtrace.trace_id
        return response

    async def _create_tenant(self, payload, rtrace, deadline=None,
                             idempotency_key=None):
        self._check_open()
        replayed = self._idempotent_replay(idempotency_key)
        if replayed is not None:
            return replayed
        if not isinstance(payload, dict):
            raise ReproError("create_tenant needs a 'problem' description")
        if "scenario" in payload:
            # A scenario name (or path) stands in for an inline problem:
            # compile the spec and lower its targets/baseline mix into
            # the advise problem schema.
            if "problem" in payload:
                raise ReproError("create_tenant takes 'problem' or "
                                 "'scenario', not both")
            from repro.scenarios import compile_scenario, load_scenario

            compiled = compile_scenario(
                load_scenario(str(payload["scenario"])),
                seed=payload.get("scenario_seed"),
            )
            payload = dict(payload)
            payload["problem"] = compiled.problem_payload()
        if "problem" not in payload:
            raise ReproError("create_tenant needs a 'problem' description")
        tenant_id = payload.get("tenant_id")
        if tenant_id is None:
            self._seq += 1
            tenant_id = "tenant-%04d" % self._seq
        tenant_id = str(tenant_id)
        if not _TENANT_ID.match(tenant_id):
            raise ReproError("invalid tenant id %r" % tenant_id)
        if tenant_id in self.tenants:
            raise ReproError("tenant %r already exists" % tenant_id)

        problem = load_problem(payload["problem"])
        config = self._controller_config(payload.get("controller"),
                                         tenant_id)
        objective = SloObjective.from_payload(
            payload.get("slo"), default=self.slo.default_objective
        )
        weight = float(payload.get("weight", 1.0))
        rtrace.tenant = tenant_id
        rtrace.root.set_tag("tenant", tenant_id)
        self.scheduler.register(tenant_id, weight=weight)
        try:
            if "layout" in payload:
                layout = self._explicit_layout(problem, payload["layout"])
            else:
                out = await self.scheduler.submit(
                    tenant_id, advise_job, problem,
                    self._advise_options(config), rtrace=rtrace,
                    deadline=deadline,
                )
                layout = self._explicit_layout(problem,
                                               out["payload"]["layout"])
        except BaseException:
            self.scheduler.forget(tenant_id)
            raise

        tenant = Tenant(tenant_id, problem, layout, config=config,
                        weight=weight, solve_fn=self._solve_fn(tenant_id),
                        problem_payload=payload["problem"],
                        controller_overrides=payload.get("controller"))
        self._attach_wal(tenant, objective)
        self.tenants[tenant_id] = tenant
        self.slo.register(tenant_id, objective)
        self.metrics.counter("repro_serve_tenants_created_total").inc()
        self.metrics.gauge("repro_serve_tenants").set(len(self.tenants))
        response = {
            "tenant": tenant_id,
            "layout": tenant.controller.layout.fractions_by_name(),
            "slo": objective.to_dict(),
        }
        self._record_idempotency(idempotency_key, tenant_id,
                                 "create_tenant", response)
        return response

    @staticmethod
    def _explicit_layout(problem, fractions):
        import numpy as np

        missing = [name for name in problem.object_names
                   if name not in fractions]
        if missing:
            raise ReproError("layout misses objects: %s"
                             % ", ".join(missing))
        matrix = np.asarray(
            [fractions[name] for name in problem.object_names], dtype=float
        )
        return problem.make_layout(matrix)

    # ------------------------------------------------------------------
    # Durability: WAL, snapshots, recovery
    # ------------------------------------------------------------------

    def _attach_wal(self, tenant, objective):
        """Open the tenant's WAL and make its creation durable.

        A create starts a new life: migration journals an earlier
        tenant of this id left behind are removed (durably) before the
        ``create`` record lands, so neither this tenant nor a later
        recovery of it resumes or adopts the deleted tenant's moves.
        """
        if self.config.state_dir is None:
            return None
        directory = os.path.join(self.config.state_dir, tenant.tenant_id)
        stale = [name for _, name in _journals(directory)]
        for name in stale:
            os.remove(os.path.join(directory, name))
        if stale:
            jsonl.fsync_dir(directory)
        wal = TenantWAL.resume(directory)
        tenant.attach_wal(wal, snapshot_every=self.config.snapshot_every,
                          snapshot_fn=self._snapshot_tenant)
        wal.append(
            "create", tenant_id=tenant.tenant_id,
            problem=tenant.problem_payload,
            controller=tenant.controller_overrides,
            weight=tenant.weight, slo=objective.to_dict(),
            layout={name: [float(f) for f in row] for name, row in
                    tenant.controller.layout.fractions_by_name().items()},
            journal_seq=tenant.controller._journal_seq,
        )
        return wal

    def _snapshot_tenant(self, tenant):
        """Write one compacting snapshot and truncate the tenant's WAL.

        Runs on whichever thread triggered it (the feed thread for
        periodic snapshots, the recovery thread at boot, the event loop
        at drain) — the write is atomic and the WAL seq counter is the
        coordination point, so no extra locking is needed beyond the
        callers' existing serialization.
        """
        wal = tenant.wal
        if wal is None:
            return None
        tenant_id = tenant.tenant_id
        state = tenant.persist_state()
        objective = self.slo.objective_for(tenant_id)
        if objective is not None:
            state["slo"] = objective.to_dict()
        state["slo_state"] = self.slo.persist_state(tenant_id)
        state["idempotency"] = {
            key: {"route": entry.get("route"),
                  "response": entry.get("response")}
            for key, entry in list(self._idem.items())
            if entry.get("tenant") == tenant_id
            and entry.get("route") != "delete_tenant"
        }
        state["wal_seq"] = wal.seq
        path = write_snapshot(wal.directory, state)
        wal.compact(wal.seq)
        self.metrics.counter("repro_serve_snapshots_total").inc()
        return path

    def recover(self):
        """Rebuild every tenant from ``state_dir`` (called at startup).

        Replays snapshot + WAL per tenant, reconciles migration
        journals (committed-but-unswapped journals are adopted without
        re-copying; uncommitted ones are resumed exactly once), restores
        SLO high-water marks and the idempotency cache, then writes a
        fresh snapshot so the *next* recovery starts from here.  One
        corrupt tenant is reported and skipped, never fatal.
        """
        started = time.perf_counter()
        states, errors = recover_state_dir(self.config.state_dir)
        errors = [(directory, error) for directory, error in errors]
        recovered = resumed = adopted = 0
        skipped_lines = 0
        for state in states:
            try:
                tenant_resumed, tenant_adopted = \
                    self._recover_tenant(state)
            except Exception as error:  # noqa: BLE001 — isolated
                errors.append((str(state.get("tenant_id")), error))
                continue
            recovered += 1
            resumed += tenant_resumed
            adopted += tenant_adopted
            skipped_lines += int(state.get("wal_skipped") or 0)
        elapsed = time.perf_counter() - started
        self.recovery = {
            "recovered_tenants": recovered,
            "resumed_migrations": resumed,
            "adopted_swaps": adopted,
            "wal_skipped_lines": skipped_lines,
            "errors": [[str(where), "%s" % error]
                       for where, error in errors],
            "elapsed_s": round(elapsed, 6),
        }
        self.metrics.gauge("repro_recovery_tenants").set(recovered)
        self.metrics.gauge("repro_recovery_seconds").set(elapsed)
        self.metrics.gauge("repro_recovery_resumed_migrations").set(
            resumed)
        self.metrics.gauge("repro_recovery_adopted_swaps").set(adopted)
        self.metrics.gauge("repro_recovery_wal_skipped_lines").set(
            skipped_lines)
        self.metrics.gauge("repro_recovery_errors").set(len(errors))
        return self.recovery

    def _recover_tenant(self, state):
        """One tenant's state dict → a live, registered tenant."""
        tenant_id = state["tenant_id"]
        problem = load_problem(state["problem"])
        config = self._controller_config(state.get("controller"),
                                         tenant_id)
        layout = self._explicit_layout(problem, state["layout"])
        weight = float(state.get("weight", 1.0))
        objective = SloObjective.from_payload(
            state.get("slo"), default=self.slo.default_objective
        )
        self.scheduler.register(tenant_id, weight=weight)
        tenant = Tenant(tenant_id, problem, layout, config=config,
                        weight=weight, solve_fn=self._solve_fn(tenant_id),
                        problem_payload=state["problem"],
                        controller_overrides=state.get("controller"))
        tenant.restore(state)
        wal = TenantWAL(os.path.join(self.config.state_dir, tenant_id),
                        start_seq=state["wal_seq"])
        tenant.attach_wal(wal,
                          snapshot_every=self.config.snapshot_every,
                          snapshot_fn=self._snapshot_tenant)
        resumed, adopted = self._reconcile_journals(tenant)
        self.tenants[tenant_id] = tenant
        self.slo.restore(tenant_id, objective, state.get("slo_state"))
        for key, entry in (state.get("idempotency") or {}).items():
            self._idem.setdefault(key, {
                "tenant": tenant_id, "route": entry.get("route"),
                "response": entry.get("response") or {},
            })
        self.metrics.gauge("repro_serve_wal_skipped_lines",
                           tenant=tenant_id).set(tenant.wal_skipped)
        if resumed:
            self.metrics.counter(
                "repro_serve_migrations_resumed_total"
            ).inc(resumed)
        match = re.match(r"^tenant-(\d+)$", tenant_id)
        if match:
            self._seq = max(self._seq, int(match.group(1)))
        self.metrics.gauge("repro_serve_tenants").set(len(self.tenants))
        # Fold everything just replayed into a fresh snapshot: the next
        # crash recovers from *here*, and journal reconciliation (the
        # swapped-journal list above all) is never repeated.
        self._snapshot_tenant(tenant)
        return resumed, adopted

    def _reconcile_journals(self, tenant):
        """Recovery-time journal sweep; returns (resumed, adopted).

        Four cases per journal: no whole record (a crash inside its
        begin write) — the migration never began, so the journal is
        removed (durably); committed and already in the WAL's
        swapped list — nothing to do; committed but never swapped in
        the WAL (crash between journal commit and WAL append) — adopt
        the layout without re-copying and write the missing swap record
        now; uncommitted — resume, which finishes the tail chunks,
        commits, installs, and WALs the swap, exactly once.
        """
        journal_dir = tenant.config.journal_dir
        if journal_dir is None:
            return 0, 0
        from repro.faults.journal import MigrationJournal

        resumed = adopted = 0
        now = tenant.last_time if tenant.last_time is not None else 0.0
        for seq, name in _journals(journal_dir):
            tenant.controller._journal_seq = max(
                tenant.controller._journal_seq, seq
            )
            path = os.path.join(journal_dir, name)
            journal = MigrationJournal.load(path)
            if journal is None:
                os.remove(path)
                jsonl.fsync_dir(journal_dir)
            elif journal.committed:
                if name in tenant._swapped_journals:
                    continue
                tenant.controller.adopt_committed_swap(path, now=now)
                tenant.record_swap(name)
                adopted += 1
            else:
                tenant.controller.resume_migration(path)
                resumed += 1
        return resumed, adopted

    # ------------------------------------------------------------------
    # Idempotency and deadlines
    # ------------------------------------------------------------------

    def _idempotent_replay(self, key):
        """The recorded response for a seen Idempotency-Key, or None."""
        if not key:
            return None
        entry = self._idem.get(key)
        if entry is None:
            return None
        self.metrics.counter("repro_serve_idempotent_replays_total").inc()
        response = dict(entry.get("response") or {})
        response["replayed"] = True
        return response

    def _record_idempotency(self, key, tenant_id, route, response):
        """WAL + cache one keyed mutation's response for replay."""
        if not key:
            return
        safe = {k: v for k, v in response.items() if k != "trace_id"}
        tenant = self.tenants.get(tenant_id)
        # A deleted tenant's WAL belongs to its retire (off the loop).
        if tenant is not None and not tenant.deleted \
                and tenant.wal is not None:
            tenant.wal.append("idem", key=str(key), route=route,
                              response=safe)
        self._idem[str(key)] = {"tenant": tenant_id, "route": route,
                                "response": safe}

    def deadline_from(self, headers=None, deadline_ms=None):
        """Mint an absolute request deadline at admission, or None.

        Precedence: an explicit ``deadline_ms``, then the request's
        ``X-Deadline-Ms`` header, then the service default.
        """
        if deadline_ms is None and headers:
            raw = headers.get("x-deadline-ms")
            if raw is not None:
                try:
                    deadline_ms = float(raw)
                except ValueError:
                    raise ReproError(
                        "X-Deadline-Ms must be a number, got %r" % raw
                    ) from None
        if deadline_ms is not None:
            seconds = float(deadline_ms) / 1000.0
        elif self.config.default_deadline_s is not None:
            seconds = float(self.config.default_deadline_s)
        else:
            return None
        if seconds <= 0:
            raise ReproError("deadline must be positive")
        return time.perf_counter() + seconds

    async def delete_tenant(self, tenant_id, idempotency_key=None):
        replayed = self._idempotent_replay(idempotency_key)
        if replayed is not None:
            return replayed
        tenant = self._tenant(tenant_id)
        tenant.deleted = True
        self.scheduler.forget(tenant_id)
        self.slo.forget(tenant_id)
        # Off the loop: a feed may hold the tenant lock while it waits
        # on this loop for a re-solve (failed just above).  The id stays
        # taken until the state directory is gone, so a create of the
        # same id cannot write into a directory about to be removed.
        await asyncio.get_running_loop().run_in_executor(None,
                                                         tenant.retire)
        del self.tenants[tenant_id]
        self.metrics.gauge("repro_serve_tenants").set(len(self.tenants))
        response = {"tenant": tenant_id, "deleted": True}
        if idempotency_key:
            # In-memory only: the tenant's state directory is gone, so
            # a replay after a *restart* answers 404 instead — an
            # acceptable answer to "delete something gone".
            self._idem[idempotency_key] = {
                "tenant": tenant_id, "route": "delete_tenant",
                "response": dict(response),
            }
        return response

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    async def advise(self, tenant_id, options=None, rtrace=None,
                     deadline=None):
        """Advise the tenant's current state; a repeat is a lookup.

        The answer is the full Figure-4 pipeline on the tenant's targets
        and its drift baseline: the workload its controller last
        installed a layout for, which is the create-time workload until
        the first install.  Each tenant keeps its last complete answer.
        An advise with the same merged options while the baseline
        stands returns a copy of it from the event loop, with no
        admission, queue, pickling or solve; only a miss runs on the
        shared pool.  The request's root span is tagged ``memo=hit`` or
        ``memo=miss``.

        Called without ``rtrace`` (tests, embedded use) the service
        owns the request trace end to end (see :meth:`_traced`).

        ``deadline`` (absolute ``time.perf_counter()`` seconds, as
        minted by :meth:`deadline_from`) sheds a miss's solver job once
        expired and clamps its watchdog budget to whatever remains.
        """
        self._check_open()
        with self._traced(rtrace, "advise", tenant_id) as rtrace:
            tenant = self._tenant(tenant_id)
            merged = self._advise_options(tenant.config, options)
            controller = tenant.controller
            # Read without the tenant lock, which a feed holds while it
            # waits on this loop for its re-solve.  The controller
            # replaces its baseline list at a layout install and never
            # mutates it; the effective targets are its own list unless
            # a fault injector is attached, and then a fresh list per
            # call, which never hits.
            baseline = controller.solved_workloads
            targets = controller._effective_targets()
            options_key = json.dumps(merged, sort_keys=True)
            memo = tenant.advise_memo
            hit = (memo is not None and memo[0] is baseline
                   and memo[1] is targets and memo[2] == options_key)
            outcome = "hit" if hit else "miss"
            self.metrics.counter("repro_serve_advise_memo_total",
                                 outcome=outcome).inc()
            rtrace.root.set_tag("memo", outcome)
            if hit:
                answer = memo[3]
            else:
                admission = rtrace.start("admission.wait")
                problem = controller._problem(baseline)
                rtrace.finish(admission)
                out = await self.scheduler.submit(tenant_id, advise_job,
                                                  problem, merged,
                                                  rtrace=rtrace,
                                                  deadline=deadline)
                answer = {"tenant": tenant_id,
                          "solver_time_s": out["solver_time_s"],
                          **out["payload"]}
                # A watchdog fallback answers this request only.
                if not answer["degraded"]:
                    tenant.advise_memo = (baseline, targets, options_key,
                                          answer)
            response = copy.deepcopy(answer)
            tenant.advises += 1
            response["trace_id"] = rtrace.trace_id
        return response

    async def feed_trace_chunk(self, tenant_id, entries, rtrace=None,
                               idempotency_key=None):
        """Stream completion records into the tenant's control loop.

        With an ``idempotency_key``, a retried chunk (client saw the
        connection die mid-response) replays the recorded response
        instead of advancing the tenant's clock twice.
        """
        self._check_open()
        with self._traced(rtrace, "feed", tenant_id) as rtrace:
            replayed = self._idempotent_replay(idempotency_key)
            if replayed is not None:
                return dict(replayed, trace_id=rtrace.trace_id)
            tenant = self._tenant(tenant_id)
            records = records_from_payload(entries)
            self.metrics.counter("repro_serve_records_total").inc(
                len(records)
            )
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(self._feeds, tenant.feed,
                                                records, rtrace)
            self._record_idempotency(idempotency_key, tenant_id, "feed",
                                     result)
        return dict(result, trace_id=rtrace.trace_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self):
        scheduler = self.scheduler
        return {
            "tenants": len(self.tenants),
            "draining": self.draining,
            "uptime_s": round(time.time() - self.started_s, 3),
            "queue": {
                "pending": scheduler.pending,
                "inflight": scheduler.inflight,
                "completed": scheduler.completed,
                "rejected": scheduler.rejected,
                "deadline_shed": scheduler.deadline_shed,
                "max_pending": scheduler.max_pending,
            },
            "durability": {
                "state_dir": self.config.state_dir,
                "snapshot_every": self.config.snapshot_every,
                "wal_skipped_lines": {
                    tenant_id: tenant.wal_skipped
                    for tenant_id, tenant in sorted(self.tenants.items())
                    if tenant.wal_skipped
                },
                "idempotency_keys": len(self._idem),
                "recovery": self.recovery,
            },
            "pool": {
                "workers": self.pool.max_workers,
                "processes": self.pool.use_processes,
                "generation": self.pool.generation,
            },
            "tracing": {
                "ring": len(self.traces),
                "ring_capacity": self.traces.capacity,
                "access_log": (self.access_log.path
                               if self.access_log is not None else None),
            },
            "slo": self.slo.snapshot_all(),
        }

    def slo_report(self):
        """The ``GET /slo`` payload: every tenant's SLO standing."""
        return {
            "default_objective": self.slo.default_objective.to_dict(),
            "tenants": self.slo.snapshot_all(),
        }

    def debug_traces(self):
        """Summaries of the traces currently held in the debug ring."""
        return {"capacity": self.traces.capacity,
                "traces": [rtrace.meta() for rtrace in self.traces.traces()]}

    def debug_trace(self, trace_id):
        """One stitched request trace, spans and all (HTTP 404 when it
        has aged out of the ring or never existed)."""
        rtrace = self.traces.get(str(trace_id))
        if rtrace is None:
            raise UnknownTraceError(
                "no trace %r in the debug ring (capacity %d)"
                % (trace_id, self.traces.capacity)
            )
        return rtrace.to_payload()

    def tenant_status(self, tenant_id):
        tenant = self._tenant(tenant_id)
        status = tenant.status()
        status["served_solver_s"] = round(
            self.scheduler.served_seconds(tenant_id), 6
        )
        status["jobs_done"] = self.scheduler.jobs_done(tenant_id)
        if tenant.wal is not None:
            status["wal_seq"] = tenant.wal.seq
            status["wal_skipped"] = tenant.wal_skipped
        return status

    def tenant_events(self, tenant_id):
        return {"tenant": tenant_id,
                "events": list(self._tenant(tenant_id).controller.log)}

    def metrics_text(self):
        """The whole service as one Prometheus exposition document:
        the service registry plus every tenant's, labelled."""
        self.slo.export_to(self.metrics)
        sections = [({}, self.metrics)]
        for tenant_id, tenant in sorted(self.tenants.items()):
            sections.append(({"tenant": tenant_id}, tenant.obs.metrics))
        return prometheus_text_multi(sections)

    def fairness_spread(self, keys=None):
        return self.scheduler.fairness_spread(keys)
