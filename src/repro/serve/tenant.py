"""Per-tenant serving state: controller, clock, and migration pacing.

Each tenant the service hosts is one layout problem plus one
:class:`ServedController` — the ordinary online controller
(monitor → drift detect → warm re-solve → migrate) with two served
twists:

* re-solves run on the **shared solver pool** through the fair
  scheduler instead of in-process, via the ``solve_fn`` hook, so one
  tenant's drift storm cannot monopolize the service's CPU;
* accepted migrations are **journaled at accept time** and paced by the
  tenant's own trace clock.  A served migration is in flight from the
  moment the decision lands until enough trace time has passed to pay
  the copy bill; a drain (SIGTERM) that lands mid-flight leaves an
  uncommitted journal on disk that startup recovery on the same state
  dir finishes via the controller's
  :meth:`~repro.online.controller.OnlineController.resume_migration`.

Tenants advance on *their* time, not wall time: trace chunks carry
simulated timestamps and the control loop (checks, migration pacing)
runs against those, exactly like
:meth:`~repro.online.controller.OnlineController.replay` — but
incrementally, chunk by chunk, holding the clock between HTTP requests.
"""

import os
import shutil
import threading
from bisect import bisect_left
from dataclasses import asdict
from operator import attrgetter

from repro.errors import ReproError
from repro.faults.journal import MigrationJournal
from repro.obs import Instrumentation, MetricsRegistry
from repro.online.controller import ControllerConfig, OnlineController
from repro.serve.pool import rebuild_solve_result
from repro.serve.scheduler import TenantGoneError
from repro.storage.request import CompletionRecord
from repro.workload.spec import ObjectWorkload
from repro.workload.trace_io import _FIELDS, check_times

#: Trace-chunk record fields a client may omit, with their defaults
#: (``submit_time`` defaults to ``finish_time``).
_RECORD_DEFAULTS = {
    "target": "",
    "stream_id": 0,
    "kind": "read",
    "lba": 0,
    "size": 8192,
    "service_time": 0.0,
}

#: ``(field, default)`` in record order.
_FIELD_DEFAULTS = tuple((field, _RECORD_DEFAULTS.get(field))
                        for field in _FIELDS)

_SUBMIT, _FINISH = _FIELDS.index("submit_time"), _FIELDS.index("finish_time")


def records_from_payload(entries):
    """Parse a ``feed_trace_chunk`` body into completion records.

    Each entry needs ``obj`` and ``finish_time``; everything else in
    the archived-trace schema (:data:`repro.workload.trace_io._FIELDS`)
    is optional with sensible defaults, so a thin client can stream just
    ``{"obj": ..., "finish_time": ..., "kind": ..., "size": ...}``.
    Both times must be finite numbers.
    """
    records = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ReproError(
                "trace chunk record %d is not an object" % position
            )
        if "obj" not in entry or "finish_time" not in entry:
            raise ReproError(
                "trace chunk record %d needs 'obj' and 'finish_time'"
                % position
            )
        values = [entry.get(field, default)
                  for field, default in _FIELD_DEFAULTS]
        if values[_SUBMIT] is None:
            values[_SUBMIT] = values[_FINISH]
        check_times(values[_FINISH], values[_SUBMIT],
                    "trace chunk record %d", position)
        values[_FINISH] = float(values[_FINISH])
        values[_SUBMIT] = float(values[_SUBMIT])
        records.append(CompletionRecord._make(values))
    return records


class ServedController(OnlineController):
    """An online controller whose solves and migrations are served.

    Args:
        solve_fn: Blocking callable ``(problem, initial_matrix) ->
            resolve_job dict`` that routes the warm re-solve through
            the service's fair-scheduled pool.  ``None`` falls back to
            the in-process solve (tests, standalone use).
        Everything else goes to
            :class:`~repro.online.controller.OnlineController`.

    Served migration semantics (``ctx is None`` always): an accepted
    plan immediately writes a chunk journal under
    ``config.journal_dir``, the controller marks itself migrating, and
    :meth:`pump_migration` — called by the tenant's feed loop as its
    trace clock advances — records copied chunks proportionally to
    elapsed trace time, committing and installing the layout when the
    estimated migration time has fully passed.
    """

    def __init__(self, *args, solve_fn=None, **kwargs):
        self._solve_fn = solve_fn
        #: Trace seconds the in-flight migration's copy takes.
        self._copy_s = 0.0
        #: Called with the journal basename right after a migration's
        #: placement swap installs — the tenant's WAL hook.  The swap's
        #: own durable effect (the journal commit record) always
        #: precedes this call; that ordering is the recovery contract.
        self.on_swap = None
        super().__init__(*args, **kwargs)

    # -- solver routing -------------------------------------------------

    def _run_solve(self, problem):
        if self._solve_fn is None:
            return super()._run_solve(problem)
        initial = [[float(f) for f in row] for row in self.layout.matrix]
        out = self._solve_fn(problem, initial)
        return rebuild_solve_result(problem, out), out.get("rung", "")

    # -- journaled, trace-paced migration -------------------------------

    def _begin_migration(self, pending, plan, now, cost_s):
        if pending.journal is not None:
            # A predecessor's journal (resume): the base class installs
            # the layout at once, and finishing the journal records the
            # tail chunks as copied and commits, so recovery is
            # idempotent.
            super()._begin_migration(pending, plan, now, cost_s)
            self._finish_journal(pending.journal)
            return
        if self.config.journal_dir is None or plan.total_bytes == 0:
            super()._begin_migration(pending, plan, now, cost_s)
            return
        # Journal at accept: the plan is durable before any trace time
        # is spent "copying", so a drain or crash between accept and
        # completion leaves a resumable journal, never a lost decision.
        pending.journal = self._new_journal(plan, pending)
        self._copy_s = max(0.0, float(now + cost_s)
                           - float(pending.accepted_at))
        self._pending = pending
        self.migrating = True
        self.log.emit(pending.accepted_at, "migration-journaled",
                      journal=os.path.basename(pending.journal.path),
                      plan_bytes=int(plan.total_bytes),
                      cost_s=round(self._copy_s, 4))

    def pump_migration(self, now):
        """Advance the in-flight migration to trace time ``now``.

        Chunks are recorded in the journal proportionally to elapsed
        trace time over the estimated copy duration; once the estimate
        has fully elapsed the layout is installed and the journal
        committed.  Returns True when a migration completed.
        """
        pending = self._pending
        if pending is None:
            return False
        journal = pending.journal
        if self._copy_s <= 0:
            fraction = 1.0
        else:
            fraction = ((float(now) - float(pending.accepted_at))
                        / self._copy_s)
        if fraction < 1.0:
            for index in range(int(max(0.0, fraction)
                                   * journal.total_chunks)):
                journal.record_chunk(index)
            return False
        self._pending = None
        self.migrating = False
        self._install(pending, now, bytes_moved=journal.plan.total_bytes,
                      elapsed_s=self._copy_s, virtual=True)
        self._finish_journal(journal)
        return True

    def _finish_journal(self, journal):
        """Record every remaining chunk, commit, close, and WAL the
        swap."""
        for index in journal.remaining():
            journal.record_chunk(index)
        journal.record_commit()
        journal.close()
        if self.on_swap is not None:
            self.on_swap(os.path.basename(journal.path))

    def suspend_migration(self):
        """Drain: flush and close the in-flight journal, uncommitted.

        The chunks recorded so far stay durable; startup recovery on
        the same state dir resumes the journal and finishes the rest.
        """
        if self._pending is None:
            return None
        journal = self._pending.journal
        journal.close()
        return journal.path

    def adopt_committed_swap(self, journal_path, now=0.0):
        """Apply a committed journal's layout without re-copying.

        Recovery calls this for a journal whose commit record landed but
        whose ``swap`` line never reached the WAL (the crash hit the gap
        between the two).  The copy already happened; only the in-memory
        placement and drift baseline need to catch up to it.
        """
        journal = MigrationJournal.load(journal_path)
        if not journal.meta.get("layout"):
            return journal
        pending = self._pending_from_journal(journal, now)
        now = max(float(now), pending.accepted_at)
        self.layout = pending.layout
        self.solved_workloads = pending.fitted
        self.detector.rebase(pending.fitted, pending.predicted_util, now)
        self.log.emit(now, "adopt-swap",
                      journal=os.path.basename(str(journal_path)))
        return journal


class Tenant:
    """One hosted tenant: problem, controller, clock, and accounting.

    Args:
        tenant_id: The tenant's name (also its metrics label).
        problem: The tenant's create-time
            :class:`~repro.core.problem.LayoutProblem`.
        initial_layout: Layout currently in effect for the tenant.
        config: The tenant's :class:`ControllerConfig` (its
            ``journal_dir`` should point at the tenant's state dir).
        weight: Fair-share weight in the solver scheduler.
        solve_fn: Passed to :class:`ServedController`.

    Feeds are serialized by a lock: trace chunks for one tenant are
    applied strictly one at a time even when the client pipelines
    requests.  Advise runs on the event loop and never takes it.
    """

    def __init__(self, tenant_id, problem, initial_layout, config=None,
                 weight=1.0, solve_fn=None, problem_payload=None,
                 controller_overrides=None):
        self.tenant_id = str(tenant_id)
        self.problem = problem
        #: Raw create-time payloads, kept verbatim for the WAL create
        #: record and for snapshots — recovery reparses them through the
        #: same ``load_problem`` / ``ControllerConfig`` path as create.
        self.problem_payload = problem_payload
        self.controller_overrides = dict(controller_overrides or {})
        self.weight = float(weight)
        #: Metrics only: ``/metrics`` exports them, and no reader
        #: exists for controller spans, which would pile up for the
        #: tenant's whole life.
        self.obs = Instrumentation(metrics=MetricsRegistry())
        self.config = config or ControllerConfig()
        sizes = {name: int(size) for name, size in
                 zip(problem.object_names, problem.sizes)}
        self.controller = ServedController(
            targets=problem.targets,
            object_sizes=sizes,
            initial_layout=initial_layout,
            solved_workloads=problem.workloads,
            stripe_size=problem.stripe_size,
            config=self.config,
            obs=self.obs,
            solve_fn=solve_fn,
        )
        self.lock = threading.Lock()
        self._next_check = None
        self.records_fed = 0
        self.chunks_fed = 0
        self.advises = 0
        #: The last complete advise answer and the state it answers,
        #: ``(baseline, targets, options_key, answer)``; see
        #: :meth:`~repro.serve.service.AdvisorService.advise`.
        self.advise_memo = None
        self.last_time = None
        self.deleted = False
        #: Durability (attached by the service when a state_dir is set).
        self.wal = None
        self.wal_skipped = 0
        self.snapshot_every = 0
        self._snapshot_fn = None
        self._swapped_journals = []
        #: The request trace of the feed currently holding the lock;
        #: the service's ``solve_fn`` reads it so a re-solve triggered
        #: by this chunk joins the same distributed trace.
        self.active_rtrace = None

    # ------------------------------------------------------------------

    def feed(self, records, rtrace=None):
        """Apply one trace chunk: observe records, run due checks, pace
        any in-flight migration.  Blocking; call from a worker thread.

        Mirrors :meth:`OnlineController.replay`, but incrementally —
        the check clock persists between chunks, so a trace streamed in
        many small chunks makes the same decisions as one replayed in a
        single call.
        """
        with self.lock:
            span = (rtrace.start("tenant.feed", tenant=self.tenant_id,
                                 records=len(records))
                    if rtrace is not None else None)
            self.active_rtrace = rtrace
            try:
                if self.deleted:
                    raise TenantGoneError("tenant %r was deleted"
                                          % self.tenant_id)
                records = sorted(records, key=attrgetter("finish_time"))
                controller = self.controller
                if records:
                    finish = [record.finish_time for record in records]
                    if self.last_time is not None \
                            and finish[0] < self.last_time:
                        raise ReproError(
                            "trace chunk goes back in time (%.3f < %.3f)"
                            % (finish[0], self.last_time)
                        )
                    interval = self.config.check_interval_s
                    if self._next_check is None:
                        self._next_check = finish[0] + interval
                    start = 0
                    while True:
                        # The records before the next check go in as one
                        # batch; the record at the check is observed
                        # after the migration is pumped and the check
                        # runs, as it was one record at a time.
                        end = bisect_left(finish, self._next_check, start)
                        controller.monitor.observe_many(records[start:end])
                        if end == len(records):
                            break
                        while finish[end] >= self._next_check:
                            controller.pump_migration(self._next_check)
                            controller.check(self._next_check)
                            self._next_check += interval
                        start = end
                    controller.pump_migration(finish[-1])
                    self.last_time = finish[-1]
                    self.records_fed += len(records)
                    self.chunks_fed += 1
                    if self.wal is not None:
                        # The chunk's side effects (clock, counters, any
                        # swap pumped above — whose own record already
                        # landed via on_swap) become durable before the
                        # client sees the response.
                        self.wal.append(
                            "feed", clock_s=self.last_time,
                            next_check=self._next_check,
                            records_fed=self.records_fed,
                            chunks_fed=self.chunks_fed,
                            resolves=controller.resolves,
                        )
                        if (self._snapshot_fn is not None
                                and self.snapshot_every > 0
                                and self.chunks_fed % self.snapshot_every
                                == 0):
                            self._snapshot_fn(self)
                return self.status()
            finally:
                self.active_rtrace = None
                if span is not None:
                    rtrace.finish(span,
                                  resolves=self.controller.resolves)

    def status(self):
        """JSON-safe snapshot of the tenant's serving state."""
        controller = self.controller
        return {
            "tenant": self.tenant_id,
            "weight": self.weight,
            "advises": self.advises,
            "chunks_fed": self.chunks_fed,
            "records_fed": self.records_fed,
            "clock_s": self.last_time,
            "resolves": controller.resolves,
            "migrating": controller.migrating,
            "events": len(controller.log),
            "layout": {name: [round(float(f), 6) for f in row]
                       for name, row in
                       controller.layout.fractions_by_name().items()},
        }

    def suspend(self):
        """Drain hook: leave any in-flight migration journaled on disk."""
        with self.lock:
            return self.controller.suspend_migration()

    def retire(self):
        """Delete hook: end the tenant's durable life.

        Runs under the lock, so no feed or snapshot of this tenant
        writes afterwards: any in-flight journal is closed, the WAL
        gets its ``delete`` record, and once that is durable the
        tenant's state directory is removed.  Startup recovery removes
        a directory whose WAL ends in ``delete``, should a crash land
        between the two.
        """
        with self.lock:
            self.deleted = True
            self.controller.suspend_migration()
            wal, self.wal = self.wal, None
            if wal is not None:
                wal.append("delete", tenant_id=self.tenant_id)
                wal.close()
                shutil.rmtree(wal.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def attach_wal(self, wal, snapshot_every=0, snapshot_fn=None):
        """Wire a :class:`~repro.serve.durability.TenantWAL` in.

        ``snapshot_fn`` (called with this tenant every ``snapshot_every``
        chunks, on the feed thread under the tenant lock) is the
        service's compacting-snapshot hook — the service owns it because
        a snapshot also folds in SLO state and the idempotency cache.
        """
        self.wal = wal
        self.snapshot_every = int(snapshot_every)
        self._snapshot_fn = snapshot_fn
        self.controller.on_swap = self.record_swap
        return self

    def record_swap(self, journal_name):
        """WAL a completed placement swap (idempotent per journal)."""
        if journal_name in self._swapped_journals:
            return
        self._swapped_journals.append(journal_name)
        if self.wal is not None:
            controller = self.controller
            self.wal.append(
                "swap", journal=journal_name,
                journal_seq=controller._journal_seq,
                resolves=controller.resolves,
                layout={name: [float(f) for f in row] for name, row in
                        controller.layout.fractions_by_name().items()},
                solved=[asdict(w) for w in controller.solved_workloads],
            )

    def persist_state(self):
        """The snapshot core: everything the tenant itself can vouch
        for (the service adds SLO state, idempotency, and ``wal_seq``).

        Call under the tenant lock (or before the tenant serves
        traffic) — snapshots taken mid-feed would tear the clock.
        """
        controller = self.controller
        return {
            "tenant_id": self.tenant_id,
            "problem": self.problem_payload,
            "controller": self.controller_overrides,
            "weight": self.weight,
            "layout": {name: [float(f) for f in row] for name, row in
                       controller.layout.fractions_by_name().items()},
            "clock_s": self.last_time,
            "next_check": self._next_check,
            "records_fed": self.records_fed,
            "chunks_fed": self.chunks_fed,
            "advises": self.advises,
            "resolves": controller.resolves,
            "monitor": controller.monitor.to_state(),
            "solved": [asdict(w) for w in controller.solved_workloads],
            "journal_seq": controller._journal_seq,
            "swapped_journals": list(self._swapped_journals),
            "snapshot_skipped": self.wal_skipped,
        }

    def restore(self, state):
        """Load a replayed state dict (see
        :func:`~repro.serve.durability.load_tenant_state`) into this
        freshly-constructed tenant; call before it serves traffic."""
        controller = self.controller
        self.last_time = state.get("clock_s")
        self._next_check = state.get("next_check")
        self.records_fed = int(state.get("records_fed") or 0)
        self.chunks_fed = int(state.get("chunks_fed") or 0)
        self.advises = int(state.get("advises") or 0)
        controller.resolves = int(state.get("resolves") or 0)
        controller.monitor.restore_state(state.get("monitor"))
        solved = state.get("solved")
        if solved:
            controller.solved_workloads = [
                ObjectWorkload(**spec) for spec in solved
            ]
        now = self.last_time if self.last_time is not None else 0.0
        solved_util = controller._predicted_util(
            controller.solved_workloads, controller.layout
        )
        controller.detector.rebase(controller.solved_workloads,
                                   solved_util, now)
        controller._journal_seq = int(state.get("journal_seq") or 0)
        self._swapped_journals = list(state.get("swapped_journals") or [])
        self.wal_skipped = int(state.get("wal_skipped") or 0)
        controller.log.emit(now, "recovered",
                            chunks_fed=self.chunks_fed,
                            records_fed=self.records_fed,
                            resolves=controller.resolves)
        return self
