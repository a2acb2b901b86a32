"""Throttled execution of a migration plan inside the simulator.

The migration planner (:mod:`repro.core.migration`) says *what* moves;
this module actually moves it, one chunk of
:meth:`~repro.core.migration.MigrationPlan.chunks` at a time.  Every
chunk is a read request at the source target followed by a write
request at the destination target, issued through the normal
submission path so migration traffic queues behind — and delays —
foreground requests.  A bounded in-flight window plus an
optional inter-chunk pace keep the copy throttled, the way a production
rebalancer caps its background bandwidth.

Migration requests carry ``obj=None`` so the workload monitor and trace
analyzer (which skip untagged records) do not mistake rebalancing
traffic for application workload.

Two resilience features ride on the copy loop:

* **crash-safe journaling** — with a
  :class:`~repro.faults.journal.MigrationJournal` attached, every chunk
  is recorded after its destination write lands and chunks the journal
  already holds are skipped, so a migrator rebuilt from the journal
  resumes exactly where the crashed one stopped;
* **restore path** — a chunk whose source target is failed (or whose
  read errors mid-copy) is written anyway: the simulator stands in for
  recovery from redundancy (a RAID rebuild or replica read), which is
  what lets an evacuation drain a target that can no longer be read.
"""

from repro import units
from repro.errors import FaultError, SimulationError
from repro.obs.metrics import NULL_REGISTRY
from repro.storage.request import IORequest
from repro.storage.streams import next_stream_id


class ThrottledMigrator:
    """Executes a :class:`~repro.core.migration.MigrationPlan` as
    background I/O.

    Args:
        ctx: The :class:`~repro.storage.streams.SimContext` of the live
            run; migration requests go to its targets.
        plan: The migration plan to execute.
        chunk: Copy granularity in bytes (default: one LVM stripe).
        window: Maximum chunks in flight at once (the throttle).
        pace_s: Extra think time between one chunk's write completing
            and the next chunk's read being issued, per window slot.
        on_done: Callback invoked with the migrator when the last chunk
            lands.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            completed chunks and copied bytes are counted in
            ``repro_migration_chunks_total`` /
            ``repro_migration_bytes_total``.
        journal: Optional
            :class:`~repro.faults.journal.MigrationJournal`; chunks the
            journal already records are skipped (crash resume) and every
            newly landed chunk is appended to it.  Must describe exactly
            this plan and chunk size.
    """

    def __init__(self, ctx, plan, chunk=units.DEFAULT_STRIPE_SIZE,
                 window=1, pace_s=0.0, on_done=None, metrics=None,
                 journal=None):
        if window < 1:
            raise SimulationError("migration window must be at least 1")
        if chunk < 1:
            raise SimulationError("migration chunk must be positive")
        self.ctx = ctx
        self.plan = plan
        self.chunk = int(chunk)
        self.window = int(window)
        self.pace_s = float(pace_s)
        self.on_done = on_done
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_chunks = metrics.counter("repro_migration_chunks_total")
        self._m_bytes = metrics.counter("repro_migration_bytes_total")
        self.stream_id = next_stream_id()

        target_index = {t.name: j for j, t in enumerate(ctx.targets)}
        # (source index, destination index, bytes)
        self._chunks = [
            (target_index[source], target_index[destination], size)
            for source, destination, size in plan.chunks(self.chunk)
        ]
        self._next = 0
        self._read_cursor = [0] * len(ctx.targets)
        self._write_cursor = [0] * len(ctx.targets)

        self.journal = journal
        self._skip = set()
        if journal is not None:
            if not journal.matches(plan, self.chunk):
                raise FaultError(
                    "journal does not describe this migration "
                    "(moves or chunk size differ)"
                )
            self._skip = set(journal.done)

        self.started = False
        self.finished = False
        self.cancelled = False
        self.start_time = None
        self.finish_time = None
        self.bytes_moved = 0
        self.chunks_done = 0
        self.chunks_skipped = 0
        self.chunks_restored = 0
        self.chunks_failed = 0
        self._in_flight = 0

    @property
    def total_chunks(self):
        return len(self._chunks)

    def start(self):
        """Begin copying; fills the in-flight window."""
        if self.started:
            raise SimulationError("migration already started")
        self.started = True
        self.start_time = self.ctx.engine.now
        if not self._chunks:
            self._finish()
            return self
        for _ in range(min(self.window, len(self._chunks))):
            self._issue()
        if self._in_flight == 0 and self._next >= len(self._chunks):
            # Every chunk was already journaled by a previous attempt.
            self._finish()
        return self

    def cancel(self):
        """Stop issuing chunks; in-flight ones complete, ``on_done``
        never fires.  Used when an emergency re-solve supersedes the
        migration in progress; an attached journal keeps the chunks
        that did land."""
        self.cancelled = True
        if self.started and self._in_flight == 0:
            self._finish()
        return self

    def _sequential_lba(self, cursor, target_j, size):
        """Next address of a per-target sequential copy cursor.

        Real rebalancers stream regions sequentially; modelling the copy
        as a sequential sweep per target gives migration I/O the cheap
        streaming cost profile, while still occupying the device.
        """
        capacity = self.ctx.targets[target_j].capacity
        address = cursor[target_j]
        if address + size > capacity:
            address = 0
        cursor[target_j] = address + size
        return address

    def _issue(self):
        if self.cancelled:
            return
        while self._next < len(self._chunks) and self._next in self._skip:
            self._next += 1
            self.chunks_skipped += 1
        if self._next >= len(self._chunks):
            return
        index = self._next
        src, dst, size = self._chunks[index]
        self._next += 1
        self._in_flight += 1

        def write(restored):
            if restored:
                self.chunks_restored += 1
            write_lba = self._sequential_lba(self._write_cursor, dst, size)
            self.ctx.targets[dst].submit(IORequest(
                stream_id=self.stream_id, kind="write", lba=write_lba,
                size=size, obj=None, on_complete=write_done,
            ))

        def read_done(request):
            # A failed read means the source died mid-copy; fall through
            # to the restore path (write from redundancy) regardless.
            write(restored=request.failed)

        def write_done(request):
            self._in_flight -= 1
            if request.failed:
                # Destination died with the chunk in flight: the chunk
                # is not durable, so it is NOT journaled — a resume will
                # copy it again.
                self.chunks_failed += 1
            else:
                self.bytes_moved += size
                self.chunks_done += 1
                self._m_chunks.inc()
                self._m_bytes.inc(size)
                if self.journal is not None:
                    self.journal.record_chunk(index)
            if self.pace_s > 0:
                self.ctx.engine.schedule(self.pace_s, self._refill)
            else:
                self._refill()

        if self.ctx.targets[src].failed:
            # Source already dead: skip the doomed read, restore the
            # chunk straight onto the destination.
            write(restored=True)
        else:
            read_lba = self._sequential_lba(self._read_cursor, src, size)
            self.ctx.targets[src].submit(IORequest(
                stream_id=self.stream_id, kind="read", lba=read_lba,
                size=size, obj=None, on_complete=read_done,
            ))

    def _refill(self):
        self._issue()
        if self._in_flight == 0 and (self.cancelled
                                     or self._next >= len(self._chunks)):
            self._finish()

    def _finish(self):
        if self.finished:
            return
        self.finished = True
        self.finish_time = self.ctx.engine.now
        if not self.cancelled and self.on_done is not None:
            self.on_done(self)

    @property
    def elapsed_s(self):
        """Simulated copy duration (None until finished)."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time
