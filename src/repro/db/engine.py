"""Workload execution engine.

Replays a SQL workload — modelled as query/transaction I/O profiles —
under a given layout on the storage simulator, and reports the metrics
the paper reports: total elapsed (simulated wall-clock) time for OLAP
workloads, New-Order transactions per minute for OLTP, and measured
per-target utilizations.

This is the substitution for the paper's PostgreSQL testbed; see
DESIGN.md for the substitution argument.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import units
from repro.db.profiles import RAND, SEQ
from repro.db.schema import LOG
from repro.storage.engine import SimulationEngine
from repro.storage.mapping import PlacementMap
from repro.storage.streams import RandomStream, ScanStream, SimContext
from repro.storage.target import StorageTarget


@dataclass
class WorkloadResult:
    """Measured outcome of one workload run under one layout.

    Attributes:
        name: Workload name.
        elapsed_s: Simulated wall-clock seconds until the workload
            finished (the paper's primary OLAP metric).
        tpm: New-Order transactions per minute (None for pure OLAP).
        completed_queries: Number of OLAP queries that ran.
        completed_transactions: Number of OLTP transactions that ran.
        utilizations: Measured per-target utilization (busy fraction).
        query_times: Per-query elapsed seconds, in completion order.
        trace: Completion records, when tracing was requested.
    """

    name: str
    elapsed_s: float
    tpm: Optional[float] = None
    completed_queries: int = 0
    completed_transactions: int = 0
    utilizations: Dict[str, float] = field(default_factory=dict)
    query_times: List[float] = field(default_factory=list)
    trace: Optional[list] = None


class _QueryRun:
    """Executes one query profile: phases in sequence, accesses within a
    phase concurrently."""

    def __init__(self, ctx, database, profile, rng, on_done,
                 log_cursors, page=units.DEFAULT_PAGE_SIZE):
        self.ctx = ctx
        self.database = database
        self.profile = profile
        self.rng = rng
        self.on_done = on_done
        self.log_cursors = log_cursors
        self.page = int(page)
        self.start_time = None
        self._phase_index = 0
        self._streams_left = 0

    def start(self):
        self.start_time = self.ctx.engine.now
        self._start_phase()
        return self

    def _start_phase(self):
        phase = self.profile.phases[self._phase_index]
        streams = [self._make_stream(access) for access in phase.accesses]
        self._streams_left = len(streams)
        for stream in streams:
            stream.start()

    def _make_stream(self, access):
        size = self.ctx.placement.object_size(access.obj)
        n_pages_in_object = max(1, size // self.page)
        if access.mode == SEQ:
            if access.pages > 0:
                length_pages = access.pages
            else:
                length_pages = int(round(min(access.fraction, 1.0)
                                         * n_pages_in_object))
            length_pages = max(1, min(length_pages, n_pages_in_object))
            start = 0
            if self.database[access.obj].kind == LOG or access.kind == "write":
                # Appends (log commits, temp spills) continue from the
                # object's current write frontier rather than offset 0.
                cursor = self.log_cursors.get(access.obj, 0)
                if cursor + length_pages > n_pages_in_object:
                    cursor = 0
                start = cursor * self.page
                self.log_cursors[access.obj] = cursor + length_pages
            return ScanStream(
                self.ctx, access.obj, length=length_pages * self.page,
                start=start, page=self.page, window=access.window,
                kind=access.kind, on_done=self._stream_done,
            )
        n_requests = access.pages
        if n_requests <= 0:
            n_requests = max(1, int(round(access.fraction * n_pages_in_object)))
        return RandomStream(
            self.ctx, access.obj, n_requests=n_requests, rng=self.rng,
            page=self.page, window=access.window, kind=access.kind,
            on_done=self._stream_done,
        )

    def _stream_done(self, _stream):
        self._streams_left -= 1
        if self._streams_left == 0:
            self._phase_done()

    def _phase_done(self):
        self._phase_index += 1
        if self._phase_index < len(self.profile.phases):
            self._start_phase()
        else:
            self.on_done(self)


class OlapDriver:
    """Runs a sequence of queries at a fixed concurrency level.

    Whenever a query finishes, the next one in the sequence starts, so
    ``concurrency`` queries are active at all times (paper §6.1's
    description of OLAP8-63).
    """

    def __init__(self, ctx, database, profiles, concurrency=1, seed=0,
                 page=units.DEFAULT_PAGE_SIZE, on_all_done=None):
        self.ctx = ctx
        self.database = database
        self.profiles = list(profiles)
        self.concurrency = int(concurrency)
        self.page = page
        self.on_all_done = on_all_done
        self.rng = np.random.default_rng(seed)
        self.log_cursors = {}
        self.completed = 0
        self.query_times = []
        self._next_index = 0
        self.finished = False

    def start(self):
        for _ in range(min(self.concurrency, len(self.profiles))):
            self._launch_next()
        return self

    def _launch_next(self):
        profile = self.profiles[self._next_index]
        self._next_index += 1
        _QueryRun(
            self.ctx, self.database, profile,
            rng=np.random.default_rng(self.rng.integers(0, 2**31)),
            on_done=self._query_done, log_cursors=self.log_cursors,
            page=self.page,
        ).start()

    def _query_done(self, run):
        self.completed += 1
        self.query_times.append(self.ctx.engine.now - run.start_time)
        if self._next_index < len(self.profiles):
            self._launch_next()
        elif self.completed == len(self.profiles):
            self.finished = True
            if self.on_all_done is not None:
                self.on_all_done(self)


class OltpDriver:
    """Simulated OLTP terminals with no think or keying time.

    Each terminal runs transactions back to back.  ``stop()`` lets the
    consolidation scenario end the OLTP side when the OLAP side
    finishes, as the paper does; transaction completion timestamps allow
    excluding a warm-up prefix from the throughput calculation.
    """

    def __init__(self, ctx, database, sample_profile, terminals=9, seed=0,
                 page=units.DEFAULT_PAGE_SIZE, max_transactions=None):
        self.ctx = ctx
        self.database = database
        self.sample_profile = sample_profile
        self.terminals = int(terminals)
        self.page = page
        self.max_transactions = max_transactions
        self.rng = np.random.default_rng(seed)
        self.log_cursors = {}
        self.completions = []          # (finish_time, profile_name)
        self._stopped = False
        self._started = 0

    def start(self):
        for _ in range(self.terminals):
            self._launch()
        return self

    def _launch(self):
        if self._stopped:
            return
        if (self.max_transactions is not None
                and self._started >= self.max_transactions):
            return
        self._started += 1
        profile = self.sample_profile(self.rng)
        _QueryRun(
            self.ctx, self.database, profile,
            rng=np.random.default_rng(self.rng.integers(0, 2**31)),
            on_done=self._transaction_done, log_cursors=self.log_cursors,
            page=self.page,
        ).start()

    def _transaction_done(self, run):
        self.completions.append((self.ctx.engine.now, run.profile.name))
        self._launch()

    def stop(self):
        self._stopped = True

    def throughput_tpm(self, kind="NewOrder", warmup_fraction=0.1,
                       end_time=None):
        """Transactions per minute of one kind, excluding warm-up."""
        if not self.completions:
            return 0.0
        if end_time is None:
            end_time = self.completions[-1][0]
        warmup = end_time * warmup_fraction
        counted = sum(
            1 for t, name in self.completions
            if name == kind and t >= warmup
        )
        window = max(end_time - warmup, 1e-9)
        return 60.0 * counted / window


def _build_run(database, fractions, devices,
               stripe_size=units.DEFAULT_STRIPE_SIZE, collect_trace=False):
    """Assemble engine, targets, placement, and context for one run."""
    engine = SimulationEngine()
    trace = [] if collect_trace else None
    targets = [StorageTarget(d, engine=engine, trace=trace) for d in devices]
    placement = PlacementMap(
        database.sizes(), fractions, [t.capacity for t in targets],
        stripe_size=stripe_size,
    )
    ctx = SimContext(engine, placement, targets)
    return engine, targets, ctx, trace


def _result(name, engine, targets, trace, driver=None, oltp=None,
            warmup_fraction=0.1):
    elapsed = engine.now
    utilizations = {t.name: t.utilization(elapsed) for t in targets}
    result = WorkloadResult(
        name=name,
        elapsed_s=elapsed,
        utilizations=utilizations,
        trace=trace,
    )
    if driver is not None:
        result.completed_queries = driver.completed
        result.query_times = driver.query_times
    if oltp is not None:
        result.completed_transactions = len(oltp.completions)
        result.tpm = oltp.throughput_tpm(
            warmup_fraction=warmup_fraction, end_time=elapsed
        )
    return result


def run_olap(database, profiles, fractions, devices, concurrency=1, seed=0,
             stripe_size=units.DEFAULT_STRIPE_SIZE,
             page=units.DEFAULT_PAGE_SIZE, collect_trace=False, name="olap"):
    """Run an OLAP query sequence under a layout; return the result.

    Args:
        database: The :class:`~repro.db.schema.Database` catalog.
        profiles: Query profiles in execution order.
        fractions: Mapping object name → per-target fractions (e.g.
            ``Layout.fractions_by_name()``).
        devices: Fresh device instances, one per target.
        concurrency: Simultaneously active queries.
        collect_trace: Record completion records (for workload fitting).
    """
    engine, targets, ctx, trace = _build_run(
        database, fractions, devices, stripe_size, collect_trace
    )
    driver = OlapDriver(ctx, database, profiles, concurrency=concurrency,
                        seed=seed, page=page)
    driver.start()
    engine.run()
    return _result(name, engine, targets, trace, driver=driver)


def run_oltp(database, sample_profile, fractions, devices, terminals=9,
             n_transactions=600, seed=0,
             stripe_size=units.DEFAULT_STRIPE_SIZE,
             page=units.DEFAULT_PAGE_SIZE, collect_trace=False, name="oltp"):
    """Run a fixed number of OLTP transactions under a layout."""
    engine, targets, ctx, trace = _build_run(
        database, fractions, devices, stripe_size, collect_trace
    )
    oltp = OltpDriver(ctx, database, sample_profile, terminals=terminals,
                      seed=seed, page=page, max_transactions=n_transactions)
    oltp.start()
    engine.run()
    return _result(name, engine, targets, trace, oltp=oltp)


def run_consolidation(database, olap_profiles, sample_profile, fractions,
                      devices, olap_concurrency=1, terminals=9, seed=0,
                      stripe_size=units.DEFAULT_STRIPE_SIZE,
                      page=units.DEFAULT_PAGE_SIZE, collect_trace=False,
                      name="consolidation", warmup_fraction=0.1):
    """Run OLAP and OLTP concurrently (paper §6.3).

    The OLTP driver runs until the OLAP side finishes, mirroring the
    paper's procedure; reported tpm excludes the warm-up prefix.
    """
    engine, targets, ctx, trace = _build_run(
        database, fractions, devices, stripe_size, collect_trace
    )
    oltp = OltpDriver(ctx, database, sample_profile, terminals=terminals,
                      seed=seed + 1, page=page)

    driver = OlapDriver(
        ctx, database, olap_profiles, concurrency=olap_concurrency,
        seed=seed, page=page, on_all_done=lambda _d: oltp.stop(),
    )
    driver.start()
    oltp.start()
    engine.run()
    return _result(name, engine, targets, trace, driver=driver, oltp=oltp,
                   warmup_fraction=warmup_fraction)
