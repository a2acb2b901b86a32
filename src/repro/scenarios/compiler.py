"""Seed-deterministic scenario compilation.

Compilation lowers a validated :class:`~repro.scenarios.schema.ScenarioSpec`
onto the machinery the rest of the library already speaks:

* a piecewise-constant **rate table** — the schedule's shapes are
  integrated analytically over small segments, so ramp / diurnal /
  step / drift all reduce to ``(object, kind, size, run_count) → req/s``
  per segment;
* :class:`~repro.workload.spec.ObjectWorkload` descriptions at any
  point or interval in scenario time (rates, rate-weighted sizes and
  run counts, co-activity overlaps);
* a synthetic **completion trace** (:mod:`repro.workload.trace_io`
  records) for `replay-online`, the workload monitor, and the matrix
  runner;
* the embedded :class:`~repro.faults.plan.FaultPlan`; and
* a **tenant arrival/churn schedule** for serve-mode runs.

Everything derives from ``(spec, seed)`` alone — no wall clock, no
global RNG — so :meth:`CompiledScenario.signature` is a determinism
contract mirroring :meth:`repro.faults.plan.FaultPlan.signature`:
compile the same spec with the same seed anywhere and the signatures
compare equal and the synthesized traces match byte for byte.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict

import numpy as np

from repro import units
from repro.errors import ScenarioError
from repro.storage.engine import collector_paused
from repro.storage.request import CompletionRecord
from repro.workload.spec import ObjectWorkload

#: Default subdivision width for time-varying shapes (ramp / diurnal /
#: drift); constant and step shapes segment exactly at their breakpoints.
DEFAULT_RESOLUTION_S = 1.0

#: Rates below this are treated as inactive for overlap purposes.
_ACTIVE_EPS = 1e-12

#: Synthetic service-time model: a seek/setup cost amortized over the
#: run, plus transfer at a nominal device bandwidth.
_SEEK_S = {"read": 0.005, "write": 0.006}
_TRANSFER_BPS = 150e6

#: Trace rows turned into records per batch; bounds the transient
#: per-field Python lists a synthesized trace passes through.
_RECORD_BATCH = 1 << 14

#: A record from a row tuple: the namedtuple's ``_make`` without its
#: Python frame.
_make_record = partial(tuple.__new__, CompletionRecord)


@dataclass(frozen=True)
class StreamKey:
    """Identity of one synthetic request stream."""

    obj: str
    kind: str
    size: int
    run_count: float

    def sort_key(self):
        return (self.obj, self.kind, self.size, self.run_count)


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant slice of the compiled rate table."""

    t0: float
    t1: float
    rates: Dict[StreamKey, float]

    @property
    def duration(self):
        return self.t1 - self.t0

    def object_rate(self, obj):
        return sum(rate for key, rate in self.rates.items()
                   if key.obj == obj)


@dataclass(frozen=True)
class TenantEvent:
    """One tenant lifecycle in the compiled arrival/churn schedule."""

    tenant: str
    arrive_s: float
    depart_s: float


def _entry_multiplier_mean(entry, a, b):
    """Exact mean of a schedule entry's multiplier over [a, b]."""
    if entry.shape == "constant":
        return entry.level
    if entry.shape == "ramp":
        span = entry.t1 - entry.t0
        mid = (a + b) / 2.0
        return entry.ramp_from + (entry.ramp_to - entry.ramp_from) \
            * (mid - entry.t0) / span
    if entry.shape == "diurnal":
        omega = 2.0 * math.pi / entry.period_s
        pa = omega * (a - entry.t0) + entry.phase
        pb = omega * (b - entry.t0) + entry.phase
        mean_sin = (math.cos(pa) - math.cos(pb)) / (omega * (b - a))
        return entry.mean * (1.0 + entry.amplitude * mean_sin)
    if entry.shape == "step":
        # Segments are split at `at` / `until`, so [a, b] is uniform.
        mid = (a + b) / 2.0
        return entry.peak if entry.at <= mid < entry.until else entry.base
    raise ScenarioError("no multiplier for shape %r" % entry.shape)


def _drift_weights(entry, a, b):
    """(from_mix weight, to_mix weight) for a drift entry over [a, b]."""
    mid = (a + b) / 2.0
    u = (mid - entry.t0) / (entry.t1 - entry.t0)
    return entry.level * (1.0 - u), entry.level * u


def _breakpoints(spec, resolution_s):
    points = {0.0, spec.duration_s}
    for entry in spec.schedule:
        points.add(entry.t0)
        points.add(entry.t1)
        if entry.shape == "step":
            points.add(entry.at)
            points.add(entry.until)
        elif entry.shape in ("ramp", "diurnal", "drift"):
            steps = max(1, int(math.ceil(
                (entry.t1 - entry.t0) / resolution_s
            )))
            for k in range(1, steps):
                points.add(entry.t0 + (entry.t1 - entry.t0) * k / steps)
    return sorted(p for p in points if 0.0 <= p <= spec.duration_s + 1e-9)


def _mix_contributions(entry, spec, a, b):
    """Yield (mix, rate multiplier) pairs for an entry over [a, b]."""
    if entry.shape == "drift":
        w_from, w_to = _drift_weights(entry, a, b)
        yield spec.mixes[entry.from_mix], w_from
        yield spec.mixes[entry.to_mix], w_to
    else:
        yield spec.mixes[entry.mix], _entry_multiplier_mean(entry, a, b)


def _round9(values):
    """``round(v, 9)`` of every element, as a float64 array.

    ``rint(v·1e9)/1e9`` equals Python's correctly rounded ``round`` unless
    the scaled product's own rounding error can carry it across a
    half-integer; elements within 4 ulps of one (or not below 2**52,
    or not finite) are recomputed with ``round`` itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e9
        out = np.rint(scaled) / 1e9
        magnitude = np.abs(scaled)
        near_half = (np.abs(scaled - np.floor(scaled) - 0.5)
                     <= 4.0 * np.spacing(magnitude))
    for index in np.flatnonzero(near_half | ~(magnitude < 2.0 ** 52)):
        out[index] = round(float(values[index]), 9)
    return out


def _run_pages(n_pages, run_length, count, state, rng):
    """Page index of each of one stream's ``count`` requests in a
    segment, and the stream's run state after them.

    ``state`` is ``(page, left)``: the next page of the run in progress
    and how many requests it has left.  A run ends after ``run_length``
    requests or at the object's last page, and the next one starts at a
    uniform page.  Run starts are the prefix of one
    ``integers(0, n_pages, n)`` draw: on PCG64 a vector draw yields the
    values of ``n`` scalar draws in order, and nothing draws from
    ``rng`` afterwards, so drawing more starts than the runs use
    changes no record.
    """
    page, left = state
    head = max(0, min(left, n_pages - page, count))
    if head == count:
        return (np.arange(page, page + count, dtype=np.int64),
                (page + count, left - count))
    rest = count - head
    starts = rng.integers(0, n_pages, rest)
    lengths = np.minimum(n_pages - starts, run_length)
    ends = np.cumsum(lengths)
    runs = int(np.searchsorted(ends, rest)) + 1
    starts, lengths = starts[:runs], lengths[:runs]
    firsts = ends[:runs] - lengths
    lengths[-1] = rest - firsts[-1]
    pages = np.repeat(starts, lengths) + (np.arange(rest)
                                          - np.repeat(firsts, lengths))
    if head:
        pages = np.concatenate(
            [np.arange(page, page + head, dtype=np.int64), pages])
    last = int(lengths[-1])
    return pages, (int(starts[-1]) + last, run_length - last)


def compile_scenario(spec, seed=None, resolution_s=DEFAULT_RESOLUTION_S):
    """Compile a spec into a :class:`CompiledScenario`.

    Args:
        spec: A validated :class:`~repro.scenarios.schema.ScenarioSpec`.
        seed: Compile seed; defaults to the spec's ``seed`` field.
        resolution_s: Subdivision width for time-varying shapes.
    """
    if seed is None:
        seed = spec.seed
    seed = int(seed)
    if seed < 0:
        raise ScenarioError("compile seed must be non-negative")
    points = _breakpoints(spec, float(resolution_s))
    segments = []
    for a, b in zip(points, points[1:]):
        if b - a <= 1e-12:
            continue
        rates = {}
        for entry in spec.schedule:
            if entry.t0 >= b - 1e-12 or entry.t1 <= a + 1e-12:
                continue
            for mix, multiplier in _mix_contributions(entry, spec, a, b):
                if multiplier <= 0:
                    continue
                for task, task_rate in mix.task_rates():
                    share = task_rate * multiplier / len(task.objects)
                    for obj in task.objects:
                        key = StreamKey(obj, task.kind, task.size,
                                        task.run_count)
                        rates[key] = rates.get(key, 0.0) + share
        segments.append(Segment(a, b, rates))
    return CompiledScenario(spec, seed, tuple(segments))


class CompiledScenario:
    """A scenario lowered to segments, traces, faults, and tenants."""

    def __init__(self, spec, seed, segments):
        self.spec = spec
        self.seed = seed
        self.segments = segments
        self.fault_plan = spec.fault_plan
        self._tenant_schedule = None
        #: Stable stream numbering across the whole scenario.
        keys = set()
        for segment in segments:
            keys.update(segment.rates)
        self._stream_ids = {
            key: index
            for index, key in enumerate(sorted(keys,
                                               key=StreamKey.sort_key))
        }

    @property
    def name(self):
        return self.spec.name

    @property
    def duration_s(self):
        return self.spec.duration_s

    @property
    def object_sizes(self):
        return dict(self.spec.object_sizes)

    # ------------------------------------------------------------------
    # Rate table queries
    # ------------------------------------------------------------------

    def rate_integral(self, obj=None, kind=None):
        """Expected request count over the whole scenario.

        The schedule-shape contract: this equals the analytic integral
        of the shaped rates (ramps average their endpoints, diurnal
        sine cancels over whole periods, steps add ``peak × width``).
        """
        total = 0.0
        for segment in self.segments:
            for key, rate in segment.rates.items():
                if obj is not None and key.obj != obj:
                    continue
                if kind is not None and key.kind != kind:
                    continue
                total += rate * segment.duration
        return total

    def _window_rates(self, t0, t1):
        """Aggregated per-stream rates over [t0, t1]."""
        acc = {}
        span = 0.0
        for segment in self.segments:
            a, b = max(segment.t0, t0), min(segment.t1, t1)
            if b - a <= 0:
                continue
            span += b - a
            for key, rate in segment.rates.items():
                acc[key] = acc.get(key, 0.0) + rate * (b - a)
        if span <= 0:
            return {}
        return {key: value / span for key, value in acc.items()}

    def _overlaps(self):
        """Pairwise co-activity fractions from the segment table."""
        active = {obj: 0.0 for obj in self.spec.object_sizes}
        shared = {}
        for segment in self.segments:
            live = [obj for obj in active
                    if segment.object_rate(obj) > _ACTIVE_EPS]
            for obj in live:
                active[obj] += segment.duration
            for i, obj in enumerate(live):
                for other in live[i + 1:]:
                    pair = (obj, other)
                    shared[pair] = shared.get(pair, 0.0) + segment.duration
        overlaps = {obj: {} for obj in active}
        for (obj, other), value in shared.items():
            if active[obj] > 0:
                overlaps[obj][other] = min(1.0, value / active[obj])
            if active[other] > 0:
                overlaps[other][obj] = min(1.0, value / active[other])
        return overlaps

    def mean_workloads(self, t0=None, t1=None):
        """Fitted-style :class:`ObjectWorkload` list over a window.

        Rates are time averages over ``[t0, t1]`` (default: the whole
        scenario); request sizes and run counts are rate-weighted
        means; overlaps come from whole-run co-activity.  Objects with
        no traffic in the window get zero-rate specs, so the list
        always covers the full catalog.
        """
        if t0 is None:
            t0 = 0.0
        if t1 is None:
            t1 = self.duration_s
        rates = self._window_rates(t0, t1)
        overlaps = self._overlaps()
        workloads = []
        for obj in self.spec.object_sizes:
            by_kind = {"read": [], "write": []}
            for key, rate in rates.items():
                if key.obj == obj and rate > 0:
                    by_kind[key.kind].append((key, rate))
            read_rate = sum(rate for _, rate in by_kind["read"])
            write_rate = sum(rate for _, rate in by_kind["write"])
            total = read_rate + write_rate

            def weighted(entries, attr, default):
                mass = sum(rate for _, rate in entries)
                if mass <= 0:
                    return default
                return sum(getattr(key, attr) * rate
                           for key, rate in entries) / mass

            run_entries = by_kind["read"] + by_kind["write"]
            workloads.append(ObjectWorkload(
                name=obj,
                read_size=weighted(by_kind["read"], "size",
                                   units.DEFAULT_PAGE_SIZE),
                write_size=weighted(by_kind["write"], "size",
                                    units.DEFAULT_PAGE_SIZE),
                read_rate=read_rate,
                write_rate=write_rate,
                run_count=max(1.0, weighted(run_entries, "run_count", 1.0)),
                overlap=dict(overlaps.get(obj, {})) if total > 0 else {},
            ))
        return workloads

    def baseline_workloads(self):
        """What the initial layout should be solved for: the first
        authored schedule entry's interval (phase A of a drift run)."""
        entry = self.spec.schedule[0]
        return self.mean_workloads(entry.t0, entry.t1)

    # ------------------------------------------------------------------
    # Problem lowering
    # ------------------------------------------------------------------

    def problem_payload(self, workloads=None):
        """CLI problem-JSON-shaped dict (needs a ``targets`` section)."""
        if not self.spec.targets:
            raise ScenarioError(
                "scenario %r has no targets section; it cannot stand "
                "alone as a layout problem" % self.name
            )
        if workloads is None:
            workloads = self.baseline_workloads()
        objects = []
        for workload in workloads:
            objects.append({
                "name": workload.name,
                "size": self.spec.object_sizes[workload.name],
                "read_rate": workload.read_rate,
                "write_rate": workload.write_rate,
                "read_size": workload.read_size,
                "write_size": workload.write_size,
                "run_count": workload.run_count,
                "overlap": dict(workload.overlap),
            })
        return {
            "targets": [t.as_payload() for t in self.spec.targets],
            "objects": objects,
        }

    def initial_layout(self):
        """The spec's declared starting layout, or ``None``.

        Benchmarks and replays use this as the "solved long ago"
        layout a drift scenario opens with; absent a declaration,
        callers run the advisor on :meth:`baseline_workloads`.
        """
        if self.spec.initial_layout is None:
            return None
        from repro.core.layout import Layout

        objects = list(self.spec.object_sizes)
        return Layout(
            [list(self.spec.initial_layout[obj]) for obj in objects],
            objects, list(self.spec.target_names),
        )

    # ------------------------------------------------------------------
    # Trace synthesis
    # ------------------------------------------------------------------

    @collector_paused()
    def synthesize_trace(self, targets=None):
        """Deterministic synthetic completion trace for the scenario.

        Per segment and per stream, arrivals are Poisson at the
        compiled rate, offsets follow the stream's run structure, and
        service times draw from a seek-plus-transfer model — all from
        RNGs keyed by ``(seed, segment, stream)``, so the same spec and
        seed reproduce the identical record list.  ``targets`` names
        the targets records are attributed to (default: the spec's
        targets, else a single synthetic ``t0``).  The records are built
        from numpy columns with one stable sort; DESIGN.md §12 lists
        what keeps them equal to a record-at-a-time build.  The cyclic
        collector is paused for the build: the records form no cycles.
        """
        if targets is None:
            targets = self.spec.target_names or ["t0"]
        targets = list(targets)
        columns = {"times": [], "services": [], "picks": [],
                   "offsets": [], "streams": []}
        run_state = {}
        for seg_index, segment in enumerate(self.segments):
            dt = segment.duration
            for key in sorted(segment.rates, key=StreamKey.sort_key):
                rate = segment.rates[key]
                if rate <= 0:
                    continue
                stream_id = self._stream_ids[key]
                rng = np.random.default_rng(
                    [self.seed, seg_index, stream_id]
                )
                count = int(rng.poisson(rate * dt))
                if count == 0:
                    continue
                columns["times"].append(
                    np.sort(rng.random(count)) * dt + segment.t0)
                mean_service = (_SEEK_S[key.kind] / key.run_count
                                + key.size / _TRANSFER_BPS)
                columns["services"].append(
                    rng.exponential(mean_service, count))
                columns["picks"].append(
                    rng.integers(0, len(targets), count))
                pages, run_state[key] = _run_pages(
                    max(1, self.spec.object_sizes[key.obj] // key.size),
                    max(1, int(round(key.run_count))), count,
                    run_state.get(key, (0, 0)), rng,
                )
                columns["offsets"].append(pages * key.size)
                columns["streams"].append(
                    np.full(count, stream_id, dtype=np.int32))
        if not columns["times"]:
            return []
        times, services, picks, offsets, streams = (
            np.concatenate(columns.pop(name)) for name in
            ("times", "services", "picks", "offsets", "streams"))
        finish = _round9(times + services)
        # Stable, so rows tied on all three keys keep generation order,
        # as the record sort on (finish_time, stream_id, offset) did.
        order = np.lexsort((offsets, streams, finish))
        # One Python object per target name and per stream attribute,
        # shared by every record that carries it.
        target_names = np.array(targets, dtype=object)
        keys = sorted(self._stream_ids, key=self._stream_ids.get)
        objs = np.array([key.obj for key in keys], dtype=object)
        kinds = np.array([key.kind for key in keys], dtype=object)
        sizes = np.array([key.size for key in keys], dtype=object)
        records = []
        for start in range(0, len(order), _RECORD_BATCH):
            rows = order[start:start + _RECORD_BATCH]
            offset = offsets[rows].tolist()
            stream = streams[rows]
            records.extend(map(_make_record, zip(
                _round9(times[rows]).tolist(), finish[rows].tolist(),
                target_names[picks[rows]].tolist(), objs[stream].tolist(),
                stream.tolist(), kinds[stream].tolist(),
                offset, offset, sizes[stream].tolist(),
                _round9(services[rows]).tolist(),
            )))
        return records

    def chunks(self, chunk_s, trace=None):
        """Split a (synthesized) trace into streamable time chunks.

        Returns a list of record lists, one per ``chunk_s`` window —
        the shape :meth:`repro.online.monitor.WorkloadMonitor.observe`
        and the serving layer's trace-chunk feed expect.
        """
        if trace is None:
            trace = self.synthesize_trace()
        if chunk_s <= 0:
            raise ScenarioError("chunk_s must be positive")
        n_chunks = max(1, int(math.ceil(self.duration_s / chunk_s)))
        out = [[] for _ in range(n_chunks)]
        for record in trace:
            index = min(n_chunks - 1, int(record.finish_time // chunk_s))
            out[index].append(record)
        return out

    # ------------------------------------------------------------------
    # Tenant lifecycles
    # ------------------------------------------------------------------

    def tenant_schedule(self):
        """Compiled tenant arrival/churn events (empty without a
        ``tenants:`` section)."""
        if self._tenant_schedule is not None:
            return self._tenant_schedule
        spec = self.spec.tenants
        events = []
        if spec is not None:
            rng = np.random.default_rng([self.seed, 0x7E7A])
            departures = []
            now = 0.0
            index = 0
            while True:
                now += float(rng.exponential(1.0 / spec.arrival_rate_per_s))
                lifetime = float(rng.exponential(spec.mean_lifetime_s))
                if now >= self.duration_s:
                    break
                departures = [d for d in departures if d > now]
                if len(departures) >= spec.max_active:
                    continue
                depart = min(self.duration_s, now + lifetime)
                departures.append(depart)
                events.append(TenantEvent(
                    tenant="%s-%03d" % (self.name, index),
                    arrive_s=round(now, 6),
                    depart_s=round(depart, 6),
                ))
                index += 1
        self._tenant_schedule = tuple(events)
        return self._tenant_schedule

    # ------------------------------------------------------------------
    # Determinism contract
    # ------------------------------------------------------------------

    def signature(self):
        """Canonical tuple of the compiled scenario.

        Equal iff the compiled schedules are equal — the same contract
        as :meth:`repro.faults.plan.FaultPlan.signature`, extended with
        the rate table and tenant schedule.  Same spec + same seed ⇒
        equal signatures, on any host.
        """
        segment_rows = tuple(
            (round(segment.t0, 9), round(segment.t1, 9), tuple(
                (key.obj, key.kind, key.size, round(key.run_count, 9),
                 round(rate, 9))
                for key, rate in sorted(segment.rates.items(),
                                        key=lambda kv: kv[0].sort_key())
            ))
            for segment in self.segments
        )
        tenant_rows = tuple(
            (event.tenant, round(event.arrive_s, 9),
             round(event.depart_s, 9))
            for event in self.tenant_schedule()
        )
        layout_rows = ()
        if self.spec.initial_layout is not None:
            layout_rows = tuple(
                (obj, tuple(round(f, 9) for f in row))
                for obj, row in sorted(self.spec.initial_layout.items())
            )
        return (
            ("scenario", self.name, round(self.duration_s, 9), self.seed),
            tuple(sorted(self.spec.object_sizes.items())),
            segment_rows,
            self.fault_plan.signature(),
            tenant_rows,
            layout_rows,
        )

    def describe(self):
        """One-paragraph summary for the CLI."""
        lines = [
            "%s: %s" % (self.name, self.spec.description or "(no "
                                                            "description)"),
            "  duration %.0fs, %d objects, %d mixes, %d schedule "
            "entries, %d segments" % (
                self.duration_s, len(self.spec.object_sizes),
                len(self.spec.mixes), len(self.spec.schedule),
                len(self.segments),
            ),
            "  expected requests %.0f (reads %.0f, writes %.0f)" % (
                self.rate_integral(),
                self.rate_integral(kind="read"),
                self.rate_integral(kind="write"),
            ),
        ]
        if len(self.fault_plan):
            lines.append("  faults: %d events" % len(self.fault_plan))
        if self.spec.tenants is not None:
            lines.append("  tenants: %d lifecycles"
                         % len(self.tenant_schedule()))
        return "\n".join(lines)
