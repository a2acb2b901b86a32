"""Online layout controller under workload drift, ON vs OFF.

The §8 scenario the online subsystem exists for: a layout solved for an
OLTP-only workload (the scan table cold, parked whole on one spindle)
meets a workload shift to heavy sequential scans.  Without the
controller the scan table's single disk saturates while the other three
idle.  With the controller the monitor's fitted workload drifts, the
detector fires, a warm-started re-solve spreads the scan table, and a
throttled background copy brings the new layout online — after which
the measured max utilization sits strictly below the frozen layout's.

The run also audits the migration mechanics: the copy is real simulator
I/O, so foreground scan throughput is observably lower while it runs
than in the controller-less run over the same interval, and recovers
once the placement map swaps.

The workload is no longer hardcoded: it lowers from a declarative
scenario (``repro.scenarios``) via open-loop live streams.  The classic
drift run ships as the ``oltp-scan-drift`` library scenario (aliased
``default``); pass ``--scenario NAME_OR_FILE`` to pytest to replay any
other drift-shaped scenario through the same ON/OFF comparison.
"""

import json
import os

import pytest

from benchmarks.conftest import RESULTS_DIR, report
from repro import units
from repro.core.advisor import LayoutAdvisor
from repro.experiments.reporting import format_table
from repro.online.controller import ControllerConfig, OnlineController
from repro.problem_io import load_problem
from repro.scenarios import compile_scenario, load_scenario
from repro.scenarios.live import LiveScenario
from repro.storage.disk import DiskDrive
from repro.storage.engine import SimulationEngine
from repro.storage.mapping import PlacementMap
from repro.storage.streams import SimContext
from repro.storage.target import StorageTarget

SAMPLE_S = 1.0

CONFIG = ControllerConfig(
    check_interval_s=4.0,
    monitor_window_s=1.0,
    monitor_halflife_s=6.0,
    util_degradation=0.30,
    divergence_threshold=0.60,
    util_ceiling=0.95,
    patience=2,
    cooldown_s=20.0,
    min_gain=0.10,
    amortization_s=300.0,
    migration_chunk=units.mib(1),
    migration_window=1,
    migration_pace_s=0.04,
    regular=False,
)


@pytest.fixture(scope="module")
def compiled(request):
    spec = load_scenario(request.config.getoption("--scenario"))
    if not spec.targets:
        pytest.skip("scenario %r has no targets section" % spec.name)
    return compile_scenario(spec)


def _initial_layout(compiled, problem):
    layout = compiled.initial_layout()
    if layout is not None:
        return layout
    return LayoutAdvisor(problem, regular=False).recommend().recommended


def _drift_object(compiled):
    """The object whose rate grows most from phase A to the end phase —
    what 'scan throughput' means for an arbitrary drift scenario."""
    t_drift = compiled.spec.schedule[0].t1
    base = {w.name: w.read_rate + w.write_rate
            for w in compiled.mean_workloads(0.0, t_drift)}
    end = {w.name: w.read_rate + w.write_rate
           for w in compiled.mean_workloads(0.75 * compiled.duration_s,
                                            compiled.duration_s)}
    return max(end, key=lambda obj: end[obj] - base.get(obj, 0.0))


class _DriftRun:
    """One phased simulation, with or without the controller."""

    def __init__(self, compiled, controlled):
        self.compiled = compiled
        self.t_end = compiled.duration_s
        self.problem = load_problem(compiled.problem_payload())
        self.initial = _initial_layout(compiled, self.problem)
        self.drift_obj = _drift_object(compiled)

        self.engine = SimulationEngine()
        capacities = [t.capacity for t in compiled.spec.targets]
        self.targets = [
            StorageTarget(DiskDrive(t.name, t.capacity), self.engine)
            for t in compiled.spec.targets
        ]
        placement = PlacementMap(
            compiled.object_sizes, self.initial.fractions_by_name(),
            capacities,
        )
        self.ctx = SimContext(self.engine, placement, self.targets)
        self.controller = None
        if controlled:
            self.controller = OnlineController(
                targets=self.problem.targets,
                object_sizes=compiled.object_sizes,
                initial_layout=self.initial,
                solved_workloads=self.problem.workloads,
                ctx=self.ctx,
                config=CONFIG,
            ).start()

        self.live = LiveScenario(self.ctx, compiled)
        self.scan_completions = 0
        self.engine.add_completion_observer(self._count)
        self.samples = []          # (time, [busy..], scan_completions)

    def _count(self, record):
        if record.obj == self.drift_obj:
            self.scan_completions += 1

    def _sample(self):
        busy = [
            sum(s.busy_time for s in t._servers) for t in self.targets
        ]
        self.samples.append((self.engine.now, busy, self.scan_completions))
        if self.engine.now < self.t_end - SAMPLE_S / 2:
            self.engine.schedule(SAMPLE_S, self._sample)

    def run(self):
        self.live.start()
        self.engine.schedule(SAMPLE_S, self._sample)
        self.engine.run(until=self.t_end)
        if self.controller is not None:
            self.controller.stop()
        return self

    # -- windowed metrics ------------------------------------------------

    def max_util_series(self):
        """(window end time, max-across-disks utilization) per sample."""
        series = []
        for prev, cur in zip(self.samples, self.samples[1:]):
            dt = cur[0] - prev[0]
            deltas = [b1 - b0 for b0, b1 in zip(prev[1], cur[1])]
            series.append((cur[0], max(deltas) / dt))
        return series

    def mean_max_util(self, t0, t1):
        values = [u for t, u in self.max_util_series() if t0 < t <= t1]
        return sum(values) / len(values)

    def scan_rate(self, t0, t1):
        """Foreground scan completions per second over [t0, t1]."""
        points = [(t, c) for t, _, c in self.samples]
        before = max((p for p in points if p[0] <= t0), default=points[0])
        after = max((p for p in points if p[0] <= t1), default=points[-1])
        if after[0] <= before[0]:
            return 0.0
        return (after[1] - before[1]) / (after[0] - before[0])


def test_online_drift_controller(benchmark, compiled):
    t_drift = compiled.spec.schedule[0].t1
    t_end = compiled.duration_s

    def run():
        return _DriftRun(compiled, controlled=False).run(), \
            _DriftRun(compiled, controlled=True).run()

    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    log = on.controller.log

    os.makedirs(RESULTS_DIR, exist_ok=True)
    events_path = os.path.join(RESULTS_DIR, "online_drift_events.jsonl")
    log.to_jsonl(events_path)

    accepts = log.of_kind("accept")
    migrations = [e for e in log.of_kind("migrated") if not e["virtual"]]
    assert accepts, "controller never accepted a re-solve"
    assert migrations, "accepted layout never migrated"
    t_accept = accepts[0]["time"]
    t_done = migrations[0]["time"]
    steady0 = max(t_done + 10.0, t_drift + 20.0)

    off_steady = off.mean_max_util(steady0, t_end)
    on_steady = on.mean_max_util(steady0, t_end)
    off_scan = off.scan_rate(steady0, t_end)
    on_scan = on.scan_rate(steady0, t_end)
    off_during = off.scan_rate(t_accept, t_done)
    on_during = on.scan_rate(t_accept, t_done)
    on_after = on.scan_rate(t_done + 2.0, min(t_done + 12.0, t_end))

    report("online_drift", format_table(
        ["Metric", "controller OFF", "controller ON"],
        [
            ["steady max utilization after drift",
             "%.3f" % off_steady, "%.3f" % on_steady],
            ["scan throughput after drift (req/s)",
             "%.0f" % off_scan, "%.0f" % on_scan],
            ["scan throughput during migration (req/s)",
             "%.0f" % off_during, "%.0f" % on_during],
            ["re-solves accepted", "0", "%d" % on.controller.resolves],
            ["data migrated (MiB)", "0",
             "%.0f" % (migrations[0]["bytes_moved"] / units.mib(1))],
            ["migration wall time (s)", "-",
             "%.1f" % migrations[0]["elapsed_s"]],
        ],
        title="Online controller under scenario %r "
              "(drift at t=%.0fs, horizon %.0fs)"
              % (compiled.name, t_drift, t_end),
    ))

    # The controller re-solved at least once, boundedly.
    assert 1 <= on.controller.resolves <= CONFIG.max_resolves

    # Decisions landed in the JSONL event log.
    with open(events_path) as handle:
        kinds = {json.loads(line)["kind"] for line in handle if line.strip()}
    assert {"baseline", "check", "trigger", "accept", "migrated"} <= kinds

    # After the drift settles, the re-solved layout's measured max
    # utilization is strictly below the frozen layout's.
    assert on_steady < off_steady * 0.9, (on_steady, off_steady)

    # Migration ran as throttled background I/O: the foreground scans
    # were observably slower than the uncontrolled run over the same
    # interval, and recovered once the placement switched.
    assert t_done - t_accept > 1.0
    assert on_during < off_during * 0.97, (on_during, off_during)
    assert on_after > on_during, (on_after, on_during)
