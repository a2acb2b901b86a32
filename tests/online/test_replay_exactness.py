"""Batched trace ingest makes the decisions one-record-at-a-time did.

``OnlineController.replay`` and ``Tenant.feed`` hand the monitor every
record between two checks (and, in replay, fault due times) as one
batch.  These tests keep the per-record loops they replaced and check
that the batched paths produce the same event log (wall-clock
``decision_latency_s`` aside), final layout and monitor state on two
library scenarios: ``fault-storm``, whose fault plan fires between
checks, and ``oltp-scan-drift``, the largest trace.
"""

import numpy as np
import pytest

from repro.core.advisor import LayoutAdvisor
from repro.faults.injector import FaultInjector
from repro.online.controller import ControllerConfig, OnlineController
from repro.problem_io import load_problem
from repro.scenarios import compile_scenario, load_scenario
from repro.serve.tenant import Tenant


def reference_replay(controller, records, end_time=None, faults=None):
    """``OnlineController.replay`` one record at a time."""
    if faults is not None and faults is not controller.faults:
        controller.attach_faults(faults)
    records = sorted(records, key=lambda r: r.finish_time)
    interval = controller.config.check_interval_s
    next_check = records[0].finish_time + interval
    for record in records:
        while record.finish_time >= next_check:
            controller._poll_faults(next_check)
            controller.check(next_check)
            next_check += interval
        controller._poll_faults(record.finish_time)
        controller.monitor.observe(record)
    last = end_time if end_time is not None else records[-1].finish_time
    last = max(last, next_check - interval)
    controller._poll_faults(last)
    controller.check(last)
    return controller.log


def reference_feed(tenant, records):
    """``Tenant.feed``'s control loop one record at a time."""
    records = sorted(records, key=lambda r: r.finish_time)
    controller = tenant.controller
    interval = tenant.config.check_interval_s
    if tenant._next_check is None:
        tenant._next_check = records[0].finish_time + interval
    for record in records:
        while record.finish_time >= tenant._next_check:
            controller.pump_migration(tenant._next_check)
            controller.check(tenant._next_check)
            tenant._next_check += interval
        controller.monitor.observe(record)
    controller.pump_migration(records[-1].finish_time)
    tenant.last_time = records[-1].finish_time


def _events(log):
    return [{key: value for key, value in event.items()
             if key != "decision_latency_s"} for event in log.events]


def _outcome(controller):
    return (_events(controller.log), controller.layout.matrix.tolist(),
            controller.monitor.to_state(), controller.resolves,
            controller.emergency_resolves)


@pytest.fixture(scope="module", params=["fault-storm", "oltp-scan-drift"])
def scenario(request):
    """(compiled scenario, trace, problem, advised layout)."""
    compiled = compile_scenario(load_scenario(request.param))
    problem = load_problem(compiled.problem_payload())
    layout = LayoutAdvisor(problem, regular=True).recommend().recommended
    return compiled, compiled.synthesize_trace(), problem, layout


def test_batched_replay_equals_per_record_replay(scenario):
    compiled, trace, problem, layout = scenario

    def run(replay):
        controller = OnlineController(
            targets=problem.targets, object_sizes=compiled.object_sizes,
            initial_layout=layout,
            solved_workloads=compiled.baseline_workloads(),
            stripe_size=problem.stripe_size, config=ControllerConfig(),
        )
        faults = None
        if len(compiled.fault_plan):
            faults = FaultInjector(compiled.fault_plan,
                                   target_names=problem.target_names)
        replay(controller, trace, end_time=compiled.duration_s,
               faults=faults)
        return _outcome(controller)

    batched = run(OnlineController.replay)
    assert batched == run(reference_replay)
    kinds = {event["kind"] for event in batched[0]}
    assert {"check", "accept", "migrated"} <= kinds
    if len(compiled.fault_plan):
        assert {"fault", "evacuate", "recovered"} <= kinds


def test_batched_feed_equals_per_record_feed(scenario):
    compiled, trace, problem, layout = scenario
    chunks = [chunk for chunk in compiled.chunks(7.0, trace) if chunk]

    def tenant():
        return Tenant("t1", problem, layout, config=ControllerConfig(
            check_interval_s=2.0, cooldown_s=0.0, patience=1))

    batched, reference = tenant(), tenant()
    for chunk in chunks:
        batched.feed(chunk)
        reference_feed(reference, chunk)
    assert _outcome(batched.controller) == _outcome(reference.controller)
    assert (batched._next_check, batched.last_time) == \
        (reference._next_check, reference.last_time)
    assert np.isfinite(batched.last_time)
