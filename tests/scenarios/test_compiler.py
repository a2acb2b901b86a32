"""Tests for seed-deterministic scenario compilation.

Covers the determinism contract (same spec + same seed ⇒ identical
signature and byte-identical synthetic trace), the schedule-shape
rate-integral closed forms, workload fitting, and layout lowering.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioError
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.schema import ScenarioSpec

from tests.scenarios.conftest import base_payload


def compiled(payload=None, seed=None, **overrides):
    payload = payload or base_payload(**overrides)
    spec = ScenarioSpec.from_payload(payload, label="unit.yaml")
    return compile_scenario(spec, seed=seed)


def with_schedule(*entries, duration=20):
    payload = base_payload()
    payload["duration_s"] = duration
    payload["schedule"] = list(entries)
    return payload


# ----------------------------------------------------------------------
# Determinism contract
# ----------------------------------------------------------------------

SHAPE_ENTRIES = st.sampled_from([
    {"mix": "steady", "shape": "constant", "t0": 0, "t1": 20,
     "level": 1.5},
    {"mix": "steady", "shape": "ramp", "t0": 2, "t1": 18,
     "from": 0.1, "to": 2.0},
    {"mix": "steady", "shape": "diurnal", "t0": 0, "t1": 20,
     "mean": 1.0, "amplitude": 0.8, "period_s": 7},
    {"mix": "steady", "shape": "step", "t0": 0, "t1": 20,
     "base": 0.5, "peak": 3.0, "at": 6, "until": 11},
])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       entry=SHAPE_ENTRIES,
       with_tenants=st.booleans())
def test_same_seed_same_compile(seed, entry, with_tenants):
    payload = with_schedule(entry)
    if with_tenants:
        payload["tenants"] = {"arrival_rate_per_s": 0.4,
                              "mean_lifetime_s": 5, "max_active": 4}
    one = compiled(payload, seed=seed)
    two = compiled(payload, seed=seed)
    assert one.signature() == two.signature()
    assert one.synthesize_trace() == two.synthesize_trace()
    assert one.tenant_schedule() == two.tenant_schedule()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_different_seed_different_trace(seed):
    payload = with_schedule(
        {"mix": "steady", "shape": "constant", "t0": 0, "t1": 20},
    )
    one = compiled(payload, seed=seed)
    two = compiled(payload, seed=seed + 1)
    assert one.signature() != two.signature()
    assert one.synthesize_trace() != two.synthesize_trace()


def test_signature_tracks_schedule_change():
    base = compiled(with_schedule(
        {"mix": "steady", "shape": "constant", "t0": 0, "t1": 20,
         "level": 1.0},
    ))
    changed = compiled(with_schedule(
        {"mix": "steady", "shape": "constant", "t0": 0, "t1": 20,
         "level": 1.1},
    ))
    assert base.signature() != changed.signature()


def test_trace_is_sorted_and_attributed():
    trace = compiled().synthesize_trace()
    assert trace, "constant 100 req/s over 20 s produced no records"
    finishes = [r.finish_time for r in trace]
    assert finishes == sorted(finishes)
    assert {r.target for r in trace} <= {"d0", "d1"}
    assert {r.obj for r in trace} <= {"hot", "cold"}


# ----------------------------------------------------------------------
# Rate-integral closed forms
# ----------------------------------------------------------------------

def test_constant_rate_integral():
    c = compiled(with_schedule(
        {"mix": "steady", "shape": "constant", "t0": 0, "t1": 20,
         "level": 1.5},
    ))
    assert c.rate_integral() == pytest.approx(100 * 1.5 * 20)


def test_ramp_rate_integral_is_endpoint_mean():
    c = compiled(with_schedule(
        {"mix": "steady", "shape": "ramp", "t0": 0, "t1": 20,
         "from": 0.2, "to": 1.0},
    ))
    assert c.rate_integral() == pytest.approx(100 * 20 * (0.2 + 1.0) / 2)


def test_diurnal_rate_integral_cancels_over_whole_periods():
    # Two whole periods: the sine term integrates to exactly zero.
    c = compiled(with_schedule(
        {"mix": "steady", "shape": "diurnal", "t0": 0, "t1": 20,
         "mean": 1.0, "amplitude": 0.9, "period_s": 10},
    ))
    assert c.rate_integral() == pytest.approx(100 * 20, rel=1e-9)


def test_diurnal_partial_period_matches_analytic_integral():
    amplitude, period, t1 = 0.5, 8.0, 14.0
    c = compiled(with_schedule(
        {"mix": "steady", "shape": "diurnal", "t0": 0, "t1": t1,
         "mean": 1.0, "amplitude": amplitude, "period_s": period},
        duration=t1,
    ))
    omega = 2 * math.pi / period
    analytic = 100 * (t1 + amplitude * (1 - math.cos(omega * t1)) / omega)
    assert c.rate_integral() == pytest.approx(analytic, rel=1e-9)


def test_step_rate_integral_adds_peak_window():
    c = compiled(with_schedule(
        {"mix": "steady", "shape": "step", "t0": 0, "t1": 20,
         "base": 1.0, "peak": 3.0, "at": 5, "until": 10},
    ))
    assert c.rate_integral() == pytest.approx(100 * (15 * 1.0 + 5 * 3.0))


def test_drift_conserves_total_rate():
    payload = with_schedule(
        {"shape": "drift", "from_mix": "steady", "to_mix": "other",
         "t0": 0, "t1": 20},
    )
    payload["mixes"]["other"] = {
        "rate": 100,
        "tasks": [{"name": "scan", "weight": 1, "objects": "cold",
                   "kind": "read", "run_count": 8}],
    }
    c = compiled(payload)
    # Equal-rate crossfade: total request mass is conserved while the
    # per-object split moves from 'steady' to 'other'.
    assert c.rate_integral() == pytest.approx(100 * 20, rel=1e-9)
    first, last = c.segments[0], c.segments[-1]
    assert first.object_rate("hot") > last.object_rate("hot")
    assert first.object_rate("cold") < last.object_rate("cold")


# ----------------------------------------------------------------------
# Workload fitting and lowering
# ----------------------------------------------------------------------

def test_mean_workloads_split_rates():
    workloads = {w.name: w for w in compiled().mean_workloads()}
    # 70 req/s read on hot + half of the 30 req/s write set share.
    assert workloads["hot"].read_rate == pytest.approx(70.0)
    assert workloads["hot"].write_rate == pytest.approx(15.0)
    assert workloads["cold"].write_rate == pytest.approx(15.0)
    assert workloads["cold"].read_rate == pytest.approx(0.0)
    assert workloads["hot"].overlap["cold"] == pytest.approx(1.0)


def test_baseline_workloads_cover_first_entry():
    c = compiled(with_schedule(
        {"mix": "steady", "shape": "constant", "t0": 0, "t1": 10,
         "level": 2.0},
        {"mix": "steady", "shape": "constant", "t0": 10, "t1": 20,
         "level": 0.5},
    ))
    baseline = {w.name: w for w in c.baseline_workloads()}
    assert baseline["hot"].read_rate == pytest.approx(140.0)


def test_problem_payload_round_trips_through_cli_loader():
    from repro.problem_io import load_problem

    problem = load_problem(compiled().problem_payload())
    assert problem.object_names == ["hot", "cold"]
    assert [t.name for t in problem.targets] == ["d0", "d1"]


def test_problem_payload_requires_targets():
    payload = base_payload()
    payload.pop("targets")
    with pytest.raises(ScenarioError, match="targets"):
        compiled(payload).problem_payload()


def test_initial_layout_lowering():
    payload = base_payload()
    payload["initial_layout"] = {"hot": [1.0, 0.0], "cold": [0.5, 0.5]}
    layout = compiled(payload).initial_layout()
    fractions = layout.fractions_by_name()
    assert fractions["hot"] == pytest.approx([1.0, 0.0])
    assert fractions["cold"] == pytest.approx([0.5, 0.5])
    assert compiled(base_payload()).initial_layout() is None


def test_chunks_partition_trace():
    c = compiled()
    trace = c.synthesize_trace()
    chunks = c.chunks(5.0, trace=trace)
    assert len(chunks) == 4
    assert sum(len(chunk) for chunk in chunks) == len(trace)
    for index, chunk in enumerate(chunks[:-1]):
        for record in chunk:
            assert record.finish_time < (index + 1) * 5.0 + 1e-9


def test_tenant_schedule_respects_cap_and_horizon():
    payload = base_payload()
    payload["tenants"] = {"arrival_rate_per_s": 2.0,
                          "mean_lifetime_s": 6, "max_active": 3}
    c = compiled(payload)
    events = c.tenant_schedule()
    assert events, "expected arrivals at 2/s over 20 s"
    for event in events:
        assert 0.0 <= event.arrive_s < event.depart_s <= c.duration_s
    for event in events:
        live = sum(1 for other in events
                   if other.arrive_s <= event.arrive_s < other.depart_s)
        assert live <= 3


def test_negative_compile_seed_rejected():
    with pytest.raises(ScenarioError, match="non-negative"):
        compiled(seed=-1)
