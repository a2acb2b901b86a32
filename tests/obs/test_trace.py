"""Tests for the span tracer: nesting, clocks, round-trips, null path."""

import json

import numpy as np
import pytest

from repro.jsonl import json_default
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, start=100.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def tracer():
    return Tracer(clock=FakeClock())


def test_nested_spans_get_parent_ids(tracer):
    outer = tracer.start("outer")
    inner = tracer.start("inner")
    leaf = tracer.start("leaf")
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert leaf.parent_id == inner.span_id
    tracer.finish(leaf)
    sibling = tracer.start("sibling")
    assert sibling.parent_id == inner.span_id


def test_injected_clock_stamps_durations(tracer):
    span = tracer.start("work")        # clock reads 100
    tracer.finish(span)                # clock reads 101
    assert span.start_s == 100.0
    assert span.end_s == 101.0
    assert span.duration_s == 1.0


def test_explicit_parent_and_forced_root(tracer):
    outer = tracer.start("outer")
    adopted = tracer.start("adopted", parent=outer)
    root = tracer.start("root", parent=False)
    assert adopted.parent_id == outer.span_id
    assert root.parent_id is None


def test_detached_span_is_recorded_but_not_a_parent(tracer):
    outer = tracer.start("outer")
    episode = tracer.start("episode", detached=True)
    child = tracer.start("child")
    assert episode in tracer.spans
    assert episode.parent_id == outer.span_id
    # The detached span never went on the stack: "child" nests under
    # "outer", not under the still-open episode.
    assert child.parent_id == outer.span_id


def test_out_of_order_finish_tolerated(tracer):
    outer = tracer.start("outer")
    inner = tracer.start("inner")
    tracer.finish(outer)
    tracer.finish(inner)
    assert outer.duration_s is not None
    assert inner.duration_s is not None
    # Double finish is a no-op, not a re-stamp.
    end = inner.end_s
    tracer.finish(inner)
    assert inner.end_s == end


def test_context_manager_finishes_and_tags_errors(tracer):
    with tracer.span("ok", method="slsqp") as span:
        pass
    assert span.end_s is not None
    assert span.tags == {"method": "slsqp"}

    with pytest.raises(ValueError):
        with tracer.span("boom") as span:
            raise ValueError("nope")
    assert span.end_s is not None
    assert span.tags["error"] == "ValueError"


def test_event_is_zero_duration(tracer):
    event = tracer.event("online.check", sim_time=5.0)
    assert event.duration_s == 0.0
    assert event.tags["sim_time"] == 5.0


def test_add_span_backdates_to_reported_duration(tracer):
    span = tracer.add_span("solver.restart", 2.5, parallel=True)
    assert span.duration_s == pytest.approx(2.5)
    assert span.end_s == 100.0            # the single clock read
    assert span.tags["parallel"] is True


def test_finish_merges_tags(tracer):
    span = tracer.start("solve", method="slsqp")
    tracer.finish(span, objective=1.25)
    assert span.tags == {"method": "slsqp", "objective": 1.25}


def test_find_and_tree(tracer):
    root = tracer.start("advise")
    tracer.start("advise.solve")
    tracer.finish(tracer.start("solver.restart"))
    assert [s.name for s in tracer.find("solver.restart")] == \
        ["solver.restart"]
    roots, children = tracer.tree()
    assert roots == [root]
    assert [s.name for s in children[root.span_id]] == ["advise.solve"]


def test_render_tree_indents_by_depth(tracer):
    with tracer.span("advise"):
        with tracer.span("advise.solve"):
            pass
    text = tracer.render_tree()
    lines = text.splitlines()
    assert lines[0].startswith("advise")
    assert lines[1].startswith("  advise.solve")
    # Depth limiting prunes children.
    assert "advise.solve" not in tracer.render_tree(max_depth=0)


def test_records_round_trip_preserves_tree(tracer):
    with tracer.span("advise", restarts=2):
        with tracer.span("advise.solve"):
            tracer.event("marker")
    rebuilt = Tracer.from_records(tracer.to_records())
    assert [s.name for s in rebuilt.spans] == \
        [s.name for s in tracer.spans]
    roots, children = rebuilt.tree()
    assert [s.name for s in roots] == ["advise"]
    assert roots[0].tags == {"restarts": 2}
    kids = children[roots[0].span_id]
    assert [s.name for s in kids] == ["advise.solve"]
    # New spans on the rebuilt tracer do not collide with loaded ids.
    fresh = rebuilt.start("later")
    assert fresh.span_id > max(s.span_id for s in tracer.spans)


def test_json_default_coerces_numpy_scalars():
    assert json_default(np.int64(7)) == 7
    assert json_default(np.float64(0.5)) == 0.5
    with pytest.raises(TypeError):
        json_default(object())


def test_open_span_serializes_without_end(tracer):
    span = tracer.start("open")
    record = span.to_record()
    assert "end_s" not in record
    assert Span.from_record(record).duration_s is None


def test_null_tracer_records_nothing():
    null = NullTracer()
    assert null.enabled is False
    span = null.start("anything", tag=1)
    null.finish(span, more=2)
    with null.span("scoped"):
        pass
    null.event("event")
    null.add_span("done", 1.0)
    assert list(null.spans) == []
    assert null.find("anything") == []
    assert null.to_records() == []
    assert null.render_tree() == ""


def test_null_tracer_singleton_span_is_inert():
    span = NULL_TRACER.start("x")
    assert span is NULL_TRACER.start("y")
    span.set_tag("k", "v")
    assert span.tags == {}


# -- cross-process contexts and grafting --------------------------------

def test_trace_context_mint_child_round_trip(tracer):
    ctx = TraceContext.mint()
    assert len(ctx.trace_id) == 16
    assert ctx.parent_span_id is None
    assert ctx.to_dict() == {"trace_id": ctx.trace_id}

    span = tracer.start("pool.dispatch")
    child = ctx.child(span)
    assert child.trace_id == ctx.trace_id
    assert child.parent_span_id == span.span_id
    wire = child.to_dict()
    assert wire == {"trace_id": ctx.trace_id, "parent": span.span_id}
    back = TraceContext.from_dict(json.loads(json.dumps(wire)))
    assert back.trace_id == child.trace_id
    assert back.parent_span_id == child.parent_span_id


def test_mint_produces_unique_trace_ids():
    ids = {TraceContext.mint().trace_id for _ in range(64)}
    assert len(ids) == 64


def _remote_records():
    """A worker-side tree stamped by an unrelated clock epoch."""
    remote = Tracer(clock=FakeClock(start=5000.0))
    root = remote.start("worker.advise")
    inner = remote.start("advise.solve")
    remote.finish(inner)
    remote.finish(root)
    return remote.to_records()


def test_graft_remaps_ids_and_attaches_under_parent(tracer):
    local = tracer.start("pool.dispatch")
    tracer.finish(local)
    grafted = tracer.graft_records(_remote_records(), parent=local)
    assert [s.name for s in grafted] == ["worker.advise", "advise.solve"]
    root, inner = grafted
    # Batch root hangs under the local parent; internal link preserved.
    assert root.parent_id == local.span_id
    assert inner.parent_id == root.span_id
    # Remapped ids continue the local sequence — no collisions.
    ids = [s.span_id for s in tracer.spans]
    assert len(ids) == len(set(ids))
    roots, children = tracer.tree()
    assert [s.name for s in roots] == ["pool.dispatch"]


def test_graft_end_at_shifts_remote_tree_onto_local_clock(tracer):
    local = tracer.start("pool.dispatch")   # 100 → 101
    tracer.finish(local)
    grafted = tracer.graft_records(_remote_records(), parent=local,
                                   end_at=local.end_s)
    root, inner = grafted
    # Latest remote finish lands exactly at end_at; relative structure
    # inside the worker (1s inner inside 3s root) is preserved.
    assert max(s.end_s for s in grafted) == pytest.approx(local.end_s)
    assert root.duration_s == pytest.approx(3.0)
    assert inner.duration_s == pytest.approx(1.0)
    assert inner.start_s > root.start_s
    # Worker-epoch timestamps (~5000) are gone from the local timeline.
    assert all(s.start_s < 200.0 for s in grafted)


def test_graft_keeps_unfinished_remote_spans_open(tracer):
    remote = Tracer(clock=FakeClock(start=9000.0))
    root = remote.start("worker.advise")
    remote.finish(root)
    remote.start("advise.solve")            # never finished (crash)
    grafted = tracer.graft_records(remote.to_records(), end_at=50.0)
    by_name = {s.name: s for s in grafted}
    assert by_name["worker.advise"].end_s == pytest.approx(50.0)
    assert by_name["advise.solve"].end_s is None
    assert by_name["advise.solve"].duration_s is None
    assert "…running" in tracer.render_tree()


def test_graft_without_parent_or_records(tracer):
    assert tracer.graft_records([]) == []
    assert tracer.graft_records([{"type": "metric"}]) == []
    grafted = tracer.graft_records(_remote_records())
    # No parent: batch roots become local roots.
    assert grafted[0].parent_id is None
    assert NULL_TRACER.graft_records(_remote_records()) == []
