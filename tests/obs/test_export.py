"""Tests for the exporters: unified JSONL traces and Prometheus text.

The Prometheus test validates the rendered output line-by-line against
the text exposition-format grammar (TYPE comments, ``name{labels}
value`` samples, cumulative ``_bucket``/``_sum``/``_count`` triples
with a ``+Inf`` bucket equal to the count), not just substrings — a
malformed escape or a non-cumulative bucket must fail.
"""

import json
import re

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.errors import ReproError
from repro.obs.export import (
    TRACE_FORMAT,
    prometheus_text,
    prometheus_text_multi,
    read_request_trace,
    read_trace,
    trace_records,
    write_prometheus,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry

METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
#: One sample line: name, optional {labels}, value.
SAMPLE_RE = re.compile(
    r"^(?P<name>%s)(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$" % METRIC_NAME
)
LABEL_RE = re.compile(
    r'^(?P<name>%s)="(?P<value>(?:[^"\\]|\\.)*)"$' % LABEL_NAME
)
TYPE_RE = re.compile(
    r"^# TYPE (?P<name>%s) (?P<kind>counter|gauge|histogram|summary|untyped)$"
    % METRIC_NAME
)


def _parse_value(text):
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_exposition(text):
    """Strict-enough parser for the subset of the format we emit.

    Returns ``(types, samples)``: metric name → declared type, and a
    list of ``(name, labels_dict, value)``.
    """
    types = {}
    samples = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            match = TYPE_RE.match(line)
            assert match, "malformed comment line: %r" % line
            types[match.group("name")] = match.group("kind")
            continue
        match = SAMPLE_RE.match(line)
        assert match, "malformed sample line: %r" % line
        labels = {}
        if match.group("labels"):
            for part in match.group("labels").split(","):
                label = LABEL_RE.match(part)
                assert label, "malformed label: %r in %r" % (part, line)
                labels[label.group("name")] = label.group("value")
        samples.append(
            (match.group("name"), labels, _parse_value(match.group("value")))
        )
    return types, samples


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", target="d0", kind="read").inc(5)
    registry.counter("repro_requests_total", target="d1", kind="write").inc(2)
    registry.gauge("repro_utilization", target="d0").set(0.75)
    histogram = registry.histogram(
        "repro_latency_seconds", buckets=(0.001, 0.01, 0.1), target="d0"
    )
    for value in (0.0005, 0.005, 0.005, 0.05, 2.0):
        histogram.observe(value)
    registry.series("repro_convergence", attempt=0).record(
        iteration=0, objective=1.0
    )
    return registry


def test_prometheus_output_parses_under_grammar(registry):
    types, samples = parse_exposition(prometheus_text(registry))
    assert types["repro_requests_total"] == "counter"
    assert types["repro_utilization"] == "gauge"
    assert types["repro_latency_seconds"] == "histogram"
    values = {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in samples
    }
    assert values[("repro_requests_total",
                   (("kind", "read"), ("target", "d0")))] == 5
    assert values[("repro_utilization", (("target", "d0"),))] == 0.75


def test_prometheus_histogram_buckets_are_cumulative(registry):
    _, samples = parse_exposition(prometheus_text(registry))
    buckets = [(labels["le"], value) for name, labels, value in samples
               if name == "repro_latency_seconds_bucket"]
    bounds = [_parse_value(le) for le, _ in buckets]
    counts = [value for _, value in buckets]
    assert bounds == sorted(bounds)
    assert bounds[-1] == float("inf")
    assert counts == [1, 3, 4, 5]                      # cumulative
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    count = next(value for name, labels, value in samples
                 if name == "repro_latency_seconds_count")
    total = next(value for name, labels, value in samples
                 if name == "repro_latency_seconds_sum")
    assert counts[-1] == count == 5
    assert total == pytest.approx(2.0605)


def test_prometheus_skips_series_instruments(registry):
    text = prometheus_text(registry)
    assert "repro_convergence" not in text


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("c", path='a"b\\c\nd').inc()
    text = prometheus_text(registry)
    assert '\\"' in text and "\\\\" in text and "\\n" in text
    types, samples = parse_exposition(text)
    assert samples[0][1]["path"] == 'a\\"b\\\\c\\nd'


def test_prometheus_empty_registry_renders_empty(tmp_path):
    assert prometheus_text(MetricsRegistry()) == ""
    path = tmp_path / "empty.prom"
    write_prometheus(str(path), MetricsRegistry())
    assert path.read_text() == ""


def _instrumented_bundle():
    obs = Instrumentation.on()
    with obs.tracer.span("advise", restarts=2):
        with obs.tracer.span("advise.solve"):
            obs.tracer.finish(
                obs.tracer.start("solver.restart", attempt=0),
                objective=1.5,
            )
    obs.metrics.counter("repro_evaluator_probe_rows_total").inc(10)
    obs.metrics.series("repro_solver_convergence", attempt=0).record(
        iteration=0, objective=2.0
    )
    return obs


def test_trace_records_start_with_meta_header():
    obs = _instrumented_bundle()
    records = trace_records(obs, meta={"command": "advise"})
    assert records[0] == {
        "type": "meta", "format": TRACE_FORMAT, "command": "advise",
    }
    kinds = {record["type"] for record in records[1:]}
    assert kinds == {"span", "metric"}


def test_jsonl_round_trip_reconstructs_span_tree(tmp_path):
    obs = _instrumented_bundle()
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), obs, meta={"command": "advise"})

    # Each line is standalone JSON.
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "meta"

    trace = read_trace(str(path))
    assert trace.meta["command"] == "advise"
    assert trace.meta["format"] == TRACE_FORMAT
    roots, children = trace.tracer.tree()
    assert [s.name for s in roots] == ["advise"]
    solve = children[roots[0].span_id]
    assert [s.name for s in solve] == ["advise.solve"]
    restart = children[solve[0].span_id]
    assert [s.name for s in restart] == ["solver.restart"]
    assert restart[0].tags == {"attempt": 0, "objective": 1.5}
    assert trace.metrics.get("repro_evaluator_probe_rows_total").value == 10
    series = trace.metrics.get("repro_solver_convergence", attempt=0)
    assert series.field("objective") == [2.0]


def test_write_trace_coerces_numpy_tags(tmp_path):
    obs = Instrumentation.on()
    obs.tracer.finish(obs.tracer.start("a", index=np.int64(3)))
    path = tmp_path / "trace.jsonl"
    write_trace(str(path), obs)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["meta", "span"]
    assert records[1]["name"] == "a"
    assert records[1]["tags"]["index"] == 3


def test_read_trace_without_meta_line(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text(json.dumps(
        {"type": "metric", "kind": "counter", "name": "c", "value": 1}
    ) + "\n")
    trace = read_trace(str(path))
    assert trace.meta == {}
    assert trace.metrics.get("c").value == 1
    assert trace.spans == []


def test_prometheus_nonfinite_values_use_strict_tokens():
    # Strict exposition parsers reject Python's repr spellings
    # (``inf`` / ``-inf`` / ``nan``); only +Inf / -Inf / NaN are legal.
    registry = MetricsRegistry()
    registry.gauge("g_pos").set(float("inf"))
    registry.gauge("g_neg").set(float("-inf"))
    registry.gauge("g_nan").set(float("nan"))
    text = prometheus_text(registry)
    assert "g_pos +Inf" in text
    assert "g_neg -Inf" in text
    assert "g_nan NaN" in text
    for bad in ("inf\n", "-inf\n", "nan\n"):
        assert bad not in text
    types, samples = parse_exposition(text)
    values = {name: value for name, _, value in samples}
    assert values["g_pos"] == float("inf")
    assert values["g_neg"] == float("-inf")
    assert values["g_nan"] != values["g_nan"]


def test_prometheus_multi_tenant_sections_escape_and_group():
    service = MetricsRegistry()
    service.counter("repro_requests_total", route="advise").inc(3)
    tenant = MetricsRegistry()
    tenant.counter("repro_requests_total", route="advise").inc(2)
    text = prometheus_text_multi([
        ({}, service),
        ({"tenant": 'evil"name\\with\nnewline'}, tenant),
    ])
    # One TYPE header even though two sections emit the metric.
    assert text.count("# TYPE repro_requests_total counter") == 1
    types, samples = parse_exposition(text)
    tenant_labels = [labels for _, labels, _ in samples if "tenant" in labels]
    assert tenant_labels == [
        {"route": "advise", "tenant": 'evil\\"name\\\\with\\nnewline'}
    ]


def test_read_request_trace_debug_payload(tmp_path):
    payload = {
        "trace_id": "feed1234", "route": "advise", "status": 200,
        "duration_s": 0.5, "worker_pids": [7],
        "spans": [
            {"type": "span", "id": 1, "name": "request",
             "start_s": 0.0, "end_s": 0.5},
            {"type": "span", "id": 2, "name": "pool.dispatch",
             "parent": 1, "start_s": 0.1, "end_s": 0.4},
        ],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    trace = read_request_trace(str(path))
    assert trace.meta["trace_id"] == "feed1234"
    assert "spans" not in trace.meta
    roots, children = trace.tracer.tree()
    assert [s.name for s in roots] == ["request"]
    assert [s.name for s in children[roots[0].span_id]] == ["pool.dispatch"]


def test_read_request_trace_keeps_open_spans_open(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "trace_id": "aa", "status": 200,
        "spans": [{"type": "span", "id": 1, "name": "request",
                   "start_s": 0.0}],
    }))
    trace = read_request_trace(str(path))
    assert trace.meta["trace_id"] == "aa"
    assert [s.name for s in trace.spans] == ["request"]
    # The request span was still open at capture time.
    assert trace.spans[0].duration_s is None


def test_read_request_trace_rejects_non_trace_file(tmp_path):
    path = tmp_path / "nope.jsonl"
    path.write_text(json.dumps({"type": "span", "id": 1, "name": "x",
                                "start_s": 0.0}) + "\n")
    with pytest.raises(ReproError, match="no request record"):
        read_request_trace(str(path))
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("this is not json\n")
    with pytest.raises(ReproError, match="not a request-trace record"):
        read_request_trace(str(garbage))
