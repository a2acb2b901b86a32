"""Exporters: unified JSONL traces and Prometheus text exposition.

One trace file carries the whole observability state of a run — a meta
header line, every span, and every metric — as JSON-lines, so a single
``--trace out.jsonl`` flag captures enough to reconstruct the span tree
*and* the cache/convergence metrics afterwards (``repro.cli report``).

The Prometheus writer emits the text exposition format (``# TYPE``
headers, ``name{label="value"} value`` samples, cumulative
``_bucket``/``_sum``/``_count`` triples for histograms) for scraping or
for pushing through a textfile collector.  Series instruments are a
local extension with no Prometheus equivalent and are skipped there.
"""

import json

from repro import jsonl
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Format version stamped into the meta line of every trace file.
TRACE_FORMAT = 1


class TraceData:
    """A trace file read back: spans, metrics, and the meta header."""

    def __init__(self, tracer, metrics, meta=None):
        self.tracer = tracer
        self.metrics = metrics
        self.meta = meta or {}

    @property
    def spans(self):
        return self.tracer.spans


def trace_records(instrumentation, meta=None):
    """Every JSONL record of one instrumented run, meta line first."""
    header = {"type": "meta", "format": TRACE_FORMAT}
    if meta:
        header.update(meta)
    records = [header]
    records.extend(instrumentation.tracer.to_records())
    records.extend(instrumentation.metrics.to_records())
    return records


def write_trace(path, instrumentation, meta=None):
    """Write spans + metrics as one JSONL trace file."""
    return jsonl.write(path, trace_records(instrumentation, meta=meta))


def read_trace(path):
    """Load a JSONL trace file into a :class:`TraceData`.

    Raises :class:`~repro.errors.ReproError` when a line is not a JSON
    object — the file is not (or no longer) an instrumentation trace —
    so CLI callers report one clean error instead of a traceback.
    """
    records, bad, _ = jsonl.read(path)
    if bad:
        raise ReproError("%s:%d: not an instrumentation trace record"
                         % (path, bad[0]))
    meta = next((r for r in records if r.get("type") == "meta"), {})
    return TraceData(
        Tracer.from_records(records),
        MetricsRegistry.from_records(records),
        meta=meta,
    )


def read_request_trace(path):
    """Load one stitched serve-layer request trace into a
    :class:`TraceData`.

    The file is the JSON payload of ``GET /debug/traces/{trace_id}``:
    one object with the request summary plus a ``"spans"`` list.
    Raises :class:`~repro.errors.ReproError` when it is not, so
    ``repro.cli report --request-trace`` reports one clean error.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as error:
        raise ReproError("%s: not a request-trace record (%s)"
                         % (path, error)) from None
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("spans"), list):
        raise ReproError(
            '%s: no request record (an object with a "spans" list) — is '
            "this a request trace?" % path
        )
    meta = {key: value for key, value in payload.items() if key != "spans"}
    return TraceData(
        Tracer.from_records(payload["spans"]),
        MetricsRegistry.from_records(payload["spans"]),
        meta=meta,
    )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_label_value(value):
    return (str(value)
            .replace("\\", "\\\\")
            .replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _label_text(labels, extra=None):
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(
        '%s="%s"' % (key, _escape_label_value(value))
        for key, value in sorted(items.items())
    )
    return "{%s}" % body


def _format_value(value):
    """One sample value in exposition syntax.

    Strict parsers accept only ``+Inf`` / ``-Inf`` / ``NaN`` for the
    non-finite floats — Python's ``repr`` spellings (``inf``, ``-inf``,
    ``nan``) are rejected — so the three specials are mapped explicitly.
    """
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value)


def prometheus_text(metrics, extra_labels=None):
    """Render a registry in the Prometheus text exposition format.

    ``extra_labels`` are appended to every sample (the serving layer
    stamps ``tenant="..."`` this way).
    """
    return prometheus_text_multi([(extra_labels or {}, metrics)])


def prometheus_text_multi(sections):
    """Render several registries as one valid exposition document.

    Args:
        sections: Iterable of ``(extra_labels, registry)`` pairs.  Each
            registry's samples get its extra labels; samples of the
            same metric name from different sections are grouped under
            a single ``# TYPE`` header, as the exposition format
            requires (the multi-tenant ``/metrics`` endpoint renders
            one section per tenant plus one for the service itself).
    """
    by_name = {}
    for extra, metrics in sections:
        for kind, name, labels, instrument in metrics:
            if kind == "series":
                continue
            merged = dict(labels)
            if extra:
                merged.update(extra)
            by_name.setdefault((name, kind), []).append((merged, instrument))

    lines = []
    for (name, kind), rows in sorted(by_name.items()):
        lines.append("# TYPE %s %s" % (name, kind))
        for labels, instrument in rows:
            if kind in ("counter", "gauge"):
                lines.append("%s%s %s" % (
                    name, _label_text(labels),
                    _format_value(instrument.value),
                ))
            else:  # histogram
                cumulative = instrument.cumulative_counts()
                bounds = list(instrument.bounds) + [float("inf")]
                for bound, count in zip(bounds, cumulative):
                    lines.append("%s_bucket%s %d" % (
                        name,
                        _label_text(labels, {"le": _format_value(bound)}),
                        count,
                    ))
                lines.append("%s_sum%s %s" % (
                    name, _label_text(labels),
                    _format_value(instrument.sum),
                ))
                lines.append("%s_count%s %d" % (
                    name, _label_text(labels), instrument.count,
                ))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path, metrics):
    """Write the registry as a Prometheus text-format file."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(metrics))
    return path
