"""Trace persistence and summary statistics.

The paper's methodology starts from kernel block-I/O traces collected
on the operational system; in practice those traces are archived and
re-analyzed.  This module gives the simulator's traces the same
lifecycle: save/load completion records as JSON-lines files, and
compute the windowed statistics (request-rate time series, per-object
totals) that a Rubicon-style characterization report shows.
"""

import math
import sys
from collections import defaultdict

from repro import jsonl
from repro.errors import ReproError
from repro.storage.request import CompletionRecord

_FIELDS = (
    "submit_time",
    "finish_time",
    "target",
    "obj",
    "stream_id",
    "kind",
    "lba",
    "logical_offset",
    "size",
    "service_time",
)


def save_trace(trace, path):
    """Write completion records to a JSON-lines file."""
    jsonl.write(path, ({field: getattr(record, field) for field in _FIELDS}
                       for record in trace))


def _finite_number(value):
    if isinstance(value, float):
        return math.isfinite(value)
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_times(finish_time, submit_time, where, *args):
    """Raise :class:`ReproError` naming ``where % args`` unless both of a
    record's times are finite numbers.

    Consumers advance a check clock past each record's time; an
    infinite time is never passed and a NaN compares false with
    everything, so such a record must not get in at all.
    """
    if _finite_number(finish_time) and _finite_number(submit_time):
        return
    field, value = (("finish_time", finish_time)
                    if not _finite_number(finish_time)
                    else ("submit_time", submit_time))
    raise ReproError("%s: %s must be a finite number, got %r"
                     % (where % args, field, value))


def load_trace(path):
    """Read completion records from a JSON-lines file; the first line
    that is not a trace record raises :class:`ReproError` (``path:line``)."""
    records = []
    for number, data in jsonl.scan(path):
        if data is None:
            raise ReproError("%s:%d: not a trace record (not a JSON object)"
                             % (path, number))
        try:
            values = {field: data[field] for field in _FIELDS}
        except KeyError as error:
            raise ReproError("%s:%d: not a trace record (missing %s)"
                             % (path, number, error)) from None
        check_times(values["finish_time"], values["submit_time"],
                    "%s:%d", path, number)
        records.append(CompletionRecord(**values))
    return records


def rate_series(trace, window_s=1.0, obj=None, kind=None):
    """Request-rate time series: list of (window_start, requests/s).

    Args:
        trace: Completion records.
        window_s: Window width in seconds.
        obj: Restrict to one object (None = all).
        kind: Restrict to ``"read"`` or ``"write"`` (None = both).
    """
    counts = defaultdict(int)
    for record in trace:
        if obj is not None and record.obj != obj:
            continue
        if kind is not None and record.kind != kind:
            continue
        counts[int(record.finish_time // window_s)] += 1
    if not counts:
        return []
    last = max(counts)
    return [
        (w * window_s, counts.get(w, 0) / window_s)
        for w in range(0, last + 1)
    ]


def object_totals(trace):
    """Per-object request/byte totals split by kind.

    Returns a mapping ``obj -> {"reads", "writes", "read_bytes",
    "write_bytes", "mean_service_s"}``.
    """
    totals = {}
    service = defaultdict(list)
    for record in trace:
        if record.obj is None:
            continue
        entry = totals.setdefault(record.obj, {
            "reads": 0, "writes": 0, "read_bytes": 0, "write_bytes": 0,
            "mean_service_s": 0.0,
        })
        if record.kind == "read":
            entry["reads"] += 1
            entry["read_bytes"] += record.size
        else:
            entry["writes"] += 1
            entry["write_bytes"] += record.size
        service[record.obj].append(record.service_time)
    for obj, samples in service.items():
        totals[obj]["mean_service_s"] = sum(samples) / len(samples)
    return totals


def target_busy_series(trace, window_s=1.0):
    """Per-target busy-fraction time series from service times.

    Returns ``target -> list of (window_start, busy_fraction)`` — the
    measured counterpart of the advisor's estimated utilizations.
    """
    busy = defaultdict(lambda: defaultdict(float))
    for record in trace:
        window = int(record.finish_time // window_s)
        busy[record.target][window] += record.service_time
    series = {}
    for target, windows in busy.items():
        last = max(windows)
        series[target] = [
            (w * window_s, min(1.0, windows.get(w, 0.0) / window_s))
            for w in range(0, last + 1)
        ]
    return series
