"""Tests for trace persistence and summary statistics."""

import pytest

from repro.errors import ReproError
from repro.storage.request import CompletionRecord
from repro.workload.trace_io import (
    load_trace,
    object_totals,
    rate_series,
    save_trace,
    target_busy_series,
)


def _record(obj="a", t=0.0, kind="read", size=8192, target="t0",
            service=0.001):
    return CompletionRecord(
        submit_time=t, finish_time=t, target=target, obj=obj, stream_id=1,
        kind=kind, lba=0, logical_offset=0, size=size, service_time=service,
    )


def test_save_load_round_trip(tmp_path):
    trace = [_record(t=0.1), _record(obj="b", t=0.2, kind="write")]
    path = str(tmp_path / "trace.jsonl")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    save_trace([_record()], str(path))
    path.write_text(path.read_text() + "\n\n")
    assert len(load_trace(str(path))) == 1


def test_rate_series_counts_per_window():
    trace = [_record(t=0.1), _record(t=0.4), _record(t=1.2)]
    series = rate_series(trace, window_s=1.0)
    assert series == [(0.0, 2.0), (1.0, 1.0)]


def test_rate_series_filters():
    trace = [
        _record(obj="a", t=0.1, kind="read"),
        _record(obj="b", t=0.2, kind="write"),
    ]
    assert rate_series(trace, obj="a")[0][1] == 1.0
    assert rate_series(trace, kind="write")[0][1] == 1.0
    assert rate_series(trace, obj="zzz") == []


def test_object_totals():
    trace = [
        _record(obj="a", kind="read", size=8192, service=0.002),
        _record(obj="a", kind="write", size=4096, service=0.004),
        _record(obj="b", kind="read", size=8192, service=0.001),
    ]
    totals = object_totals(trace)
    assert totals["a"]["reads"] == 1
    assert totals["a"]["writes"] == 1
    assert totals["a"]["read_bytes"] == 8192
    assert totals["a"]["write_bytes"] == 4096
    assert totals["a"]["mean_service_s"] == pytest.approx(0.003)
    assert totals["b"]["reads"] == 1


def test_untagged_records_skipped_in_totals():
    trace = [_record(obj=None)]
    assert object_totals(trace) == {}


def test_target_busy_series_bounded_by_one():
    trace = [
        _record(target="t0", t=0.1, service=0.4),
        _record(target="t0", t=0.2, service=0.9),
        _record(target="t1", t=1.5, service=0.2),
    ]
    series = target_busy_series(trace, window_s=1.0)
    assert series["t0"][0][1] == 1.0  # clamped: 1.3 s busy in a 1 s window
    assert series["t1"][1][1] == pytest.approx(0.2)

# ----------------------------------------------------------------------
# Round-trip property: save_trace / load_trace preserve every field
# ----------------------------------------------------------------------

from hypothesis import given, settings, strategies as st

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12,
)
_times = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)

_records_strategy = st.builds(
    CompletionRecord,
    submit_time=_times,
    finish_time=_times,
    target=_names,
    obj=st.one_of(st.none(), _names),
    stream_id=st.integers(min_value=0, max_value=1 << 31),
    kind=st.sampled_from(["read", "write"]),
    lba=st.integers(min_value=0, max_value=1 << 48),
    logical_offset=st.one_of(
        st.none(), st.integers(min_value=0, max_value=1 << 48)
    ),
    size=st.integers(min_value=1, max_value=1 << 24),
    service_time=_times,
)


@settings(max_examples=50, deadline=None)
@given(trace=st.lists(_records_strategy, max_size=25))
def test_round_trip_preserves_all_fields(tmp_path_factory, trace):
    path = str(tmp_path_factory.mktemp("trace") / "trace.jsonl")
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_round_trip_empty_trace(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    save_trace([], path)
    assert load_trace(path) == []


def test_round_trip_preserves_out_of_order_timestamps(tmp_path):
    # Persistence is not allowed to reorder: analyzers decide for
    # themselves whether to sort.
    trace = [_record(t=5.0), _record(t=1.0), _record(t=3.0)]
    path = str(tmp_path / "ooo.jsonl")
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    assert [r.finish_time for r in loaded] == [5.0, 1.0, 3.0]


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e309",
                                   '"inf"', "true", "null"])
def test_load_trace_rejects_a_non_finite_time(tmp_path, value):
    path = tmp_path / "trace.jsonl"
    save_trace([_record(t=0.1), _record(t=0.2)], str(path))
    good = path.read_text().splitlines()[0]
    bad = good.replace('"finish_time": 0.1', '"finish_time": ' + value)
    assert bad != good
    path.write_text("\n".join([good, "", bad]) + "\n")
    with pytest.raises(ReproError,
                       match=r"trace\.jsonl:3: finish_time must be a "
                             r"finite number"):
        load_trace(str(path))


@pytest.mark.parametrize("line,message", [
    ('{"finish_time": 0.1', r"trace\.jsonl:2: not a trace record "
                            r"\(not a JSON object\)"),
    ('{"finish_time": 0.1}', r"trace\.jsonl:2: not a trace record "
                             r"\(missing 'submit_time'\)"),
    ('[1, 2]', r"trace\.jsonl:2: not a trace record \(not a JSON object\)"),
])
def test_load_trace_names_a_malformed_line(tmp_path, line, message):
    path = tmp_path / "trace.jsonl"
    save_trace([_record(t=0.1)], str(path))
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(ReproError, match=message):
        load_trace(str(path))
