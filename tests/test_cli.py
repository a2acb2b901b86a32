"""Tests for the standalone CLI advisor."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import load_problem, main
from repro.units import gib, mib


@pytest.fixture
def problem_file(tmp_path):
    data = {
        "stripe_size": 1 << 20,
        "targets": [
            {"name": "disk0", "capacity": gib(2), "kind": "disk15k"},
            {"name": "disk1", "capacity": gib(2), "kind": "disk15k"},
            {"name": "ssd", "capacity": mib(512), "kind": "ssd"},
        ],
        "objects": [
            {"name": "lineitem", "size": gib(1), "read_rate": 800,
             "run_count": 64, "overlap": {"orders": 0.9}},
            {"name": "orders", "size": mib(300), "read_rate": 300,
             "run_count": 64, "overlap": {"lineitem": 0.9}},
            {"name": "hot_index", "size": mib(200), "read_rate": 200,
             "run_count": 1},
        ],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_load_problem_builds_layout_problem(problem_file):
    with open(problem_file) as handle:
        problem = load_problem(json.load(handle))
    assert problem.n_objects == 3
    assert problem.n_targets == 3
    assert problem.target_names == ["disk0", "disk1", "ssd"]


def test_advise_prints_layout(problem_file, capsys):
    assert main(["advise", problem_file]) == 0
    out = capsys.readouterr().out
    assert "lineitem" in out
    assert "max utilization after" in out


def test_advise_json_output(problem_file, capsys):
    assert main(["advise", problem_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["layout"]) == {"lineitem", "orders", "hot_index"}
    assert payload["max_utilization"]["solver"] <= (
        payload["max_utilization"]["see"] + 1e-9
    )
    # JSON rows are valid fractions.
    for row in payload["layout"].values():
        assert abs(sum(row) - 1.0) < 1e-6


def test_advise_non_regular(problem_file, capsys):
    assert main(["advise", problem_file, "--non-regular", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "regular" not in payload["max_utilization"]


def test_missing_file_is_an_error(capsys):
    assert main(["advise", "/nonexistent/problem.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_problem_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"targets": [], "objects": []}))
    assert main(["advise", str(path)]) == 1


def test_unknown_target_kind_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "targets": [{"name": "t", "capacity": gib(1), "kind": "tape"}],
        "objects": [{"name": "a", "size": mib(1)}],
    }))
    assert main(["advise", str(path)]) == 1



@pytest.mark.parametrize("members", [0, -2, 1.5, True])
def test_bad_raid_members_is_an_error(tmp_path, capsys, members):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "targets": [{"name": "r", "capacity": gib(1), "kind": "raid0",
                     "members": members}],
        "objects": [{"name": "a", "size": mib(1), "read_rate": 10}],
    }))
    assert main(["advise", str(path)]) == 1
    assert "targets[0].members must be a positive integer" \
        in capsys.readouterr().err

def test_raid_target_kind(tmp_path, capsys):
    path = tmp_path / "raid.json"
    path.write_text(json.dumps({
        "targets": [
            {"name": "raid", "capacity": gib(4), "kind": "raid0",
             "members": 3},
            {"name": "disk", "capacity": gib(2), "kind": "disk7200"},
        ],
        "objects": [
            {"name": "a", "size": gib(1), "read_rate": 500, "run_count": 32},
        ],
    }))
    assert main(["advise", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # The 3-wide RAID0 is the faster target; the hot object should use it.
    assert payload["layout"]["a"][0] > 0


# ----------------------------------------------------------------------
# Online subcommands: monitor / replay-online
# ----------------------------------------------------------------------

def _write_trace(path, specs):
    """specs: list of (obj, rate, t0, t1); writes a synthetic trace."""
    from repro.storage.request import CompletionRecord
    from repro.workload.trace_io import save_trace

    records = []
    for obj, rate, t0, t1 in specs:
        for i in range(int((t1 - t0) * rate)):
            t = t0 + (i + 0.5) / rate
            records.append(CompletionRecord(
                submit_time=t - 0.001, finish_time=t, target="disk0",
                obj=obj, stream_id=1, kind="read", lba=0,
                logical_offset=None, size=8192, service_time=0.001,
            ))
    records.sort(key=lambda r: r.finish_time)
    save_trace(records, str(path))


@pytest.fixture
def online_problem_file(tmp_path):
    data = {
        "stripe_size": 1 << 20,
        "targets": [
            {"name": "disk0", "capacity": mib(512), "kind": "disk15k"},
            {"name": "disk1", "capacity": mib(512), "kind": "disk15k"},
        ],
        "objects": [
            {"name": "a", "size": mib(64), "read_rate": 50},
            {"name": "b", "size": mib(64)},
        ],
    }
    path = tmp_path / "online_problem.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_monitor_prints_fitted_rates(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 30.0)])
    assert main(["monitor", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "monitored 1500 records" in out
    assert "a" in out


def test_monitor_json_payload(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 30.0)])
    assert main(["monitor", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["observed"] == 1500
    assert payload["objects"]["a"]["read_rate"] == pytest.approx(50.0,
                                                                 rel=0.05)


def test_replay_online_reports_decisions(online_problem_file, tmp_path,
                                         capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 120.0), ("b", 150.0, 20.0, 120.0)])
    events = tmp_path / "events.jsonl"
    assert main(["replay-online", online_problem_file, str(trace),
                 "--non-regular", "--events", str(events)]) == 0
    out = capsys.readouterr().out
    assert "online controller summary" in out
    assert "final layout" in out
    kinds = {json.loads(line)["kind"]
             for line in events.read_text().splitlines() if line}
    assert "baseline" in kinds
    assert "check" in kinds


def test_replay_online_json_payload(online_problem_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 120.0), ("b", 150.0, 20.0, 120.0)])
    assert main(["replay-online", online_problem_file, str(trace),
                 "--non-regular", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"initial", "final_layout", "resolves",
                            "emergencies", "events"}
    kinds = {e["kind"] for e in payload["events"]}
    # The surge of "b" drifts the workload and forces decisions; the
    # advisor's striped start is already optimal for it, so the
    # re-solves come back as justified rejections, not migrations.
    assert "trigger" in kinds
    assert "reject" in kinds
    assert payload["resolves"] == sum(
        1 for e in payload["events"] if e["kind"] == "accept"
    )
    assert set(payload["final_layout"]) == {"a", "b"}
    for row in payload["final_layout"].values():
        assert sum(row) == pytest.approx(1.0)


def test_replay_online_missing_trace_is_an_error(online_problem_file,
                                                 capsys):
    assert main(["replay-online", online_problem_file,
                 "/nonexistent/trace.jsonl"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_replay_online_rejects_a_non_finite_time(online_problem_file,
                                                 tmp_path, value):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 10.0)])
    lines = trace.read_text().splitlines()
    last = json.loads(lines[-1])
    lines[-1] = json.dumps(last).replace(
        '"finish_time": %r' % last["finish_time"], '"finish_time": ' + value)
    trace.write_text("\n".join(lines) + "\n")
    # A child process: a replay that accepts an infinite time never
    # returns, so this must time out rather than hang the suite.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "replay-online",
         online_problem_file, str(trace), "--non-regular"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 1
    assert "trace.jsonl:%d: finish_time must be a finite number" \
        % len(lines) in run.stderr


# ----------------------------------------------------------------------
# Chaos flags: fault injection from the command line
# ----------------------------------------------------------------------

def test_replay_online_chaos_seed_injects_faults(online_problem_file,
                                                 tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 120.0), ("b", 150.0, 20.0, 120.0)])
    assert main(["replay-online", online_problem_file, str(trace),
                 "--non-regular", "--chaos-seed", "7",
                 "--solver-budget", "30"]) == 0
    out = capsys.readouterr().out
    assert "faults injected" in out


def test_replay_online_chaos_seed_is_deterministic(online_problem_file,
                                                   tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 120.0), ("b", 150.0, 20.0, 120.0)])
    argv = ["replay-online", online_problem_file, str(trace),
            "--non-regular", "--chaos-seed", "3", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["final_layout"] == second["final_layout"]
    assert ([e["kind"] for e in first["events"]]
            == [e["kind"] for e in second["events"]])


def test_replay_online_fault_plan_file(online_problem_file, tmp_path,
                                       capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 120.0), ("b", 150.0, 20.0, 120.0)])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"faults": [
        {"time": 30.0, "kind": "fail-stop", "target": "disk0"},
    ]}))
    assert main(["replay-online", online_problem_file, str(trace),
                 "--non-regular", "--fault-plan", str(plan),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {e["kind"] for e in payload["events"]}
    assert "fault" in kinds
    assert "emergency" in kinds
    assert payload["emergencies"] >= 1
    # The dead target holds nothing at the end.
    for row in payload["final_layout"].values():
        assert row[0] <= 1e-9


def test_replay_online_fault_plan_unknown_target_is_an_error(
        online_problem_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 30.0)])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"faults": [
        {"time": 5.0, "kind": "fail-stop", "target": "no-such-disk"},
    ]}))
    assert main(["replay-online", online_problem_file, str(trace),
                 "--fault-plan", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no-such-disk" in err


def test_replay_online_malformed_fault_plan_is_an_error(
        online_problem_file, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    _write_trace(trace, [("a", 50.0, 0.0, 30.0)])
    plan = tmp_path / "plan.json"
    plan.write_text("{not json")
    assert main(["replay-online", online_problem_file, str(trace),
                 "--fault-plan", str(plan)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_advise_method_partitioned(problem_file, capsys):
    """--method partitioned routes the solve through the overlap-graph
    decomposition and reports its method in the JSON payload."""
    assert main(["advise", problem_file, "--method", "partitioned",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] in ("partitioned", "partitioned-fallback")
    for row in payload["layout"].values():
        assert sum(row) == pytest.approx(1.0, abs=1e-6)


def test_advise_method_explicit_coordinate(problem_file, capsys):
    assert main(["advise", problem_file, "--method", "coordinate",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "coordinate"


def test_advise_rejects_unknown_method(problem_file, capsys):
    with pytest.raises(SystemExit):
        main(["advise", problem_file, "--method", "simplex"])


def test_advise_solver_budget_accepts_and_solves(problem_file, capsys):
    assert main(["advise", problem_file, "--solver-budget", "30",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degraded"] is False
    assert payload["watchdog_rung"] == "portfolio"


# ----------------------------------------------------------------------
# Observability: advise --trace / replay-online --metrics / report
# ----------------------------------------------------------------------

def test_advise_trace_writes_span_tree(problem_file, tmp_path, capsys):
    from repro.obs.export import read_trace

    out = tmp_path / "trace.jsonl"
    assert main(["advise", problem_file, "--restarts", "2",
                 "--trace", str(out)]) == 0
    assert "trace written to" in capsys.readouterr().out

    trace = read_trace(str(out))
    assert trace.meta["command"] == "advise"
    assert trace.meta["restarts"] == 2
    roots, children = trace.tracer.tree()
    assert [s.name for s in roots] == ["advise"]
    stages = [s.name for s in children[roots[0].span_id]]
    assert stages == ["advise.initial", "advise.solve", "advise.regularize"]
    assert trace.tracer.find("solver.restart")
    series = trace.metrics.find("repro_solver_convergence")
    assert series
    assert all(s.field("objective") for _, s in series)
    assert trace.metrics.get("repro_evaluator_full_evaluations_total")


def test_advise_trace_prom_extension_writes_prometheus(problem_file,
                                                       tmp_path, capsys):
    out = tmp_path / "metrics.prom"
    assert main(["advise", problem_file, "--trace", str(out)]) == 0
    text = out.read_text()
    assert "# TYPE repro_evaluator_full_evaluations_total counter" in text
    assert 'repro_advise_objective{stage="solver"}' in text


def test_advise_without_trace_writes_nothing(problem_file, tmp_path,
                                             capsys):
    assert main(["advise", problem_file]) == 0
    assert "trace written" not in capsys.readouterr().out


def test_report_renders_saved_trace(problem_file, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["advise", problem_file, "--trace", str(out)]) == 0
    capsys.readouterr()

    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    for heading in ("stage times", "solver restarts", "evaluator cache",
                    "objective (max target utilization)"):
        assert heading in text, heading
    assert "cache hit rate" in text
    assert "span tree" not in text

    assert main(["report", str(out), "--tree"]) == 0
    tree_text = capsys.readouterr().out
    assert "span tree" in tree_text
    assert "advise.solve" in tree_text


def test_report_missing_file_is_an_error(capsys):
    assert main(["report", "/nonexistent/trace.jsonl"]) == 1
    assert "error" in capsys.readouterr().err


def test_report_corrupt_trace_is_one_line_error(tmp_path, capsys):
    """A garbled trace gets one clean diagnostic, not a traceback."""
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type": "meta"}\n{torn line, not JSON\n')
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_report_non_object_trace_line_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type": "meta"}\n"a string, not a record"\n')
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "not an instrumentation trace record" in err
    assert len(err.strip().splitlines()) == 1


def test_report_renders_controller_event_log(tmp_path, capsys):
    """``report`` on a controller event log prints the run summary —
    including the skipped-malformed-line counter, with the per-line
    warnings silenced (the summary already says it)."""
    import warnings

    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([
        json.dumps({"seq": 0, "time": 0.0, "kind": "baseline"}),
        json.dumps({"seq": 1, "time": 2.0, "kind": "check"}),
        "{torn line",
        json.dumps({"seq": 2, "time": 4.0, "kind": "trigger",
                    "reason": "utilization"}),
    ]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI must not leak warnings
        assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "online controller summary" in out
    assert "SKIPPED" in out
    assert "drift triggers" in out


def test_replay_online_metrics_trace(online_problem_file, tmp_path,
                                     capsys):
    from repro.obs.export import read_trace

    trace_path = tmp_path / "trace.jsonl"
    _write_trace(trace_path, [("a", 50.0, 0.0, 120.0),
                              ("b", 150.0, 20.0, 120.0)])
    metrics_path = tmp_path / "metrics.jsonl"
    assert main(["replay-online", online_problem_file, str(trace_path),
                 "--non-regular", "--metrics", str(metrics_path)]) == 0
    assert "metrics written to" in capsys.readouterr().out

    trace = read_trace(str(metrics_path))
    assert trace.meta["command"] == "replay-online"
    assert trace.meta["records"] == 21000
    # Controller decisions and simulator metrics share the file.
    checks = trace.metrics.get("repro_online_events_total", kind="check")
    assert checks is not None and checks.value > 0
    latency = trace.metrics.get("repro_sim_request_latency_seconds",
                                target="disk0")
    assert latency is not None and latency.count == 21000
    # The initial advise was instrumented through the same bundle.
    assert trace.tracer.find("advise")

    capsys.readouterr()
    assert main(["report", str(metrics_path)]) == 0
    text = capsys.readouterr().out
    assert "online controller" in text
    assert "simulator (per target)" in text


def test_report_request_trace_renders_stitched_tree(tmp_path, capsys):
    # The JSON shape of GET /debug/traces/{id}: summary + spans.
    payload = {
        "trace_id": "cafe0123", "route": "advise", "tenant": "t1",
        "status": 200, "duration_s": 0.2, "queue_wait_s": 0.01,
        "solve_s": 0.15, "rung": "portfolio", "worker_pids": [999],
        "spans": [
            {"type": "span", "id": 1, "name": "request",
             "start_s": 0.0, "end_s": 0.2},
            {"type": "span", "id": 2, "name": "scheduler.queue",
             "parent": 1, "start_s": 0.0, "end_s": 0.01},
            {"type": "span", "id": 3, "name": "pool.dispatch",
             "parent": 1, "start_s": 0.01, "end_s": 0.18},
            {"type": "span", "id": 4, "name": "worker.advise",
             "parent": 3, "start_s": 0.02, "end_s": 0.17,
             "tags": {"pid": 999}},
            {"type": "span", "id": 5, "name": "advise.solve",
             "parent": 4, "start_s": 0.03},
        ],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    assert main(["report", str(path), "--request-trace"]) == 0
    text = capsys.readouterr().out
    assert "request cafe0123" in text
    assert "rung" in text and "portfolio" in text
    assert "queue wait" in text and "solve" in text
    assert "1 local + 1 worker (pid 999)" in text
    for name in ("request", "scheduler.queue", "pool.dispatch",
                 "worker.advise"):
        assert name in text
    assert "pid=999" in text
    # The solve span was still open when the ring captured the trace.
    assert "…running" in text
    # Full depth by default: the level-4 span is visible.
    assert "advise.solve" in text


def test_report_request_trace_reads_a_feed_payload(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "trace_id": "aa", "route": "feed", "status": 200,
        "duration_s": 0.1,
        "spans": [{"type": "span", "id": 1, "name": "request",
                   "start_s": 0.0, "end_s": 0.1}],
    }))
    assert main(["report", str(path), "--request-trace"]) == 0
    text = capsys.readouterr().out
    assert "request aa" in text
    assert "feed" in text


def test_report_request_trace_rejects_ordinary_trace(tmp_path, capsys):
    path = tmp_path / "plain.jsonl"
    path.write_text(json.dumps({"type": "meta", "format": 1}) + "\n")
    assert main(["report", str(path), "--request-trace"]) == 1
    assert "no request record" in capsys.readouterr().err
