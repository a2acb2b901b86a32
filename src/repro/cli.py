"""Command-line layout advisor.

The paper envisions the technique "deployed as a standalone storage
layout advisor, whose output would guide the configuration of both the
database system and the storage system".  This CLI is that standalone
tool: it reads a JSON problem description (the format is documented in
:mod:`repro.problem_io`) and prints the recommended layout (and
optionally the per-stage estimated utilizations).  Target kinds get
analytic cost models; pass ``--calibrate`` to build measured cost
models from the simulator instead.

Usage::

    python -m repro.cli advise problem.json [--non-regular] [--restarts N]
        [--method auto|slsqp|coordinate|anneal|partitioned]
        [--trace out.jsonl]
    python -m repro.cli monitor trace.jsonl [--window W] [--halflife H]
    python -m repro.cli replay-online problem.json trace.jsonl
        [--interval S] [--events out.jsonl] [--metrics out.jsonl|out.prom]
    python -m repro.cli report out.jsonl [--tree] [--request-trace]
    python -m repro.cli serve [--port P] [--workers N] [--state-dir DIR]
        [--snapshot-every N] [--request-timeout S]
        [--default-deadline-ms MS] [--access-log FILE] [--trace-ring N]
    python -m repro.cli scenarios list
    python -m repro.cli scenarios validate FILE [FILE ...]
    python -m repro.cli experiments run matrix.yaml [--workers N]
        [--out BENCH.json] [--report out.txt]

``scenarios``/``experiments`` drive the declarative scenario layer
(:mod:`repro.scenarios`): list or validate YAML scenario specs and
sweep a scenario × controller matrix into a comparison report.

``advise`` is the paper's one-shot offline tool.  ``monitor`` fits
sliding-window workload estimates from an archived completion trace
(:mod:`repro.workload.trace_io` format).  ``replay-online`` closes the
§8 loop offline: it treats the problem file's workload spec as what the
current layout was solved for, replays the trace through the online
controller (monitor → drift detection → warm-started re-solve →
virtual migration), and reports every decision.

Observability: ``advise --trace PATH`` records the full pipeline —
stage/restart/round spans, evaluator cache counters, per-restart
convergence series — into one JSONL trace file;
``replay-online --metrics PATH`` does the same for the online loop plus
per-target latency/byte metrics rebuilt from the trace (a ``.prom``
extension selects Prometheus text exposition instead); ``report``
renders a saved trace as a stage-time / cache-efficiency / convergence
table.  ``report --request-trace`` instead renders one stitched
serve-layer request trace — the JSON of ``GET /debug/traces/{id}`` —
as a latency breakdown plus the cross-process span tree.
"""

import argparse
import json
import sys

from repro import jsonl
from repro.core.advisor import LayoutAdvisor
from repro.errors import ReproError
from repro.problem_io import load_problem
from repro.serve.tracing import DEFAULT_RING as _DEFAULT_RING


def _build_obs(path):
    """Instrumentation bundle for an output path (None → disabled)."""
    if not path:
        return None
    from repro.obs import Instrumentation

    return Instrumentation.on()


def _write_obs(path, obs, meta):
    """Write an instrumentation bundle as JSONL trace or Prometheus text."""
    from repro.obs.export import write_prometheus, write_trace

    if path.endswith(".prom"):
        write_prometheus(path, obs.metrics)
    else:
        write_trace(path, obs, meta=meta)


def advise(args):
    with open(args.problem) as handle:
        data = json.load(handle)
    problem = load_problem(data, calibrate=args.calibrate)
    obs = _build_obs(args.trace)
    result = LayoutAdvisor(
        problem, regular=not args.non_regular, restarts=args.restarts,
        method=args.method, workers=args.workers,
        solve_budget_s=args.solver_budget, obs=obs,
    ).recommend()
    if obs is not None:
        _write_obs(args.trace, obs, meta={
            "command": "advise",
            "problem": args.problem,
            "restarts": args.restarts,
            "method": args.method,
            "regular": not args.non_regular,
        })

    if args.json:
        print(json.dumps(result.to_payload(), indent=2))
    else:
        print(result.recommended.describe())
        print()
        for stage, values in result.utilizations.items():
            print("max utilization after %-8s %.4f" % (stage, values.max()))
        if result.degraded:
            print()
            print("WARNING: solve budget exhausted; answered by the %r "
                  "fallback" % result.watchdog_rung)
        if obs is not None:
            print()
            print("trace written to %s (%d spans)"
                  % (args.trace, len(obs.tracer.spans)))
    return 0


def monitor(args):
    from repro.online.monitor import WorkloadMonitor, replay_into
    from repro.workload.trace_io import load_trace

    trace = load_trace(args.trace)
    mon = replay_into(
        WorkloadMonitor(window_s=args.window, halflife_s=args.halflife),
        trace,
    )
    if trace:
        mon.advance(max(r.finish_time for r in trace))
    if args.json:
        print(json.dumps({
            "horizon_s": mon.horizon_s,
            "observed": mon.observed,
            "objects": mon.snapshot(),
        }, indent=2))
    else:
        print("monitored %d records, effective horizon %.1f s"
              % (mon.observed, mon.horizon_s))
        for obj in mon.objects:
            spec = mon.fit(obj)
            print("%-22s reads/s %8.1f  writes/s %8.1f  runcount %7.1f"
                  % (obj, spec.read_rate, spec.write_rate, spec.run_count))
    return 0


def replay_online(args):
    from repro.online.controller import ControllerConfig, OnlineController
    from repro.workload.trace_io import load_trace

    with open(args.problem) as handle:
        data = json.load(handle)
    problem = load_problem(data, calibrate=args.calibrate)
    obs = _build_obs(args.metrics)
    advised = LayoutAdvisor(
        problem, regular=not args.non_regular, obs=obs,
    ).recommend()

    config = ControllerConfig(
        check_interval_s=args.interval,
        util_degradation=args.degradation,
        divergence_threshold=args.divergence,
        patience=args.patience,
        cooldown_s=args.cooldown,
        min_gain=args.min_gain,
        regular=not args.non_regular,
        solve_budget_s=args.solver_budget,
    )
    sizes = {entry["name"]: int(entry["size"]) for entry in data["objects"]}
    controller = OnlineController(
        targets=problem.targets,
        object_sizes=sizes,
        initial_layout=advised.recommended,
        solved_workloads=problem.workloads,
        stripe_size=problem.stripe_size,
        config=config,
        obs=obs,
    )
    trace = load_trace(args.trace)

    faults = None
    if args.fault_plan or args.chaos_seed is not None:
        from repro.faults import FaultInjector, FaultPlan

        target_names = [t.name for t in problem.targets]
        if args.fault_plan:
            plan = FaultPlan.load(args.fault_plan)
            plan.validate_targets(target_names)
        else:
            horizon = max((r.finish_time for r in trace), default=0.0)
            plan = FaultPlan.random(args.chaos_seed, target_names, horizon,
                                    n_faults=args.chaos_faults)
        faults = FaultInjector(plan, target_names=target_names,
                               obs=obs)
    log = controller.replay(trace, faults=faults)
    if obs is not None:
        from repro.obs.sim import SimMetricsCollector

        collector = SimMetricsCollector(obs.metrics)
        collector.consume(trace)
        elapsed = max((r.finish_time for r in trace), default=None)
        collector.finalize(elapsed=elapsed)
        _write_obs(args.metrics, obs, meta={
            "command": "replay-online",
            "problem": args.problem,
            "trace": args.trace,
            "records": len(trace),
        })
    if args.events:
        log.to_jsonl(args.events)
    if args.json:
        print(json.dumps({
            "initial": advised.to_payload(),
            "final_layout": controller.layout.fractions_by_name(),
            "resolves": controller.resolves,
            "emergencies": controller.emergency_resolves,
            "events": log.events,
        }, indent=2))
    else:
        print(log.summary())
        if faults is not None:
            counts = log.counts()
            print("  faults injected   %6d  emergencies %d, evacuations %d"
                  % (counts.get("fault", 0), counts.get("emergency", 0),
                     counts.get("evacuate", 0)))
        print()
        print("final layout:")
        print(controller.layout.describe())
        if obs is not None:
            print()
            print("metrics written to %s" % args.metrics)
    return 0


def _looks_like_event_log(path):
    """True when a JSONL file holds controller events, not a trace.

    Controller events carry ``seq``/``kind`` and no ``type`` header;
    instrumentation traces start with a ``{"type": "meta", ...}`` line.
    """
    try:
        _, first = next(jsonl.scan(path), (0, None))
    except OSError:
        return False
    return (first is not None and "kind" in first and "seq" in first
            and "type" not in first)


def report(args):
    from repro.obs.export import read_request_trace, read_trace
    from repro.obs.report import render_report, render_request_trace

    if args.request_trace:
        # Request traces render the full cross-process tree by default;
        # the solver spans grafted from workers sit 4-5 levels deep.
        trace = read_request_trace(args.trace)
        print(render_request_trace(trace, max_depth=args.max_depth))
        return 0
    if args.max_depth is None:
        args.max_depth = 3
    if _looks_like_event_log(args.trace):
        import warnings

        from repro.online.events import EventLog

        with warnings.catch_warnings():
            # summary() reports the skipped count itself; the per-line
            # warnings would just repeat it.
            warnings.simplefilter("ignore", RuntimeWarning)
            log = EventLog.from_jsonl(args.trace)
        print(log.summary())
        return 0
    trace = read_trace(args.trace)
    print(render_report(trace, tree=args.tree, max_depth=args.max_depth))
    return 0


def serve(args):
    import asyncio
    import signal

    from repro.serve.http import HttpFrontend
    from repro.serve.service import AdvisorService, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        use_processes=not args.threads, max_pending=args.max_pending,
        feed_threads=args.feed_threads, state_dir=args.state_dir,
        trace_ring=(args.trace_ring if args.trace_ring is not None
                    else _DEFAULT_RING),
        access_log=args.access_log,
        snapshot_every=args.snapshot_every,
        request_timeout_s=args.request_timeout,
        default_deadline_s=(args.default_deadline_ms / 1000.0
                            if args.default_deadline_ms is not None
                            else None),
    )

    async def run():
        frontend = HttpFrontend(AdvisorService(config))
        await frontend.start()
        print("serving on http://%s:%d  (%d %s workers, admission bound %d)"
              % (frontend.host, frontend.port, config.workers,
                 "process" if frontend.service.pool.use_processes
                 else "thread", config.max_pending),
              flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("draining: finishing in-flight work, journaling migrations",
              flush=True)
        await frontend.stop()
        print("drained", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def scenarios_cmd(args):
    from repro.scenarios import (
        compile_scenario,
        list_scenarios,
        load_scenario,
    )

    if args.action == "list":
        entries = list_scenarios()
        if args.json:
            print(json.dumps([
                {"name": name, "path": path} for name, path in entries
            ], indent=2))
            return 0
        if not entries:
            print("no scenarios found (set REPRO_SCENARIO_DIR or run "
                  "from the repository root)")
            return 1
        for name, path in entries:
            try:
                spec = load_scenario(path)
                detail = spec.description or ""
            except ReproError as error:
                detail = "INVALID: %s" % error
            print("%-26s %s" % (name, detail))
        return 0

    # validate: exit 0 only when every named spec compiles cleanly.
    failures = 0
    for ref in args.scenario:
        try:
            spec = load_scenario(ref)
            compiled = compile_scenario(spec, seed=args.seed)
            mean_rate = (compiled.rate_integral()
                         / max(compiled.duration_s, 1e-9))
            print("%-26s ok  (%.0fs, %d segments, mean %.0f req/s)"
                  % (spec.name, compiled.duration_s,
                     len(compiled.segments), mean_rate))
        except ReproError as error:
            failures += 1
            print("%s: INVALID: %s" % (ref, error), file=sys.stderr)
    return 1 if failures else 0


def experiments_cmd(args):
    from repro.obs.report import render_matrix_report
    from repro.scenarios.matrix import (
        check_results,
        load_matrix,
        run_matrix,
        save_results,
    )

    matrix = load_matrix(args.matrix)
    results = run_matrix(matrix, workers=args.workers, seed=args.seed)
    check_results(results)
    if args.out:
        save_results(results, args.out)
    rendered = render_matrix_report(results)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        print(rendered)
        if args.out:
            print()
            print("results written to %s" % args.out)
    return 1 if results["errors"] else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro", description="workload-aware storage layout advisor"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    advise_parser = subparsers.add_parser(
        "advise", help="recommend a layout for a JSON problem description"
    )
    advise_parser.add_argument("problem", help="path to the problem JSON")
    advise_parser.add_argument("--non-regular", action="store_true",
                               help="skip the regularization step")
    advise_parser.add_argument("--restarts", type=int, default=1,
                               help="solver starting points (default 1)")
    advise_parser.add_argument("--method", default="auto",
                               choices=["auto", "slsqp", "coordinate",
                                        "anneal", "partitioned"],
                               help="solve method; 'partitioned' "
                                    "decomposes the overlap graph for "
                                    "thousand-object fleets, 'auto' "
                                    "escalates to it on large problems "
                                    "(default auto)")
    advise_parser.add_argument("--workers", type=int, default=1,
                               help="processes for the multi-start solver "
                                    "portfolio (default 1: serial)")
    advise_parser.add_argument("--calibrate", action="store_true",
                               help="calibrate simulated device models "
                                    "instead of using analytic ones")
    advise_parser.add_argument("--solver-budget", type=float, default=None,
                               metavar="SECONDS",
                               help="wall-clock budget for the solve; on "
                                    "overrun fall back portfolio -> "
                                    "partitioned -> serial -> greedy "
                                    "instead of hanging")
    advise_parser.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")
    advise_parser.add_argument("--trace",
                               help="record pipeline spans, solver "
                                    "convergence, and evaluator metrics "
                                    "into this JSONL trace (or .prom for "
                                    "Prometheus text)")
    advise_parser.set_defaults(func=advise)

    monitor_parser = subparsers.add_parser(
        "monitor", help="fit sliding-window workload estimates from a "
                        "completion trace (JSONL)"
    )
    monitor_parser.add_argument("trace", help="path to the trace JSONL")
    monitor_parser.add_argument("--window", type=float, default=2.0,
                                help="bucketing window seconds (default 2)")
    monitor_parser.add_argument("--halflife", type=float, default=20.0,
                                help="decay half-life seconds (default 20)")
    monitor_parser.add_argument("--json", action="store_true",
                                help="emit machine-readable JSON")
    monitor_parser.set_defaults(func=monitor)

    replay_parser = subparsers.add_parser(
        "replay-online", help="replay a trace through the online layout "
                              "controller and report its decisions"
    )
    replay_parser.add_argument("problem", help="path to the problem JSON "
                                               "(the solved-for workload)")
    replay_parser.add_argument("trace", help="path to the trace JSONL")
    replay_parser.add_argument("--interval", type=float, default=5.0,
                               help="drift-check interval seconds")
    replay_parser.add_argument("--degradation", type=float, default=0.25,
                               help="relative predicted-utilization "
                                    "degradation that counts as drift")
    replay_parser.add_argument("--divergence", type=float, default=0.5,
                               help="workload rate-divergence threshold")
    replay_parser.add_argument("--patience", type=int, default=2,
                               help="consecutive drifted checks to trigger")
    replay_parser.add_argument("--cooldown", type=float, default=30.0,
                               help="seconds between re-solve decisions")
    replay_parser.add_argument("--min-gain", type=float, default=0.05,
                               help="minimum relative gain to accept")
    replay_parser.add_argument("--events", help="write the controller "
                                                "event log to this JSONL")
    replay_parser.add_argument("--fault-plan", metavar="FILE",
                               help="inject the fault schedule from this "
                                    "JSON file during the replay")
    replay_parser.add_argument("--chaos-seed", type=int, default=None,
                               metavar="N",
                               help="generate a random (seed-deterministic) "
                                    "fault plan over the trace horizon")
    replay_parser.add_argument("--chaos-faults", type=int, default=3,
                               metavar="K",
                               help="faults in the generated chaos plan "
                                    "(default 3; with --chaos-seed)")
    replay_parser.add_argument("--solver-budget", type=float, default=None,
                               metavar="SECONDS",
                               help="wall-clock budget per re-solve; on "
                                    "timeout fall back portfolio -> "
                                    "partitioned -> serial -> greedy")
    replay_parser.add_argument("--non-regular", action="store_true",
                               help="skip the regularization step")
    replay_parser.add_argument("--calibrate", action="store_true",
                               help="calibrate simulated device models "
                                    "instead of using analytic ones")
    replay_parser.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")
    replay_parser.add_argument("--metrics",
                               help="record controller events, re-solve "
                                    "spans, and per-target simulator "
                                    "metrics into this JSONL trace (or "
                                    ".prom for Prometheus text)")
    replay_parser.set_defaults(func=replay_online)

    report_parser = subparsers.add_parser(
        "report", help="render a saved instrumentation trace as a "
                       "stage-time / cache-efficiency / convergence report"
    )
    report_parser.add_argument("trace", help="trace JSONL written by "
                                             "advise --trace or "
                                             "replay-online --metrics (an "
                                             "event log from --events is "
                                             "summarized instead)")
    report_parser.add_argument("--tree", action="store_true",
                               help="also render the span tree")
    report_parser.add_argument("--max-depth", type=int, default=None,
                               help="span tree depth limit (default 3; "
                                    "unlimited for --request-trace)")
    report_parser.add_argument("--request-trace", action="store_true",
                               help="render a stitched serve-layer request "
                                    "trace (the JSON from GET /debug/"
                                    "traces/{id})")
    report_parser.set_defaults(func=report)

    serve_parser = subparsers.add_parser(
        "serve", help="run the multi-tenant advisor service "
                      "(JSON over HTTP; SIGTERM drains gracefully)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="listen address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="listen port (0 picks a free port)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="shared solver pool size (default 2)")
    serve_parser.add_argument("--threads", action="store_true",
                              help="run solver jobs on threads instead of "
                                   "worker processes")
    serve_parser.add_argument("--max-pending", type=int, default=64,
                              help="admission bound on queued solver jobs "
                                   "(default 64; over it requests get 429)")
    serve_parser.add_argument("--feed-threads", type=int, default=4,
                              help="worker threads applying trace chunks")
    serve_parser.add_argument("--state-dir", default=None,
                              help="per-tenant state root (WAL, snapshots, "
                                   "migration journals; enables crash "
                                   "recovery and drain-resume)")
    serve_parser.add_argument("--snapshot-every", type=int, default=16,
                              help="compacting snapshot every N trace "
                                   "chunks per tenant (default 16; 0 "
                                   "disables periodic snapshots)")
    serve_parser.add_argument("--request-timeout", type=float, default=30.0,
                              help="seconds a started request may take to "
                                   "arrive whole before 408 (slowloris "
                                   "guard; default 30)")
    serve_parser.add_argument("--default-deadline-ms", type=float,
                              default=None,
                              help="deadline stamped on solver work when "
                                   "the request has no X-Deadline-Ms "
                                   "header (default: none)")
    serve_parser.add_argument("--access-log", default=None, metavar="FILE",
                              help="append one JSONL line per traced "
                                   "request (trace id, tenant, status, "
                                   "queue wait, solve time)")
    serve_parser.add_argument("--trace-ring", type=int, default=None,
                              help="stitched traces kept for GET /debug/"
                                   "traces (default %d)" % _DEFAULT_RING)
    serve_parser.set_defaults(func=serve)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list or validate declarative YAML scenarios"
    )
    scenarios_sub = scenarios_parser.add_subparsers(dest="action",
                                                    required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list", help="list the scenario library (REPRO_SCENARIO_DIR or "
                     "./scenarios)"
    )
    scenarios_list.add_argument("--json", action="store_true",
                                help="emit machine-readable JSON")
    scenarios_list.set_defaults(func=scenarios_cmd)
    scenarios_validate = scenarios_sub.add_parser(
        "validate", help="parse, validate, and compile scenario specs; "
                         "non-zero exit when any is invalid"
    )
    scenarios_validate.add_argument("scenario", nargs="+",
                                    help="scenario file path or library "
                                         "name")
    scenarios_validate.add_argument("--seed", type=int, default=None,
                                    help="compile-seed override")
    scenarios_validate.set_defaults(func=scenarios_cmd)

    experiments_parser = subparsers.add_parser(
        "experiments", help="sweep a scenario × controller matrix"
    )
    experiments_sub = experiments_parser.add_subparsers(dest="action",
                                                        required=True)
    experiments_run = experiments_sub.add_parser(
        "run", help="run every (scenario, controller) cell and render "
                    "the comparison table"
    )
    experiments_run.add_argument("matrix", help="matrix YAML path")
    experiments_run.add_argument("--workers", type=int, default=None,
                                 help="parallel cell processes (default: "
                                      "the matrix's 'workers' field)")
    experiments_run.add_argument("--seed", type=int, default=None,
                                 help="compile-seed override for every "
                                      "cell")
    experiments_run.add_argument("--out", metavar="FILE",
                                 help="write the results dict as JSON "
                                      "(BENCH_scenarios.json format)")
    experiments_run.add_argument("--report", metavar="FILE",
                                 help="also write the rendered table here")
    experiments_run.add_argument("--json", action="store_true",
                                 help="print the results dict instead of "
                                      "the table")
    experiments_run.set_defaults(func=experiments_cmd)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, KeyError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
