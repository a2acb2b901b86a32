"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans.

Layer names are the ``repro`` package names (``storage``, ``db``,
``workload``, ``models``, ``experiments``, ``core``, ``scenarios``,
``online``, ``serve``) plus ``io`` (problem parsing), ``gen`` (the load
generator) and ``bench`` (the benchmark's own iteration and request
roots, whose self time is the unaccounted residual).
"""

import os

#: Layers whose per-iteration self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("storage", "db", "workload", "models", "experiments",
                    "core", "scenarios", "online", "io", "serve", "gen")

#: Base solve methods counted by ``core.solves.<method>``.
SOLVE_METHODS = ("slsqp", "coordinate", "partitioned")


def _events(args, kwargs):
    engine = args[0]
    before = engine.events_processed
    return lambda result: {"events": engine.events_processed - before}


def _trace_records(args, kwargs):
    count = len(args[0] if args else kwargs["trace"])
    return lambda result: {"records": count}


def _result_records(args, kwargs):
    return lambda result: {"records": len(result)}


def _advisor_stages(args, kwargs):
    return lambda result: {"initial_s": result.initial_time_s,
                           "solve_s": result.solver_time_s,
                           "regularize_s": result.regularization_time_s}


def _solve_result(args, kwargs):
    return lambda result: {"method": result.method,
                           "evaluations": result.evaluations}


def _replay_resolves(args, kwargs):
    controller = args[0]
    before = controller.resolves
    return lambda result: {"resolves": controller.resolves - before}


def install_program(tracer):
    """Wrap the in-process layers (everything but ``serve``)."""
    from repro import cli
    from repro.core import advisor, solver
    from repro.db import engine as db_engine
    from repro.experiments import runner
    from repro.models import analytic, calibration, table_model
    from repro.online.controller import OnlineController
    from repro.online.monitor import WorkloadMonitor
    from repro.scenarios import compiler, library
    from repro.storage.engine import SimulationEngine
    from repro.workload import analyzer

    tracer.wrap(SimulationEngine, "run", "storage.engine.run", hook=_events)
    tracer.wrap(db_engine, "run_consolidation", "db.run_consolidation")
    tracer.wrap(db_engine, "run_olap", "db.run_olap")
    tracer.wrap(analyzer, "fit_workloads", "workload.fit_workloads",
                hook=_trace_records)
    tracer.wrap(calibration, "calibrate_device", "models.calibrate_device")
    tracer.wrap(table_model.TableCostModel, "lookup", "models.lookup.table",
                hot=True)
    tracer.wrap(analytic.AnalyticDiskCostModel, "lookup",
                "models.lookup.analytic", hot=True)
    tracer.wrap(analytic.AnalyticSsdCostModel, "lookup",
                "models.lookup.analytic", hot=True)
    tracer.wrap(runner, "build_problem", "experiments.build_problem")
    tracer.wrap(advisor.LayoutAdvisor, "recommend", "core.advisor.recommend",
                hook=_advisor_stages)
    tracer.wrap(solver, "solve", "core.solve", hook=_solve_result)
    tracer.wrap(library, "load_scenario", "scenarios.load_scenario")
    tracer.wrap(compiler, "compile_scenario", "scenarios.compile_scenario")
    tracer.wrap(compiler.CompiledScenario, "synthesize_trace",
                "scenarios.synthesize_trace", hook=_result_records)
    tracer.wrap(cli, "load_problem", "io.load_problem")
    tracer.wrap(OnlineController, "replay", "online.controller.replay",
                hook=_replay_resolves)
    tracer.wrap(WorkloadMonitor, "observe", "online.monitor.observe",
                hot=True)


def _rtrace_kwarg(args, kwargs):
    rtrace = kwargs.get("rtrace")
    rid = rtrace.trace_id if rtrace is not None else None
    return lambda result: {"rid": rid}


def _route(args, kwargs):
    trace = args[5] if len(args) > 5 else kwargs.get("trace")

    def done(result):
        rtrace = (trace or {}).get("rtrace")
        return {"rid": rtrace.trace_id if rtrace is not None else None}
    return done


def _submit(args, kwargs):
    rtrace = kwargs.get("rtrace")
    rid = rtrace.trace_id if rtrace is not None else None
    job = getattr(args[2], "__name__", "?")
    return lambda result: {"rid": rid, "job": job}


def _pool_run(args, kwargs):
    options = args[-1] if isinstance(args[-1], dict) else {}
    rid = (options.get("trace_ctx") or {}).get("trace_id")
    job = getattr(args[1], "__name__", "?")

    def done(result):
        worker_s = (result.get("solver_time_s")
                    if isinstance(result, dict) else None)
        return {"rid": rid, "job": job, "worker_s": worker_s}
    return done


def _tenant_feed(args, kwargs):
    rtrace = args[2] if len(args) > 2 else kwargs.get("rtrace")
    rid = rtrace.trace_id if rtrace is not None else None
    return lambda result: {"rid": rid}


def _wal_bytes(args, kwargs):
    wal = args[0]

    def size():
        try:
            return os.path.getsize(wal.path)
        except OSError:
            return 0
    before = size()
    return lambda result: {"bytes": size() - before}


def install_server(tracer):
    """Wrap the serving path inside a ``repro serve`` process.

    The pool job functions (``advise_job``, ``resolve_job``) are left
    alone: they are pickled by reference into the workers, and the
    workers report their own solve time in the job result.
    """
    from repro.online.controller import OnlineController
    from repro.online.monitor import WorkloadMonitor
    from repro.serve import durability, http, pool, scheduler, service, tenant

    tracer.wrap(http.HttpFrontend, "_route", "serve.http.route",
                hook=_route)
    for method, name in (("advise", "advise"), ("feed_trace_chunk", "feed"),
                         ("create_tenant", "create")):
        tracer.wrap(service.AdvisorService, method, "serve.service." + name,
                    hook=_rtrace_kwarg)
    tracer.wrap(scheduler.FairScheduler, "submit", "serve.scheduler.submit",
                hook=_submit)
    tracer.wrap(pool.SolverPool, "run", "serve.pool.run", hook=_pool_run)
    tracer.wrap(tenant.Tenant, "feed", "serve.tenant.feed",
                hook=_tenant_feed)
    tracer.wrap(durability.TenantWAL, "append", "serve.wal.append",
                hook=_wal_bytes)
    tracer.wrap(durability, "write_snapshot", "serve.wal.snapshot")
    tracer.wrap(OnlineController, "check", "online.controller.check")
    tracer.wrap(WorkloadMonitor, "observe", "online.monitor.observe",
                hot=True)


def program_layer_metrics(tree, roots, setup_roots=()):
    """Per-iteration layer metrics over the iteration ``roots``."""
    per = 1.0 / max(1, len(roots))
    out = {}
    wall = sum(tree.duration(root) for root in roots)
    layers = tree.layer_seconds(roots)
    out["unaccounted_share"] = layers.get("bench", 0.0) / wall if wall else 0.0
    for layer in SELF_TIME_LAYERS:
        out[layer + ".self_s"] = layers.get(layer, 0.0) * per

    runs = tree.named(roots, "storage.engine.run")
    sim_s = sum(tree.duration(s) for s in runs)
    events = sum(s["tags"].get("events", 0) for s in runs)
    out["storage.sim_s"] = sim_s * per
    out["storage.events"] = events * per
    out["storage.events_per_s"] = events / sim_s if sim_s else 0.0

    db_runs = (tree.named(roots, "db.run_consolidation")
               + tree.named(roots, "db.run_olap"))
    out["db.run_s"] = sum(tree.self_time(s) for s in db_runs) * per

    fits = tree.named(roots, "workload.fit_workloads")
    fit_s = sum(tree.duration(s) for s in fits)
    out["workload.fit_s"] = fit_s * per
    out["workload.fit_records_per_s"] = (
        sum(s["tags"].get("records", 0) for s in fits) / fit_s
        if fit_s else 0.0)

    calibrations = tree.named(setup_roots, "models.calibrate_device")
    out["models.calibrate_s"] = sum(tree.duration(s) for s in calibrations)
    hot = tree.hot_totals(roots)
    for kind in ("table", "analytic"):
        calls, seconds = hot.get("models.lookup." + kind, (0, 0.0))
        out["models.lookup_calls." + kind] = calls * per
        out["models.lookup_s." + kind] = seconds * per

    advises = tree.named(roots, "core.advisor.recommend")
    for stage in ("initial", "solve", "regularize"):
        out["core.%s_s" % stage] = sum(
            s["tags"].get(stage + "_s", 0.0) for s in advises) * per
    solves = tree.named(roots, "core.solve", outermost=True)
    evaluations = sum(s["tags"].get("evaluations", 0) for s in solves)
    solve_s = sum(tree.duration(s) for s in solves)
    out["core.evaluations"] = evaluations * per
    out["core.evals_per_s"] = evaluations / solve_s if solve_s else 0.0
    for method in SOLVE_METHODS:
        out["core.solves." + method] = sum(
            1 for s in solves
            if s["tags"].get("method", "").split("+")[0] == method) * per

    synth = tree.named(roots, "scenarios.synthesize_trace")
    out["scenarios.synthesize_s"] = sum(tree.duration(s) for s in synth) * per
    out["scenarios.records"] = sum(
        s["tags"].get("records", 0) for s in synth) * per

    replays = tree.named(roots, "online.controller.replay")
    out["online.replay_s"] = sum(tree.duration(s) for s in replays) * per
    out["online.observe_calls"] = hot.get("online.monitor.observe",
                                          (0, 0.0))[0] * per
    out["online.resolves"] = sum(
        s["tags"].get("resolves", 0) for s in replays) * per
    out["online.resolve_s"] = sum(
        tree.duration(s)
        for s in tree.named(replays, "core.solve", outermost=True)) * per
    return out
