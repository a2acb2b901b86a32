"""Scenario × controller-config matrix runner.

A matrix file names library scenarios and controller configurations::

    name: quick
    seed: 1                      # optional compile-seed override
    workers: 4                   # parallel cells (process pool)
    scenarios: [oltp-steady, ecommerce-diurnal]
    controllers:
      - {name: frozen, enabled: false}
      - {name: default}
      - {name: eager, check_interval_s: 2.0, patience: 1}

Every cell compiles its scenario, synthesizes the deterministic trace,
solves the initial layout for the scenario's baseline phase, then (for
enabled controllers) replays the trace through an
:class:`~repro.online.controller.OnlineController` — embedded fault
sections ride along through a
:class:`~repro.faults.injector.FaultInjector`.  Cells run in parallel
over a process pool and are isolated: one failing cell records an
``error`` status instead of killing the sweep.

The result dict feeds :func:`repro.obs.report.render_matrix_report`
and serializes as ``BENCH_scenarios.json``.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.core.problem import LayoutProblem
from repro.errors import ReproError, ScenarioError
from repro.online.controller import ControllerConfig
from repro.problem_io import load_problem
from repro.scenarios.compiler import compile_scenario
from repro.scenarios.library import load_scenario, resolve_scenario
from repro.scenarios.yamlio import load_yaml_file

#: Keys of a controller entry that are not ControllerConfig overrides.
_CONTROL_KEYS = {"name", "enabled"}

_CONFIG_FIELDS = {f.name for f in dataclass_fields(ControllerConfig)}


def load_matrix(path):
    """Parse and validate a matrix file into a plain dict."""
    data = load_yaml_file(path)
    label = os.path.basename(str(path))
    if not isinstance(data, dict):
        raise ScenarioError("%s: a matrix must be a mapping" % label)
    name = data.get("name", os.path.splitext(label)[0])
    scenarios = data.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ScenarioError("%s: matrix.scenarios must be a non-empty list"
                            % label)
    controllers = data.get("controllers")
    if not isinstance(controllers, list) or not controllers:
        raise ScenarioError("%s: matrix.controllers must be a non-empty "
                            "list" % label)
    seen = set()
    parsed = []
    for index, entry in enumerate(controllers):
        path_str = "controllers[%d]" % index
        if not isinstance(entry, dict) or "name" not in entry:
            raise ScenarioError("%s: %s must be a mapping with a 'name'"
                                % (label, path_str))
        if entry["name"] in seen:
            raise ScenarioError("%s: %s duplicates controller %r"
                                % (label, path_str, entry["name"]))
        seen.add(entry["name"])
        for key in entry:
            if key in _CONTROL_KEYS:
                continue
            if key not in _CONFIG_FIELDS:
                raise ScenarioError(
                    "%s: %s has unknown ControllerConfig field %r"
                    % (label, path_str, key)
                )
        parsed.append(dict(entry))
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int) or seed < 0):
        raise ScenarioError("%s: matrix.seed must be a non-negative "
                            "integer" % label)
    workers = data.get("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) \
            or workers < 1:
        raise ScenarioError("%s: matrix.workers must be a positive integer"
                            % label)
    # Resolve scenario references eagerly so a typo fails the whole
    # matrix up front instead of erroring one cell per controller.
    for ref in scenarios:
        resolve_scenario(str(ref))
    return {
        "name": str(name),
        "seed": seed,
        "workers": workers,
        "scenarios": [str(ref) for ref in scenarios],
        "controllers": parsed,
    }


def _predicted_max_util(targets, object_sizes, workloads, layout,
                        stripe_size):
    problem = LayoutProblem(object_sizes, targets, workloads,
                            stripe_size=stripe_size)
    return float(problem.evaluator().objective(layout.matrix))


def _latency_ms(trace):
    """p50 and p99 of the trace's service times, in ms (0.0 when
    empty)."""
    if not trace:
        return 0.0, 0.0
    services = np.fromiter((record.service_time for record in trace),
                           dtype=float, count=len(trace))
    p50, p99 = np.percentile(services, [50, 99]) * 1000.0
    return float(p50), float(p99)


def run_cell(scenario_ref, controller_entry, seed=None):
    """Run one (scenario, controller) cell; returns its stats dict.

    Importable at module top level so the process pool can pickle it.
    """
    from repro.core.advisor import LayoutAdvisor

    started = time.monotonic()
    spec = load_scenario(scenario_ref)
    compiled = compile_scenario(spec, seed=seed)
    trace = compiled.synthesize_trace()
    problem = load_problem(compiled.problem_payload())
    advised = LayoutAdvisor(problem, regular=True).recommend()
    layout = advised.recommended

    duration = compiled.duration_s
    baseline = compiled.baseline_workloads()
    end_state = compiled.mean_workloads(0.75 * duration, duration)
    sizes = compiled.object_sizes

    def predicted(workloads, candidate):
        return _predicted_max_util(problem.targets, sizes, workloads,
                                   candidate, problem.stripe_size)

    latency_p50_ms, latency_p99_ms = _latency_ms(trace)

    cell = {
        "scenario": compiled.name,
        "controller": controller_entry["name"],
        "status": "ok",
        "seed": compiled.seed,
        "duration_s": duration,
        "records": len(trace),
        "faults": len(compiled.fault_plan),
        "tenants": len(compiled.tenant_schedule()),
        "latency_p50_ms": latency_p50_ms,
        "latency_p99_ms": latency_p99_ms,
        "util_baseline": round(predicted(baseline, layout), 4),
        "util_end_frozen": round(predicted(end_state, layout), 4),
        "resolves": 0,
        "emergencies": 0,
        "migrations": 0,
        "bytes_moved": 0,
    }

    final_layout = layout
    if controller_entry.get("enabled", True):
        from repro.faults.injector import FaultInjector
        from repro.online.controller import OnlineController

        overrides = {key: value for key, value in controller_entry.items()
                     if key not in _CONTROL_KEYS}
        config = ControllerConfig(**overrides)
        controller = OnlineController(
            targets=problem.targets,
            object_sizes=sizes,
            initial_layout=layout,
            solved_workloads=baseline,
            stripe_size=problem.stripe_size,
            config=config,
        )
        faults = None
        if len(compiled.fault_plan):
            faults = FaultInjector(compiled.fault_plan,
                                   target_names=problem.target_names)
        log = controller.replay(trace, end_time=duration, faults=faults)
        final_layout = controller.layout
        migrations = [e for e in log.of_kind("migrated")]
        cell.update(
            resolves=controller.resolves,
            emergencies=controller.emergency_resolves,
            migrations=len(migrations),
            bytes_moved=int(sum(e.get("bytes_moved", 0)
                                for e in migrations)),
        )
    cell["util_end"] = round(predicted(end_state, final_layout), 4)
    cell["elapsed_s"] = round(time.monotonic() - started, 3)
    return cell


def _cell_error(scenario_ref, controller_entry, error):
    return {
        "scenario": str(scenario_ref),
        "controller": controller_entry.get("name", "?"),
        "status": "error",
        "error": "%s: %s" % (type(error).__name__,
                             " ".join(str(error).split())[:300]),
    }


def run_matrix(matrix, workers=None, seed=None):
    """Sweep the matrix; returns the results dict.

    Args:
        matrix: A matrix file path or a dict already shaped like
            :func:`load_matrix` output.
        workers: Parallel cell processes (default: the matrix's
            ``workers`` field).  ``1`` runs cells serially in-process.
        seed: Compile-seed override (default: the matrix's ``seed``,
            else each scenario's own).
    """
    if not isinstance(matrix, dict):
        matrix = load_matrix(matrix)
    if workers is None:
        workers = matrix.get("workers", 1)
    if seed is None:
        seed = matrix.get("seed")
    pairs = [(ref, entry) for ref in matrix["scenarios"]
             for entry in matrix["controllers"]]
    started = time.monotonic()
    cells = []
    if workers <= 1 or len(pairs) <= 1:
        for ref, entry in pairs:
            try:
                cells.append(run_cell(ref, entry, seed=seed))
            except ReproError as error:
                cells.append(_cell_error(ref, entry, error))
            except Exception as error:  # cell isolation: never kill sweep
                cells.append(_cell_error(ref, entry, error))
    else:
        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            futures = [
                (ref, entry, pool.submit(run_cell, ref, entry, seed=seed))
                for ref, entry in pairs
            ]
            for ref, entry, future in futures:
                error = future.exception()
                if error is not None:
                    cells.append(_cell_error(ref, entry, error))
                else:
                    cells.append(future.result())
    return {
        "matrix": matrix["name"],
        "seed": seed,
        "scenarios": matrix["scenarios"],
        "controllers": [entry["name"] for entry in matrix["controllers"]],
        "cells": cells,
        "ok": sum(1 for cell in cells if cell["status"] == "ok"),
        "errors": sum(1 for cell in cells if cell["status"] != "ok"),
        "elapsed_s": round(time.monotonic() - started, 3),
    }


def save_results(results, path):
    """Write the results dict as pretty JSON (BENCH_scenarios.json)."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_results(results):
    """Raise :class:`ScenarioError` unless a results dict is well-formed.

    The CI gate: every cell carries scenario/controller/status, ok
    cells carry the stat columns, and at least one cell succeeded.
    """
    if not isinstance(results, dict) or "cells" not in results:
        raise ScenarioError("matrix results must be a dict with 'cells'")
    required = ("scenario", "controller", "status")
    stats = ("records", "resolves", "migrations", "bytes_moved",
             "util_baseline", "util_end_frozen", "util_end",
             "latency_p50_ms", "latency_p99_ms")
    for index, cell in enumerate(results["cells"]):
        for key in required:
            if key not in cell:
                raise ScenarioError("cell %d misses %r" % (index, key))
        if cell["status"] == "ok":
            for key in stats:
                if key not in cell:
                    raise ScenarioError("ok cell %d misses stat %r"
                                        % (index, key))
        elif "error" not in cell:
            raise ScenarioError("failed cell %d carries no error message"
                                % index)
    if not any(cell["status"] == "ok" for cell in results["cells"]):
        raise ScenarioError("matrix produced no successful cells")
    return results
