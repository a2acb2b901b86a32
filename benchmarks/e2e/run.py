"""End-to-end benchmark of the layout advisor.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--repeat K] [--smoke]

Each workload runs in a fresh child process (``worker.py``) with its own
cost-model cache directory, working directory, temp directory and serve
state directories, all under ``.bench_e2e/`` in the checkout.  The
command prints every metric by name and unit — the end-to-end metrics
of ``BENCHMARK.json`` for an untraced run, its per-layer metrics for a
traced one (``--trace 1``; spans go to ``.bench_e2e/traces/``) — checks
the program's outputs, and prints one JSON result as its last line.  It
exits non-zero when a check fails.

``--repeat K`` runs K times on seeds N..N+K-1 and prints each metric's
median, interquartile range and max/min spread next to its bound.
``--smoke`` runs every workload at toy size, untraced and traced, and
checks that the harness works: every metric present and finite, spans
well formed, ``unaccounted_share`` in [0, 1].  See README.md here.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from harness import HERE, ROOT, WORKER, median

WORKLOADS = ("paper-consolidation", "fleet-advise", "drift-matrix",
             "serve-mixed")
SCRATCH = os.path.join(ROOT, ".bench_e2e")
#: A run must end within 180 s; leave room for teardown.
CHILD_TIMEOUT_S = 170
#: Quality numbers: True when higher is better.
HIGHER_IS_BETTER = {"sim_speedup": True, "util_vs_see": False,
                    "util_end": False, "migrated_mb": False}


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def trace_path(workload, seed):
    return os.path.join(SCRATCH, "traces", "%s-seed%d.jsonl"
                        % (workload, seed))


def _stop_group(pgid):
    """Kill whatever the workload left in its process group and wait
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload, seed, seconds, trace, smoke):
    """One workload run in a fresh process; returns its outcome dict, or
    None when it crashed or timed out."""
    run_dir = os.path.join(SCRATCH, "run-%d-%s-%d" % (os.getpid(), workload,
                                                      seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("cache", "cwd", "tmp"):
        os.makedirs(os.path.join(run_dir, sub))
    os.makedirs(os.path.dirname(trace_path(workload, seed)), exist_ok=True)
    out = os.path.join(run_dir, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = os.path.join(run_dir, "cache")
    env["REPRO_SCENARIO_DIR"] = os.path.join(ROOT, "scenarios")
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--run-dir", run_dir,
               "--out", out, "--trace-path", trace_path(workload, seed)]
    if smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, env=env,
                             cwd=os.path.join(run_dir, "cwd"),
                             start_new_session=True)
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: timed out after %d s" % (workload, CHILD_TIMEOUT_S),
              file=sys.stderr)
    finally:
        _stop_group(child.pid)
        child.wait()
    try:
        return load_json(out) if child.returncode == 0 else None
    except (OSError, ValueError):
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def quality_checks(workload, quality, reference):
    """Layout quality may not be worse than ``reference.json`` records
    by more than its tolerance (better passes).  drift-matrix's
    ``util_end`` and ``migrated_mb`` trade against each other, so that
    pair fails only when both are worse."""
    expected = reference[workload]
    tolerance = reference["tolerance"]
    worse = {}
    for name, want in expected.items():
        got = quality.get(name)
        slack = abs(want) * tolerance
        worse[name] = not _finite(got) or (
            got < want - slack if HIGHER_IS_BETTER[name]
            else got > want + slack)
    if "util_end" in worse and "migrated_mb" in worse:
        both = worse["util_end"] and worse["migrated_mb"]
        worse["util_end"] = worse["migrated_mb"] = both
    return [["%s not worse than reference %.6g (tolerance %g)"
             % (name, expected[name], tolerance),
             not worse[name], quality.get(name)]
            for name in expected]


def metrics_of(outcome, spec, trace):
    """The metrics printed for one run, in BENCHMARK.json order, plus
    checks that each is present and finite."""
    checks = []
    if trace:
        # Layers a workload never enters report zero.
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = sorted(set(outcome["layer"]) - set(values))
        checks.append(["per-layer metrics known", not unknown, unknown])
        values.update({k: v for k, v in outcome["layer"].items()
                       if k in values})
        wanted = spec["per_layer"]
    else:
        parts = outcome["op_parts_ms"]
        values = {
            "setup_s": median(outcome["setup_s"]),
            "op_ms": (sum(median(samples) for samples in parts.values())
                      if parts else median(outcome["ops_ms"])),
            "peak_rss_mb": outcome["peak_rss_mb"],
            "util_vs_see": outcome["quality"].get("util_vs_see"),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        if not _finite(value):
            checks.append(["%s is a finite number" % entry["name"], False,
                           value])
            value = None
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics, checks


def smoke_checks(workload, seed, outcome, trace):
    if not trace:
        return []
    share = outcome["layer"].get("unaccounted_share")
    path = trace_path(workload, seed)
    return [["unaccounted_share in [0, 1]",
             _finite(share) and 0.0 <= share <= 1.0, share],
            ["spans well formed", _spans_ok(path), path]]


def _spans_ok(path):
    required = {"span": ("id", "name", "start", "end", "parent",
                         "workload", "rid"),
                "hot": ("name", "parent", "calls", "seconds")}
    try:
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
    except (OSError, ValueError):
        return False
    spans = [r for r in records if r.get("type") == "span"]
    return bool(spans) and all(
        all(key in r for key in required[r["type"]])
        and (r["type"] != "span" or r["end"] >= r["start"])
        for r in records if r.get("type") in required)


def report(workload, seed, metrics, checks, outcome, trace):
    print("== %s  seed %d  %s" % (workload, seed,
                                  "traced" if trace else "untraced"))
    for name, entry in metrics.items():
        value = entry["value"]
        print("  %-32s %14s %s" % (
            name, "missing" if value is None else "%.6g" % value,
            entry["unit"]))
    if outcome is not None:
        print("  quality: %s" % json.dumps(outcome["quality"], sort_keys=True))
        print("  info: %s" % json.dumps(outcome["info"], sort_keys=True))
    failed = [c for c in checks if not c[1]]
    print("  checks: %d/%d passed" % (len(checks) - len(failed), len(checks)))
    for name, _, detail in failed:
        print("  FAILED %s: %s" % (name, detail))


def run_once(workload, seed, seconds, trace, smoke, spec, reference):
    """Run, check and report one workload; returns its result object."""
    outcome = run_child(workload, seed, seconds, trace, smoke)
    if outcome is None:
        metrics, checks, attempted, failed = (
            {}, [["workload process finished", False, ""]], 1, 1)
    else:
        metrics, checks = metrics_of(outcome, spec, trace)
        checks = outcome["checks"] + checks
        if smoke:
            checks.extend(smoke_checks(workload, seed, outcome, trace))
        else:
            checks.extend(quality_checks(workload, outcome["quality"],
                                         reference))
        checks.append(["no failed operations", outcome["failed"] == 0,
                       "%d of %d" % (outcome["failed"],
                                     outcome["attempted"])])
        attempted = max(1, outcome["attempted"])
        failed = outcome["failed"]
    report(workload, seed, metrics, checks, outcome, trace)
    return {"correct": all(c[1] for c in checks), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def repeat_summary(results, spec, trace):
    """Per metric: median, IQR and max/min spread (shares of the median)
    across repeated runs, next to the bound."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    print("== %d runs" % len(results))
    print("  %-32s %12s %8s %8s %8s" % ("metric", "median", "iqr",
                                        "spread", "bound"))
    medians = {}
    for entry in entries:
        values = [r["metrics"][entry["name"]]["value"] for r in results
                  if r["metrics"].get(entry["name"], {}).get("value")
                  is not None]
        if not values:
            continue
        mid = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (mid, mid, mid))
        scale = abs(mid) or 1.0
        print("  %-32s %12.6g %7.2f%% %7.2f%% %8s" % (
            entry["name"], mid, 100 * (q3 - q1) / scale,
            100 * (max(values) - min(values)) / scale,
            "%.1f%%" % (100 * entry["bound"]) if "bound" in entry else "-"))
        medians[entry["name"]] = {"value": mid, "unit": entry["unit"]}
    return medians


def combine(results, metrics):
    """One result object for several runs."""
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds; 3 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    seconds = args.seconds
    if seconds is None:
        seconds = 3 if args.smoke else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)

    results = []
    for workload in workloads:
        for trace in modes:
            runs = [run_once(workload, args.seed + k, seconds, trace,
                             args.smoke, spec, reference)
                    for k in range(max(1, args.repeat))]
            result = runs[0]
            if len(runs) > 1:
                result = combine(runs, repeat_summary(runs, spec, trace))
            label = workload + (".traced" if trace and args.smoke else "")
            results.append((label, result))

    final = results[0][1]
    if len(results) > 1:
        final = combine([r for _, r in results], {
            "%s.%s" % (label, name): entry for label, r in results
            for name, entry in r["metrics"].items()})
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
