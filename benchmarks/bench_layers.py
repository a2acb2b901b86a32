"""Per-layer work counts and rates, written to ``BENCH_layers.json``.

Each layer gets one fixed microbenchmark that reports exact work counts,
which do not move with the host, next to a rate, which does:

* ``scenarios.synthesize`` — ``CompiledScenario.synthesize_trace`` for
  every library scenario at its own seed.  Per scenario: records, and
  stream-segments (the (segment, stream) pairs with a positive rate,
  one generator each).  Over the library: records/s.
* ``online.ingest`` — ``oltp-scan-drift``'s trace through a
  ``WorkloadMonitor`` the way ``OnlineController.replay`` feeds it: one
  batch per slice between checks at the default check interval, and at
  each check the fit a drift check asks for.  Records, windows rolled
  and checks run, and records/s.

The counts are the regression oracle: CI regenerates this file and
``benchmarks/oracle_diff.py`` fails on any change outside its time
fields (``seconds``, ``records_per_s``).  Timing is a separate phase
after the counts: the best of three runs (one under pytest).

Usage::

    PYTHONPATH=src python benchmarks/bench_layers.py
"""

import json
import os
import time
from bisect import bisect_left

from repro.online.controller import ControllerConfig
from repro.scenarios import compile_scenario, list_scenarios, load_scenario

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
OUT = os.path.join(RESULTS_DIR, "BENCH_layers.json")

INGEST_SCENARIO = "oltp-scan-drift"


def _best_seconds(work, repeat):
    """The fastest of ``repeat`` timed runs of ``work``."""
    def timed():
        started = time.perf_counter()
        work()
        return time.perf_counter() - started
    return min(timed() for _ in range(repeat))


def _rate(count, seconds):
    return round(count / seconds, 1) if seconds > 0 else 0.0


def synthesize_layer(repeat):
    compiled = [compile_scenario(load_scenario(name))
                for name, _ in list_scenarios()]
    scenarios = {}
    for scenario in compiled:
        scenarios[scenario.name] = {
            "seed": scenario.seed,
            "records": len(scenario.synthesize_trace()),
            "stream_segments": sum(
                1 for segment in scenario.segments
                for rate in segment.rates.values() if rate > 0),
        }
    records = sum(entry["records"] for entry in scenarios.values())
    seconds = _best_seconds(
        lambda: [scenario.synthesize_trace() for scenario in compiled],
        repeat)
    return {
        "scenarios": scenarios,
        "records": records,
        "stream_segments": sum(entry["stream_segments"]
                               for entry in scenarios.values()),
        "seconds": round(seconds, 4),
        "records_per_s": _rate(records, seconds),
    }


def ingest(trace, names, config):
    """Feed ``trace`` to a fresh monitor in replay's slices; returns
    ``(monitor, checks run)``."""
    monitor = config.monitor()
    finish = [record.finish_time for record in trace]
    interval = config.check_interval_s
    next_check = finish[0] + interval
    checks = start = 0
    while True:
        end = bisect_left(finish, next_check, start)
        monitor.observe_many(trace[start:end])
        if end == len(trace):
            return monitor, checks
        while finish[end] >= next_check:
            monitor.advance(next_check)
            monitor.workloads(names)
            checks += 1
            next_check += interval
        start = end


def ingest_layer(repeat):
    compiled = compile_scenario(load_scenario(INGEST_SCENARIO))
    trace = compiled.synthesize_trace()
    names = list(compiled.object_sizes)
    config = ControllerConfig()
    monitor, checks = ingest(trace, names, config)
    window_s = config.monitor_window_s
    seconds = _best_seconds(lambda: ingest(trace, names, config), repeat)
    return {
        "scenario": compiled.name,
        "seed": compiled.seed,
        "check_interval_s": config.check_interval_s,
        "window_s": window_s,
        "records": monitor.observed,
        "windows_rolled": (int(trace[-1].finish_time // window_s)
                           - int(trace[0].finish_time // window_s)),
        "checks": checks,
        "seconds": round(seconds, 4),
        "records_per_s": _rate(monitor.observed, seconds),
    }


def run(repeat=3):
    return {
        "scenarios.synthesize": synthesize_layer(repeat),
        "online.ingest": ingest_layer(repeat),
    }


def write(results):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(OUT, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_layers_bench():
    results = run(repeat=1)
    write(results)
    synth = results["scenarios.synthesize"]
    assert len(synth["scenarios"]) == 12
    assert synth["records"] == sum(
        entry["records"] for entry in synth["scenarios"].values())
    ingest_result = results["online.ingest"]
    assert ingest_result["records"] == \
        synth["scenarios"][INGEST_SCENARIO]["records"]
    assert ingest_result["checks"] > 0 and ingest_result["windows_rolled"] > 0


def main():
    results = run()
    write(results)
    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
