"""Fail when a regenerated benchmark output differs from the committed one.

The committed files under ``benchmarks/results/`` are the regression
oracle.  Regenerate them, then run this from the repository root::

    REPRO_CACHE_DIR=$(mktemp -d) PYTHONPATH=src:. python -m pytest benchmarks -q
    PYTHONPATH=src:. python benchmarks/bench_fault_recovery.py
    PYTHONPATH=src python -m repro.cli experiments run \\
        scenarios/matrix-full.yaml --out benchmarks/results/BENCH_scenarios.json \\
        --report benchmarks/results/scenarios.txt
    python benchmarks/oracle_diff.py

Every output git reports as changed is compared with its committed
version after masking its wall-clock fields (:data:`WALL_CLOCK`): fig19's
timings, the time column of ``solver_methods.txt``, ``decision_latency_s``,
``elapsed_s``, the matrix report's run time and the ``seconds``,
``records_per_s`` and ``events_per_s`` fields of ``BENCH_layers.json``.  Any
other difference, and any new or deleted output, is printed and makes the
exit status 1.
"""

import difflib
import os
import re
import subprocess
import sys

RESULTS = "benchmarks/results"

#: Wall-clock fields per output file name; "*" applies to every file.
WALL_CLOCK = {
    "*": [r'"elapsed_s": [-+.\deE]+'],
    "fig19_opt_time.txt": [r" +\d+\.\d+"],
    "solver_methods.txt": [r"(?<=\d) +\d+\.\d+$"],
    "online_drift_events.jsonl": [r'"decision_latency_s": [-+.\deE]+'],
    "scenarios.txt": [r"failed, [\d.]+ s\)"],
    "BENCH_layers.json": [
        r'"(?:seconds|records_per_s|events_per_s)": [-+.\deE]+'],
}


def masked(name, text):
    """``text`` of output ``name`` with its wall-clock fields blanked."""
    for pattern in WALL_CLOCK["*"] + WALL_CLOCK.get(name, []):
        text = re.sub(pattern, "<wall-clock>", text, flags=re.M)
    return text


def _git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def main():
    status = _git("status", "--porcelain", "--untracked-files=all", "--",
                  RESULTS)
    failed = 0
    for line in status.splitlines():
        state, path = line[:2], line[3:]
        name = os.path.basename(path)
        if state.strip() not in ("M", "MM"):
            print("%s: %s" % (path, "new output" if state == "??"
                              else "changed in git status %r" % state))
            failed += 1
            continue
        committed = masked(name, _git("show", "HEAD:" + path))
        with open(path) as handle:
            regenerated = masked(name, handle.read())
        if committed != regenerated:
            sys.stdout.writelines(difflib.unified_diff(
                committed.splitlines(True), regenerated.splitlines(True),
                "committed/" + path, "regenerated/" + path,
            ))
            failed += 1
    print("%d output(s) differ beyond wall-clock fields" % failed)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
