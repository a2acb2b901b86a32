"""One workload run in its own process (spawned by ``run.py``).

Usage::

    python worker.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --run-dir DIR --out RESULT.json [--trace-path SPANS.jsonl] [--smoke]
    python worker.py --setup-only --workload NAME --seed N [--smoke]

Writes the workload's :class:`harness.Outcome` as JSON to ``--out``;
``--setup-only`` performs just the imports and set-up (``run.py`` times
such processes for ``setup_s``).
"""

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import asdict

from harness import Context, Outcome

MODULES = {
    "paper-consolidation": "workload_paper",
    "fleet-advise": "workload_fleet",
    "drift-matrix": "workload_drift",
    "serve-mixed": "workload_serve",
}


def environment():
    """What the run depended on but did not set (recorded, not pinned)."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb():
    """Largest resident set of this process and every child it reaped
    (servers, pool workers, set-up processes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace-path", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(MODULES[args.workload])
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  smoke=args.smoke,
                  run_dir=args.run_dir or os.getcwd(),
                  trace_path=args.trace_path)
    if args.setup_only:
        module.setup(ctx)
        return 0

    outcome = Outcome()
    try:
        module.run(ctx, outcome)
    except Exception:  # noqa: BLE001 — reported as a failed check
        outcome.check("workload ran to completion", False,
                      traceback.format_exc()[-300:])
    outcome.info["environment"] = environment()
    outcome.peak_rss_mb = peak_rss_mb()
    with open(args.out, "w") as handle:
        json.dump(asdict(outcome), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
