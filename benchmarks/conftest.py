"""Shared infrastructure for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper's
evaluation (Section 6).  The session-scoped :class:`Lab` fixture caches
the expensive shared artifacts — traced SEE runs, fitted workload
descriptions, calibrated cost models, and advisor recommendations — so
figures that share a workload do not recompute them.

Every benchmark writes its reproduced table to
``benchmarks/results/<name>.txt`` and the terminal summary hook prints
all of them at the end of the run, so the paper-shaped output lands in
the captured benchmark log.
"""

import os

import pytest

from repro.core import LayoutAdvisor
from repro.db import tpch_database
from repro.db.tpcc import sample_transaction, tpcc_database
from repro.db.workloads import OLAP1_21, OLAP1_63, OLAP8_63
from repro.experiments.scenarios import scaled_stripe
from repro.experiments.runner import (
    build_problem,
    fit_workloads_from_run,
    measure_consolidation,
    measure_olap,
    see_fractions,
)

#: All experiments run the paper's 9.4 GB / 9.1 GB databases scaled by
#: this factor so a full figure reproduces in seconds to minutes.
SCALE = 1 / 64

#: LVM stripe size matched to the scale (see scenarios.scaled_stripe).
STRIPE = scaled_stripe(SCALE)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_REPORTS = []


def pytest_addoption(parser):
    parser.addoption(
        "--scenario", default="default", metavar="NAME_OR_FILE",
        help="scenario for bench_online_drift (library name or YAML "
             "path; 'default' aliases the classic OLTP -> scan drift)",
    )


def report(name, text, directory=RESULTS_DIR):
    """Persist one figure's reproduction (``<directory>/<name>.txt``)
    and queue it for the summary."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    _REPORTS.append((name, text))


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("paper reproduction output")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("=== %s ===" % name)
        for line in text.splitlines():
            terminalreporter.write_line(line)


class Lab:
    """Cached pipeline pieces shared by all benchmarks."""

    scale = SCALE

    def __init__(self):
        self._cache = {}

    # ------------------------------------------------------------------
    # Catalogs and workloads
    # ------------------------------------------------------------------

    def tpch(self):
        return self._memo("tpch", lambda: tpch_database(self.scale))

    def consolidated(self):
        """TPC-H + TPC-C merged, objects tagged (h)/(c) as in Fig. 16."""
        def build():
            return tpch_database(self.scale).merged_with(
                tpcc_database(self.scale), prefix_self="h.", prefix_other="c."
            )
        return self._memo("consolidated", build)

    def olap_profiles(self, workload, rename=None):
        return workload.profiles(rename=rename)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------

    def traced_see(self, key, database, profiles, specs, concurrency=1):
        """SEE run with tracing (the 'operational system' observation)."""
        def run():
            return measure_olap(
                database, profiles, see_fractions(database, len(specs)),
                specs, concurrency=concurrency, seed=1, collect_trace=True,
                name="see", stripe_size=STRIPE,
            )
        return self._memo(("traced_see", key), run)

    def fitted(self, key, database, profiles, specs, concurrency=1):
        def run():
            traced = self.traced_see(key, database, profiles, specs,
                                     concurrency)
            return fit_workloads_from_run(traced, database)
        return self._memo(("fitted", key), run)

    def advised(self, key, database, profiles, specs, concurrency=1,
                restarts=1):
        """Fit + calibrate + advise; returns the AdvisorResult."""
        def run():
            workloads = self.fitted(key, database, profiles, specs,
                                    concurrency)
            problem = build_problem(database, specs, workloads,
                                    stripe_size=STRIPE)
            return LayoutAdvisor(problem, regular=True,
                                 restarts=restarts).recommend()
        return self._memo(("advised", key), run)

    def measure(self, database, profiles, fractions, specs, concurrency=1,
                name="run"):
        return measure_olap(database, profiles, fractions, specs,
                            concurrency=concurrency, seed=1, name=name,
                            stripe_size=STRIPE)

    def traced_consolidation_see(self, specs):
        def run():
            database = self.consolidated()
            profiles = self.olap_profiles(
                OLAP1_21, rename={o: "h." + o
                                  for o in tpch_database().object_names}
            )
            return measure_consolidation(
                database, profiles, self._tpcc_sampler(),
                see_fractions(database, len(specs)), specs,
                olap_concurrency=1, terminals=9, seed=1, collect_trace=True,
                name="see", stripe_size=STRIPE,
            )
        return self._memo("traced_consolidation_see", run)

    def _tpcc_sampler(self):
        def sampler(rng):
            return sample_transaction(rng).renamed(self._tpcc_rename())
        return sampler

    def _tpcc_rename(self):
        return {o: "c." + o for o in tpcc_database().object_names}

    def fitted_consolidation(self, specs):
        def run():
            traced = self.traced_consolidation_see(specs)
            return fit_workloads_from_run(traced, self.consolidated())
        return self._memo("fitted_consolidation", run)

    def advised_consolidation(self, specs):
        def run():
            workloads = self.fitted_consolidation(specs)
            problem = build_problem(self.consolidated(), specs, workloads,
                                    stripe_size=STRIPE)
            return LayoutAdvisor(problem, regular=True).recommend()
        return self._memo("advised_consolidation", run)

    def measure_consolidated(self, fractions, specs, name="run"):
        database = self.consolidated()
        profiles = self.olap_profiles(
            OLAP1_21, rename={o: "h." + o
                              for o in tpch_database().object_names}
        )
        return measure_consolidation(
            database, profiles, self._tpcc_sampler(), fractions, specs,
            olap_concurrency=1, terminals=9, seed=1, name=name,
            stripe_size=STRIPE,
        )

    def _memo(self, key, producer):
        if key not in self._cache:
            self._cache[key] = producer()
        return self._cache[key]


@pytest.fixture(scope="session")
def lab():
    return Lab()


#: Workloads used repeatedly across figures.
WORKLOADS = {
    "OLAP1-21": OLAP1_21,
    "OLAP1-63": OLAP1_63,
    "OLAP8-63": OLAP8_63,
}
