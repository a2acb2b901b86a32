"""paper-consolidation: the paper's Figure 15 pipeline, end to end.

TPC-H OLAP1-21 (one query stream) and TPC-C (nine terminals) share four
15K disks at 1/128 scale, 40 objects in all.  One iteration is the
paper's whole methodology: a traced run under SEE (stripe everything
everywhere) on the discrete-event simulator, fitting per-object
workloads from the trace, building the problem with calibrated table
cost models, the advisor (SLSQP, then regularization), and a measured
run under the advised layout.  It is the only workload that runs the
simulator and the calibrated ``TableCostModel``, and it mixes OLTP
writes with OLAP scans at the device level.

Inputs: the paper's workload is fixed, so iteration ``i`` relabels every
object with a prefix drawn from ``(seed, i)`` — no two iterations show
the program the same names — while the simulator seed stays the
paper's.  Varying the simulator seed was tried and rejected: it swings
SLSQP's iteration count on this problem between 1 and 145, so the
pipeline time would measure the seed instead of the code.  The same
holds layout quality (``util_vs_see``, ``sim_speedup``) fixed, which
``reference.json`` then checks exactly.

Set-up: imports, the two catalogs, and a cold calibration of the disk
type (read and write cost tables) into an empty cache directory.
"""

from harness import iterate, time_setups, traced_phase
from inputs import relabel_token
from repro.core import LayoutAdvisor
from repro.db import tpch_database
from repro.db.tpcc import sample_transaction, tpcc_database
from repro.db.workloads import OLAP1_21
from repro.experiments import runner
from repro.experiments.scenarios import four_disks

SCALE = 1 / 128
TERMINALS = 9
#: The simulator seed of the paper-figure benchmarks.
SIM_SEED = 1
#: Smoke runs: coarser scale, two queries, two terminals.
SMOKE = {"scale": 1 / 256, "queries": 2, "terminals": 2}


def _config(ctx):
    if ctx.smoke:
        return SMOKE
    return {"scale": SCALE, "queries": len(OLAP1_21.queries),
            "terminals": TERMINALS}


def setup(ctx):
    """Catalogs plus calibrated models for the four disks."""
    config = _config(ctx)
    specs = four_disks(config["scale"])
    for spec in specs:
        runner.get_target_model(spec)
    return {"specs": specs, "config": config,
            "tpch": tpch_database(config["scale"]),
            "tpcc": tpcc_database(config["scale"])}


def _inputs(ctx, state, index):
    token = relabel_token(ctx.seed, index)
    h_prefix, c_prefix = "h%s." % token, "c%s." % token
    database = state["tpch"].merged_with(
        state["tpcc"], prefix_self=h_prefix, prefix_other=c_prefix)
    profiles = OLAP1_21.profiles(
        rename={o: h_prefix + o for o in state["tpch"].object_names}
    )[:state["config"]["queries"]]
    rename = {o: c_prefix + o for o in state["tpcc"].object_names}

    def sampler(rng):
        return sample_transaction(rng).renamed(rename)

    return {"database": database, "profiles": profiles, "sampler": sampler}


def _pipeline(state, inputs):
    specs = state["specs"]
    terminals = state["config"]["terminals"]
    database = inputs["database"]
    see = runner.measure_consolidation(
        database, inputs["profiles"], inputs["sampler"],
        runner.see_fractions(database, len(specs)), specs,
        terminals=terminals, seed=SIM_SEED, collect_trace=True, name="see",
    )
    workloads = runner.fit_workloads_from_run(see, database)
    problem = runner.build_problem(database, specs, workloads)
    advised = LayoutAdvisor(problem, regular=True).recommend()
    measured = runner.measure_consolidation(
        database, inputs["profiles"], inputs["sampler"],
        advised.recommended.fractions_by_name(), specs,
        terminals=terminals, seed=SIM_SEED, name="advised",
    )
    return {"see": see, "problem": problem, "advised": advised,
            "measured": measured}


def run(ctx, outcome):
    if not ctx.trace:
        outcome.setup_s, cache = time_setups(ctx)
        runner.CACHE_DIR = cache  # warm: the last set-up calibrated it
    state = setup(ctx)
    qualities = []

    def verify(_index, inputs, result):
        advised, measured = result["advised"], result["measured"]
        try:
            result["problem"].validate_layout(advised.recommended)
            ok = True
        except Exception as error:  # noqa: BLE001 — reported as a check
            ok = outcome.check("advised layout valid", False, error)
        if measured.completed_queries != len(inputs["profiles"]):
            ok = outcome.check(
                "every query ran under the advised layout", False,
                "%d of %d" % (measured.completed_queries,
                              len(inputs["profiles"])))
        outcome.op(ok)
        qualities.append({
            "util_vs_see": (advised.max_utilization("regular")
                            / advised.max_utilization("see")),
            "sim_speedup": result["see"].elapsed_s / measured.elapsed_s,
        })

    def prepare(index):
        return _inputs(ctx, state, index)

    def execute(inputs):
        return _pipeline(state, inputs)

    times, _, index = iterate(ctx, prepare, execute, verify)
    outcome.ops_ms = [t * 1e3 for t in times]
    outcome.quality = dict(qualities[0])
    outcome.layer["paper.sim_speedup"] = outcome.quality["sim_speedup"]
    outcome.info["iterations"] = len(times)

    if ctx.trace:
        def cold_setup():
            runner.clear_model_cache()
            runner.CACHE_DIR = ctx.fresh_dir("cache-")
            setup(ctx)

        traced_phase(ctx, outcome, times, prepare, execute, verify, index,
                     setup=cold_setup)
    outcome.check("relabelled iterations agree on quality",
                  all(q == qualities[0] for q in qualities), qualities)
