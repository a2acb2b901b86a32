"""Generated inputs, kept here so that edits to the repository's other
benchmarks cannot change what this one measures."""

import numpy as np

from repro import units
from repro.core.problem import LayoutProblem, TargetSpec
from repro.models.analytic import analytic_disk_target_model
from repro.workload.spec import ObjectWorkload


def relabel_token(seed, index):
    """Six hex digits drawn from ``(seed, index)``: the per-iteration
    name prefix that makes a fixed problem look new to the program."""
    return "%06x" % np.random.default_rng([seed, index]).integers(16 ** 6)


def ring_problem(rng, n_objects, n_targets, prefix="obj"):
    """Synthetic fleet with ring overlaps: each object's I/O overlaps
    with its two neighbours', so the overlap graph is one cycle that the
    partitioned solver must cut.  ``prefix`` only renames objects."""
    names = ["%s%04d" % (prefix, i) for i in range(n_objects)]
    sizes, workloads = {}, []
    for i, name in enumerate(names):
        sizes[name] = units.mib(int(rng.integers(20, 120)))
        overlap = {
            names[(i - 1) % n_objects]: float(rng.uniform(0.2, 0.8)),
            names[(i + 1) % n_objects]: float(rng.uniform(0.2, 0.8)),
        }
        workloads.append(ObjectWorkload(
            name,
            read_rate=float(rng.integers(50, 500)),
            write_rate=float(rng.integers(0, 120)),
            run_count=float(rng.integers(1, 64)),
            overlap=overlap,
        ))
    per_target = sum(sizes.values()) / n_targets
    targets = [TargetSpec("t%d" % j, int(per_target * 2.5),
                          analytic_disk_target_model("t%d" % j))
               for j in range(n_targets)]
    return LayoutProblem(sizes, targets, workloads)


#: One served tenant: a disk and an SSD, two objects.  The targets are
#: heterogeneous so a workload inversion really changes the optimal
#: layout, and feeds then cause re-solves and migrations.
TENANT_TARGETS = [
    {"name": "d0", "capacity": 8 << 20, "kind": "disk15k"},
    {"name": "ssd", "capacity": 4 << 20, "kind": "ssd"},
]

#: Aggressive controller: one drifted chunk is enough to re-solve.
TENANT_CONTROLLER = {
    "check_interval_s": 2.0,
    "patience": 1,
    "cooldown_s": 0.0,
    "min_gain": 0.001,
    "amortization_s": 10000.0,
    "monitor_halflife_s": 4.0,
}

#: Request rates (per second) of the hot and the cold object in a feed.
HOT_RATE, COLD_RATE = 200.0, 20.0


def tenant_payload(rng, tenant_id):
    """Create-tenant body: ``a`` hot, ``b`` cold, rates jittered."""
    jitter = rng.uniform(0.8, 1.25, size=2)
    return {
        "tenant_id": tenant_id,
        "problem": {
            "stripe_size": 1 << 20,
            "targets": TENANT_TARGETS,
            "objects": [
                {"name": "a", "size": 3 << 20,
                 "read_rate": round(120.0 * jitter[0], 3), "run_count": 4},
                {"name": "b", "size": 3 << 20,
                 "read_rate": round(20.0 * jitter[1], 3), "run_count": 4},
            ],
        },
        "controller": TENANT_CONTROLLER,
    }


def drift_chunk(rng, chunk_index, chunk_s=4.0):
    """Trace records for one tenant's ``chunk_index``-th feed.

    The hot object starts as ``b`` (the inverse of what the tenant was
    created for) and flips every three chunks, so the tenant's
    controller keeps re-solving and migrating.  Arrivals are Poisson.
    """
    hot = "b" if (chunk_index // 3) % 2 == 0 else "a"
    cold = "a" if hot == "b" else "b"
    start = chunk_index * chunk_s
    records = []
    for obj, rate in ((hot, HOT_RATE), (cold, COLD_RATE)):
        count = int(rng.poisson(rate * chunk_s))
        for t in np.sort(rng.uniform(start, start + chunk_s, size=count)):
            records.append({"obj": obj, "finish_time": round(float(t), 6),
                            "kind": "read", "size": 8192,
                            "service_time": 0.002})
    records.sort(key=lambda r: r["finish_time"])
    return records
