"""The JSON problem format: a parsed description → a :class:`LayoutProblem`.

The CLI (``repro advise``, ``repro replay-online``), the advisor service
(tenant create and recovery) and the scenario matrix all read problems
through :func:`load_problem`; a compiled scenario lowers to the same
format (:meth:`~repro.scenarios.compiler.CompiledScenario.problem_payload`).

Problem file format::

    {
      "stripe_size": 1048576,
      "targets": [
        {"name": "disk0", "capacity": 19757048, "kind": "disk15k"},
        {"name": "raid", "capacity": 39514096, "kind": "raid0",
         "members": 2},
        {"name": "ssd", "capacity": 4194304, "kind": "ssd"}
      ],
      "objects": [
        {"name": "lineitem", "size": 5242880,
         "read_rate": 800, "write_rate": 0,
         "read_size": 8192, "write_size": 8192,
         "run_count": 64, "overlap": {"orders": 0.9}}
      ]
    }

Target kinds are the rows of :data:`repro.storage.kinds.KINDS`:
``disk15k`` (the default), ``disk7200``, ``ssd``, and ``raid0``, a RAID0
group of ``members`` 15K drives.  ``members`` defaults to 1 and must be
a positive integer.  Each target gets the analytic cost model of its
kind, or with ``calibrate=True`` a table model measured on the simulator.
"""

from repro.core.problem import LayoutProblem, TargetSpec
from repro.models.analytic import analytic_target_model
from repro.storage.kinds import target_kind
from repro.units import DEFAULT_STRIPE_SIZE
from repro.workload.spec import ObjectWorkload


def _calibrated_model(name, kind, capacity, members):
    from repro.experiments.runner import get_target_model
    from repro.experiments.scenarios import DeviceSpec

    return get_target_model(DeviceSpec(name, kind, capacity,
                                       n_members=members))


def load_problem(data, calibrate=False):
    """Build a :class:`LayoutProblem` from a parsed JSON description."""
    targets = []
    for index, entry in enumerate(data["targets"]):
        name, capacity = entry["name"], int(entry["capacity"])
        kind, members = target_kind(entry, "targets[%d]" % index)
        model = (_calibrated_model(name, kind, capacity, members) if calibrate
                 else analytic_target_model(name, kind, members))
        targets.append(TargetSpec(name=name, capacity=capacity, model=model))

    sizes = {}
    workloads = []
    for entry in data["objects"]:
        sizes[entry["name"]] = int(entry["size"])
        workloads.append(ObjectWorkload(
            name=entry["name"],
            read_size=entry.get("read_size", 8192),
            write_size=entry.get("write_size", 8192),
            read_rate=entry.get("read_rate", 0.0),
            write_rate=entry.get("write_rate", 0.0),
            run_count=entry.get("run_count", 1.0),
            overlap=dict(entry.get("overlap", {})),
        ))

    return LayoutProblem(
        sizes, targets, workloads,
        stripe_size=int(data.get("stripe_size", DEFAULT_STRIPE_SIZE)),
    )
