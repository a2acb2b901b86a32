"""Exactness oracles for the simulator's request path.

Every figure output in ``benchmarks/results/`` rests on simulated
timestamps, so a change to the request path must not move one of them.
Two oracles pin that down:

* a fresh calibration reproduces the committed ``.repro_cache`` tables
  byte for byte (one-unit disks, RAID0 routing, SSD channel
  parallelism);
* a small seeded consolidation run (OLAP scans beside OLTP terminals on
  disks, a RAID0 group and an SSD) hashes to a pinned digest covering
  every trace field and the run's summary numbers;
* the same run on four disks, with one target stalled, one degraded and
  one failed and then repaired at fixed simulated times through the
  :class:`StorageTarget` hooks :mod:`repro.faults` drives, hashes to a
  pinned digest that also covers each target's counters.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import units
from repro.db import tpch_database
from repro.db.engine import OlapDriver, OltpDriver, run_consolidation
from repro.db.tpcc import sample_transaction, tpcc_database
from repro.db.workloads import OLAP1_21
from repro.experiments.runner import (
    DEFAULT_CALIBRATION,
    MODEL_VERSION,
    see_fractions,
)
from repro.experiments.scenarios import (
    disk_spec,
    four_disks,
    raid0_spec,
    ssd_spec,
)
from repro.models.calibration import calibrate_device
from repro.storage.engine import SimulationEngine
from repro.storage.mapping import PlacementMap
from repro.storage.streams import SimContext
from repro.storage.target import StorageTarget

CACHE = Path(__file__).resolve().parents[2] / ".repro_cache"

SPECS = {
    "disk15k": disk_spec("disk", 1 / 256),
    "raid0": raid0_spec("raid", 2, 1 / 64),
    "ssd": ssd_spec("ssd", 32, 1 / 64),
}


@pytest.mark.parametrize("kind", ["read", "write"])
@pytest.mark.parametrize("device", sorted(SPECS))
def test_fresh_calibration_reproduces_committed_table(device, kind):
    spec = SPECS[device]
    name = "v%d_%s_%s.json" % (
        MODEL_VERSION, "_".join(str(part) for part in spec.model_key), kind)
    with open(CACHE / name) as handle:
        committed = json.load(handle)
    model = calibrate_device(spec.build, DEFAULT_CALIBRATION, kind)
    assert json.loads(json.dumps(model.to_dict())) == committed


SEED = 3
STRIPE = units.kib(256)


def _inputs():
    """Database, OLAP profiles and OLTP sampler of the pinned runs."""
    scale = 1 / 512
    tpch, tpcc = tpch_database(scale), tpcc_database(scale)
    database = tpch.merged_with(tpcc, prefix_self="h.", prefix_other="c.")
    profiles = OLAP1_21.profiles(
        rename={o: "h." + o for o in tpch.object_names})[:2]
    rename = {o: "c." + o for o in tpcc.object_names}
    return (database, profiles,
            lambda rng: sample_transaction(rng).renamed(rename))


def _digest(trace, summary):
    digest = hashlib.sha256()
    # Stream ids come from a process-wide counter; only their offsets
    # from the first record's are reproducible.
    base = trace[0].stream_id
    for r in trace:
        digest.update(repr((
            r.submit_time, r.finish_time, r.target, r.obj,
            r.stream_id - base, r.kind, r.lba, r.logical_offset, r.size,
            r.service_time,
        )).encode())
    digest.update(repr(summary).encode())
    return len(trace), digest.hexdigest()


def _run_digest(devices):
    database, profiles, sampler = _inputs()
    result = run_consolidation(
        database, profiles, sampler,
        see_fractions(database, len(devices)),
        [spec.build() for spec in devices],
        terminals=2, seed=SEED, collect_trace=True, stripe_size=STRIPE,
    )
    return _digest(result.trace, (
        result.elapsed_s, result.tpm, sorted(result.utilizations.items()),
        result.query_times,
    ))


def _fault_run_digest():
    """The four-disk run with a fault on each of three targets.

    Built the way ``run_consolidation`` builds it, so the faults can be
    scheduled on its engine: disk1 stalls for 0.05 s from t=0, so the
    first requests find it idle yet must wait, and for 0.3 s at t=0.4,
    while it is busy; disk2 is slowed 2.5x from t=0.8; and disk3 fails
    at t=1.2 and is repaired at t=1.6; while failed it errors its queue
    and every submission.
    """
    database, profiles, sampler = _inputs()
    engine = SimulationEngine()
    trace = []
    targets = [StorageTarget(spec.build(), engine=engine, trace=trace)
               for spec in four_disks(1 / 512)]
    placement = PlacementMap(
        database.sizes(), see_fractions(database, len(targets)),
        [target.capacity for target in targets], stripe_size=STRIPE)
    ctx = SimContext(engine, placement, targets)
    oltp = OltpDriver(ctx, database, sampler, terminals=2, seed=SEED + 1)
    olap = OlapDriver(ctx, database, profiles, seed=SEED,
                      on_all_done=lambda _driver: oltp.stop())
    _, stalled, degraded, failed = targets
    stalled.stall(0.05)
    engine.schedule(0.4, stalled.stall, 0.3)
    engine.schedule(0.8, degraded.degrade, 2.5)
    engine.schedule(1.2, failed.fail)
    engine.schedule(1.6, failed.repair)
    olap.start()
    oltp.start()
    engine.run()
    return _digest(trace, (
        engine.now, olap.query_times, oltp.completions,
        [(target.name, target.completed, target.errors, target.busy_time(),
          target.bytes_read, target.bytes_written) for target in targets],
    ))


RUNS = {
    "four-disks": (
        four_disks(1 / 512), 4987,
        "81d555bdf51cf45c20c15b71b6c6845549e93923e4a329a258ac5ca1e87dac67"),
    "raid-disk-ssd": (
        [raid0_spec("raid", 2, 1 / 512), disk_spec("disk1", 1 / 512),
         disk_spec("disk2", 1 / 512), ssd_spec("ssd", 32, 1 / 512)],
        4751,
        "8fa17d2fa2fdb25c0a626a4959e52171f5b596b0b86157e2a966ff07347c77d4"),
}


#: Records and digest of :func:`_fault_run_digest`.
FAULT_RUN = (
    4506, "8ce1aba46b201ab465dbdd4b4202cdb8d209edd8e3b046a57e02422eb2399366")


@pytest.mark.parametrize("config", sorted(RUNS))
def test_consolidation_run_matches_pinned_digest(config):
    devices, records, digest = RUNS[config]
    assert _run_digest(devices) == (records, digest)


def test_faulted_run_matches_pinned_digest():
    assert _fault_run_digest() == FAULT_RUN
