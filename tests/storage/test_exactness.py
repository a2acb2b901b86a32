"""Exactness oracles for the simulator's request path.

Every figure output in ``benchmarks/results/`` rests on simulated
timestamps, so a change to the request path must not move one of them.
Two oracles pin that down:

* a fresh calibration reproduces the committed ``.repro_cache`` tables
  byte for byte (one-unit disks, RAID0 routing, SSD channel
  parallelism);
* a small seeded consolidation run (OLAP scans beside OLTP terminals on
  disks, a RAID0 group and an SSD) hashes to a pinned digest covering
  every trace field and the run's summary numbers.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import units
from repro.db import tpch_database
from repro.db.engine import run_consolidation
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


def _run_digest(devices):
    scale = 1 / 512
    tpch, tpcc = tpch_database(scale), tpcc_database(scale)
    database = tpch.merged_with(tpcc, prefix_self="h.", prefix_other="c.")
    profiles = OLAP1_21.profiles(
        rename={o: "h." + o for o in tpch.object_names})[:2]
    rename = {o: "c." + o for o in tpcc.object_names}
    result = run_consolidation(
        database, profiles,
        lambda rng: sample_transaction(rng).renamed(rename),
        see_fractions(database, len(devices)),
        [spec.build() for spec in devices],
        terminals=2, seed=3, collect_trace=True,
        stripe_size=units.kib(256),
    )
    digest = hashlib.sha256()
    # Stream ids come from a process-wide counter; only their offsets
    # from the first record's are reproducible.
    base = result.trace[0].stream_id
    for r in result.trace:
        digest.update(repr((
            r.submit_time, r.finish_time, r.target, r.obj,
            r.stream_id - base, r.kind, r.lba, r.logical_offset, r.size,
            r.service_time,
        )).encode())
    digest.update(repr((
        result.elapsed_s, result.tpm, sorted(result.utilizations.items()),
        result.query_times,
    )).encode())
    return len(result.trace), digest.hexdigest()


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


@pytest.mark.parametrize("config", sorted(RUNS))
def test_consolidation_run_matches_pinned_digest(config):
    devices, records, digest = RUNS[config]
    assert _run_digest(devices) == (records, digest)
