"""Durable tenant state for the serving layer: WAL + snapshots.

The advisor service hosts hundreds of tenants whose state — problem,
controller config, layout, trace clock, SLO standing — otherwise lives
only in process memory: a ``kill -9`` would strand every in-flight
migration and forget every tenant.  This module makes the serving
layer crash-recoverable with the classic database recipe:

* a **per-tenant write-ahead log** (``<state_dir>/<tenant>/wal.jsonl``)
  records every durable state transition as one fsynced JSON line —
  tenant create (with the full problem payload), applied trace-chunk
  offsets, placement swaps, idempotency records, and delete.  The line
  format, the fsync and the torn-tail rule are :mod:`repro.jsonl`'s: a
  torn *final* line (the one partial write a crash can leave behind) is
  dropped, and the next append first cuts it; any earlier bad line is
  skipped and counted, never fatal — one bad line must not strand a
  tenant.
* **periodic compacting snapshots**
  (``<state_dir>/<tenant>/snapshot-<n>.json``, written atomically via
  rename) fold the WAL into one self-contained state document — the
  ``ServedController.status()``-shaped payload plus layout rows, the
  monitor's decayed-window digest, the drift baseline, and the SLO
  window's high-water marks.  After a snapshot lands, the WAL restarts
  empty: recovery cost is bounded by the snapshot interval, not by
  tenant lifetime.
* :func:`load_tenant_state` replays snapshot + WAL tail into one
  effective state dict; :func:`recover_state_dir` enumerates a whole
  state directory.  The service's ``recover()`` path turns those into
  live tenants and re-enters suspended migration journals through the
  controller's existing ``resume_migration()``.

Recovery ordering (the durability contract, DESIGN.md §15): the WAL
record for an event is written *after* the event's own durable effect
(a migration journal's commit record precedes its WAL ``swap`` line),
so replay applies the snapshot, then WAL records in sequence order,
then reconciles migration journals — committed journals not yet
reflected by a ``swap`` record win over the WAL's older layout, and
uncommitted journals are resumed exactly once.
"""

import json
import os
import re
import shutil

from repro import jsonl
from repro.errors import ReproError

#: Schema version stamped on every WAL record and snapshot.
VERSION = 1

#: WAL record kinds replay understands.
KINDS = ("create", "feed", "swap", "idem", "delete")

_SNAPSHOT = re.compile(r"^snapshot-(\d+)\.json$")


class DurabilityError(ReproError):
    """A WAL or snapshot is unusable (not merely torn)."""


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------

class TenantWAL:
    """Append-only fsync JSONL write-ahead log for one tenant.

    Every :meth:`append` assigns the next sequence number and appends
    one durable line (:class:`repro.jsonl.AppendLog`): when the call
    returns, the event is durable.  ``seq`` restarts relative to
    nothing — it is monotonically increasing across the tenant's whole
    life (snapshots store the last folded seq, compaction preserves the
    counter), so "records newer than snapshot" is a simple comparison.
    """

    def __init__(self, directory, start_seq=0):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, "wal.jsonl")
        self.seq = int(start_seq)
        self._log = jsonl.AppendLog(self.path)

    @classmethod
    def resume(cls, directory):
        """A WAL positioned after the last durable record on disk.

        Reads the newest snapshot's folded seq and the WAL tail so the
        next :meth:`append` continues the tenant's lifetime sequence —
        used both at recovery and when re-creating a tenant id whose
        directory already exists.
        """
        snapshot = load_snapshot(directory)
        floor = int(snapshot["wal_seq"]) if snapshot is not None else 0
        records, _ = read_wal(os.path.join(str(directory), "wal.jsonl"))
        if records:
            floor = max(floor, records[-1]["seq"])
        return cls(directory, start_seq=floor)

    def append(self, kind, **payload):
        """Durably append one record; returns its sequence number."""
        if kind not in KINDS:
            raise DurabilityError("unknown WAL record kind %r" % kind)
        self.seq += 1
        record = {"seq": self.seq, "kind": kind, "v": VERSION}
        record.update(payload)
        self._log.append(record)
        return self.seq

    def compact(self, upto_seq):
        """Drop records already folded into a snapshot.

        Rewrites the WAL atomically keeping only records with
        ``seq > upto_seq`` (normally none — the snapshot is taken right
        after the last append).  The sequence counter survives.
        """
        tail = [r for r in read_wal(self.path)[0] if r["seq"] > upto_seq]
        self.close()
        jsonl.replace(self.path, "".join(jsonl.line(r) for r in tail))

    def close(self):
        self._log.close()


def _is_wal_record(record):
    return "seq" in record and record.get("kind") in KINDS


def read_wal(path):
    """Parse a WAL; returns ``(records, skipped)``.

    A missing file is an empty log.  A torn final line (the partial
    write of a crash) is silently dropped; any *other* bad line — not
    JSON, or a record without ``seq`` or of an unknown kind — is
    skipped and counted: data loss is surfaced, not fatal.  Records
    are returned in sequence order.
    """
    try:
        records, bad, torn = jsonl.read(path, check=_is_wal_record)
    except FileNotFoundError:
        return [], 0
    records.sort(key=lambda r: r["seq"])
    return records, len(bad) - torn


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

def write_snapshot(directory, state, keep=2):
    """Atomically write a compacting snapshot; returns its path.

    ``state`` must carry ``wal_seq`` (the last WAL sequence folded in).
    The document is written to a temp file, fsynced, renamed into
    place, and older snapshots beyond ``keep`` are pruned — a crash at
    any byte leaves either the previous snapshot set or the new one,
    never a half-written current snapshot.
    """
    if "wal_seq" not in state:
        raise DurabilityError("snapshot state needs a wal_seq")
    os.makedirs(directory, exist_ok=True)
    existing = _snapshots(directory)
    index = (existing[-1][0] + 1) if existing else 1
    path = os.path.join(directory, "snapshot-%06d.json" % index)
    document = dict(state)
    document["v"] = VERSION
    jsonl.replace(path, json.dumps(document))
    for _, old in existing[:max(0, len(existing) + 1 - keep)]:
        try:
            os.remove(old)
        except OSError:
            pass
    return path


def _snapshots(directory):
    """``(index, path)`` of every snapshot, oldest first."""
    out = []
    try:
        names = os.listdir(directory)
    except OSError:
        return out
    for name in names:
        match = _SNAPSHOT.match(name)
        if match:
            out.append((int(match.group(1)),
                        os.path.join(directory, name)))
    out.sort()
    return out


def load_snapshot(directory):
    """The newest *valid* snapshot document, or None.

    A snapshot torn by a crash mid-write cannot exist (rename is
    atomic), but a corrupt file — disk fault, manual edit — falls back
    to the next-older snapshot rather than failing recovery.
    """
    for _, path in reversed(_snapshots(directory)):
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(document, dict) and "wal_seq" in document:
            return document
    return None


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

def load_tenant_state(directory):
    """Snapshot + WAL tail → one effective tenant state dict, or None.

    Returns None when the directory holds no recoverable tenant (no
    create record and no snapshot) or the tenant was deleted.  The
    returned dict carries::

        tenant_id, problem, controller, weight, slo,
        layout            — fractions by object name (latest effective)
        clock_s, next_check, records_fed, chunks_fed, advises, resolves
        monitor           — monitor digest (may be None)
        solved            — drift-baseline workloads (latest effective;
                            may be None)
        slo_state         — window high-water marks (may be None)
        journal_seq       — last migration journal number issued
        swapped_journals  — journal basenames whose swap reached the WAL
        idempotency       — key → {route, response} replay cache
        wal_seq, wal_skipped
    """
    snapshot = load_snapshot(directory)
    records, skipped = read_wal(os.path.join(directory, "wal.jsonl"))
    state = None
    if snapshot is not None:
        state = dict(snapshot)
        state.pop("v", None)
    floor = state["wal_seq"] if state is not None else 0

    deleted = False
    for record in records:
        if record["seq"] <= floor:
            continue
        kind = record["kind"]
        if kind == "create":
            # A create record is an authoritative rebirth: it resets any
            # earlier state so delete-then-recreate of the same id
            # replays to the *new* tenant, not a hybrid of both lives.
            state = {
                "tenant_id": record.get("tenant_id"),
                "problem": record.get("problem"),
                "controller": record.get("controller") or {},
                "weight": record.get("weight", 1.0),
                "slo": record.get("slo"),
                "layout": record.get("layout"),
                "clock_s": None,
                "next_check": None,
                "records_fed": 0,
                "chunks_fed": 0,
                "advises": 0,
                "resolves": 0,
                "monitor": None,
                "solved": None,
                "slo_state": None,
                "journal_seq": record.get("journal_seq", 0),
                "swapped_journals": [],
                "idempotency": {},
            }
            deleted = False
        elif state is None:
            # Feed/swap records with no create and no snapshot mean the
            # create line itself was lost — nothing to rebuild from.
            continue
        elif kind == "feed":
            state["clock_s"] = record.get("clock_s", state.get("clock_s"))
            state["next_check"] = record.get("next_check",
                                             state.get("next_check"))
            state["records_fed"] = record.get("records_fed",
                                              state.get("records_fed", 0))
            state["chunks_fed"] = record.get("chunks_fed",
                                             state.get("chunks_fed", 0))
            state["resolves"] = record.get("resolves",
                                           state.get("resolves", 0))
        elif kind == "swap":
            state["layout"] = record.get("layout", state.get("layout"))
            state["solved"] = record.get("solved", state.get("solved"))
            state["resolves"] = record.get("resolves",
                                           state.get("resolves", 0))
            state["journal_seq"] = max(
                int(state.get("journal_seq") or 0),
                int(record.get("journal_seq") or 0),
            )
            journal = record.get("journal")
            if journal:
                swapped = state.setdefault("swapped_journals", [])
                if journal not in swapped:
                    swapped.append(journal)
        elif kind == "idem":
            state.setdefault("idempotency", {})[record["key"]] = {
                "route": record.get("route"),
                "response": record.get("response"),
            }
        elif kind == "delete":
            deleted = True

    if state is None or deleted:
        return None
    if not state.get("tenant_id") or state.get("problem") is None \
            or state.get("layout") is None:
        raise DurabilityError(
            "state under %s has no recoverable tenant identity" % directory
        )
    state.setdefault("swapped_journals", [])
    state.setdefault("idempotency", {})
    state["wal_seq"] = records[-1]["seq"] if records else floor
    state["wal_skipped"] = skipped + int(state.pop("snapshot_skipped", 0) or 0)
    return state


def recover_state_dir(state_dir):
    """Every recoverable tenant under ``state_dir``, sorted by id.

    Returns ``(states, errors)`` — per-tenant state dicts plus a list
    of ``(tenant_dir, error)`` for directories whose state could not be
    replayed.  One corrupt tenant must not block the rest of the fleet
    from coming back.  A directory whose WAL ends in ``delete`` is
    removed.
    """
    states, errors = [], []
    if state_dir is None or not os.path.isdir(state_dir):
        return states, errors
    for name in sorted(os.listdir(state_dir)):
        directory = os.path.join(state_dir, name)
        if not os.path.isdir(directory):
            continue
        try:
            state = load_tenant_state(directory)
        except Exception as error:  # noqa: BLE001 — isolated per tenant
            errors.append((directory, error))
            continue
        if state is not None:
            states.append(state)
        elif _ends_in_delete(directory):
            # A crash landed between the delete record and the removal
            # of the directory: finish the removal.
            shutil.rmtree(directory, ignore_errors=True)
    return states, errors


def _ends_in_delete(directory):
    records, _ = read_wal(os.path.join(directory, "wal.jsonl"))
    return bool(records) and records[-1]["kind"] == "delete"
