"""Crash-safe migration journal.

A migration that dies half-way (process crash, power loss) must be
resumable without re-copying everything and without losing track of
which chunks already landed.  The journal is an append-only JSONL file
with three record kinds:

* ``begin`` — written once, before any data moves: the migration's
  identity (moves, chunk size, schema version) plus an opaque ``meta``
  dict the online controller uses to rebuild its pending-migration
  state (new layout fractions, predicted utilization, accept time);
* ``chunk`` — appended *after* a chunk's destination write completes,
  so a recorded chunk is durable by construction;
* ``commit`` — appended when the placement map is swapped; a journal
  with a commit record needs no recovery at all.

Recovery replays the file: chunks recorded are done, everything else is
(re)copied.  Re-copying a chunk whose record was lost is harmless —
chunk writes are idempotent — which is what makes "crash after any
chunk, resume, same final placement" a provable property rather than a
hope.  Parsing is tolerant of a truncated final line (the one partial
write a crash can leave behind); any other malformed line raises, since
it means the journal itself is corrupt.
"""

import json
import os
from dataclasses import asdict

from repro.core.migration import MigrationPlan, Move
from repro.errors import FaultError

VERSION = 1


class MigrationJournal:
    """Append-only chunk journal for one migration.

    Create with :meth:`create` (new migration) or :meth:`load` (crash
    recovery); both leave the file open for appending further records.
    ``plan`` is the :class:`~repro.core.migration.MigrationPlan` the
    journal describes, and ``chunks`` is ``plan.chunks(chunk)``.
    """

    def __init__(self, path, plan, chunk, meta, done, committed,
                 malformed=0):
        self.path = path
        self.plan = plan
        self.chunk = int(chunk)
        self.meta = meta
        self.done = set(done)
        self.committed = committed
        self.malformed = malformed
        self.chunks = plan.chunks(self.chunk)
        for index in self.done:
            if not 0 <= index < len(self.chunks):
                raise FaultError(
                    "journal %s records chunk %d of %d"
                    % (path, index, len(self.chunks))
                )
        self._handle = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path, plan, chunk, meta=None):
        """Start a journal for ``plan`` (a MigrationPlan), overwriting
        any stale journal at ``path``."""
        journal = cls(path, plan, chunk, meta or {}, done=(),
                      committed=False)
        journal._handle = open(path, "w")
        journal._append({
            "kind": "begin", "version": VERSION, "chunk": int(chunk),
            "moves": [asdict(move) for move in plan.moves],
            "meta": journal.meta,
        })
        return journal

    @classmethod
    def load(cls, path):
        """Parse a journal left behind by a crashed migration.

        Tolerates a truncated *final* line; any other malformed line —
        or a missing/garbled begin record — raises :class:`FaultError`.
        """
        with open(path) as handle:
            lines = handle.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records = []
        malformed = 0
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    malformed += 1  # torn final write from the crash
                    continue
                raise FaultError(
                    "journal %s is corrupt at line %d" % (path, position + 1)
                )
        if not records or records[0].get("kind") != "begin":
            raise FaultError("journal %s has no begin record" % path)
        begin = records[0]
        if begin.get("version") != VERSION:
            raise FaultError(
                "journal %s has version %r (expected %d)"
                % (path, begin.get("version"), VERSION)
            )
        done = set()
        committed = False
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "chunk":
                done.add(int(record["index"]))
            elif kind == "commit":
                committed = True
            else:
                raise FaultError(
                    "journal %s has unknown record kind %r" % (path, kind)
                )
        plan = MigrationPlan.from_moves(
            Move(**move) for move in begin["moves"]
        )
        return cls(path, plan, begin["chunk"], begin.get("meta", {}),
                   done=done, committed=committed, malformed=malformed)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def total_chunks(self):
        return len(self.chunks)

    def remaining(self):
        """Chunk indices still to copy, in order."""
        return [i for i in range(len(self.chunks)) if i not in self.done]

    def matches(self, plan, chunk):
        """True when this journal describes exactly this migration."""
        return plan.moves == self.plan.moves and int(chunk) == self.chunk

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _append(self, record):
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_chunk(self, index):
        """Mark chunk ``index`` durable (call after its write lands)."""
        if not 0 <= index < len(self.chunks):
            raise FaultError(
                "chunk index %d out of range (journal has %d chunks)"
                % (index, len(self.chunks))
            )
        if index in self.done:
            return
        self.done.add(index)
        self._append({"kind": "chunk", "index": int(index)})

    def record_commit(self):
        """Mark the migration committed (placement map swapped)."""
        if not self.committed:
            self.committed = True
            self._append({"kind": "commit"})

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
