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
hope.  A torn final line (the one partial write a crash can leave
behind) is dropped, and cut before the next append (:mod:`repro.jsonl`);
any other bad line raises, since it means the journal itself is
corrupt.  A journal with no whole record never began: no chunk moves
before ``begin`` is durable.
"""

from dataclasses import asdict

from repro import jsonl
from repro.core.migration import MigrationPlan, Move
from repro.errors import FaultError

VERSION = 1


class MigrationJournal:
    """Append-only chunk journal for one migration.

    Create with :meth:`create` (new migration) or :meth:`load` (crash
    recovery); further records append to the same file.
    ``plan`` is the :class:`~repro.core.migration.MigrationPlan` the
    journal describes, and ``chunks`` is ``plan.chunks(chunk)``.
    """

    def __init__(self, path, plan, chunk, meta, done, committed):
        self.path = path
        self.plan = plan
        self.chunk = int(chunk)
        self.meta = meta
        self.done = set(done)
        self.committed = committed
        self.chunks = plan.chunks(self.chunk)
        for index in self.done:
            if not 0 <= index < len(self.chunks):
                raise FaultError(
                    "journal %s records chunk %d of %d"
                    % (path, index, len(self.chunks))
                )
        self._log = jsonl.AppendLog(path)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path, plan, chunk, meta=None):
        """Start a journal for ``plan`` (a MigrationPlan), overwriting
        any stale journal at ``path``; ``begin`` lands whole, by rename."""
        journal = cls(path, plan, chunk, meta or {}, done=(),
                      committed=False)
        jsonl.replace(path, jsonl.line({
            "kind": "begin", "version": VERSION, "chunk": int(chunk),
            "moves": [asdict(move) for move in plan.moves],
            "meta": journal.meta,
        }))
        return journal

    @classmethod
    def load(cls, path):
        """Parse a journal left behind by a crashed migration.

        Drops a torn *final* line; a journal with no whole record never
        began and loads as None.  Any other bad line, or a first record
        that is not a valid begin, raises :class:`FaultError`.
        """
        records, bad, torn = jsonl.read(path)
        if len(bad) > torn:
            raise FaultError(
                "journal %s is corrupt at line %d" % (path, bad[0])
            )
        if not records:
            return None
        if records[0].get("kind") != "begin":
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
                   done=done, committed=committed)

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
        self._log.append({"kind": "chunk", "index": int(index)})

    def record_commit(self):
        """Mark the migration committed (placement map swapped)."""
        if not self.committed:
            self.committed = True
            self._log.append({"kind": "commit"})

    def close(self):
        self._log.close()
