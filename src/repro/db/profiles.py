"""Query I/O profile types.

A :class:`QueryProfile` abstracts a query execution plan down to the
level the storage system sees: a sequence of *phases*, each a set of
concurrent object accesses (sequential scans or random probes) that must
all finish before the next phase starts.  This is the substitution for
running PostgreSQL: the per-query profiles in :mod:`repro.db.tpch` and
:mod:`repro.db.tpcc` encode which objects each query touches, how much,
and with what access pattern, so layout changes move simulated elapsed
times the way they moved wall-clock times in the paper.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

SEQ = "seq"
RAND = "rand"


@dataclass(frozen=True)
class AccessSpec:
    """One object access within a query phase.

    Attributes:
        obj: Object name in the database catalog.
        mode: ``"seq"`` (sequential scan; OS readahead keeps a window of
            requests in flight) or ``"rand"`` (random page probes).
        fraction: For sequential access, the fraction of the object
            scanned (1.0 = full scan; values above 1.0 mean repeated
            scans and are split into full passes).  For random access
            with ``pages == 0``, the number of probes is
            ``fraction · object_size / page_size`` — probe volume that
            scales with the database, which is what OLAP index probes do.
        pages: An *absolute* number of pages (used by OLTP transactions,
            whose per-transaction I/O does not grow with table size).
            For sequential access an absolute page count reads/writes
            that many consecutive pages (e.g. a log commit record).
            When positive it takes precedence over ``fraction``.
        kind: ``"read"`` or ``"write"``.
        window: Requests kept in flight by this access's stream.
    """

    obj: str
    mode: str = SEQ
    fraction: float = 1.0
    pages: int = 0
    kind: str = "read"
    window: int = 8

    def __post_init__(self):
        if self.mode not in (SEQ, RAND):
            raise ValueError("unknown access mode %r" % self.mode)
        if self.pages <= 0 and self.fraction <= 0:
            raise ValueError(
                "access needs a positive page count or fraction"
            )


@dataclass(frozen=True)
class Phase:
    """Concurrent accesses; the phase ends when all of them finish."""

    accesses: Tuple[AccessSpec, ...]

    def __post_init__(self):
        if not self.accesses:
            raise ValueError("a phase needs at least one access")


@dataclass(frozen=True)
class QueryProfile:
    """A query (or transaction) as a sequence of I/O phases."""

    name: str
    phases: Tuple[Phase, ...]

    #: ``(mapping, profile)`` of the last :meth:`renamed` call.  Not a
    #: field: it takes no part in equality, hashing or ``repr``.
    _renamed = None

    def __post_init__(self):
        if not self.phases:
            raise ValueError("query %s has no phases" % self.name)

    @property
    def objects(self):
        """All object names the profile touches."""
        seen = []
        for phase in self.phases:
            for access in phase.accesses:
                if access.obj not in seen:
                    seen.append(access.obj)
        return seen

    def renamed(self, rename):
        """Profile with object names remapped via ``rename`` mapping.

        The profile keeps its last mapping and result, a one-entry memo:
        an OLTP sampler that renames every transaction it draws with one
        mapping builds each renamed profile once.  Profiles are frozen,
        so the shared result is safe to hand out again.
        """
        memo = self._renamed
        if memo is not None and memo[0] == rename:
            return memo[1]
        profile = QueryProfile(
            self.name,
            tuple(
                Phase(tuple(
                    AccessSpec(
                        obj=rename.get(a.obj, a.obj),
                        mode=a.mode,
                        fraction=a.fraction,
                        pages=a.pages,
                        kind=a.kind,
                        window=a.window,
                    )
                    for a in phase.accesses
                ))
                for phase in self.phases
            ),
        )
        object.__setattr__(self, "_renamed", (dict(rename), profile))
        return profile


def phase(*accesses):
    """Shorthand constructor used by the profile tables."""
    return Phase(tuple(accesses))


def seq(obj, fraction=1.0, pages=0, kind="read", window=8):
    """Shorthand for a sequential access spec."""
    return AccessSpec(obj=obj, mode=SEQ, fraction=fraction, pages=pages,
                      kind=kind, window=window)


def rand(obj, fraction=0.0, pages=0, kind="read", window=2):
    """Shorthand for a random access spec (fractional or absolute)."""
    return AccessSpec(obj=obj, mode=RAND, fraction=fraction, pages=pages,
                      kind=kind, window=window)
