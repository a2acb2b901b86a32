"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` — *what
goes wrong, where, when*.  Plans are plain data: they serialize to JSON
(so a chaos scenario can be committed next to a benchmark), and the
:meth:`FaultPlan.random` generator derives a schedule entirely from a
seed, so the same seed always produces the identical fault schedule —
the property that makes chaos runs reproducible and bisectable.

The plan says nothing about *how* faults are applied; that is the
:class:`~repro.faults.injector.FaultInjector`'s job.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultError

#: Fault kinds a plan may contain.  Target faults name a target;
#: ``solver-stall`` and ``crash`` are infrastructure faults consumed by
#: the solver watchdog and the crash/resume harnesses respectively.
TARGET_KINDS = ("fail-stop", "stall", "degrade", "capacity-loss", "repair")
GLOBAL_KINDS = ("solver-stall", "crash")
KINDS = TARGET_KINDS + GLOBAL_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: Simulated seconds at which the fault strikes.
        kind: One of :data:`KINDS`.
        target: Target name for target faults (None for global kinds).
        duration_s: Stall-window length (``stall``), degradation
            duration (``degrade``; 0 means permanent until repair), or
            injected solve delay (``solver-stall``).
        service_scale: Service-time multiplier for ``degrade`` (2.0 =
            half speed).
        capacity_factor: Usable-capacity multiplier for
            ``capacity-loss`` (0.5 = half the capacity survives).
    """

    time: float
    kind: str
    target: str = None
    duration_s: float = 0.0
    service_scale: float = 1.0
    capacity_factor: float = 1.0

    def validate(self, target_names=None):
        if self.kind not in KINDS:
            raise FaultError("unknown fault kind %r" % self.kind)
        for name in ("time", "duration_s", "service_scale",
                     "capacity_factor"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                finite = False
            if not finite:
                raise FaultError(
                    "fault %s must be a finite number, not %r" % (name, value))
        if self.time < 0:
            raise FaultError("fault time must be non-negative")
        if self.kind in TARGET_KINDS:
            if not self.target:
                raise FaultError("%s fault needs a target" % self.kind)
            if target_names is not None and self.target not in target_names:
                raise FaultError(
                    "fault targets unknown target %r" % self.target
                )
        if self.kind == "stall" and self.duration_s <= 0:
            raise FaultError("stall needs a positive duration")
        if self.kind == "degrade" and self.service_scale <= 0:
            raise FaultError("degrade needs a positive service scale")
        if self.kind == "capacity-loss" and not 0 <= self.capacity_factor <= 1:
            raise FaultError("capacity factor must be in [0, 1]")
        if self.kind == "solver-stall" and self.duration_s <= 0:
            raise FaultError("solver-stall needs a positive duration")

    def as_payload(self):
        """Compact dict form (defaults omitted) for JSON/event logs."""
        payload = {"time": self.time, "kind": self.kind}
        if self.target is not None:
            payload["target"] = self.target
        if self.duration_s:
            payload["duration_s"] = self.duration_s
        if self.service_scale != 1.0:
            payload["service_scale"] = self.service_scale
        if self.capacity_factor != 1.0:
            payload["capacity_factor"] = self.capacity_factor
        return payload


@dataclass
class FaultPlan:
    """An ordered fault schedule.

    Args:
        events: The fault events; stored sorted by (time, authored
            order) so injection order is total and deterministic.
    """

    events: list = field(default_factory=list)

    def __post_init__(self):
        events = list(self.events)
        for event in events:
            event.validate()
        self.events = sorted(
            events, key=lambda e: (e.time, events.index(e))
        )

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate_targets(self, target_names):
        """Raise :class:`FaultError` on events naming unknown targets."""
        names = set(target_names)
        for event in self.events:
            event.validate(target_names=names)
        return self

    @property
    def target_events(self):
        return [e for e in self.events if e.kind in TARGET_KINDS]

    @property
    def solver_stalls(self):
        return [e for e in self.events if e.kind == "solver-stall"]

    @property
    def crashes(self):
        return [e for e in self.events if e.kind == "crash"]

    def signature(self):
        """Canonical tuple of the schedule; equal iff plans are equal.

        Two plans built from the same seed must compare equal through
        this — the determinism contract chaos tests assert.
        """
        return tuple(
            (round(e.time, 9), e.kind, e.target, round(e.duration_s, 9),
             round(e.service_scale, 9), round(e.capacity_factor, 9))
            for e in self.events
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self):
        return {"faults": [e.as_payload() for e in self.events]}

    @classmethod
    def from_payload(cls, data):
        if not isinstance(data, dict) or "faults" not in data:
            raise FaultError('a fault plan needs a top-level "faults" list')
        entries = data["faults"]
        if not isinstance(entries, list):
            raise FaultError('"faults" must be a list of events')
        events = []
        for entry in entries:
            try:
                events.append(FaultEvent(**entry))
            except TypeError as error:
                raise FaultError("bad fault entry %r: %s" % (entry, error))
        return cls(events)

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise FaultError("fault plan %s is not valid JSON: %s"
                                 % (path, error))
        return cls.from_payload(data)

    # ------------------------------------------------------------------
    # Seeded chaos generation
    # ------------------------------------------------------------------

    @classmethod
    def random(cls, seed, target_names, horizon_s, n_faults=3,
               kinds=("fail-stop", "stall", "degrade", "capacity-loss"),
               repair=True):
        """Derive a fault schedule deterministically from ``seed``.

        Faults strike in the middle 80% of the horizon (so the run
        first reaches steady state and the recovery is observable), at
        most one fail-stop per target; with ``repair=True`` every
        fail-stop is followed by a repair before the horizon ends when
        room allows.
        """
        if not target_names:
            raise FaultError("chaos generation needs at least one target")
        rng = np.random.default_rng(int(seed))
        t0, t1 = 0.1 * horizon_s, 0.9 * horizon_s
        events = []
        dead = set()
        for _ in range(int(n_faults)):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            target = target_names[int(rng.integers(0, len(target_names)))]
            time = float(np.round(t0 + (t1 - t0) * rng.random(), 3))
            if kind == "fail-stop":
                if target in dead:
                    continue
                dead.add(target)
                events.append(FaultEvent(time=time, kind="fail-stop",
                                         target=target))
                if repair and time + 0.2 * horizon_s < horizon_s:
                    events.append(FaultEvent(
                        time=float(np.round(time + 0.15 * horizon_s, 3)),
                        kind="repair", target=target,
                    ))
            elif kind == "stall":
                events.append(FaultEvent(
                    time=time, kind="stall", target=target,
                    duration_s=float(np.round(0.02 * horizon_s
                                              * (1 + rng.random()), 3)),
                ))
            elif kind == "degrade":
                events.append(FaultEvent(
                    time=time, kind="degrade", target=target,
                    service_scale=float(np.round(1.5 + 2.5 * rng.random(), 3)),
                    duration_s=float(np.round(0.2 * horizon_s, 3)),
                ))
            elif kind == "capacity-loss":
                events.append(FaultEvent(
                    time=time, kind="capacity-loss", target=target,
                    capacity_factor=float(np.round(0.3 + 0.4 * rng.random(), 3)),
                ))
            else:
                raise FaultError("cannot generate fault kind %r" % kind)
        return cls(events)
