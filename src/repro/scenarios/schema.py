"""Scenario spec model and validation.

A :class:`ScenarioSpec` is the validated, unit-normalized form of one
scenario YAML file.  The grammar (grounded in the weighted-task
workload files of SNIPPETS.md Snippet 3 — e-commerce / analytics /
social mixes — and dbworkload's run schedules)::

    name: ecommerce-diurnal
    description: one line for `repro scenarios list`
    duration_s: 120
    seed: 7                      # default compile seed
    objects:                     # catalog: object -> size
      catalog: {size_mib: 96}
      cart:    {size_mib: 32}
    sets:                        # named object groups tasks address
      browse: [catalog]
    targets:                     # optional: makes the spec a full problem
      - {name: d0, kind: disk15k, capacity_mib: 400}
    mixes:                       # weighted task mixes
      daytime:
        rate: 400                # total requests/s at multiplier 1.0
        tasks:
          - {name: view, weight: 60, objects: browse, kind: read,
             size_kib: 8, run_count: 4}
    schedule:                    # time-phased multipliers over mixes
      - {mix: daytime, shape: ramp, t0: 0, t1: 20, from: 0.2, to: 1.0}
      - {mix: daytime, shape: diurnal, t0: 20, t1: 120,
         mean: 1.0, amplitude: 0.5, period_s: 50}
    faults:                      # compiles to faults.plan.FaultPlan
      - {time: 60, kind: stall, target: d0, duration_s: 3}
    tenants:                     # serve-mode arrival/churn process
      arrival_rate_per_s: 0.2
      mean_lifetime_s: 30
      max_active: 8
    initial_layout:              # optional "solved long ago" layout
      catalog: [1.0]             # one fraction per target, sums to 1
      cart:    [1.0]

Shapes: ``constant`` (``level``), ``ramp`` (``from``/``to``),
``diurnal`` (``mean``/``amplitude``/``period_s``/``phase``), ``step``
(``base``/``peak``/``at``/``until``; the flash-crowd shape), and
``drift`` (``from_mix``/``to_mix``; a linear crossfade).  Schedule
entries may overlap in time — concurrent entries add.

Validation failures raise one-line
:class:`~repro.errors.ScenarioError` messages carrying the field path.
"""

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.errors import ScenarioError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.storage.kinds import KINDS, target_kind

#: Recognized schedule shapes.
SHAPES = ("constant", "ramp", "diurnal", "step", "drift")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]*$")


def _ctx(label, path):
    return "%s: %s" % (label, path) if label else path


def _need(data, key, path, label, types=None):
    if key not in data:
        raise ScenarioError("%s.%s is required" % (_ctx(label, path), key))
    value = data[key]
    if types is not None and not isinstance(value, types):
        raise ScenarioError("%s.%s has the wrong type"
                            % (_ctx(label, path), key))
    return value


def _number(data, key, path, label, default=None, minimum=None,
            positive=False):
    value = data.get(key, default)
    if value is None:
        raise ScenarioError("%s.%s is required" % (_ctx(label, path), key))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError("%s.%s must be a number"
                            % (_ctx(label, path), key))
    value = float(value)
    if positive and value <= 0:
        raise ScenarioError("%s.%s must be positive"
                            % (_ctx(label, path), key))
    if minimum is not None and value < minimum:
        raise ScenarioError("%s.%s must be at least %g"
                            % (_ctx(label, path), key, minimum))
    return value


def _size_bytes(entry, path, label, keys=(("size_bytes", 1),
                                          ("size_kib", units.KIB),
                                          ("size_mib", units.MIB),
                                          ("size_gib", units.GIB))):
    given = [key for key, _ in keys if key in entry]
    if len(given) != 1:
        raise ScenarioError(
            "%s needs exactly one of %s"
            % (_ctx(label, path), "/".join(key for key, _ in keys))
        )
    unit = dict(keys)[given[0]]
    value = _number(entry, given[0], path, label, positive=True)
    return int(round(value * unit))


@dataclass(frozen=True)
class TaskSpec:
    """One weighted task in a mix.

    ``objects`` is already resolved (set names expanded); the task's
    share of the mix rate is split uniformly across them.
    """

    name: str
    weight: float
    objects: Tuple[str, ...]
    kind: str = "read"
    size: int = units.DEFAULT_PAGE_SIZE
    run_count: float = 1.0


@dataclass(frozen=True)
class MixSpec:
    """A named weighted-task mix with a nominal total request rate."""

    name: str
    rate: float
    tasks: Tuple[TaskSpec, ...]

    def task_rates(self):
        """Per-task request rates at multiplier 1.0."""
        total = sum(task.weight for task in self.tasks)
        return [(task, self.rate * task.weight / total)
                for task in self.tasks]


@dataclass(frozen=True)
class ScheduleEntry:
    """One schedule phase: a shape applied to a mix over [t0, t1)."""

    shape: str
    t0: float
    t1: float
    mix: Optional[str] = None          # constant/ramp/diurnal/step
    from_mix: Optional[str] = None     # drift
    to_mix: Optional[str] = None       # drift
    level: float = 1.0                 # constant, drift
    ramp_from: float = 0.0             # ramp
    ramp_to: float = 1.0               # ramp
    mean: float = 1.0                  # diurnal
    amplitude: float = 0.5             # diurnal
    period_s: float = 60.0             # diurnal
    phase: float = 0.0                 # diurnal
    base: float = 1.0                  # step
    peak: float = 2.0                  # step
    at: float = 0.0                    # step
    until: float = 0.0                 # step

    @property
    def mixes(self):
        if self.shape == "drift":
            return (self.from_mix, self.to_mix)
        return (self.mix,)


@dataclass(frozen=True)
class ScenarioTarget:
    """A storage target declaration (CLI problem-format compatible)."""

    name: str
    kind: str
    capacity: int
    members: int = 1

    def as_payload(self):
        payload = {"name": self.name, "kind": self.kind,
                   "capacity": self.capacity}
        if KINDS[self.kind].grouped:
            payload["members"] = self.members
        return payload


@dataclass(frozen=True)
class TenantSpec:
    """Tenant arrival/churn process for serve-mode runs."""

    arrival_rate_per_s: float
    mean_lifetime_s: float
    max_active: int = 16


@dataclass
class ScenarioSpec:
    """One validated scenario."""

    name: str
    description: str
    duration_s: float
    seed: int
    object_sizes: Dict[str, int]
    sets: Dict[str, Tuple[str, ...]]
    targets: Tuple[ScenarioTarget, ...]
    mixes: Dict[str, MixSpec]
    schedule: Tuple[ScheduleEntry, ...]
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    tenants: Optional[TenantSpec] = None
    initial_layout: Optional[Dict[str, Tuple[float, ...]]] = None
    source: Optional[str] = None

    @property
    def object_names(self):
        return list(self.object_sizes)

    @property
    def target_names(self):
        return [t.name for t in self.targets]

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_payload(cls, data, label=None):
        """Build and validate a spec from parsed YAML data."""
        if not isinstance(data, dict):
            raise ScenarioError("%s: a scenario must be a mapping"
                                % (label or "scenario"))
        name = _need(data, "name", "scenario", label, types=str)
        if not _NAME_RE.match(name):
            raise ScenarioError("%s: scenario.name %r is not a valid name"
                                % (label or "scenario", name))
        label = label or name
        description = str(data.get("description", "")).strip()
        duration = _number(data, "duration_s", "scenario", label,
                           positive=True)
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ScenarioError("%s: scenario.seed must be a non-negative "
                                "integer" % label)

        objects = cls._parse_objects(data, label)
        sets = cls._parse_sets(data, objects, label)
        targets = cls._parse_targets(data, label)
        mixes = cls._parse_mixes(data, objects, sets, label)
        schedule = cls._parse_schedule(data, mixes, duration, label)
        fault_plan = cls._parse_faults(data, targets, label)
        tenants = cls._parse_tenants(data, label)
        initial_layout = cls._parse_initial_layout(data, objects, targets,
                                                   label)

        known = {"name", "description", "duration_s", "seed", "objects",
                 "sets", "targets", "mixes", "schedule", "faults",
                 "tenants", "initial_layout"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError("%s: unknown top-level key %r"
                                % (label, unknown[0]))
        return cls(
            name=name, description=description, duration_s=duration,
            seed=int(seed), object_sizes=objects, sets=sets,
            targets=targets, mixes=mixes, schedule=schedule,
            fault_plan=fault_plan, tenants=tenants,
            initial_layout=initial_layout, source=label,
        )

    @staticmethod
    def _parse_objects(data, label):
        entries = _need(data, "objects", "scenario", label, types=dict)
        if not entries:
            raise ScenarioError("%s: scenario.objects must name at least "
                                "one object" % label)
        objects = {}
        for obj, entry in entries.items():
            path = "objects.%s" % obj
            if not isinstance(obj, str) or not _NAME_RE.match(obj):
                raise ScenarioError("%s: objects key %r is not a valid "
                                    "object name" % (label, obj))
            if not isinstance(entry, dict):
                raise ScenarioError("%s.%s must be a mapping (e.g. "
                                    "{size_mib: 96})" % (label, path))
            objects[obj] = _size_bytes(entry, path, label)
        return objects

    @staticmethod
    def _parse_sets(data, objects, label):
        sets = {}
        for set_name, members in (data.get("sets") or {}).items():
            path = "sets.%s" % set_name
            if set_name in objects:
                raise ScenarioError("%s: %s collides with an object name"
                                    % (label, path))
            if not isinstance(members, list) or not members:
                raise ScenarioError("%s: %s must be a non-empty list"
                                    % (label, path))
            for member in members:
                if member not in objects:
                    raise ScenarioError("%s: %s names unknown object %r"
                                        % (label, path, member))
            sets[set_name] = tuple(members)
        return sets

    @staticmethod
    def _parse_targets(data, label):
        targets = []
        seen = set()
        for index, entry in enumerate(data.get("targets") or []):
            path = "targets[%d]" % index
            if not isinstance(entry, dict):
                raise ScenarioError("%s: %s must be a mapping"
                                    % (label, path))
            name = _need(entry, "name", path, label, types=str)
            if name in seen:
                raise ScenarioError("%s: %s duplicates target %r"
                                    % (label, path, name))
            seen.add(name)
            kind, members = target_kind(entry, _ctx(label, path))
            capacity = _size_bytes(
                entry, path, label,
                keys=(("capacity_bytes", 1), ("capacity_mib", units.MIB),
                      ("capacity_gib", units.GIB)),
            )
            targets.append(ScenarioTarget(name, kind, capacity, members))
        return tuple(targets)

    @staticmethod
    def _parse_initial_layout(data, objects, targets, label):
        """Optional object → per-target fraction rows.

        When present, benchmarks and replays adopt this layout as the
        "solved long ago" starting point instead of running the advisor
        on the baseline phase.
        """
        entries = data.get("initial_layout")
        if entries is None:
            return None
        if not isinstance(entries, dict):
            raise ScenarioError("%s: scenario.initial_layout must be a "
                                "mapping" % label)
        if not targets:
            raise ScenarioError("%s: scenario.initial_layout needs a "
                                "targets section" % label)
        layout = {}
        for obj in objects:
            path = "initial_layout.%s" % obj
            row = entries.get(obj)
            if row is None:
                raise ScenarioError("%s: %s is required (every object "
                                    "needs a row)" % (label, path))
            if not isinstance(row, list) or len(row) != len(targets):
                raise ScenarioError(
                    "%s: %s must list one fraction per target (%d)"
                    % (label, path, len(targets))
                )
            values = []
            for value in row:
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)) \
                        or value < 0 or value > 1:
                    raise ScenarioError("%s: %s fractions must be numbers "
                                        "in [0, 1]" % (label, path))
                values.append(float(value))
            if abs(sum(values) - 1.0) > 1e-6:
                raise ScenarioError("%s: %s fractions must sum to 1"
                                    % (label, path))
            layout[obj] = tuple(values)
        unknown = sorted(set(entries) - set(objects))
        if unknown:
            raise ScenarioError("%s: initial_layout names unknown object "
                                "%r" % (label, unknown[0]))
        return layout

    @classmethod
    def _parse_mixes(cls, data, objects, sets, label):
        entries = _need(data, "mixes", "scenario", label, types=dict)
        if not entries:
            raise ScenarioError("%s: scenario.mixes must define at least "
                                "one mix" % label)
        mixes = {}
        for mix_name, entry in entries.items():
            path = "mixes.%s" % mix_name
            if not isinstance(entry, dict):
                raise ScenarioError("%s: %s must be a mapping"
                                    % (label, path))
            rate = _number(entry, "rate", path, label, positive=True)
            tasks = entry.get("tasks")
            if not isinstance(tasks, list) or not tasks:
                raise ScenarioError("%s: %s.tasks must be a non-empty list"
                                    % (label, path))
            parsed = []
            for index, task in enumerate(tasks):
                parsed.append(cls._parse_task(
                    task, objects, sets, "%s.tasks[%d]" % (path, index),
                    label,
                ))
            names = [t.name for t in parsed]
            if len(set(names)) != len(names):
                raise ScenarioError("%s: %s has duplicate task names"
                                    % (label, path))
            mixes[mix_name] = MixSpec(mix_name, rate, tuple(parsed))
        return mixes

    @staticmethod
    def _parse_task(task, objects, sets, path, label):
        if not isinstance(task, dict):
            raise ScenarioError("%s: %s must be a mapping" % (label, path))
        name = _need(task, "name", path, label, types=str)
        weight = _number(task, "weight", path, label, positive=True)
        on = _need(task, "objects", path, label)
        if isinstance(on, str):
            on = [on]
        if not isinstance(on, list) or not on:
            raise ScenarioError("%s: %s.objects must be an object, a set, "
                                "or a list of them" % (label, path))
        resolved = []
        for item in on:
            if item in sets:
                resolved.extend(sets[item])
            elif item in objects:
                resolved.append(item)
            else:
                raise ScenarioError("%s: %s.objects names unknown object "
                                    "or set %r" % (label, path, item))
        kind = task.get("kind", "read")
        if kind not in ("read", "write"):
            raise ScenarioError("%s: %s.kind must be 'read' or 'write'"
                                % (label, path))
        size = units.DEFAULT_PAGE_SIZE
        if any(key in task for key in ("size_bytes", "size_kib",
                                       "size_mib", "size_gib")):
            size = _size_bytes(task, path, label)
        run_count = _number(task, "run_count", path, label, default=1.0,
                            minimum=1.0)
        return TaskSpec(name=name, weight=weight,
                        objects=tuple(dict.fromkeys(resolved)), kind=kind,
                        size=size, run_count=run_count)

    @classmethod
    def _parse_schedule(cls, data, mixes, duration, label):
        entries = _need(data, "schedule", "scenario", label, types=list)
        if not entries:
            raise ScenarioError("%s: scenario.schedule must contain at "
                                "least one entry" % label)
        schedule = []
        for index, entry in enumerate(entries):
            schedule.append(cls._parse_schedule_entry(
                entry, mixes, duration, "schedule[%d]" % index, label,
            ))
        return tuple(schedule)

    @staticmethod
    def _parse_schedule_entry(entry, mixes, duration, path, label):
        if not isinstance(entry, dict):
            raise ScenarioError("%s: %s must be a mapping" % (label, path))
        shape = entry.get("shape", "constant")
        if shape not in SHAPES:
            raise ScenarioError("%s: %s.shape must be one of %s"
                                % (label, path, "/".join(SHAPES)))
        t0 = _number(entry, "t0", path, label, default=0.0, minimum=0.0)
        t1 = _number(entry, "t1", path, label, default=duration)
        if not t0 < t1:
            raise ScenarioError("%s: %s needs t0 < t1" % (label, path))
        if t1 > duration + 1e-9:
            raise ScenarioError("%s: %s.t1 exceeds duration_s"
                                % (label, path))

        def mix_ref(key):
            mix = _need(entry, key, path, label, types=str)
            if mix not in mixes:
                raise ScenarioError("%s: %s.%s names unknown mix %r"
                                    % (label, path, key, mix))
            return mix

        kwargs = {"shape": shape, "t0": t0, "t1": t1}
        if shape == "drift":
            kwargs["from_mix"] = mix_ref("from_mix")
            kwargs["to_mix"] = mix_ref("to_mix")
            kwargs["level"] = _number(entry, "level", path, label,
                                      default=1.0, minimum=0.0)
        else:
            kwargs["mix"] = mix_ref("mix")
        if shape == "constant":
            kwargs["level"] = _number(entry, "level", path, label,
                                      default=1.0, minimum=0.0)
        elif shape == "ramp":
            kwargs["ramp_from"] = _number(entry, "from", path, label,
                                          default=0.0, minimum=0.0)
            kwargs["ramp_to"] = _number(entry, "to", path, label,
                                        default=1.0, minimum=0.0)
        elif shape == "diurnal":
            kwargs["mean"] = _number(entry, "mean", path, label,
                                     default=1.0, minimum=0.0)
            amplitude = _number(entry, "amplitude", path, label,
                                default=0.5, minimum=0.0)
            if amplitude > 1.0:
                raise ScenarioError("%s: %s.amplitude must be in [0, 1] "
                                    "(rates cannot go negative)"
                                    % (label, path))
            kwargs["amplitude"] = amplitude
            kwargs["period_s"] = _number(entry, "period_s", path, label,
                                         positive=True, default=60.0)
            kwargs["phase"] = _number(entry, "phase", path, label,
                                      default=0.0)
        elif shape == "step":
            kwargs["base"] = _number(entry, "base", path, label,
                                     default=1.0, minimum=0.0)
            kwargs["peak"] = _number(entry, "peak", path, label,
                                     positive=True, default=2.0)
            at = _number(entry, "at", path, label)
            until = _number(entry, "until", path, label)
            if not t0 <= at < until <= t1:
                raise ScenarioError("%s: %s needs t0 <= at < until <= t1"
                                    % (label, path))
            kwargs["at"] = at
            kwargs["until"] = until
        return ScheduleEntry(**kwargs)

    @staticmethod
    def _parse_faults(data, targets, label):
        entries = data.get("faults") or []
        if not isinstance(entries, list):
            raise ScenarioError("%s: scenario.faults must be a list"
                                % label)
        events = []
        for index, entry in enumerate(entries):
            path = "faults[%d]" % index
            if not isinstance(entry, dict):
                raise ScenarioError("%s: %s must be a mapping"
                                    % (label, path))
            try:
                events.append(FaultEvent(**entry))
            except TypeError as error:
                raise ScenarioError("%s: %s: %s" % (label, path, error))
        try:
            plan = FaultPlan(events)
            if targets:
                plan.validate_targets([t.name for t in targets])
        except Exception as error:
            raise ScenarioError("%s: faults: %s" % (label, error))
        return plan

    @staticmethod
    def _parse_tenants(data, label):
        entry = data.get("tenants")
        if entry is None:
            return None
        path = "tenants"
        if not isinstance(entry, dict):
            raise ScenarioError("%s: %s must be a mapping" % (label, path))
        max_active = entry.get("max_active", 16)
        if isinstance(max_active, bool) or not isinstance(max_active, int) \
                or max_active < 1:
            raise ScenarioError("%s: %s.max_active must be a positive "
                                "integer" % (label, path))
        return TenantSpec(
            arrival_rate_per_s=_number(entry, "arrival_rate_per_s", path,
                                       label, positive=True),
            mean_lifetime_s=_number(entry, "mean_lifetime_s", path, label,
                                    positive=True),
            max_active=max_active,
        )
