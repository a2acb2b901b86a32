"""Applies a fault plan to a running system.

The :class:`FaultInjector` is the bridge between a declarative
:class:`~repro.faults.plan.FaultPlan` and the things that can actually
break: live :class:`~repro.storage.target.StorageTarget` objects in a
simulation, the per-target health map the online controller's
emergency path consults, and (through :meth:`solver_hook`) the solver
watchdog.

Two driving modes share all the bookkeeping:

* **live** — :meth:`arm` schedules each fault on the simulation engine
  at its planned time, so faults strike mid-simulation exactly like a
  device dying under load;
* **replay** — :meth:`pop_due` applies every fault whose time has been
  reached, for trace-driven ``OnlineController.replay`` runs where no
  engine is ticking.

Either way, every applied event updates the health map and notifies the
registered listeners (typically a
:class:`~repro.faults.detector.FailureDetector`), and transient faults
(stall windows, bounded degradations) schedule their own clearing so
the health map recovers without a repair event.
"""

from dataclasses import dataclass

import time as _time

from repro.faults.plan import FaultEvent, TARGET_KINDS
from repro.obs import ensure_obs


@dataclass
class TargetHealth:
    """The injector's view of one target's condition.

    Attributes:
        state: ``healthy`` | ``stalled`` | ``degraded`` | ``failed``.
        service_scale: Current service-time multiplier (1.0 = nominal).
        capacity_factor: Fraction of nominal capacity still usable.
        since: Time of the last state change.
    """

    state: str = "healthy"
    service_scale: float = 1.0
    capacity_factor: float = 1.0
    since: float = 0.0

    @property
    def alive(self):
        return self.state != "failed"

    @property
    def healthy(self):
        return (self.state == "healthy" and self.service_scale == 1.0
                and self.capacity_factor == 1.0)


class _Scheduled:
    """One pending injection: an event, or the clearing of one."""

    __slots__ = ("time", "event", "clear")

    def __init__(self, time, event, clear=False):
        self.time = time
        self.event = event
        self.clear = clear


class FaultInjector:
    """Applies a :class:`FaultPlan` to targets and a health map.

    Args:
        plan: The fault schedule.
        targets: Optional live :class:`StorageTarget` sequence; when
            given, target faults are applied to the simulator (fail,
            stall, degrade) in addition to the health map.
        target_names: Target names for replay mode, where no live
            targets exist; defaults to the live targets' names, or the
            names the plan mentions.
        obs: Optional :class:`~repro.obs.Instrumentation`.
    """

    def __init__(self, plan, targets=(), target_names=None, obs=None):
        self.plan = plan
        self._targets = {t.name: t for t in targets}
        if target_names is not None:
            names = list(target_names)
        elif self._targets:
            names = list(self._targets)
        else:
            names = sorted({e.target for e in plan.target_events})
        if names:
            plan.validate_targets(names)
        self.health = {name: TargetHealth() for name in names}
        self._listeners = []
        self._pending = self._expand(plan)
        self._solver_stalls = list(plan.solver_stalls)
        self.injected = 0
        self.obs = ensure_obs(obs)

    @staticmethod
    def _expand(plan):
        """Plan events plus synthetic clears for transient faults."""
        pending = []
        for event in plan.events:
            if event.kind == "solver-stall":
                continue  # consumed by solver_hook, not the timeline
            pending.append(_Scheduled(event.time, event))
            if event.kind == "stall":
                pending.append(
                    _Scheduled(event.time + event.duration_s, event, clear=True)
                )
            elif event.kind == "degrade" and event.duration_s > 0 \
                    and event.service_scale != 1.0:
                pending.append(
                    _Scheduled(event.time + event.duration_s, event, clear=True)
                )
        pending.sort(key=lambda s: (s.time, s.clear))
        return pending

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------

    def add_listener(self, callback):
        """Register ``callback(event, health)`` to run after each
        applied fault (and after each transient fault clears, with a
        synthetic ``repair``-kind event)."""
        self._listeners.append(callback)
        return callback

    def _notify(self, event):
        for callback in self._listeners:
            callback(event, self.health)

    # ------------------------------------------------------------------
    # Driving modes
    # ------------------------------------------------------------------

    def arm(self, engine):
        """Live mode: schedule every pending fault on ``engine``."""
        for entry in self._pending:
            delay = entry.time - engine.now
            if delay < 0:
                raise ValueError(
                    "fault at t=%.3f is already in the past" % entry.time
                )
            engine.schedule(delay, self._fire, entry)
        self._pending = []
        return self

    def pop_due(self, now):
        """Replay mode: apply every pending fault with time <= ``now``.

        Returns the list of applied (non-clear) events, oldest first.
        """
        applied = []
        while self._pending and self._pending[0].time <= now:
            entry = self._pending.pop(0)
            if not entry.clear:
                applied.append(entry.event)
            self._fire(entry)
        return applied

    def next_due(self):
        """Time of the next pending fault or clear — the earliest
        ``now`` at which :meth:`pop_due` applies anything — or None
        when nothing is pending (or the plan is armed on an engine)."""
        return self._pending[0].time if self._pending else None

    @property
    def exhausted(self):
        return not self._pending

    def alive_targets(self):
        """Names of targets currently not failed."""
        return [name for name, h in self.health.items() if h.alive]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def _fire(self, entry):
        if entry.clear:
            self._clear(entry.event)
        else:
            self._apply(entry.event)

    def _apply(self, event):
        target = self._targets.get(event.target)
        health = self.health.get(event.target)
        if event.kind == "fail-stop":
            if target is not None:
                target.fail()
            health.state = "failed"
            health.since = event.time
        elif event.kind == "repair":
            if target is not None:
                target.repair()
            health.state = "healthy"
            health.service_scale = 1.0
            health.capacity_factor = 1.0
            health.since = event.time
        elif event.kind == "stall":
            if target is not None:
                target.stall(event.duration_s)
            if health.state == "healthy":
                health.state = "stalled"
                health.since = event.time
        elif event.kind == "degrade":
            if target is not None:
                target.degrade(event.service_scale)
            health.service_scale = event.service_scale
            if event.service_scale != 1.0 and health.state == "healthy":
                health.state = "degraded"
            elif event.service_scale == 1.0 and health.state == "degraded":
                health.state = "healthy"
            health.since = event.time
        elif event.kind == "capacity-loss":
            # Capacity loss is a *planning* fault: it shrinks the
            # capacity the solver may use, not the simulated device.
            health.capacity_factor = event.capacity_factor
            health.since = event.time
        elif event.kind == "crash":
            # Consumed by crash/resume harnesses; nothing breaks here.
            pass
        if event.kind in TARGET_KINDS:
            self.injected += 1
            self.obs.metrics.counter("faults.injected", kind=event.kind).inc()
        self._notify(event)

    def _clear(self, event):
        """Undo a transient fault (stall window over, degradation over).

        Live targets clear themselves (the target scheduled its own
        resume; a bounded degrade gets an explicit reset here); this
        mainly returns the *health map* to healthy and tells listeners
        recovery happened, via a synthetic repair-kind event.
        """
        health = self.health.get(event.target)
        cleared = False
        if event.kind == "stall":
            if health.state == "stalled":
                health.state = "healthy"
                health.since = event.time + event.duration_s
                cleared = True
        elif event.kind == "degrade":
            target = self._targets.get(event.target)
            if health.service_scale == event.service_scale:
                if target is not None and not target.failed:
                    target.degrade(1.0)
                health.service_scale = 1.0
                if health.state == "degraded":
                    health.state = "healthy"
                health.since = event.time + event.duration_s
                cleared = True
        if cleared:
            self._notify(FaultEvent(
                time=event.time + event.duration_s, kind="repair",
                target=event.target,
            ))

    # ------------------------------------------------------------------
    # Solver-side chaos
    # ------------------------------------------------------------------

    def solver_hook(self, sleep=_time.sleep):
        """A ``chaos_hook`` for :mod:`repro.core.watchdog`.

        Each call consumes the next planned ``solver-stall`` event (in
        plan order; the event's ``time`` is ordering only) and blocks
        for its ``duration_s`` of wall-clock time — simulating a solve
        that hangs.  Calls beyond the planned stalls return instantly.
        """
        def hook():
            if self._solver_stalls:
                event = self._solver_stalls.pop(0)
                self.obs.metrics.counter("faults.solver_stalls").inc()
                sleep(event.duration_s)
        return hook
