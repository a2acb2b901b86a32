"""The online layout controller: monitor → detect → re-solve → migrate.

The paper's §8 (FlexVol discussion) points at using the advisor "to
guide the storage system's dynamic allocation decisions" as the system
runs.  :class:`OnlineController` is that closed loop:

1. a :class:`~repro.online.monitor.WorkloadMonitor` follows the live
   completion stream (engine observer hook) or a replayed trace;
2. every ``check_interval_s`` the controller asks the cost models for
   the current layout's predicted max utilization under the *fitted*
   workload and hands both to the
   :class:`~repro.online.drift.DriftDetector`;
3. on a drift trigger it runs a **warm-started incremental solve** —
   previous layout as the only start (``solve(..., warm_start=True)``),
   optionally pinning objects whose workload has not moved;
4. the new layout is **accepted only when it pays**: the predicted
   utilization gain, amortized over ``amortization_s`` seconds of
   future operation, must exceed the migration bill
   (:func:`~repro.core.migration.migration_cost_seconds`);
5. accepted layouts are brought online by a
   :class:`~repro.online.executor.ThrottledMigrator` — background copy
   I/O contending with foreground streams — and the placement map is
   swapped only when the copy finishes.

Every decision is recorded in an :class:`~repro.online.events.EventLog`.
"""

import math
import os
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from repro import units
from repro.core.layout import Layout
from repro.core.migration import migration_cost_seconds, plan_migration
from repro.core.pinning import PinningConstraints
from repro.core.problem import LayoutProblem, TargetSpec
from repro.core.regularize import regularize
from repro.core.solver import solve
from repro.core.watchdog import solve_with_watchdog
from repro.errors import SimulationError
from repro.faults.detector import FailureDetector
from repro.faults.journal import MigrationJournal
from repro.obs import ensure_obs
from repro.workload.spec import ObjectWorkload
from repro.online.drift import DriftDetector
from repro.online.events import EventLog
from repro.online.executor import ThrottledMigrator
from repro.online.monitor import WorkloadMonitor
from repro.storage.mapping import PlacementMap


@dataclass
class ControllerConfig:
    """Tuning knobs of the online controller.

    Attributes:
        check_interval_s: Seconds of simulated time between drift
            checks.
        monitor_window_s / monitor_halflife_s: Workload monitor
            bucketing window and decay half-life (used only when the
            controller builds its own monitor).
        util_degradation / divergence_threshold / util_ceiling /
        patience / cooldown_s: Drift detector thresholds; see
            :class:`~repro.online.drift.DriftDetector`.
        min_gain: Minimum relative predicted max-utilization
            improvement for a re-solve to be accepted.
        amortization_s: Horizon over which a utilization gain is
            credited when weighed against the migration bill: accept
            when ``gain × amortization_s ≥ migration_cost_seconds``.
        transfer_bps: Per-target copy rate assumed by the migration
            cost bound.
        pin_stable_objects: Pin (fix) the layout rows of objects whose
            total request rate moved by less than
            ``pin_rate_tolerance`` (relative), shrinking the re-solve
            and the migration churn.  If every object is stable the
            pinning is dropped — a uniform surge needs a global
            rebalance.
        max_resolves: Hard bound on accepted re-solves per run (flap
            backstop; the detector's hysteresis should make it moot).
        solver_method / restarts / regular: Passed through to the
            warm-started solve; ``regular=True`` additionally
            regularizes accepted layouts.
        migration_chunk / migration_window / migration_pace_s: Copy
            granularity and throttle of the background migrator.
        solve_budget_s: Optional wall-clock watchdog budget for drift
            re-solves; when set, the solve runs under the watchdog
            instead of overrunning (see :mod:`repro.core.watchdog`).
            Its first rung gets the whole budget, so a timeout falls
            straight back to greedy; the partitioned and serial rungs
            answer only after the rung above raises.
        emergency_budget_s: Wall-clock watchdog budget for emergency
            (evacuation) re-solves — these always run under the
            watchdog because the workload is bleeding errors while the
            solver thinks.
        degrade_threshold / capacity_threshold: Failure-detector
            thresholds (see
            :class:`~repro.faults.detector.FailureDetector`); used when
            :meth:`OnlineController.attach_faults` builds the detector.
        journal_dir: Directory for crash-safe migration journals.  When
            set (and running live), every accepted migration writes a
            chunk-level journal there and
            :meth:`OnlineController.resume_migration` can finish an
            interrupted copy after a crash.
    """

    check_interval_s: float = 5.0
    monitor_window_s: float = 2.0
    monitor_halflife_s: float = 20.0
    util_degradation: float = 0.25
    divergence_threshold: float = 0.5
    util_ceiling: float = 0.95
    patience: int = 2
    cooldown_s: float = 30.0
    min_gain: float = 0.05
    amortization_s: float = 300.0
    transfer_bps: float = 80 * (1 << 20)
    pin_stable_objects: bool = True
    pin_rate_tolerance: float = 0.25
    max_resolves: int = 8
    solver_method: str = "auto"
    restarts: int = 1
    regular: bool = False
    migration_chunk: int = units.DEFAULT_STRIPE_SIZE
    migration_window: int = 1
    migration_pace_s: float = 0.0
    solve_budget_s: float = None
    emergency_budget_s: float = 5.0
    degrade_threshold: float = 2.0
    capacity_threshold: float = 0.8
    journal_dir: str = None

    def detector(self):
        return DriftDetector(
            util_degradation=self.util_degradation,
            divergence_threshold=self.divergence_threshold,
            util_ceiling=self.util_ceiling,
            patience=self.patience,
            cooldown_s=self.cooldown_s,
        )

    def monitor(self):
        return WorkloadMonitor(
            window_s=self.monitor_window_s,
            halflife_s=self.monitor_halflife_s,
        )


@dataclass
class _PendingMigration:
    """State carried from an accepted re-solve to migration completion."""

    layout: Layout
    fitted: list
    predicted_util: float
    migrator: object = None
    accepted_at: float = 0.0
    span: object = None
    journal: object = None


class OnlineController:
    """Continuously keeps a layout matched to a drifting workload.

    Args:
        targets: Sequence of :class:`~repro.core.problem.TargetSpec`
            used for re-solves (capacities may include placement
            slack, as :func:`repro.experiments.runner.build_problem`
            reserves).
        object_sizes: Mapping object name → bytes; fixes the object
            order of every re-solve.
        initial_layout: The layout currently in effect.
        solved_workloads: The workload descriptions ``initial_layout``
            was solved for (zero-rate specs are fine); the drift
            baseline.
        ctx: Optional live :class:`~repro.storage.streams.SimContext`.
            With a context, migrations run as throttled background I/O
            and the placement map is swapped on completion; without
            one (replay mode) accepted layouts take effect after the
            *estimated* migration time.
        physical_capacities: Per-target byte capacities for rebuilding
            the placement map (defaults to the live targets' device
            capacities, falling back to the solve capacities).
        stripe_size: Placement-map stripe size.
        config: A :class:`ControllerConfig`.
        monitor / detector / log: Injectable components (defaults are
            built from the config).
        obs: Optional :class:`~repro.obs.Instrumentation`.  Re-solve
            episodes are wrapped in ``online.resolve`` spans, completed
            migrations recorded as ``online.migration`` spans, decisions
            counted in ``repro_online_resolves_total``, and the event
            log (when the controller builds its own) forwards every
            event through the same tracer/metric plumbing.
    """

    def __init__(self, targets, object_sizes, initial_layout,
                 solved_workloads, ctx=None, physical_capacities=None,
                 stripe_size=units.DEFAULT_STRIPE_SIZE, config=None,
                 monitor=None, detector=None, log=None, obs=None):
        self.config = config or ControllerConfig()
        self.obs = ensure_obs(obs)
        self.targets = list(targets)
        self.object_sizes = dict(object_sizes)
        self.object_names = list(self.object_sizes)
        self.target_names = [t.name for t in self.targets]
        self.stripe_size = int(stripe_size)
        self.ctx = ctx
        if physical_capacities is not None:
            self.physical_capacities = list(physical_capacities)
        elif ctx is not None:
            self.physical_capacities = [t.capacity for t in ctx.targets]
        else:
            self.physical_capacities = [t.capacity for t in self.targets]

        self.monitor = monitor or self.config.monitor()
        self.detector = detector or self.config.detector()
        self.log = log or EventLog(obs=self.obs)

        self.layout = self._aligned(initial_layout)
        self.solved_workloads = list(solved_workloads)
        self.resolves = 0
        self.migrating = False
        self._pending = None
        self._running = False

        self.faults = None
        self.failure_detector = None
        self.emergency_resolves = 0
        self._solver_chaos = None
        self._journal_seq = 0

        now = ctx.engine.now if ctx is not None else 0.0
        solved_util = self._predicted_util(self.solved_workloads, self.layout)
        self.detector.rebase(self.solved_workloads, solved_util, now)
        self.log.emit(now, "baseline", solved_util=round(solved_util, 4))

    # ------------------------------------------------------------------
    # Problem plumbing
    # ------------------------------------------------------------------

    def _aligned(self, layout):
        """Reorder a layout's rows/columns into the controller's order."""
        if (layout.object_names == self.object_names
                and layout.target_names == self.target_names):
            return layout
        fractions = layout.fractions_by_name()
        column = {name: j for j, name in enumerate(layout.target_names)}
        matrix = [
            [fractions[obj][column[t]] for t in self.target_names]
            for obj in self.object_names
        ]
        return Layout(matrix, self.object_names, self.target_names)

    def _problem(self, workloads, pinning=None):
        return LayoutProblem(
            self.object_sizes, self._effective_targets(), workloads,
            stripe_size=self.stripe_size, pinning=pinning,
        )

    def _effective_targets(self):
        """Solve-time target specs adjusted for current target health.

        Healthy targets pass through; a failed target keeps its column
        (layouts stay comparable, migrations plannable) but shrinks to
        a 1-byte husk — :class:`~repro.core.problem.LayoutProblem`
        rejects zero capacities, and the capacity constraint then
        forces the solver to evacuate it; a degraded target's cost
        model is scaled by the observed slowdown; capacity loss shrinks
        the usable bytes.
        """
        if self.faults is None:
            return self.targets
        specs = []
        for spec in self.targets:
            health = self.faults.health.get(spec.name)
            if health is None or health.healthy:
                specs.append(spec)
            elif not health.alive:
                specs.append(TargetSpec(spec.name, 1, spec.model))
            else:
                capacity = max(1, int(spec.capacity * health.capacity_factor))
                model = spec.model
                if health.service_scale != 1.0:
                    model = model.scaled(health.service_scale)
                specs.append(TargetSpec(spec.name, capacity, model))
        return specs

    def _dead_targets(self):
        """Names of targets currently failed (empty without faults)."""
        if self.faults is None:
            return []
        return [name for name, health in self.faults.health.items()
                if not health.alive]

    def _predicted_util(self, workloads, layout):
        """Cost-model estimate of max target utilization."""
        evaluator = self._problem(workloads).evaluator()
        return float(evaluator.objective(layout.matrix))

    # ------------------------------------------------------------------
    # Live mode
    # ------------------------------------------------------------------

    def start(self):
        """Attach to the live simulation: observe completions and
        schedule periodic drift checks."""
        if self.ctx is None:
            raise SimulationError(
                "controller has no SimContext; use replay() for traces"
            )
        if self._running:
            raise SimulationError("controller already started")
        self._running = True
        self.ctx.engine.add_completion_observer(self.monitor.observe)
        self.ctx.engine.schedule(self.config.check_interval_s, self._tick)
        return self

    def stop(self):
        """Detach from the simulation; pending ticks become no-ops."""
        if self._running:
            self._running = False
            self.ctx.engine.remove_completion_observer(self.monitor.observe)

    def _tick(self):
        if not self._running:
            return
        self.check(self.ctx.engine.now)
        self.ctx.engine.schedule(self.config.check_interval_s, self._tick)

    # ------------------------------------------------------------------
    # The control loop body
    # ------------------------------------------------------------------

    def check(self, now):
        """One monitor → detect (→ re-solve → migrate) iteration."""
        self.monitor.advance(now)
        if self.migrating:
            # The copy in progress will rebase the detector when it
            # lands; re-deciding mid-migration would race with it.
            self.log.emit(now, "check", migrating=True)
            return None

        if self.target_names and len(self._dead_targets()) == len(
            self.target_names
        ):
            # Every target is down: there is nowhere to place anything,
            # so a re-solve cannot help. Keep checking; a repair event
            # will bring capacity back.
            self.log.emit(now, "check", all_targets_dead=True)
            return None

        fitted = self.monitor.workloads(self.object_names)
        predicted = self._predicted_util(fitted, self.layout)
        signal = self.detector.check(now, fitted, predicted)
        self.log.emit(now, "check", **signal.as_payload())
        if signal.fired:
            self.log.emit(now, "trigger", reason=signal.reason,
                          predicted_util=round(signal.predicted_util, 4),
                          solved_util=round(signal.solved_util, 4),
                          divergence=round(signal.divergence, 4))
            self._resolve(now, fitted, predicted)
        return signal

    def _stable_pinning(self, fitted):
        """Fix rows of objects whose rate hasn't moved (shrinks the
        re-solve); returns (pinning, pinned object names)."""
        if not self.config.pin_stable_objects:
            return None, []
        solved = {w.name: w.total_rate for w in self.solved_workloads}
        dead = set(self._dead_targets())
        dead_cols = [j for j, name in enumerate(self.target_names)
                     if name in dead]
        stable = []
        for spec in fitted:
            if dead_cols and any(
                self.layout.row(spec.name)[j] > 1e-9 for j in dead_cols
            ):
                # A row touching a dead target must stay free so the
                # solve can move it off; pinning it would freeze data
                # on a target that no longer exists.
                continue
            old = solved.get(spec.name, 0.0)
            new = spec.total_rate
            scale = max(old, new)
            if scale <= 0 or abs(new - old) / scale <= self.config.pin_rate_tolerance:
                stable.append(spec.name)
        if not stable or len(stable) == len(self.object_names):
            return None, []
        fixed = {
            name: self.layout.row(name).tolist() for name in stable
        }
        return PinningConstraints(fixed=fixed), stable

    def _resolve(self, now, fitted, predicted):
        """Warm-started incremental solve plus the accept/reject gate."""
        if self.resolves >= self.config.max_resolves:
            self.log.emit(now, "limit", max_resolves=self.config.max_resolves)
            self.detector.hold(now)
            return

        pinning, pinned = self._stable_pinning(fitted)
        started = time.perf_counter()
        resolve_span = self.obs.tracer.start(
            "online.resolve", sim_time=round(float(now), 4),
            pinned=len(pinned),
        )
        problem = self._problem(fitted, pinning=pinning)
        result, rung = self._run_solve(problem)
        candidate = self._aligned(result.layout)
        if self.config.regular:
            candidate = regularize(problem, candidate, obs=self.obs)
        latency = time.perf_counter() - started

        new_util = self._predicted_util(fitted, candidate)
        gain = predicted - new_util
        plan = plan_migration(self.layout, candidate, self.object_sizes)
        cost_s = migration_cost_seconds(plan,
                                        transfer_bps=self.config.transfer_bps)

        relative_gain = gain / predicted if predicted > 0 else 0.0
        worth_it = (
            plan.total_bytes > 0
            and relative_gain >= self.config.min_gain
            and gain * self.config.amortization_s >= cost_s
        )

        decision = dict(
            util_before=round(predicted, 4),
            util_after=round(new_util, 4),
            gain=round(gain, 4),
            plan_bytes=plan.total_bytes,
            migration_cost_s=round(cost_s, 3),
            pinned=len(pinned),
            method=result.method,
            decision_latency_s=round(latency, 6),
        )
        if rung:
            decision["watchdog_rung"] = rung
        if not worth_it:
            reason = ("no-change" if plan.total_bytes == 0 else
                      "gain-below-threshold" if relative_gain < self.config.min_gain
                      else "migration-too-expensive")
            self.obs.tracer.finish(resolve_span, decision="reject",
                                   reason=reason, method=result.method)
            self.obs.metrics.counter("repro_online_resolves_total",
                                     decision="reject").inc()
            self.log.emit(now, "reject", reason=reason, **decision)
            self.detector.hold(now)
            return

        self.resolves += 1
        self.obs.tracer.finish(resolve_span, decision="accept",
                               method=result.method,
                               gain=round(gain, 4))
        self.obs.metrics.counter("repro_online_resolves_total",
                                 decision="accept").inc()
        self.log.emit(now, "accept",
                      layout={name: [round(f, 4) for f in row]
                              for name, row in
                              candidate.fractions_by_name().items()},
                      **decision)
        pending = _PendingMigration(
            layout=candidate, fitted=fitted, predicted_util=new_util,
            accepted_at=now,
            # The episode span is detached: it outlives this call and
            # must not adopt the controller's later spans as children.
            span=self.obs.tracer.start(
                "online.migration", detached=True,
                accepted_at=round(float(now), 4),
                plan_bytes=plan.total_bytes,
            ),
        )
        self._begin_migration(pending, plan, now, cost_s)

    def _run_solve(self, problem):
        """Run one drift re-solve; returns ``(SolveResult, rung)``.

        The solve itself is a hook: the default runs in-process (under
        the watchdog when a budget is configured), while the serving
        layer's :class:`~repro.serve.tenant.ServedController` overrides
        it to route the work through the shared, fairness-scheduled
        solver pool.
        """
        if self.config.solve_budget_s is not None:
            watchdog = solve_with_watchdog(
                problem, initial=self.layout, warm_start=True,
                budget_s=self.config.solve_budget_s,
                method=self.config.solver_method,
                restarts=self.config.restarts,
                chaos_hook=self._solver_chaos, obs=self.obs,
            )
            return watchdog.result, watchdog.rung
        return solve(
            problem, initial=self.layout, warm_start=True,
            method=self.config.solver_method,
            restarts=self.config.restarts,
            obs=self.obs,
        ), ""

    def _begin_migration(self, pending, plan, now, cost_s):
        """Bring an accepted layout online: the one path every accept,
        evacuation and resume takes.

        Live, ``plan`` is copied through the simulator by a
        :class:`~repro.online.executor.ThrottledMigrator`, journaled
        when ``config.journal_dir`` is set (a resumed ``pending``
        brings its own journal), and the placement map is swapped when
        the last chunk lands.  Without a simulator (replay / advisory
        mode), or with nothing to copy, the layout takes effect at
        ``now + cost_s``, after the estimated migration time.
        """
        if self.ctx is None or plan.total_bytes == 0:
            self._install(pending, now + cost_s, bytes_moved=plan.total_bytes,
                          elapsed_s=cost_s, virtual=True)
            return
        if pending.journal is None:
            pending.journal = self._new_journal(plan, pending)
        self.migrating = True
        self._pending = pending
        pending.migrator = ThrottledMigrator(
            self.ctx, plan,
            chunk=(pending.journal.chunk if pending.journal is not None
                   else self.config.migration_chunk),
            window=self.config.migration_window,
            pace_s=self.config.migration_pace_s,
            on_done=self._migration_done,
            metrics=self.obs.metrics,
            journal=pending.journal,
        ).start()

    def _new_journal(self, plan, pending):
        """Create the crash-recovery journal of an accepted migration
        under ``config.journal_dir`` (None without one).

        The ``meta`` block carries everything
        :meth:`_pending_from_journal` needs to rebuild ``pending`` in a
        fresh controller: the accepted layout, the fitted workloads it
        was solved for, and the accept-time bookkeeping.
        """
        if self.config.journal_dir is None:
            return None
        os.makedirs(self.config.journal_dir, exist_ok=True)
        self._journal_seq += 1
        path = os.path.join(self.config.journal_dir,
                            "migration-%04d.jsonl" % self._journal_seq)
        meta = {
            "layout": {name: [float(f) for f in row] for name, row in
                       pending.layout.fractions_by_name().items()},
            "objects": list(self.object_names),
            "targets": list(self.target_names),
            "predicted_util": float(pending.predicted_util),
            "accepted_at": float(pending.accepted_at),
            "fitted": [asdict(w) for w in pending.fitted],
        }
        return MigrationJournal.create(path, plan,
                                       self.config.migration_chunk,
                                       meta=meta)

    def _migration_done(self, migrator):
        pending = self._pending
        self._pending = None
        self.migrating = False
        placement = PlacementMap(
            self.object_sizes, pending.layout.fractions_by_name(),
            self.physical_capacities, stripe_size=self.stripe_size,
        )
        self.ctx.set_placement(placement)
        if pending.journal is not None:
            # The placement swap is the migration's commit point.
            pending.journal.record_commit()
            pending.journal.close()
        self._install(pending, self.ctx.engine.now,
                      bytes_moved=migrator.bytes_moved,
                      elapsed_s=migrator.elapsed_s, virtual=False)

    def _install(self, pending, now, bytes_moved, elapsed_s, virtual):
        self.layout = pending.layout
        self.solved_workloads = pending.fitted
        self.detector.rebase(pending.fitted, pending.predicted_util, now)
        if pending.span is not None:
            self.obs.tracer.finish(
                pending.span, bytes_moved=bytes_moved,
                sim_elapsed_s=round(float(elapsed_s), 4), virtual=virtual,
            )
        self.log.emit(now, "migrated",
                      bytes_moved=bytes_moved,
                      elapsed_s=round(float(elapsed_s), 4),
                      virtual=virtual,
                      accepted_at=round(pending.accepted_at, 4))

    # ------------------------------------------------------------------
    # Faults: degraded-mode operation and emergency evacuation
    # ------------------------------------------------------------------

    def attach_faults(self, injector):
        """Wire a :class:`~repro.faults.injector.FaultInjector` in.

        Every fault event is logged; target health feeds the effective
        problem of every subsequent re-solve (degraded-mode planning);
        and the failure detector's emergencies trigger evacuation
        re-solves that bypass the drift detector's patience/cooldown
        gates.  With a live context the injector is armed on the
        engine; in replay mode :meth:`replay` polls it instead.
        """
        self.faults = injector
        self._solver_chaos = injector.solver_hook()
        self.failure_detector = FailureDetector(
            on_emergency=self._on_emergency,
            on_recovery=self._on_recovery,
            degrade_threshold=self.config.degrade_threshold,
            capacity_threshold=self.config.capacity_threshold,
            obs=self.obs,
        )
        injector.add_listener(self._observe_fault)
        if self.ctx is not None:
            injector.arm(self.ctx.engine)
        return self

    def _now(self, event=None):
        if self.ctx is not None:
            return self.ctx.engine.now
        return event.time if event is not None else 0.0

    def _observe_fault(self, event, health):
        now = self._now(event)
        self.log.emit(now, "fault", fault=event.kind, target=event.target,
                      state=health[event.target].state
                      if event.target in health else None)
        self.failure_detector.observe(event, health)

    def _poll_faults(self, now):
        """Replay mode: apply fault events the trace clock has reached."""
        if self.faults is not None and self.ctx is None:
            self.faults.pop_due(now)

    def _next_fault_due(self):
        """Replay mode: the earliest trace time :meth:`_poll_faults`
        acts at (infinity when it has nothing left to apply)."""
        if self.faults is None or self.ctx is not None:
            return math.inf
        due = self.faults.next_due()
        return math.inf if due is None else due

    def _fitted(self, now):
        """Freshest workload estimate, falling back to the solved one.

        A fault can strike before the monitor has seen a single
        completion (or after a stall silenced the stream); planning an
        evacuation against an all-zero workload would scatter data
        arbitrarily, so the last solved workloads stand in.
        """
        self.monitor.advance(now)
        fitted = self.monitor.workloads(self.object_names)
        if any(w.total_rate > 0 for w in fitted):
            return fitted
        return list(self.solved_workloads)

    def _on_emergency(self, event, health, reason):
        now = self._now(event)
        self.obs.metrics.counter("repro_online_emergencies_total",
                                 reason=reason).inc()
        self.log.emit(now, "emergency", reason=reason, target=event.target)
        self._emergency_resolve(now, reason, event)

    def _on_recovery(self, event, health):
        now = self._now(event)
        self.log.emit(now, "recovered", target=event.target)
        if self.migrating:
            # The copy in flight rebases the detector when it lands;
            # the drift loop will then notice the recovered capacity.
            return
        # Recovery is not an emergency: moving load back onto the
        # repaired target goes through the normal economic gate.
        fitted = self._fitted(now)
        predicted = self._predicted_util(fitted, self.layout)
        self._resolve(now, fitted, predicted)

    def _projected_layout(self, problem, dead):
        """Current layout with dead columns zeroed — the evacuation
        solve's warm start.

        Each row's mass is renormalized onto the alive targets; a row
        that lived entirely on dead targets is spread equally over the
        alive ones.  Returns None when the projection is not a valid
        layout for ``problem`` (pin bounds or alive capacity cannot
        absorb the evacuated data), in which case the watchdog starts
        from greedy construction instead.
        """
        dead_cols = [j for j, name in enumerate(self.target_names)
                     if name in dead]
        alive_cols = [j for j in range(len(self.target_names))
                      if j not in dead_cols]
        if not alive_cols:
            return None
        matrix = self.layout.matrix.copy()
        matrix[:, dead_cols] = 0.0
        for i in range(matrix.shape[0]):
            total = matrix[i].sum()
            if total <= 0:
                matrix[i, alive_cols] = 1.0 / len(alive_cols)
            else:
                matrix[i] /= total
        try:
            layout = problem.make_layout(matrix)
            problem.validate_layout(layout)
            return layout
        except Exception:
            return None

    def _emergency_resolve(self, now, reason, event):
        """Re-solve around a failed/degraded target, bypassing every
        drift gate: no patience, no cooldown, no accept economics —
        staying on a dead target costs errors, not just utilization."""
        span = self.obs.tracer.start(
            "online.emergency", reason=reason, target=event.target,
            sim_time=round(float(now), 4),
        )
        if self.migrating and self._pending is not None:
            stale = self._pending
            if stale.migrator is not None:
                stale.migrator.cancel()
            if stale.journal is not None:
                stale.journal.close()
            if stale.span is not None:
                self.obs.tracer.finish(stale.span, cancelled=True)
            self.log.emit(now, "migration-cancelled", reason=reason)
            self._pending = None
            self.migrating = False

        fitted = self._fitted(now)
        dead = set(self._dead_targets())
        alive = [name for name in self.target_names if name not in dead]
        if not alive:
            self.log.emit(now, "emergency-unsolvable",
                          reason="no-targets-alive")
            self.obs.tracer.finish(span, outcome="unsolvable")
            return

        # Evacuation pinning: objects touching a dead target may only
        # use alive targets; everything else is pinned in place so the
        # solve (and the copy) is exactly the evacuation, no more.
        pinning = None
        if dead:
            dead_cols = [j for j, name in enumerate(self.target_names)
                         if name in dead]
            allowed, fixed = {}, {}
            for obj in self.object_names:
                row = self.layout.row(obj)
                if any(row[j] > 1e-9 for j in dead_cols):
                    allowed[obj] = list(alive)
                else:
                    fixed[obj] = [float(f) for f in row]
            if allowed:
                if fixed and len(fixed) < len(self.object_names):
                    pinning = PinningConstraints(allowed=allowed,
                                                 fixed=fixed)
                else:
                    pinning = PinningConstraints(allowed=allowed)

        started = time.perf_counter()
        problem = self._problem(fitted, pinning=pinning)
        initial = self._projected_layout(problem, dead)
        watchdog = solve_with_watchdog(
            problem, initial=initial,
            budget_s=self.config.emergency_budget_s,
            method=self.config.solver_method,
            restarts=self.config.restarts,
            warm_start=initial is not None,
            chaos_hook=self._solver_chaos, obs=self.obs,
        )
        candidate = self._aligned(watchdog.result.layout)
        if self.config.regular:
            candidate = self._aligned(
                regularize(problem, watchdog.result.layout, obs=self.obs)
            )
        new_util = float(problem.evaluator().objective(candidate.matrix))
        plan = plan_migration(self.layout, candidate, self.object_sizes)
        if dead:
            # Evacuation first: chunks leaving dead targets copy before
            # load-balancing shuffles between healthy ones.
            plan.moves.sort(key=lambda m: (m.source not in dead, -m.bytes))
        cost_s = migration_cost_seconds(
            plan, transfer_bps=self.config.transfer_bps
        )

        self.emergency_resolves += 1
        self.obs.metrics.counter("repro_online_resolves_total",
                                 decision="emergency").inc()
        self.obs.tracer.finish(
            span, rung=watchdog.rung, degraded=watchdog.degraded,
            plan_bytes=plan.total_bytes,
            latency_s=round(time.perf_counter() - started, 6),
        )
        self.log.emit(now, "evacuate", reason=reason, target=event.target,
                      util_after=round(new_util, 4),
                      plan_bytes=plan.total_bytes,
                      watchdog_rung=watchdog.rung,
                      degraded=watchdog.degraded,
                      layout={name: [round(f, 4) for f in row]
                              for name, row in
                              candidate.fractions_by_name().items()})

        pending = _PendingMigration(
            layout=candidate, fitted=fitted, predicted_util=new_util,
            accepted_at=now,
            span=self.obs.tracer.start(
                "online.migration", detached=True, emergency=True,
                accepted_at=round(float(now), 4),
                plan_bytes=plan.total_bytes,
            ),
        )
        self._begin_migration(pending, plan, now, cost_s)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def resume_migration(self, journal_path):
        """Finish a migration whose process died mid-copy.

        Rebuilds the accepted layout and the fitted workloads from the
        journal's meta block and sends the journal's plan down
        :meth:`_begin_migration` with the journal attached — chunks
        already recorded are skipped, so only the tail of the copy
        happens again.  A journal that already holds its commit record
        needs nothing (the placement swap happened before the crash),
        nor does one that never began (loaded as None).  Returns the
        loaded journal.
        """
        journal = MigrationJournal.load(journal_path)
        if journal is None or journal.committed:
            return journal
        now = self._now()
        pending = self._pending_from_journal(journal, now)
        self.log.emit(now, "resume",
                      journal=os.path.basename(str(journal_path)),
                      chunks_done=len(journal.done),
                      chunks_total=journal.total_chunks)
        cost_s = migration_cost_seconds(
            journal.plan, transfer_bps=self.config.transfer_bps
        )
        self._begin_migration(pending, journal.plan, now, cost_s)
        return journal

    def _pending_from_journal(self, journal, now):
        """The accepted migration a journal's meta block describes,
        with the journal attached (``now`` stands in for a missing
        accept time)."""
        meta = journal.meta
        layout = self._aligned(Layout(
            [meta["layout"][obj] for obj in meta["objects"]],
            meta["objects"], meta["targets"],
        ))
        fitted = [ObjectWorkload(**spec) for spec in meta.get("fitted", [])]
        return _PendingMigration(
            layout=layout, fitted=fitted or list(self.solved_workloads),
            predicted_util=float(meta.get("predicted_util", 0.0)),
            accepted_at=float(meta.get("accepted_at", now)),
            journal=journal,
        )

    # ------------------------------------------------------------------
    # Replay mode
    # ------------------------------------------------------------------

    def replay(self, records, end_time=None, faults=None):
        """Drive the loop from an archived trace instead of a live run.

        Records are fed through the monitor in timestamp order with a
        drift check every ``check_interval_s`` of trace time; accepted
        layouts take effect virtually (after the estimated migration
        time).  With ``faults`` (a
        :class:`~repro.faults.injector.FaultInjector`), fault events
        are applied as the trace clock passes their times, so chaos
        scenarios replay deterministically.  Returns the event log.
        """
        if faults is not None and faults is not self.faults:
            self.attach_faults(faults)
        records = sorted(records, key=attrgetter("finish_time"))
        if not records:
            return self.log
        finish = [record.finish_time for record in records]
        interval = self.config.check_interval_s
        next_check = finish[0] + interval
        start = 0
        while True:
            # Records before the next check and the next fault's due
            # time see nothing happen between them: observe them as one
            # batch.  The record at the boundary first sees due faults
            # applied and due checks run, as it would one at a time.
            end = bisect_left(finish, min(next_check, self._next_fault_due()),
                              start)
            self.monitor.observe_many(records[start:end])
            if end == len(records):
                break
            now = finish[end]
            while now >= next_check:
                self._poll_faults(next_check)
                self.check(next_check)
                next_check += interval
            self._poll_faults(now)
            start = end
        last = end_time if end_time is not None else finish[-1]
        last = max(last, next_check - interval)
        self._poll_faults(last)
        self.check(last)
        return self.log
