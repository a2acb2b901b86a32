"""Controller decision/metrics log.

Every controller decision — periodic checks, drift triggers, accepted
and rejected re-solves, migration start/finish — lands here as one
structured event, exportable as JSON-lines (the same machine-readable
format the ``advise --json`` CLI emits for layouts) and summarizable
as a table.  The log is how a benchmark, a test, or an operator audits
what the controller did and why.

The log is wired into the unified instrumentation layer
(:mod:`repro.obs`): when constructed with an ``obs`` bundle, every
emitted event is *also* recorded as a zero-duration tracer event
(``online.<kind>``) and counted in the ``repro_online_events_total``
metric, so one ``--metrics`` trace file carries the controller's whole
decision history alongside solver spans and simulator metrics.  The
in-memory list is kept for compatibility and for :meth:`summary`.

Events carry a monotonic ``seq`` field besides their (rounded)
timestamp: simulated time is rounded to 6 decimals on emit, so several
events of one control-loop iteration share a timestamp, and only the
sequence number preserves their total order across a JSONL round-trip.
"""

import warnings
from collections import Counter

from repro import jsonl
from repro.obs import ensure_obs


class EventLog:
    """Append-only structured event log.

    Each event is a plain dict with at least ``seq`` (monotonic emit
    order), ``time`` (simulated seconds), and ``kind``.

    Args:
        obs: Optional :class:`~repro.obs.Instrumentation`; every emit
            is forwarded to its tracer (as an ``online.<kind>`` event
            span) and metrics (``repro_online_events_total{kind=…}``).
    """

    def __init__(self, obs=None):
        self.events = []
        #: Malformed lines dropped by the last :meth:`from_jsonl` load.
        self.skipped = 0
        self._obs = ensure_obs(obs)

    def emit(self, time, kind, **payload):
        """Record one event and return it."""
        event = {"seq": len(self.events), "time": round(float(time), 6),
                 "kind": str(kind)}
        event.update(payload)
        self.events.append(event)
        if self._obs.enabled:
            self._obs.metrics.counter(
                "repro_online_events_total", kind=event["kind"]
            ).inc()
            self._obs.tracer.event("online." + event["kind"], **event)
        return event

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind):
        """All events of one kind, in order."""
        return [e for e in self.events if e["kind"] == kind]

    def last(self, kind=None):
        """Most recent event (of a kind), or None."""
        pool = self.events if kind is None else self.of_kind(kind)
        return pool[-1] if pool else None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_jsonl(self, path):
        """Write every event as one JSON object per line."""
        jsonl.write(path, self.events)

    @classmethod
    def from_jsonl(cls, path):
        """Load an event log written by :meth:`to_jsonl`.

        Events are restored in ``seq`` order (equal-time events would
        otherwise lose their intra-tick order); logs written before the
        ``seq`` field existed keep their file order and are assigned
        sequence numbers on load.

        Parsing is tolerant: a line that is not a JSON object, a torn
        final line included, is skipped and counted in the returned
        log's ``skipped`` attribute (with a one-line warning) rather
        than aborting the load — one bad line should not make a whole
        run's history unreadable.
        """
        log = cls()
        log.events, bad, _ = jsonl.read(path)
        for number in bad:
            warnings.warn(
                "%s:%d: skipping malformed event line" % (path, number),
                RuntimeWarning, stacklevel=2,
            )
        log.skipped = len(bad)
        for index, event in enumerate(log.events):
            event.setdefault("seq", index)
        log.events.sort(key=lambda e: e["seq"])
        return log

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def counts(self):
        """Event count per kind."""
        return Counter(e["kind"] for e in self.events)

    def summary(self):
        """Human-readable controller run summary table."""
        counts = self.counts()
        triggers = Counter(
            e.get("reason", "?") for e in self.of_kind("trigger")
        )
        accepted = self.of_kind("accept")
        rejected = self.of_kind("reject")
        migrations = self.of_kind("migrated")
        bytes_moved = sum(e.get("bytes_moved", 0) for e in migrations)
        migration_s = sum(e.get("elapsed_s", 0.0) for e in migrations)
        latencies = [
            e["decision_latency_s"] for e in accepted + rejected
            if "decision_latency_s" in e
        ]

        lines = ["online controller summary"]
        if self.skipped:
            # Data loss must not hide in a Python warning: a log loaded
            # from JSONL with torn/garbled lines says so up front.
            lines.append("  SKIPPED           %6d  malformed line%s dropped "
                         "on load" % (self.skipped,
                                      "" if self.skipped == 1 else "s"))
        lines.append("  checks            %6d" % counts.get("check", 0))
        lines.append("  drift triggers    %6d  (%s)" % (
            counts.get("trigger", 0),
            ", ".join("%s: %d" % kv for kv in sorted(triggers.items()))
            or "none",
        ))
        lines.append("  re-solves         %6d  accepted %d, rejected %d" % (
            len(accepted) + len(rejected), len(accepted), len(rejected),
        ))
        lines.append("  migrations        %6d  %.1f MiB moved in %.2f s" % (
            len(migrations), bytes_moved / (1 << 20), migration_s,
        ))
        if latencies:
            lines.append("  decision latency  %8.4f s mean (%d decisions)"
                         % (sum(latencies) / len(latencies), len(latencies)))
        for event in accepted:
            lines.append(
                "  accept @ %8.2f s  util %.3f -> %.3f  plan %.1f MiB"
                % (event["time"], event.get("util_before", float("nan")),
                   event.get("util_after", float("nan")),
                   event.get("plan_bytes", 0) / (1 << 20))
            )
        return "\n".join(lines)
