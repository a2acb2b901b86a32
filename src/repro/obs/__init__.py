"""Unified instrumentation: tracing, metrics, exporters.

The advisor pipeline, the solver portfolio, the incremental objective
evaluator, the storage simulator, and the online controller all accept
an optional :class:`Instrumentation` bundle — a :class:`Tracer` for
nested wall-clock spans plus a :class:`MetricsRegistry` for counters,
gauges, histograms, and convergence series.  Instrumentation is strictly
opt-in: the default bundle (:data:`NULL_INSTRUMENTATION`) is built from
:class:`NullTracer` / :class:`NullRegistry`, whose operations are
shared-singleton no-ops, so uninstrumented runs pay nothing on the
solver hot path (the contract ``benchmarks/bench_obs_overhead.py``
enforces).

Typical use::

    from repro.obs import Instrumentation
    from repro.obs.export import write_trace

    obs = Instrumentation.on()
    LayoutAdvisor(problem, obs=obs).recommend()
    write_trace("out.jsonl", obs)          # spans + metrics, JSON-lines
    print(obs.summary())                   # human table

then ``python -m repro.cli report out.jsonl`` renders the saved trace.

Work done in another process comes home through one round trip: the
worker records into :meth:`Instrumentation.worker`, returns
:meth:`Instrumentation.ship`'s ``{"spans", "metrics"}`` payload with its
result, and the caller takes it in with :meth:`Instrumentation.absorb`.
"""

import os
import time

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    Series,
)
from repro.obs.trace import (
    NullTracer,
    NULL_TRACER,
    Span,
    TraceContext,
    Tracer,
)


class Instrumentation:
    """One tracer + one metrics registry, passed around as ``obs=``."""

    __slots__ = ("tracer", "metrics", "root")

    def __init__(self, tracer=None, metrics=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: The open root span of a :meth:`worker` bundle, else None.
        self.root = None

    @property
    def enabled(self):
        """True when either side actually records anything."""
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def on(cls, clock=time.perf_counter):
        """A live bundle: real tracer (with ``clock``) + real registry."""
        return cls(Tracer(clock=clock), MetricsRegistry())

    @classmethod
    def worker(cls, name, **tags):
        """A live bundle for work done in another process, recording
        under an open root span ``name`` tagged with ``tags`` and this
        process's pid; :meth:`ship` sends it home."""
        obs = cls.on()
        obs.root = obs.tracer.start(name, **tags, pid=os.getpid())
        return obs

    def ship(self, **tags):
        """Finish the :meth:`worker` root (adding ``tags``) and return
        the picklable ``{"spans", "metrics"}`` payload that
        :meth:`absorb` takes."""
        self.tracer.finish(self.root, **tags)
        return {"spans": self.tracer.to_records(),
                "metrics": self.metrics.to_records()}

    def absorb(self, shipped, parent=None, end_at=None, metrics=None):
        """Bring a worker's :meth:`ship` payload home.

        Its spans are grafted under ``parent``, skew-anchored at
        ``end_at`` (see :meth:`Tracer.graft_records`), and its metrics
        merge into ``metrics`` — this bundle's registry by default (see
        :meth:`MetricsRegistry.merge_records`).  ``shipped`` is None
        for a job that ran untraced, and then nothing happens.
        """
        if shipped is None:
            return
        self.tracer.graft_records(shipped["spans"], parent=parent,
                                  end_at=end_at)
        if metrics is None:
            metrics = self.metrics
        metrics.merge_records(shipped["metrics"])

    def summary(self):
        """Human-readable dump: span tree plus the metrics table."""
        parts = []
        tree = self.tracer.render_tree()
        if tree:
            parts.append("spans\n" + tree)
        parts.append("metrics\n" + self.metrics.summary())
        return "\n\n".join(parts)


#: The shared disabled bundle every ``obs=None`` call site resolves to.
NULL_INSTRUMENTATION = Instrumentation()


def ensure_obs(obs):
    """Normalize an ``obs=`` argument: None → the null bundle."""
    return obs if obs is not None else NULL_INSTRUMENTATION


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "NULL_INSTRUMENTATION",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Series",
    "Span",
    "TraceContext",
    "Tracer",
    "ensure_obs",
]
