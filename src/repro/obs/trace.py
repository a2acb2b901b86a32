"""Pipeline tracing: nested spans with tags and an injectable clock.

A :class:`Tracer` records *spans* — named intervals with wall-clock
start/end, free-form tags, and a parent id — so a whole advisor run
(initial → solve restarts → coordinate rounds → regularization passes)
serializes as one reconstructable tree.  The clock is injectable, which
keeps span tests deterministic and lets the online controller stamp
spans with *simulated* time.

The disabled counterpart, :class:`NullTracer`, answers every call with
shared no-op singletons: no span objects, no list appends, no clock
reads.  Hot loops can additionally guard on ``tracer.enabled`` to skip
building the keyword arguments altogether — the contract
:mod:`benchmarks.bench_obs_overhead` enforces.
"""

import itertools
import time
import uuid


class TraceContext:
    """Cross-process trace identity: a trace id plus a parent span id.

    Minted once per external request at HTTP admission, carried through
    the scheduler queue, and pickled into solver-pool jobs and
    partitioned-solver worker tasks, so every span recorded for one
    request — in whichever OS process — shares a single ``trace_id``
    and can be stitched back into one tree.  The wire form is a plain
    dict (:meth:`to_dict`), so job payloads stay picklable and
    JSON-safe without importing this class.
    """

    __slots__ = ("trace_id", "parent_span_id")

    def __init__(self, trace_id, parent_span_id=None):
        self.trace_id = str(trace_id)
        self.parent_span_id = parent_span_id

    @classmethod
    def mint(cls):
        """A fresh root context with a globally unique trace id."""
        return cls(uuid.uuid4().hex[:16])

    def child(self, span):
        """The context a worker acting under ``span`` should carry."""
        return TraceContext(self.trace_id, span.span_id)

    def to_dict(self):
        record = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            record["parent"] = self.parent_span_id
        return record

    @classmethod
    def from_dict(cls, record):
        return cls(record["trace_id"], record.get("parent"))

    def __repr__(self):
        return "TraceContext(%r, parent=%r)" % (self.trace_id,
                                                self.parent_span_id)


class Span:
    """One named, tagged interval in a trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "start_s", "end_s", "tags")

    def __init__(self, name, span_id, parent_id=None, start_s=0.0, tags=None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s = None
        self.tags = tags if tags is not None else {}

    @property
    def duration_s(self):
        """Span duration, or None while the span is still open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def set_tag(self, key, value):
        """Attach (or overwrite) one tag; chainable."""
        self.tags[key] = value
        return self

    def to_record(self):
        """The JSONL record for this span."""
        record = {
            "type": "span",
            "id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.end_s is not None:
            record["end_s"] = self.end_s
            record["duration_s"] = self.end_s - self.start_s
        if self.tags:
            record["tags"] = self.tags
        return record

    @classmethod
    def from_record(cls, record):
        span = cls(
            record["name"], record["id"], record.get("parent"),
            record.get("start_s", 0.0), dict(record.get("tags", {})),
        )
        span.end_s = record.get("end_s")
        return span

    def __repr__(self):
        return "Span(%r, id=%d, parent=%r, duration=%r)" % (
            self.name, self.span_id, self.parent_id, self.duration_s,
        )


class _SpanContext:
    """Context manager that finishes a started span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self.span = span

    def __enter__(self):
        return self.span

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.span.tags.setdefault("error", exc_type.__name__)
        self._tracer.finish(self.span)
        return False


class Tracer:
    """Collects a tree of spans.

    Args:
        clock: Zero-argument callable returning seconds.  Defaults to
            ``time.perf_counter``; tests inject a fake, the online
            controller can inject the simulation clock.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self.spans = []
        self._stack = []

    # -- recording ------------------------------------------------------

    def start(self, name, parent=None, detached=False, **tags):
        """Open a span.  The current innermost open span becomes its
        parent unless ``parent`` (a Span, or ``False`` for a root) is
        given.  ``detached=True`` records the span without making it
        the parent of subsequently started spans — for episodes that
        outlive their lexical scope (an online migration, say).
        """
        if parent is None:
            parent_id = self._stack[-1].span_id if self._stack else None
        elif parent is False:
            parent_id = None
        else:
            parent_id = parent.span_id
        span = Span(name, next(self._ids), parent_id, self._clock(),
                    tags or {})
        self.spans.append(span)
        if not detached:
            self._stack.append(span)
        return span

    def finish(self, span, **tags):
        """Close a span (tolerates out-of-order finishes)."""
        if span.end_s is not None:
            return span
        if tags:
            span.tags.update(tags)
        span.end_s = self._clock()
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break
        return span

    def span(self, name, **tags):
        """``with tracer.span("solve", method="slsqp") as s: ...``"""
        return _SpanContext(self, self.start(name, **tags))

    def event(self, name, **tags):
        """Record an instantaneous (zero-duration) span."""
        span = self.start(name, detached=True, **tags)
        span.end_s = span.start_s
        return span

    def add_span(self, name, duration_s, **tags):
        """Record an already-measured span (e.g. a solver restart that
        ran in a worker process and only reported its elapsed time).
        The span is backdated so ``end`` lands at the current clock."""
        now = self._clock()
        span = self.start(name, detached=True, **tags)
        span.start_s = now - float(duration_s)
        span.end_s = now
        return span

    def graft_records(self, records, parent=None, end_at=None):
        """Stitch a remote span tree (serialized by another process)
        into this tracer.

        Span ids are remapped onto this tracer's id sequence (so they
        cannot collide with local spans), parent links inside the batch
        are preserved, and batch roots are attached under ``parent``
        (a local Span) when given.

        Clock skew: a worker process stamps spans with *its own*
        monotonic clock, whose epoch is unrelated to this tracer's.
        With ``end_at`` (a timestamp on this tracer's clock — typically
        the moment the result arrived), the whole remote tree is
        shifted so its latest finished span ends at ``end_at``:
        relative structure inside the worker is preserved exactly, and
        the tree is backdated into the local timeline the same way
        :meth:`add_span` backdates a single duration.  Unfinished
        remote spans stay open.

        Returns the grafted spans, in record order.
        """
        remote = [Span.from_record(r) for r in records
                  if r.get("type") == "span"]
        if not remote:
            return []
        offset = 0.0
        if end_at is not None:
            ends = [s.end_s for s in remote if s.end_s is not None]
            anchor = max(ends) if ends else max(s.start_s for s in remote)
            offset = float(end_at) - anchor
        id_map = {}
        for span in remote:
            id_map[span.span_id] = next(self._ids)
        parent_id = parent.span_id if parent is not None else None
        for span in remote:
            span.span_id = id_map[span.span_id]
            if span.parent_id in id_map:
                span.parent_id = id_map[span.parent_id]
            else:
                span.parent_id = parent_id
            span.start_s += offset
            if span.end_s is not None:
                span.end_s += offset
            self.spans.append(span)
        return remote

    # -- inspection -----------------------------------------------------

    def find(self, name):
        """All spans with this name, in start order."""
        return [s for s in self.spans if s.name == name]

    def tree(self):
        """``(roots, children)``: root spans plus an id → children map."""
        children = {}
        by_id = {s.span_id: s for s in self.spans}
        roots = []
        for span in self.spans:
            if span.parent_id is not None and span.parent_id in by_id:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)
        return roots, children

    def render_tree(self, max_depth=None):
        """Indented text rendering of the span tree."""
        roots, children = self.tree()
        lines = []

        def walk(span, depth):
            if max_depth is not None and depth > max_depth:
                return
            duration = span.duration_s
            label = ("%.6fs" % duration if duration is not None
                     else "…running")
            tags = "".join(
                "  %s=%s" % (k, v) for k, v in sorted(span.tags.items())
                if not isinstance(v, (dict, list))
            )
            lines.append("%s%-28s %s%s"
                         % ("  " * depth, span.name, label, tags))
            for child in children.get(span.span_id, ()):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 0)
        return "\n".join(lines)

    # -- serialization --------------------------------------------------

    def to_records(self):
        return [span.to_record() for span in self.spans]

    @classmethod
    def from_records(cls, records):
        """Rebuild a tracer (spans only) from parsed span records."""
        tracer = cls()
        tracer.spans = [Span.from_record(r) for r in records
                        if r.get("type") == "span"]
        if tracer.spans:
            tracer._ids = itertools.count(
                max(s.span_id for s in tracer.spans) + 1
            )
        return tracer


class _NullSpan:
    """Shared inert span: accepts tags, reports nothing."""

    __slots__ = ()
    name = "null"
    span_id = 0
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    tags = {}

    def set_tag(self, key, value):
        return self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every operation is a shared-singleton no-op."""

    enabled = False
    spans = ()

    def start(self, name, parent=None, detached=False, **tags):
        return NULL_SPAN

    def finish(self, span, **tags):
        return span

    def span(self, name, **tags):
        return _NULL_SPAN_CONTEXT

    def event(self, name, **tags):
        return NULL_SPAN

    def add_span(self, name, duration_s, **tags):
        return NULL_SPAN

    def graft_records(self, records, parent=None, end_at=None):
        return []

    def find(self, name):
        return []

    def tree(self):
        return [], {}

    def render_tree(self, max_depth=None):
        return ""

    def to_records(self):
        return []


NULL_TRACER = NullTracer()
