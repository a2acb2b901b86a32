"""Span recording for the benchmark's traced run.

The wrappers live here, not in the program: :meth:`Tracer.wrap` swaps a
public function (or method) of a ``repro`` module for a timing wrapper
and :meth:`Tracer.uninstall` puts the original back.  A span is
``(id, name, start, end, parent, workload, rid, tags)``; its layer is
the first dotted component of its name (``storage``, ``core`` ...).
Spans stay in memory until the workload ends and are then written as
JSONL (:meth:`Tracer.write`).

Functions called tens of thousands of times per iteration (cost-model
lookups, monitor observations) are wrapped *hot*: their calls are
summed per ``(name, parent span)`` instead of becoming spans, so the
trace stays small and the wrapper costs two clock reads.

Parents come from a context variable, which asyncio tasks inherit; a
span started on another thread or in another process (the serve
workload) has none and is linked afterwards to the innermost span with
the same request id (``rid``) that encloses it in time.  Every clock is
``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, shared by all
processes of the machine — so client and server spans line up.
"""

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

_CURRENT = contextvars.ContextVar("bench_e2e_span", default=None)


class Tracer:
    """Records spans for one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        #: (name, parent id) -> [calls, seconds] for hot functions.
        self.hot = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = []

    # -- recording -------------------------------------------------------

    def _new_id(self):
        # Unique across the processes whose spans get merged (client,
        # server); pool workers forked from the server keep theirs.
        return "%d.%d" % (os.getpid(), next(self._ids))

    def start(self, name, **tags):
        """Open a span (the wrappers', or the benchmark's own iteration
        root); returns ``(span, token)`` for :meth:`finish`."""
        span = {"id": self._new_id(), "name": name, "parent": _CURRENT.get(),
                "start": time.perf_counter(), "end": None, "rid": None,
                "tags": tags}
        return span, _CURRENT.set(span["id"])

    def finish(self, opened, **tags):
        span, token = opened
        _CURRENT.reset(token)
        span["end"] = time.perf_counter()
        span["tags"].update(tags)
        self.spans.append(span)
        return span

    def add(self, name, start, end, parent=None, rid=None, **tags):
        """Record a span measured elsewhere (e.g. a client-side wait)."""
        span = {"id": self._new_id(), "name": name, "parent": parent,
                "start": start, "end": end, "rid": rid, "tags": tags}
        self.spans.append(span)
        return span

    def _hot_add(self, name, elapsed):
        key = (name, _CURRENT.get())
        with self._lock:
            entry = self.hot.get(key)
            if entry is None:
                self.hot[key] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    # -- installing wrappers --------------------------------------------

    def wrap(self, owner, attr, name, hook=None, hot=False):
        """Replace ``owner.attr`` (a module function or a class method)
        with a recording wrapper, everywhere it is referenced.

        ``hook(args, kwargs)`` runs before the call and returns a
        callable that maps the result to extra span tags (``rid`` among
        them), or None.
        """
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if hot:
            wrapper = self._hot_wrapper(original, name)
        elif inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name, hook)
        else:
            wrapper = self._sync_wrapper(original, name, hook)
        # Module functions are often imported by name into other
        # modules; class methods can have aliases (``advise =
        # recommend``).  Patch every reference to the same object.
        holders = ([owner] if isinstance(owner, type) else
                   [module for key, module in list(sys.modules.items())
                    if key.startswith("repro") and module is not None])
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))
        return wrapper

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def _sync_wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(args, kwargs) if hook else None
            opened = tracer.start(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._close(opened, done, result, error)
        return wrapper

    def _async_wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            done = hook(args, kwargs) if hook else None
            opened = tracer.start(name)
            result = error = None
            try:
                result = await fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._close(opened, done, result, error)
        return wrapper

    def _close(self, opened, done, result, error):
        tags = done(result) if done and error is None else {}
        rid = tags.pop("rid", None)
        span = self.finish(opened, **tags)
        span["rid"] = rid
        if error:
            span["tags"]["error"] = error

    def _hot_wrapper(self, fn, name):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._hot_add(name, clock() - started)
        return wrapper

    # -- output ----------------------------------------------------------

    def records(self):
        out = [dict(span, type="span", workload=self.workload)
               for span in self.spans]
        out.extend({"type": "hot", "name": name, "parent": parent,
                    "calls": calls, "seconds": seconds,
                    "workload": self.workload}
                   for (name, parent), (calls, seconds) in self.hot.items())
        return out

    def write(self, path, meta=None, extra=()):
        """Write ``meta`` (one line), every span and hot record, then
        ``extra`` records (e.g. another process's, from
        :func:`read_records`)."""
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(meta or {}, type="meta",
                                         workload=self.workload)) + "\n")
            for record in self.records() + list(extra):
                handle.write(json.dumps(record) + "\n")


def read_records(path):
    """Span and hot records of a JSONL file written by :meth:`Tracer.write`."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if r.get("type") in ("span", "hot")]


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def layer_of(name):
    return name.split(".", 1)[0]


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanTree:
    """Spans with resolved parents, children and self times."""

    def __init__(self, records):
        self.spans = [r for r in records if r["type"] == "span"]
        self.by_id = {s["id"]: s for s in self.spans}
        self._link()
        self.children = {}
        for span in self.spans:
            if span["parent"] is not None:
                self.children.setdefault(span["parent"], []).append(span)
        self.hot_under = {}
        for record in records:
            if record["type"] == "hot":
                self.hot_under.setdefault(record["parent"], []).append(
                    record)

    def _link(self):
        by_rid = {}
        for span in self.spans:
            if span.get("rid") is not None:
                by_rid.setdefault(span["rid"], []).append(span)
        for span in self.spans:
            if span["parent"] in self.by_id:
                continue
            span["parent"] = None
            best = None
            for other in by_rid.get(span.get("rid"), ()):
                if (other is not span and other["start"] <= span["start"]
                        and other["end"] >= span["end"]
                        and (other["end"] - other["start"]
                             > span["end"] - span["start"])
                        and (best is None or other["start"] > best["start"])):
                    best = other
            if best is not None:
                span["parent"] = best["id"]

    def duration(self, span):
        return span["end"] - span["start"]

    def self_time(self, span):
        """Duration minus what child spans and hot calls under it cover."""
        start, end = span["start"], span["end"]
        kids = [(max(start, c["start"]), min(end, c["end"]))
                for c in self.children.get(span["id"], ())]
        covered = _covered([k for k in kids if k[1] > k[0]])
        hot = sum(r["seconds"] for r in self.hot_under.get(span["id"], ()))
        return max(0.0, self.duration(span) - covered - hot)

    def descendants(self, span):
        stack, out = [span], []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self.children.get(node["id"], ()))
        return out

    def layer_seconds(self, roots):
        """Self seconds per layer over the trees under ``roots`` (hot
        calls count towards their own layer)."""
        totals = {}
        for root in roots:
            for span in self.descendants(root):
                layer = layer_of(span["name"])
                totals[layer] = totals.get(layer, 0.0) + self.self_time(span)
                for record in self.hot_under.get(span["id"], ()):
                    hot_layer = layer_of(record["name"])
                    totals[hot_layer] = (totals.get(hot_layer, 0.0)
                                         + record["seconds"])
        return totals

    def hot_totals(self, roots):
        """name -> [calls, seconds] of hot calls under ``roots``."""
        totals = {}
        for root in roots:
            for span in self.descendants(root):
                for record in self.hot_under.get(span["id"], ()):
                    entry = totals.setdefault(record["name"], [0, 0.0])
                    entry[0] += record["calls"]
                    entry[1] += record["seconds"]
        return totals

    def named(self, roots, name, outermost=False):
        """Spans called ``name`` under ``roots``; with ``outermost``,
        only those without an ancestor of the same name."""
        found = []
        for root in roots:
            stack = [(root, False)]
            while stack:
                node, inside = stack.pop()
                match = node["name"] == name
                if match and not (outermost and inside):
                    found.append(node)
                stack.extend((child, inside or match)
                             for child in self.children.get(node["id"], ()))
        return found
