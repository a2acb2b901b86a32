"""JSON-lines files: the one module that writes, appends and reads them.

The write-ahead log, migration journals, the controller event log, the
access log, instrumentation traces and archived I/O traces are all one
JSON object per line.  This module decides how a record becomes a
line, when an appended line is durable, and which lines a reader could
not use; each log adds only its own policy on top of :func:`read`.

The torn-tail rule: a crash can cut the last append at any byte.
:func:`read` reports a bad last line as ``torn``, apart from the other
bad lines.  :class:`AppendLog` seals the tail before its first append:
a final fragment that is a whole record gets its newline, anything
else is cut, so the next record is never glued onto a fragment.
"""

import json
import os


def json_default(value):
    """Coerce numpy scalars (which reach tags via solver indices) to JSON."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        "Object of type %s is not JSON serializable" % type(value).__name__
    )


_ENCODER = json.JSONEncoder(default=json_default)


def line(record):
    """``record`` as one JSON line, newline included."""
    return _ENCODER.encode(record) + "\n"


def write(path, records):
    """Write ``records`` as the whole of ``path``; returns ``path``."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(line(record))
    return path


def fsync_dir(directory):
    """Make renames and unlinks in ``directory`` durable (best effort:
    a platform that cannot fsync a directory is skipped)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:
        pass


def replace(path, text):
    """Atomically make ``text`` the whole of ``path``: temp file, fsync,
    rename, directory fsync.  A crash leaves the old file or the new."""
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")


def _record(text):
    """The JSON object the UTF-8 bytes ``text`` hold, or None."""
    try:
        value = json.loads(text.decode())
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def scan(path):
    """Yield ``(number, record)`` per non-blank line, numbered from 1;
    ``record`` is None for a line that is not a JSON object."""
    with open(path, "rb") as handle:
        for number, text in enumerate(handle, start=1):
            if not text.isspace():
                yield number, _record(text)


def read(path, check=None):
    """``(records, bad, torn)`` of a JSON-lines file.

    ``records`` are the JSON objects that pass ``check`` (when given),
    in file order; ``bad`` the numbers of the other non-blank lines;
    ``torn`` whether the last non-blank line is bad.
    """
    records, bad, last = [], [], 0
    for number, record in scan(path):
        if record is None or (check is not None and not check(record)):
            bad.append(number)
        else:
            records.append(record)
        last = number
    return records, bad, bool(bad) and bad[-1] == last


def _seal(path):
    """End ``path`` on a whole line, reading only its tail."""
    with open(path, "r+b") as handle:
        start = end = handle.seek(0, os.SEEK_END)
        tail = b""
        while start > 0 and b"\n" not in tail:
            step = min(start, 4096)
            start -= step
            handle.seek(start)
            tail = handle.read(step) + tail
        cut = tail.rfind(b"\n") + 1
        if cut == len(tail):
            return
        if _record(tail[cut:]) is None:
            handle.truncate(start + cut)
        else:
            handle.seek(end)
            handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())


class AppendLog:
    """A JSON-lines file that grows one record at a time.

    :meth:`append` writes and flushes one line and, with ``fsync`` (the
    default), fsyncs it before returning.  The file opens, tail sealed,
    on :meth:`open` or the first append, and again after :meth:`close`.
    """

    def __init__(self, path, fsync=True):
        self.path = str(path)
        self.fsync = fsync
        self._handle = None

    def open(self):
        if self._handle is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            if os.path.isfile(self.path):
                _seal(self.path)
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record):
        handle = self.open()
        handle.write(line(record).encode())
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
