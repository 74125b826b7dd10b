"""Crash-safe file persistence: write-temp-then-rename, line appends.

Every artifact the repo persists -- ``--json`` result documents,
``BENCH_1.json`` trajectories, sweep journal entries, checkpoint files
-- goes through the two atomic-replace helpers.  The temp file lives in
the target's directory (``os.replace`` must not cross filesystems) and
is fsynced before the rename, so a reader never observes a truncated or
corrupt artifact: either the old content or the complete new one.

Append-only logs (the run event log, the serve daemon's stream frames)
go through :class:`JsonlAppender` and :func:`read_jsonl`: one compact
JSON line per ``os.write`` on an ``O_APPEND`` descriptor, which the
kernel appends indivisibly -- concurrent writers never interleave
within a line, and a crashed writer tears at most the final line, which
the reader drops.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, List, Optional, TypeVar

_T = TypeVar("_T")


def write_text_atomic(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: str, payload: Any, indent: int = 2) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON
    (trailing newline included, matching the repo's artifact style)."""
    write_text_atomic(path, json.dumps(payload, indent=indent) + "\n")


def read_json(path: str) -> Any:
    """Load one JSON artifact (no error wrapping: callers decide what a
    missing/corrupt file means -- the journal treats it as absent)."""
    with open(path) as fh:
        return json.load(fh)


class JsonlAppender:
    """Append-only JSONL writer: one compact JSON line per document.

    ``truncate`` empties the file at open -- for a log one writer owns
    and restarts (a retried serve worker's frames); without it, several
    processes may share the file (the sweep pool's event log).
    """

    def __init__(self, path: str, truncate: bool = False) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if truncate:
            flags |= os.O_TRUNC
        self._fd: Optional[int] = os.open(self.path, flags, 0o644)

    def append(self, doc: Any) -> None:
        """Write ``doc`` as one line with a single ``os.write``."""
        if self._fd is None:
            raise ValueError(f"{self.path}: appender is closed")
        line = json.dumps(doc, separators=(",", ":")) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def read_jsonl(path: str, parse: Callable[[Any], _T], strict: bool,
               label: str) -> List[_T]:
    """Parse every line of an append-only JSONL file with ``parse``.

    ``parse`` raises :class:`ValueError` for a document it rejects.  A
    torn *final* line (the writer died mid-append) is silently dropped;
    a bad line anywhere else -- which line-atomic appends make
    impossible -- raises ``<path>:<line>: invalid <label> line``, as
    does every bad line under ``strict``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    out: List[_T] = []
    for i, line in enumerate(lines):
        try:
            out.append(parse(json.loads(line)))
        except ValueError:
            if not strict and i == len(lines) - 1:
                break
            raise ValueError(
                f"{path}:{i + 1}: invalid {label} line") from None
    return out
