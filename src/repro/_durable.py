"""Crash-safe file updates shared by every on-disk store.

Safe against a process crash, not a power loss (no ``fsync``).  Each
store keeps its own serialisation; this module only moves bytes.  The
"Durable stores" section of ``docs/architecture.md`` lists the users.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a same-directory temp file: a
    crash leaves the old file (plus a stale ``.tmp.<pid>``), never a
    torn one."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def append_line(path: str, line: bytes) -> None:
    """Append ``line`` with one ``write`` on an ``O_APPEND`` descriptor,
    so concurrent appenders interleave whole lines.  A torn last line
    left by a crashed appender is ended with ``\\n`` first, so it cannot
    swallow ``line``; an intact file gets no extra byte."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        os.write(fd, line)
    finally:
        os.close(fd)


def read_json_object(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object at ``path``; ``None`` when the file is missing,
    unreadable, not JSON, or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None
