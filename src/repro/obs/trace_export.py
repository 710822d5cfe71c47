"""JSONL trace export, loading, and offline replay.

The paper's §6 analysis tool consumes a packet trace plus a player event
log captured on a device.  This module is the reproduction's equivalent
capture format: every bus event serialized as one JSON object per line,
preceded by a metadata header.  A dumped trace round-trips exactly —
floats survive via ``repr`` — so replaying it through a fresh bus rebuilds
byte-identical :class:`~repro.mptcp.activity.ActivityLog` /
:class:`~repro.dash.events.PlayerEventLog` views and therefore identical
:class:`~repro.analysis.metrics.SessionMetrics`, enabling offline analysis
and cross-run diffing without re-simulating.

Determinism: events are written in publication order with sorted JSON
keys and compact separators, so two runs of the same seed configuration
produce byte-identical files.  Paths ending in ``.gz`` are transparently
gzip-compressed on write and decompressed on read; the gzip header is
pinned (``mtime=0``, no filename) so compressed traces are just as
byte-stable as plain ones — the property the fleet flight recorder's
re-run-captures-identical-artifacts contract rests on.
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable, List, Union

from .bus import EventBus
from .events import TraceEvent, event_from_dict, event_to_dict

#: Current trace format version.
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceMeta:
    """Header line: everything a consumer needs to interpret the stream."""

    session_duration: float
    activity_bin: float = 0.1
    steady_state_fraction: float = 0.0
    device: str = "galaxy_note"
    version: int = TRACE_VERSION


@dataclass
class Trace:
    """A loaded trace: header plus the event stream in causal order."""

    meta: TraceMeta
    events: List[TraceEvent] = field(default_factory=list)

    def count_by_type(self) -> dict:
        counts: dict = {}
        for event in self.events:
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts


class TraceRecorder:
    """Wildcard subscriber that accumulates the full event stream."""

    def __init__(self, bus: EventBus):
        self.events: List[TraceEvent] = []
        bus.subscribe_all(self.events.append)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
#: The canonical line encoder (what ``json.dumps(record, sort_keys=True,
#: separators=(",", ":"))`` builds per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_line(record: dict) -> str:
    return _ENCODER.encode(record)


def dumps_jsonl(events: Iterable[TraceEvent], meta: TraceMeta) -> str:
    """Serialize a trace to its canonical (byte-stable) JSONL text."""
    lines = [_dump_line({"meta": asdict(meta)})]
    lines.extend(_dump_line(event_to_dict(event)) for event in events)
    return "\n".join(lines) + "\n"


def _is_gzip_path(path: object) -> bool:
    return str(path).endswith(".gz")


def gzip_bytes(data: bytes) -> bytes:
    """Deterministic gzip: fixed compression level, ``mtime=0``, no
    embedded filename, so equal inputs compress to equal bytes."""
    buffer = io.BytesIO()
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
        handle.write(data)
    return buffer.getvalue()


def dump_jsonl(path_or_file: Union[str, IO[str]],
               events: Iterable[TraceEvent], meta: TraceMeta) -> None:
    """Write a JSONL trace to ``path_or_file`` (gzipped for ``.gz``)."""
    text = dumps_jsonl(events, meta)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    elif _is_gzip_path(path_or_file):
        with open(path_or_file, "wb") as handle:
            handle.write(gzip_bytes(text.encode("utf-8")))
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)


def loads_jsonl(text: str) -> Trace:
    """Parse the canonical JSONL text back into a :class:`Trace`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace")
    header = json.loads(lines[0])
    if "meta" not in header:
        raise ValueError("trace missing meta header line")
    meta_fields = dict(header["meta"])
    version = meta_fields.get("version", TRACE_VERSION)
    if version != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r} "
                         f"(expected {TRACE_VERSION})")
    meta = TraceMeta(**meta_fields)
    events = [event_from_dict(json.loads(line)) for line in lines[1:]]
    return Trace(meta=meta, events=events)


def load_jsonl(path_or_file: Union[str, IO[str]]) -> Trace:
    """Read a JSONL trace from ``path_or_file`` (gunzipped for ``.gz``)."""
    if hasattr(path_or_file, "read"):
        return loads_jsonl(path_or_file.read())
    if _is_gzip_path(path_or_file):
        try:
            with gzip.open(path_or_file, "rt", encoding="utf-8") as handle:
                return loads_jsonl(handle.read())
        except EOFError as exc:  # unreadable content is a ValueError
            raise ValueError(f"truncated gzip trace: {exc}") from exc
    with open(path_or_file, "r", encoding="utf-8") as handle:
        return loads_jsonl(handle.read())


# ----------------------------------------------------------------------
# Offline replay
# ----------------------------------------------------------------------
def replay(events: Iterable[TraceEvent], bus: EventBus) -> None:
    """Publish a recorded stream onto ``bus`` in its original order."""
    for event in events:
        bus.publish(event)


def analyzer_from_trace(trace: Trace, device=None):
    """Rebuild the §6 analysis tool from a trace, without a simulator.

    Replays the stream into fresh bus-subscribed ``ActivityLog`` /
    ``PlayerEventLog`` views and wraps them in a
    :class:`~repro.analysis.analyzer.MultipathVideoAnalyzer` — the offline
    half of the paper's capture-then-analyze workflow.
    """
    from ..analysis.analyzer import MultipathVideoAnalyzer
    from ..dash.events import PlayerEventLog
    from ..energy.devices import DEVICES
    from ..mptcp.activity import ActivityLog

    if device is None:
        device = DEVICES[trace.meta.device]
    bus = EventBus()
    activity = ActivityLog(trace.meta.activity_bin)
    activity.attach(bus)
    log = PlayerEventLog()
    log.attach(bus)
    replay(trace.events, bus)
    return MultipathVideoAnalyzer(activity, log,
                                  trace.meta.session_duration, device)


def metrics_from_trace(trace: Trace, device=None):
    """Offline :class:`~repro.analysis.metrics.SessionMetrics` — identical
    to the live run's when the trace came from ``SessionResult``."""
    analyzer = analyzer_from_trace(trace, device)
    return analyzer.metrics(trace.meta.steady_state_fraction)
