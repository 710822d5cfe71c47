"""The event taxonomy: one frozen dataclass per observable occurrence.

Events are immutable values ordered only by publication: the bus never
reorders, so a recorded stream is exactly the simulation's causal order.
Field values are restricted to JSON-representable types (numbers, strings,
bools, ``None``, and string-keyed dicts of numbers) so every event can be
exported to a JSONL trace and reloaded without loss —
:func:`event_to_dict` / :func:`event_from_dict` are exact inverses.

Layer map:

=============  ======================================================
kernel/net     :class:`CwndRestarted`
transport      :class:`PacketSent`, :class:`PathSampled`,
               :class:`TransferStarted`,
               :class:`TransferCompleted`, :class:`SubflowStateChange`,
               :class:`SubflowReconnected`, :class:`PathStateRequested`
MP-DASH core   :class:`DeadlineArmed`, :class:`DeadlineDisarmed`,
               :class:`DeadlineExtended`, :class:`SchedulerActivated`,
               :class:`DeadlineMissed`
HTTP           :class:`HttpRequestSent`, :class:`HttpResponseReceived`
DASH player    :class:`ChunkRequested`, :class:`MpDashArmed`,
               :class:`MpDashSkipped`, :class:`ChunkDownloaded`,
               :class:`QualitySwitched`, :class:`PlaybackStarted`,
               :class:`StallStart`, :class:`StallEnd`,
               :class:`PlaybackEnded`, :class:`SessionClosed`
energy         :class:`RadioStateChange`
=============  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base of every bus event: a simulated-clock timestamp."""

    time: float


# ----------------------------------------------------------------------
# Transport layer (repro.mptcp, repro.net)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PacketSent(TraceEvent):
    """``num_bytes`` delivered on ``path`` during one activity bin.

    The fluid transport model has no literal packets; its finest delivery
    record is the activity bin (see
    :class:`~repro.mptcp.activity.ActivityLog`), so the connection
    aggregates each path's per-tick deliveries and publishes one event per
    (path, bin) — per-tick events would be pure bus overhead that every
    subscriber immediately re-bins.  ``time`` is the bin's first delivery
    instant (strictly increasing per path).  An event is published when
    the path's next delivery lands in a later bin, and any open bins are
    flushed by :meth:`~repro.mptcp.connection.MptcpConnection.close` — so
    the stream as a whole is *not* time-sorted, only per-path.  With no
    ``PacketSent`` subscriber on the bus the event is counted in
    ``published`` but never built (see
    :meth:`~repro.obs.bus.EventBus.observes`).
    """

    path: str
    num_bytes: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class PathSampled(TraceEvent):
    """Periodic read-only snapshot of one subflow's transport state.

    Published by the metrics :class:`~repro.obs.metrics.PathSampler` (not
    by the transport itself) so cwnd/RTT/throughput timeseries exist
    without a per-tick event flood.  Sampling never mutates the subflow,
    so attaching a sampler cannot perturb simulation physics.
    """

    path: str
    cwnd: float
    rtt: float
    throughput: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class TransferStarted(TraceEvent):
    """A transfer's first response byte is about to flow."""

    transfer: int
    tag: str
    size: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class TransferCompleted(TraceEvent):
    """The transfer's last byte arrived."""

    transfer: int
    tag: str
    size: float
    duration: float
    conn: int = 0


@dataclass(frozen=True, slots=True)
class PathStateRequested(TraceEvent):
    """Client-side enable/disable decision entered the signaling channel."""

    path: str
    enabled: bool
    conn: int = 0


@dataclass(frozen=True, slots=True)
class SubflowStateChange(TraceEvent):
    """Server-side *effective* path state flipped (post signaling delay)."""

    path: str
    enabled: bool
    conn: int = 0


@dataclass(frozen=True, slots=True)
class SubflowReconnected(TraceEvent):
    """A torn-down subflow finished its re-establishment handshake."""

    path: str
    count: int
    conn: int = 0


@dataclass(frozen=True, slots=True)
class CwndRestarted(TraceEvent):
    """RFC 2861 congestion-window validation collapsed the window."""

    path: str
    conn: int = 0


# ----------------------------------------------------------------------
# MP-DASH control plane (repro.core)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class DeadlineArmed(TraceEvent):
    """MP_DASH_ENABLE: the next ``size`` bytes carry a deadline window."""

    size: float
    window: float


@dataclass(frozen=True, slots=True)
class DeadlineDisarmed(TraceEvent):
    """MP_DASH_DISABLE: scheduler explicitly deactivated."""


@dataclass(frozen=True, slots=True)
class DeadlineExtended(TraceEvent):
    """The §5 deadline-extension relaxed a chunk's window above Φ."""

    base: float
    extended: float
    buffer_level: float


@dataclass(frozen=True, slots=True)
class SchedulerActivated(TraceEvent):
    """An armed deadline bound to a concrete transfer."""

    transfer: int
    size: float
    window: float


@dataclass(frozen=True, slots=True)
class DeadlineMissed(TraceEvent):
    """The deadline passed mid-transfer; every path re-enabled."""

    transfer: int


# ----------------------------------------------------------------------
# HTTP (repro.dash.http)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class HttpRequestSent(TraceEvent):
    url: str
    #: Client-scoped request id correlating request with response (spans
    #: join on it).  Defaults to 0 so pre-PR-3 traces still load.
    request: int = 0


@dataclass(frozen=True, slots=True)
class HttpResponseReceived(TraceEvent):
    url: str
    status: int
    content_length: int
    request: int = 0


# ----------------------------------------------------------------------
# DASH player (repro.dash)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ChunkRequested(TraceEvent):
    index: int
    level: int
    buffer_level: float


@dataclass(frozen=True, slots=True)
class MpDashArmed(TraceEvent):
    """The adapter armed the scheduler for this chunk."""

    index: int
    deadline: float


@dataclass(frozen=True, slots=True)
class MpDashSkipped(TraceEvent):
    """The adapter left MP-DASH off for this chunk (Ω guard / startup)."""

    index: int


@dataclass(frozen=True, slots=True)
class ChunkDownloaded(TraceEvent):
    """A chunk landed; carries everything the per-chunk record needs."""

    index: int
    level: int
    size: float
    duration: float
    requested_at: float
    throughput: float
    bytes_per_path: Mapping[str, float]
    deadline: Optional[float]
    buffer_at_request: float


@dataclass(frozen=True, slots=True)
class QualitySwitched(TraceEvent):
    from_level: int
    to_level: int


@dataclass(frozen=True, slots=True)
class PlaybackStarted(TraceEvent):
    """Startup threshold reached; the playout clock starts draining."""


@dataclass(frozen=True, slots=True)
class StallStart(TraceEvent):
    """Playback buffer ran dry mid-session."""


@dataclass(frozen=True, slots=True)
class StallEnd(TraceEvent):
    """Playback resumed after a rebuffering interval."""


@dataclass(frozen=True, slots=True)
class PlaybackEnded(TraceEvent):
    """The last chunk played out."""


@dataclass(frozen=True, slots=True)
class SessionClosed(TraceEvent):
    """Terminal event: the session's simulation stopped at this time."""


# ----------------------------------------------------------------------
# Experiment sweeps (repro.experiments.sweep)
# ----------------------------------------------------------------------
# Sweep events describe the *harness*, not a simulation: ``time`` is
# wall-clock seconds since the sweep started, and ``key`` the run's
# deterministic config hash (see :func:`repro.experiments.sweep.config_key`).
@dataclass(frozen=True, slots=True)
class SweepStarted(TraceEvent):
    """A sweep of ``total`` configs began on ``jobs`` workers."""

    total: int
    jobs: int


@dataclass(frozen=True, slots=True)
class SweepRunStarted(TraceEvent):
    """One run (or retry ``attempt`` of it) was handed to a worker."""

    key: str
    index: int
    attempt: int


@dataclass(frozen=True, slots=True)
class SweepRunFinished(TraceEvent):
    """One run produced a summary, freshly (``elapsed`` seconds of worker
    time) or straight from the on-disk cache."""

    key: str
    index: int
    elapsed: float
    cached: bool


@dataclass(frozen=True, slots=True)
class SweepRunSummarized(TraceEvent):
    """Headline QoE figures of one finished session run, published right
    after its :class:`SweepRunFinished` so live consumers (the terminal
    dashboard) can show rolling aggregates without touching the result
    objects.  Only published for full session runs — download-only
    summaries carry no QoE."""

    key: str
    index: int
    finished: bool
    mean_bitrate: float
    stall_count: int
    cellular_bytes: float
    radio_energy: float
    violations: int


@dataclass(frozen=True, slots=True)
class SweepRunFailed(TraceEvent):
    """One run exhausted its retries; ``kind`` is ``error`` or ``timeout``."""

    key: str
    index: int
    kind: str
    error: str
    attempts: int


@dataclass(frozen=True, slots=True)
class SweepCompleted(TraceEvent):
    """The sweep drained; every config is accounted for."""

    total: int
    succeeded: int
    failed: int
    cache_hits: int


# ----------------------------------------------------------------------
# Fleet campaigns (repro.experiments.fleet)
# ----------------------------------------------------------------------
# Fleet events, like sweep events, describe the harness: ``time`` is
# wall-clock seconds since the campaign (re)started.
@dataclass(frozen=True, slots=True)
class FleetStarted(TraceEvent):
    """A fleet campaign of ``sessions`` sessions in ``shards`` shards
    began on ``jobs`` workers."""

    sessions: int
    shards: int
    jobs: int


@dataclass(frozen=True, slots=True)
class FleetShardCompleted(TraceEvent):
    """One shard's folded registry was merged into the population."""

    shard: int
    sessions: int
    failures: int
    elapsed: float


@dataclass(frozen=True, slots=True)
class FleetCheckpointSaved(TraceEvent):
    """The population state through ``shards_done`` shards was atomically
    written to ``path``."""

    shards_done: int
    path: str


@dataclass(frozen=True, slots=True)
class FleetCompleted(TraceEvent):
    """The campaign drained (or hit its ``stop_after`` bound)."""

    sessions: int
    failures: int
    shards: int


@dataclass(frozen=True, slots=True)
class FleetWorkerHeartbeat(TraceEvent):
    """One worker's health snapshot, shipped with each shard result.

    Workers cannot publish onto the parent's bus, so their telemetry
    rides the existing result channel — the shard payload — and the
    parent re-publishes it here at commit time.  ``worker`` is the
    worker process id; ``peak_rss_kb`` is that process's high-water mark
    (0 where ``resource`` is unavailable); ``captured`` counts traces
    the flight recorder kept in this shard."""

    worker: int
    shard: int
    sessions: int
    failures: int
    sim_seconds: float
    elapsed: float
    peak_rss_kb: int
    last_index: int
    captured: int


@dataclass(frozen=True, slots=True)
class FleetSessionCaptured(TraceEvent):
    """The flight recorder kept one session's full trace.

    ``artifact`` is the path relative to the recorder's artifact root
    (empty for trace-less failure records); ``score`` is the reason-
    specific badness used by triage ranking."""

    session: int
    shard: int
    reason: str
    score: float
    artifact: str


# ----------------------------------------------------------------------
# Energy (repro.energy)
# ----------------------------------------------------------------------
#: Radio power states for :class:`RadioStateChange`.
RADIO_ACTIVE = "active"
RADIO_TAIL = "tail"
RADIO_IDLE = "idle"


@dataclass(frozen=True, slots=True)
class RadioStateChange(TraceEvent):
    """One interface's radio moved between idle/active/tail."""

    path: str
    state: str


#: Name → class registry used by the JSONL loader.
EVENT_TYPES: Dict[str, type] = {
    cls.__name__: cls for cls in (
        PacketSent, PathSampled, TransferStarted, TransferCompleted,
        PathStateRequested,
        SubflowStateChange, SubflowReconnected, CwndRestarted, DeadlineArmed,
        DeadlineDisarmed, DeadlineExtended, SchedulerActivated,
        DeadlineMissed, HttpRequestSent, HttpResponseReceived,
        ChunkRequested, MpDashArmed, MpDashSkipped, ChunkDownloaded,
        QualitySwitched, PlaybackStarted, StallStart, StallEnd,
        PlaybackEnded, SessionClosed, RadioStateChange, SweepStarted,
        SweepRunStarted, SweepRunFinished, SweepRunSummarized,
        SweepRunFailed, SweepCompleted, FleetStarted, FleetShardCompleted,
        FleetCheckpointSaved, FleetCompleted, FleetWorkerHeartbeat,
        FleetSessionCaptured,
    )
}


#: Field names per event class, in declaration order (filled on first use).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}
#: Field value types that are never a ``Mapping``: they skip the ABC check.
_SCALARS = frozenset((int, float, str, bool, type(None)))


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """Flat JSON-ready dict with a ``type`` discriminator."""
    cls = type(event)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(spec.name for spec in fields(cls))
    record: Dict[str, Any] = {"type": cls.__name__}
    for name in names:
        value = getattr(event, name)
        if type(value) not in _SCALARS and isinstance(value, Mapping):
            value = dict(value)
        record[name] = value
    return record


def event_from_dict(record: Mapping[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`."""
    payload = dict(record)
    name = payload.pop("type", None)
    cls = EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown trace event type {name!r}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ValueError(f"malformed {name} record: {exc}") from None


def fast_ctor(cls: type) -> Any:
    """Positional-only constructor for a frozen slots event class.

    Frozen dataclasses route every ``__init__`` field assignment through
    ``object.__setattr__``, roughly tripling construction cost.  That is
    irrelevant everywhere except the per-path-per-bin transport events
    (thousands per simulated session), where it dominates the bus's
    overhead.  Assigning through the slot descriptors directly skips the
    frozen guard during construction only — instances are as immutable as
    ones built normally.  All fields are required, in declaration order.
    """
    names = [spec.name for spec in fields(cls)]
    namespace: Dict[str, Any] = {
        f"_set_{name}": getattr(cls, name).__set__ for name in names}
    namespace["_new"] = cls.__new__
    namespace["_cls"] = cls
    body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
    source = (f"def ctor({', '.join(names)}):\n"
              f"    self = _new(_cls)\n{body}    return self\n")
    exec(source, namespace)
    return namespace["ctor"]


#: Fast constructor for the hottest event on the bus (one per path per
#: activity bin while a transfer is active).
new_packet_sent = fast_ctor(PacketSent)
