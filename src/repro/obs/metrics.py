"""Streaming metrics derived from the bus: counters, gauges, histograms.

The paper's §7 evaluation is built on distributions — deadline slack,
per-path throughput, stall durations, radio-state residency — not on
single numbers.  This module computes them *online*, as bus subscribers,
with three properties the downstream tooling needs:

* **Mergeable.**  Every primitive supports ``merge``; a sweep can combine
  the histograms of a hundred runs into one distribution per grid axis.
* **Picklable / JSON-able.**  Primitives are plain attributes and
  round-trip through ``to_dict`` / ``from_dict``, so they cross the sweep
  engine's process boundary and live in its on-disk cache.
* **Offline-reconstructible.**  :class:`SessionMetricsCollector` consumes
  only bus events, so replaying a PR-1 JSONL trace through a fresh
  collector (:func:`collector_from_trace`) reproduces the live registry
  exactly — the determinism tests pin this.

The registry renders either as a Prometheus-style text exposition
(:meth:`MetricsRegistry.render_prometheus`) or as one JSON document
(:meth:`MetricsRegistry.to_dict`).
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from .bus import EventBus
from .events import (ChunkDownloaded, ChunkRequested, CwndRestarted,
                     DeadlineArmed, DeadlineDisarmed, DeadlineExtended,
                     DeadlineMissed, HttpRequestSent, HttpResponseReceived,
                     MpDashArmed, MpDashSkipped, PacketSent, PathSampled,
                     PathStateRequested, QualitySwitched, RadioStateChange,
                     SchedulerActivated, SessionClosed, StallEnd, StallStart,
                     SubflowStateChange, TransferCompleted, TransferStarted,
                     fast_ctor)

def peak_rss_kb() -> Optional[int]:
    """This process's peak RSS in KiB (None where ``resource`` is
    unavailable); ``ru_maxrss`` is KiB on Linux, bytes on macOS."""
    if resource is None:  # pragma: no cover
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


#: Label sets are small (path/state names), so labels are stored as sorted
#: tuples of (key, value) pairs — hashable registry keys with a canonical
#: rendering order.
Labels = Tuple[Tuple[str, str], ...]


def _labels(labels: Optional[Mapping[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double quote, and line feed (in that order, so an escape
    is never re-escaped)."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(labels: Labels, extra: Optional[Tuple[str, str]] = None
                   ) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"'
                    for key, value in pairs)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = _labels(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount!r}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Counter":
        counter = cls(payload["name"], payload.get("labels") or None)
        counter.value = payload["value"]
        return counter

    def __repr__(self) -> str:
        return f"<Counter {self.name}{_render_labels(self.labels)}={self.value}>"


class Gauge:
    """A value that can move both ways (buffer level, residency seconds)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = _labels(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def merge(self, other: "Gauge") -> None:
        # Residency-style gauges are additive across runs; last-value
        # gauges rarely merge, and additive is the useful default.
        self.value += other.value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Gauge":
        gauge = cls(payload["name"], payload.get("labels") or None)
        gauge.value = payload["value"]
        return gauge

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{_render_labels(self.labels)}={self.value}>"


def exponential_buckets(start: float, factor: float, count: int
                        ) -> List[float]:
    """Log-spaced upper bounds: ``start * factor**i`` for i in [0, count)."""
    if start <= 0:
        raise ValueError(f"start must be positive: {start!r}")
    if factor <= 1:
        raise ValueError(f"factor must exceed 1: {factor!r}")
    if count < 1:
        raise ValueError(f"count must be positive: {count!r}")
    return [start * factor ** i for i in range(count)]


def linear_buckets(start: float, width: float, count: int) -> List[float]:
    """Fixed-width upper bounds: ``start + width*i`` for i in [0, count)."""
    if width <= 0:
        raise ValueError(f"width must be positive: {width!r}")
    if count < 1:
        raise ValueError(f"count must be positive: {count!r}")
    return [start + width * i for i in range(count)]


class Histogram:
    """A streaming histogram over fixed bucket bounds.

    ``bounds`` are finite upper edges in increasing order; an implicit
    +inf bucket catches overflow.  Construction cost is paid once; each
    ``observe`` is a binary search plus three adds.  Use
    :func:`linear_buckets` for fixed-width bounds and
    :func:`exponential_buckets` for log-spaced ones (latency-style data
    spanning decades).
    """

    kind = "histogram"

    def __init__(self, name: str, bounds: List[float],
                 labels: Optional[Mapping[str, str]] = None):
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        ordered = list(bounds)
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ValueError(f"bounds must strictly increase: {bounds!r}")
        if any(math.isinf(b) or math.isnan(b) for b in ordered):
            raise ValueError(f"bounds must be finite: {bounds!r}")
        self.name = name
        self.labels = _labels(labels)
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)  # +1 = the +inf bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Approximate q-quantile by linear interpolation within a bucket.

        The overflow bucket reports the observed maximum; an underflowing
        first bucket interpolates from the observed minimum.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"q must be in [0, 1]: {q!r}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if index >= len(self.bounds):
                    return self.max
                upper = self.bounds[index]
                lower = (self.bounds[index - 1] if index > 0
                         else min(self.min, upper))
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> None:
        # Name both layouts: "which two runs disagree and how" is the
        # whole diagnosis when a sweep folds mismatched histograms.
        if list(other.bounds) != list(self.bounds):
            raise ValueError(
                f"cannot merge histograms with mismatched bucket "
                f"layouts: {self.name} has bounds {list(self.bounds)} "
                f"but {other.name} has bounds {list(other.bounds)}")
        if len(other.counts) != len(self.counts):
            raise ValueError(
                f"cannot merge histograms with mismatched bucket "
                f"layouts: {self.name} has {len(self.counts)} buckets "
                f"but {other.name} has {len(other.counts)}")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        for value in (other.min, other.max):
            if value is None:
                continue
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "bounds": list(self.bounds),
                "counts": list(self.counts), "count": self.count,
                "sum": self.sum, "min": self.min, "max": self.max}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Histogram":
        histogram = cls(payload["name"], list(payload["bounds"]),
                        payload.get("labels") or None)
        counts = list(payload["counts"])
        if len(counts) != len(histogram.bounds) + 1:
            raise ValueError(
                f"histogram {histogram.name!r} payload is inconsistent: "
                f"{len(histogram.bounds)} bounds need "
                f"{len(histogram.bounds) + 1} buckets, got {len(counts)}")
        histogram.counts = counts
        histogram.count = payload["count"]
        histogram.sum = payload["sum"]
        histogram.min = payload["min"]
        histogram.max = payload["max"]
        return histogram

    def __repr__(self) -> str:
        return (f"<Histogram {self.name}{_render_labels(self.labels)} "
                f"n={self.count} mean={self.mean}>")


class Timeseries:
    """An append-only (time, value) series (per-path throughput, cwnd, …)."""

    kind = "timeseries"

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = _labels(labels)
        self.samples: List[Tuple[float, float]] = []

    def sample(self, time: float, value: float) -> None:
        self.samples.append((time, value))

    def merge(self, other: "Timeseries") -> None:
        self.samples = sorted(self.samples + other.samples)

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels),
                "samples": [list(s) for s in self.samples]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Timeseries":
        series = cls(payload["name"], payload.get("labels") or None)
        series.samples = [(float(t), float(v))
                          for t, v in payload["samples"]]
        return series

    def __repr__(self) -> str:
        return (f"<Timeseries {self.name}{_render_labels(self.labels)} "
                f"n={len(self.samples)}>")


#: ``kind`` discriminator -> metric class, for :func:`metric_from_dict`.
_METRIC_KINDS = {"counter": Counter, "gauge": Gauge,
                 "histogram": Histogram, "timeseries": Timeseries}


def metric_from_dict(payload: Mapping[str, Any]) -> Any:
    """Revive any serialized metric via its ``kind`` discriminator."""
    kind = payload.get("kind")
    cls = _METRIC_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown metric kind {kind!r}")
    return cls.from_dict(payload)


class MetricsRegistry:
    """A named collection of metrics with a canonical exposition order.

    Metrics are keyed by ``(name, labels)``; accessors create on first
    use, so subscriber code stays one line per event.  The registry is
    picklable as long as its metrics are (they are — plain attributes).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], Any] = {}

    # -- accessors ----------------------------------------------------
    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: List[float],
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, bounds, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name} is a {metric.kind}, not a histogram")
        return metric

    def timeseries(self, name: str,
                   labels: Optional[Mapping[str, str]] = None) -> Timeseries:
        return self._get(Timeseries, name, labels)

    def _get(self, cls: type, name: str,
             labels: Optional[Mapping[str, str]]) -> Any:
        key = (name, _labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"{name} is a {metric.kind}, not a {cls.kind}")
        return metric

    # -- views --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._ordered())

    def _ordered(self) -> List[Any]:
        return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None
            ) -> Optional[Any]:
        return self._metrics.get((name, _labels(labels)))

    def histograms(self) -> List[Histogram]:
        return [m for m in self._ordered() if isinstance(m, Histogram)]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (sweep aggregation)."""
        for key, metric in sorted(other._metrics.items()):
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Histogram):
                    mine = Histogram(metric.name, metric.bounds,
                                     dict(metric.labels))
                else:
                    mine = type(metric)(metric.name, dict(metric.labels))
                self._metrics[key] = mine
            mine.merge(metric)

    # -- exposition ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """One JSON document: every metric in canonical order."""
        return {"metrics": [metric.to_dict() for metric in self._ordered()]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict` — the fleet checkpoint/shard path.

        ``registry.to_dict() -> from_dict -> to_dict`` is an exact
        round-trip, so merged registries stay byte-identical across
        process and checkpoint boundaries.
        """
        registry = cls()
        for record in payload.get("metrics", []):
            metric = metric_from_dict(record)
            registry._metrics[(metric.name, metric.labels)] = metric
        return registry

    def histograms_to_dict(self) -> List[Dict[str, Any]]:
        """Just the histograms — what a sweep summary carries."""
        return [h.to_dict() for h in self.histograms()]

    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4 style).

        Histograms render cumulative ``_bucket{le=...}`` series plus
        ``_sum`` / ``_count``; timeseries expose their last value as a
        gauge (the full series is JSON-only).
        """
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for metric in self._ordered():
            prom_kind = ("gauge" if isinstance(metric, Timeseries)
                         else metric.kind)
            if seen_types.get(metric.name) != prom_kind:
                lines.append(f"# TYPE {metric.name} {prom_kind}")
                seen_types[metric.name] = prom_kind
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    label = _render_labels(metric.labels, ("le", f"{bound:g}"))
                    lines.append(
                        f"{metric.name}_bucket{label} {cumulative}")
                label = _render_labels(metric.labels, ("le", "+Inf"))
                lines.append(f"{metric.name}_bucket{label} {metric.count}")
                base = _render_labels(metric.labels)
                lines.append(f"{metric.name}_sum{base} {metric.sum:g}")
                lines.append(f"{metric.name}_count{base} {metric.count}")
            elif isinstance(metric, Timeseries):
                if metric.last is not None:
                    label = _render_labels(metric.labels)
                    lines.append(f"{metric.name}{label} {metric.last:g}")
            else:
                label = _render_labels(metric.labels)
                lines.append(f"{metric.name}{label} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return f"<MetricsRegistry metrics={len(self._metrics)}>"


# ----------------------------------------------------------------------
# Standard bucket layouts for the session registry
# ----------------------------------------------------------------------
#: Deadline slack straddles zero (negative = missed), so fixed-width
#: 0.5 s buckets over [-8 s, +24 s].
SLACK_BOUNDS = linear_buckets(-8.0, 0.5, 65)
#: Download / stall durations span decades: log buckets 50 ms … ~105 s.
DURATION_BOUNDS = exponential_buckets(0.05, 1.6, 17)
#: Chunk sizes, log buckets 50 kB … ~6.7 MB.
SIZE_BOUNDS = exponential_buckets(5e4, 1.5, 13)


class SessionMetricsCollector:
    """The standard registry of derived series, fed from bus events.

    Attach to a live session bus (or replay a JSONL trace through one) and
    read ``registry`` afterwards.  Everything is computed from events
    alone, so live and offline registries are identical for the same
    stream.  ``activity_bin`` and ``device`` mirror the trace metadata —
    they feed the radio-state residency computation, which replays the
    session's binned activity through the energy model's state machine at
    :class:`~repro.obs.events.SessionClosed` time.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 activity_bin: float = 0.1, device: str = "galaxy_note"):
        self.registry = MetricsRegistry()
        self.activity_bin = activity_bin
        self.device = device
        self._bin_width = activity_bin
        # path -> {bin_index: bytes}; the residency replay input.
        self._activity: Dict[str, Dict[int, float]] = {}
        # Per-path metric-object caches for the hot handlers: registry
        # lookups build and sort a labels tuple per call, which at one
        # PacketSent per path per bin is the collector's dominant cost.
        self._packet_state: Dict[str, Tuple[Counter, Timeseries,
                                            Dict[int, float]]] = {}
        self._sample_state: Dict[str, Tuple[Timeseries, Timeseries,
                                            Timeseries]] = {}
        # Cache for labeled counters keyed by their event field values
        # (same rationale: skip label construction on repeat events).
        self._counters: Dict[Tuple[Any, ...], Counter] = {}
        # transfer id -> absolute deadline (armed via SchedulerActivated).
        self._deadlines: Dict[int, float] = {}
        # transfer id -> start time (for duration cross-checks).
        self._transfers: Dict[int, float] = {}
        self._open_stall: Optional[float] = None
        self._radio_state: Dict[str, Tuple[str, float]] = {}
        self._closed = False
        if bus is not None:
            self.attach(bus)

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "SessionMetricsCollector":
        """Subscribe every handler; returns self for chaining."""
        sub = bus.subscribe
        sub(PacketSent, self._on_packet)
        sub(PathSampled, self._on_path_sampled)
        sub(TransferStarted, self._on_transfer_started)
        sub(TransferCompleted, self._on_transfer_completed)
        sub(SchedulerActivated, self._on_scheduler_activated)
        sub(DeadlineMissed, self._on_deadline_missed)
        sub(DeadlineArmed, lambda e: self._count("repro_deadline_armed_total"))
        sub(DeadlineDisarmed,
            lambda e: self._count("repro_deadline_disarmed_total"))
        sub(DeadlineExtended, self._on_deadline_extended)
        sub(ChunkRequested, self._on_chunk_requested)
        sub(ChunkDownloaded, self._on_chunk_downloaded)
        sub(QualitySwitched,
            lambda e: self._count("repro_quality_switches_total"))
        sub(StallStart, self._on_stall_start)
        sub(StallEnd, self._on_stall_end)
        sub(CwndRestarted, lambda e: self._count(
            "repro_cwnd_restarts_total", {"path": e.path}))
        sub(SubflowStateChange, self._on_subflow_state)
        sub(PathStateRequested, self._on_path_state_requested)
        sub(MpDashArmed, lambda e: self._count("repro_mpdash_armed_total"))
        sub(MpDashSkipped,
            lambda e: self._count("repro_mpdash_skipped_total"))
        sub(HttpRequestSent,
            lambda e: self._count("repro_http_requests_total"))
        sub(HttpResponseReceived, self._on_http_response)
        sub(RadioStateChange, self._on_radio_state)
        sub(SessionClosed, self._on_session_closed)
        return self

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _count(self, name: str,
               labels: Optional[Mapping[str, str]] = None) -> None:
        self.registry.counter(name, labels).inc()

    def _cached_counter(self, key: Tuple[Any, ...], name: str,
                        labels: Mapping[str, str]) -> Counter:
        counter = self._counters.get(key)
        if counter is None:
            counter = self.registry.counter(name, labels)
            self._counters[key] = counter
        return counter

    def _on_packet(self, event: PacketSent) -> None:
        state = self._packet_state.get(event.path)
        if state is None:
            labels = {"path": event.path}
            state = (
                self.registry.counter("repro_path_bytes_total", labels),
                self.registry.timeseries(
                    "repro_path_throughput_bytes_per_second", labels),
                self._activity.setdefault(event.path, {}))
            self._packet_state[event.path] = state
        total, throughput, bins = state
        total.inc(event.num_bytes)
        throughput.samples.append(
            (event.time, event.num_bytes / self._bin_width))
        index = int(event.time / self._bin_width)
        bins[index] = bins.get(index, 0.0) + event.num_bytes

    def _on_path_sampled(self, event: PathSampled) -> None:
        state = self._sample_state.get(event.path)
        if state is None:
            labels = {"path": event.path}
            state = (
                self.registry.timeseries("repro_path_cwnd_bytes", labels),
                self.registry.timeseries("repro_path_rtt_seconds", labels),
                self.registry.timeseries(
                    "repro_path_estimated_throughput_bytes_per_second",
                    labels))
            self._sample_state[event.path] = state
        cwnd, rtt, throughput = state
        cwnd.samples.append((event.time, event.cwnd))
        rtt.samples.append((event.time, event.rtt))
        if event.throughput > 0:
            throughput.samples.append((event.time, event.throughput))

    def _on_transfer_started(self, event: TransferStarted) -> None:
        self._transfers[event.transfer] = event.time
        self._count("repro_transfers_total")

    def _on_transfer_completed(self, event: TransferCompleted) -> None:
        self._transfers.pop(event.transfer, None)
        deadline = self._deadlines.pop(event.transfer, None)
        if deadline is not None:
            self.registry.histogram("repro_deadline_slack_seconds",
                                    SLACK_BOUNDS).observe(
                                        deadline - event.time)

    def _on_scheduler_activated(self, event: SchedulerActivated) -> None:
        self._deadlines[event.transfer] = event.time + event.window
        self._count("repro_scheduler_activations_total")

    def _on_deadline_missed(self, event: DeadlineMissed) -> None:
        self._count("repro_deadline_misses_total")
        deadline = self._deadlines.pop(event.transfer, None)
        if deadline is not None:
            # The transfer is late by definition; record the (negative)
            # slack at miss time so the histogram still sees the chunk.
            self.registry.histogram("repro_deadline_slack_seconds",
                                    SLACK_BOUNDS).observe(
                                        deadline - event.time)

    def _on_deadline_extended(self, event: DeadlineExtended) -> None:
        self._count("repro_deadline_extensions_total")
        self.registry.histogram(
            "repro_deadline_extension_seconds", DURATION_BOUNDS).observe(
                max(event.extended - event.base, 0.0))

    def _on_chunk_requested(self, event: ChunkRequested) -> None:
        self._count("repro_chunks_requested_total")
        self.registry.timeseries("repro_buffer_level_seconds").sample(
            event.time, event.buffer_level)

    def _on_chunk_downloaded(self, event: ChunkDownloaded) -> None:
        self._count("repro_chunks_downloaded_total")
        self._cached_counter(
            ("level", event.level), "repro_chunk_level_total",
            {"level": str(event.level)}).inc()
        self.registry.histogram(
            "repro_chunk_download_seconds", DURATION_BOUNDS).observe(
                event.duration)
        self.registry.histogram("repro_chunk_size_bytes",
                                SIZE_BOUNDS).observe(event.size)

    def _on_stall_start(self, event: StallStart) -> None:
        self._count("repro_stalls_total")
        self._open_stall = event.time

    def _on_stall_end(self, event: StallEnd) -> None:
        if self._open_stall is not None:
            self.registry.histogram(
                "repro_stall_seconds", DURATION_BOUNDS).observe(
                    event.time - self._open_stall)
            self._open_stall = None

    def _on_subflow_state(self, event: SubflowStateChange) -> None:
        self._cached_counter(
            ("subflow", event.path, event.enabled),
            "repro_subflow_state_changes_total",
            {"path": event.path,
             "enabled": str(event.enabled).lower()}).inc()

    def _on_path_state_requested(self, event: PathStateRequested) -> None:
        self._cached_counter(
            ("path_state", event.path, event.enabled),
            "repro_path_state_requests_total",
            {"path": event.path,
             "enabled": str(event.enabled).lower()}).inc()

    def _on_http_response(self, event: HttpResponseReceived) -> None:
        self._cached_counter(
            ("http", event.status), "repro_http_responses_total",
            {"status": str(event.status)}).inc()

    def _on_radio_state(self, event: RadioStateChange) -> None:
        """Residency from explicitly published radio events (offline
        replays of energy-model streams); the live path derives the same
        numbers from the activity bins at session close."""
        previous = self._radio_state.get(event.path)
        if previous is not None:
            state, since = previous
            self.registry.gauge(
                "repro_radio_residency_seconds",
                {"path": event.path, "state": state}).add(event.time - since)
        self._radio_state[event.path] = (event.state, event.time)

    def _on_session_closed(self, event: SessionClosed) -> None:
        if self._closed:
            return
        self._closed = True
        if self._open_stall is not None:
            self._on_stall_end(StallEnd(event.time))
        for path, (state, since) in sorted(self._radio_state.items()):
            self.registry.gauge(
                "repro_radio_residency_seconds",
                {"path": path, "state": state}).add(event.time - since)
        self._radio_state.clear()
        self.registry.gauge("repro_session_duration_seconds").set(event.time)
        if not self._radio_events_seen():
            self._derive_radio_residency(event.time)

    def _radio_events_seen(self) -> bool:
        # Any residency gauge already present means explicit
        # RadioStateChange events were consumed; don't double-count.
        return any(m.name == "repro_radio_residency_seconds"
                   for m in self.registry)

    def _derive_radio_residency(self, session_end: float) -> None:
        """Replay the binned activity through the radio state machine."""
        if session_end <= 0 or not self._activity:
            return
        from ..energy.devices import DEVICES
        from ..energy.model import radio_state_events
        from ..mptcp.activity import ActivityLog

        device = DEVICES.get(self.device)
        if device is None:
            return
        # _activity already has ActivityLog's internal shape (path ->
        # {bin_index: bytes}); hand it over instead of replaying hundreds
        # of record() calls at session close.
        activity = ActivityLog(self._bin_width)
        activity._bins = {path: dict(bins)
                          for path, bins in self._activity.items()}
        from .events import RADIO_IDLE
        for path in activity.paths():
            events = radio_state_events(activity, path,
                                        device.for_interface(path),
                                        session_end)
            state, since = RADIO_IDLE, 0.0
            for change in events:
                self.registry.gauge(
                    "repro_radio_residency_seconds",
                    {"path": path, "state": state}).add(change.time - since)
                state, since = change.state, change.time
            self.registry.gauge(
                "repro_radio_residency_seconds",
                {"path": path, "state": state}).add(session_end - since)


#: Sampling at 1 Hz per subflow makes PathSampled warm enough to bypass
#: the frozen-dataclass construction path (see :func:`fast_ctor`).
_new_path_sampled = fast_ctor(PathSampled)


class PathSampler:
    """Publishes a 1 Hz :class:`~repro.obs.events.PathSampled` snapshot
    per subflow.

    No existing transport event carries cwnd or RTT (per-tick events were
    deliberately traded away for bin-aggregated ``PacketSent``), so the
    cwnd/RTT/throughput timeseries need a source.  The sampler only
    *reads* subflow state and publishes, so attaching it cannot change
    simulation physics; it does add events to a recorded trace, which is
    exactly what makes the offline registry equal the live one.
    """

    def __init__(self, sim, connection, interval: float = 1.0):
        self._sim = sim
        self._connection = connection
        self.process = sim.call_every(interval, self._sample)

    def _sample(self) -> None:
        sim = self._sim
        connection = self._connection
        # Deliberately reads without advancing the connection: under the
        # event-driven kernel the snapshot is the state as of the last
        # decision point (at most one quiescent span stale — exact
        # whenever a transfer is in flight).  Forcing an advance here
        # would split analytic spans at sampling instants and perturb the
        # simulation at float precision, breaking the attach-a-collector-
        # changes-nothing guarantee.
        bus = sim.bus
        now = sim.now
        for subflow in connection.subflows:
            tcp = subflow.tcp
            estimate = subflow.throughput_estimate()
            bus.publish(_new_path_sampled(
                now, subflow.name, tcp.cwnd, tcp.rtt,
                estimate if estimate is not None else 0.0, connection.id))

    def stop(self) -> None:
        self.process.stop()


def collector_from_trace(trace) -> SessionMetricsCollector:
    """Rebuild the session registry offline from a loaded JSONL trace.

    Identical to the live collector's registry for the same stream — the
    metrics half of the capture-then-analyze workflow.
    """
    from .trace_export import replay

    bus = EventBus()
    collector = SessionMetricsCollector(
        bus, activity_bin=trace.meta.activity_bin, device=trace.meta.device)
    replay(trace.events, bus)
    return collector


def registry_from_trace(trace) -> MetricsRegistry:
    """Shorthand: the offline registry itself."""
    return collector_from_trace(trace).registry
