"""Experiment configuration objects.

A :class:`SessionConfig` describes one streaming session end to end —
network conditions, video, ABR algorithm, and MP-DASH settings — and a
:class:`FileDownloadConfig` one deadline-bounded file transfer (the §7.2
scheduler-only workload).  Both are plain data: the runner builds the
simulation from them, so every experiment is a reproducible value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..core.deadlines import DEADLINE_MODES, RATE_BASED
from ..net.trace import BandwidthTrace

#: Scheme labels used across benches and tables.
BASELINE = "baseline"       # vanilla MPTCP, no MP-DASH
DURATION = "duration"       # MP-DASH, duration-based deadlines
RATE = "rate"               # MP-DASH, rate-based deadlines
SCHEMES = (BASELINE, DURATION, RATE)


@dataclass
class SessionConfig:
    """One adaptive-streaming session."""

    video: str = "big_buck_bunny"
    abr: str = "festive"
    abr_kwargs: Dict = field(default_factory=dict)

    # --- MP-DASH ---
    mpdash: bool = False
    deadline_mode: str = RATE_BASED
    alpha: float = 1.0
    extension_enabled: bool = True
    phi_fraction: Optional[float] = None

    # --- network ---
    wifi_mbps: Optional[float] = 3.8
    lte_mbps: Optional[float] = 3.0
    wifi_trace: Optional[BandwidthTrace] = None
    lte_trace: Optional[BandwidthTrace] = None
    wifi_rtt_ms: float = 50.0
    lte_rtt_ms: float = 55.0
    #: Dummynet-style cap on the cellular path (bytes/second); the Table 4
    #: throttling baseline.  None = unthrottled.
    lte_throttle: Optional[float] = None
    wifi_only: bool = False
    mptcp_scheduler: str = "minrtt"
    #: None = one primary RTT (the DSS-bit delay); 0 disables the model.
    signaling_delay: Optional[float] = None
    #: Tear down / re-establish disabled subflows instead of MP-DASH's
    #: skip-in-scheduler semantics (the §6 alternative; costs a handshake
    #: and a congestion restart per re-enable).
    subflow_reestablish: bool = False

    # --- player ---
    buffer_capacity: float = 40.0
    chunk_duration: float = 4.0
    video_duration: float = 600.0

    # --- simulation ---
    #: Simulation kernel: ``"fast"`` (event-driven analytic, the default)
    #: or ``"tick"`` (the fixed-interval reference implementation).  The
    #: choice also selects the matching player playout clock.
    kernel: str = "fast"
    tick_interval: float = 0.02
    device: str = "galaxy_note"
    steady_state_fraction: float = 0.2
    max_sim_time: Optional[float] = None
    #: Record the session's full typed event stream (repro.obs); the
    #: result then carries the events and can export a JSONL trace.
    record_trace: bool = False
    #: Attach a SessionMetricsCollector (plus the 1 Hz PathSampler); the
    #: result then carries ``metrics_registry``.
    collect_metrics: bool = False
    #: Attach a SpanBuilder; the result then carries ``spans``.
    collect_spans: bool = False

    def __post_init__(self) -> None:
        if self.kernel not in ("fast", "tick"):
            raise ValueError(f"unknown kernel {self.kernel!r} "
                             f"(known: fast, tick)")
        if self.deadline_mode not in DEADLINE_MODES:
            raise ValueError(f"unknown deadline mode {self.deadline_mode!r} "
                             f"(known: {DEADLINE_MODES})")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {self.alpha!r}")
        if self.wifi_trace is None and self.wifi_mbps is None:
            raise ValueError("need wifi_mbps or wifi_trace")
        if (not self.wifi_only and self.lte_trace is None
                and self.lte_mbps is None):
            raise ValueError("need lte_mbps or lte_trace (or wifi_only)")

    @property
    def sim_deadline(self) -> float:
        """Simulated-time cap on the session (seconds of simulated time,
        not host wall clock): the runner stops advancing the simulator
        here even if playback has not finished."""
        if self.max_sim_time is not None:
            return self.max_sim_time
        return 2.0 * self.video_duration + 120.0

    def with_scheme(self, scheme: str) -> "SessionConfig":
        """This config under one of the three evaluation schemes."""
        if scheme == BASELINE:
            return replace(self, mpdash=False)
        if scheme in (DURATION, RATE):
            return replace(self, mpdash=True, deadline_mode=scheme)
        raise ValueError(f"unknown scheme {scheme!r} (known: {SCHEMES})")


@dataclass
class FileDownloadConfig:
    """One deadline-bounded file download (the §7.2 workload)."""

    size: float
    deadline: float
    mpdash: bool = True
    alpha: float = 1.0
    wifi_mbps: Optional[float] = 3.8
    lte_mbps: Optional[float] = 3.0
    wifi_trace: Optional[BandwidthTrace] = None
    lte_trace: Optional[BandwidthTrace] = None
    wifi_rtt_ms: float = 50.0
    lte_rtt_ms: float = 55.0
    mptcp_scheduler: str = "minrtt"
    signaling_delay: Optional[float] = None
    subflow_reestablish: bool = False
    #: Simulation kernel: ``"fast"`` (event-driven analytic) or ``"tick"``.
    kernel: str = "fast"
    tick_interval: float = 0.01
    device: str = "galaxy_note"

    def __post_init__(self) -> None:
        if self.kernel not in ("fast", "tick"):
            raise ValueError(f"unknown kernel {self.kernel!r} "
                             f"(known: fast, tick)")
        if self.size <= 0:
            raise ValueError(f"size must be positive: {self.size!r}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline!r}")
