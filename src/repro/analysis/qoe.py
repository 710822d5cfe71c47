"""Composite QoE scoring (the §5.2.2 future-work item).

The paper evaluates QoE through its components — stalls, playback bitrate,
switches — and defers a combined metric to future work.  This module
implements the standard combination from the MPC line of work (Yin et al.,
SIGCOMM 2015), which the paper already cites for rate adaptation:

    QoE = Σ q(R_k)  −  λ Σ |q(R_{k+1}) − q(R_k)|  −  μ · T_rebuffer
          − μ_s · T_startup

with ``q`` the bitrate in Mbps, λ the smoothness penalty, μ the rebuffer
penalty (Mbps-seconds per second stalled), and a startup term.  Scores are
reported both as totals and per-chunk averages so sessions of different
lengths compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..dash.events import PlayerEventLog
from .metrics import SessionMetrics

#: Default penalties from the robust-MPC evaluation: one unit of bitrate
#: per unit of switch magnitude, a heavy toll on rebuffering, a light one
#: on startup delay.
DEFAULT_SWITCH_PENALTY = 1.0
DEFAULT_REBUFFER_PENALTY = 8.0
DEFAULT_STARTUP_PENALTY = 1.0

#: Mbps one unit of stall ratio (stalled s per session s) costs in the
#: ladder-free QoE proxy of :func:`session_headline`.
PROXY_STALL_WEIGHT = 8.0


@dataclass(frozen=True)
class QoeScore:
    """Decomposed QoE for one session."""

    quality: float
    switch_penalty: float
    rebuffer_penalty: float
    startup_penalty: float
    chunk_count: int

    @property
    def total(self) -> float:
        return (self.quality - self.switch_penalty - self.rebuffer_penalty
                - self.startup_penalty)

    @property
    def per_chunk(self) -> float:
        if self.chunk_count == 0:
            return 0.0
        return self.total / self.chunk_count

    def __repr__(self) -> str:
        return (f"<QoeScore total={self.total:.1f} "
                f"(quality={self.quality:.1f} -switch="
                f"{self.switch_penalty:.1f} -rebuf="
                f"{self.rebuffer_penalty:.1f} -startup="
                f"{self.startup_penalty:.1f})>")


def qoe_from_bitrates(bitrates_mbps: Sequence[float],
                      rebuffer_seconds: float = 0.0,
                      startup_seconds: float = 0.0,
                      switch_penalty: float = DEFAULT_SWITCH_PENALTY,
                      rebuffer_penalty: float = DEFAULT_REBUFFER_PENALTY,
                      startup_penalty: float = DEFAULT_STARTUP_PENALTY
                      ) -> QoeScore:
    """Score a session given its per-chunk bitrates (Mbps) and stall time."""
    if rebuffer_seconds < 0:
        raise ValueError(
            f"rebuffer time cannot be negative: {rebuffer_seconds!r}")
    if startup_seconds < 0:
        raise ValueError(
            f"startup time cannot be negative: {startup_seconds!r}")
    quality = float(sum(bitrates_mbps))
    switches = sum(abs(b - a)
                   for a, b in zip(bitrates_mbps, bitrates_mbps[1:]))
    return QoeScore(
        quality=quality,
        switch_penalty=switch_penalty * switches,
        rebuffer_penalty=rebuffer_penalty * rebuffer_seconds,
        startup_penalty=startup_penalty * startup_seconds,
        chunk_count=len(bitrates_mbps))


def session_qoe(log: PlayerEventLog, manifest_bitrates: Sequence[float],
                startup_delay: Optional[float] = None,
                **penalties) -> QoeScore:
    """Score a finished session from its player event log.

    ``manifest_bitrates`` maps level index to nominal bitrate
    (bytes/second); per-chunk quality uses the nominal ladder (the
    perceptual quantity), not the VBR chunk size.
    """
    bitrates = [manifest_bitrates[c.level] * 8.0 / 1e6 for c in log.chunks]
    return qoe_from_bitrates(
        bitrates, rebuffer_seconds=log.total_stall_time,
        startup_seconds=startup_delay if startup_delay is not None else 0.0,
        **penalties)


def qoe_of(metrics: SessionMetrics, ladder_bytes_per_s: Sequence[float],
           **penalties) -> QoeScore:
    """Score from :class:`SessionMetrics` plus the encoding ladder.

    The metrics record each played chunk's level index; the ladder maps
    those back to nominal bitrates.
    """
    bitrates = [ladder_bytes_per_s[level] * 8.0 / 1e6
                for level in metrics.levels]
    return qoe_from_bitrates(
        bitrates, rebuffer_seconds=metrics.total_stall_time,
        startup_seconds=metrics.startup_delay or 0.0, **penalties)


def session_headline(outcome: Any) -> Dict[str, float]:
    """The headline numbers of one ``SessionResult`` or ``SessionSummary``
    (read: ``metrics``, ``scheduler_stats``, ``finished``,
    ``session_duration``).  ``qoe`` is a ladder-free proxy that orders
    sessions — bitrate less a weighted stall ratio — not ``qoe_of``."""
    m = outcome.metrics
    stall_ratio = m.total_stall_time / max(outcome.session_duration, 1e-9)
    return {
        "qoe": m.mean_bitrate_mbps - PROXY_STALL_WEIGHT * stall_ratio,
        "bitrate_mbps": m.mean_bitrate_mbps,
        "stall_seconds": m.total_stall_time,
        "stall_count": float(m.stall_count),
        "startup_seconds": m.startup_delay or 0.0,
        "cellular_mbytes": m.cellular_bytes / 1e6,
        "cellular_fraction": m.cellular_fraction,
        "energy_joules": m.radio_energy,
        "deadline_misses": float(
            outcome.scheduler_stats.get("deadline_misses", 0)),
        "finished": 1.0 if outcome.finished else 0.0,
    }
