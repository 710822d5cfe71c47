"""One MPTCP subflow: a path plus its TCP state and accounting.

A subflow owns the fluid TCP model for its path, a running throughput
estimator (Holt-Winters by default — the estimator MP-DASH consults as
``R_WiFi`` in Algorithm 1), and byte counters used by the analysis tool and
the energy model.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..estimators import HoltWinters, ThroughputEstimator
from ..net.link import Path
from ..net.tcp import TcpState
from ..obs.bus import EventBus
from ..obs.events import CwndRestarted, SubflowReconnected


#: Minimum window over which a throughput sample is formed before being fed
#: to the estimator.  One sample per ~RTT mirrors how a receiver-side
#: estimator would see ACK clocking.
MIN_SAMPLE_INTERVAL = 0.05


class Subflow:
    """Transport state of a single path within an MPTCP connection."""

    def __init__(self, path: Path,
                 estimator: Optional[ThroughputEstimator] = None,
                 reconnect_delay: float = 0.0,
                 bus: Optional[EventBus] = None, conn: int = 0):
        """``reconnect_delay`` models the eMPTCP-style alternative to
        MP-DASH's skip-in-scheduler design: tearing the subflow down when
        disabled and re-establishing it on enable, paying a handshake delay
        and a congestion restart each time (§6 argues against this).  Zero
        (the default) gives MP-DASH's skip semantics: the subflow stays
        established and is merely skipped, so re-enabling is free.

        ``bus``/``conn`` make the subflow observable: reconnects and TCP
        idle restarts are published as typed events.
        """
        if reconnect_delay < 0:
            raise ValueError(
                f"reconnect_delay cannot be negative: {reconnect_delay!r}")
        self.path = path
        self.bus = bus
        self.conn = conn
        self.tcp = TcpState(path.rtt)
        if bus is not None:
            self.tcp.on_idle_restart = self._publish_restart
        self.estimator = estimator if estimator is not None else HoltWinters()
        self.reconnect_delay = reconnect_delay
        self.total_bytes = 0
        self.reconnects = 0
        self._was_enabled = path.enabled
        self._usable_after = 0.0
        # Sample accumulation for the estimator.
        self._sample_bytes = 0.0
        self._sample_busy = 0.0
        self._sample_interval = max(path.rtt, MIN_SAMPLE_INTERVAL)

    @property
    def name(self) -> str:
        return self.path.name

    def _publish_restart(self, now: float) -> None:
        self.bus.publish(CwndRestarted(now, self.name, self.conn))

    def notice_state(self, now: float) -> None:
        """Track enable/disable transitions for reconnect semantics."""
        enabled = self.path.enabled
        if enabled and not self._was_enabled and self.reconnect_delay > 0:
            # Re-adding a torn-down subflow: handshake plus a fresh window.
            self._usable_after = now + self.reconnect_delay
            self.tcp.reset()
            self.reconnects += 1
            if self.bus is not None:
                self.bus.publish(SubflowReconnected(now, self.name,
                                                    self.reconnects,
                                                    self.conn))
        self._was_enabled = enabled

    def _usable(self, now: float) -> bool:
        return self.path.enabled and now >= self._usable_after

    def deliverable(self, now: float, dt: float) -> float:
        """Bytes this subflow could carry in the next ``dt`` seconds."""
        if not self._usable(now):
            return 0.0
        return self.tcp.rate(self.path.bandwidth_at(now)) * dt

    def advance(self, now: float, dt: float, sending: bool) -> float:
        """Advance TCP state; return the byte budget for this tick."""
        if not self._usable(now):
            return 0.0
        return self.tcp.advance(now, dt, self.path.bandwidth_at(now), sending)

    # ------------------------------------------------------------------
    # Analytic span interface (event-driven kernel)
    # ------------------------------------------------------------------
    def usable(self, now: float) -> bool:
        """Whether the scheduler may place bytes here right now."""
        return self._usable(now)

    @property
    def usable_after(self) -> float:
        """Earliest time a re-established subflow becomes usable again."""
        return self._usable_after

    def potential(self, now: float, dt: float) -> float:
        """Pure closed-form bytes this subflow could carry in ``dt`` seconds.

        Assumes the bandwidth holding at ``now`` stays constant — callers
        bound ``dt`` by the next trace breakpoint.  Unlike
        :meth:`deliverable` (one tick at the instantaneous rate) this
        integrates the full window trajectory, so it is exact over long
        quiescent spans.
        """
        if dt <= 0 or not self._usable(now):
            return 0.0
        return self.tcp.potential_bytes(now, dt, self.path.bandwidth_at(now))

    def time_to_deliver(self, now: float, target_bytes: float) -> float:
        """Pure: seconds of continuous sending to carry ``target_bytes``."""
        if not self._usable(now):
            return float("inf")
        return self.tcp.time_to_deliver(now, target_bytes,
                                        self.path.bandwidth_at(now))

    def steady_rate(self, now: float) -> Optional[float]:
        """Constant delivery rate while provably pinned, else None.

        See :meth:`~repro.net.tcp.TcpState.pinned_rate`; the connection's
        completion solver uses it to replace bisection with an exact
        division when every sender is in steady state.
        """
        if not self._usable(now):
            return None
        return self.tcp.pinned_rate(now, self.path.bandwidth_at(now))

    def deliver_analytic(self, start: float, end: float, bin_width: float,
                         open_bins: Dict[str, list], emit, close) -> float:
        """Commit continuous network-limited sending over ``[start, end]``.

        Advances the TCP window in closed form, feeds the throughput
        estimator one sample per ``_sample_interval`` of busy time (the
        same cadence :meth:`account` produces under the tick kernel), and
        bins the bytes into the connection's activity bins.  Returns the
        total bytes delivered.  Bandwidth is read once at ``start``;
        callers bound the span by the next trace breakpoint.

        ``open_bins`` maps a path to its open bin ``[bin_index,
        first_time, bytes]``, where ``first_time`` is the bin's first
        delivery instant.  Each step is merged through
        ``emit(name, bin_index, time, bytes)``, which closes a finished
        bin on the spot (a window step may publish ``CwndRestarted`` in
        between).  Once the window is pinned nothing else publishes, so
        that stretch merges into ``open_bins`` in place and hands the bins
        it finishes to ``close(name, [(first_time, bytes), ...])`` in one
        call.
        """
        if end <= start:
            return 0.0
        tcp = self.tcp
        name = self.path.name
        bw = self.path.bandwidth_at(start)
        # ``tcp.pinned_rate(t, bw) is not None``, with the span-constant
        # ceiling computed once.
        pinned_cwnd = tcp.pinned_window(bw)
        rto = tcp.rto
        total = 0.0
        t = start
        index = int(start / bin_width)
        interval = self._sample_interval
        while t < end - 1e-12:
            last = tcp.last_send_time
            if (last is not None and not t - last > rto
                    and tcp.cwnd == pinned_cwnd):
                return self._deliver_pinned(t, end, bw, index, bin_width,
                                            total, open_bins, close)
            bin_end = (index + 1) * bin_width
            sample_end = t + (interval - self._sample_busy)
            step_end = min(end, bin_end, sample_end)
            dt = step_end - t
            delta = tcp.advance_analytic(t, dt, bw)
            self.total_bytes += delta
            total += delta
            if delta > 0:
                # Always network-limited: the span runs at full potential.
                self._sample_bytes += delta
                self._sample_busy += dt
                if self._sample_busy >= interval - 1e-12:
                    self.estimator.update(self._sample_bytes
                                          / self._sample_busy)
                    self._sample_bytes = 0.0
                    self._sample_busy = 0.0
                emit(name, index, t, delta)
            t = step_end
            if step_end >= bin_end - 1e-12:
                index += 1
        return total

    def _deliver_pinned(self, t: float, end: float, bw: float, index: int,
                        bin_width: float, total: float,
                        open_bins: Dict[str, list], close) -> float:
        """The rest of :meth:`deliver_analytic` once the window is pinned.

        The window stays at the ceiling for the rest of the span
        (bandwidth is constant within it), so delivery is linear at
        ``bw``: walk it one activity bin at a time, folding the
        estimator's busy-time samples in closed form instead of splitting
        steps at every sample boundary.  Byte counters, the sample
        accumulator and the open bin live in locals, which changes no
        float operation and no order: the results are bit-identical to
        updating the attributes at every step.
        """
        update = self.estimator.update
        interval = self._sample_interval
        total_bytes = self.total_bytes
        sample_busy = self._sample_busy
        sample_bytes = self._sample_bytes
        name = self.path.name
        pending = open_bins.get(name)
        if pending is None:
            open_index = None
            open_time = open_bytes = 0.0
        else:
            open_index, open_time, open_bytes = pending
        closed = []
        while t < end - 1e-12:
            bin_end = (index + 1) * bin_width
            step_end = bin_end if bin_end < end else end
            dt = step_end - t
            delta = bw * dt
            total_bytes += delta
            total += delta
            if delta > 0:
                busy = sample_busy + dt
                if busy >= interval - 1e-12:
                    update((sample_bytes + bw * (interval - sample_busy))
                           / interval)
                    busy -= interval
                    while busy >= interval - 1e-12:
                        update(bw)
                        busy -= interval
                    sample_busy = busy if busy > 0.0 else 0.0
                    sample_bytes = bw * sample_busy
                else:
                    sample_busy = busy
                    sample_bytes += delta
                if index == open_index:
                    open_bytes += delta
                else:
                    if open_index is not None:
                        closed.append((open_time, open_bytes))
                    open_index = index
                    open_time = t
                    open_bytes = delta
            t = step_end
            if step_end >= bin_end - 1e-12:
                index += 1
        self.total_bytes = total_bytes
        self._sample_busy = sample_busy
        self._sample_bytes = sample_bytes
        if open_index is not None:
            open_bins[name] = [open_index, open_time, open_bytes]
        if closed:
            close(name, closed)
        self.tcp.last_send_time = end
        return total

    def grow_analytic(self, start: float, end: float) -> None:
        """Advance the window over an application-limited span.

        Matches the tick kernel's behaviour when a transfer is active but
        has nothing sendable: the window keeps evolving and the send clock
        stays warm, yet no bytes are delivered and no samples are formed.
        """
        if end <= start or not self._usable(start):
            return
        self.tcp.advance_analytic(start, end - start,
                                  self.path.bandwidth_at(start))

    def account(self, delivered: float, dt: float,
                budget: Optional[float] = None) -> None:
        """Record ``delivered`` bytes carried during a tick of ``dt``.

        ``budget`` is what the subflow *could* have carried this tick.  A
        delivery well below the budget is application-limited (e.g. the
        last sliver of a chunk) and says nothing about path capacity, so —
        like kernel rate samplers — it is excluded from the throughput
        estimate.  Only network-limited ticks produce samples.
        """
        self.total_bytes += delivered
        if delivered <= 0:
            return
        network_limited = budget is None or delivered >= 0.7 * budget
        if network_limited:
            self._sample_bytes += delivered
            self._sample_busy += dt
            if self._sample_busy >= self._sample_interval:
                self.estimator.update(self._sample_bytes / self._sample_busy)
                self._sample_bytes = 0.0
                self._sample_busy = 0.0

    def throughput_estimate(self) -> Optional[float]:
        """Predicted throughput (bytes/second); None before any sample."""
        return self.estimator.predict()

    def reset_tcp(self) -> None:
        """Reset congestion state (new connection semantics)."""
        self.tcp.reset()

    def __repr__(self) -> str:
        return (f"<Subflow {self.name} total={self.total_bytes / 1e6:.2f}MB "
                f"est={self.throughput_estimate()}>")
