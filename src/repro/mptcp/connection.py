"""The MPTCP connection: subflow management, transfers, and the control hook.

This module plays the role of the paper's patched MPTCP stack.  A
:class:`MptcpConnection` owns one :class:`~repro.mptcp.subflow.Subflow` per
path, distributes an active transfer's bytes across them each tick using the
configured packet scheduler, and exposes the two cross-layer interfaces §3.2
describes:

* *downward*: a pluggable :class:`PathController` (the MP-DASH deadline-aware
  scheduler) that may enable/disable paths per tick.  Decisions travel to the
  server over a delayed :class:`~repro.mptcp.options.SignalChannel`, modeling
  the reserved DSS-option bit.
* *upward*: ``aggregate_throughput_estimate()``, the throughput the MP-DASH
  adapter feeds to throughput-based DASH algorithms (a player cannot see all
  paths on its own because MPTCP is transparent to it).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..estimators import ThroughputEstimator
from ..net.link import Path
from ..net.simulator import Simulator, Timer
from ..net.tcp import curve_delivered, delivery_curve
from ..obs.events import (PacketSent, PathStateRequested,
                          SubflowStateChange, TransferCompleted,
                          TransferStarted, new_packet_sent)
from .activity import ActivityLog
from .options import SignalChannel
from .schedulers import MptcpScheduler, make_scheduler
from .subflow import Subflow

#: Completion slack for float byte accounting.
_EPSILON = 0.5


class Transfer:
    """One request/response exchange (e.g. a video chunk download)."""

    def __init__(self, total_bytes: float, tag: str = "",
                 on_complete: Optional[Callable[["Transfer"], None]] = None):
        if total_bytes <= 0:
            raise ValueError(f"transfer size must be positive: {total_bytes!r}")
        #: Position in the owning connection's request sequence (assigned
        #: by ``start_transfer``; 0 for a standalone transfer).  Together
        #: with the connection id this names the transfer in trace events.
        self.id = 0
        self.tag = tag
        self.total_bytes = float(total_bytes)
        self.bytes_done = 0.0
        self._available: Optional[float] = None
        #: Invalidation hook: the event-driven kernel plants a callback
        #: here while the transfer is active, because a change in sender-
        #: side availability moves the predicted completion time.
        self._on_available_change: Optional[Callable[[], None]] = None
        self.per_path: Dict[str, float] = {}
        self.requested_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.on_complete = on_complete

    @property
    def available(self) -> Optional[float]:
        """When set, only this many bytes exist at the sender so far (a
        proxy still fetching from the origin); None = all available."""
        return self._available

    @available.setter
    def available(self, value: Optional[float]) -> None:
        if value == self._available:
            return
        notify = self._on_available_change
        if notify is not None:
            notify()  # settle deliveries under the old limit first
        self._available = value
        if notify is not None:
            notify()  # then re-predict completion under the new one

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_bytes - self.bytes_done)

    @property
    def sendable(self) -> float:
        """Bytes the sender may put on the wire right now."""
        if self.available is None:
            return self.remaining
        return max(0.0, min(self.remaining,
                            self.available - self.bytes_done))

    @property
    def complete(self) -> bool:
        return self.remaining <= _EPSILON

    def add(self, path: str, num_bytes: float) -> None:
        self.bytes_done += num_bytes
        self.per_path[path] = self.per_path.get(path, 0.0) + num_bytes

    def duration(self) -> Optional[float]:
        """Request-to-last-byte latency, once finished."""
        if self.finished_at is None or self.requested_at is None:
            return None
        return self.finished_at - self.requested_at

    def throughput(self) -> Optional[float]:
        """Application-observed download throughput (bytes/second)."""
        elapsed = self.duration()
        if not elapsed:
            return None
        return self.total_bytes / elapsed

    def fraction_on(self, path: str) -> float:
        if self.bytes_done <= 0:
            return 0.0
        return self.per_path.get(path, 0.0) / self.bytes_done

    def __repr__(self) -> str:
        return (f"<Transfer #{self.id} {self.tag!r} "
                f"{self.bytes_done / 1e6:.2f}/{self.total_bytes / 1e6:.2f}MB>")


class PathController(ABC):
    """Per-tick hook deciding path enablement (the MP-DASH control point)."""

    @abstractmethod
    def on_tick(self, now: float, transfer: Optional[Transfer],
                connection: "MptcpConnection") -> Optional[Dict[str, bool]]:
        """Return desired enabled-state per path name, or None for no-op."""

    def on_transfer_start(self, now: float, transfer: Transfer,
                          connection: "MptcpConnection") -> None:
        """Called when a transfer's data starts flowing."""

    def on_transfer_complete(self, now: float, transfer: Transfer,
                             connection: "MptcpConnection") -> None:
        """Called when a transfer finishes."""

    def next_decision(self, now: float, transfer: Optional[Transfer],
                      connection: "MptcpConnection") -> Optional[float]:
        """Absolute time of this controller's next scheduled evaluation.

        Under the event-driven kernel :meth:`on_tick` runs at every kernel
        wakeup (transfer start/completion, trace breakpoints, signal
        arrivals) rather than on a fixed clock.  A controller whose
        decision can flip *between* those points — e.g. a deadline
        crossing — returns the time it wants to be woken; ``None`` means
        the natural wakeups suffice.  Controllers that genuinely need
        dense polling should run under ``kernel="tick"``.
        """
        return None


class MptcpConnection:
    """A multipath TCP connection over simulated paths."""

    def __init__(self, sim: Simulator, paths: Sequence[Path],
                 scheduler: str = "minrtt",
                 tick_interval: float = 0.01,
                 estimator_factory: Optional[Callable[[], ThroughputEstimator]] = None,
                 signaling_delay: Optional[float] = None,
                 activity_bin: float = 0.1,
                 subflow_reestablish: bool = False,
                 kernel: str = "fast"):
        """``subflow_reestablish`` switches from MP-DASH's skip-in-scheduler
        semantics to the add/remove-subflow alternative: disabled paths are
        torn down and pay a 1.5-RTT handshake plus a congestion restart
        when re-enabled (the §6 design-choice ablation).

        ``kernel`` selects the simulation strategy:

        * ``"fast"`` (default) — event-driven analytic kernel: the
          connection predicts its next decision point (transfer
          completion, trace breakpoint, signal arrival, controller
          wakeup), schedules exactly one event there, and advances each
          subflow in closed form across the quiescent interval.
        * ``"tick"`` — the reference implementation: a fixed
          ``tick_interval`` clock advancing every subflow each firing.

        Both kernels produce the same QoE/deadline/energy results up to a
        small O(tick_interval) discretization difference; the parity suite
        pins the tolerance.
        """
        if not paths:
            raise ValueError("an MPTCP connection needs at least one path")
        names = [p.name for p in paths]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate path names: {names}")
        self.id = sim.next_id()
        self.sim = sim
        self.bus = sim.bus
        self.tick_interval = tick_interval
        self.subflows: List[Subflow] = [
            Subflow(p, estimator_factory() if estimator_factory else None,
                    reconnect_delay=(1.5 * p.rtt if subflow_reestablish
                                     else 0.0),
                    bus=self.bus, conn=self.id)
            for p in paths
        ]
        self._by_name = {sf.name: sf for sf in self.subflows}
        self.scheduler: MptcpScheduler = make_scheduler(scheduler)
        self.controller: Optional[PathController] = None
        # Filled by :meth:`_close_bins`, not by a bus subscription.
        self.activity = ActivityLog(activity_bin)
        self._bin_width = self.activity.bin_width
        # Last *effective* (server-side) and last *requested* (client-side)
        # state per path, for flip detection on the bus.
        self._effective = {p.name: p.enabled for p in paths}
        self._requested = {p.name: p.enabled for p in paths}
        # Open activity bins: path -> [bin_index, first_time, bytes].
        # Closed when the path's deliveries cross into the next activity
        # bin, and on close().
        self._open_bins: Dict[str, list] = {}
        # The primary path carries the DSS signaling; default delay one
        # primary-path RTT (pass 0 to study instantaneous signaling).
        self.primary = self.subflows[0]
        if signaling_delay is None:
            signaling_delay = self.primary.path.rtt
        self.signaling_delay = signaling_delay
        self._signals: Dict[str, SignalChannel] = {
            sf.name: SignalChannel(sf.path.enabled, signaling_delay)
            for sf in self.subflows
        }
        self._queue: Deque[Transfer] = deque()
        self._transfer_count = 0
        self._active: Optional[Transfer] = None
        self._activating = False
        if kernel not in ("fast", "tick"):
            raise ValueError(f"unknown kernel {kernel!r} "
                             f"(known: fast, tick)")
        self.kernel = kernel
        self._closed = False
        # True while inside a kernel callback (controller step, predict)
        # where the watermark is known current: readers skip re-syncing.
        self._stepping = False
        if kernel == "tick":
            self._ticker = sim.call_every(tick_interval, self._on_tick)
            self._timer = None
        else:
            self._ticker = None
            self._timer = Timer(sim, self._wake)
            # Watermark: subflow state is exact as of this instant; spans
            # up to ``sim.now`` are advanced lazily on demand.
            self._advanced_to = sim.now
            self._advancing = False
            # Cached completion prediction (absolute time), invalidated by
            # any event that changes delivery rates or the byte goal.
            self._completion: Optional[float] = None

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def start_transfer(self, total_bytes: float, tag: str = "",
                       on_complete: Optional[Callable[[Transfer], None]] = None
                       ) -> Transfer:
        """Issue a request for ``total_bytes``; data flows one RTT later."""
        transfer = Transfer(total_bytes, tag, on_complete)
        self._transfer_count += 1
        transfer.id = self._transfer_count
        transfer.requested_at = self.sim.now
        self._queue.append(transfer)
        if self._active is None:
            self._activate_next()
        return transfer

    def _activate_next(self) -> None:
        if self._active is not None or self._activating or not self._queue:
            return
        transfer = self._queue.popleft()
        self._activating = True
        # HTTP request + first response byte: one primary-path RTT.
        delay = max(0.0, transfer.requested_at + self.primary.path.rtt
                    - self.sim.now)
        self.sim.schedule(delay, self._begin, transfer)

    def _begin(self, transfer: Transfer) -> None:
        self._activating = False
        if self._closed:
            return
        if self._timer is not None:
            self._advance_to(self.sim.now)
        transfer.started_at = self.sim.now
        self._active = transfer
        self.bus.publish(TransferStarted(
            self.sim.now, transfer.id, transfer.tag, transfer.total_bytes,
            self.id))
        if self.controller is not None:
            self.controller.on_transfer_start(self.sim.now, transfer, self)
        if self._timer is not None:
            transfer._on_available_change = self._on_available_bump
            self._completion = None
            self._controller_step()
            self._predict()

    @property
    def active_transfer(self) -> Optional[Transfer]:
        return self._active

    @property
    def busy(self) -> bool:
        return (self._active is not None or self._activating
                or bool(self._queue))

    # ------------------------------------------------------------------
    # Path control (client decision -> delayed server enforcement)
    # ------------------------------------------------------------------
    def request_path_state(self, name: str, enabled: bool) -> None:
        """Client-side decision; takes effect after the signaling delay."""
        if name not in self._signals:
            raise KeyError(f"unknown path {name!r}")
        if enabled != self._requested[name]:
            self._requested[name] = enabled
            self.bus.publish(PathStateRequested(self.sim.now, name, enabled,
                                                self.id))
        self._signals[name].send(self.sim.now, enabled)
        # The arrival of this signal is a decision point: re-predict so the
        # kernel wakes exactly when the server-side state flips.  During a
        # controller step the wake's trailing predict covers every signal
        # sent in the batch; re-predicting per call would triple the
        # prediction work for nothing.
        if (self._timer is not None and not self._closed
                and not self._advancing and not self._stepping):
            self._advance_to(self.sim.now)
            self._predict()

    def path_state(self, name: str) -> bool:
        """Server-side effective enabled-state of ``name`` right now."""
        return self._signals[name].current(self.sim.now)

    def path_capacity(self, name: str) -> float:
        """Instantaneous post-throttle link capacity (bytes/second).

        Ground truth from the trace, not an estimate.  Controllers use it
        only to decide *when* to re-evaluate (the estimator lags reality
        after a capacity change); decisions themselves stay estimate-based.
        """
        return self.subflow(name).path.bandwidth_at(self.sim.now)

    def subflow(self, name: str) -> Subflow:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name))
            raise KeyError(f"unknown path {name!r} (known: {known})") from None

    def path_names(self) -> List[str]:
        return [sf.name for sf in self.subflows]

    # ------------------------------------------------------------------
    # Cross-layer estimates (the upward interface of §3.2)
    # ------------------------------------------------------------------
    def throughput_estimate(self, name: str) -> Optional[float]:
        """Estimated throughput of one subflow (bytes/second)."""
        if not self._stepping:
            self._sync_state()
        return self.subflow(name).throughput_estimate()

    def aggregate_throughput_estimate(self) -> Optional[float]:
        """Sum of per-subflow estimates across *all* paths.

        Includes currently disabled paths: the player should see the overall
        available network resources, not just what MP-DASH happens to be
        using this instant.
        """
        if not self._stepping:
            self._sync_state()
        estimates = [sf.throughput_estimate() for sf in self.subflows]
        known = [e for e in estimates if e is not None]
        if not known:
            return None
        return sum(known)

    # ------------------------------------------------------------------
    # Tick loop
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        now = self.sim.now
        dt = self.tick_interval
        # 1. Apply in-flight enable/disable decisions at the server.
        for subflow in self.subflows:
            enabled = self._signals[subflow.name].current(now)
            subflow.path.enabled = enabled
            if enabled != self._effective[subflow.name]:
                self._effective[subflow.name] = enabled
                self.bus.publish(SubflowStateChange(now, subflow.name,
                                                    enabled, self.id))
            subflow.notice_state(now)

        transfer = self._active
        sending = transfer is not None

        # 2. Advance TCP state, collecting this tick's byte budgets.
        budgets: Dict[str, float] = {}
        for subflow in self.subflows:
            budgets[subflow.name] = subflow.advance(now, dt, sending)

        # 3. Move bytes.
        if sending:
            enabled = [sf for sf in self.subflows if sf.path.enabled]
            allocation = self.scheduler.allocate(transfer.sendable, enabled,
                                                 budgets)
            bin_index = int(now / self._bin_width)
            for subflow in enabled:
                delivered = allocation.get(subflow.name, 0.0)
                if delivered <= 0:
                    continue
                subflow.account(delivered, dt,
                                budget=budgets.get(subflow.name))
                transfer.add(subflow.name, delivered)
                self._emit_bin(subflow.name, bin_index, now, delivered)
            if transfer.complete:
                self._finish(transfer)
                transfer = self._active  # may be None now

        # 4. Let the controller steer paths for the (possibly new) state.
        if self.controller is not None:
            desired = self.controller.on_tick(now, self._active, self)
            if desired:
                for name, enabled in desired.items():
                    self.request_path_state(name, enabled)

    def _finish(self, transfer: Transfer) -> None:
        # Under the fast kernel the last byte lands at the watermark (the
        # solved completion instant), which normally coincides with
        # ``sim.now`` because the wakeup was scheduled there.
        now = self._advanced_to if self._timer is not None else self.sim.now
        transfer.finished_at = now
        transfer._on_available_change = None
        self._active = None
        if self._timer is not None:
            self._completion = None
        self.bus.publish(TransferCompleted(
            now, transfer.id, transfer.tag, transfer.total_bytes,
            transfer.duration() or 0.0, self.id))
        if self.controller is not None:
            self.controller.on_transfer_complete(now, transfer, self)
        if transfer.on_complete is not None:
            transfer.on_complete(transfer)
        self._activate_next()

    # ------------------------------------------------------------------
    # Event-driven analytic kernel (kernel="fast")
    # ------------------------------------------------------------------
    # The connection keeps a watermark ``_advanced_to``: every subflow's
    # TCP window, estimator, and byte counters are exact as of that
    # instant.  Between decision points nothing is scheduled; when a
    # wakeup (or any external reader) needs current state, the span since
    # the watermark is advanced in closed form, split only at the
    # boundaries across which delivery rates are constant: bandwidth-trace
    # breakpoints, signal (DSS option) arrivals, reconnect completions,
    # and the solved transfer-completion instant.

    def sync(self) -> None:
        """Advance lazy subflow state to ``sim.now`` and re-predict.

        A no-op under the tick kernel; external readers (e.g. the 1 Hz
        ``PathSampler``) call this before inspecting cwnd or estimates.
        """
        self._sync_state()
        self._predict()

    def _sync_state(self) -> None:
        if self._timer is not None and not self._closed:
            self._advance_to(self.sim.now)

    def _wake(self) -> None:
        """The single scheduled decision-point event."""
        self._advance_to(self.sim.now)
        self._stepping = True
        try:
            self._controller_step()
            self._predict()
        finally:
            self._stepping = False

    def _controller_step(self) -> None:
        if self.controller is None or self._closed:
            return
        previous = self._stepping
        self._stepping = True
        try:
            desired = self.controller.on_tick(self.sim.now, self._active,
                                              self)
            if desired:
                for name, enabled in desired.items():
                    self.request_path_state(name, enabled)
        finally:
            self._stepping = previous

    def _on_available_bump(self) -> None:
        """Sender-side availability changed (proxy fetch progress).

        Called twice by the :class:`Transfer` setter: once before the new
        value is applied (settling deliveries under the old limit) and
        once after (re-predicting completion under the new one); both
        calls are idempotent.
        """
        if self._closed or self._advancing:
            return
        self._advance_to(self.sim.now)
        self._completion = None
        self._predict()

    def _apply_signals(self, now: float) -> None:
        """Apply in-flight enable/disable decisions effective by ``now``."""
        for subflow in self.subflows:
            enabled = self._signals[subflow.name].current(now)
            subflow.path.enabled = enabled
            if enabled != self._effective[subflow.name]:
                self._effective[subflow.name] = enabled
                # The delivering set changed: any cached completion
                # prediction is void.
                self._completion = None
                self.bus.publish(SubflowStateChange(now, subflow.name,
                                                    enabled, self.id))
            subflow.notice_state(now)

    def _next_signal_arrival(self) -> float:
        # Peeks the channels' queues directly: this runs on every sync
        # precheck, so the next_arrival() call-and-None-check per channel
        # is measurable overhead.
        earliest = math.inf
        for channel in self._signals.values():
            queue = channel._in_flight
            if queue and queue[0][0] < earliest:
                earliest = queue[0][0]
        return earliest

    def _emit_bin(self, name: str, index: int, time: float,
                  delivered: float) -> None:
        """Merge one delivery step into ``name``'s open activity bin."""
        pending = self._open_bins.get(name)
        if pending is None:
            self._open_bins[name] = [index, time, delivered]
        elif pending[0] == index:
            pending[2] += delivered
        else:
            self._close_bins(name, ((pending[1], pending[2]),))
            pending[0] = index
            pending[1] = time
            pending[2] = delivered

    def _close_bins(self, name: str,
                    closed: Sequence[Tuple[float, float]]) -> None:
        """The one sink for ``name``'s finished ``(first_time, bytes)``
        activity bins, in delivery order.

        Each bin lands in :attr:`activity` exactly as an attached
        :meth:`ActivityLog.attach` handler would bin its ``PacketSent``
        (same ``int(time / bin_width)`` index, same add order).  The
        event itself is built and published only when the bus has a
        ``PacketSent`` subscriber; otherwise the publish is just counted,
        so ``bus.published`` does not depend on who listens.
        """
        bins = self.activity._bins.setdefault(name, {})
        width = self._bin_width
        bus = self.bus
        observed = bus.observes(PacketSent)
        for time, delivered in closed:
            index = int(time / width)
            bins[index] = bins.get(index, 0.0) + delivered
            if observed:
                bus.publish(new_packet_sent(time, name, delivered, self.id))
        if not observed:
            # Unobserved, no handler runs in the loop, so none could have
            # subscribed mid-batch: the count is all that is owed.
            bus.published += len(closed)

    def _advance_to(self, target: float) -> None:
        """Advance all subflow state from the watermark to ``target``.

        Walks quiescent spans: within each span the enabled set and every
        path's bandwidth are constant, so each subflow's delivery is a
        closed-form integral.  Completion is solved exactly inside the
        span that satisfies the transfer.
        """
        if self._advancing:
            return
        if (self._advanced_to >= target
                and self._next_signal_arrival() > target):
            # Already exact at ``target`` with nothing to apply: skip the
            # walk entirely.  Readers like ``throughput_estimate`` sync on
            # every call, so this no-op path is by far the most common.
            return
        self._advancing = True
        try:
            while True:
                t0 = self._advanced_to
                if t0 >= target - 1e-12:
                    # Snap the sub-tolerance sliver: a signal arrival at
                    # exactly ``target`` must drain even when the solved
                    # watermark stopped a few ulps short of it, or the
                    # prediction loop re-arms the same instant forever.
                    if target > t0:
                        self._advanced_to = t0 = target
                    self._apply_signals(t0)
                    break
                # Apply before advancing: an arrival landing exactly on
                # the watermark must take effect even on a no-op sync.
                self._apply_signals(t0)
                active = self._active
                t_sig = self._next_signal_arrival()
                if active is None:
                    self._advanced_to = min(target, t_sig)
                    continue
                # Bound the span by everything that can change a rate.
                t1 = min(target, t_sig)
                senders = []
                for sf in self.subflows:
                    if not sf.path.enabled:
                        continue
                    after = sf.usable_after
                    if t0 < after:
                        if after < t1:
                            t1 = after
                        continue
                    change = sf.path.next_change(t0)
                    if change < t1:
                        t1 = change
                    senders.append(sf)
                span = t1 - t0
                sendable = active.sendable
                if not senders or sendable <= _EPSILON:
                    # Application-limited (or no usable path): windows keep
                    # evolving but nothing is delivered.  Sub-epsilon
                    # residues count as nothing: chasing them would predict
                    # zero-length completion spans forever (``complete``
                    # itself allows the same slack).
                    for sf in senders:
                        sf.grow_analytic(t0, t1)
                    if t1 < target:
                        self._completion = None
                    self._advanced_to = t1
                    continue
                total = sum(sf.potential(t0, span) for sf in senders)
                if total < sendable - _EPSILON:
                    # The whole span flows at full potential.
                    for sf in senders:
                        delivered = sf.deliver_analytic(
                            t0, t1, self._bin_width, self._open_bins,
                            self._emit_bin, self._close_bins)
                        active.add(sf.name, delivered)
                    if t1 < target:
                        self._completion = None
                    self._advanced_to = t1
                    if active.complete:
                        self._finish(active)
                    continue
                # Everything sendable fits in this span: solve the exact
                # instant the last byte lands and stop the flow there.
                t_end = t0 + self._solve_span(senders, t0, span, sendable)
                for sf in senders:
                    delivered = sf.deliver_analytic(
                        t0, t_end, self._bin_width, self._open_bins,
                        self._emit_bin, self._close_bins)
                    active.add(sf.name, delivered)
                self._advanced_to = t_end
                if active.complete:
                    self._finish(active)
                # Otherwise the sender is starved (proxy still fetching);
                # the next iteration advances application-limited.
        finally:
            self._advancing = False

    def _solve_span(self, senders: List[Subflow], t0: float, span: float,
                    sendable: float) -> float:
        """Seconds into the span at which combined delivery = sendable."""
        if len(senders) == 1:
            return min(senders[0].time_to_deliver(t0, sendable), span)
        # Steady state: every sender pinned at its ceiling means delivery
        # is linear at the combined rate — solve by division, not search.
        total_rate = 0.0
        for sf in senders:
            rate = sf.steady_rate(t0)
            if rate is None:
                total_rate = -1.0
                break
            total_rate += rate
        if total_rate > 0.0:
            return min(sendable / total_rate, span)
        # Bisection over the combined delivery integral.  Per-sender state
        # is constant across iterations, so prepare each sender's
        # delivery curve from its (idle-restarted) window and bandwidth
        # once; converge when the bracket is tighter than the completion
        # slack in bytes (the same ``_EPSILON`` the byte accounting uses).
        curves = []
        floor_rate = 0.0
        for sf in senders:
            cwnd, ssthresh = sf.tcp.window_after_restart(t0)
            bw = sf.path.bandwidth_at(t0)
            curves.append(delivery_curve(cwnd, ssthresh, sf.tcp.rtt, bw))
            floor_rate += min(cwnd / sf.tcp.rtt, bw)
        tolerance = max(1e-12, _EPSILON / max(floor_rate, 1.0))
        lo, hi = 0.0, span
        for _ in range(80):
            mid = (lo + hi) / 2.0
            total = 0.0
            for curve in curves:
                total += curve_delivered(curve, mid)
            if total >= sendable:
                hi = mid
            else:
                lo = mid
            if hi - lo <= tolerance:
                break
        return hi

    def _predict(self) -> None:
        """Schedule the single wakeup at the next decision point."""
        if self._timer is None or self._closed or self._advancing:
            return
        now = self._advanced_to
        t_next = self._next_signal_arrival()
        active = self._active
        if active is not None and active.started_at is not None:
            boundary = math.inf
            senders = []
            for sf in self.subflows:
                if not sf.path.enabled:
                    continue
                after = sf.usable_after
                if now < after:
                    if after < boundary:
                        boundary = after
                    continue
                change = sf.path.next_change(now)
                if change < boundary:
                    boundary = change
                senders.append(sf)
            if boundary < t_next:
                t_next = boundary
            sendable = active.sendable
            if senders and sendable > _EPSILON:
                if self._completion is None:
                    self._completion = self._predict_completion(
                        now, senders, sendable, t_next)
                if self._completion is not None and self._completion < t_next:
                    t_next = self._completion
            if self.controller is not None:
                wanted = self.controller.next_decision(self.sim.now, active,
                                                       self)
                if wanted is not None and wanted < t_next:
                    t_next = wanted
        self._timer.set(t_next if math.isfinite(t_next) else None)

    def _predict_completion(self, now: float, senders: List[Subflow],
                            sendable: float, bound: float) -> Optional[float]:
        """Solve when the active transfer's sendable bytes finish landing.

        Only valid while rates stay quiescent, so the solution is capped
        at ``bound`` (the nearest rate-changing boundary); past it the
        prediction is left uncached and re-solved at that boundary's
        wakeup.  Returns an absolute time or None.
        """
        if len(senders) == 1:
            finish = now + senders[0].time_to_deliver(now, sendable)
            return finish if finish <= bound else None
        if math.isinf(bound):
            # Bracket with the fastest path carrying everything alone.
            alone = min(sf.time_to_deliver(now, sendable) for sf in senders)
            if math.isinf(alone):
                return None
            span = alone
        else:
            span = bound - now
            if sum(sf.potential(now, span) for sf in senders) < sendable:
                return None
        return now + self._solve_span(senders, now, span, sendable)

    def flush_activity(self) -> None:
        """Close every path's open activity bin (see :meth:`_close_bins`).

        Until a path's deliveries cross into the next activity bin, its
        current bin rides in the connection; callers reading the activity
        log mid-session should flush first.  :meth:`close` does this
        automatically.
        """
        for name, pending in self._open_bins.items():
            if pending[2] > 0:
                self._close_bins(name, ((pending[1], pending[2]),))
        self._open_bins.clear()

    def close(self) -> None:
        """Stop the kernel (ends the connection's simulation activity)."""
        if self._timer is not None:
            self._sync_state()
            self._timer.cancel()
        else:
            self._ticker.stop()
        self.flush_activity()
        self._closed = True

    def __repr__(self) -> str:
        return (f"<MptcpConnection paths={self.path_names()} "
                f"scheduler={self.scheduler.name} busy={self.busy}>")
