"""The deadline-aware MP-DASH scheduler (Algorithm 1 of the paper).

Given a chunk of size ``S`` and a download window ``D``, the scheduler
drives the preferred (cheapest) path at full capacity and keeps the costlier
paths off; after every scheduling step it re-checks whether the preferred
path alone can still deliver the remaining bytes before the (α-shrunk)
deadline, enabling the next-costlier path when it cannot and disabling it
again when it can:

    enable  iff (α·D − timeSpent) · R_preferred < S − sentBytes
    disable iff (α·D − timeSpent) · R_preferred > S − sentBytes

``α ≤ 1`` trades cellular bytes for deadline safety: smaller α targets an
earlier virtual deadline, compensating for throughput-estimation error.

The N-path generalization (§4, "cost-varying version") sorts interfaces by
cost and finds the smallest prefix whose combined predicted throughput can
meet the deadline, enabling exactly that prefix.  With two paths this
reduces to Algorithm 1 verbatim.

This class plugs into :class:`~repro.mptcp.connection.MptcpConnection` as a
:class:`~repro.mptcp.connection.PathController`; enable/disable decisions
therefore incur the DSS signaling delay, as in the kernel implementation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..mptcp.connection import MptcpConnection, PathController, Transfer
from ..obs.events import DeadlineMissed, SchedulerActivated
from .policy import Preference


class Activation:
    """State of one MP_DASH_ENABLE activation (one chunk download)."""

    __slots__ = ("size", "window", "started_at", "transfer_id", "missed")

    def __init__(self, size: float, window: float, started_at: float,
                 transfer_id: int):
        self.size = size
        self.window = window
        self.started_at = started_at
        self.transfer_id = transfer_id
        self.missed = False

    def deadline(self) -> float:
        return self.started_at + self.window


class DeadlineAwareScheduler(PathController):
    """Online deadline-aware path controller (Algorithm 1, N-path form)."""

    def __init__(self, preference: Preference, alpha: float = 1.0):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1]: {alpha!r}")
        self.preference = preference
        self.alpha = alpha
        self._pending: Optional[tuple] = None  # (size, window)
        self._activation: Optional[Activation] = None
        # The connection this controller steers; bound explicitly by
        # MpDashSocket and lazily by the PathController hooks, so that
        # disarm() can restore path state even between transfers.
        self._connection: Optional[MptcpConnection] = None
        # ``_ordered_names`` result, keyed by the connection it was
        # computed for: a connection's paths are fixed at construction.
        self._names_for: Optional[MptcpConnection] = None
        self._names: List[str] = []
        # Statistics across the controller's lifetime.
        self.activations = 0
        self.deadline_misses = 0
        self.enable_events = 0
        self.disable_events = 0

    # ------------------------------------------------------------------
    # Socket-option front-end (used by MpDashSocket)
    # ------------------------------------------------------------------
    def arm(self, size: float, window: float) -> None:
        """MP_DASH_ENABLE: activate for the next ``size`` bytes."""
        if size <= 0:
            raise ValueError(f"size must be positive: {size!r}")
        if window <= 0:
            raise ValueError(f"deadline window must be positive: {window!r}")
        self._pending = (size, window)

    def bind(self, connection: MptcpConnection) -> None:
        """Remember the connection this controller steers."""
        self._connection = connection

    def disarm(self) -> None:
        """MP_DASH_DISABLE: deactivate explicitly.

        Deactivated MP-DASH means vanilla MPTCP (§3.1): every path must
        come back, exactly as in :meth:`on_transfer_complete` — without
        the restore the connection stays wedged on whatever subset the
        last activation happened to request.
        """
        self._pending = None
        self._activation = None
        if self._connection is not None:
            for name in self._connection.path_names():
                self._connection.request_path_state(name, True)

    @property
    def active(self) -> bool:
        return self._activation is not None

    # ------------------------------------------------------------------
    # PathController interface
    # ------------------------------------------------------------------
    def on_transfer_start(self, now: float, transfer: Transfer,
                          connection: MptcpConnection) -> None:
        self._connection = connection
        if self._pending is None:
            return
        size, window = self._pending
        self._pending = None
        self._activation = Activation(size, window, now, transfer.id)
        self.activations += 1
        connection.bus.publish(SchedulerActivated(now, transfer.id, size,
                                                  window))

    def on_transfer_complete(self, now: float, transfer: Transfer,
                             connection: MptcpConnection) -> None:
        activation = self._activation
        if activation is None or activation.transfer_id != transfer.id:
            return
        # Deactivation condition (1): S bytes successfully transferred.
        # Deactivated MP-DASH means vanilla MPTCP: every path available.
        self._activation = None
        for name in connection.path_names():
            connection.request_path_state(name, True)

    def on_tick(self, now: float, transfer: Optional[Transfer],
                connection: MptcpConnection) -> Optional[Dict[str, bool]]:
        self._connection = connection
        activation = self._activation
        if activation is None or transfer is None:
            return None
        if activation.transfer_id != transfer.id:
            return None

        # Deactivation condition (2): the deadline has passed.  From then on
        # every interface is used (the transfer is already late).
        if now >= activation.deadline():
            if not activation.missed:
                activation.missed = True
                self.deadline_misses += 1
                connection.bus.publish(DeadlineMissed(now, transfer.id))
            self._activation = None
            desired = {name: True for name in connection.path_names()}
            self._count_flips(connection, desired)
            return desired

        remaining = activation.size - min(transfer.bytes_done,
                                          activation.size)
        # A decision made now reaches the server one signaling delay (plus
        # up to two scheduling ticks) later; budget for it, otherwise a
        # just-in-time cellular enable lands after the deadline.
        guard = connection.signaling_delay + 2.0 * connection.tick_interval
        time_left = (self.alpha * activation.window
                     - (now - activation.started_at) - guard)
        desired = self._desired_states(connection, remaining, time_left)
        self._count_flips(connection, desired)
        return desired

    def next_decision(self, now: float, transfer: Optional[Transfer],
                      connection: MptcpConnection) -> Optional[float]:
        """Predict when the Algorithm 1 condition next flips (fast kernel).

        Between kernel wakeups every quantity in the enable/disable test
        moves linearly: the time budget shrinks at rate 1 and the
        remaining bytes at the current aggregate delivery rate ``r``.  For
        each cost-ordered prefix with predicted capacity ``C`` the
        condition ``(A - t)·C >= R - r·t`` therefore crosses at

            t = (R - A·C) / (r - C)

        (one formula covers both directions).  The earliest positive
        crossing, the activation deadline, and — while any estimator is
        still cold — a short bootstrap poll are candidate wakeups; the
        kernel re-evaluates :meth:`on_tick` there with fresh state, so an
        inaccurate linear prediction costs one extra wakeup, never a wrong
        decision.
        """
        activation = self._activation
        if (activation is None or transfer is None
                or activation.transfer_id != transfer.id):
            return None
        deadline = activation.deadline()
        if now >= deadline:
            return None
        earliest = deadline
        floor = now + connection.tick_interval
        guard = connection.signaling_delay + 2.0 * connection.tick_interval
        budget = (self.alpha * activation.window
                  - (now - activation.started_at) - guard)
        remaining = activation.size - min(transfer.bytes_done,
                                          activation.size)
        names = self._ordered_names(connection)
        estimates = {}
        cold = False
        rate = 0.0
        for name in names:
            estimate = connection.throughput_estimate(name)
            if estimate is None:
                cold = True
                estimate = 0.0
            estimates[name] = estimate
            if connection.path_state(name):
                rate += estimate
        if cold:
            # Estimators warm within a sample interval; poll until the
            # first real capacity numbers exist.
            earliest = min(earliest, now + 0.1)
        else:
            # The linear crossing below assumes the estimates hold still.
            # After a link-capacity change they do not: the estimator
            # drifts toward the new rate one sample at a time, and the
            # enable condition can flip long before the stale-estimate
            # crossing.  While any delivering path's estimate disagrees
            # with its instantaneous capacity, check whether the *decision*
            # would differ under ground-truth capacities: if so a flip is
            # imminent as samples arrive, so poll at sample cadence (the
            # estimator cannot converge faster, so no decision the tick
            # kernel would have made is missed).  If the decisions agree,
            # the drift is cosmetic — a coarse safety poll suffices, which
            # is what keeps wandering-trace (mobility) workloads from
            # waking at 20 Hz through every download.
            drifting = False
            actuals: Dict[str, float] = {}
            for name in names:
                actual = connection.path_capacity(name)
                actuals[name] = actual
                estimate = estimates[name]
                if (connection.path_state(name) and estimate > 0.0
                        and abs(estimate - actual)
                        > 0.25 * max(actual, estimate)):
                    drifting = True
            if drifting:
                if (self._prefix_decision(names, estimates, remaining,
                                          budget)
                        != self._prefix_decision(names, actuals, remaining,
                                                 budget)):
                    earliest = min(earliest, now + 0.05)
                else:
                    earliest = min(earliest, now + 0.25)
        capacity = 0.0
        for name in names[:-1]:
            capacity += estimates[name]
            denominator = rate - capacity
            if denominator == 0.0:
                continue
            crossing = (remaining - max(budget, 0.0) * capacity) / denominator
            if crossing > 0.0 and math.isfinite(crossing):
                candidate = max(now + crossing, floor)
                if candidate < earliest:
                    earliest = candidate
        return max(earliest, floor)

    # ------------------------------------------------------------------
    # Decision core
    # ------------------------------------------------------------------
    def _prefix_decision(self, names: List[str], rates: Dict[str, float],
                         remaining: float, time_left: float) -> tuple:
        """The enabled-prefix Algorithm 1 would pick under ``rates``.

        Same cost-ordered-prefix rule as :meth:`_desired_states`, but over
        caller-supplied rate numbers — used to compare the decision under
        current estimates against the decision under ground-truth
        capacities without touching connection state.
        """
        desired = []
        capacity_so_far = 0.0
        need_more = True
        budget = max(time_left, 0.0)
        for index, name in enumerate(names):
            desired.append(True if index == 0 else need_more)
            capacity_so_far += rates[name]
            if budget * capacity_so_far >= remaining:
                need_more = False
        return tuple(desired)

    def _desired_states(self, connection: MptcpConnection, remaining: float,
                        time_left: float) -> Dict[str, bool]:
        """Smallest cost-ordered prefix of paths that can meet the deadline.

        The preferred path is always on (MP-DASH drives it at full
        capacity); each costlier path turns on only while the combined
        predicted capacity of all cheaper paths cannot deliver the
        remaining bytes in the time left.
        """
        names = self._ordered_names(connection)
        desired: Dict[str, bool] = {}
        capacity_so_far = 0.0
        need_more = True
        for index, name in enumerate(names):
            if index == 0:
                desired[name] = True
            else:
                desired[name] = need_more
            estimate = connection.throughput_estimate(name)
            if estimate is None:
                # Cold estimator: assume the path contributes nothing, which
                # errs toward enabling costlier paths (conservative, same
                # spirit as alpha < 1).
                estimate = 0.0
            capacity_so_far += estimate
            if max(time_left, 0.0) * capacity_so_far >= remaining:
                need_more = False
        return desired

    def _ordered_names(self, connection: MptcpConnection) -> List[str]:
        if connection is self._names_for:
            return self._names
        known = set(connection.path_names())
        ordered = [n for n in self.preference.order if n in known]
        missing = known - set(ordered)
        if missing:
            raise KeyError(
                f"connection has paths outside the preference: "
                f"{sorted(missing)} (preference {self.preference.order})")
        self._names_for = connection
        self._names = ordered
        return ordered

    def _count_flips(self, connection: MptcpConnection,
                     desired: Dict[str, bool]) -> None:
        for name, enabled in desired.items():
            current = connection.path_state(name)
            if enabled and not current:
                self.enable_events += 1
            elif not enabled and current:
                self.disable_events += 1

    def __repr__(self) -> str:
        state = "active" if self.active else "idle"
        return (f"<DeadlineAwareScheduler {state} alpha={self.alpha} "
                f"pref={self.preference.order}>")
