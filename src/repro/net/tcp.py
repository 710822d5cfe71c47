"""Fluid-flow model of a single TCP subflow's sending rate.

The full packet-level behaviour of TCP is not needed to reproduce MP-DASH:
what matters to the paper's results is the *shape* of per-path throughput
over time —

* slow-start ramp at connection start and after idle periods (DASH traffic
  is on/off, so every chunk download after a buffer-full gap restarts from
  a reduced window; this is why the throttling baseline of Table 4 "dribbles"
  and why MP-DASH's burst-then-idle pattern is radio-energy friendly),
* congestion-avoidance tracking of the available bandwidth, and
* immediate rate collapse when the trace drops (the driver of cellular
  re-enablement in Algorithm 1).

We therefore model each subflow with a congestion window evolving in
continuous time: exponential growth below the bandwidth-delay product
(slow start), additive growth above it up to a small queue allowance
(congestion avoidance), and window restart after an idle period longer than
the retransmission timeout, per RFC 2861's congestion-window validation.
"""

from __future__ import annotations

import math

from .units import PACKET_SIZE


#: Initial congestion window, bytes (10 segments, RFC 6928).
INITIAL_CWND = 10 * PACKET_SIZE

#: How much standing queue (as a fraction of BDP) the window may build
#: before the model stops growing it.  Small, because the paper's testbed is
#: explicitly configured to avoid bufferbloat.
QUEUE_ALLOWANCE = 0.25

#: Minimum retransmission timeout; idle longer than max(RTO, 2*RTT) causes a
#: window restart.
MIN_RTO = 0.2

_LN2 = math.log(2.0)


def integrate_window(cwnd: float, ssthresh: float, rtt: float, bw: float,
                     dt_limit: float = math.inf,
                     bytes_limit: float = math.inf) -> tuple:
    """Integrate the fluid window in closed form under constant bandwidth.

    Starting from ``(cwnd, ssthresh)``, run the same dynamics as
    :meth:`TcpState.advance` in their continuous (dt → 0) limit until either
    ``dt_limit`` seconds elapse or ``bytes_limit`` bytes have been delivered,
    whichever comes first.  Returns ``(bytes, elapsed, cwnd, ssthresh)``.

    The trajectory decomposes into at most four phases, each with an exact
    bytes-delivered integral and an exact inverse:

    1. *Slow start* below ``min(ssthresh, bdp)``: the window doubles once
       per RTT, so ``F(t) = c0 * (2**(t/rtt) - 1) / ln 2``.
    2. *Congestion avoidance* below the BDP: linear window growth of one
       segment per RTT, ``F(t) = (c0*t + PACKET_SIZE*t**2/(2*rtt)) / rtt``.
    3. *Queue-filling* between the BDP and the ceiling: the delivery rate is
       pinned at ``bw`` while the window keeps growing linearly.
    4. *Pinned* at the ceiling: ``F(t) = bw * t`` forever.

    A window above the ceiling (the trace dropped) collapses immediately:
    the tick kernel halves it toward the ceiling over a few ticks, but the
    delivered bytes are identical either way because the rate is already
    clipped to ``bw``, so the continuous limit is an instant drop.

    ``elapsed`` is ``math.inf`` when ``bytes_limit`` can never be reached
    (zero bandwidth).  The function is pure; callers apply idle-restart
    before integrating (see :meth:`TcpState.window_after_restart`).
    """
    # Conditional expressions stand in for min()/max() (this is the
    # kernel's innermost call), each returning exactly the operand the
    # builtin would.  A limit of ``inf`` leaves its ``tau_bytes`` at
    # ``inf``, which cannot shorten a phase, so it is not computed.
    bdp = bw * rtt
    ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
    cap = INITIAL_CWND if INITIAL_CWND > ceiling else ceiling
    c = cwnd
    if c > cap:
        c = cap
        ssthresh = INITIAL_CWND if INITIAL_CWND > c else c
    delivered = 0.0
    elapsed = 0.0

    # Phase 1: slow start (rate = c/rtt, window doubles per RTT).
    target = bdp if bdp < ssthresh else ssthresh
    if elapsed < dt_limit and delivered < bytes_limit and c < target:
        tau = rtt * math.log2(target / c)
        left = dt_limit - elapsed
        if left < tau:
            tau = left
        budget = bytes_limit - delivered
        if budget != math.inf:
            tau_bytes = rtt * math.log2(1.0 + budget * _LN2 / c)
            if tau_bytes < tau:
                tau = tau_bytes
        growth = 2.0 ** (tau / rtt)
        delivered += c * (growth - 1.0) / _LN2
        c = c * growth
        if target < c:
            c = target
        elapsed += tau

    # Phase 2: congestion avoidance below the BDP (rate = c/rtt, linear
    # growth of one segment per RTT).
    if elapsed < dt_limit and delivered < bytes_limit and c < bdp:
        tau = (bdp - c) * rtt / PACKET_SIZE
        left = dt_limit - elapsed
        if left < tau:
            tau = left
        budget = bytes_limit - delivered
        half_a = PACKET_SIZE / (2.0 * rtt)
        if budget != math.inf:
            tau_bytes = ((math.sqrt(c * c + 4.0 * half_a * budget * rtt) - c)
                         / (2.0 * half_a))
            if tau_bytes < tau:
                tau = tau_bytes
        delivered += (c * tau + half_a * tau * tau) / rtt
        c = c + PACKET_SIZE * tau / rtt
        if bdp < c:
            c = bdp
        elapsed += tau

    # Phase 3: between the BDP and the ceiling the rate is pinned at bw but
    # the window still grows (the standing-queue allowance filling up).
    if elapsed < dt_limit and delivered < bytes_limit and c < ceiling:
        tau = (ceiling - c) * rtt / PACKET_SIZE
        left = dt_limit - elapsed
        if left < tau:
            tau = left
        if bw > 0:
            tau_bytes = (bytes_limit - delivered) / bw
            if tau_bytes < tau:
                tau = tau_bytes
        delivered += bw * tau
        c = c + PACKET_SIZE * tau / rtt
        if ceiling < c:
            c = ceiling
        elapsed += tau

    # Phase 4: pinned at the ceiling; rate = bw, no further growth.
    if elapsed < dt_limit and delivered < bytes_limit:
        if math.isfinite(dt_limit):
            tau = dt_limit - elapsed
            if bw > 0:
                tau_bytes = (bytes_limit - delivered) / bw
                if tau_bytes < tau:
                    tau = tau_bytes
            delivered += bw * tau
            elapsed += tau
        elif bw > 0:
            tau = (bytes_limit - delivered) / bw
            delivered += bw * tau
            elapsed += tau
        else:
            elapsed = math.inf

    return delivered, elapsed, c, ssthresh


def delivery_curve(cwnd: float, ssthresh: float, rtt: float,
                   bw: float) -> tuple:
    """Prepare :func:`curve_delivered` for one window state.

    For the completion solver, which bisects over one window state: with
    no byte limit, each phase the trajectory completes before ``dt`` ends
    in a state that does not depend on ``dt``, so those states are
    computed once here.  The result is an opaque plain tuple: the solver
    builds one per sender per solve, and a tuple is the cheapest record
    to build and unpack.
    """
    inf = math.inf
    bdp = bw * rtt
    ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
    cap = INITIAL_CWND if INITIAL_CWND > ceiling else ceiling
    c0 = cwnd
    if c0 > cap:
        c0 = cap
        ssthresh = INITIAL_CWND if INITIAL_CWND > c0 else c0
    target = bdp if bdp < ssthresh else ssthresh
    half_a = PACKET_SIZE / (2.0 * rtt)

    # Phase durations and the (elapsed, delivered, window) each phase
    # ends in when run in full; a phase that does not apply leaves them.
    e1, d1, c1, t1 = 0.0, 0.0, c0, 0.0
    slow = c0 < target
    if slow:
        t1 = rtt * math.log2(target / c0)
        growth = 2.0 ** (t1 / rtt)
        d1 = 0.0 + c0 * (growth - 1.0) / _LN2
        c1 = c0 * growth
        if target < c1:
            c1 = target
        e1 = 0.0 + t1
    e2, d2, c2, t2 = e1, d1, c1, 0.0
    avoid = d1 < inf and c1 < bdp
    if avoid:
        t2 = (bdp - c1) * rtt / PACKET_SIZE
        d2 = d1 + (c1 * t2 + half_a * t2 * t2) / rtt
        c2 = c1 + PACKET_SIZE * t2 / rtt
        if bdp < c2:
            c2 = bdp
        e2 = e1 + t2
    e3, d3, t3 = e2, d2, 0.0
    fill = d2 < inf and c2 < ceiling
    if fill:
        t3 = (ceiling - c2) * rtt / PACKET_SIZE
        d3 = d2 + bw * t3
        e3 = e2 + t3
    return (slow, t1, c0, rtt, e1, d1, avoid, t2, c1, half_a, bdp, ceiling,
            bw, e2, d2, fill, t3, e3, d3)


def curve_delivered(curve: tuple, dt: float) -> float:
    """``integrate_window(cwnd, ssthresh, rtt, bw, dt_limit=dt)[0]``.

    ``curve`` comes from :func:`delivery_curve`.  Only the phase ``dt``
    ends in, and any sliver after it, is evaluated, with the float
    operations of :func:`integrate_window`, so the result is identical.
    """
    if not 0.0 < dt:
        return 0.0
    (slow, t1, c0, rtt, e1, d1, avoid, t2, c1, half_a, bdp, ceiling,
     bw, e2, d2, fill, t3, e3, d3) = curve
    if slow and dt < t1:
        return 0.0 + c0 * (2.0 ** (dt / rtt) - 1.0) / _LN2
    if not e1 < dt:
        return d1
    if avoid:
        tau = dt - e1
        if tau < t2:
            delivered = d1 + (c1 * tau + half_a * tau * tau) / rtt
            c = c1 + PACKET_SIZE * tau / rtt
            if bdp < c:
                c = bdp
            elapsed = e1 + tau
            # Phase 3 from this state, then phase 4.
            if elapsed < dt and delivered < math.inf and c < ceiling:
                tau = (ceiling - c) * rtt / PACKET_SIZE
                left = dt - elapsed
                if left < tau:
                    tau = left
                delivered += bw * tau
                elapsed += tau
            return _pinned_delivery(delivered, elapsed, dt, bw)
    if not e2 < dt:
        return d2
    if fill:
        tau = dt - e2
        if tau < t3:
            return _pinned_delivery(d2 + bw * tau, e2 + tau, dt, bw)
    return _pinned_delivery(d3, e3, dt, bw)


def _pinned_delivery(delivered: float, elapsed: float, dt: float,
                     bw: float) -> float:
    """Phase 4 of :func:`integrate_window` without a byte limit."""
    if elapsed < dt and delivered < math.inf:
        if math.isfinite(dt):
            return delivered + bw * (dt - elapsed)
        if bw > 0:
            return delivered + bw * ((math.inf - delivered) / bw)
    return delivered


class TcpState:
    """Congestion state of one subflow, advanced in fluid time steps."""

    def __init__(self, rtt: float):
        if rtt <= 0:
            raise ValueError(f"rtt must be positive: {rtt!r}")
        self.rtt = rtt
        #: Idle longer than this restarts the window (RFC 2861).
        self.rto = max(MIN_RTO, 2.0 * rtt)
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = float("inf")
        self.last_send_time: float = None  # type: ignore[assignment]
        #: Observability hook: called with ``now`` whenever the idle-restart
        #: rule actually collapses the window (the subflow layer publishes a
        #: ``CwndRestarted`` event through it).
        self.on_idle_restart = None

    # ------------------------------------------------------------------
    def rate(self, available_bw: float) -> float:
        """Current achievable sending rate in bytes/second.

        The window-limited rate is ``cwnd / rtt``; the path then clips it to
        the available bandwidth of the link at this instant.
        """
        return min(self.cwnd / self.rtt, available_bw)

    def advance(self, now: float, dt: float, available_bw: float,
                sending: bool) -> float:
        """Advance the window by ``dt`` seconds; return bytes deliverable.

        ``sending`` is True when the application has data queued for this
        subflow.  When idle, the window decays via the restart rule instead
        of growing.
        """
        if not sending:
            return 0.0
        self._maybe_idle_restart(now)
        self.last_send_time = now + dt

        bdp = available_bw * self.rtt
        ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
        if self.cwnd < min(self.ssthresh, bdp):
            # Slow start: the window doubles once per RTT.
            self.cwnd = min(self.cwnd * (2.0 ** (dt / self.rtt)),
                            max(ceiling, INITIAL_CWND))
        elif self.cwnd < ceiling:
            # Congestion avoidance: one segment per RTT.
            self.cwnd = min(self.cwnd + PACKET_SIZE * (dt / self.rtt),
                            max(ceiling, INITIAL_CWND))
        else:
            # The trace dropped (or we overshot): fast-recovery style halving
            # toward the new ceiling, and remember it as ssthresh.
            self.cwnd = max(ceiling, INITIAL_CWND, self.cwnd / 2.0)
            self.ssthresh = max(self.cwnd, INITIAL_CWND)
        return self.rate(available_bw) * dt

    # ------------------------------------------------------------------
    # Analytic (event-driven kernel) interface
    # ------------------------------------------------------------------
    def window_after_restart(self, now: float) -> tuple:
        """Pure preview of ``(cwnd, ssthresh)`` if sending resumed at ``now``.

        Applies the RFC 2861 idle-restart rule without mutating state or
        firing the observability hook — the fast kernel uses it to predict
        delivery over a span before committing it.
        """
        cwnd, ssthresh = self.cwnd, self.ssthresh
        if self.last_send_time is not None:
            idle = now - self.last_send_time
            rto = self.rto
            if idle > rto:
                halvings = min(int(idle / rto), 64)
                ssthresh = max(cwnd * 0.75, INITIAL_CWND)
                cwnd = max(cwnd / (2.0 ** halvings), INITIAL_CWND)
        return cwnd, ssthresh

    def pinned_rate(self, now: float,
                    available_bw: float) -> "Optional[float]":
        """``available_bw`` when the window is provably pinned, else None.

        Pinned means the send clock is warm (no idle-restart pending) and
        the window sits exactly at the phase-4 ceiling, so continuous
        sending proceeds at rate ``available_bw`` with no state evolution.
        Steady-state streaming spends nearly all its time here; callers use
        it to skip the full four-phase integral.  A window *above* the
        ceiling does not qualify: the first real advance must collapse it
        (and record ssthresh), which this fast path would skip.
        """
        last = self.last_send_time
        if last is None or now - last > self.rto:
            return None
        if self.cwnd != self.pinned_window(available_bw):
            return None
        return available_bw

    def pinned_window(self, available_bw: float) -> float:
        """The phase-4 ceiling window :meth:`pinned_rate` tests against."""
        ceiling = available_bw * self.rtt * (1.0 + QUEUE_ALLOWANCE)
        return INITIAL_CWND if INITIAL_CWND > ceiling else ceiling

    def potential_bytes(self, now: float, dt: float, available_bw: float) -> float:
        """Bytes this subflow could deliver over ``[now, now + dt]``.

        Pure closed-form integral under constant ``available_bw``, assuming
        continuous sending from the (idle-restarted) current window.
        """
        rate = self.pinned_rate(now, available_bw)
        if rate is not None:
            return rate * dt
        cwnd, ssthresh = self.window_after_restart(now)
        delivered, _, _, _ = integrate_window(cwnd, ssthresh, self.rtt,
                                              available_bw, dt_limit=dt)
        return delivered

    def time_to_deliver(self, now: float, target_bytes: float,
                        available_bw: float) -> float:
        """Seconds of continuous sending needed to deliver ``target_bytes``.

        Pure; ``math.inf`` when the target is unreachable (zero bandwidth).
        """
        rate = self.pinned_rate(now, available_bw)
        if rate is not None:
            return target_bytes / rate if rate > 0 else math.inf
        cwnd, ssthresh = self.window_after_restart(now)
        _, elapsed, _, _ = integrate_window(cwnd, ssthresh, self.rtt,
                                            available_bw,
                                            bytes_limit=target_bytes)
        return elapsed

    def advance_analytic(self, now: float, dt: float,
                         available_bw: float) -> float:
        """Commit ``dt`` seconds of continuous sending; return bytes delivered.

        The mutating counterpart of :meth:`potential_bytes`: equivalent to
        running :meth:`advance` with ``sending=True`` over infinitely many
        infinitesimal ticks covering ``[now, now + dt]``.
        """
        self._maybe_idle_restart(now)
        delivered, _, cwnd, ssthresh = integrate_window(
            self.cwnd, self.ssthresh, self.rtt, available_bw, dt_limit=dt)
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.last_send_time = now + dt
        return delivered

    def _maybe_idle_restart(self, now: float) -> None:
        """Apply RFC 2861 congestion-window validation after idle."""
        if self.last_send_time is None:
            return
        idle = now - self.last_send_time
        rto = self.rto
        if idle > rto:
            # Halve once per RTO elapsed, not below the initial window.  A
            # few dozen halvings already reach the floor; cap the exponent
            # so astronomically long idles cannot overflow.
            halvings = min(int(idle / rto), 64)
            self.ssthresh = max(self.cwnd * 0.75, INITIAL_CWND)
            self.cwnd = max(self.cwnd / (2.0 ** halvings), INITIAL_CWND)
            if self.on_idle_restart is not None:
                self.on_idle_restart(now)

    def reset(self) -> None:
        """Return to the initial (connection-start) state."""
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = float("inf")
        self.last_send_time = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"<TcpState cwnd={self.cwnd / PACKET_SIZE:.1f}pkts "
                f"rtt={self.rtt * 1000:.0f}ms>")
