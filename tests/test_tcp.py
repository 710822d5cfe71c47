"""Tests for the fluid TCP subflow model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.tcp import (INITIAL_CWND, MIN_RTO, QUEUE_ALLOWANCE, TcpState,
                           curve_delivered, delivery_curve,
                           integrate_window)
from repro.net.units import PACKET_SIZE, mbps


RTT = 0.05
BW = mbps(10.0)


def advance_for(tcp, start, duration, bw, dt=0.01):
    """Drive the window forward while continuously sending."""
    t = start
    delivered = 0.0
    while t < start + duration - 1e-12:
        delivered += tcp.advance(t, dt, bw, sending=True)
        t += dt
    return delivered, t


class TestSlowStart:
    def test_starts_at_initial_window(self):
        tcp = TcpState(RTT)
        assert tcp.cwnd == INITIAL_CWND

    def test_window_roughly_doubles_per_rtt(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, RTT, BW)
        assert tcp.cwnd == pytest.approx(2 * INITIAL_CWND, rel=0.1)

    def test_rate_capped_by_available_bandwidth(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 2.0, BW)  # plenty of time to saturate
        assert tcp.rate(BW) == pytest.approx(BW)

    def test_rate_capped_by_window(self):
        tcp = TcpState(RTT)
        assert tcp.rate(BW) == pytest.approx(INITIAL_CWND / RTT)

    def test_delivery_approaches_bandwidth_delay_product(self):
        tcp = TcpState(RTT)
        delivered, _ = advance_for(tcp, 0.0, 5.0, BW)
        # After the ramp the link should be nearly saturated.
        assert delivered >= 0.85 * BW * 5.0

    def test_invalid_rtt_rejected(self):
        with pytest.raises(ValueError):
            TcpState(0.0)


class TestCongestionAvoidance:
    def test_window_stops_at_queue_ceiling(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 10.0, BW)
        bdp = BW * RTT
        assert tcp.cwnd <= bdp * 1.3 + PACKET_SIZE

    def test_window_shrinks_when_bandwidth_drops(self):
        tcp = TcpState(RTT)
        _, t = advance_for(tcp, 0.0, 5.0, BW)
        high_cwnd = tcp.cwnd
        advance_for(tcp, t, 3.0, BW / 10.0)
        assert tcp.cwnd < high_cwnd
        assert tcp.rate(BW / 10.0) == pytest.approx(BW / 10.0)


class TestIdleRestart:
    def test_long_idle_decays_window(self):
        tcp = TcpState(RTT)
        _, t = advance_for(tcp, 0.0, 5.0, BW)
        saturated = tcp.cwnd
        # Idle for many RTOs, then resume.
        resume = t + 10.0
        tcp.advance(resume, 0.01, BW, sending=True)
        assert tcp.cwnd < saturated

    def test_short_gap_keeps_window(self):
        tcp = TcpState(RTT)
        _, t = advance_for(tcp, 0.0, 5.0, BW)
        saturated = tcp.cwnd
        tcp.advance(t + MIN_RTO / 2, 0.01, BW, sending=True)
        assert tcp.cwnd >= saturated * 0.9

    def test_idle_never_drops_below_initial_window(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 5.0, BW)
        tcp.advance(1e6, 0.01, BW, sending=True)
        assert tcp.cwnd >= INITIAL_CWND

    def test_not_sending_delivers_nothing(self):
        tcp = TcpState(RTT)
        assert tcp.advance(0.0, 0.01, BW, sending=False) == 0.0


class TestReset:
    def test_reset_restores_initial_state(self):
        tcp = TcpState(RTT)
        advance_for(tcp, 0.0, 5.0, BW)
        tcp.reset()
        assert tcp.cwnd == INITIAL_CWND
        assert tcp.ssthresh == float("inf")


_LN2 = math.log(2.0)


def reference_integrate_window(cwnd, ssthresh, rtt, bw, dt_limit=math.inf,
                               bytes_limit=math.inf):
    """The closed-form integral written with min()/max(): the oracle."""
    bdp = bw * rtt
    ceiling = bdp * (1.0 + QUEUE_ALLOWANCE)
    cap = max(ceiling, INITIAL_CWND)
    c = cwnd
    if c > cap:
        c = cap
        ssthresh = max(c, INITIAL_CWND)
    delivered = 0.0
    elapsed = 0.0

    target = min(ssthresh, bdp)
    if elapsed < dt_limit and delivered < bytes_limit and c < target:
        tau = rtt * math.log2(target / c)
        tau = min(tau, dt_limit - elapsed)
        budget = bytes_limit - delivered
        tau_bytes = rtt * math.log2(1.0 + budget * _LN2 / c)
        tau = min(tau, tau_bytes)
        delivered += c * (2.0 ** (tau / rtt) - 1.0) / _LN2
        c = min(c * 2.0 ** (tau / rtt), target)
        elapsed += tau

    if elapsed < dt_limit and delivered < bytes_limit and c < bdp:
        tau = (bdp - c) * rtt / PACKET_SIZE
        tau = min(tau, dt_limit - elapsed)
        budget = bytes_limit - delivered
        half_a = PACKET_SIZE / (2.0 * rtt)
        tau_bytes = ((math.sqrt(c * c + 4.0 * half_a * budget * rtt) - c)
                     / (2.0 * half_a))
        tau = min(tau, tau_bytes)
        delivered += (c * tau + half_a * tau * tau) / rtt
        c = min(c + PACKET_SIZE * tau / rtt, bdp)
        elapsed += tau

    if elapsed < dt_limit and delivered < bytes_limit and c < ceiling:
        tau = (ceiling - c) * rtt / PACKET_SIZE
        tau = min(tau, dt_limit - elapsed)
        if bw > 0:
            tau = min(tau, (bytes_limit - delivered) / bw)
        delivered += bw * tau
        c = min(c + PACKET_SIZE * tau / rtt, ceiling)
        elapsed += tau

    if elapsed < dt_limit and delivered < bytes_limit:
        if math.isfinite(dt_limit):
            tau = dt_limit - elapsed
            if bw > 0:
                tau = min(tau, (bytes_limit - delivered) / bw)
            delivered += bw * tau
            elapsed += tau
        elif bw > 0:
            tau = (bytes_limit - delivered) / bw
            delivered += bw * tau
            elapsed += tau
        else:
            elapsed = math.inf

    return delivered, elapsed, c, ssthresh


def identical(actual, expected):
    """Equal value *and* type, item by item (``inf`` included)."""
    return [repr(x) for x in actual] == [repr(x) for x in expected]


_cwnds = st.one_of(st.just(float(INITIAL_CWND)), st.just(INITIAL_CWND),
                   st.floats(1.0, 1e7))
_ssthreshes = st.one_of(st.just(math.inf), st.floats(1.0, 1e7))
_rtts = st.floats(1e-3, 1.0)
_bandwidths = st.one_of(st.just(0.0), st.floats(1.0, 1e8))
_dt_limits = st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.0, 60.0))
_byte_limits = st.one_of(st.just(math.inf), st.just(0.0),
                         st.floats(0.0, 1e8))


class TestIntegrateWindowExactness:
    @given(_cwnds, _ssthreshes, _rtts, _bandwidths, _dt_limits,
           _byte_limits)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, cwnd, ssthresh, rtt, bw, dt_limit,
                               bytes_limit):
        assert identical(
            integrate_window(cwnd, ssthresh, rtt, bw, dt_limit, bytes_limit),
            reference_integrate_window(cwnd, ssthresh, rtt, bw, dt_limit,
                                       bytes_limit))

    def test_unreachable_target_takes_forever(self):
        result = integrate_window(float(INITIAL_CWND), math.inf, RTT, 0.0,
                                  bytes_limit=1e6)
        assert result[1] == math.inf
        assert identical(result, reference_integrate_window(
            float(INITIAL_CWND), math.inf, RTT, 0.0, bytes_limit=1e6))


class TestDeliveryCurve:
    @given(_cwnds, _ssthreshes, _rtts, _bandwidths,
           st.lists(_dt_limits, min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_matches_integrate_window(self, cwnd, ssthresh, rtt, bw, dts):
        curve = delivery_curve(cwnd, ssthresh, rtt, bw)
        for dt in dts:
            assert identical(
                [curve_delivered(curve, dt)],
                [integrate_window(cwnd, ssthresh, rtt, bw, dt_limit=dt)[0]])

    @given(_cwnds, _ssthreshes, _rtts, _bandwidths)
    @settings(max_examples=100, deadline=None)
    def test_matches_across_every_phase(self, cwnd, ssthresh, rtt, bw):
        """A geometric sweep from far inside slow start to long after the
        window pins, each point with its float neighbours."""
        curve = delivery_curve(cwnd, ssthresh, rtt, bw)
        for k in range(-30, 60):
            point = rtt * 1.25 ** k
            for dt in (math.nextafter(point, 0.0), point,
                       math.nextafter(point, math.inf)):
                assert identical(
                    [curve_delivered(curve, dt)],
                    [integrate_window(cwnd, ssthresh, rtt, bw,
                                      dt_limit=dt)[0]])
