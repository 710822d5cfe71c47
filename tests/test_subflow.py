"""Tests for the subflow wrapper."""

import pytest

from repro.estimators import Ewma
from repro.mptcp.subflow import Subflow
from repro.net.link import Path
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps


def _path(enabled=True, bw=mbps(8.0)):
    return Path("wifi", BandwidthTrace.constant(bw), rtt=0.05,
                enabled=enabled)


class TestDelivery:
    def test_disabled_path_delivers_nothing(self):
        sf = Subflow(_path(enabled=False))
        assert sf.deliverable(0.0, 0.01) == 0.0
        assert sf.advance(0.0, 0.01, sending=True) == 0.0

    def test_enabled_path_delivers(self):
        sf = Subflow(_path())
        assert sf.advance(0.0, 0.01, sending=True) > 0.0

    def test_account_accumulates_total(self):
        sf = Subflow(_path())
        sf.account(100.0, 0.01)
        sf.account(50.0, 0.01)
        assert sf.total_bytes == 150.0


class TestEstimation:
    def test_estimate_cold_before_samples(self):
        sf = Subflow(_path())
        assert sf.throughput_estimate() is None

    def test_estimate_warms_after_enough_busy_time(self):
        sf = Subflow(_path())
        # Feed one full sample interval of activity at 1 MB/s.
        for _ in range(10):
            sf.account(10_000.0, 0.01)
        assert sf.throughput_estimate() == pytest.approx(1e6, rel=0.01)

    def test_custom_estimator_used(self):
        sf = Subflow(_path(), estimator=Ewma(alpha=1.0))
        for _ in range(10):
            sf.account(5_000.0, 0.01)
        assert sf.throughput_estimate() == pytest.approx(5e5, rel=0.01)

    def test_idle_ticks_do_not_feed_estimator(self):
        sf = Subflow(_path())
        sf.account(0.0, 0.01)
        assert sf.throughput_estimate() is None

    def test_reset_tcp(self):
        sf = Subflow(_path())
        sf.advance(0.0, 1.0, sending=True)
        sf.reset_tcp()
        assert sf.tcp.cwnd == pytest.approx(sf.tcp.cwnd)
        assert sf.tcp.last_send_time is None


class TestPinnedSpanBins:
    """Once the window is pinned, ``deliver_analytic`` merges into the
    caller's open bin in place and hands finished bins over in one
    batch, with no per-step ``emit``."""

    BW = mbps(8.0)

    def _pinned(self):
        sf = Subflow(_path(bw=self.BW))
        open_bins = {}

        def emit(name, index, time, delivered):
            pending = open_bins.get(name)
            if pending is None or pending[0] != index:
                open_bins[name] = [index, time, delivered]
            else:
                pending[2] += delivered

        sf.deliver_analytic(0.0, 5.0, 0.1, open_bins, emit,
                            lambda name, closed: None)
        assert sf.tcp.pinned_rate(5.0, self.BW) is not None
        return sf

    def _no_emit(self, *args):
        raise AssertionError("emit called on a pinned span")

    def test_opens_a_bin_when_none_is_open(self):
        sf = self._pinned()
        open_bins, batches = {}, []
        total = sf.deliver_analytic(
            5.0, 5.35, 0.1, open_bins, self._no_emit,
            lambda name, closed: batches.append((name, list(closed))))
        assert total == pytest.approx(self.BW * 0.35)
        [(name, closed)] = batches
        assert name == "wifi"
        assert [t for t, _ in closed] == pytest.approx([5.0, 5.1, 5.2])
        assert [b for _, b in closed] == pytest.approx([self.BW * 0.1] * 3)
        index, first, pending = open_bins["wifi"]
        assert (index, first) == (53, pytest.approx(5.3))
        assert pending == pytest.approx(self.BW * 0.05)

    def test_merges_into_the_open_bin(self):
        sf = self._pinned()
        open_bins = {"wifi": [50, 5.0, 100.0]}
        batches = []
        sf.deliver_analytic(
            5.05, 5.12, 0.1, open_bins, self._no_emit,
            lambda name, closed: batches.append(list(closed)))
        assert batches == [[(5.0, pytest.approx(100.0 + self.BW * 0.05))]]
        index, first, pending = open_bins["wifi"]
        assert (index, first) == (51, pytest.approx(5.1))
        assert pending == pytest.approx(self.BW * 0.02)
