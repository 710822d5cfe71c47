"""The connection's activity-bin sink and the bus's ``observes`` query.

A live connection writes its own activity bins and builds ``PacketSent``
only when someone listens.  These tests pin that shortcut to the plain
design it replaced: an ``ActivityLog`` attached to the bus, fed by a
``PacketSent`` for every closed bin.
"""

import pytest

from repro.experiments import SessionConfig, run_session
from repro.mptcp import connection as connection_module
from repro.mptcp.activity import ActivityLog
from repro.mptcp.connection import MptcpConnection
from repro.net.link import cellular_path, wifi_path
from repro.net.simulator import Simulator
from repro.net.trace import BandwidthTrace
from repro.net.units import mbps, megabytes
from repro.obs import EventBus, replay
from repro.obs.events import PacketSent, StallStart
from repro.obs.profile import ProfiledBus

KERNELS = ("fast", "tick")


def _config(kernel, trace_driven, **overrides):
    kwargs = dict(video_duration=40.0, mpdash=True, kernel=kernel)
    if trace_driven:
        kwargs.update(
            wifi_trace=BandwidthTrace.random_walk(mbps(3.0), 0.4, 120.0,
                                                  0.5, seed=3),
            lte_trace=BandwidthTrace.random_walk(mbps(2.0), 0.4, 120.0,
                                                 0.5, seed=4),
            wifi_mbps=None, lte_mbps=None)
    kwargs.update(overrides)
    return SessionConfig(**kwargs)


def _bins(activity):
    return {path: dict(bins) for path, bins in activity._bins.items()}


class TestLiveBinsMatchReplay:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("trace_driven", (True, False),
                             ids=("trace", "constant"))
    def test_live_activity_equals_replayed_log(self, kernel, trace_driven):
        result = run_session(_config(kernel, trace_driven,
                                     record_trace=True))
        live = result.connection.activity
        bus = EventBus()
        rebuilt = ActivityLog(live.bin_width)
        rebuilt.attach(bus)
        replay(result.events, bus)
        assert live.paths() == ["cellular", "wifi"]
        assert _bins(live) == _bins(rebuilt)


class TestUnobservedPacketSent:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_recorder_changes_nothing_but_event_construction(
            self, kernel, monkeypatch):
        built = []
        real = connection_module.new_packet_sent

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(connection_module, "new_packet_sent", counting)
        plain = run_session(_config(kernel, True))
        unbuilt = len(built)
        recorded = run_session(_config(kernel, True, record_trace=True))
        packets = sum(isinstance(e, PacketSent) for e in recorded.events)

        assert unbuilt == 0
        assert len(built) == packets > 0
        assert plain.metrics == recorded.metrics
        assert (plain.connection.bus.published
                == recorded.connection.bus.published)
        assert _bins(plain.connection.activity) == \
            _bins(recorded.connection.activity)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_late_subscriber_sees_every_later_bin(self, kernel):
        sim = Simulator()
        conn = MptcpConnection(sim, [wifi_path(bandwidth_mbps=6.0),
                                     cellular_path(bandwidth_mbps=4.0)],
                               kernel=kernel)
        conn.start_transfer(megabytes(4))
        sim.run(until=1.0)
        conn.sync()
        before = sum(conn.activity.total_bytes(p)
                     for p in conn.activity.paths())
        seen = []
        sim.bus.subscribe(PacketSent, seen.append)
        sim.run(until=30.0)
        conn.close()
        after = sum(conn.activity.total_bytes(p)
                    for p in conn.activity.paths())
        assert seen
        assert sum(e.num_bytes for e in seen) == pytest.approx(
            after - before, rel=1e-12)
        assert after == pytest.approx(megabytes(4), abs=1.0)


class TestObserves:
    def test_fresh_bus_observes_nothing(self):
        assert not EventBus().observes(PacketSent)

    def test_typed_subscription(self):
        bus = EventBus()
        handler = bus.subscribe(PacketSent, lambda e: None)
        assert bus.observes(PacketSent)
        assert not bus.observes(StallStart)
        bus.unsubscribe(PacketSent, handler)
        assert not bus.observes(PacketSent)

    def test_wildcard_subscription(self):
        bus = EventBus()
        handler = bus.subscribe_all(lambda e: None)
        assert bus.observes(PacketSent)
        assert bus.observes(StallStart)
        bus.unsubscribe_all(handler)
        assert not bus.observes(PacketSent)

    def test_answer_follows_the_cached_dispatch_list(self):
        bus = EventBus()
        bus.publish(PacketSent(0.0, "wifi", 1.0))  # caches an empty list
        assert not bus.observes(PacketSent)
        bus.subscribe(PacketSent, lambda e: None)
        assert bus.observes(PacketSent)

    def test_profiled_bus_always_observes(self):
        bus = ProfiledBus()
        assert bus.observes(PacketSent)
        handler = bus.subscribe(PacketSent, lambda e: None)
        bus.unsubscribe(PacketSent, handler)
        assert bus.observes(PacketSent)
