"""Tests for the radio energy model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import model as energy_model
from repro.energy.devices import DEVICES, GALAXY_NOTE, GALAXY_S3
from repro.energy.model import (EnergyBreakdown, interface_energy,
                                radio_state_events, session_energy)
from repro.experiments.configs import SessionConfig
from repro.experiments.runner import run_session
from repro.mptcp.activity import ActivityLog
from repro.obs.events import (RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL,
                              RadioStateChange)


def burst(log, start, duration, rate_bytes_per_s=1e6, path="cellular",
          bin_width=0.1):
    t = start
    while t < start + duration - 1e-9:
        log.record(t, path, rate_bytes_per_s * bin_width)
        t += bin_width


class TestProfiles:
    def test_active_power_scales_with_throughput(self):
        lte = GALAXY_NOTE.lte
        assert lte.active_power(10.0) > lte.active_power(1.0)
        assert lte.active_power(0.0) == lte.active_base

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            GALAXY_NOTE.lte.active_power(-1.0)

    def test_interface_lookup(self):
        assert GALAXY_NOTE.for_interface("cellular") is GALAXY_NOTE.lte
        assert GALAXY_NOTE.for_interface("wifi") is GALAXY_NOTE.wifi
        with pytest.raises(KeyError):
            GALAXY_NOTE.for_interface("bluetooth")

    def test_lte_costs_more_than_wifi(self):
        """The premise of preferring WiFi: LTE burns far more power."""
        assert GALAXY_NOTE.lte.active_power(5.0) > \
            GALAXY_NOTE.wifi.active_power(5.0)
        assert GALAXY_NOTE.lte.tail_time > GALAXY_NOTE.wifi.tail_time

    def test_devices_registry(self):
        assert DEVICES["galaxy_note"] is GALAXY_NOTE
        assert DEVICES["galaxy_s3"] is GALAXY_S3


class TestInterfaceEnergy:
    def test_idle_only_session(self):
        log = ActivityLog(0.1)
        breakdown = interface_energy(log, "cellular", GALAXY_NOTE.lte, 100.0)
        assert breakdown.active == 0.0
        assert breakdown.tail == 0.0
        assert breakdown.idle == pytest.approx(100.0 *
                                               GALAXY_NOTE.lte.idle_power)

    def test_single_burst_charges_all_states(self):
        log = ActivityLog(0.1)
        burst(log, 10.0, 2.0)
        profile = GALAXY_NOTE.lte
        breakdown = interface_energy(log, "cellular", profile, 100.0)
        assert breakdown.active > 0
        assert breakdown.tail == pytest.approx(
            profile.tail_time * profile.tail_power, rel=0.01)
        assert breakdown.promotion == profile.promotion_energy
        expected_idle = (10.0 + (100.0 - 12.0 - profile.tail_time)) * \
            profile.idle_power
        assert breakdown.idle == pytest.approx(expected_idle, rel=0.05)

    def test_gap_shorter_than_tail_stays_promoted(self):
        log = ActivityLog(0.1)
        burst(log, 0.0, 1.0)
        burst(log, 5.0, 1.0)  # 4s gap < 11.6s tail
        profile = GALAXY_NOTE.lte
        breakdown = interface_energy(log, "cellular", profile, 30.0)
        # Only one promotion; the gap is all tail.
        assert breakdown.promotion == profile.promotion_energy
        assert breakdown.tail == pytest.approx(
            (4.0 + profile.tail_time) * profile.tail_power, rel=0.02)

    def test_gap_longer_than_tail_demotes(self):
        log = ActivityLog(0.1)
        burst(log, 0.0, 1.0)
        burst(log, 50.0, 1.0)
        profile = GALAXY_NOTE.lte
        breakdown = interface_energy(log, "cellular", profile, 100.0)
        assert breakdown.promotion == pytest.approx(
            2 * profile.promotion_energy)
        assert breakdown.tail == pytest.approx(
            2 * profile.tail_time * profile.tail_power, rel=0.02)
        assert breakdown.idle > 0

    def test_dribble_costs_more_than_burst(self):
        """The Table-4 lesson: the same bytes trickled slowly keep the
        radio active far longer than a fast burst plus one tail."""
        total_bytes = 10e6
        dribble = ActivityLog(0.1)
        burst(dribble, 0.0, 100.0, rate_bytes_per_s=total_bytes / 100.0)
        fast = ActivityLog(0.1)
        burst(fast, 0.0, 5.0, rate_bytes_per_s=total_bytes / 5.0)
        profile = GALAXY_NOTE.lte
        dribble_energy = interface_energy(dribble, "cellular", profile,
                                          120.0).total
        fast_energy = interface_energy(fast, "cellular", profile,
                                       120.0).total
        assert dribble_energy > 2 * fast_energy

    def test_invalid_session_end_rejected(self):
        with pytest.raises(ValueError):
            interface_energy(ActivityLog(), "cellular", GALAXY_NOTE.lte, 0.0)


class TestSessionEnergy:
    def test_totals_sum_interfaces(self):
        log = ActivityLog(0.1)
        burst(log, 0.0, 2.0, path="cellular")
        burst(log, 0.0, 2.0, path="wifi")
        energy = session_energy(log, GALAXY_NOTE, 60.0)
        assert energy["total"].total == pytest.approx(
            energy["cellular"].total + energy["wifi"].total)

    def test_breakdown_addition(self):
        a = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
        b = EnergyBreakdown(10.0, 20.0, 30.0, 40.0)
        c = a + b
        assert c.total == pytest.approx(110.0)

    def test_devices_yield_similar_results(self):
        """The paper reports Galaxy Note and S III 'yielding similar
        results'."""
        log = ActivityLog(0.1)
        burst(log, 0.0, 10.0, path="cellular")
        note = session_energy(log, GALAXY_NOTE, 60.0)["total"].total
        s3 = session_energy(log, GALAXY_S3, 60.0)["total"].total
        assert s3 == pytest.approx(note, rel=0.25)


# ----------------------------------------------------------------------
# The dense walk over ``ActivityLog.series`` is the reference: the energy
# model walks only the non-empty bins and must agree with it exactly.
# ----------------------------------------------------------------------
def dense_interface_energy(activity, path, profile, session_end):
    times, values = activity.series(path, until=session_end)
    width = activity.bin_width
    breakdown = EnergyBreakdown()
    promoted_until = 0.0
    last_burst_end = None
    for start, num_bytes in zip(times, values):
        if num_bytes <= 0:
            continue
        end = start + width
        if last_burst_end is None or start > promoted_until:
            breakdown.promotion += profile.promotion_energy
        if last_burst_end is not None:
            gap = max(0.0, start - last_burst_end)
            tail = min(gap, profile.tail_time)
            breakdown.tail += tail * profile.tail_power
            breakdown.idle += max(0.0, gap - tail) * profile.idle_power
        else:
            breakdown.idle += max(0.0, start) * profile.idle_power
        throughput_mbps = num_bytes * 8.0 / 1e6 / width
        breakdown.active += profile.active_power(throughput_mbps) * width
        last_burst_end = end
        promoted_until = end + profile.tail_time
    if last_burst_end is None:
        breakdown.idle += session_end * profile.idle_power
    else:
        gap = max(0.0, session_end - last_burst_end)
        tail = min(gap, profile.tail_time)
        breakdown.tail += tail * profile.tail_power
        breakdown.idle += max(0.0, gap - tail) * profile.idle_power
    return breakdown


def dense_radio_state_events(activity, path, profile, session_end):
    times, values = activity.series(path, until=session_end)
    width = activity.bin_width
    events = []
    last_burst_end = None
    for start, num_bytes in zip(times, values):
        if num_bytes <= 0:
            continue
        if last_burst_end is None:
            events.append(RadioStateChange(start, path, RADIO_ACTIVE))
        elif start > last_burst_end:
            events.append(RadioStateChange(last_burst_end, path,
                                           RADIO_TAIL))
            tail_end = last_burst_end + profile.tail_time
            if start > tail_end:
                events.append(RadioStateChange(tail_end, path, RADIO_IDLE))
            events.append(RadioStateChange(start, path, RADIO_ACTIVE))
        last_burst_end = start + width
    if last_burst_end is not None:
        events.append(RadioStateChange(last_burst_end, path, RADIO_TAIL))
        tail_end = last_burst_end + profile.tail_time
        if session_end > tail_end:
            events.append(RadioStateChange(tail_end, path, RADIO_IDLE))
    return events


@st.composite
def activity_cases(draw):
    """Records plus a session end that often cuts just before, inside or
    just after a recorded bin, so bins past the end occur."""
    records = draw(st.lists(
        st.tuples(st.floats(0.0, 90.0),
                  st.sampled_from(["cellular", "wifi"]),
                  st.floats(0.0, 2e6)),
        max_size=80))
    if records and draw(st.booleans()):
        near = draw(st.sampled_from(records))[0]
        session_end = max(0.05, near + draw(st.floats(-0.3, 0.3)))
    else:
        session_end = draw(st.floats(0.05, 80.0))
    return records, session_end


class TestSparseWalk:
    @given(activity_cases(), st.sampled_from([0.05, 0.1, 0.25]),
           st.sampled_from(sorted(DEVICES)))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_walk(self, case, bin_width, device):
        records, session_end = case
        log = ActivityLog(bin_width)
        for time, path, num_bytes in records:
            log.record(time, path, num_bytes)
        for path in ("cellular", "wifi"):
            profile = DEVICES[device].for_interface(path)
            assert interface_energy(log, path, profile, session_end) == \
                dense_interface_energy(log, path, profile, session_end)
            assert radio_state_events(log, path, profile, session_end) == \
                dense_radio_state_events(log, path, profile, session_end)

    def test_bins_past_session_end_are_left_out(self):
        log = ActivityLog(0.1)
        for time in (0.05, 1.05, 1.15, 5.0):
            log.record(time, "cellular", 5e4)
        profile = GALAXY_NOTE.lte
        assert interface_energy(log, "cellular", profile, 1.0) == \
            dense_interface_energy(log, "cellular", profile, 1.0)
        assert radio_state_events(log, "cellular", profile, 1.0) == \
            dense_radio_state_events(log, "cellular", profile, 1.0)

    def test_bursts_are_the_non_empty_series_bins(self):
        log = ActivityLog(0.1)
        for time in (0.05, 0.31, 0.32, 2.0, 7.5):
            log.record(time, "wifi", 100.0)
        times, values = log.series("wifi", until=2.0)
        assert log.bursts("wifi", 2.0) == [
            (t, v) for t, v in zip(times, values) if v > 0]
        assert log.bursts("cellular", 2.0) == []


def test_run_session_computes_energy_once(monkeypatch):
    calls = []
    original = energy_model.session_energy

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # ``from ... import session_energy`` binds the function into every
    # importing module: patch each binding.
    import repro.analysis.analyzer as analyzer_module
    import repro.experiments.runner as runner_module
    for module in (energy_model, analyzer_module, runner_module):
        if getattr(module, "session_energy", None) is original:
            monkeypatch.setattr(module, "session_energy", counted)
    run_session(SessionConfig(video_duration=8.0, wifi_mbps=4.0,
                              lte_mbps=3.0))
    assert len(calls) == 1
