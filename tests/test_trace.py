"""Tests for bandwidth traces."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.trace import BandwidthTrace, constant_mbps
from repro.net.units import mbps


class TestConstruction:
    def test_constant_trace(self):
        trace = BandwidthTrace.constant(1000.0)
        assert trace.bandwidth_at(0.0) == 1000.0
        assert trace.bandwidth_at(1e6) == 1000.0

    def test_constant_mbps_shorthand(self):
        trace = constant_mbps(8.0)
        assert trace.bandwidth_at(5.0) == pytest.approx(1e6)

    def test_from_samples(self):
        trace = BandwidthTrace.from_samples([100.0, 200.0, 300.0], 1.0)
        assert trace.bandwidth_at(0.5) == 100.0
        assert trace.bandwidth_at(1.0) == 200.0
        assert trace.bandwidth_at(2.9) == 300.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0.0, 1.0], [100.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([], [])

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([1.0], [100.0])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace([0.0], [-5.0])

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace.from_samples([1.0], 0.0)


class TestQueries:
    def test_negative_time_rejected(self):
        trace = BandwidthTrace.constant(10.0)
        with pytest.raises(ValueError):
            trace.bandwidth_at(-1.0)

    def test_looping_wraps_around(self):
        trace = BandwidthTrace.from_samples([100.0, 200.0], 1.0)
        assert trace.duration == 2.0
        assert trace.bandwidth_at(2.0) == 100.0
        assert trace.bandwidth_at(3.5) == 200.0

    def test_non_looping_holds_last_value(self):
        trace = BandwidthTrace.from_samples([100.0, 200.0], 1.0, loop=False)
        assert trace.bandwidth_at(100.0) == 200.0

    def test_mean_bandwidth_time_weighted(self):
        trace = BandwidthTrace.from_samples([100.0, 300.0], 1.0)
        assert trace.mean_bandwidth() == pytest.approx(200.0)

    def test_samples(self):
        trace = BandwidthTrace.from_samples([10.0, 20.0], 1.0)
        assert trace.samples(0.5, 2.0) == [10.0, 10.0, 20.0, 20.0]

    def test_scaled(self):
        trace = BandwidthTrace.from_samples([10.0, 20.0], 1.0)
        doubled = trace.scaled(2.0)
        assert doubled.bandwidth_at(0.0) == 20.0
        assert doubled.bandwidth_at(1.0) == 40.0
        # Original untouched.
        assert trace.bandwidth_at(0.0) == 10.0

    def test_capped(self):
        trace = BandwidthTrace.from_samples([10.0, 100.0], 1.0)
        capped = trace.capped(50.0)
        assert capped.bandwidth_at(0.0) == 10.0
        assert capped.bandwidth_at(1.0) == 50.0

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace.constant(10.0).scaled(-1.0)


class TestGenerators:
    def test_gaussian_mean_approximately_preserved(self):
        trace = BandwidthTrace.gaussian(mbps(3.8), 0.1, 120.0, 0.25, seed=7)
        assert trace.mean_bandwidth() == pytest.approx(mbps(3.8), rel=0.05)

    def test_gaussian_deterministic_per_seed(self):
        a = BandwidthTrace.gaussian(1000.0, 0.3, 10.0, 0.5, seed=3)
        b = BandwidthTrace.gaussian(1000.0, 0.3, 10.0, 0.5, seed=3)
        c = BandwidthTrace.gaussian(1000.0, 0.3, 10.0, 0.5, seed=4)
        assert a.samples(0.5, 10.0) == b.samples(0.5, 10.0)
        assert a.samples(0.5, 10.0) != c.samples(0.5, 10.0)

    def test_gaussian_never_negative(self):
        trace = BandwidthTrace.gaussian(1000.0, 0.9, 60.0, 0.1, seed=1)
        assert all(r > 0 for r in trace.samples(0.1, 60.0))

    def test_random_walk_mean_reverting(self):
        trace = BandwidthTrace.random_walk(mbps(5.0), 0.3, 600.0, 0.5,
                                           seed=11)
        assert trace.mean_bandwidth() == pytest.approx(mbps(5.0), rel=0.15)

    def test_random_walk_bounded(self):
        trace = BandwidthTrace.random_walk(1000.0, 0.5, 300.0, 0.5, seed=2)
        samples = trace.samples(0.5, 300.0)
        assert all(50.0 - 1e-9 <= s <= 2500.0 + 1e-9 for s in samples)

    def test_dropouts_zero_out_windows(self):
        base = BandwidthTrace.constant(1000.0)
        base.duration = 10.0
        trace = BandwidthTrace.with_dropouts(base, [(2.0, 4.0)],
                                             floor_bytes_per_s=10.0)
        assert trace.bandwidth_at(1.0) == 1000.0
        assert trace.bandwidth_at(3.0) == 10.0
        assert trace.bandwidth_at(5.0) == 1000.0

    def test_mobility_walk_oscillates(self):
        trace = BandwidthTrace.mobility_walk(mbps(5.0), mbps(0.3),
                                             period=60.0, duration=120.0,
                                             seed=0, jitter_fraction=0.0)
        near_ap = trace.bandwidth_at(0.0)
        far = trace.bandwidth_at(30.0)
        back = trace.bandwidth_at(60.0)
        assert near_ap == pytest.approx(mbps(5.0), rel=0.05)
        assert far == pytest.approx(mbps(0.3), rel=0.2)
        assert back == pytest.approx(mbps(5.0), rel=0.05)


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1,
                    max_size=50),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_bandwidth_at_returns_a_listed_rate(self, rates, interval, t):
        trace = BandwidthTrace.from_samples(rates, interval)
        assert trace.bandwidth_at(t) in rates

    @given(st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1,
                    max_size=20),
           st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_looping_is_periodic(self, rates, interval):
        trace = BandwidthTrace.from_samples(rates, interval)
        for k in range(3):
            t = 0.3 * interval
            assert trace.bandwidth_at(t) == trace.bandwidth_at(
                t + k * trace.duration)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1,
                    max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_mean_between_min_and_max(self, rates):
        trace = BandwidthTrace.from_samples(rates, 1.0)
        mean = trace.mean_bandwidth()
        assert min(rates) - 1e-9 <= mean <= max(rates) + 1e-9


# ----------------------------------------------------------------------
# Reference implementations: the scalar synthesis loops and the plain
# bisecting lookups.  The vectorised synthesis and the cursor lookups
# must agree with them exactly, bit for bit.
# ----------------------------------------------------------------------
def reference_random_walk(mean_bytes_per_s, sigma_fraction, duration,
                          interval, seed, reversion=0.2):
    rng = np.random.default_rng(seed)
    count = max(1, int(math.ceil(duration / interval)))
    sigma = sigma_fraction * mean_bytes_per_s
    innovation = sigma * math.sqrt(max(1e-9, 2 * reversion - reversion ** 2))
    samples = []
    level = mean_bytes_per_s
    for _ in range(count):
        level += reversion * (mean_bytes_per_s - level)
        level += rng.normal(0.0, innovation)
        level = min(max(level, 0.05 * mean_bytes_per_s),
                    2.5 * mean_bytes_per_s)
        samples.append(level)
    return BandwidthTrace.from_samples(samples, interval)


def reference_bandwidth_at(trace, time):
    if time < 0:
        raise ValueError(f"time cannot be negative: {time!r}")
    if trace.loop and math.isfinite(trace.duration) and trace.duration > 0:
        time = time % trace.duration
    times = trace.times
    index = bisect.bisect_right(times, time) - 1
    if index < 0:
        index = 0
    return trace.rates[index]


def reference_with_dropouts(base, dropouts, floor_bytes_per_s=0.0):
    interval = 0.1
    horizon = base.duration if math.isfinite(base.duration) else (
        max(end for _, end in dropouts) + 1.0 if dropouts else 1.0)
    count = max(1, int(math.ceil(horizon / interval)))
    samples = []
    for i in range(count):
        t = i * interval
        rate = reference_bandwidth_at(base, t)
        for start, end in dropouts:
            if start <= t < end:
                rate = floor_bytes_per_s
                break
        samples.append(rate)
    return BandwidthTrace.from_samples(samples, interval)


def fresh(trace):
    """An equal trace that has never been queried."""
    clone = BandwidthTrace(trace.times, trace.rates, loop=trace.loop)
    clone.duration = trace.duration
    return clone


def assert_same_trace(actual, expected):
    assert actual.times == expected.times
    assert actual.rates == expected.rates
    assert [type(r) for r in actual.rates] == [type(r)
                                               for r in expected.rates]
    assert actual.duration == expected.duration
    assert actual.loop == expected.loop


_rates = st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1,
                  max_size=40)


@st.composite
def dropout_bases(draw):
    """Looping, non-looping and infinite-duration bases."""
    kind = draw(st.sampled_from(["loop", "finite", "infinite", "walk"]))
    if kind == "infinite":
        return BandwidthTrace.constant(draw(st.floats(0.0, 1e8)))
    if kind == "walk":
        return BandwidthTrace.random_walk(
            draw(st.floats(1e3, 1e8)), draw(st.floats(0.0, 0.6)),
            draw(st.floats(0.5, 60.0)), 0.5, seed=draw(st.integers(0, 999)))
    return BandwidthTrace.from_samples(
        draw(_rates), draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 1.0])),
        loop=kind == "loop")


@st.composite
def dropout_windows(draw):
    """Windows on exact 0.1 s grid points, overlapping each other, and
    reaching past the horizon."""
    windows = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            start = draw(st.integers(0, 400)) * 0.1
            end = draw(st.integers(0, 400)) * 0.1
            start, end = min(start, end), max(start, end)
        else:
            start = draw(st.floats(0.0, 40.0))
            end = start + draw(st.floats(0.0, 400.0))
        windows.append((start, end))
    if windows and draw(st.booleans()):
        start, end = windows[0]
        windows.append((start + (end - start) / 2.0, end + 1.0))
    return windows


class TestSynthesisExactness:
    @given(st.floats(1.0, 1e8), st.floats(0.0, 1.0), st.floats(0.01, 400.0),
           st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0, 0.37]),
           st.integers(0, 2 ** 32), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_random_walk_matches_scalar_loop(self, mean, sigma, duration,
                                             interval, seed, reversion):
        assert_same_trace(
            BandwidthTrace.random_walk(mean, sigma, duration, interval,
                                       seed, reversion=reversion),
            reference_random_walk(mean, sigma, duration, interval, seed,
                                  reversion=reversion))

    @given(dropout_bases(), dropout_windows(), st.floats(0.0, 1e6))
    @settings(max_examples=120, deadline=None)
    def test_with_dropouts_matches_scalar_loop(self, base, windows, floor):
        assert_same_trace(
            BandwidthTrace.with_dropouts(base, windows, floor),
            reference_with_dropouts(fresh(base), windows, floor))

    def test_with_dropouts_keeps_sample_types(self):
        base = BandwidthTrace.from_samples([5, 7, 9], 0.3)
        expected = reference_with_dropouts(fresh(base), [(0.2, 0.4)], 0)
        assert_same_trace(
            BandwidthTrace.with_dropouts(base, [(0.2, 0.4)], 0), expected)

    def test_fleet_shaped_walk_with_dropouts(self):
        base = BandwidthTrace.random_walk(mbps(6.0), 0.35, 300.0, 0.5, 17)
        windows = [(20.0, 26.5), (61.3, 70.0), (250.0, 400.0)]
        assert_same_trace(
            BandwidthTrace.with_dropouts(base, windows, mbps(0.6)),
            reference_with_dropouts(
                reference_random_walk(mbps(6.0), 0.35, 300.0, 0.5, 17),
                windows, mbps(0.6)))


# ----------------------------------------------------------------------
# Lookup cursor
# ----------------------------------------------------------------------
@st.composite
def lookup_traces(draw):
    rates = draw(st.lists(st.sampled_from([0.0, 10.0, 25.0, 40.0, 1e6]),
                          min_size=1, max_size=12))
    interval = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]))
    kind = draw(st.sampled_from(["loop", "finite", "constant"]))
    if kind == "constant":
        return BandwidthTrace.constant(rates[0])
    return BandwidthTrace.from_samples(rates, interval, loop=kind == "loop")


def interesting_times(trace):
    """Breakpoints, their neighbours, and the same points one and two
    periods on (the wrap)."""
    points = [0.0] + trace.times[1:]
    if math.isfinite(trace.duration):
        points.append(trace.duration)
        period = trace.duration
        points += [p + k * period for p in list(points) for k in (1, 2)]
    points += [math.nextafter(p, math.inf) for p in list(points)]
    points += [math.nextafter(p, 0.0) for p in list(points)]
    return points


@st.composite
def query_sequences(draw):
    trace = draw(lookup_traces())
    points = interesting_times(trace)
    queries = draw(st.lists(
        st.one_of(st.sampled_from(points), st.floats(0.0, 50.0)),
        min_size=1, max_size=40))
    order = draw(st.sampled_from(["as-drawn", "forward", "backward"]))
    if order == "forward":
        queries.sort()
    elif order == "backward":
        queries.sort(reverse=True)
    if draw(st.booleans()):
        queries = [q for q in queries for _ in range(2)]  # repeats
    return trace, queries


def assert_lookups_fresh(trace, queries):
    for t in queries:
        assert trace.bandwidth_at(t) == fresh(trace).bandwidth_at(t)
        assert trace.bandwidth_at(t) == reference_bandwidth_at(trace, t)
        assert trace.next_change(t) == fresh(trace).next_change(t)


class TestLookupCursor:
    @given(query_sequences())
    @settings(max_examples=150, deadline=None)
    def test_answers_like_a_fresh_trace(self, case):
        trace, queries = case
        assert_lookups_fresh(trace, queries)

    def test_walks_past_last_breakpoint_of_non_looping_trace(self):
        trace = BandwidthTrace.from_samples([10.0, 20.0, 30.0], 1.0,
                                            loop=False)
        assert [trace.next_change(t) for t in (0.0, 1.0, 2.0, 2.5, 90.0)] \
            == [1.0, 2.0, math.inf, math.inf, math.inf]
        assert trace.bandwidth_at(90.0) == 30.0
        assert trace.next_change(0.5) == 1.0  # and back again

    def test_wraps_into_next_period(self):
        trace = BandwidthTrace.from_samples([10.0, 20.0], 1.0)
        assert trace.next_change(1.5) == 2.0
        assert trace.bandwidth_at(1.999) == 20.0
        assert trace.bandwidth_at(2.0) == 10.0
        assert trace.next_change(2.0) == 3.0
        assert trace.next_change(3.5) == 4.0
        assert trace.bandwidth_at(0.5) == 10.0

    def test_negative_time_still_rejected(self):
        for trace in (BandwidthTrace.constant(5.0),
                      BandwidthTrace.from_samples([1.0, 2.0], 1.0)):
            trace.bandwidth_at(0.0)
            trace.next_change(0.0)
            with pytest.raises(ValueError):
                trace.bandwidth_at(-1e-9)
            with pytest.raises(ValueError):
                trace.next_change(-1e-9)

    @given(query_sequences(), st.floats(0.0, 3.0), st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_clones_never_reuse_a_stale_cursor(self, case, factor, cap):
        trace, queries = case
        assert_lookups_fresh(trace, queries)
        for clone in (trace.scaled(factor), trace.capped(cap)):
            assert_lookups_fresh(clone, queries)

    @given(query_sequences(), st.floats(0.5, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_reassigned_duration_drops_the_cursor(self, case, duration):
        trace, queries = case
        assert_lookups_fresh(trace, queries)
        trace.duration = duration
        assert_lookups_fresh(trace, queries)
        trace.loop = not trace.loop
        assert_lookups_fresh(trace, queries)
