"""Time-varying bandwidth traces.

A :class:`BandwidthTrace` is a piecewise-constant function of simulated time
returning available bandwidth in **bytes per second**.  Traces are the
substitute for the paper's real WiFi/LTE links: the controlled experiments
use Dummynet-pinned constant rates, the trace-driven simulation (§7.2.2)
replays recorded profiles, and the field study uses fluctuating open-WiFi
bandwidth — each has a generator here.

All stochastic generators take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .units import mbps


class BandwidthTrace:
    """Piecewise-constant bandwidth as a function of time.

    ``times`` are segment start offsets (seconds, ascending, starting at 0)
    and ``rates`` the bandwidth (bytes/second) holding from each start until
    the next.  Beyond the last segment the trace wraps around (loops), so a
    60-second recording can drive a 600-second session, matching how the
    paper replays collected traces.
    """

    def __init__(self, times: Sequence[float], rates: Sequence[float],
                 loop: bool = True):
        if len(times) != len(rates):
            raise ValueError("times and rates must have equal length")
        if not times:
            raise ValueError("trace must have at least one segment")
        if times[0] != 0:
            raise ValueError("first segment must start at time 0")
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise ValueError("times must be strictly increasing")
        if any(r < 0 for r in rates):
            raise ValueError("bandwidth cannot be negative")
        self._times = list(times)
        self._rates = list(rates)
        self._loop = loop
        # Duration of the recorded portion; only meaningful when looping or
        # when the caller treats the trace as finite.
        if len(times) > 1:
            self.duration = times[-1] + (times[-1] - times[-2])
        else:
            self.duration = math.inf if not loop else 1.0

    @property
    def loop(self) -> bool:
        """Whether the trace wraps around after ``duration``."""
        return self._loop

    @loop.setter
    def loop(self, value: bool) -> None:
        self._loop = value
        self._reset_lookups()

    @property
    def duration(self) -> float:
        """Length of one recorded period in seconds (the wrap point)."""
        return self._duration

    @duration.setter
    def duration(self, value: float) -> None:
        self._duration = value
        self._reset_lookups()

    def _reset_lookups(self) -> None:
        """Drop everything derived from ``loop`` and ``duration``.

        Constructors reassign ``duration`` after ``__init__``, so the
        change points and both lookup cursors are rebuilt on demand.
        """
        looping = (self._loop and math.isfinite(self._duration)
                   and self._duration > 0)
        #: The wrap period, or 0.0 when queries are not wrapped.
        self._period = self._duration if looping else 0.0
        # Offsets (within one period) where the rate actually changes.
        self._changes: Optional[list] = None
        # Lookup cursors: the segment the last query landed in, as offsets
        # ``[lo, hi)`` within one period, capped at the period when
        # looping.  Inside the first period a time *is* its offset, so a
        # query there that falls in the cursor needs neither the wrap nor
        # the search.  Empty until the first query.
        self._bw_lo = self._bw_hi = 0.0
        self._bw_rate = 0.0
        self._nc_lo = self._nc_hi = 0.0
        self._nc_index = 0
        #: ``next_change`` answer for a first-period query in the cursor.
        self._nc_next = math.inf

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, rate_bytes_per_s: float) -> "BandwidthTrace":
        """A fixed-rate link (the Dummynet-shaped testbed case)."""
        trace = cls([0.0], [rate_bytes_per_s], loop=False)
        trace.duration = math.inf
        return trace

    @classmethod
    def from_samples(cls, rates: Iterable[float],
                     interval: float, loop: bool = True) -> "BandwidthTrace":
        """Build a trace from equally spaced samples (bytes/second)."""
        rates = list(rates)
        if interval <= 0:
            raise ValueError("interval must be positive")
        times = [i * interval for i in range(len(rates))]
        trace = cls(times, rates, loop=loop)
        trace.duration = len(rates) * interval
        return trace

    @classmethod
    def gaussian(cls, mean_bytes_per_s: float, sigma_fraction: float,
                 duration: float, interval: float,
                 seed: int) -> "BandwidthTrace":
        """Bounded-Gaussian fluctuation around a mean.

        This is the paper's synthetic profile (Table 1): instantaneous
        throughput with standard deviation ``sigma_fraction`` of the mean.
        Samples are clamped to stay non-negative (and below 2x mean so the
        mean is preserved approximately).
        """
        rng = np.random.default_rng(seed)
        count = max(1, int(math.ceil(duration / interval)))
        samples = rng.normal(mean_bytes_per_s,
                             sigma_fraction * mean_bytes_per_s, count)
        samples = np.clip(samples, 0.05 * mean_bytes_per_s,
                          2.0 * mean_bytes_per_s)
        return cls.from_samples(samples.tolist(), interval)

    @classmethod
    def random_walk(cls, mean_bytes_per_s: float, sigma_fraction: float,
                    duration: float, interval: float, seed: int,
                    reversion: float = 0.2) -> "BandwidthTrace":
        """Mean-reverting AR(1) random walk.

        Open public WiFi fluctuates with temporal correlation (Figure 5's
        FastFood/Coffee traces wander rather than jump), which an AR(1)
        process captures: each step pulls back toward the mean with strength
        ``reversion`` plus Gaussian innovation.
        """
        rng = np.random.default_rng(seed)
        count = max(1, int(math.ceil(duration / interval)))
        sigma = sigma_fraction * mean_bytes_per_s
        innovation = sigma * math.sqrt(max(1e-9, 2 * reversion - reversion ** 2))
        low = 0.05 * mean_bytes_per_s
        high = 2.5 * mean_bytes_per_s
        samples = []
        level = mean_bytes_per_s
        # One vector draw yields the same stream as ``count`` scalar draws.
        for shock in rng.normal(0.0, innovation, count).tolist():
            level += reversion * (mean_bytes_per_s - level)
            level += shock
            if low > level:
                level = low
            if high < level:
                level = high
            samples.append(level)
        return cls.from_samples(samples, interval)

    @classmethod
    def with_dropouts(cls, base: "BandwidthTrace", dropouts:
                      Sequence[tuple], floor_bytes_per_s: float = 0.0
                      ) -> "BandwidthTrace":
        """Overlay blackout windows onto an existing trace.

        ``dropouts`` is a sequence of ``(start, end)`` intervals during which
        the bandwidth collapses to ``floor_bytes_per_s``.  Used for the
        scenario-2 field locations where open WiFi intermittently stalls.
        """
        interval = 0.1
        horizon = base.duration if math.isfinite(base.duration) else (
            max(end for _, end in dropouts) + 1.0 if dropouts else 1.0)
        count = max(1, int(math.ceil(horizon / interval)))
        # Resample the base on the grid ``i * interval`` with the same
        # wrap and right-bisection ``bandwidth_at`` applies per query.
        grid = np.arange(count) * interval
        offsets = np.remainder(grid, base._period) if base._period else grid
        index = np.searchsorted(base._times, offsets, side="right") - 1
        dropped = np.zeros(count, dtype=bool)
        for start, end in dropouts:
            dropped |= (start <= grid) & (grid < end)
        rates = base._rates
        samples = [floor_bytes_per_s if drop else rates[i]
                   for i, drop in zip(index.tolist(), dropped.tolist())]
        return cls.from_samples(samples, interval)

    @classmethod
    def mobility_walk(cls, peak_bytes_per_s: float, floor_bytes_per_s: float,
                      period: float, duration: float,
                      interval: float = 0.25, seed: int = 0,
                      jitter_fraction: float = 0.08) -> "BandwidthTrace":
        """WiFi bandwidth while walking away from and back toward an AP.

        Models the §7.3.4 mobility route: throughput follows a raised-cosine
        between ``peak`` (next to the AP) and ``floor`` (far side of the
        route) with period ``period`` seconds, plus small measurement jitter.
        """
        rng = np.random.default_rng(seed)
        count = max(1, int(math.ceil(duration / interval)))
        samples = []
        amplitude = (peak_bytes_per_s - floor_bytes_per_s) / 2.0
        midpoint = (peak_bytes_per_s + floor_bytes_per_s) / 2.0
        for i in range(count):
            t = i * interval
            level = midpoint + amplitude * math.cos(2 * math.pi * t / period)
            level += rng.normal(0.0, jitter_fraction * peak_bytes_per_s)
            samples.append(max(level, 0.0))
        return cls.from_samples(samples, interval)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def times(self) -> list:
        """Segment start offsets (seconds), a copy."""
        return list(self._times)

    @property
    def rates(self) -> list:
        """Per-segment bandwidth (bytes/second), a copy."""
        return list(self._rates)

    def bandwidth_at(self, time: float) -> float:
        """Available bandwidth (bytes/second) at simulated ``time``."""
        if self._bw_lo <= time < self._bw_hi:
            return self._bw_rate
        if time < 0:
            raise ValueError(f"time cannot be negative: {time!r}")
        period = self._period
        offset = time % period if period else time
        if not self._bw_lo <= offset < self._bw_hi:
            # ``times[0] == 0`` and ``offset >= 0`` keep the index >= 0.
            times = self._times
            index = bisect.bisect_right(times, offset) - 1
            hi = times[index + 1] if index + 1 < len(times) else math.inf
            self._bw_lo = times[index]
            self._bw_hi = period if period and hi > period else hi
            self._bw_rate = self._rates[index]
        return self._bw_rate

    def _change_points(self) -> list:
        """Offsets within one period at which the rate *actually* changes.

        Boundaries between equal-rate segments are dropped, so a trace built
        from identical samples reports no breakpoints at all.  For looping
        traces the wrap-around (``duration``) counts as a change when the
        last and first rates differ.
        """
        if self._changes is None:
            changes = [t for prev, rate, t in
                       zip(self._rates, self._rates[1:], self._times[1:])
                       if rate != prev]
            if self._period and self._rates[-1] != self._rates[0]:
                changes.append(self._period)
            self._changes = changes
        return self._changes

    def next_change(self, time: float) -> float:
        """Absolute time of the first rate change strictly after ``time``.

        Returns ``math.inf`` when the rate never changes again (constant
        traces, non-looping traces past their last breakpoint, or traces
        whose samples all share one value).  This is the breakpoint iterator
        the event-driven kernel walks: between ``time`` and the returned
        instant, :meth:`bandwidth_at` is guaranteed constant.
        """
        if self._nc_lo <= time < self._nc_hi:
            return self._nc_next
        if time < 0:
            raise ValueError(f"time cannot be negative: {time!r}")
        changes = self._change_points()
        period = self._period
        offset = time % period if period else time
        if not self._nc_lo <= offset < self._nc_hi:
            index = bisect.bisect_right(changes, offset)
            hi = changes[index] if index < len(changes) else math.inf
            self._nc_lo = changes[index - 1] if index else 0.0
            self._nc_hi = period if period and hi > period else hi
            self._nc_index = index
            if index < len(changes):
                self._nc_next = changes[index]
            elif period and changes:
                self._nc_next = period + changes[0]
            else:
                self._nc_next = math.inf
        if not period or not changes:
            return self._nc_next
        base = time - offset
        index = self._nc_index
        if index < len(changes):
            return base + changes[index]
        return base + period + changes[0]

    def segment(self, time: float) -> tuple:
        """``(rate, until)``: the rate holding at ``time`` and the absolute
        time it next changes (``math.inf`` if never)."""
        return self.bandwidth_at(time), self.next_change(time)

    def mean_bandwidth(self) -> float:
        """Time-weighted mean bandwidth over one recorded period."""
        if len(self._times) == 1:
            return self._rates[0]
        total = 0.0
        for i, rate in enumerate(self._rates):
            start = self._times[i]
            end = self._times[i + 1] if i + 1 < len(self._times) else self.duration
            total += rate * (end - start)
        return total / self.duration

    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy of this trace with every rate multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor cannot be negative")
        clone = BandwidthTrace(self._times, [r * factor for r in self._rates],
                               loop=self.loop)
        clone.duration = self.duration
        return clone

    def capped(self, cap_bytes_per_s: float) -> "BandwidthTrace":
        """A copy of this trace with rates clamped to ``cap`` (Dummynet-style
        throttling, used by the Table 4 cellular-throttling baseline)."""
        if cap_bytes_per_s < 0:
            raise ValueError("cap cannot be negative")
        clone = BandwidthTrace(
            self._times, [min(r, cap_bytes_per_s) for r in self._rates],
            loop=self.loop)
        clone.duration = self.duration
        return clone

    def samples(self, interval: float, duration: float) -> list:
        """Sample the trace every ``interval`` seconds for ``duration``."""
        count = max(1, int(math.ceil(duration / interval)))
        return [self.bandwidth_at(i * interval) for i in range(count)]

    def __repr__(self) -> str:
        return (f"<BandwidthTrace segments={len(self._rates)} "
                f"mean={self.mean_bandwidth() * 8 / 1e6:.2f}Mbps "
                f"loop={self.loop}>")


def constant_mbps(rate: float) -> BandwidthTrace:
    """Shorthand for a constant trace given a rate in Mbps."""
    return BandwidthTrace.constant(mbps(rate))
