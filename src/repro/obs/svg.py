"""Dependency-free SVG chart rendering for the HTML reports.

The paper's analysis tool is fundamentally visual — Figure 8 encodes each
chunk's quality, download window, and cellular share in one bar; Figures
1, 6 and 11 are per-path throughput timelines.  This module renders those
shapes (and the derived-view ones: histograms, CDFs, span lanes) as plain
SVG strings using nothing outside the standard library, so a report is a
deterministic pure function of its inputs:

* every coordinate goes through one fixed-precision formatter,
* colors are CSS *classes* (``s1``–``s8``, ``radio-active``, …) resolved
  by the embedding document's stylesheet — the same SVG renders in light
  and dark mode without re-generation,
* no timestamps, ids, or randomness ever enter the output.

Chart forms: :func:`line_chart` (line/step timeseries with optional
shaded windows), :func:`stacked_area`, :func:`bar_chart`,
:func:`histogram_chart`, :func:`cdf_chart`, :func:`strip_chart` (the
Figure-8 categorical strip), and :func:`flame_lanes` (span/radio-state
lanes).  :func:`legend_html` renders the matching HTML legend row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

#: Categorical CSS classes in fixed assignment order (never cycled: a
#: ninth series folds into the eighth slot rather than inventing a hue).
SERIES_CLASSES = ("s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8")

#: Chart margins (left, top, right, bottom) around the plot area.
_MARGINS = (52, 10, 14, 30)


def fmt(value: float) -> str:
    """Canonical coordinate text: two decimals, trailing zeros trimmed.

    Every number in an SVG goes through here, so byte-determinism reduces
    to IEEE-754 arithmetic determinism (which CPython guarantees).
    """
    text = f"{value:.2f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for markup text, ``&`` first.

    The same replacements as ``xml.sax.saxutils.escape``, without that
    module's import chain (``urllib.request``, ``http.client``,
    ``email``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace(
        "<", "&lt;")


def tick_label(value: float) -> str:
    """Tick text: %g keeps clean numbers clean (0.3, 250, 1e+06)."""
    return f"{value:g}"


def series_class(index: int) -> str:
    """The categorical class for series ``index`` (clamped, not cycled)."""
    return SERIES_CLASSES[min(index, len(SERIES_CLASSES) - 1)]


def nice_ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    """Clean tick positions covering ``[lo, hi]`` (1/2/2.5/5 stepping)."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(count, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = magnitude * 10.0
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (multiple * magnitude) <= count:
            step = multiple * magnitude
            break
    first = math.ceil(lo / step)
    ticks = []
    index = first
    while index * step <= hi + 1e-9 * span:
        value = index * step
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        index += 1
    return ticks


@dataclass(frozen=True)
class Series:
    """One named (x, y) series."""

    label: str
    points: Sequence[Tuple[float, float]]


@dataclass(frozen=True)
class StripCell:
    """One cell of a categorical strip (one Figure-8 chunk bar).

    ``height`` and ``fill`` are fractions of the strip height: ``height``
    is the bar itself (quality level) and ``fill`` the darker overlay
    drawn from the baseline up (the paper's "black fill" cellular share).
    """

    x0: float
    x1: float
    height: float
    fill: float
    css: str
    label: str = ""


@dataclass(frozen=True)
class LaneSegment:
    """One interval on a flame lane."""

    start: float
    end: float
    css: str
    label: str = ""


@dataclass
class _Frame:
    """Pixel scales plus the shared axis/grid chrome."""

    width: int
    height: int
    x0: float
    x1: float
    y0: float
    y1: float
    margins: Tuple[int, int, int, int] = _MARGINS

    @property
    def left(self) -> float:
        return float(self.margins[0])

    @property
    def top(self) -> float:
        return float(self.margins[1])

    @property
    def right(self) -> float:
        return float(self.width - self.margins[2])

    @property
    def bottom(self) -> float:
        return float(self.height - self.margins[3])

    def sx(self, x: float) -> float:
        span = self.x1 - self.x0
        if span <= 0:
            return self.left
        return self.left + (x - self.x0) / span * (self.right - self.left)

    def sy(self, y: float) -> float:
        span = self.y1 - self.y0
        if span <= 0:
            return self.bottom
        return self.bottom - (y - self.y0) / span * (self.bottom - self.top)

    def chrome(self, x_label: str = "", y_label: str = "",
               x_ticks: Optional[Sequence[Tuple[float, str]]] = None,
               y_ticks: Optional[Sequence[Tuple[float, str]]] = None
               ) -> List[str]:
        """Gridlines, axis line, tick labels, and axis titles."""
        parts: List[str] = []
        if y_ticks is None:
            y_ticks = [(t, tick_label(t))
                       for t in nice_ticks(self.y0, self.y1, 4)]
        if x_ticks is None:
            x_ticks = [(t, tick_label(t))
                       for t in nice_ticks(self.x0, self.x1, 6)]
        for value, text in y_ticks:
            y = fmt(self.sy(value))
            parts.append(f'<line class="grid" x1="{fmt(self.left)}" '
                         f'y1="{y}" x2="{fmt(self.right)}" y2="{y}"/>')
            parts.append(f'<text class="tick" text-anchor="end" '
                         f'x="{fmt(self.left - 6)}" y="{y}" dy="3">'
                         f'{escape(text)}</text>')
        for value, text in x_ticks:
            x = fmt(self.sx(value))
            parts.append(f'<text class="tick" text-anchor="middle" '
                         f'x="{x}" y="{fmt(self.bottom + 14)}">'
                         f'{escape(text)}</text>')
        parts.append(f'<line class="axis" x1="{fmt(self.left)}" '
                     f'y1="{fmt(self.bottom)}" x2="{fmt(self.right)}" '
                     f'y2="{fmt(self.bottom)}"/>')
        if x_label:
            parts.append(f'<text class="axis-label" text-anchor="middle" '
                         f'x="{fmt((self.left + self.right) / 2)}" '
                         f'y="{fmt(self.height - 4)}">'
                         f'{escape(x_label)}</text>')
        if y_label:
            x = 12
            y = fmt((self.top + self.bottom) / 2)
            parts.append(f'<text class="axis-label" text-anchor="middle" '
                         f'x="{x}" y="{y}" '
                         f'transform="rotate(-90 {x} {y})">'
                         f'{escape(y_label)}</text>')
        return parts


def _svg(width: int, height: int, parts: Sequence[str],
         title: str = "") -> str:
    body = "".join(parts)
    caption = f"<title>{escape(title)}</title>" if title else ""
    return (f'<svg class="chart" role="img" viewBox="0 0 {width} {height}" '
            f'width="{width}" height="{height}" '
            f'preserveAspectRatio="xMinYMin meet">{caption}{body}</svg>')


def _empty(width: int, height: int, note: str) -> str:
    return _svg(width, height, [
        f'<text class="tick" text-anchor="middle" '
        f'x="{fmt(width / 2)}" y="{fmt(height / 2)}">'
        f'{escape(note)}</text>'], title=note)


def _data_range(series: Sequence[Series]) -> Tuple[float, float, float, float]:
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    return min(xs), max(xs), min(ys), max(ys)


def line_chart(series: Sequence[Series], *, width: int = 720,
               height: int = 220, x_label: str = "", y_label: str = "",
               step: bool = False, markers: bool = False,
               y_min: Optional[float] = 0.0, y_max: Optional[float] = None,
               shades: Sequence[Tuple[float, float, str]] = (),
               refs: Sequence[float] = (),
               x_ticks: Optional[Sequence[Tuple[float, str]]] = None,
               title: str = "") -> str:
    """Multi-series line (or step) timeseries.

    ``shades`` draws labeled background windows (stall shading) behind
    the data; ``refs`` draws vertical reference lines at fixed x values.
    ``y_min=None`` fits the axis to the data instead of anchoring at 0.
    """
    series = [s for s in series if len(s.points)]
    if not series:
        return _empty(width, height, "no samples")
    x0, x1, data_y0, data_y1 = _data_range(series)
    y0 = data_y0 if y_min is None else min(y_min, data_y0)
    y1 = data_y1 if y_max is None else y_max
    if y1 <= y0:
        y1 = y0 + 1.0
    frame = _Frame(width, height, x0, x1, y0, y1)
    parts: List[str] = []
    for start, end, css in shades:
        sx0 = frame.sx(max(start, x0))
        sx1 = frame.sx(min(end, x1))
        if sx1 <= sx0:
            continue
        parts.append(f'<rect class="{escape(css)}" x="{fmt(sx0)}" '
                     f'y="{fmt(frame.top)}" width="{fmt(sx1 - sx0)}" '
                     f'height="{fmt(frame.bottom - frame.top)}"/>')
    parts.extend(frame.chrome(x_label, y_label, x_ticks=x_ticks))
    for ref in refs:
        if x0 <= ref <= x1:
            x = fmt(frame.sx(ref))
            parts.append(f'<line class="refline" x1="{x}" '
                         f'y1="{fmt(frame.top)}" x2="{x}" '
                         f'y2="{fmt(frame.bottom)}"/>')
    for index, one in enumerate(series):
        css = series_class(index)
        coords: List[str] = []
        previous_y: Optional[float] = None
        for x, y in one.points:
            px, py = fmt(frame.sx(x)), fmt(frame.sy(y))
            if step and previous_y is not None:
                coords.append(f"{px},{previous_y}")
            coords.append(f"{px},{py}")
            previous_y = py
        parts.append(f'<polyline class="line {css}" '
                     f'points="{" ".join(coords)}">'
                     f'<title>{escape(one.label)}</title></polyline>')
        if markers:
            for x, y in one.points:
                parts.append(
                    f'<circle class="dot {css}" cx="{fmt(frame.sx(x))}" '
                    f'cy="{fmt(frame.sy(y))}" r="4">'
                    f'<title>{escape(one.label)}: '
                    f'{tick_label(y)} @ {tick_label(x)}</title></circle>')
    return _svg(width, height, parts, title=title)


def stacked_area(series: Sequence[Series], *, width: int = 720,
                 height: int = 220, x_label: str = "", y_label: str = "",
                 title: str = "") -> str:
    """Stacked area chart of aligned series (shared x grid).

    Series are stacked in the given order, bottom first; x values are
    aligned by position (extra points beyond the shortest series are
    dropped).
    """
    series = [s for s in series if len(s.points)]
    if not series:
        return _empty(width, height, "no samples")
    length = min(len(s.points) for s in series)
    xs = [x for x, _ in series[0].points[:length]]
    stacks: List[List[float]] = []
    running = [0.0] * length
    for one in series:
        running = [running[i] + one.points[i][1] for i in range(length)]
        stacks.append(list(running))
    frame = _Frame(width, height, min(xs), max(xs), 0.0,
                   max(max(running), 1e-9))
    parts = frame.chrome(x_label, y_label)
    for index in range(len(series) - 1, -1, -1):
        top = stacks[index]
        base = stacks[index - 1] if index > 0 else [0.0] * length
        coords = [f"{fmt(frame.sx(xs[i]))},{fmt(frame.sy(top[i]))}"
                  for i in range(length)]
        coords.extend(f"{fmt(frame.sx(xs[i]))},{fmt(frame.sy(base[i]))}"
                      for i in range(length - 1, -1, -1))
        parts.append(f'<polygon class="area {series_class(index)}" '
                     f'points="{" ".join(coords)}">'
                     f'<title>{escape(series[index].label)}</title>'
                     f'</polygon>')
    return _svg(width, height, parts, title=title)


def bar_chart(categories: Sequence[str], values: Sequence[float], *,
              width: int = 360, height: int = 200, y_label: str = "",
              per_category_css: bool = True, value_format: str = "{:g}",
              title: str = "") -> str:
    """One bar per category, value labeled at the cap.

    With ``per_category_css`` the bars take the categorical classes in
    order (identity = the category, consistent across sibling charts);
    otherwise every bar uses the first series class.
    """
    if not categories or len(categories) != len(values):
        return _empty(width, height, "no data")
    top = max(max(values), 1e-9)
    frame = _Frame(width, height, 0.0, float(len(categories)), 0.0,
                   top * 1.15)
    x_ticks: List[Tuple[float, str]] = []
    parts: List[str] = []
    slot = (frame.right - frame.left) / len(categories)
    bar_width = min(24.0, slot * 0.6)
    for index, (name, value) in enumerate(zip(categories, values)):
        center = frame.left + slot * (index + 0.5)
        x_ticks.append((index + 0.5, name))
        css = series_class(index) if per_category_css else series_class(0)
        y = frame.sy(value)
        bar_height = max(frame.bottom - y, 0.0)
        radius = min(4.0, bar_height)
        parts.append(
            f'<path class="fill {css}" d="M{fmt(center - bar_width / 2)} '
            f'{fmt(frame.bottom)} V{fmt(y + radius)} '
            f'Q{fmt(center - bar_width / 2)} {fmt(y)} '
            f'{fmt(center - bar_width / 2 + radius)} {fmt(y)} '
            f'H{fmt(center + bar_width / 2 - radius)} '
            f'Q{fmt(center + bar_width / 2)} {fmt(y)} '
            f'{fmt(center + bar_width / 2)} {fmt(y + radius)} '
            f'V{fmt(frame.bottom)} Z">'
            f'<title>{escape(name)}: {value_format.format(value)}</title>'
            f'</path>')
        parts.append(f'<text class="value" text-anchor="middle" '
                     f'x="{fmt(center)}" y="{fmt(y - 5)}">'
                     f'{escape(value_format.format(value))}</text>')
    parts = frame.chrome("", y_label, x_ticks=x_ticks) + parts
    return _svg(width, height, parts, title=title)


def _occupied(bounds: Sequence[float],
              counts: Sequence[int]) -> Tuple[int, int]:
    """Index range [first, last] of non-empty buckets (inclusive)."""
    nonzero = [i for i, c in enumerate(counts) if c]
    return (nonzero[0], nonzero[-1]) if nonzero else (0, 0)


def _bucket_edges(bounds: Sequence[float], index: int) -> Tuple[float, float]:
    """(lower, upper) edge of bucket ``index`` (overflow gets one width)."""
    first_width = (bounds[1] - bounds[0]) if len(bounds) > 1 else 1.0
    if index == 0:
        return bounds[0] - first_width, bounds[0]
    if index >= len(bounds):
        last_width = (bounds[-1] - bounds[-2]) if len(bounds) > 1 else 1.0
        return bounds[-1], bounds[-1] + last_width
    return bounds[index - 1], bounds[index]


def histogram_chart(payload: Mapping, *, width: int = 360,
                    height: int = 200, x_label: str = "",
                    y_label: str = "count", css: str = "s1",
                    refs: Sequence[float] = (), title: str = "") -> str:
    """Bars of a serialized :class:`~repro.obs.metrics.Histogram` dict."""
    bounds = list(payload.get("bounds", []))
    counts = list(payload.get("counts", []))
    if not bounds or not counts or not sum(counts):
        return _empty(width, height, "no observations")
    first, last = _occupied(bounds, counts)
    lo = _bucket_edges(bounds, first)[0]
    hi = _bucket_edges(bounds, last)[1]
    frame = _Frame(width, height, lo, hi, 0.0, max(max(counts), 1) * 1.1)
    parts = frame.chrome(x_label, y_label)
    for ref in refs:
        if lo <= ref <= hi:
            x = fmt(frame.sx(ref))
            parts.append(f'<line class="refline" x1="{x}" '
                         f'y1="{fmt(frame.top)}" x2="{x}" '
                         f'y2="{fmt(frame.bottom)}"/>')
    for index in range(first, last + 1):
        count = counts[index]
        if not count:
            continue
        left_edge, right_edge = _bucket_edges(bounds, index)
        x = frame.sx(left_edge)
        bar_width = max(frame.sx(right_edge) - x - 1.0, 0.5)
        y = frame.sy(count)
        parts.append(
            f'<rect class="fill {escape(css)}" x="{fmt(x)}" y="{fmt(y)}" '
            f'width="{fmt(bar_width)}" '
            f'height="{fmt(frame.bottom - y)}">'
            f'<title>[{tick_label(left_edge)}, {tick_label(right_edge)}'
            f'{"+" if index >= len(bounds) else ""}): {count}</title>'
            f'</rect>')
    return _svg(width, height, parts, title=title)


def cdf_chart(payload: Mapping, *, width: int = 360, height: int = 200,
              x_label: str = "", css: str = "s1",
              refs: Sequence[float] = (), title: str = "") -> str:
    """Empirical CDF of a serialized histogram (step line, 0 → 1)."""
    bounds = list(payload.get("bounds", []))
    counts = list(payload.get("counts", []))
    total = sum(counts)
    if not bounds or not total:
        return _empty(width, height, "no observations")
    first, last = _occupied(bounds, counts)
    lo = _bucket_edges(bounds, first)[0]
    hi = _bucket_edges(bounds, last)[1]
    frame = _Frame(width, height, lo, hi, 0.0, 1.0)
    y_ticks = [(0.0, "0"), (0.25, "0.25"), (0.5, "0.5"),
               (0.75, "0.75"), (1.0, "1")]
    parts = frame.chrome(x_label, "fraction", y_ticks=y_ticks)
    for ref in refs:
        if lo <= ref <= hi:
            x = fmt(frame.sx(ref))
            parts.append(f'<line class="refline" x1="{x}" '
                         f'y1="{fmt(frame.top)}" x2="{x}" '
                         f'y2="{fmt(frame.bottom)}"/>')
    cumulative = 0
    coords = [f"{fmt(frame.sx(lo))},{fmt(frame.sy(0.0))}"]
    for index in range(first, last + 1):
        cumulative += counts[index]
        upper = _bucket_edges(bounds, index)[1]
        fraction = cumulative / total
        previous = coords[-1].split(",")[1]
        coords.append(f"{fmt(frame.sx(upper))},{previous}")
        coords.append(f"{fmt(frame.sx(upper))},{fmt(frame.sy(fraction))}")
    parts.append(f'<polyline class="line {escape(css)}" '
                 f'points="{" ".join(coords)}"/>')
    return _svg(width, height, parts, title=title)


def strip_chart(cells: Sequence[StripCell], *, width: int = 720,
                height: int = 150, x_label: str = "time (s)",
                title: str = "") -> str:
    """The Figure-8 categorical strip: one bar per cell.

    Bar height encodes the cell's ``height`` fraction (quality level),
    the horizontal span its download window, and the darker overlay from
    the baseline its ``fill`` fraction (cellular byte share).
    """
    cells = [c for c in cells if c.x1 > c.x0]
    if not cells:
        return _empty(width, height, "no chunks")
    x0 = min(c.x0 for c in cells)
    x1 = max(c.x1 for c in cells)
    frame = _Frame(width, height, x0, x1, 0.0, 1.0)
    parts = frame.chrome(x_label, "", y_ticks=[])
    usable = frame.bottom - frame.top
    for cell in cells:
        left = frame.sx(cell.x0)
        bar_width = max(frame.sx(cell.x1) - left - 1.0, 1.0)
        bar_height = max(cell.height, 0.04) * usable
        top = frame.bottom - bar_height
        tooltip = (f"<title>{escape(cell.label)}</title>"
                   if cell.label else "")
        parts.append(f'<g>{tooltip}'
                     f'<rect class="fill {escape(cell.css)}" '
                     f'x="{fmt(left)}" y="{fmt(top)}" '
                     f'width="{fmt(bar_width)}" '
                     f'height="{fmt(bar_height)}"/>')
        overlay = bar_height * min(max(cell.fill, 0.0), 1.0)
        if overlay > 0:
            parts.append(f'<rect class="overlay" x="{fmt(left)}" '
                         f'y="{fmt(frame.bottom - overlay)}" '
                         f'width="{fmt(bar_width)}" '
                         f'height="{fmt(overlay)}"/>')
        parts.append("</g>")
    return _svg(width, height, parts, title=title)


def flame_lanes(lanes: Sequence[Tuple[str, Sequence[LaneSegment]]], *,
                width: int = 720, lane_height: int = 18,
                x_label: str = "time (s)", x_min: Optional[float] = None,
                x_max: Optional[float] = None, title: str = "") -> str:
    """Horizontal interval lanes (span trees, radio states).

    ``lanes`` is an ordered list of (label, segments); every segment is
    drawn as a rounded bar on its lane, classed by ``segment.css``.
    """
    lanes = list(lanes)
    segments = [seg for _, segs in lanes for seg in segs]
    if not lanes or not segments:
        return _empty(width, 60, "no intervals")
    x0 = min(seg.start for seg in segments) if x_min is None else x_min
    x1 = max(seg.end for seg in segments) if x_max is None else x_max
    gap = 6
    height = _MARGINS[1] + _MARGINS[3] + len(lanes) * (lane_height + gap)
    frame = _Frame(width, height, x0, x1, 0.0, 1.0)
    parts = frame.chrome(x_label, "", y_ticks=[])
    for row, (label, segs) in enumerate(lanes):
        top = frame.top + row * (lane_height + gap)
        parts.append(f'<text class="tick" text-anchor="end" '
                     f'x="{fmt(frame.left - 6)}" '
                     f'y="{fmt(top + lane_height / 2 + 3)}">'
                     f'{escape(label)}</text>')
        for seg in segs:
            left = frame.sx(max(seg.start, x0))
            right = frame.sx(min(seg.end, x1))
            seg_width = max(right - left, 1.0)
            tooltip = (f"<title>{escape(seg.label)}</title>"
                       if seg.label else "")
            parts.append(f'<rect class="fill {escape(seg.css)}" rx="2" '
                         f'x="{fmt(left)}" y="{fmt(top)}" '
                         f'width="{fmt(seg_width)}" '
                         f'height="{lane_height}">{tooltip}</rect>')
    return _svg(width, height, parts, title=title)


def legend_html(entries: Sequence[Tuple[str, str]]) -> str:
    """The HTML legend row matching a chart's CSS classes."""
    keys = "".join(
        f'<span class="key"><i class="sw {escape(css)}"></i>'
        f'{escape(text)}</span>' for css, text in entries)
    return f'<div class="legend">{keys}</div>'
