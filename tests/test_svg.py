"""Tests for the dependency-free SVG chart renderer."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

from hypothesis import given
from hypothesis import strategies as st

from repro.obs import report
from repro.obs.svg import (SERIES_CLASSES, LaneSegment, Series, StripCell,
                           bar_chart, cdf_chart, escape, flame_lanes, fmt,
                           histogram_chart, legend_html, line_chart,
                           nice_ticks, series_class, stacked_area,
                           strip_chart, tick_label)


def well_formed(svg: str) -> ET.Element:
    """Parse the fragment; raises on malformed markup."""
    return ET.fromstring(svg)


HIST = {"bounds": [0.0, 1.0, 2.0, 4.0], "counts": [2, 5, 1, 0, 1],
        "count": 9, "sum": 11.0, "min": -0.5, "max": 4.5}


class TestEscape:
    @given(st.text(alphabet=st.sampled_from("&<>;amptgl\"' x\u00e9"))
           | st.text())
    def test_matches_saxutils(self, text):
        assert escape(text) == sax_escape(text)

    def test_ampersand_first(self):
        assert escape("&lt;<&>") == "&amp;lt;&lt;&amp;&gt;"

    def test_report_uses_the_same_function(self):
        assert report.escape is escape


class TestFormatting:
    def test_fmt_trims_trailing_zeros(self):
        assert fmt(3.10) == "3.1"
        assert fmt(3.00) == "3"

    def test_fmt_negative_zero_normalized(self):
        assert fmt(-0.001) == "0"

    def test_tick_label_keeps_clean_numbers(self):
        assert tick_label(0.3) == "0.3"
        assert tick_label(250.0) == "250"

    def test_series_class_clamped_never_cycled(self):
        assert series_class(0) == "s1"
        assert series_class(7) == "s8"
        # A 9th series folds into the last slot, never a generated hue.
        assert series_class(8) == "s8"
        assert series_class(100) == SERIES_CLASSES[-1]

    def test_nice_ticks_cover_range(self):
        ticks = nice_ticks(0.0, 10.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 10.0
        assert len(ticks) >= 2

    def test_nice_ticks_degenerate_range(self):
        assert nice_ticks(5.0, 5.0)  # hi <= lo widens instead of dying

    def test_nice_ticks_nonfinite(self):
        assert nice_ticks(float("nan"), 1.0) == []


class TestLineChart:
    def test_empty_series_fallback(self):
        svg = line_chart([])
        assert "no samples" in svg
        well_formed(svg)

    def test_series_with_no_points_dropped(self):
        svg = line_chart([Series("empty", []),
                          Series("full", [(0, 1), (1, 2)])])
        assert "full" in svg
        well_formed(svg)

    def test_polyline_per_series_with_classes(self):
        svg = line_chart([Series("a", [(0, 1), (1, 2)]),
                          Series("b", [(0, 2), (1, 1)])])
        assert 'class="line s1"' in svg
        assert 'class="line s2"' in svg
        well_formed(svg)

    def test_step_mode_doubles_points(self):
        plain = line_chart([Series("a", [(0, 1), (1, 2), (2, 1)])])
        step = line_chart([Series("a", [(0, 1), (1, 2), (2, 1)])],
                          step=True)
        assert step.count(",") > plain.count(",")
        well_formed(step)

    def test_shades_and_refs_rendered(self):
        svg = line_chart([Series("a", [(0, 1), (10, 2)])],
                         shades=[(2.0, 4.0, "shade")], refs=(5.0,))
        assert 'class="shade"' in svg
        assert 'class="refline"' in svg
        well_formed(svg)

    def test_out_of_range_ref_skipped(self):
        svg = line_chart([Series("a", [(0, 1), (10, 2)])], refs=(99.0,))
        assert "refline" not in svg

    def test_markers_emit_dots(self):
        svg = line_chart([Series("a", [(0, 1), (1, 2)])], markers=True)
        assert 'class="dot s1"' in svg
        well_formed(svg)

    def test_flat_series_does_not_divide_by_zero(self):
        well_formed(line_chart([Series("a", [(0, 5.0), (1, 5.0)])]))


class TestStackedArea:
    def test_empty_fallback(self):
        assert "no samples" in stacked_area([])

    def test_polygon_per_series(self):
        svg = stacked_area([Series("a", [(0, 1), (1, 1)]),
                            Series("b", [(0, 2), (1, 2)])])
        assert svg.count("<polygon") == 2
        well_formed(svg)


class TestBarChart:
    def test_mismatched_lengths_fallback(self):
        assert "no data" in bar_chart(["a", "b"], [1.0])

    def test_one_bar_per_category(self):
        svg = bar_chart(["x", "y", "z"], [1.0, 2.0, 3.0])
        assert svg.count('class="fill') == 3
        assert 'class="fill s3"' in svg  # fixed order, per category
        well_formed(svg)

    def test_value_labels_formatted(self):
        svg = bar_chart(["x"], [1234.5], value_format="{:.1f}")
        assert "1234.5" in svg


class TestHistogramAndCdf:
    def test_histogram_empty_fallback(self):
        assert "no observations" in histogram_chart({"bounds": [],
                                                     "counts": []})
        assert "no observations" in histogram_chart(
            {"bounds": [1.0], "counts": [0, 0]})

    def test_histogram_draws_occupied_buckets_only(self):
        svg = histogram_chart(HIST)
        assert svg.count("<rect") == 4  # zero bucket skipped
        well_formed(svg)

    def test_histogram_ref_line(self):
        svg = histogram_chart(HIST, refs=(1.0,))
        assert "refline" in svg

    def test_cdf_reaches_one(self):
        svg = cdf_chart(HIST)
        assert 'class="line s1"' in svg
        well_formed(svg)

    def test_cdf_custom_css(self):
        assert 'class="line s2"' in cdf_chart(HIST, css="s2")

    def test_cdf_empty_fallback(self):
        assert "no observations" in cdf_chart({"bounds": [], "counts": []})


class TestStripChart:
    def test_empty_fallback(self):
        assert "no chunks" in strip_chart([])
        assert "no chunks" in strip_chart(
            [StripCell(1.0, 1.0, 0.5, 0.0, "lvl0")])  # zero width

    def test_bar_and_overlay(self):
        svg = strip_chart([
            StripCell(0.0, 2.0, 1.0, 0.5, "lvl4", label="chunk 0"),
            StripCell(2.0, 4.0, 0.4, 0.0, "lvl1")])
        assert 'class="fill lvl4"' in svg
        assert 'class="fill lvl1"' in svg
        assert svg.count('class="overlay"') == 1  # only the cellular cell
        assert "chunk 0" in svg
        well_formed(svg)


class TestFlameLanes:
    def test_empty_fallback(self):
        assert "no intervals" in flame_lanes([])
        assert "no intervals" in flame_lanes([("wifi", [])])

    def test_lane_labels_and_segments(self):
        svg = flame_lanes([
            ("wifi", [LaneSegment(0.0, 2.0, "radio-active", "active")]),
            ("lte", [LaneSegment(1.0, 3.0, "radio-tail")])])
        assert "wifi" in svg and "lte" in svg
        assert 'class="fill radio-active"' in svg
        well_formed(svg)

    def test_explicit_window_clips_segments(self):
        svg = flame_lanes(
            [("a", [LaneSegment(-5.0, 50.0, "s1")])], x_min=0.0,
            x_max=10.0)
        well_formed(svg)

    def test_height_scales_with_lanes(self):
        one = flame_lanes([("a", [LaneSegment(0, 1, "s1")])])
        three = flame_lanes([
            (name, [LaneSegment(0, 1, "s1")]) for name in "abc"])
        height = lambda svg: int(well_formed(svg).get("height"))
        assert height(three) > height(one)


class TestLegend:
    def test_keys_and_swatches(self):
        html = legend_html([("s1", "wifi"), ("s2", "lte")])
        assert html.count('class="key"') == 2
        assert 'class="sw s1"' in html
        well_formed(html)

    def test_escapes_text(self):
        assert "&lt;b&gt;" in legend_html([("s1", "<b>")])


class TestDeterminism:
    def test_rendering_is_pure(self):
        chart = lambda: line_chart(
            [Series("a", [(i * 0.1, i ** 1.5) for i in range(50)])],
            markers=True, shades=[(1.0, 2.0, "shade")], refs=(3.0,))
        assert chart() == chart()
