"""Tests for the MPC hybrid ABR (the §5.2.3 extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr import HYBRID, Mpc, make_abr, abr_names
from repro.abr.base import AbrContext
from repro.dash.events import ChunkRecord
from repro.dash.manifest import Manifest
from repro.dash.media import VideoAsset
from repro.net.units import mbps


@pytest.fixture
def manifest():
    asset = VideoAsset.generate("m", 4.0, 600.0,
                                [0.58, 1.01, 1.47, 2.41, 3.94], seed=0)
    return Manifest(asset)


def ctx(manifest, current_level, buffer_level, override=None,
        measured=None, index=10):
    return AbrContext(manifest=manifest, buffer_level=buffer_level,
                      buffer_capacity=40.0, next_chunk_index=index,
                      current_level=current_level,
                      measured_throughput=measured,
                      override_throughput=override, in_startup=False)


def feed(abr, throughput, n=5):
    for _ in range(n):
        abr.on_chunk_downloaded(ChunkRecord(
            index=0, level=0, size=1e6, duration=4.0, requested_at=0.0,
            completed_at=1.0, throughput=throughput))


class TestMpc:
    def test_category(self):
        assert Mpc.category == HYBRID

    def test_registered_in_factory(self):
        assert "mpc" in abr_names()
        assert isinstance(make_abr("mpc"), Mpc)

    def test_high_throughput_high_buffer_goes_up(self, manifest):
        abr = Mpc()
        feed(abr, mbps(10.0))
        level = abr.choose_level(ctx(manifest, 2, 30.0))
        assert level > 2

    def test_low_throughput_low_buffer_goes_down(self, manifest):
        abr = Mpc()
        feed(abr, mbps(0.6))
        level = abr.choose_level(ctx(manifest, 3, 5.0))
        assert level < 3

    def test_rebuffer_penalty_dominates(self, manifest):
        """Nearly empty buffer and weak throughput: MPC must not gamble on
        a high level even if quality terms would like it."""
        abr = Mpc(rebuffer_penalty=40.0)
        feed(abr, mbps(1.2))
        level = abr.choose_level(ctx(manifest, 4, 1.0))
        assert level <= 2

    def test_switch_penalty_discourages_thrash(self, manifest):
        smooth = Mpc(switch_penalty=50.0)
        feed(smooth, mbps(2.5))
        level = smooth.choose_level(ctx(manifest, 2, 20.0))
        assert abs(level - 2) <= 1

    def test_no_prediction_holds_level(self, manifest):
        abr = Mpc()
        assert abr.choose_level(ctx(manifest, 2, 20.0)) == 2

    def test_override_used_as_prediction(self, manifest):
        abr = Mpc()
        feed(abr, mbps(0.3))
        up = abr.choose_level(ctx(manifest, 2, 30.0, override=mbps(10.0)))
        assert up > 2

    def test_horizon_shrinks_near_video_end(self, manifest):
        abr = Mpc(horizon=5)
        feed(abr, mbps(5.0))
        # Last chunk: horizon collapses to 1; must still return a level.
        level = abr.choose_level(ctx(manifest, 2, 20.0,
                                     index=manifest.num_chunks - 1))
        assert 0 <= level < manifest.num_levels

    def test_required_throughput(self, manifest):
        abr = Mpc()
        context = ctx(manifest, 2, 20.0)
        assert abr.required_throughput(context, 4) == \
            manifest.bitrates()[4]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Mpc(horizon=0)
        with pytest.raises(ValueError):
            Mpc(max_step=0)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_abr("nope")


# ----------------------------------------------------------------------
# Oracle: the plain recursive search the table-driven one replaced
# ----------------------------------------------------------------------
def reference_argmax_first(abr, ctx, prediction, bitrates, chunk_duration,
                           steps, current, max_step=None):
    """Depth-first search with one ``_step`` call per tree node."""
    if max_step is None:
        max_step = abr.max_step
    best = (-float("inf"), current)

    def recurse(depth, buffer_level, qoe, previous, first):
        nonlocal best
        if depth == steps:
            if qoe > best[0]:
                best = (qoe, first if first is not None else current)
            return
        for level in abr._neighbors(previous, len(bitrates), max_step):
            new_qoe, new_buffer = reference_step(
                abr, qoe, buffer_level, previous, level, bitrates,
                chunk_duration, prediction, ctx.buffer_capacity,
                ctx.next_chunk_index + depth, ctx)
            recurse(depth + 1, new_buffer, new_qoe, level,
                    level if first is None else first)

    recurse(0, ctx.buffer_level, 0.0, current, None)
    return best[1]


def reference_step(abr, qoe, buffer_level, previous, level, bitrates,
                   chunk_duration, prediction, capacity, chunk_index, ctx):
    size = abr._chunk_size(ctx, level, chunk_index, bitrates,
                           chunk_duration)
    download_time = size / prediction
    rebuffer = max(0.0, download_time - buffer_level)
    buffer_level = max(0.0, buffer_level - download_time)
    buffer_level = min(capacity, buffer_level + chunk_duration)
    quality = bitrates[level] * 8.0 / 1e6
    previous_quality = bitrates[previous] * 8.0 / 1e6
    qoe += (quality
            - abr.switch_penalty * abs(quality - previous_quality)
            - abr.rebuffer_penalty * rebuffer)
    return qoe, buffer_level


class OracleMpc(Mpc):
    def _argmax_first(self, *args, **kwargs):
        return reference_argmax_first(self, *args, **kwargs)


#: A coarse rate grid so that equal-QoE leaves (the tie-break) occur.
RATES_MBPS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0,
                              6.0, 8.0])
PENALTIES = st.sampled_from([0.0, 0.5, 1.0, 4.0])


class TestSearchMatchesOracle:
    @given(ladder=st.lists(RATES_MBPS, min_size=1, max_size=8, unique=True),
           horizon=st.integers(1, 5), max_step=st.integers(1, 3),
           robust=st.booleans(), switch_penalty=PENALTIES,
           rebuffer_penalty=st.sampled_from([0.0, 4.0, 40.0]),
           chunk_duration=st.sampled_from([1.0, 2.0, 4.0]),
           num_chunks=st.integers(1, 12), chunks_left=st.integers(1, 7),
           current=st.integers(0, 7),
           buffer_level=st.floats(0.0, 60.0), capacity=st.floats(1.0, 60.0),
           prediction=st.one_of(st.none(), st.floats(0.05, 20.0)),
           history=st.lists(st.floats(0.1, 20.0), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_choose_level_identical(self, ladder, horizon, max_step, robust,
                                    switch_penalty, rebuffer_penalty,
                                    chunk_duration, num_chunks, chunks_left,
                                    current, buffer_level, capacity,
                                    prediction, history):
        asset = VideoAsset.generate("h", chunk_duration,
                                    chunk_duration * num_chunks,
                                    sorted(ladder), seed=0)
        manifest = Manifest(asset)
        context = AbrContext(
            manifest=manifest, buffer_level=buffer_level,
            buffer_capacity=capacity,
            next_chunk_index=max(0, num_chunks - chunks_left),
            current_level=current % len(ladder),
            measured_throughput=mbps(2.0),
            override_throughput=(None if prediction is None
                                 else mbps(prediction)),
            in_startup=False)
        params = dict(horizon=horizon, switch_penalty=switch_penalty,
                      rebuffer_penalty=rebuffer_penalty, max_step=max_step,
                      robust=robust)
        fast, oracle = Mpc(**params), OracleMpc(**params)
        for rate in history:
            for abr in (fast, oracle):
                # A prediction must exist for the robust error to accrue.
                abr.choose_level(context)
                feed(abr, mbps(rate), n=1)
        assert fast.choose_level(context) == oracle.choose_level(context)

    @given(ladder=st.lists(RATES_MBPS, min_size=1, max_size=8),
           steps=st.integers(1, 5), max_step=st.integers(1, 3),
           switch_penalty=PENALTIES,
           rebuffer_penalty=st.sampled_from([0.0, 1.0, 40.0]),
           current=st.integers(0, 7),
           buffer_level=st.sampled_from([0.0, 1.0, 4.0, 10.0, 40.0]),
           capacity=st.sampled_from([4.0, 8.0, 40.0]),
           prediction=st.sampled_from([mbps(0.5), mbps(1.0), mbps(4.0)]))
    @settings(max_examples=300, deadline=None)
    def test_ties_break_to_the_first_sequence(self, ladder, steps,
                                              max_step, switch_penalty,
                                              rebuffer_penalty, current,
                                              buffer_level, capacity,
                                              prediction):
        """Unsorted ladders with repeated rates give exactly equal leaves:
        both searches must keep the first one found."""
        bitrates = [mbps(rate) for rate in ladder]
        manifest = Manifest(VideoAsset.generate("t", 4.0, 40.0, [1.0],
                                                seed=0))
        context = AbrContext(manifest=manifest, buffer_level=buffer_level,
                             buffer_capacity=capacity, next_chunk_index=3,
                             current_level=0, in_startup=False)
        abr = Mpc(switch_penalty=switch_penalty,
                  rebuffer_penalty=rebuffer_penalty)
        current %= len(bitrates)
        args = (context, prediction, bitrates, 4.0, steps, current,
                max_step)
        assert abr._argmax_first(*args) == \
            reference_argmax_first(abr, *args)
