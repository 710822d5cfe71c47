"""MPC rate adaptation (Yin et al., SIGCOMM 2015) — the §5.2.3 extension.

MPC is the *hybrid* category: it combines a throughput prediction with the
buffer occupancy by solving, at each chunk boundary, a small finite-horizon
optimization — pick the level sequence over the next ``horizon`` chunks
maximizing a QoE objective (average quality, minus switching penalty, minus
a large rebuffering penalty), then apply only the first decision and
re-solve at the next chunk (receding horizon).

The paper leaves MP-DASH + MPC as future work but sketches the design: the
chunk deadline becomes the chunk size over the minimum throughput the
chosen level requires, and the Φ/Ω machinery is reused from the
throughput-based rules.  This module implements the algorithm so that the
sketch is runnable; the adapter treats HYBRID like THROUGHPUT_BASED.

The implementation brute-forces the level tree with one pruning rule
(consecutive levels may differ by at most ``max_step``), which keeps the
search exact for the paper-scale 5-level ladders while bounding cost.
The per-step terms that do not depend on the buffer are tabulated once
per decision, so a tree node costs a few float operations.
"""

from __future__ import annotations

from typing import List, Optional

from ..dash.events import ChunkRecord
from ..estimators import HarmonicMean
from .base import HYBRID, AbrAlgorithm, AbrContext


class Mpc(AbrAlgorithm):
    """Receding-horizon QoE optimization over predicted throughput."""

    name = "mpc"
    category = HYBRID

    def __init__(self, horizon: int = 4, switch_penalty: float = 1.0,
                 rebuffer_penalty: float = 40.0, window: int = 5,
                 max_step: int = 2, robust: bool = False):
        """``robust`` enables RobustMPC's error discounting: the prediction
        is divided by ``1 + max recent relative error``, so a predictor
        that has been over-optimistic lately gets trusted less."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1: {horizon!r}")
        if max_step < 1:
            raise ValueError(f"max_step must be >= 1: {max_step!r}")
        self.horizon = horizon
        self.switch_penalty = switch_penalty
        self.rebuffer_penalty = rebuffer_penalty
        self.max_step = max_step
        self.robust = robust
        self._estimator = HarmonicMean(window)
        self._recent_errors: List[float] = []
        self._error_window = window
        self._last_prediction: Optional[float] = None

    def reset(self) -> None:
        self._estimator.reset()
        self._recent_errors = []
        self._last_prediction = None

    def on_chunk_downloaded(self, record: ChunkRecord) -> None:
        if self._last_prediction is not None and record.throughput > 0:
            # Relative over-prediction; under-predictions are harmless.
            error = max(0.0, (self._last_prediction - record.throughput)
                        / record.throughput)
            self._recent_errors.append(error)
            if len(self._recent_errors) > self._error_window:
                self._recent_errors.pop(0)
        self._estimator.update(record.throughput)

    def _prediction(self, ctx: AbrContext) -> Optional[float]:
        if ctx.override_throughput is not None:
            value = ctx.override_throughput
        else:
            value = self._estimator.predict()
            if value is None:
                value = ctx.measured_throughput
        if value is None:
            return None
        self._last_prediction = value
        if self.robust and self._recent_errors:
            value = value / (1.0 + max(self._recent_errors))
        return value

    def choose_level(self, ctx: AbrContext) -> int:
        current = ctx.current_level
        if current is None:
            return self.initial_level(ctx.manifest)
        prediction = self._prediction(ctx)
        if prediction is None or prediction <= 0:
            return current

        bitrates = ctx.manifest.bitrates()
        chunk_duration = ctx.manifest.chunk_duration
        chunks_left = ctx.manifest.num_chunks - ctx.next_chunk_index
        steps = min(self.horizon, max(1, chunks_left))
        # With fewer samples than the smoothing window wants, a single fast
        # chunk would let the optimizer leap several rungs and stall a thin
        # startup buffer; move one rung at a time until the estimate is
        # grounded.
        max_step = self.max_step
        if self._estimator.sample_count < 3:
            max_step = 1
        return self._argmax_first(ctx, prediction, bitrates, chunk_duration,
                                  steps, current, max_step)

    # ------------------------------------------------------------------
    # Receding-horizon search
    # ------------------------------------------------------------------
    def _argmax_first(self, ctx: AbrContext, prediction: float,
                      bitrates, chunk_duration: float, steps: int,
                      current: int, max_step: Optional[int] = None) -> int:
        """First level of the best level sequence over ``steps`` chunks.

        Exact depth-first search of the tree: levels in ascending order
        under each node, the first strictly better leaf wins.  Everything
        a step needs that does not depend on the buffer is tabulated once
        per decision: the step's quality-minus-switching term per
        (previous, level) pair and its download time per (depth, level).
        """
        if max_step is None:
            max_step = self.max_step
        num_levels = len(bitrates)
        capacity = ctx.buffer_capacity
        rebuffer_penalty = self.rebuffer_penalty
        switch_penalty = self.switch_penalty
        quality = [rate * 8.0 / 1e6 for rate in bitrates]  # Mbps, MPC's q()
        gains = [[q - switch_penalty * abs(q - previous) for q in quality]
                 for previous in quality]
        first_index = ctx.next_chunk_index
        downloads = [[self._chunk_size(ctx, level, first_index + depth,
                                       bitrates, chunk_duration) / prediction
                      for level in range(num_levels)]
                     for depth in range(steps)]
        neighbors = [self._neighbors(level, num_levels, max_step)
                     for level in range(num_levels)]
        last = steps - 1
        best_qoe = -float("inf")
        best_first = current

        def walk(depth: int, buffer_level: float, qoe: float,
                 previous: int, first: int) -> None:
            nonlocal best_qoe, best_first
            times = downloads[depth]
            gain = gains[previous]
            if depth == last:
                for level in neighbors[previous]:
                    rebuffer = times[level] - buffer_level
                    rebuffer = rebuffer if rebuffer > 0.0 else 0.0
                    leaf = qoe + (gain[level] - rebuffer_penalty * rebuffer)
                    if leaf > best_qoe:
                        best_qoe = leaf
                        best_first = level if first < 0 else first
                return
            for level in neighbors[previous]:
                download_time = times[level]
                rebuffer = download_time - buffer_level
                rebuffer = rebuffer if rebuffer > 0.0 else 0.0
                left = buffer_level - download_time
                left = (left if left > 0.0 else 0.0) + chunk_duration
                walk(depth + 1, left if left < capacity else capacity,
                     qoe + (gain[level] - rebuffer_penalty * rebuffer),
                     level, level if first < 0 else first)

        walk(0, ctx.buffer_level, 0.0, current, -1)
        return best_first

    def _neighbors(self, level: int, num_levels: int,
                   max_step: Optional[int] = None) -> range:
        if max_step is None:
            max_step = self.max_step
        low = max(0, level - max_step)
        high = min(num_levels - 1, level + max_step)
        return range(low, high + 1)

    def _chunk_size(self, ctx: AbrContext, level: int, chunk_index: int,
                    bitrates, chunk_duration: float) -> float:
        """Future chunk size: nominal bitrate × duration (the manifest does
        not expose future VBR sizes to the player)."""
        return bitrates[level] * chunk_duration

    def required_throughput(self, ctx: AbrContext, level: int) -> float:
        """Minimum throughput the chosen bitrate requires (bytes/second) —
        the quantity the paper's MP-DASH+MPC sketch uses for deadlines."""
        return ctx.manifest.bitrates()[level]
