"""Cross-layer analysis: metrics, the video analyzer, CDFs, text figures."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .analyzer import ChunkView, IdleGap, MultipathVideoAnalyzer
    from .cdf import (empirical_cdf, fraction_at_most, percentile,
                      quartile_summary)
    from .metrics import (SessionMetrics, bitrate_reduction, compute_metrics,
                          path_utilization, savings)
    from .qoe import QoeScore, qoe_from_bitrates, qoe_of, session_qoe
    from .report import session_report
    from .visualize import (NUM_LEVELS, ChunkCell, chunk_cells,
                            chunk_timeline, sparkline, throughput_plot)

__all__ = [
    "NUM_LEVELS",
    "ChunkCell", "ChunkView", "IdleGap", "MultipathVideoAnalyzer",
    "QoeScore", "SessionMetrics", "qoe_from_bitrates", "qoe_of",
    "session_qoe", "bitrate_reduction", "chunk_cells", "chunk_timeline",
    "compute_metrics", "empirical_cdf", "fraction_at_most",
    "path_utilization", "percentile", "quartile_summary", "savings",
    "session_report", "sparkline", "throughput_plot",
]

_EXPORTS = {
    ".analyzer": ("ChunkView", "IdleGap", "MultipathVideoAnalyzer"),
    ".cdf": ("empirical_cdf", "fraction_at_most", "percentile",
             "quartile_summary"),
    ".metrics": ("SessionMetrics", "bitrate_reduction", "compute_metrics",
                 "path_utilization", "savings"),
    ".qoe": ("QoeScore", "qoe_from_bitrates", "qoe_of", "session_qoe"),
    ".report": ("session_report",),
    ".visualize": ("NUM_LEVELS", "ChunkCell", "chunk_cells",
                   "chunk_timeline", "sparkline", "throughput_plot"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
