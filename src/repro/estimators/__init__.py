"""Throughput estimators: Holt-Winters (the paper's choice), EWMA, harmonic."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import ThroughputEstimator
    from .ewma import Ewma
    from .harmonic import HarmonicMean
    from .holt_winters import HoltWinters

__all__ = ["Ewma", "HarmonicMean", "HoltWinters", "ThroughputEstimator"]

_EXPORTS = {
    ".base": ("ThroughputEstimator",),
    ".ewma": ("Ewma",),
    ".harmonic": ("HarmonicMean",),
    ".holt_winters": ("HoltWinters",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
