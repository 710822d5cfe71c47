"""Delay-tolerant applications on the MP-DASH scheduler (§8).

The deadline-aware scheduler generalizes beyond video: any transfer that
must complete *by* a time rather than *as soon as possible* can ride the
preferred path and touch cellular only under deadline pressure.  The paper
names music prefetching and turn-by-turn navigation; both are implemented
here against the same :class:`~repro.core.socket_api.MpDashSocket` API the
video adapter uses.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .music import MusicPrefetcher, PlaylistTrack
    from .navigation import NavigationPrefetcher, RouteTile

__all__ = ["MusicPrefetcher", "NavigationPrefetcher", "PlaylistTrack",
           "RouteTile"]

_EXPORTS = {
    ".music": ("MusicPrefetcher", "PlaylistTrack"),
    ".navigation": ("NavigationPrefetcher", "RouteTile"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
