"""Workloads: videos, bandwidth profiles, locations, mobility, arrivals."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .arrivals import (ARRIVAL_DIURNAL, ARRIVAL_MODELS, ARRIVAL_POISSON,
                           DEFAULT_DEVICE_MIX, DIURNAL_CURVE,
                           SessionArrivals, SessionDraw)
    from .locations import (SCENARIO_ALWAYS, SCENARIO_COUNTS, SCENARIO_NEVER,
                            SCENARIO_SOMETIMES, TABLE5_LOCATIONS,
                            TOP_BITRATE_MBPS, Location,
                            field_study_locations, location_by_name)
    from .mobility import MobilityScenario
    from .synthetic import (BandwidthProfile, coffeehouse_profile,
                            fast_food_profile, office_profile,
                            synthetic_profile, table1_profiles)
    from .videos import (DEFAULT_CHUNK_DURATION, DEFAULT_DURATION,
                         VIDEO_LADDERS, video_asset, video_names)

__all__ = [
    "ARRIVAL_DIURNAL", "ARRIVAL_MODELS", "ARRIVAL_POISSON",
    "BandwidthProfile", "DEFAULT_CHUNK_DURATION", "DEFAULT_DEVICE_MIX",
    "DEFAULT_DURATION", "DIURNAL_CURVE",
    "Location", "MobilityScenario", "SCENARIO_ALWAYS", "SCENARIO_COUNTS",
    "SCENARIO_NEVER", "SCENARIO_SOMETIMES", "SessionArrivals",
    "SessionDraw", "TABLE5_LOCATIONS",
    "TOP_BITRATE_MBPS", "VIDEO_LADDERS", "coffeehouse_profile",
    "fast_food_profile", "field_study_locations", "location_by_name",
    "office_profile", "synthetic_profile", "table1_profiles", "video_asset",
    "video_names",
]

_EXPORTS = {
    ".arrivals": ("ARRIVAL_DIURNAL", "ARRIVAL_MODELS", "ARRIVAL_POISSON",
                  "DEFAULT_DEVICE_MIX", "DIURNAL_CURVE", "SessionArrivals",
                  "SessionDraw"),
    ".locations": ("SCENARIO_ALWAYS", "SCENARIO_COUNTS", "SCENARIO_NEVER",
                   "SCENARIO_SOMETIMES", "TABLE5_LOCATIONS",
                   "TOP_BITRATE_MBPS", "Location", "field_study_locations",
                   "location_by_name"),
    ".mobility": ("MobilityScenario",),
    ".synthetic": ("BandwidthProfile", "coffeehouse_profile",
                   "fast_food_profile", "office_profile",
                   "synthetic_profile", "table1_profiles"),
    ".videos": ("DEFAULT_CHUNK_DURATION", "DEFAULT_DURATION",
                "VIDEO_LADDERS", "video_asset", "video_names"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
