"""DASH streaming stack: media model, manifest, HTTP, server, player."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .buffer import PlaybackBuffer
    from .events import (DOWNLOADED, MPDASH_ARMED, MPDASH_SKIPPED,
                         PLAY_START, PLAYBACK_END, QUALITY_SWITCH, REQUEST,
                         STALL_END, STALL_START, ChunkRecord, PlayerEvent,
                         PlayerEventLog, StallRecord)
    from .http import HttpClient, HttpRequest, HttpResponse
    from .manifest import Manifest, Representation
    from .media import QualityLevel, VideoAsset
    from .player import DashPlayer, PlayerAddon
    from .server import DashServer

__all__ = [
    "ChunkRecord", "DashPlayer", "DashServer", "HttpClient", "HttpRequest",
    "HttpResponse", "Manifest", "PlaybackBuffer", "PlayerAddon",
    "PlayerEvent", "PlayerEventLog", "QualityLevel", "Representation",
    "StallRecord", "VideoAsset",
    "DOWNLOADED", "MPDASH_ARMED", "MPDASH_SKIPPED", "PLAY_START",
    "PLAYBACK_END", "QUALITY_SWITCH", "REQUEST", "STALL_END", "STALL_START",
]

_EXPORTS = {
    ".buffer": ("PlaybackBuffer",),
    ".events": ("DOWNLOADED", "MPDASH_ARMED", "MPDASH_SKIPPED", "PLAY_START",
                "PLAYBACK_END", "QUALITY_SWITCH", "REQUEST", "STALL_END",
                "STALL_START", "ChunkRecord", "PlayerEvent",
                "PlayerEventLog", "StallRecord"),
    ".http": ("HttpClient", "HttpRequest", "HttpResponse"),
    ".manifest": ("Manifest", "Representation"),
    ".media": ("QualityLevel", "VideoAsset"),
    ".player": ("DashPlayer", "PlayerAddon"),
    ".server": ("DashServer",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
