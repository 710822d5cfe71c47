"""MPTCP transport: subflows, packet schedulers, DSS signaling, connection."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .activity import ActivityLog
    from .connection import MptcpConnection, PathController, Transfer
    from .options import SignalChannel
    from .packet_level import (PacketDownloadResult, PacketLevelDownload,
                               run_packet_download)
    from .proxy import SplittingProxy
    from .schedulers import (MinRttScheduler, MptcpScheduler,
                             RoundRobinScheduler, make_scheduler,
                             scheduler_names)
    from .subflow import Subflow

__all__ = [
    "ActivityLog", "MinRttScheduler", "MptcpConnection", "MptcpScheduler",
    "PacketDownloadResult", "PacketLevelDownload", "PathController",
    "RoundRobinScheduler", "SignalChannel", "Subflow", "Transfer",
    "SplittingProxy", "make_scheduler", "run_packet_download",
    "scheduler_names",
]

_EXPORTS = {
    ".activity": ("ActivityLog",),
    ".connection": ("MptcpConnection", "PathController", "Transfer"),
    ".options": ("SignalChannel",),
    ".packet_level": ("PacketDownloadResult", "PacketLevelDownload",
                      "run_packet_download"),
    ".proxy": ("SplittingProxy",),
    ".schedulers": ("MinRttScheduler", "MptcpScheduler",
                    "RoundRobinScheduler", "make_scheduler",
                    "scheduler_names"),
    ".subflow": ("Subflow",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
