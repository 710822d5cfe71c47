"""MP-DASH: Adaptive Video Streaming Over Preference-Aware Multipath.

A from-scratch Python reproduction of the CoNEXT 2016 system: the
deadline-aware MP-DASH scheduler, the video adapter, and every substrate —
an MPTCP transport simulator, a DASH stack with four rate-adaptation
algorithms, Holt-Winters throughput prediction, a radio energy model, the
paper's workloads, and the multipath video analysis tool.

Quick start::

    from repro import SessionConfig, run_session

    result = run_session(SessionConfig(abr="festive", mpdash=True,
                                       deadline_mode="rate",
                                       wifi_mbps=3.8, lte_mbps=3.0))
    print(result.metrics.cellular_bytes, result.metrics.radio_energy)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .abr import abr_names, make_abr
    from .analysis.analyzer import MultipathVideoAnalyzer
    from .analysis.metrics import SessionMetrics
    from .core.adapter import MpDashAdapter
    from .core.offline import solve_offline
    from .core.policy import Preference, prefer_cellular, prefer_wifi
    from .core.scheduler import DeadlineAwareScheduler
    from .core.socket_api import MpDashSocket
    from .core.tracesim import simulate_online, simulate_oracle
    from .dash.manifest import Manifest
    from .dash.media import VideoAsset
    from .dash.player import DashPlayer
    from .dash.server import DashServer
    from .experiments.compare import SchemeComparison, run_schemes
    from .experiments.configs import FileDownloadConfig, SessionConfig
    from .experiments.runner import (SessionResult, run_file_download,
                                     run_session)
    from .experiments.sweep import (SessionSummary, SweepResult,
                                    expand_grid, run_sweep)
    from .mptcp.connection import MptcpConnection
    from .net.link import Path, cellular_path, wifi_path
    from .net.simulator import Simulator
    from .net.trace import BandwidthTrace
    from .net.units import mbps
    from .workloads.locations import field_study_locations
    from .workloads.mobility import MobilityScenario
    from .workloads.synthetic import table1_profiles
    from .workloads.videos import video_asset

__version__ = "1.0.0"

__all__ = [
    "BandwidthTrace", "DashPlayer", "DashServer", "DeadlineAwareScheduler",
    "FileDownloadConfig", "Manifest", "MobilityScenario", "MpDashAdapter",
    "MpDashSocket", "MptcpConnection", "MultipathVideoAnalyzer", "Path",
    "Preference", "SchemeComparison", "SessionConfig", "SessionMetrics",
    "SessionResult", "SessionSummary", "Simulator", "SweepResult",
    "VideoAsset", "abr_names", "cellular_path", "expand_grid",
    "field_study_locations", "make_abr", "mbps",
    "prefer_cellular", "prefer_wifi", "run_file_download", "run_schemes",
    "run_session", "run_sweep", "simulate_online", "simulate_oracle",
    "solve_offline", "table1_profiles", "video_asset", "wifi_path",
]

_EXPORTS = {
    ".abr": ("abr_names", "make_abr"),
    ".analysis.analyzer": ("MultipathVideoAnalyzer",),
    ".analysis.metrics": ("SessionMetrics",),
    ".core.adapter": ("MpDashAdapter",),
    ".core.offline": ("solve_offline",),
    ".core.policy": ("Preference", "prefer_cellular", "prefer_wifi"),
    ".core.scheduler": ("DeadlineAwareScheduler",),
    ".core.socket_api": ("MpDashSocket",),
    ".core.tracesim": ("simulate_online", "simulate_oracle"),
    ".dash.manifest": ("Manifest",),
    ".dash.media": ("VideoAsset",),
    ".dash.player": ("DashPlayer",),
    ".dash.server": ("DashServer",),
    ".experiments.compare": ("SchemeComparison", "run_schemes"),
    ".experiments.configs": ("FileDownloadConfig", "SessionConfig"),
    ".experiments.runner": ("SessionResult", "run_file_download",
                            "run_session"),
    ".experiments.sweep": ("SessionSummary", "SweepResult", "expand_grid",
                           "run_sweep"),
    ".mptcp.connection": ("MptcpConnection",),
    ".net.link": ("Path", "cellular_path", "wifi_path"),
    ".net.simulator": ("Simulator",),
    ".net.trace": ("BandwidthTrace",),
    ".net.units": ("mbps",),
    ".workloads.locations": ("field_study_locations",),
    ".workloads.mobility": ("MobilityScenario",),
    ".workloads.synthetic": ("table1_profiles",),
    ".workloads.videos": ("video_asset",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
