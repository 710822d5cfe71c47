"""Network substrate: simulation kernel, bandwidth traces, paths, TCP."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .link import CELLULAR, WIFI, Path, cellular_path, wifi_path
    from .simulator import Event, PeriodicProcess, SimulationError, Simulator
    from .tcp import INITIAL_CWND, TcpState
    from .trace import BandwidthTrace, constant_mbps
    from .units import (KB, MB, PACKET_SIZE, kbps, mbps, megabytes,
                        milliseconds, to_mbps, to_megabytes)

__all__ = [
    "BandwidthTrace", "CELLULAR", "Event", "INITIAL_CWND", "KB", "MB",
    "PACKET_SIZE", "Path", "PeriodicProcess", "SimulationError", "Simulator",
    "TcpState", "WIFI", "cellular_path", "constant_mbps", "kbps", "mbps",
    "megabytes", "milliseconds", "to_mbps", "to_megabytes", "wifi_path",
]

_EXPORTS = {
    ".link": ("CELLULAR", "WIFI", "Path", "cellular_path", "wifi_path"),
    ".simulator": ("Event", "PeriodicProcess", "SimulationError",
                   "Simulator"),
    ".tcp": ("INITIAL_CWND", "TcpState"),
    ".trace": ("BandwidthTrace", "constant_mbps"),
    ".units": ("KB", "MB", "PACKET_SIZE", "kbps", "mbps", "megabytes",
               "milliseconds", "to_mbps", "to_megabytes"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
