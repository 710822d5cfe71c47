"""Radio energy model: device power profiles and trace-replay computation."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .devices import (DEVICES, GALAXY_NOTE, GALAXY_S3,
                          DevicePowerProfile, InterfacePowerProfile)
    from .model import (EnergyBreakdown, interface_energy,
                        radio_state_events, session_energy,
                        session_radio_events)

__all__ = [
    "DEVICES", "DevicePowerProfile", "EnergyBreakdown", "GALAXY_NOTE",
    "GALAXY_S3", "InterfacePowerProfile", "interface_energy",
    "radio_state_events", "session_energy", "session_radio_events",
]

_EXPORTS = {
    ".devices": ("DEVICES", "GALAXY_NOTE", "GALAXY_S3",
                 "DevicePowerProfile", "InterfacePowerProfile"),
    ".model": ("EnergyBreakdown", "interface_energy", "radio_state_events",
               "session_energy", "session_radio_events"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
