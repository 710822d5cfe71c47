"""MP-DASH core: deadline-aware scheduler, offline optimum, video adapter."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .adapter import MpDashAdapter
    from .deadlines import (DEADLINE_MODES, DURATION_BASED, RATE_BASED,
                            compute_deadline, duration_based_deadline,
                            extend_deadline, rate_based_deadline)
    from .offline import (OfflineSolution, fluid_lower_bound, solve_greedy,
                          solve_offline)
    from .policy import Preference, prefer_cellular, prefer_wifi
    from .scheduler import DeadlineAwareScheduler
    from .socket_api import MpDashSocket
    from .tracesim import TraceSimResult, simulate_online, simulate_oracle

__all__ = [
    "DEADLINE_MODES", "DURATION_BASED", "DeadlineAwareScheduler",
    "MpDashAdapter", "MpDashSocket", "OfflineSolution", "Preference",
    "RATE_BASED", "TraceSimResult", "compute_deadline",
    "duration_based_deadline", "extend_deadline", "fluid_lower_bound",
    "prefer_cellular", "prefer_wifi", "rate_based_deadline", "simulate_online",
    "simulate_oracle", "solve_greedy", "solve_offline",
]

_EXPORTS = {
    ".adapter": ("MpDashAdapter",),
    ".deadlines": ("DEADLINE_MODES", "DURATION_BASED", "RATE_BASED",
                   "compute_deadline", "duration_based_deadline",
                   "extend_deadline", "rate_based_deadline"),
    ".offline": ("OfflineSolution", "fluid_lower_bound", "solve_greedy",
                 "solve_offline"),
    ".policy": ("Preference", "prefer_cellular", "prefer_wifi"),
    ".scheduler": ("DeadlineAwareScheduler",),
    ".socket_api": ("MpDashSocket",),
    ".tracesim": ("TraceSimResult", "simulate_online", "simulate_oracle"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
