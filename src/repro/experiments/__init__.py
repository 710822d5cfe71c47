"""Experiment harness: configs, runners, sweeps, comparisons, tables."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .compare import SchemeComparison, run_schemes
    from .configs import (BASELINE, DURATION, RATE, SCHEMES,
                          FileDownloadConfig, SessionConfig)
    from .fleet import (FleetConfig, FleetResult, fleet_key, fold_session,
                        run_fleet, session_config)
    from .runner import (FileDownloadResult, SessionResult,
                         run_file_download, run_session)
    from .sweep import (DownloadSummary, ResultCache, RunFailure,
                        SessionSummary, SweepResult, SweepRun, config_key,
                        expand_grid, run_sweep, summarize_download,
                        summarize_session)
    from .tables import (fleet_table, format_table, joules, mb, mbps_str,
                         pct, sweep_table)

__all__ = [
    "BASELINE", "DURATION", "DownloadSummary", "FileDownloadConfig",
    "FileDownloadResult", "FleetConfig", "FleetResult", "RATE",
    "ResultCache", "RunFailure", "SCHEMES",
    "SchemeComparison", "SessionConfig", "SessionResult", "SessionSummary",
    "SweepResult", "SweepRun", "config_key", "expand_grid", "fleet_key",
    "fleet_table", "fold_session", "format_table",
    "joules", "mb", "mbps_str", "pct", "run_file_download", "run_fleet",
    "run_schemes", "run_session", "run_sweep", "session_config",
    "summarize_download", "summarize_session", "sweep_table",
]

_EXPORTS = {
    ".compare": ("SchemeComparison", "run_schemes"),
    ".configs": ("BASELINE", "DURATION", "RATE", "SCHEMES",
                 "FileDownloadConfig", "SessionConfig"),
    ".fleet": ("FleetConfig", "FleetResult", "fleet_key", "fold_session",
               "run_fleet", "session_config"),
    ".runner": ("FileDownloadResult", "SessionResult", "run_file_download",
                "run_session"),
    ".sweep": ("DownloadSummary", "ResultCache", "RunFailure",
               "SessionSummary", "SweepResult", "SweepRun", "config_key",
               "expand_grid", "run_sweep", "summarize_download",
               "summarize_session"),
    ".tables": ("fleet_table", "format_table", "joules", "mb", "mbps_str",
                "pct", "sweep_table"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
