"""Cross-layer observability: one typed event stream for the whole stack.

Every layer of the reproduction — the simulation kernel, TCP, MPTCP
subflows and their schedulers, the MP-DASH control plane, HTTP, the DASH
player, and the energy model — publishes typed events onto a single
:class:`~repro.obs.bus.EventBus` owned by the
:class:`~repro.net.simulator.Simulator`.  The legacy per-layer records
(:class:`~repro.mptcp.activity.ActivityLog`,
:class:`~repro.dash.events.PlayerEventLog`) are subscribers of that bus,
and :mod:`repro.obs.trace_export` turns the stream into a JSONL trace that
can be dumped, reloaded, and replayed into the analysis tool offline.

On top of the stream sit five derived views, all bus subscribers or pure
functions of a trace, all reconstructible offline:

* :mod:`repro.obs.metrics` — counters, gauges, mergeable histograms, and
  timeseries (the standard session registry, Prometheus/JSON exposition);
* :mod:`repro.obs.spans` — the causal span tree of every chunk, exportable
  as Chrome trace-event JSON for Perfetto;
* :mod:`repro.obs.profile` — opt-in wall-clock attribution per event
  type, subscriber handler, and simulator callback;
* :mod:`repro.obs.check` — declarative invariant monitoring: stock
  checkers judge the stream against the paper's semantic contracts and
  emit structured violations;
* :mod:`repro.obs.why` — causal root-cause attribution: every deadline
  miss, stall, and ERROR violation explained through a declarative rule
  set, two traces diffed chunk-by-chunk, and blame histograms folded
  into the fleet registry.

:mod:`repro.obs.bench` is the performance counterpart: pinned scenarios
measured for wall-clock, sim-time throughput, bus event rate, and peak
RSS, with baseline comparison for regression gating.

:mod:`repro.obs.ledger` and :mod:`repro.obs.drift` extend observability
*across* runs: an append-only, content-addressed JSONL run ledger every
entry point can opt into, and a drift sentinel (EWMA control bands +
CUSUM change points) that turns the ledger population into a regression
gate (``repro history``).

The presentation layer sits on top of the derived views:
:mod:`repro.obs.svg` is a dependency-free SVG chart renderer,
:mod:`repro.obs.report` turns traces, sweep results, and bench reports
into self-contained single-file HTML documents (pure functions of their
inputs — live and offline rendering are byte-identical), and
:mod:`repro.obs.live` draws a live terminal dashboard during sweeps.

The names below resolve on first use (see :mod:`repro._lazy`): importing
``repro.obs`` — which every instrumented layer does — loads none of
these modules, so a run that observes nothing never loads the reporting
stack.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bench import (BenchReport, BenchResult, MetaMismatch, compare_meta,
                        compare_reports, run_bench, run_scenario)
    from .bus import EventBus
    from .drift import (DriftFinding, control_track, detect_drift,
                        drift_table, gate_ok, metric_direction, metric_series,
                        trend_document)
    from .check import (ERROR, INFO, SEVERITIES, WARNING, Checker,
                        CheckReport, InvariantMonitor, Violation,
                        check_trace, stock_checkers)
    from .events import (EVENT_TYPES, RADIO_ACTIVE, RADIO_IDLE, RADIO_TAIL,
                         ChunkDownloaded, ChunkRequested,
                         CwndRestarted, DeadlineArmed, DeadlineDisarmed,
                         DeadlineExtended, DeadlineMissed,
                         FleetCheckpointSaved, FleetCompleted,
                         FleetSessionCaptured,
                         FleetShardCompleted, FleetStarted,
                         FleetWorkerHeartbeat, HttpRequestSent,
                         HttpResponseReceived, MpDashArmed, MpDashSkipped,
                         PacketSent, PathSampled, PathStateRequested,
                         PlaybackEnded, PlaybackStarted, QualitySwitched,
                         RadioStateChange, SchedulerActivated, SessionClosed,
                         StallEnd, StallStart, SubflowReconnected,
                         SubflowStateChange, SweepCompleted, SweepRunFailed,
                         SweepRunFinished, SweepRunStarted, SweepRunSummarized,
                         SweepStarted, TraceEvent, TransferCompleted,
                         TransferStarted, event_from_dict, event_to_dict)
    from .ledger import (ENTRY_KINDS, LEDGER_SCHEMA, LedgerEntry, LedgerLoad,
                         RunLedger, bench_entry, environment_fingerprint,
                         fleet_entry, registry_digest, session_entry,
                         sweep_entry)
    from .live import FleetDashboard, SweepDashboard
    from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                          PathSampler, SessionMetricsCollector, Timeseries,
                          collector_from_trace, exponential_buckets,
                          linear_buckets, metric_from_dict,
                          registry_from_trace)
    from .profile import ProfiledBus, Profiler
    from .recorder import (REASON_ORDER, RecorderConfig, ShardRecorder,
                           find_manifests, load_manifest, rank_anomalies,
                           render_anomaly_reports, replay_anomaly,
                           save_manifest, triage_table)
    from .report import (bench_report_html, fleet_report_html,
                         history_report_html, session_report_html,
                         sweep_report_html, triage_report_html, write_report)
    from .spans import (Span, SpanBuilder, dump_chrome_trace, render_span_tree,
                        spans_from_trace, to_chrome_trace, transfer_chunk_map)
    from .trace_export import (Trace, TraceMeta, TraceRecorder,
                               analyzer_from_trace, dump_jsonl, dumps_jsonl,
                               gzip_bytes, load_jsonl, loads_jsonl,
                               metrics_from_trace, replay)
    from .why import (Attribution, TraceDiff, attribute_anomaly,
                      attributions_from_trace, diff_traces,
                      fold_attributions, render_attributions,
                      summarize_attributions)

__all__ = [
    "ENTRY_KINDS", "ERROR", "EVENT_TYPES", "INFO", "LEDGER_SCHEMA",
    "RADIO_ACTIVE", "RADIO_IDLE",
    "RADIO_TAIL", "SEVERITIES", "WARNING",
    "Attribution", "BenchReport", "BenchResult", "CheckReport", "Checker",
    "ChunkDownloaded", "ChunkRequested", "Counter", "CwndRestarted",
    "DeadlineArmed", "DeadlineDisarmed", "DeadlineExtended",
    "DeadlineMissed", "DriftFinding", "EventBus", "FleetCheckpointSaved",
    "FleetCompleted",
    "FleetDashboard", "FleetSessionCaptured", "FleetShardCompleted",
    "FleetStarted", "FleetWorkerHeartbeat", "Gauge", "Histogram",
    "HttpRequestSent", "LedgerEntry", "LedgerLoad", "MetaMismatch",
    "HttpResponseReceived", "InvariantMonitor", "MetricsRegistry",
    "MpDashArmed", "MpDashSkipped", "PacketSent", "PathSampled",
    "PathSampler", "PathStateRequested", "PlaybackEnded",
    "PlaybackStarted", "ProfiledBus", "Profiler", "QualitySwitched",
    "REASON_ORDER", "RadioStateChange", "RecorderConfig", "RunLedger",
    "SchedulerActivated", "SessionClosed", "ShardRecorder",
    "SessionMetricsCollector", "Span", "SpanBuilder", "StallEnd",
    "StallStart", "SubflowReconnected", "SubflowStateChange",
    "SweepCompleted", "SweepDashboard", "SweepRunFailed",
    "SweepRunFinished", "SweepRunStarted", "SweepRunSummarized",
    "SweepStarted", "Timeseries", "Trace",
    "TraceDiff", "TraceEvent", "TraceMeta", "TraceRecorder",
    "TransferCompleted",
    "TransferStarted", "Violation", "analyzer_from_trace",
    "attribute_anomaly", "attributions_from_trace",
    "bench_entry", "bench_report_html", "check_trace",
    "collector_from_trace",
    "compare_meta", "compare_reports", "control_track", "detect_drift",
    "diff_traces", "drift_table", "dump_chrome_trace", "dump_jsonl",
    "dumps_jsonl", "environment_fingerprint",
    "event_from_dict", "event_to_dict", "exponential_buckets",
    "find_manifests", "fleet_entry", "fleet_report_html",
    "fold_attributions", "gate_ok", "gzip_bytes", "history_report_html",
    "linear_buckets", "load_jsonl", "load_manifest", "loads_jsonl",
    "metric_direction", "metric_from_dict", "metric_series",
    "metrics_from_trace", "rank_anomalies",
    "registry_digest", "registry_from_trace", "render_anomaly_reports",
    "render_attributions", "render_span_tree",
    "replay", "replay_anomaly", "run_bench",
    "run_scenario", "save_manifest", "session_entry",
    "session_report_html",
    "spans_from_trace", "stock_checkers", "summarize_attributions",
    "sweep_entry", "sweep_report_html",
    "to_chrome_trace", "transfer_chunk_map", "trend_document",
    "triage_report_html",
    "triage_table", "write_report",
]

_EXPORTS = {
    ".bench": ("BenchReport", "BenchResult", "MetaMismatch", "compare_meta",
               "compare_reports", "run_bench", "run_scenario"),
    ".bus": ("EventBus",),
    ".drift": ("DriftFinding", "control_track", "detect_drift", "drift_table",
               "gate_ok", "metric_direction", "metric_series",
               "trend_document"),
    ".check": ("ERROR", "INFO", "SEVERITIES", "WARNING", "Checker",
               "CheckReport", "InvariantMonitor", "Violation", "check_trace",
               "stock_checkers"),
    ".events": ("EVENT_TYPES", "RADIO_ACTIVE", "RADIO_IDLE", "RADIO_TAIL",
                "ChunkDownloaded", "ChunkRequested", "CwndRestarted",
                "DeadlineArmed", "DeadlineDisarmed", "DeadlineExtended",
                "DeadlineMissed", "FleetCheckpointSaved", "FleetCompleted",
                "FleetSessionCaptured", "FleetShardCompleted", "FleetStarted",
                "FleetWorkerHeartbeat", "HttpRequestSent",
                "HttpResponseReceived", "MpDashArmed", "MpDashSkipped",
                "PacketSent", "PathSampled", "PathStateRequested",
                "PlaybackEnded", "PlaybackStarted", "QualitySwitched",
                "RadioStateChange", "SchedulerActivated", "SessionClosed",
                "StallEnd", "StallStart", "SubflowReconnected",
                "SubflowStateChange", "SweepCompleted", "SweepRunFailed",
                "SweepRunFinished", "SweepRunStarted", "SweepRunSummarized",
                "SweepStarted", "TraceEvent", "TransferCompleted",
                "TransferStarted", "event_from_dict", "event_to_dict"),
    ".ledger": ("ENTRY_KINDS", "LEDGER_SCHEMA", "LedgerEntry", "LedgerLoad",
                "RunLedger", "bench_entry", "environment_fingerprint",
                "fleet_entry", "registry_digest", "session_entry",
                "sweep_entry"),
    ".live": ("FleetDashboard", "SweepDashboard"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "PathSampler", "SessionMetricsCollector", "Timeseries",
                 "collector_from_trace", "exponential_buckets",
                 "linear_buckets", "metric_from_dict", "registry_from_trace"),
    ".profile": ("ProfiledBus", "Profiler"),
    ".recorder": ("REASON_ORDER", "RecorderConfig", "ShardRecorder",
                  "find_manifests", "load_manifest", "rank_anomalies",
                  "render_anomaly_reports", "replay_anomaly", "save_manifest",
                  "triage_table"),
    ".report": ("bench_report_html", "fleet_report_html",
                "history_report_html", "session_report_html",
                "sweep_report_html", "triage_report_html", "write_report"),
    ".spans": ("Span", "SpanBuilder", "dump_chrome_trace", "render_span_tree",
               "spans_from_trace", "to_chrome_trace", "transfer_chunk_map"),
    ".trace_export": ("Trace", "TraceMeta", "TraceRecorder",
                      "analyzer_from_trace", "dump_jsonl", "dumps_jsonl",
                      "gzip_bytes", "load_jsonl", "loads_jsonl",
                      "metrics_from_trace", "replay"),
    ".why": ("Attribution", "TraceDiff", "attribute_anomaly",
             "attributions_from_trace", "diff_traces", "fold_attributions",
             "render_attributions", "summarize_attributions"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
