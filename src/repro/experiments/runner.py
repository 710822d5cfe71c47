"""End-to-end experiment runners.

:func:`run_session` executes one adaptive-streaming session described by a
:class:`~repro.experiments.configs.SessionConfig` and returns a
:class:`SessionResult` bundling the metrics, the analyzer, and the raw
logs.  :func:`run_file_download` executes one deadline-bounded file
transfer (the §7.2 scheduler evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Union

from ..abr import make_abr
from ..analysis.analyzer import MultipathVideoAnalyzer
from ..analysis.metrics import SessionMetrics
from ..core.adapter import MpDashAdapter
from ..core.policy import prefer_wifi
from ..core.socket_api import MpDashSocket
from ..dash.http import HttpClient
from ..dash.player import DashPlayer
from ..dash.server import DashServer
from ..energy.devices import DEVICES
from ..energy.model import EnergyBreakdown, session_energy
from ..mptcp.connection import MptcpConnection
from ..net.link import cellular_path, wifi_path
from ..net.simulator import Simulator
from ..obs.check import Checker, CheckReport, InvariantMonitor
from ..obs.events import SessionClosed, TraceEvent
from ..obs.metrics import (MetricsRegistry, PathSampler,
                           SessionMetricsCollector)
from ..obs.spans import Span, SpanBuilder
from ..obs.trace_export import TraceMeta, TraceRecorder, dump_jsonl
from ..workloads.videos import video_asset
from .configs import FileDownloadConfig, SessionConfig

if TYPE_CHECKING:
    from ..obs.profile import Profiler


@dataclass
class SessionResult:
    """Everything produced by one streaming session."""

    config: SessionConfig
    metrics: SessionMetrics
    analyzer: MultipathVideoAnalyzer
    finished: bool
    session_duration: float
    connection: MptcpConnection
    player: DashPlayer
    socket: Optional[MpDashSocket] = None
    adapter: Optional[MpDashAdapter] = None
    #: The session's full typed event stream; populated when the config
    #: set ``record_trace`` (see :mod:`repro.obs`).
    events: Optional[List[TraceEvent]] = None
    #: The standard metrics registry; populated when the config set
    #: ``collect_metrics`` (see :mod:`repro.obs.metrics`).
    metrics_registry: Optional[MetricsRegistry] = None
    #: The causal span tree; populated when the config set
    #: ``collect_spans`` (see :mod:`repro.obs.spans`).
    spans: Optional[List[Span]] = None
    #: Wall-clock attribution; populated when ``run_session`` was called
    #: with ``profile=True`` (see :mod:`repro.obs.profile`).
    profile: Optional[Profiler] = None
    #: Invariant verdicts; populated when ``run_session`` was called with
    #: ``check=True`` (see :mod:`repro.obs.check`).
    check_report: Optional[CheckReport] = None

    @property
    def trace_meta(self) -> TraceMeta:
        return TraceMeta(
            session_duration=self.session_duration,
            activity_bin=self.connection.activity.bin_width,
            steady_state_fraction=self.config.steady_state_fraction,
            device=self.config.device)

    def export_trace(self, path_or_file: Union[str, IO[str]]) -> None:
        """Dump the recorded event stream as a JSONL trace."""
        if self.events is None:
            raise ValueError(
                "session was run without record_trace=True; no events "
                "to export")
        dump_jsonl(path_or_file, self.events, self.trace_meta)

    @property
    def scheduler_stats(self) -> Dict[str, int]:
        if self.socket is None:
            return {}
        scheduler = self.socket.scheduler
        return {
            "activations": scheduler.activations,
            "deadline_misses": scheduler.deadline_misses,
            "enable_events": scheduler.enable_events,
            "disable_events": scheduler.disable_events,
        }


def _build_paths(config) -> list:
    paths = []
    if config.wifi_trace is not None:
        paths.append(wifi_path(trace=config.wifi_trace,
                               rtt_ms=config.wifi_rtt_ms))
    else:
        paths.append(wifi_path(bandwidth_mbps=config.wifi_mbps,
                               rtt_ms=config.wifi_rtt_ms))
    wifi_only = getattr(config, "wifi_only", False)
    if not wifi_only:
        if config.lte_trace is not None:
            lte = cellular_path(trace=config.lte_trace,
                                rtt_ms=config.lte_rtt_ms)
        else:
            lte = cellular_path(bandwidth_mbps=config.lte_mbps,
                                rtt_ms=config.lte_rtt_ms)
        throttle = getattr(config, "lte_throttle", None)
        if throttle is not None:
            lte.throttle = throttle
        paths.append(lte)
    return paths


def run_session(config: SessionConfig, profile: bool = False,
                check: bool = False,
                checkers: Optional[List[Checker]] = None,
                report: Optional[str] = None,
                ledger: Optional[str] = None) -> SessionResult:
    """Simulate one streaming session to completion (or the time cap).

    ``profile=True`` swaps in a :class:`~repro.obs.profile.ProfiledBus`
    and arms the simulator-loop profiler; it is a runner argument rather
    than a config field because it changes what is *measured about* the
    run, never the run itself (sweep cache keys must not depend on it).
    ``check=True`` attaches an :class:`~repro.obs.check.InvariantMonitor`
    (the stock battery, or ``checkers``) on the same terms.  ``report``
    names an HTML file to render via
    :func:`~repro.obs.report.session_report_html` when the session ends;
    it implies trace recording and, being a pure function of the trace,
    produces the same bytes as rendering offline from the exported JSONL.
    ``ledger`` appends the finished session's headline record to the
    run ledger at that path (see :mod:`repro.obs.ledger`) — like
    ``profile``, a measurement knob that never changes the run itself.
    """
    profiler = bus = None
    if profile:
        from ..obs.profile import ProfiledBus, Profiler

        profiler = Profiler()
        bus = ProfiledBus(profiler)
    sim = Simulator(bus=bus)
    sim.profiler = profiler
    record = config.record_trace or report is not None
    recorder = TraceRecorder(sim.bus) if record else None
    monitor = None
    if check or checkers is not None:
        monitor = InvariantMonitor(checkers, bus=sim.bus)
    collector = None
    if config.collect_metrics:
        collector = SessionMetricsCollector(
            sim.bus, device=config.device)
    span_builder = SpanBuilder(sim.bus) if config.collect_spans else None
    paths = _build_paths(config)
    connection = MptcpConnection(
        sim, paths, scheduler=config.mptcp_scheduler,
        tick_interval=config.tick_interval,
        signaling_delay=config.signaling_delay,
        subflow_reestablish=config.subflow_reestablish,
        kernel=config.kernel)
    if config.collect_metrics:
        PathSampler(sim, connection)

    server = DashServer()
    asset = video_asset(config.video, chunk_duration=config.chunk_duration,
                        duration=config.video_duration)
    server.host(asset)
    manifest = server.manifest(asset.name)
    client = HttpClient(connection, server.resolve)

    abr = make_abr(config.abr, **config.abr_kwargs)
    socket = None
    adapter = None
    if config.mpdash and not config.wifi_only:
        socket = MpDashSocket(connection, prefer_wifi(), alpha=config.alpha)
        adapter = MpDashAdapter(socket,
                                deadline_mode=config.deadline_mode,
                                extension_enabled=config.extension_enabled,
                                phi_fraction=config.phi_fraction)

    player = DashPlayer(sim, client, manifest, abr, addon=adapter,
                        buffer_capacity=config.buffer_capacity,
                        playout=("event" if config.kernel == "fast"
                                 else "tick"))
    player.start()

    cap = config.sim_deadline
    started = perf_counter()
    while not player.finished and sim.now < cap:
        sim.run(until=min(sim.now + 5.0, cap))
    connection.close()
    # Terminal event: closes any open stall and timestamps session end.
    sim.bus.publish(SessionClosed(sim.now))
    if profiler is not None:
        profiler.wall_clock = perf_counter() - started
    session_duration = sim.now

    analyzer = MultipathVideoAnalyzer(connection.activity, player.log,
                                      session_duration,
                                      DEVICES[config.device])
    metrics = analyzer.metrics(config.steady_state_fraction)
    result = SessionResult(config=config, metrics=metrics,
                           analyzer=analyzer,
                           finished=player.finished,
                           session_duration=session_duration,
                           connection=connection, player=player,
                           socket=socket, adapter=adapter,
                           events=recorder.events if recorder else None,
                           metrics_registry=(collector.registry
                                             if collector else None),
                           spans=(span_builder.spans if span_builder
                                  else None),
                           profile=profiler,
                           check_report=(monitor.report() if monitor
                                         else None))
    if report is not None:
        from ..obs.report import session_report_html, write_report
        from ..obs.trace_export import Trace
        write_report(report, session_report_html(
            Trace(meta=result.trace_meta, events=result.events or [])))
    if ledger is not None:
        from ..obs.ledger import RunLedger, session_entry

        RunLedger(ledger).append(session_entry(
            result, wall_clock=perf_counter() - started))
    return result


@dataclass
class FileDownloadResult:
    """Outcome of one deadline-bounded file transfer."""

    config: FileDownloadConfig
    duration: float
    bytes_per_path: Dict[str, float]
    energy: Dict[str, EnergyBreakdown]
    missed_deadline: bool

    @property
    def cellular_bytes(self) -> float:
        return self.bytes_per_path.get("cellular", 0.0)

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_per_path.values())

    @property
    def cellular_fraction(self) -> float:
        total = self.total_bytes
        return self.cellular_bytes / total if total > 0 else 0.0

    @property
    def radio_energy(self) -> float:
        return self.energy["total"].total


def run_file_download(config: FileDownloadConfig) -> FileDownloadResult:
    """Download ``size`` bytes under a deadline, with or without MP-DASH."""
    sim = Simulator()
    paths = _build_paths(config)
    connection = MptcpConnection(
        sim, paths, scheduler=config.mptcp_scheduler,
        tick_interval=config.tick_interval,
        signaling_delay=config.signaling_delay,
        subflow_reestablish=config.subflow_reestablish,
        kernel=config.kernel)

    socket = None
    if config.mpdash:
        socket = MpDashSocket(connection, prefer_wifi(), alpha=config.alpha)
        socket.mp_dash_enable(config.size, config.deadline)

    done = {"finished_at": None}

    def on_complete(_transfer) -> None:
        done["finished_at"] = sim.now

    transfer = connection.start_transfer(config.size, tag="file",
                                         on_complete=on_complete)
    cap = config.deadline * 10 + 60.0
    while done["finished_at"] is None and sim.now < cap:
        sim.run(until=min(sim.now + 1.0, cap))
    connection.close()
    if done["finished_at"] is None:
        raise RuntimeError(
            f"file download did not finish within {cap:.0f}s of simulated "
            f"time — paths too slow for size {config.size}")
    duration = done["finished_at"]

    # Account energy over the transfer window plus one LTE tail.
    device = DEVICES[config.device]
    horizon = duration + device.lte.tail_time
    energy = session_energy(connection.activity, device, horizon)
    return FileDownloadResult(
        config=config, duration=duration,
        bytes_per_path=dict(transfer.per_path),
        energy=energy, missed_deadline=duration > config.deadline)
