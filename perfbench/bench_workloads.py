"""The benchmark's workloads: inputs from a seed, one measured round,
and the output checks.

Each workload builds its inputs from ``--seed`` alone and hands the
program nothing else.  A *round* runs the whole workload once through
the public entry points (``run_fleet`` or ``run_sweep``) and returns a
:class:`Round`: host wall time, simulated seconds, failures, a digest
of every simulated statistic, and the fleet heartbeat figures.
Importing this module imports the program, which is part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.experiments import runner as session_runner
from repro.experiments.configs import SCHEMES, SessionConfig
from repro.experiments.fleet import FleetConfig, run_fleet
from repro.experiments.sweep import run_sweep, summarize_session
from repro.obs.bus import EventBus
from repro.obs.events import (FleetShardCompleted, FleetWorkerHeartbeat,
                               SweepRunFinished)
from repro.obs.recorder import RecorderConfig

from layer_trace import ROOT, Tracer

#: Sessions in one ``fleet`` round (60 s videos, ``jobs=2``).
FLEET_SESSIONS = 200
#: Worker processes for ``fleet``; the box this was sized on has 2 cores.
FLEET_JOBS = 2
#: Sessions in one ``fleet_observed`` round (recorder armed, ``jobs=1``).
OBSERVED_SESSIONS = 192
#: Shard size of ``fleet_observed``: 12 shards, so 12 bottom-QoE
#: reservoirs, and a calibration point after each shard.
OBSERVED_SHARD_SIZE = 16
#: The five ABRs ``controlled`` crosses with the three schemes.
ABRS = ("festive", "bba", "bba-c", "gpac", "mpc")
#: Fig. 7 operating range (Mbps): W2.2-3.8 x L1.2-3.0, stratified into
#: bands with one seeded point per cell so every seed covers the range.
WIFI_BANDS = 3
LTE_BANDS = 3
WIFI_RANGE = (2.2, 3.8)
LTE_RANGE = (1.2, 3.0)
CONTROLLED_VIDEO_S = 300.0
#: ``controlled`` runs a calibration point after every this many sessions.
PAUSE_EVERY_RUNS = 5

#: What the seeded fault in ``fleet_observed`` must be attributed to.
FAULT_LAYER = "scheduler"
FAULT_CAUSE = "path-control-violation"


@dataclass
class Round:
    """One run of a workload."""

    #: Host seconds of the round, less the time spent in ``pause``.
    wall_s: float
    sim_s: float
    attempted: int
    #: Sessions that raised or did not finish.
    failed: int
    digest: str
    jobs: int
    #: Largest ``peak_rss_kb`` any fleet worker reported (0 if none).
    worker_peak_rss_kb: int = 0
    #: Sum of shard ``elapsed`` from the fleet heartbeats.
    shard_busy_s: float = 0.0
    captured: int = 0
    artifact_bytes: int = 0
    #: Output-check failures, one line each.
    problems: List[str] = field(default_factory=list)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class _Heartbeats:
    """Collects the fleet's worker heartbeats from the event bus."""

    def __init__(self, bus: EventBus):
        self.peak_rss_kb = 0
        self.busy_s = 0.0
        bus.subscribe(FleetWorkerHeartbeat, self._on_heartbeat)

    def _on_heartbeat(self, event: FleetWorkerHeartbeat) -> None:
        self.peak_rss_kb = max(self.peak_rss_kb, int(event.peak_rss_kb))
        self.busy_s += float(event.elapsed)


class _Pauses:
    """Calls ``pause`` on every ``every``-th event of one type and keeps
    the time it took, which the round leaves out of its wall time."""

    def __init__(self, bus: EventBus, event_type: type,
                 pause: Optional[Callable[[], None]], every: int = 1):
        self.seconds = 0.0
        self._pause = pause
        self._every = every
        self._seen = 0
        if pause is not None:
            bus.subscribe(event_type, self._on_event)

    def _on_event(self, _event) -> None:
        self._seen += 1
        if self._seen % self._every == 0:
            began = perf_counter()
            self._pause()
            self.seconds += perf_counter() - began


def _call(entry: Callable, tracer: Optional[Tracer], *args, **kwargs):
    """Call a workload entry point, as the root span when tracing;
    returns the result and the host seconds it took."""
    if tracer is not None:
        entry = tracer.spanned(ROOT, entry)
    began = perf_counter()
    result = entry(*args, **kwargs)
    return result, perf_counter() - began


# ----------------------------------------------------------------------
# fleet / fleet_observed
# ----------------------------------------------------------------------
def fleet_inputs(seed: int) -> Dict[str, Any]:
    return {"config": FleetConfig(sessions=FLEET_SESSIONS, seed=seed)}


def observed_inputs(seed: int) -> Dict[str, Any]:
    """The fleet family with one seeded scheduler fault.

    The fault breaks Algorithm 1, so it lands on the first session at or
    after a seeded index that has a cellular path (a WiFi-only session
    runs no MP-DASH scheduler to break).
    """
    probe = FleetConfig(sessions=OBSERVED_SESSIONS, seed=seed).workload()
    start = random.Random(seed).randrange(OBSERVED_SESSIONS)
    for step in range(OBSERVED_SESSIONS):
        index = (start + step) % OBSERVED_SESSIONS
        if not probe.draw(index).wifi_only:
            break
    else:
        raise ValueError(f"seed {seed}: every session is WiFi-only")
    config = FleetConfig(sessions=OBSERVED_SESSIONS, seed=seed,
                         shard_size=OBSERVED_SHARD_SIZE, fault_session=index)
    return {"config": config}


def _fleet_round(config: FleetConfig, jobs: int, tracer: Optional[Tracer],
                 pause: Optional[Callable[[], None]],
                 recorder: Optional[RecorderConfig]):
    """One ``run_fleet`` call; returns the :class:`Round` and the
    :class:`~repro.experiments.fleet.FleetResult`."""
    bus = EventBus()
    beats = _Heartbeats(bus)
    pauses = _Pauses(bus, FleetShardCompleted, pause)
    result, wall = _call(run_fleet, tracer, config, jobs=jobs, bus=bus,
                         recorder=recorder)
    unfinished = int(result.population()["unfinished_sessions"])
    stats = result.recorder or {}
    digest_parts = [result.registry_json()]
    if recorder is not None:
        digest_parts += [_canonical(stats), _canonical(result.anomalies)]
    problems = []
    if not result.completed:
        problems.append(f"fleet stopped after {result.shards_done} of "
                        f"{result.total_shards} shards")
    return Round(wall_s=wall - pauses.seconds, sim_s=result.sim_seconds,
                 attempted=config.sessions,
                 failed=result.error_total + unfinished,
                 digest=_sha256("\n".join(digest_parts)), jobs=jobs,
                 worker_peak_rss_kb=beats.peak_rss_kb,
                 shard_busy_s=beats.busy_s,
                 captured=int(stats.get("captured", 0)),
                 artifact_bytes=int(stats.get("bytes_written", 0)),
                 problems=problems), result


def run_fleet_round(inputs: Dict[str, Any], work_dir: str, jobs: int,
                    tracer: Optional[Tracer] = None,
                    pause: Optional[Callable[[], None]] = None) -> Round:
    return _fleet_round(inputs["config"], jobs, tracer, pause, None)[0]


def run_observed_round(inputs: Dict[str, Any], work_dir: str, jobs: int,
                       tracer: Optional[Tracer] = None,
                       pause: Optional[Callable[[], None]] = None) -> Round:
    config = inputs["config"]
    artifact_dir = os.path.join(work_dir, "recorder")
    try:
        round_, result = _fleet_round(
            config, jobs, tracer, pause,
            RecorderConfig(artifact_dir=artifact_dir))
    finally:
        shutil.rmtree(artifact_dir, ignore_errors=True)
    faulted = [record for record in result.anomalies
               if record["index"] == config.fault_session]
    if not faulted:
        round_.problems.append(f"seeded fault session "
                               f"{config.fault_session} was not captured")
    else:
        record = faulted[0]
        attribution = record.get("attribution") or {}
        found = (record["reason"], attribution.get("top_layer"),
                 attribution.get("top_cause"))
        if found != ("violation", FAULT_LAYER, FAULT_CAUSE):
            round_.problems.append(
                f"seeded fault session {config.fault_session} captured as "
                f"(reason, top_layer, top_cause) = {found}, expected "
                f"('violation', {FAULT_LAYER!r}, {FAULT_CAUSE!r})")
    return round_


# ----------------------------------------------------------------------
# controlled
# ----------------------------------------------------------------------
def operating_points(seed: int) -> List[tuple]:
    """One seeded (WiFi, LTE) Mbps point per cell of the banded range."""
    rng = random.Random(seed)
    points = []
    wifi_width = (WIFI_RANGE[1] - WIFI_RANGE[0]) / WIFI_BANDS
    lte_width = (LTE_RANGE[1] - LTE_RANGE[0]) / LTE_BANDS
    for i in range(WIFI_BANDS):
        for j in range(LTE_BANDS):
            wifi = WIFI_RANGE[0] + (i + rng.random()) * wifi_width
            lte = LTE_RANGE[0] + (j + rng.random()) * lte_width
            points.append((round(wifi, 2), round(lte, 2)))
    return points


def controlled_inputs(seed: int) -> Dict[str, Any]:
    configs = [SessionConfig(abr=abr, wifi_mbps=wifi, lte_mbps=lte,
                             video_duration=CONTROLLED_VIDEO_S
                             ).with_scheme(scheme)
               for wifi, lte in operating_points(seed)
               for abr in ABRS for scheme in SCHEMES]
    return {"configs": configs}


def controlled_runner(config: SessionConfig):
    """Sweep runner: one session, summarised, no invariant monitor (the
    sweep's default runner arms one, which is ``obs`` work this workload
    is meant to bypass)."""
    return summarize_session(session_runner.run_session(config))


def run_controlled_round(inputs: Dict[str, Any], work_dir: str, jobs: int,
                         tracer: Optional[Tracer] = None,
                         pause: Optional[Callable[[], None]] = None
                         ) -> Round:
    configs = inputs["configs"]
    bus = EventBus()
    pauses = _Pauses(bus, SweepRunFinished, pause, PAUSE_EVERY_RUNS)
    result, wall = _call(run_sweep, tracer, configs, jobs=jobs,
                         runner=controlled_runner, bus=bus)
    summaries = [run.summary for run in result.runs
                 if run.summary is not None]
    unfinished = sum(1 for summary in summaries if not summary.finished)
    failed = len(result.failures) + unfinished
    problems = [f"run {failure.index}: {failure.kind}: {failure.error}"
                for failure in result.failures[:3]]
    return Round(wall_s=wall - pauses.seconds,
                 sim_s=sum(s.session_duration for s in summaries),
                 attempted=len(configs), failed=failed,
                 digest=_sha256(_canonical([s.to_dict()
                                            for s in summaries])),
                 jobs=jobs, problems=problems)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why it exists)."""

    name: str
    #: seed -> inputs; the only thing the program receives.
    build: Callable[[int], Dict[str, Any]]
    #: (inputs, work_dir, jobs, tracer=None, pause=None) -> Round.  The
    #: round calls ``pause()`` between sessions or shards.
    run: Callable[..., Round]
    #: Worker processes of the untraced run; traced runs use 1.
    jobs: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fleet", fleet_inputs, run_fleet_round, FLEET_JOBS),
    Workload("fleet_observed", observed_inputs, run_observed_round, 1),
    Workload("controlled", controlled_inputs, run_controlled_round, 1),
)}
