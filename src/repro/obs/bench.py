"""Pinned performance scenarios: the ROADMAP's speed target, with teeth.

Each scenario is a fixed, deterministic workload — a single long
session, a trace-driven mobility walk, a 16-run sweep — measured for
wall-clock, simulated-seconds-per-wall-second, bus events per second,
and peak RSS.  :func:`run_bench` writes the measurements as a
``BENCH_<label>.json`` report; :func:`compare_reports` diffs a current
report against a stored baseline and flags any metric that regressed
beyond a threshold, which is how CI keeps "as fast as the hardware
allows" from silently eroding.

Times are best-of-``repeat`` (the minimum is the least-noisy estimator
of the true cost on a shared machine).  Peak RSS is the *process*
high-water mark (``ru_maxrss``), so it is monotone across scenarios in
one invocation — comparable run-to-run in scenario order, and an upper
bound individually.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, IO, List, Mapping, Optional, Union

from .metrics import peak_rss_kb


@dataclass(frozen=True)
class BenchResult:
    """One scenario's measurements (times are best-of-``repeats``)."""

    scenario: str
    wall_clock: float
    sim_seconds: float
    sim_per_wall: float
    #: Bus events published by the measured run; None when the scenario
    #: spans several buses (the sweep scenario).
    events: Optional[int]
    events_per_sec: Optional[float]
    peak_rss_kb: Optional[int]
    repeats: int

    def to_dict(self) -> Dict[str, Any]:
        return {"scenario": self.scenario, "wall_clock": self.wall_clock,
                "sim_seconds": self.sim_seconds,
                "sim_per_wall": self.sim_per_wall, "events": self.events,
                "events_per_sec": self.events_per_sec,
                "peak_rss_kb": self.peak_rss_kb, "repeats": self.repeats}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchResult":
        return cls(scenario=payload["scenario"],
                   wall_clock=payload["wall_clock"],
                   sim_seconds=payload["sim_seconds"],
                   sim_per_wall=payload["sim_per_wall"],
                   events=payload.get("events"),
                   events_per_sec=payload.get("events_per_sec"),
                   peak_rss_kb=payload.get("peak_rss_kb"),
                   repeats=payload.get("repeats", 1))


@dataclass
class BenchReport:
    """Every scenario's result plus enough context to interpret it."""

    label: str
    results: List[BenchResult]
    meta: Dict[str, Any] = field(default_factory=dict)

    def result(self, scenario: str) -> Optional[BenchResult]:
        for result in self.results:
            if result.scenario == scenario:
                return result
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "meta": dict(self.meta),
                "results": [r.to_dict() for r in self.results]}

    def dump(self, path_or_file: Union[str, IO[str]]) -> None:
        if isinstance(path_or_file, str):
            with open(path_or_file, "w") as handle:
                self.dump(handle)
            return
        json.dump(self.to_dict(), path_or_file, indent=2, sort_keys=True)
        path_or_file.write("\n")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchReport":
        return cls(label=payload.get("label", ""),
                   results=[BenchResult.from_dict(r)
                            for r in payload.get("results", [])],
                   meta=dict(payload.get("meta", {})))

    @classmethod
    def load(cls, path_or_file: Union[str, IO[str]]) -> "BenchReport":
        if isinstance(path_or_file, str):
            with open(path_or_file) as handle:
                return cls.load(handle)
        return cls.from_dict(json.load(path_or_file))

    def render(self) -> str:
        lines = [f"bench {self.label or '(unlabeled)'}"]
        if self.meta:
            env = " ".join(f"{key}={self.meta[key]}"
                           for key in sorted(self.meta))
            lines.append(f"  env {env}")
        header = (f"  {'scenario':<10} {'wall s':>8} {'sim s':>8} "
                  f"{'sim/wall':>9} {'events':>8} {'ev/s':>10} "
                  f"{'rss KiB':>9}")
        lines.append(header)
        for result in self.results:
            events = "-" if result.events is None else str(result.events)
            rate = ("-" if result.events_per_sec is None
                    else f"{result.events_per_sec:.0f}")
            rss = ("-" if result.peak_rss_kb is None
                   else str(result.peak_rss_kb))
            lines.append(
                f"  {result.scenario:<10} {result.wall_clock:>8.3f} "
                f"{result.sim_seconds:>8.1f} {result.sim_per_wall:>9.1f} "
                f"{events:>8} {rate:>10} {rss:>9}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _bench_config(**overrides: Any):
    """The pinned benchmark session: MP-DASH rate mode near Figure 7's
    operating point."""
    # Imported lazily: repro.obs must stay importable before the
    # experiment layer (which itself subscribes to repro.obs) loads.
    from ..experiments.configs import SessionConfig

    defaults: Dict[str, Any] = dict(
        video="big_buck_bunny", abr="festive", mpdash=True,
        deadline_mode="rate", wifi_mbps=3.8, lte_mbps=3.0,
        video_duration=300.0)
    defaults.update(overrides)
    return SessionConfig(**defaults)


def _run_single() -> Dict[str, Any]:
    from ..experiments.runner import run_session

    result = run_session(_bench_config())
    return {"sim_seconds": result.session_duration,
            "events": result.connection.bus.published}


def _run_single_tick() -> Dict[str, Any]:
    """The ``single`` workload under the reference tick kernel.

    Same config as ``single`` apart from ``kernel="tick"``, so the
    report reads as a direct fast-vs-tick speedup on identical work —
    and CI exercising the default scenario list smoke-tests both
    kernels on every run.
    """
    from ..experiments.runner import run_session

    result = run_session(_bench_config(kernel="tick"))
    return {"sim_seconds": result.session_duration,
            "events": result.connection.bus.published}


def _run_mobility() -> Dict[str, Any]:
    from ..experiments.runner import run_session
    from ..workloads.mobility import MobilityScenario

    duration = 300.0
    scenario = MobilityScenario()
    result = run_session(_bench_config(
        video_duration=duration,
        wifi_trace=scenario.wifi_trace(duration + 100.0),
        lte_trace=scenario.lte_trace(duration + 100.0)))
    return {"sim_seconds": result.session_duration,
            "events": result.connection.bus.published}


def _run_sweep16() -> Dict[str, Any]:
    from ..experiments.sweep import expand_grid, run_sweep

    configs = expand_grid(_bench_config(video_duration=40.0),
                          {"wifi_mbps": [2.0, 4.0, 6.0, 8.0],
                           "lte_mbps": [2.0, 4.0, 6.0, 8.0]})
    result = run_sweep(configs, jobs=1)
    if not result.ok:
        raise RuntimeError(f"sweep16 benchmark had "
                           f"{len(result.failures)} failed runs")
    sim_seconds = sum(s.session_duration for s in result.summaries)
    return {"sim_seconds": sim_seconds, "events": None}


def _run_fleet() -> Dict[str, Any]:
    """A pinned 96-session fleet shard-merge workload.

    Small enough for CI, large enough that per-session state leaking
    into the parent (the thing the fleet design forbids) would move the
    peak-RSS measurement.
    """
    from ..experiments.fleet import FleetConfig, run_fleet

    result = run_fleet(FleetConfig(sessions=96, shard_size=16,
                                   video_duration=20.0, seed=2016),
                       jobs=1)
    if result.failures:
        raise RuntimeError(f"fleet benchmark had {result.failures} "
                           f"failed sessions")
    return {"sim_seconds": result.sim_seconds, "events": None}


def _run_fleet_rec() -> Dict[str, Any]:
    """The ``fleet`` workload with the flight recorder armed at default
    sampling, on an anomaly-free population.

    The pair (``fleet``, ``fleet_rec``) states the recorder's overhead
    contract: judging every session (offline invariant check, QoE
    proxy, reservoir) plus writing the few bottom-k artifacts must cost
    at most ~10% wall clock over the recorder-off run — asserted
    against this report in CI.
    """
    import tempfile

    from ..experiments.fleet import FleetConfig, run_fleet
    from .recorder import RecorderConfig

    with tempfile.TemporaryDirectory() as artifact_dir:
        result = run_fleet(
            FleetConfig(sessions=96, shard_size=16,
                        video_duration=20.0, seed=2016),
            jobs=1, recorder=RecorderConfig(artifact_dir=artifact_dir))
        if result.failures:
            raise RuntimeError(f"fleet_rec benchmark had "
                               f"{result.failures} failed sessions")
    return {"sim_seconds": result.sim_seconds, "events": None}


#: Scenario name -> callable returning {"sim_seconds": float,
#: "events": Optional[int]}.  Measured order is the listed order.
SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "single": _run_single,
    "single_tick": _run_single_tick,
    "mobility": _run_mobility,
    "sweep16": _run_sweep16,
    "fleet": _run_fleet,
    "fleet_rec": _run_fleet_rec,
}


def run_scenario(name: str, repeats: int = 1) -> BenchResult:
    """Measure one pinned scenario, best-of-``repeats``."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark scenario {name!r}; "
                         f"known: {', '.join(SCENARIOS)}") from None
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1: {repeats!r}")
    best: Optional[float] = None
    outcome: Dict[str, Any] = {}
    for _ in range(repeats):
        started = perf_counter()
        outcome = runner()
        elapsed = perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    wall = max(best or 0.0, 1e-9)
    events = outcome.get("events")
    sim_seconds = float(outcome["sim_seconds"])
    return BenchResult(
        scenario=name, wall_clock=wall, sim_seconds=sim_seconds,
        sim_per_wall=sim_seconds / wall, events=events,
        events_per_sec=(events / wall if events is not None else None),
        peak_rss_kb=peak_rss_kb(), repeats=repeats)


def run_bench(scenarios: Optional[List[str]] = None, repeats: int = 1,
              label: str = "local",
              progress: Optional[Callable[[str], None]] = None,
              ledger: Optional[str] = None) -> BenchReport:
    """Measure the requested scenarios (all of them by default).

    With ``ledger`` set, the finished report is also appended to the
    run ledger at that path (see :mod:`repro.obs.ledger`).
    """
    names = list(SCENARIOS) if scenarios is None else list(scenarios)
    results = []
    for name in names:
        if progress is not None:
            progress(f"bench {name} (x{repeats}) ...")
        results.append(run_scenario(name, repeats=repeats))
    meta = {"python": platform.python_version(),
            "platform": platform.platform(),
            "machine": platform.machine()}
    report = BenchReport(label=label, results=results, meta=meta)
    if ledger is not None:
        from .ledger import RunLedger, bench_entry

        RunLedger(ledger).append(bench_entry(report))
    return report


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
#: metric field -> direction ("lower" = lower is better).
_METRICS = {"wall_clock": "lower", "peak_rss_kb": "lower",
            "sim_per_wall": "higher", "events_per_sec": "higher"}


@dataclass(frozen=True)
class MetaMismatch:
    """One environment field differing between two compared reports.

    Timings from different interpreters, platforms, or machines are not
    commensurable; a comparison across them can "regress" for reasons
    that have nothing to do with the code under test.
    """

    field: str
    current: Optional[str]
    baseline: Optional[str]

    def render(self) -> str:
        def show(value: Optional[str]) -> str:
            return value if value is not None else "(unrecorded)"

        return (f"environment mismatch: {self.field} is "
                f"{show(self.current)} here but {show(self.baseline)} "
                f"in the baseline")

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


def compare_meta(current: BenchReport,
                 baseline: BenchReport) -> List[MetaMismatch]:
    """Environment fields differing between the two reports.

    Empty means the recorded environments agree (or neither recorded
    any).  ``repro bench --compare`` prints these as warnings — they
    never gate, but they explain a gating verdict's credibility.
    """
    mismatches: List[MetaMismatch] = []
    for name in sorted(set(current.meta) | set(baseline.meta)):
        mine = current.meta.get(name)
        theirs = baseline.meta.get(name)
        if mine != theirs:
            mismatches.append(MetaMismatch(
                field=name,
                current=None if mine is None else str(mine),
                baseline=None if theirs is None else str(theirs)))
    return mismatches


def compare_reports(current: BenchReport, baseline: BenchReport,
                    threshold: float = 0.25) -> List[str]:
    """Regression messages: empty means the current report is clean.

    A lower-is-better metric regresses when it exceeds the baseline by
    more than ``threshold`` (fraction); a higher-is-better metric when it
    falls short by more than ``threshold``.  Scenarios or metrics absent
    from either side are skipped — a baseline can't gate what it never
    measured.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0: {threshold!r}")
    regressions: List[str] = []
    for base in baseline.results:
        now = current.result(base.scenario)
        if now is None:
            continue
        for metric, direction in _METRICS.items():
            reference = getattr(base, metric)
            measured = getattr(now, metric)
            if reference is None or measured is None or reference <= 0:
                continue
            if direction == "lower":
                limit = reference * (1.0 + threshold)
                if measured > limit:
                    regressions.append(
                        f"{base.scenario}.{metric}: {measured:.3f} > "
                        f"{limit:.3f} (baseline {reference:.3f} "
                        f"+{threshold:.0%})")
            else:
                floor = reference * (1.0 - threshold)
                if measured < floor:
                    regressions.append(
                        f"{base.scenario}.{metric}: {measured:.3f} < "
                        f"{floor:.3f} (baseline {reference:.3f} "
                        f"-{threshold:.0%})")
    return regressions
