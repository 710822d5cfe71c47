"""Parallel, cached, fault-tolerant experiment sweeps.

:func:`~repro.experiments.runner.run_session` and
:func:`~repro.experiments.runner.run_file_download` execute one simulation
in-process; every paper table and parameter study re-runs them dozens of
times.  This module turns those loops into *sweeps*: lists of configs
(usually built with :func:`expand_grid`) fanned out over a process pool by
:func:`run_sweep`, with three properties the serial loops lacked:

* **Deterministic result caching.**  Configs are plain dataclass values, so
  equal configs are byte-identical; :func:`config_key` hashes that canonical
  form, and a finished run becomes a JSON artifact under ``cache_dir`` that
  later sweeps load instead of re-simulating.
* **Per-run fault isolation.**  A run that raises, or outlives the per-run
  ``timeout``, is retried up to ``retries`` times and then recorded as a
  structured :class:`RunFailure` — the sweep always completes and reports
  every config.
* **Live telemetry.**  Run lifecycle events
  (:class:`~repro.obs.events.SweepRunStarted` /
  :class:`~repro.obs.events.SweepRunFinished` /
  :class:`~repro.obs.events.SweepRunFailed` …) are published on a
  :class:`~repro.obs.bus.EventBus` so callers can render progress without
  polling.

The unit of exchange across the process boundary is a
:class:`SessionSummary` or :class:`DownloadSummary` — a picklable,
JSON-round-trippable projection of the live result objects, which hold a
connection, player, and analyzer and therefore never cross processes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from multiprocessing import get_all_start_methods, get_context
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

from .._durable import atomic_write, read_json_object
from ..analysis.metrics import SessionMetrics
from ..net.trace import BandwidthTrace
from ..obs.bus import EventBus
from ..obs.events import (SweepCompleted, SweepRunFailed, SweepRunFinished,
                          SweepRunStarted, SweepRunSummarized, SweepStarted)
from .configs import FileDownloadConfig, SessionConfig
from .runner import (FileDownloadResult, SessionResult, run_file_download,
                     run_session)

#: Any config the default runner understands.
SweepConfig = Union[SessionConfig, FileDownloadConfig]

#: Failure discriminators carried by :class:`RunFailure`.
FAILED_ERROR = "error"
FAILED_TIMEOUT = "timeout"


# ----------------------------------------------------------------------
# Deterministic config keys
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    """Canonical JSON-ready form of a config value (order-stable)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {spec.name: _encode(getattr(value, spec.name))
                for spec in fields(value)}
    if isinstance(value, BandwidthTrace):
        return {"__trace__": True, "times": value.times,
                "rates": value.rates, "loop": value.loop}
    if isinstance(value, Mapping):
        # Sort by the *stringified* key: that is the form the emitted dict
        # actually carries, and raw-key sorting raises TypeError for
        # mixed-type keys (e.g. {1: ..., "b": ...}).
        items = sorted(value.items(), key=lambda item: str(item[0]))
        return {str(k): _encode(v) for k, v in items}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for a config key")


def config_key(config: SweepConfig) -> str:
    """Deterministic hash naming one run: equal configs ⇒ equal keys.

    The key doubles as the cache filename, so it also embeds the config's
    type — a :class:`SessionConfig` and a :class:`FileDownloadConfig` can
    never collide.
    """
    payload = {"kind": type(config).__name__, "config": _encode(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def expand_grid(base: SweepConfig,
                grid: Mapping[str, Sequence]) -> List[SweepConfig]:
    """Cartesian product of field overrides applied to ``base``.

    ``grid`` maps config field names to value lists; the special key
    ``"scheme"`` routes through
    :meth:`~repro.experiments.configs.SessionConfig.with_scheme` after the
    other overrides.  Order is deterministic: the grid's key order, values
    in the given order, last key varying fastest.
    """
    if not grid:
        return [base]
    names = list(grid)
    known = {spec.name for spec in fields(base)}
    for name in names:
        if name != "scheme" and name not in known:
            raise ValueError(
                f"unknown {type(base).__name__} field {name!r} "
                f"(known: {sorted(known)})")
    configs: List[SweepConfig] = []
    for combo in itertools.product(*(grid[name] for name in names)):
        overrides = dict(zip(names, combo))
        scheme = overrides.pop("scheme", None)
        config = replace(base, **overrides) if overrides else base
        if scheme is not None:
            config = config.with_scheme(scheme)
        configs.append(config)
    return configs


# ----------------------------------------------------------------------
# Picklable summaries (the process/caching boundary)
# ----------------------------------------------------------------------
@dataclass
class SessionSummary:
    """What survives of a :class:`SessionResult` across processes.

    Carries everything the comparisons and tables read — the metrics, the
    scheduler counters, completion — and none of the live objects
    (connection, player, analyzer, event stream).
    """

    config_key: str
    finished: bool
    session_duration: float
    metrics: SessionMetrics
    scheduler_stats: Dict[str, int] = field(default_factory=dict)
    #: Serialized :class:`~repro.obs.metrics.Histogram` dicts keyed by
    #: exposition name, populated when the run collected metrics.  Plain
    #: dicts (not Histogram objects) so the summary stays a JSON value;
    #: :func:`merged_histograms` revives and folds them per grid point.
    histograms: Dict[str, Any] = field(default_factory=dict)
    #: Invariant-violation counts by severity (see
    #: :mod:`repro.obs.check`); ``None`` when the run was not checked,
    #: an empty dict when checked and clean.
    violations: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "session", "config_key": self.config_key,
                "finished": self.finished,
                "session_duration": self.session_duration,
                "metrics": asdict(self.metrics),
                "scheduler_stats": dict(self.scheduler_stats),
                "histograms": dict(self.histograms),
                "violations": (dict(self.violations)
                               if self.violations is not None else None)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionSummary":
        # .get: artifacts cached by pre-histogram versions still load.
        violations = payload.get("violations")
        return cls(config_key=payload["config_key"],
                   finished=payload["finished"],
                   session_duration=payload["session_duration"],
                   metrics=SessionMetrics(**payload["metrics"]),
                   scheduler_stats=dict(payload["scheduler_stats"]),
                   histograms=dict(payload.get("histograms", {})),
                   violations=(dict(violations) if violations is not None
                               else None))


@dataclass
class DownloadSummary:
    """What survives of a :class:`FileDownloadResult` across processes."""

    config_key: str
    duration: float
    bytes_per_path: Dict[str, float]
    missed_deadline: bool
    radio_energy: float

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

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "download", "config_key": self.config_key,
                "duration": self.duration,
                "bytes_per_path": dict(self.bytes_per_path),
                "missed_deadline": self.missed_deadline,
                "radio_energy": self.radio_energy}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DownloadSummary":
        return cls(config_key=payload["config_key"],
                   duration=payload["duration"],
                   bytes_per_path=dict(payload["bytes_per_path"]),
                   missed_deadline=payload["missed_deadline"],
                   radio_energy=payload["radio_energy"])


RunSummary = Union[SessionSummary, DownloadSummary]

_SUMMARY_KINDS = {"session": SessionSummary, "download": DownloadSummary}


def summary_from_dict(payload: Mapping[str, Any]) -> RunSummary:
    """Inverse of ``summary.to_dict()`` for either summary kind."""
    kind = payload.get("kind")
    cls = _SUMMARY_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown summary kind {kind!r}")
    return cls.from_dict(payload)


def summarize_session(result: SessionResult,
                      key: Optional[str] = None) -> SessionSummary:
    """Project a live :class:`SessionResult` onto the picklable boundary."""
    histograms: Dict[str, Any] = {}
    if result.metrics_registry is not None:
        for histogram in result.metrics_registry.histograms():
            name = histogram.name
            if histogram.labels:
                rendered = ",".join(f"{k}={v}" for k, v in histogram.labels)
                name = f"{name}{{{rendered}}}"
            histograms[name] = histogram.to_dict()
    violations: Optional[Dict[str, int]] = None
    if result.check_report is not None:
        violations = {}
        for violation in result.check_report.violations:
            violations[violation.severity] = \
                violations.get(violation.severity, 0) + 1
    return SessionSummary(
        config_key=key if key is not None else config_key(result.config),
        finished=result.finished,
        session_duration=result.session_duration,
        metrics=result.metrics,
        scheduler_stats=dict(result.scheduler_stats),
        histograms=histograms,
        violations=violations)


def summarize_download(result: FileDownloadResult,
                       key: Optional[str] = None) -> DownloadSummary:
    """Project a live :class:`FileDownloadResult` onto the boundary."""
    return DownloadSummary(
        config_key=key if key is not None else config_key(result.config),
        duration=result.duration,
        bytes_per_path=dict(result.bytes_per_path),
        missed_deadline=result.missed_deadline,
        radio_energy=result.radio_energy)


def default_runner(config: SweepConfig) -> RunSummary:
    """Run one config with the matching runner and summarize the result.

    Sessions run with the stock invariant checkers attached (see
    :mod:`repro.obs.check`), so every sweep doubles as a consistency
    audit: per-run violation counts ride the summary into
    :func:`~repro.experiments.tables.sweep_table`.
    """
    if isinstance(config, SessionConfig):
        return summarize_session(run_session(config, check=True))
    if isinstance(config, FileDownloadConfig):
        return summarize_download(run_file_download(config))
    raise TypeError(
        f"no default runner for {type(config).__name__}; pass runner=")


# ----------------------------------------------------------------------
# Worker-side execution (fault + timeout isolation)
# ----------------------------------------------------------------------
class RunTimeout(Exception):
    """One run exceeded the sweep's per-run timeout."""


def _alarm_available() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def _call_with_timeout(runner: Callable[[Any], RunSummary], config: Any,
                       timeout: Optional[float]) -> RunSummary:
    """Invoke ``runner`` under a SIGALRM deadline when one is enforceable.

    Workers are fresh processes whose main thread runs the simulation, so
    the alarm interrupts even a wedged pure-Python loop.  Where SIGALRM is
    unavailable (non-main thread, non-POSIX) the run proceeds unbounded.
    """
    if not timeout or not _alarm_available():
        return runner(config)

    def _expired(_signum, _frame):
        raise RunTimeout(f"run exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return runner(config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute(runner: Optional[Callable[[Any], RunSummary]], config: Any,
             timeout: Optional[float]) -> tuple:
    """Run one config and report ``(status, payload, elapsed)``.

    Never raises for run-level problems: exceptions become ``("error",
    message, elapsed)`` and timeouts ``("timeout", message, elapsed)``, so
    one bad config cannot take the pool (or a serial sweep) down with it.
    """
    start = time.perf_counter()
    try:
        summary = _call_with_timeout(runner or default_runner, config,
                                     timeout)
        return ("ok", summary, time.perf_counter() - start)
    except RunTimeout as exc:
        return (FAILED_TIMEOUT, str(exc), time.perf_counter() - start)
    except Exception as exc:
        return (FAILED_ERROR, f"{type(exc).__name__}: {exc}",
                time.perf_counter() - start)


# ----------------------------------------------------------------------
# The on-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """One JSON artifact per config key under ``root``.

    Writes are atomic (temp file + rename), so a sweep killed mid-write
    never leaves a truncated artifact; unreadable or malformed entries are
    treated as misses, never as errors.
    """

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[RunSummary]:
        payload = read_json_object(self.path(key))
        if payload is None:
            return None
        try:
            return summary_from_dict(payload)
        except (ValueError, TypeError, KeyError):
            return None

    def store(self, key: str, summary: RunSummary) -> None:
        atomic_write(self.path(key), json.dumps(
            summary.to_dict(), sort_keys=True).encode("utf-8"))


# ----------------------------------------------------------------------
# Sweep bookkeeping
# ----------------------------------------------------------------------
@dataclass
class RunFailure:
    """A run that exhausted its retries, recorded instead of raised."""

    config_key: str
    index: int
    kind: str       # FAILED_ERROR or FAILED_TIMEOUT
    error: str
    attempts: int
    elapsed: float

    def to_dict(self) -> Dict[str, Any]:
        return {"config_key": self.config_key, "index": self.index,
                "kind": self.kind, "error": self.error,
                "attempts": self.attempts, "elapsed": self.elapsed}


@dataclass
class SweepRun:
    """One config's complete story within a sweep."""

    index: int
    config: Any
    config_key: str
    summary: Optional[RunSummary] = None
    failure: Optional[RunFailure] = None
    cached: bool = False
    attempts: int = 0
    elapsed: float = 0.0
    #: True when this run's outcome was copied from an identical config
    #: earlier in the same sweep (deduplicated, never simulated itself).
    shared: bool = False
    #: Warning recorded when the on-disk cache write failed; the run
    #: itself still succeeded with its in-memory summary.
    cache_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.summary is not None


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` produced, successes and failures."""

    runs: List[SweepRun]
    jobs: int
    wall_clock: float
    cache_dir: Optional[str] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    @property
    def summaries(self) -> List[RunSummary]:
        return [run.summary for run in self.runs if run.summary is not None]

    @property
    def failures(self) -> List[RunFailure]:
        return [run.failure for run in self.runs if run.failure is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for run in self.runs if run.cached)

    @property
    def cache_errors(self) -> List[str]:
        """Cache-write warnings, one per run whose artifact was lost."""
        return [f"{run.config_key}: {run.cache_error}" for run in self.runs
                if run.cache_error is not None]

    @property
    def ok(self) -> bool:
        """True when every run produced a summary."""
        return all(run.ok for run in self.runs)

    def export_report(self, path: str, bench_reports: Sequence[Any] = (),
                      baseline: Optional[Any] = None,
                      threshold: float = 0.25) -> None:
        """Write the self-contained HTML sweep report to ``path``.

        ``bench_reports`` are loaded
        :class:`~repro.obs.bench.BenchReport` objects (oldest first) for
        the trajectory panel; ``baseline`` additionally gates the newest
        one with :func:`~repro.obs.bench.compare_reports`.
        """
        from ..obs.report import sweep_report_html, write_report

        write_report(path, sweep_report_html(
            self, bench_reports=bench_reports, baseline=baseline,
            threshold=threshold))


def merged_histograms(result: SweepResult) -> Dict[str, Any]:
    """Fold every run's histograms into one distribution per name.

    Runs must have been swept with ``collect_metrics=True`` configs (the
    summaries then carry serialized histograms); runs without histograms
    are skipped.  Returns exposition name →
    :class:`~repro.obs.metrics.Histogram`, so e.g. the sweep-wide p95
    deadline slack is
    ``merged_histograms(r)["repro_deadline_slack_seconds"].quantile(0.95)``.
    """
    from ..obs.metrics import Histogram

    merged: Dict[str, Any] = {}
    for summary in result.summaries:
        for name, payload in getattr(summary, "histograms", {}).items():
            histogram = Histogram.from_dict(payload)
            if name in merged:
                try:
                    merged[name].merge(histogram)
                except ValueError as exc:
                    # Mismatched layouts would silently misfold into
                    # nonsense quantiles; name the series and both
                    # layouts instead.
                    raise ValueError(
                        f"sweep histograms for {name!r} (run "
                        f"{summary.config_key[:12]}) have mismatched "
                        f"bucket layouts: {exc}") from None
            else:
                merged[name] = histogram
    return merged


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _publish_summarized(bus: EventBus, clock: Callable[[], float],
                        run: SweepRun) -> None:
    """Headline QoE telemetry for live consumers (the dashboard).

    Only session summaries have one; download-only summaries are silent.
    """
    summary = run.summary
    metrics = getattr(summary, "metrics", None)
    if metrics is None:
        return
    violations = getattr(summary, "violations", None)
    bus.publish(SweepRunSummarized(
        clock(), run.config_key, run.index,
        bool(getattr(summary, "finished", True)),
        metrics.mean_bitrate, metrics.stall_count,
        metrics.cellular_bytes, metrics.radio_energy,
        sum(violations.values()) if violations else 0))


def _settle(run: SweepRun, outcome: tuple, retries: int, cache:
            Optional[ResultCache], bus: EventBus,
            clock: Callable[[], float]) -> bool:
    """Fold one attempt's outcome into ``run``; False means retry."""
    status, payload, elapsed = outcome
    run.elapsed += elapsed
    if status == "ok":
        run.summary = payload
        if cache is not None:
            try:
                cache.store(run.config_key, payload)
            except (OSError, TypeError, ValueError) as exc:
                # A full disk or read-only cache dir must not void a
                # finished simulation: keep the in-memory summary and
                # record the write failure as a warning on the run.
                run.cache_error = f"{type(exc).__name__}: {exc}"
        bus.publish(SweepRunFinished(clock(), run.config_key, run.index,
                                     elapsed, False))
        _publish_summarized(bus, clock, run)
        return True
    if run.attempts <= retries:
        return False
    run.failure = RunFailure(config_key=run.config_key, index=run.index,
                             kind=status, error=payload,
                             attempts=run.attempts, elapsed=run.elapsed)
    bus.publish(SweepRunFailed(clock(), run.config_key, run.index, status,
                               payload, run.attempts))
    return True


def _run_serial(pending: List[SweepRun], runner, timeout, retries, cache,
                bus, clock) -> None:
    for run in pending:
        while True:
            run.attempts += 1
            bus.publish(SweepRunStarted(clock(), run.config_key, run.index,
                                        run.attempts))
            outcome = _execute(runner, run.config, timeout)
            if _settle(run, outcome, retries, cache, bus, clock):
                break


def _pool_context():
    # Fork keeps module-level runners defined in caller scripts picklable
    # by reference and inherits sys.path; fall back where absent.
    if "fork" in get_all_start_methods():
        return get_context("fork")
    return get_context()


def _fresh_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max_workers,
                               mp_context=_pool_context())


def _run_pool(pending: List[SweepRun], runner, timeout, retries, cache, bus,
              clock, jobs: int) -> None:
    """Fan ``pending`` out over a process pool, surviving pool deaths.

    A worker hard-crash (segfault, OOM kill) marks the whole
    ``ProcessPoolExecutor`` broken and fails *every* in-flight future, not
    just the culprit's.  The executor cannot attribute the crash, so the
    futures that completed exceptionally in that round are each charged
    one attempt — but their retries, and the still-queued runs, go to a
    *fresh* pool instead of cascading into guaranteed failures on the
    broken one.  In-flight runs that never reached a ``wait`` round are
    requeued uncharged (their ``SweepRunStarted`` event is republished
    with the same attempt number on resubmission).
    """
    max_workers = min(jobs, len(pending))
    queue: List[SweepRun] = list(pending)
    futures: Dict[Any, SweepRun] = {}
    pool = _fresh_pool(max_workers)
    try:
        while queue or futures:
            while queue:
                run = queue[0]
                run.attempts += 1
                bus.publish(SweepRunStarted(clock(), run.config_key,
                                            run.index, run.attempts))
                try:
                    future = pool.submit(_execute, runner, run.config,
                                         timeout)
                except BrokenProcessPool:
                    # The pool died since the last round; this run never
                    # reached a worker, so the attempt is uncharged and
                    # goes to a replacement pool.
                    run.attempts -= 1
                    pool.shutdown(wait=False)
                    pool = _fresh_pool(max_workers)
                    continue
                except Exception as exc:
                    # Unpicklable config or shut-down executor: permanent.
                    _settle(run, (FAILED_ERROR,
                                  f"{type(exc).__name__}: {exc}", 0.0),
                            -1, cache, bus, clock)
                    queue.pop(0)
                    continue
                futures[future] = run
                queue.pop(0)
            if not futures:
                continue
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                run = futures.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    outcome = (FAILED_ERROR,
                               f"worker process died: {exc}", 0.0)
                except Exception as exc:
                    outcome = (FAILED_ERROR,
                               f"{type(exc).__name__}: {exc}", 0.0)
                if not _settle(run, outcome, retries, cache, bus, clock):
                    queue.append(run)
            if broken:
                for future in list(futures):
                    run = futures.pop(future)
                    run.attempts -= 1  # never completed; requeue uncharged
                    queue.append(run)
                pool.shutdown(wait=False)
                pool = _fresh_pool(max_workers)
    finally:
        pool.shutdown(wait=False)


def run_sweep(configs: Iterable[SweepConfig], jobs: int = 1,
              cache_dir: Optional[str] = None,
              timeout: Optional[float] = None, retries: int = 0,
              bus: Optional[EventBus] = None,
              runner: Optional[Callable[[Any], RunSummary]] = None,
              ledger: Optional[str] = None) -> SweepResult:
    """Run every config, in parallel, reusing cached results.

    ``jobs=1`` runs in-process (no pickling, exact tracebacks in events);
    ``jobs>1`` fans out over a process pool.  Identical configs within one
    sweep are deduplicated by :func:`config_key` — simulated once, with
    the outcome (summary or failure) shared by every duplicate.
    ``cache_dir`` enables the
    on-disk result cache; ``timeout`` bounds each run's wall-clock seconds;
    failed runs are retried ``retries`` times before being recorded as
    :class:`RunFailure` entries.  ``runner`` replaces
    :func:`default_runner` (it must be a picklable, module-level callable
    when ``jobs > 1``) — the hook the failure-injection tests and custom
    harnesses use.  Lifecycle telemetry is published on ``bus``.
    ``ledger`` appends the finished sweep's headline record to the run
    ledger at that path (see :mod:`repro.obs.ledger`).
    """
    configs = list(configs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs!r}")
    if retries < 0:
        raise ValueError(f"retries cannot be negative: {retries!r}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive: {timeout!r}")
    if bus is None:
        bus = EventBus()
    start = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - start

    runs = [SweepRun(index=i, config=config, config_key=config_key(config))
            for i, config in enumerate(configs)]
    bus.publish(SweepStarted(0.0, len(runs), jobs))

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    pending: List[SweepRun] = []
    primaries: Dict[str, SweepRun] = {}
    duplicates: List[SweepRun] = []
    for run in runs:
        if run.config_key in primaries:
            # Identical config already in this sweep: simulate once,
            # share the outcome after the primary settles.
            duplicates.append(run)
            continue
        primaries[run.config_key] = run
        hit = cache.load(run.config_key) if cache is not None else None
        if hit is not None:
            run.summary = hit
            run.cached = True
            bus.publish(SweepRunFinished(clock(), run.config_key, run.index,
                                         0.0, True))
            _publish_summarized(bus, clock, run)
        else:
            pending.append(run)

    if pending:
        if jobs == 1:
            _run_serial(pending, runner, timeout, retries, cache, bus, clock)
        else:
            _run_pool(pending, runner, timeout, retries, cache, bus, clock,
                      jobs)

    for run in duplicates:
        primary = primaries[run.config_key]
        run.shared = True
        run.attempts = primary.attempts
        if primary.summary is not None:
            run.summary = primary.summary
            run.cached = True  # served without a fresh simulation
            bus.publish(SweepRunFinished(clock(), run.config_key, run.index,
                                         0.0, True))
            _publish_summarized(bus, clock, run)
        elif primary.failure is not None:
            run.failure = replace(primary.failure, index=run.index)
            bus.publish(SweepRunFailed(
                clock(), run.config_key, run.index, run.failure.kind,
                run.failure.error, run.failure.attempts))

    wall = time.perf_counter() - start
    succeeded = sum(1 for run in runs if run.ok)
    cache_hits = sum(1 for run in runs if run.cached)
    bus.publish(SweepCompleted(wall, len(runs), succeeded,
                               len(runs) - succeeded, cache_hits))
    result = SweepResult(runs=runs, jobs=jobs, wall_clock=wall,
                         cache_dir=cache_dir)
    if ledger is not None:
        from ..obs.ledger import RunLedger, sweep_entry

        RunLedger(ledger).append(sweep_entry(result))
    return result
