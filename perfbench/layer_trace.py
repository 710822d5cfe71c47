"""Per-layer span tracing, installed from outside the program.

The benchmark never edits ``src/``.  For a traced run it replaces the
public entry points of each layer (module functions, methods and
classmethods) with wrappers that time every call, and puts the
originals back afterwards.  A layer's *self time* is its spans' wall
time minus the time of the spans they enclosed, so the per-layer self
times of one run never sum past the run's wall clock.

Spans are aggregated as they close (a total per key and a call count);
no per-call record is kept, which keeps the traced run's memory flat.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Span keys whose self time belongs to no named layer: the benchmark's
#: own call into the workload entry point.
ROOT = "experiments.root"


class Tracer:
    """Span stack plus per-key aggregates for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Open spans, innermost last: ``[key, time of enclosed spans]``.
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- aggregation ---------------------------------------------------
    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, key: str, elapsed: float, enclosed: float) -> None:
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - enclosed
        self.calls[key] = self.calls.get(key, 0) + 1
        if self._stack:
            self._stack[-1][1] += elapsed

    def spanned(self, key: str, fn: Callable,
                after: Callable[[Any, tuple, dict], None] = None
                ) -> Callable:
        """``fn`` wrapped in a span named ``key``.

        A call made directly inside a span of the same key (a method
        calling its own helper or ``super()``) opens no second span, so
        ``calls`` counts entries into the layer, not its internal calls.
        ``after(result, args, kwargs)`` runs once the span has closed.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - began
                stack.pop()
                self._close(key, elapsed, frame[1])
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only: its time stays with the
        enclosing span (for hot kernel helpers)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def wrap_function(self, func: Callable, wrap: Callable[[Callable],
                                                           Callable]) -> None:
        """Replace ``func`` in every loaded ``repro`` module that bound it
        (``from x import func`` copies the reference)."""
        wrapped = wrap(func)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapped)

    def wrap_method(self, cls: type, name: str,
                    wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.name`` where ``cls`` itself defines it (plain,
        class- or static method).  A name ``cls`` does not define, or
        defines abstract, is left alone, so a hook a later version of
        the program drops costs its span, not the traced run."""
        raw = cls.__dict__.get(name)
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, name, type(raw)(wrap(raw.__func__)))
        elif callable(raw) and not getattr(raw, "__isabstractmethod__",
                                           False):
            self._set(cls, name, wrap(raw))

    def wrap_class(self, cls: type, wrap: Callable[[Callable], Callable],
                   names=None) -> None:
        """Wrap ``names`` (default: every non-dunder function ``cls``
        defines) on ``cls`` and on each subclass that overrides them."""
        for klass in [cls] + all_subclasses(cls):
            chosen = names if names is not None else [
                attr for attr, value in vars(klass).items()
                if not attr.startswith("__") and callable(value)]
            for name in chosen:
                self.wrap_method(klass, name, wrap)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(all_subclasses(sub))
    return found


def self_time_total(tracer: Tracer, include_root: bool = False) -> float:
    return sum(value for key, value in tracer.self_s.items()
               if include_root or key != ROOT)


# ----------------------------------------------------------------------
# The layer map: which public entry points belong to which layer
# ----------------------------------------------------------------------
#: Span keys of the named layers, in report order.
LAYERS = ("workloads.draw", "net.trace.synth", "net.sim.run",
          "core.scheduler", "core.adapter", "estimators", "dash.player",
          "abr.choose_level", "energy", "analysis.metrics", "obs.fold",
          "obs.merge", "obs.recorder", "obs.check", "obs.why",
          "experiments.runner")

#: Trace generators whose output length is the synthesised horizon;
#: ``with_dropouts`` re-samples an existing trace, so it adds samples
#: but no new trace seconds.
_GENERATORS = ("random_walk", "mobility_walk", "gaussian")
_SYNTHESISERS = _GENERATORS + ("with_dropouts",)

_SCHEDULER_HOOKS = ("on_transfer_start", "on_transfer_complete", "on_tick",
                    "next_decision")
_ESTIMATOR_CALLS = ("update", "predict", "predict_or")


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; undo with ``tracer.uninstall()``."""
    from repro.abr.base import AbrAlgorithm
    from repro.analysis.analyzer import MultipathVideoAnalyzer
    from repro.core.adapter import MpDashAdapter
    from repro.core.scheduler import DeadlineAwareScheduler
    from repro.dash.player import DashPlayer
    from repro.energy import model as energy
    from repro.estimators.base import ThroughputEstimator
    from repro.experiments import fleet, runner
    from repro.net import tcp
    from repro.net.simulator import Simulator
    from repro.net.trace import BandwidthTrace
    from repro.obs import check, why
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.recorder import ShardRecorder
    from repro.workloads import videos
    from repro.workloads.arrivals import SessionArrivals

    def span(key, after=None):
        return lambda fn: tracer.spanned(key, fn, after)

    def on_synth(generator):
        def after(trace, _args, _kwargs):
            tracer.count("net.trace.synth.samples", len(trace.times))
            if generator:
                tracer.count("net.trace.synth.seconds", trace.duration)
        return after

    def on_session(result, args, kwargs):
        config = args[0] if args else kwargs["config"]
        traced_paths = sum(1 for trace in (config.wifi_trace,
                                           config.lte_trace)
                           if trace is not None)
        tracer.count("sessions")
        tracer.count("net.trace.used_seconds",
                     traced_paths * result.session_duration)
        tracer.count("obs.bus.published", result.connection.bus.published)
        tracer.count("core.deadline_misses", int(
            result.scheduler_stats.get("deadline_misses", 0)))

    tracer.wrap_method(SessionArrivals, "draw", span("workloads.draw"))
    tracer.wrap_function(videos.video_asset, span("workloads.draw"))
    for name in _SYNTHESISERS:
        tracer.wrap_method(BandwidthTrace, name, span(
            "net.trace.synth", on_synth(name in _GENERATORS)))
    tracer.wrap_method(Simulator, "run", span("net.sim.run"))
    tracer.wrap_function(tcp.integrate_window, lambda fn: tracer.counted(
        "net.integrate_window.calls", fn))
    tracer.wrap_class(DeadlineAwareScheduler, span("core.scheduler"),
                      _SCHEDULER_HOOKS)
    tracer.wrap_class(MpDashAdapter, span("core.adapter"))
    tracer.wrap_class(ThroughputEstimator, span("estimators"),
                      _ESTIMATOR_CALLS)
    tracer.wrap_class(DashPlayer, span("dash.player"))
    tracer.wrap_class(AbrAlgorithm, span("abr.choose_level"),
                      ("choose_level",))
    tracer.wrap_function(energy.session_energy, lambda fn: tracer.spanned(
        "energy", tracer.counted("energy.session_energy.calls", fn)))
    for name in ("interface_energy", "radio_state_events",
                 "session_radio_events"):
        tracer.wrap_function(getattr(energy, name), span("energy"))
    tracer.wrap_method(MultipathVideoAnalyzer, "metrics",
                       span("analysis.metrics"))
    tracer.wrap_function(fleet.fold_session, span("obs.fold"))
    tracer.wrap_function(why.fold_attributions, span("obs.fold"))
    tracer.wrap_method(MetricsRegistry, "merge", span("obs.merge"))
    tracer.wrap_method(MetricsRegistry, "from_dict", span("obs.merge"))
    tracer.wrap_class(ShardRecorder, span("obs.recorder"),
                      ("observe", "record_failure", "flush"))
    tracer.wrap_function(check.check_trace, span("obs.check"))
    tracer.wrap_function(why.attributions_from_trace, span("obs.why"))
    tracer.wrap_function(runner.run_session,
                         span("experiments.runner", on_session))
