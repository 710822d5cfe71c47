"""Opt-in wall-clock attribution for the bus and the simulator loop.

Before optimizing a hot path you need to know where a 10k-chunk sweep
actually spends its time: which event types dominate the bus, which
subscriber handlers burn the milliseconds, and which scheduled callbacks
the simulator loop dispatches most.  This module answers all three with
one :class:`Profiler` fed from two hooks:

* :class:`ProfiledBus` — a drop-in :class:`~repro.obs.bus.EventBus`
  subclass whose ``publish`` times each delivery, per event type and per
  handler.  Event times are *inclusive*: a handler that publishes nested
  events is charged for their dispatch too (depth-first delivery).
* ``Simulator.profiler`` — when set, the run loop times every scheduled
  callback (see :meth:`~repro.net.simulator.Simulator.run`).

Profiling is strictly opt-in because the ``perf_counter`` pair per
delivery is real overhead on a bus that publishes one event per path per
activity bin; the default session path never pays it.  The rendered
:meth:`Profiler.report` is the ``repro profile`` CLI output.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .bus import EventBus
from .events import TraceEvent


class Stat:
    """Call count and accumulated wall-clock seconds for one name."""

    __slots__ = ("calls", "total")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0

    def add(self, elapsed: float) -> None:
        self.calls += 1
        self.total += elapsed

    @property
    def mean(self) -> float:
        return self.total / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"calls": self.calls, "total": self.total}

    def __repr__(self) -> str:
        return f"<Stat calls={self.calls} total={self.total:.6f}s>"


def _callable_name(handler: Callable[..., Any]) -> str:
    qualname = getattr(handler, "__qualname__", None)
    if qualname is not None:
        module = getattr(handler, "__module__", "") or ""
        short = module.rsplit(".", 1)[-1]
        return f"{short}.{qualname}" if short else qualname
    # functools.partial, callable instances, …
    inner = getattr(handler, "func", None)
    if inner is not None:
        return f"partial({_callable_name(inner)})"
    return type(handler).__name__


class Profiler:
    """Accumulates per-event-type, per-handler, and per-callback timings."""

    def __init__(self) -> None:
        #: event class name -> Stat (inclusive dispatch time).
        self.events: Dict[str, Stat] = {}
        #: "EventType handler_qualname" -> Stat.
        self.handlers: Dict[str, Stat] = {}
        #: simulator callback qualname -> Stat.
        self.callbacks: Dict[str, Stat] = {}
        #: wall-clock of the profiled region (set by the session runner).
        self.wall_clock: Optional[float] = None
        self._handler_names: Dict[int, str] = {}

    # -- recording hooks (hot; keep them small) ------------------------
    def record_event(self, cls: type, elapsed: float) -> None:
        name = cls.__name__
        stat = self.events.get(name)
        if stat is None:
            stat = self.events[name] = Stat()
        stat.add(elapsed)

    def record_handler(self, cls: type, handler: Callable[..., Any],
                       elapsed: float) -> None:
        key = id(handler)
        name = self._handler_names.get(key)
        if name is None:
            name = self._handler_names[key] = (
                f"{cls.__name__} → {_callable_name(handler)}")
        stat = self.handlers.get(name)
        if stat is None:
            stat = self.handlers[name] = Stat()
        stat.add(elapsed)

    def record_callback(self, callback: Callable[..., Any],
                        elapsed: float) -> None:
        key = id(callback)
        name = self._handler_names.get(key)
        if name is None:
            name = self._handler_names[key] = _callable_name(callback)
        stat = self.callbacks.get(name)
        if stat is None:
            stat = self.callbacks[name] = Stat()
        stat.add(elapsed)

    # -- views ---------------------------------------------------------
    def top(self, table: Dict[str, Stat], count: int = 20
            ) -> List[Tuple[str, Stat]]:
        """The ``count`` heaviest rows of one table, by total time."""
        ordered = sorted(table.items(),
                         key=lambda item: (-item[1].total, item[0]))
        return ordered[:count]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_clock": self.wall_clock,
            "events": {k: v.to_dict() for k, v in sorted(self.events.items())},
            "handlers": {k: v.to_dict()
                         for k, v in sorted(self.handlers.items())},
            "callbacks": {k: v.to_dict()
                          for k, v in sorted(self.callbacks.items())},
        }

    def report(self, top: int = 15) -> str:
        """The rendered hot-path report (``repro profile``)."""
        sections = [
            ("Bus events (inclusive dispatch time)", self.events),
            ("Subscriber handlers", self.handlers),
            ("Simulator callbacks", self.callbacks),
        ]
        lines: List[str] = []
        if self.wall_clock is not None:
            lines.append(f"profiled wall clock: {self.wall_clock:.3f}s")
            lines.append("")
        for title, table in sections:
            lines.append(title)
            lines.append("-" * len(title))
            rows = self.top(table, top)
            if not rows:
                lines.append("  (no samples)")
                lines.append("")
                continue
            name_width = max(len(name) for name, _ in rows)
            header = (f"  {'name'.ljust(name_width)}  {'calls':>8}  "
                      f"{'total ms':>10}  {'mean µs':>9}")
            lines.append(header)
            for name, stat in rows:
                lines.append(
                    f"  {name.ljust(name_width)}  {stat.calls:>8}  "
                    f"{stat.total * 1e3:>10.3f}  {stat.mean * 1e6:>9.2f}")
            dropped = len(table) - len(rows)
            if dropped > 0:
                lines.append(f"  … {dropped} more")
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def __repr__(self) -> str:
        return (f"<Profiler events={len(self.events)} "
                f"handlers={len(self.handlers)} "
                f"callbacks={len(self.callbacks)}>")


class ProfiledBus(EventBus):
    """An :class:`EventBus` whose publishes are timed into a profiler.

    Swap it in wherever a bus is constructed (``Simulator(bus=...)``);
    subscribers cannot tell the difference.  Delivery semantics are
    identical to the base class — same ordering, same cached dispatch
    lists — only bracketed by ``perf_counter`` reads.
    """

    __slots__ = ("profiler",)

    def __init__(self, profiler: Optional[Profiler] = None) -> None:
        super().__init__()
        self.profiler = profiler if profiler is not None else Profiler()

    def observes(self, event_type: type) -> bool:
        """Always True: every event is built and published, so the
        profile times even the ones no handler sees."""
        return True

    def publish(self, event: TraceEvent) -> None:
        self.published += 1
        cls = event.__class__
        handlers = self._dispatch.get(cls)
        if handlers is None:
            handlers = self._cache_dispatch(cls)
        profiler = self.profiler
        started = perf_counter()
        for handler in handlers:
            handler_started = perf_counter()
            handler(event)
            profiler.record_handler(cls, handler,
                                    perf_counter() - handler_started)
        profiler.record_event(cls, perf_counter() - started)
