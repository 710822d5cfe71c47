"""A typed, zero-dependency publish/subscribe bus.

Subscribers register for one event class (exact type, no subclass
dispatch — the taxonomy is flat) or for *every* event.  ``publish``
delivers synchronously, in subscription order, typed subscribers before
wildcard ones; since the simulator is single-threaded and events are
published in causal order, delivery order is fully deterministic — the
property the byte-identical trace-export guarantee rests on.

The publish hot path is one dict lookup plus the handler calls (the
typed-then-wildcard handler list is cached per event class), so an
unobserved layer costs almost nothing beyond constructing the event.

A producer can skip even that: :meth:`EventBus.observes` reads the same
cached list and says whether a publish would reach any handler.  The
transport uses it for ``PacketSent`` (one per path per activity bin):
with no subscriber it builds no event and only increments
``published``, so the count is the same either way.
:class:`~repro.obs.profile.ProfiledBus` always answers True, so a
profiled run still times every event.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from .events import TraceEvent

Handler = Callable[[TraceEvent], None]


class EventBus:
    """Synchronous in-process event bus keyed by event class."""

    __slots__ = ("_by_type", "_all", "_dispatch", "published")

    def __init__(self) -> None:
        self._by_type: Dict[Type[TraceEvent], List[Handler]] = {}
        self._all: List[Handler] = []
        # Per-class combined (typed then wildcard) handler list, built
        # lazily on first publish and dropped on any subscription change.
        self._dispatch: Dict[Type[TraceEvent], List[Handler]] = {}
        #: Number of events published over the bus's lifetime.
        self.published = 0

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, event_type: Type[TraceEvent],
                  handler: Handler) -> Handler:
        """Call ``handler(event)`` for every published ``event_type``.

        Returns the handler so call sites can keep it for
        :meth:`unsubscribe`.
        """
        if not (isinstance(event_type, type)
                and issubclass(event_type, TraceEvent)):
            raise TypeError(
                f"event_type must be a TraceEvent subclass: {event_type!r}")
        self._by_type.setdefault(event_type, []).append(handler)
        self._dispatch.clear()
        return handler

    def subscribe_all(self, handler: Handler) -> Handler:
        """Call ``handler`` for every event, regardless of type."""
        self._all.append(handler)
        self._dispatch.clear()
        return handler

    def unsubscribe(self, event_type: Type[TraceEvent],
                    handler: Handler) -> None:
        """Remove a typed subscription.

        Unsubscribing a handler that was never registered (or was already
        removed) is a documented no-op, not an error — teardown paths may
        run more than once.
        """
        handlers = self._by_type.get(event_type)
        if handlers and handler in handlers:
            handlers.remove(handler)
            self._dispatch.clear()

    def unsubscribe_all(self, handler: Handler) -> None:
        """Remove a wildcard subscription; no-op if absent."""
        if handler in self._all:
            self._all.remove(handler)
            self._dispatch.clear()

    def subscriber_count(
            self, event_type: Optional[Type[TraceEvent]] = None) -> int:
        """Subscribers that would see an ``event_type`` event (or, with no
        argument, the total number of registrations)."""
        if event_type is None:
            return (sum(len(h) for h in self._by_type.values())
                    + len(self._all))
        return len(self._by_type.get(event_type, ())) + len(self._all)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def _cache_dispatch(self, event_type: Type[TraceEvent]
                        ) -> List[Handler]:
        """Build and cache ``event_type``'s typed-then-wildcard list."""
        handlers = self._by_type.get(event_type, []) + self._all
        self._dispatch[event_type] = handlers
        return handlers

    def observes(self, event_type: Type[TraceEvent]) -> bool:
        """Whether publishing an ``event_type`` event right now would
        reach any handler (typed or wildcard).

        A producer whose event is costly to build may skip building it
        when this is False, as long as it still counts the publish in
        :attr:`published`.  Ask at each publish, not once: subscriptions
        can change at any time.
        """
        handlers = self._dispatch.get(event_type)
        if handlers is None:
            handlers = self._cache_dispatch(event_type)
        return bool(handlers)

    def publish(self, event: TraceEvent) -> None:
        """Deliver ``event`` to typed then wildcard subscribers, in
        subscription order.  Handlers may publish further events (delivered
        depth-first) and may subscribe/unsubscribe, but such changes only
        affect publishes that have not started dispatching yet."""
        self.published += 1
        handlers = self._dispatch.get(event.__class__)
        if handlers is None:
            handlers = self._cache_dispatch(event.__class__)
        for handler in handlers:
            handler(event)

    def __repr__(self) -> str:
        return (f"<EventBus subscribers={self.subscriber_count()} "
                f"published={self.published}>")
