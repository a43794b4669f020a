"""The per-System event bus every simulator tap subscribes to, and the
trace ring.

A :class:`~repro.core.system.System` builds one :class:`EventBus` and
hands it to its memory controller, NVM module, logger and log regions;
each observation seam publishes on one of its :data:`TOPICS`, and every
consumer (trace ring, WAL checker, store collector, replay recorder,
crash oracle, crash plans) is a subscriber.  ``reset_machine`` hands the
same bus to the rebuilt parts, so subscriptions survive it untouched.
Subscribers run in subscription order and only observe, except that a
``crash-point`` subscriber may raise ``CrashInjected``, which the bus
never swallows.  A :class:`Topic` is a list, so a publish site is
``if topic: topic(...)``: unsubscribed, it costs one truth test and
makes no call.  docs/tracing.md has the topic table with each topic's
publishing site and payload.

:class:`TraceBus` is the bounded ring of typed events; it subscribes its
``emit`` to ``trace-event`` and drops (never blocks) when full, so a
traced run is bit-identical to a traceless one
(``tests/test_trace_inert.py``).
"""

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, Mapping, Optional

from repro.trace.events import TraceEvent

TOPICS = (
    "setup-store", "tx-dispatch", "tx-store", "tx-committed",
    "op-load", "op-store", "op-store-nt", "op-compute",
    "crash-point", "trace-event", "data-write", "log-append",
)


class Topic(list):
    """One topic's subscribers, in order; calling the topic publishes."""

    __slots__ = ()

    def __call__(self, *args: Any, **kwargs: Any) -> None:
        for subscriber in self:
            subscriber(*args, **kwargs)


class EventBus:
    """One machine's publish/subscribe seam over :data:`TOPICS`."""

    def __init__(self) -> None:
        self._topics: Dict[str, Topic] = {name: Topic() for name in TOPICS}

    def topic(self, name: str) -> Topic:
        """The live subscriber list a publish site holds on to."""
        if name not in self._topics:
            raise ValueError(
                "unknown topic %r (topics: %s)" % (name, ", ".join(TOPICS))
            )
        return self._topics[name]

    def subscribe(self, name: str, subscriber: Callable) -> Callable:
        self.topic(name).append(subscriber)
        return subscriber

    def unsubscribe(self, name: str, subscriber: Callable) -> None:
        self.topic(name).remove(subscriber)

    def subscribe_all(self, subscriptions: Mapping[str, Callable]) -> None:
        for name, subscriber in subscriptions.items():
            self.subscribe(name, subscriber)

    @contextmanager
    def subscribed(self, subscriptions: Mapping[str, Callable]) -> Iterator[None]:
        """Subscribe ``{topic: subscriber}`` for the body of a ``with``."""
        self.subscribe_all(subscriptions)
        try:
            yield
        finally:
            for name, subscriber in subscriptions.items():
                self.unsubscribe(name, subscriber)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Publish to nobody for the body of a ``with``."""
        held = {name: topic[:] for name, topic in self._topics.items()}
        for topic in self._topics.values():
            topic.clear()
        try:
            yield
        finally:
            for name, topic in self._topics.items():
                topic[:] = held[name]


@dataclass(frozen=True)
class TraceConfig:
    """Opt-in tracing knobs, threaded through ``make_system``."""

    enabled: bool = False
    #: Ring capacity in events; 0 means unbounded (tests, short runs).
    capacity: int = 65536
    #: Restrict collection to these categories; None collects everything.
    categories: Optional[frozenset] = None

    def make_bus(self) -> Optional["TraceBus"]:
        return TraceBus(self) if self.enabled else None


class TraceBus:
    """Bounded single-process event ring with drop accounting."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig(enabled=True)
        maxlen = self.config.capacity or None
        self.events: Deque[TraceEvent] = deque(maxlen=maxlen)
        self.emitted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        name: str,
        category: str,
        ts_ns: float,
        core: Optional[int] = None,
        txid: Optional[int] = None,
        addr: Optional[int] = None,
        dur_ns: float = 0.0,
        **args: Any,
    ) -> None:
        """Record one event; never raises on a full ring (drops oldest)."""
        categories = self.config.categories
        if categories is not None and category not in categories:
            return
        ring = self.events
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(
            TraceEvent(
                name=name,
                category=category,
                ts_ns=ts_ns,
                core=core,
                txid=txid,
                addr=addr,
                dur_ns=dur_ns,
                args=args,
            )
        )
        self.emitted += 1

    def clear(self) -> None:
        self.events.clear()
        self.emitted = 0
        self.dropped = 0

    def summary(self) -> Dict[str, Any]:
        """Stable dict of bus-level accounting (sorted sub-keys)."""
        by_category: Dict[str, int] = {}
        by_name: Dict[str, int] = {}
        for event in self.events:
            by_category[event.category] = by_category.get(event.category, 0) + 1
            by_name[event.name] = by_name.get(event.name, 0) + 1
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "retained": len(self.events),
            "by_category": dict(sorted(by_category.items())),
            "by_name": dict(sorted(by_name.items())),
        }
