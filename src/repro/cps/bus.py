"""The CPS network's publish/subscribe layer (Figure 1).

Figure 1 shows sinks publishing cyber-physical event instances, CCUs
publishing cyber events and actuator commands, and every interested
party — CCUs, database servers, humans — *subscribing* to the event
kinds they care about ("Subscribe Interested Cyber-Physical Events and
Cyber Events").

:class:`EventBus` implements topic-based pub/sub with the filters the
event model makes natural: event kind, layer, spatial region of the
estimated occurrence, and minimum confidence.  Deliveries are scheduled
on the simulator with the bus latency, so subscription delivery
participates in the end-to-end latency analysis.

Delivery is batched.  Consecutive publishes due at the same tick share
one kernel entry, which delivers them in publish x subscription order.
A publish joins the open batch only while no other kernel entry has
been scheduled since the batch's entry (see
:attr:`~repro.sim.kernel.Simulator.last_seq`), so a batch holds exactly
the deliveries that separate entries would have run back to back, and
nothing else scheduled changes places with them.  What does change is
work a delivery schedules at a higher priority later the same tick: it
now runs after the whole batch instead of between two deliveries.  A
:class:`~repro.cps.ccu.ControlUnit` therefore ingests all of a tick's
bus arrivals in one batch.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import EventInstance
from repro.core.space_model import Field, PointLocation
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["Subscription", "EventBus"]

Callback = Callable[[EventInstance], None]
_subscription_ids = itertools.count(1)


@dataclass
class Subscription:
    """One standing interest registration on the bus."""

    subscriber: str
    callback: Callback
    event_ids: frozenset[str] | None
    layers: frozenset[EventLayer] | None
    region: Field | None
    min_confidence: float
    subscription_id: int

    def matches(self, instance: EventInstance) -> bool:
        """Whether this subscription wants the instance."""
        if self.event_ids is not None and instance.event_id not in self.event_ids:
            return False
        if self.layers is not None and instance.layer not in self.layers:
            return False
        if instance.confidence < self.min_confidence:
            return False
        if self.region is not None:
            location = instance.estimated_location
            if isinstance(location, PointLocation):
                if not self.region.contains_point(location):
                    return False
            elif not self.region.intersects(location):
                return False
        return True


class _Batch:
    """The deliveries of consecutive publishes, run by one kernel entry."""

    __slots__ = ("bus", "tick", "seq", "handle", "pending")

    def __init__(self, bus: "EventBus"):
        self.bus = bus
        self.pending: deque[tuple[Subscription, EventInstance]] = deque()
        sim = bus.sim
        self.handle: EventHandle | None = sim.schedule(bus.latency, self.run)
        self.tick = self.handle.tick
        self.seq = sim.last_seq

    def run(self) -> None:
        bus = self.bus
        sim = bus.sim
        pending = self.pending
        try:
            while pending:
                subscription, instance = pending.popleft()
                bus.delivered_count += 1
                subscription.callback(instance)
                if sim.stopped:
                    break
        finally:
            if pending:
                # Interrupted by a raise or a stop: the rest stays queued
                # where its own entries would have been.
                self.handle.requeue()
            else:
                if bus._open is self:
                    bus._open = None
                # Breaks the entry -> run -> batch -> handle cycle.
                self.handle = None


class EventBus:
    """Topic/region/confidence-filtered pub/sub over the CPS network.

    Args:
        sim: Simulation kernel (deliveries are scheduled on it).
        latency: Ticks between publish and delivery.
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: int = 1,
        trace: TraceRecorder | None = None,
    ):
        if latency < 0:
            raise ComponentError("bus latency cannot be negative")
        self.sim = sim
        self.latency = latency
        self.trace = trace
        self._subscriptions: list[Subscription] = []
        self._open: _Batch | None = None
        self.published_count = 0
        self.delivered_count = 0

    def subscribe(
        self,
        subscriber: str,
        callback: Callback,
        event_ids: Iterable[str] | None = None,
        layers: Iterable[EventLayer] | None = None,
        region: Field | None = None,
        min_confidence: float = 0.0,
    ) -> Subscription:
        """Register interest; returns the live subscription object."""
        subscription = Subscription(
            subscriber=subscriber,
            callback=callback,
            event_ids=frozenset(event_ids) if event_ids is not None else None,
            layers=frozenset(layers) if layers is not None else None,
            region=region,
            min_confidence=min_confidence,
            subscription_id=next(_subscription_ids),
        )
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription (unknown ones are ignored)."""
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def publish(self, instance: EventInstance) -> int:
        """Fan the instance out to every matching subscription.

        The deliveries join the open batch when it is due at the same
        tick and nothing else was scheduled since its kernel entry;
        otherwise they open a new batch with its own entry.  Either
        way they run in subscription order, after every delivery
        published before them.

        Returns:
            Number of deliveries scheduled.
        """
        self.published_count += 1
        matched = [s for s in self._subscriptions if s.matches(instance)]
        if self.trace is not None:
            self.trace.record(
                self.sim.tick,
                "bus.publish",
                repr(instance.observer),
                event_id=instance.event_id,
                matched=len(matched),
            )
        if matched:
            batch = self._open
            if (
                batch is None
                or batch.seq != self.sim.last_seq
                or batch.tick != self.sim.tick + self.latency
            ):
                batch = self._open = _Batch(self)
            batch.pending.extend(
                (subscription, instance) for subscription in matched
            )
        return len(matched)

    @property
    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._subscriptions)
