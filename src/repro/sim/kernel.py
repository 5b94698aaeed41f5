"""Deterministic discrete-event simulation kernel.

The paper's architecture is hardware (motes, sinks, CCUs, radios); this
kernel is the substitution that lets the whole system run on a laptop:
a classic event-queue simulator over the discrete time model of
Section 4.  Every dynamic component (sampling loops, packet delivery,
condition evaluation, actuation) is a callback scheduled at an integer
tick; runs are fully deterministic given a seed, which the test suite
and the benchmark harness rely on.

Design notes:

* Ties are broken by (priority, insertion order), so two callbacks at
  the same tick run in a well-defined order — network deliveries default
  to a higher priority (lower number) than sampling so a mote sees all
  packets for tick *t* before its own tick-*t* sensing.
* Handles returned by :meth:`Simulator.schedule` support cancellation;
  cancelled entries are dropped lazily when popped.
* :meth:`Simulator.every` installs a periodic process; the callback may
  return ``False`` to stop rescheduling itself.
* A callback may carry several units of work scheduled together (the
  event bus delivers a tick's consecutive publishes from one entry).
  :attr:`Simulator.last_seq` tells its owner whether anything was
  scheduled since, :attr:`Simulator.stopped` lets it honour a stop
  between units, and :meth:`EventHandle.requeue` puts the unfinished
  rest back at the entry's original position.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.core.errors import SchedulingError, SimulationError
from repro.core.time_model import TimePoint

__all__ = [
    "Simulator",
    "EventHandle",
    "PRIORITY_NETWORK",
    "PRIORITY_INGEST",
    "PRIORITY_DEFAULT",
]

PRIORITY_NETWORK = 0
"""Queue priority for packet deliveries (run first within a tick)."""

PRIORITY_INGEST = 1
"""Queue priority for observer batch-ingest flushes: after every packet
delivery of the tick (entities coalesce into one
:meth:`~repro.detect.engine.DetectionEngine.submit_batch` call) but
before ordinary work such as sampling reads the resulting instances."""

PRIORITY_DEFAULT = 10
"""Queue priority for ordinary scheduled work."""


class _QueueEntry:
    """One scheduled callback; the heap orders it by a plain tuple.

    Heap items are ``(tick, priority, seq, entry)``: ``seq`` is unique,
    so sifts compare tuples of ints and never reach the entry.
    ``popped`` marks entries that left the heap so the simulator's
    live-entry counter never double-decrements when a handle is
    cancelled after its callback already ran.
    """

    __slots__ = ("tick", "priority", "seq", "callback", "cancelled", "popped")

    def __init__(
        self, tick: int, priority: int, seq: int, callback: Callable[[], None]
    ):
        self.tick = tick
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.popped = False


class EventHandle:
    """Cancellation handle for a scheduled callback."""

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: _QueueEntry):
        self._sim = sim
        self._entry = entry

    @property
    def tick(self) -> int:
        """Tick the callback is scheduled for."""
        return self._entry.tick

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._entry.cancelled

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        self._sim._cancel(self._entry)

    def requeue(self) -> None:
        """Queue a callback that already ran again, under its original
        ``(tick, priority, seq)`` key.

        For a callback that works through several units and stops part
        way (a unit raised, or :meth:`Simulator.stop` was called): the
        rest then runs exactly where separately scheduled units would
        have, ahead of everything queued after the original entry.

        Raises:
            SimulationError: If the entry is still queued or cancelled.
        """
        entry = self._entry
        if not entry.popped or entry.cancelled:
            raise SimulationError(
                "only a callback that already ran can be requeued"
            )
        entry.popped = False
        self._sim._enqueue(entry)


class _PeriodicHandle(EventHandle):
    """Handle of an :meth:`Simulator.every` process.

    The handle is the process: :meth:`_fire` runs the callback and
    rebinds ``_entry`` to the next firing, so the inherited ``tick``,
    ``cancelled`` and ``cancel`` always act on the live entry.
    """

    __slots__ = ("_callback", "_period", "_priority")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[[], object],
        period: int,
        first: int,
        priority: int,
    ):
        self._callback = callback
        self._period = period
        self._priority = priority
        super().__init__(sim, sim._push(first, priority, self._fire))

    def _fire(self) -> None:
        if self._callback() is False or self._entry.cancelled:
            return
        sim = self._sim
        self._entry = sim._push(
            sim.tick + self._period, self._priority, self._fire
        )


class Simulator:
    """Discrete-event simulator with a deterministic run loop.

    Args:
        seed: Seed for the simulator's random streams (see
            :class:`repro.sim.rng.RngStreams`); recorded for traceability.
    """

    def __init__(self, seed: int = 0):
        from repro.sim.rng import RngStreams  # local import avoids a cycle

        self.seed = seed
        self.rng = RngStreams(seed)
        self._queue: list[tuple[int, int, int, _QueueEntry]] = []
        self._next_seq = 0
        self._tick = 0
        self._now = TimePoint(0)
        self._running = False
        self._stopped = False
        self._processed = 0
        self._live = 0  # queued, not-cancelled entries (O(1) `pending`)

    # -- queue accounting --------------------------------------------

    def _push(
        self, tick: int, priority: int, callback: Callable[[], None]
    ) -> _QueueEntry:
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = _QueueEntry(tick, priority, seq, callback)
        self._enqueue(entry)
        return entry

    def _enqueue(self, entry: _QueueEntry) -> None:
        heapq.heappush(
            self._queue, (entry.tick, entry.priority, entry.seq, entry)
        )
        self._live += 1

    def _cancel(self, entry: _QueueEntry) -> None:
        if entry.cancelled:
            return
        entry.cancelled = True
        if not entry.popped:
            self._live -= 1

    # -- time --------------------------------------------------------

    @property
    def now(self) -> TimePoint:
        """Current simulation time as a :class:`TimePoint` (one shared
        instance per tick)."""
        now = self._now
        if now.tick != self._tick:
            now = self._now = TimePoint(self._tick)
        return now

    @property
    def tick(self) -> int:
        """Current simulation time as a raw tick count."""
        return self._tick

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    # -- scheduling --------------------------------------------------

    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Run ``callback`` ``delay`` ticks from now.

        Args:
            delay: Non-negative tick offset (0 = later this tick).
            callback: Zero-argument callable.
            priority: Within-tick ordering; lower runs first.

        Raises:
            SchedulingError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay} ticks in the past")
        return self.schedule_at(self._tick + delay, callback, priority)

    def schedule_at(
        self,
        tick: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Run ``callback`` at absolute ``tick`` (must not be in the past)."""
        if tick < self._tick:
            raise SchedulingError(
                f"cannot schedule at tick {tick}; current tick is {self._tick}"
            )
        return EventHandle(self, self._push(tick, priority, callback))

    @property
    def last_seq(self) -> int:
        """Insertion sequence number of the most recently scheduled
        entry (``-1`` before the first).

        Entries at the same ``(tick, priority)`` run in ``seq`` order, so
        a caller that remembers the seq of an entry it scheduled can
        tell whether anything was scheduled after it: work it appends to
        that entry then runs exactly where a separately scheduled entry
        would have.
        """
        return self._next_seq - 1

    def every(
        self,
        period: int,
        callback: Callable[[], object],
        start: int | None = None,
        priority: int = PRIORITY_DEFAULT,
    ) -> EventHandle:
        """Install a periodic process firing every ``period`` ticks.

        Args:
            period: Positive tick period.
            callback: Called each firing; returning ``False`` (exactly)
                stops the process.
            start: Absolute tick of the first firing (defaults to
                ``now + period``).
            priority: Within-tick ordering.

        Returns:
            Handle for the *next* pending firing; cancelling it stops
            the whole process.
        """
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        first = self._tick + period if start is None else start
        return _PeriodicHandle(self, callback, period, first, priority)

    # -- run loop ----------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending callback.

        Returns:
            ``True`` if a callback ran, ``False`` if the queue is empty.
        """
        while self._queue:
            entry = heapq.heappop(self._queue)[3]
            entry.popped = True
            if entry.cancelled:
                continue  # already uncounted by _cancel()
            self._live -= 1
            if entry.tick < self._tick:
                raise SimulationError("queue yielded an entry from the past")
            self._tick = entry.tick
            self._processed += 1
            entry.callback()
            return True
        return False

    def run(self, until: int | None = None) -> int:
        """Run until the queue drains, ``until`` is reached, or stopped.

        Args:
            until: Inclusive tick bound; callbacks scheduled later stay
                queued (resumable).

        Returns:
            The tick at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        try:
            while self._queue and not self._stopped:
                next_tick = self._queue[0][0]
                if until is not None and next_tick > until:
                    self._tick = until
                    break
                self.step()
            else:
                if until is not None and self._tick < until:
                    self._tick = until
        finally:
            self._running = False
            self._stopped = False
        return self._tick

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active callback."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was called in the current :meth:`run`.

        A callback that works through several units checks this between
        them, so a stop lands after the active unit, not the whole
        callback.
        """
        return self._stopped

    @property
    def pending(self) -> int:
        """Number of queued, not-cancelled entries.

        Maintained as a live counter on push/pop/cancel — O(1) instead
        of the previous O(n) sweep over the whole queue.
        """
        return self._live
