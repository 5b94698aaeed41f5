"""Per-role window indexes for plan-driven candidate pruning.

The brute-force detection path enumerates the full Cartesian product of
every role window.  The planner (:mod:`repro.detect.planner`) instead
asks a :class:`RoleIndex` — a uniform spatial hash grid plus per-entry
temporal metadata mirroring one role's
:class:`~repro.detect.windows.TickWindow` — for the *candidate subset*
that can possibly satisfy the specification's prunable clauses:

* :meth:`RoleIndex.near` — entries whose point location lies within a
  radius of a query point (grid range query, exact distance filter);
* :meth:`RoleIndex.covered_by` — entries whose point location lies
  inside a query field (grid range query over the field's bounding box,
  exact containment filter);
* temporal tick bounds per entry (:attr:`_Entry.lo` / :attr:`_Entry.hi`)
  for window-slice filtering by the planner's ordering constraints.

Soundness contract: every query returns a **superset guard** — an entry
is excluded only when the corresponding condition clause provably cannot
hold for it.  Entries whose occurrence location is not a
:class:`~repro.core.space_model.PointLocation` (field events) are kept
in an *unlocated* overflow set that every spatial query includes, so
pruning never drops a candidate the exact condition evaluation might
accept.

The index mirrors its window exactly: the engine mirrors every
``window.add`` with :meth:`RoleIndex.add` and registers
:meth:`RoleIndex.evict` as the window's eviction listener.  Both
structures evict strictly FIFO, so a plain pop-count keeps them in
lockstep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from repro.core.entity import Entity
from repro.core.space_model import EPS, Field, PointLocation
from repro.core.time_model import TimeInterval, TimePoint

__all__ = ["RoleIndex", "DEFAULT_CELL_SIZE", "tick_bounds"]

DEFAULT_CELL_SIZE = 16.0
"""Default hash-grid cell edge length (world units)."""


@dataclass(frozen=True)
class _Entry:
    """One window slot mirrored into the index."""

    seq: int
    entity: Entity
    point: PointLocation | None
    lo: int | None  # earliest possible occurrence tick (None = unknown)
    hi: int | None  # latest possible occurrence tick (None = unbounded)
    key: int = 0  # id(entity): the batch-stable predicate-memo key


def tick_bounds(entity: Entity) -> tuple[int | None, int | None]:
    """Conservative [lo, hi] occurrence-tick bounds for an entity.

    A :class:`~repro.core.time_model.TimePoint` is its own bound; an
    open interval has ``hi=None`` (unbounded); an exotic temporal
    entity yields ``(None, None)`` — the planner treats fully-unknown
    bounds as unprunable.  Shared by the index (entry metadata) and the
    planner (pinned-entity predicates) so admission logic can never
    desynchronize from the stored metadata.
    """
    when = entity.occurrence_time
    if isinstance(when, TimePoint):
        return when.tick, when.tick
    if isinstance(when, TimeInterval):
        hi = None if when.end is None else when.end.tick
        return when.start.tick, hi
    return None, None


class RoleIndex:
    """Uniform hash-grid + temporal metadata over one role's window.

    Args:
        cell_size: Edge length of the square grid cells.  Any positive
            value is correct; values near the typical query radius keep
            the number of touched cells small.
    """

    def __init__(self, cell_size: float = DEFAULT_CELL_SIZE):
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self._seq = itertools.count()
        self._order: list[int] = []  # FIFO of live seqs (compacted lazily)
        self._head = 0               # index of the first live seq in _order
        self._entries: dict[int, _Entry] = {}
        self._grid: dict[tuple[int, int], set[int]] = {}
        self._unlocated: set[int] = set()

    # -- maintenance ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def _cell_of(self, point: PointLocation) -> tuple[int, int]:
        return (
            math.floor(point.x / self.cell_size),
            math.floor(point.y / self.cell_size),
        )

    def add(self, entity: Entity) -> int:
        """Mirror a window append; returns the entry's sequence number."""
        location = entity.occurrence_location
        point = location if isinstance(location, PointLocation) else None
        lo, hi = tick_bounds(entity)
        seq = next(self._seq)
        entry = _Entry(seq, entity, point, lo, hi, id(entity))
        self._entries[seq] = entry
        self._order.append(seq)
        if point is None:
            self._unlocated.add(seq)
        else:
            self._grid.setdefault(self._cell_of(point), set()).add(seq)
        return seq

    def evict(self, count: int) -> None:
        """Mirror a FIFO window eviction of ``count`` items."""
        for _ in range(count):
            if self._head >= len(self._order):
                break
            seq = self._order[self._head]
            self._head += 1
            entry = self._entries.pop(seq)
            if entry.point is None:
                self._unlocated.discard(seq)
            else:
                cell = self._cell_of(entry.point)
                bucket = self._grid.get(cell)
                if bucket is not None:
                    bucket.discard(seq)
                    if not bucket:
                        del self._grid[cell]
        if self._head > 64 and self._head * 2 > len(self._order):
            del self._order[: self._head]
            self._head = 0

    def clear(self) -> None:
        """Drop everything (window cleared)."""
        self._order.clear()
        self._head = 0
        self._entries.clear()
        self._grid.clear()
        self._unlocated.clear()

    # -- queries -------------------------------------------------------

    def entries(self) -> Iterator[_Entry]:
        """Live entries in window (arrival) order."""
        order = self._order
        entries = self._entries
        for i in range(self._head, len(order)):
            yield entries[order[i]]

    def entry(self, seq: int) -> _Entry:
        """The live entry with the given sequence number."""
        return self._entries[seq]

    def _buckets_in(
        self, min_x: float, max_x: float, min_y: float, max_y: float
    ) -> Iterator[set[int]]:
        """Non-empty grid buckets whose cell overlaps the query box."""
        cell = self.cell_size
        cx_lo = math.floor(min_x / cell)
        cx_hi = math.floor(max_x / cell)
        cy_lo = math.floor(min_y / cell)
        cy_hi = math.floor(max_y / cell)
        span = (cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1)
        if span >= len(self._grid):
            # Query box covers most of the grid: walk buckets instead.
            for (cx, cy), bucket in self._grid.items():
                if cx_lo <= cx <= cx_hi and cy_lo <= cy <= cy_hi:
                    yield bucket
        else:
            for cx in range(cx_lo, cx_hi + 1):
                for cy in range(cy_lo, cy_hi + 1):
                    bucket = self._grid.get((cx, cy))
                    if bucket:
                        yield bucket

    def near(
        self,
        point: PointLocation,
        radius: float,
        *,
        cache: object | None = None,
        anchor_key: object | None = None,
    ) -> set[int]:
        """Seqs whose location can lie within ``radius`` of ``point``.

        Includes every unlocated (field-located) entry — the exact
        condition, not the index, judges those.

        When ``cache`` (a :class:`~repro.detect.compiler.PredicateCache`)
        and ``anchor_key`` (the memo key of whatever ``point`` belongs
        to) are given, the distance of every *accepted* candidate is
        stored in the memo, so the compiled condition evaluator reuses
        the distances this pruning query already measured.  Rejected
        candidates are never evaluated (that is the point of pruning),
        so their distances are deliberately not memoized.
        """
        found = set(self._unlocated)
        entries = self._entries
        # An entry exactly ``radius`` away can sit in the next cell over
        # by float rounding; pad the sweep by EPS as covered_by does (the
        # exact distance test below still decides).
        reach = radius + EPS
        buckets = self._buckets_in(
            point.x - reach, point.x + reach, point.y - reach, point.y + reach
        )
        if cache is None or anchor_key is None:
            for bucket in buckets:
                for seq in bucket:
                    if entries[seq].point.distance_to(point) <= radius:
                        found.add(seq)
        else:
            for bucket in buckets:
                for seq in bucket:
                    entry = entries[seq]
                    distance = entry.point.distance_to(point)
                    if distance <= radius:
                        cache.store_distance(
                            anchor_key, entry.key, distance
                        )
                        found.add(seq)
        return found

    def covered_by(self, region: Field) -> set[int]:
        """Seqs whose location can lie inside ``region`` (plus unlocated)."""
        found = set(self._unlocated)
        bbox = region.bounding_box()
        entries = self._entries
        # Every Field.contains_point forgives up to EPS beyond its exact
        # boundary; sweep EPS-padded buckets so a boundary-tolerant hit
        # sitting in the next cell over is never skipped (superset
        # guard — the exact containment test below still decides).
        for bucket in self._buckets_in(
            bbox.min_x - EPS, bbox.max_x + EPS, bbox.min_y - EPS, bbox.max_y + EPS
        ):
            for seq in bucket:
                if region.contains_point(entries[seq].point):
                    found.add(seq)
        return found
