"""In-memory spans around a program's public calls, and their ledger.

A :class:`SpanRecorder` keeps one record per call of a wrapped function:
which wrap point it was, its start and end on ``perf_counter``, and the
span that was open when it started (its parent).  Calls nest strictly —
the pipeline is single-threaded — so the time a span's children cover is
the sum of their durations, and a span's *self time* is its duration
minus that sum.  :meth:`SpanRecorder.ledger` folds the records into
per-layer self time and call counts; the spans themselves stay in memory
until :meth:`SpanRecorder.write` puts them in a file at the end.

:func:`instrument` installs the wrappers by replacing attributes on the
program's classes and modules, and puts the originals back on exit.
Nothing in the program is edited: the wrap points are named from the
outside.  The interpreter's cyclic garbage collector gets spans of its
own (layer :data:`GC_LAYER`, through :data:`gc.callbacks`): a collection
runs inside whatever call allocated last, and would otherwise land in
that call's layer.
"""

from __future__ import annotations

import gc
import gzip
import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Sequence

GC_LAYER = "gc"


@dataclass(frozen=True)
class WrapPoint:
    """One public call of the program, attributed to a layer.

    ``owner`` is a class name inside ``module``, or ``None`` for a
    module-level function (wrapped where it is looked up, so a function
    imported by name into two modules is two wrap points).
    """

    layer: str
    module: str
    owner: str | None
    attr: str

    @property
    def label(self) -> str:
        qualified = f"{self.owner}.{self.attr}" if self.owner else self.attr
        return f"{self.module}:{qualified}"


@dataclass
class LayerCost:
    self_s: float = 0.0
    calls: int = 0


@dataclass
class Ledger:
    """Per-layer self time of one traced window.

    ``covered_s`` is the summed duration of the root spans (those with
    no parent).  Because every child's time is subtracted from exactly
    one parent, the layers' self times add up to ``covered_s``; the
    window's remaining wall time is ``other_s``.
    """

    layers: dict[str, LayerCost]
    inclusive_s: dict[str, float]
    covered_s: float
    wall_s: float

    @property
    def other_s(self) -> float:
        return self.wall_s - self.covered_s

    def check(self, tolerance: float = 1e-6) -> None:
        """Raise unless the accounting is conservative.

        Self times are non-negative, the root spans fit inside the wall
        window, and layers plus ``other`` reproduce the wall time.
        """
        slack = tolerance * max(self.wall_s, 1e-9)
        for name, cost in self.layers.items():
            if cost.self_s < -slack:
                raise AssertionError(
                    f"layer {name} has negative self time {cost.self_s}"
                )
        if self.other_s < -slack:
            raise AssertionError(
                f"spans cover {self.covered_s}s of a {self.wall_s}s window"
            )
        total = sum(cost.self_s for cost in self.layers.values())
        if abs(total + self.other_s - self.wall_s) > slack:
            raise AssertionError(
                f"layers ({total}s) plus other ({self.other_s}s) do not "
                f"sum to the traced wall time ({self.wall_s}s)"
            )


class SpanRecorder:
    """Collects spans for a fixed list of wrap points.

    Args:
        points: The wrap points; a span's kind is its index here, and
            kind ``len(points)`` is a garbage collection.
        clock: Time source in seconds (tests substitute a fake).
    """

    def __init__(self, points: Sequence[WrapPoint],
                 clock: Callable[[], float] = perf_counter):
        self.points = tuple(points)
        self.clock = clock
        self.clear()

    def clear(self) -> None:
        self._kind = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self._start)

    def enter(self, kind: int) -> int:
        index = len(self._start)
        stack = self._stack
        self._kind.append(kind)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(index)
        self._start.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        self._end[index] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, kind: int) -> Callable:
        """``fn`` with a span of ``kind`` around every call."""
        enter = self.enter
        exit_ = self.exit

        @wraps(fn)
        def spanned(*args, **kwargs):
            index = enter(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return spanned

    def ledger(self, wall_s: float) -> Ledger:
        """Fold the recorded spans of a ``wall_s``-long window."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        count = len(self._start)
        durations = [self._end[i] - self._start[i] for i in range(count)]
        covered_by_children = [0.0] * count
        covered_s = 0.0
        for index in range(count):
            parent = self._parent[index]
            if parent < 0:
                covered_s += durations[index]
            else:
                covered_by_children[parent] += durations[index]
        layers = {layer: LayerCost() for layer in self.layers}
        inclusive = {label: 0.0 for label in self.labels}
        for index in range(count):
            kind = self._kind[index]
            cost = layers[self.layers[kind]]
            cost.self_s += durations[index] - covered_by_children[index]
            cost.calls += 1
            inclusive[self.labels[kind]] += durations[index]
        return Ledger(layers, inclusive, covered_s, wall_s)

    @property
    def layers(self) -> tuple[str, ...]:
        """Layer of each kind (the last kind is garbage collection)."""
        return (*(point.layer for point in self.points), GC_LAYER)

    @property
    def labels(self) -> tuple[str, ...]:
        return (*(point.label for point in self.points), "gc:collect")

    def write(self, path: Path) -> None:
        """Write every span as a gzipped CSV row (times relative to the
        first span's start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self._start[0] if len(self._start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,layer,call,start_s,end_s,parent\n")
            layers = self.layers
            labels = self.labels
            for index in range(len(self._start)):
                kind = self._kind[index]
                out.write(
                    f"{index},{layers[kind]},{labels[kind]},"
                    f"{self._start[index] - origin:.9f},"
                    f"{self._end[index] - origin:.9f},"
                    f"{self._parent[index]}\n"
                )


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every wrap point of ``recorder`` for the ``with`` block.

    Install before building the objects to be traced: callbacks bound
    while building (network receive handlers, bus subscriptions) keep
    whatever function the class held at that moment.
    """
    undo: list[tuple[object, str, object]] = []
    collecting: list[int] = []
    gc_kind = len(recorder.points)

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collecting.append(recorder.enter(gc_kind))
        elif collecting:
            recorder.exit(collecting.pop())

    try:
        gc.callbacks.append(on_gc)
        for kind, point in enumerate(recorder.points):
            target = importlib.import_module(point.module)
            if point.owner is not None:
                target = getattr(target, point.owner)
                original = target.__dict__[point.attr]
            else:
                original = getattr(target, point.attr)
            if not callable(original):
                raise TypeError(f"{point.label} is not a plain function")
            undo.append((target, point.attr, original))
            setattr(target, point.attr, recorder.wrap(original, kind))
        yield recorder
    finally:
        gc.callbacks.remove(on_gc)
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
