"""Percentiles that carry the sample count they were taken over."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Percentile:
    """The ``q``-th percentile of ``samples`` values.

    ``beyond`` is how many samples lie above the percentile's rank: a
    timing percentile is only worth reporting with at least ten.
    """

    q: float
    value: float
    samples: int

    @property
    def beyond(self) -> int:
        return math.floor(self.samples * (100.0 - self.q) / 100.0)

    def describe(self) -> str:
        return f"p{self.q:g} over n={self.samples} ({self.beyond} beyond)"


def percentile(values: Iterable[float], q: float) -> Percentile:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    frac = rank - low
    value = data[low] * (1.0 - frac) + data[high] * frac
    return Percentile(q, value, len(data))


def median(values: Iterable[float]) -> float:
    return percentile(values, 50).value
