"""Failure type and order statistics shared by the workloads."""

from __future__ import annotations

import math
from typing import Sequence


class BenchFailure(Exception):
    """A check failed; the run reports failure instead of numbers."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
