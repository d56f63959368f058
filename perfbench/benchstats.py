"""Aggregation rules shared by the benchmark and its steadiness mode.

Host time on a small shared machine is noisy: only long means and
medians over many samples repeat from run to run (see README.md). These
helpers enforce that: a percentile is refused unless at least
:data:`MIN_BEYOND` samples lie beyond it, and run-to-run spread is the
distance between the first and third quartile as a share of the median,
computed exactly as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` sorted samples lie beyond the nearest-rank
    ``pct``-th percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses unless :data:`MIN_BEYOND`
    samples lie beyond it (a p50 needs 20 samples, a p90 needs 100)."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    n = len(samples)
    if samples_beyond(n, pct) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples leaves "
            f"{max(0, samples_beyond(n, pct))} beyond it; "
            f"{MIN_BEYOND} are required")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median of run-level values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    if median:
        spread = (q3 - q1) / median
    else:
        spread = 0.0 if q3 == q1 else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}
