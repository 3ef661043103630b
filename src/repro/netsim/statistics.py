"""Statistic collection for network simulations.

OPNET-style analysis support: probes record (time, value) samples and
offer the summary statistics the paper's "powerful analysis
capabilities" bullet refers to — means, extremes, deviations and time
averages.  Probes are cheap enough to leave enabled in co-simulation
runs.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["Probe", "summary"]


class Probe:
    """Records a time series of scalar samples.

    Example:
        >>> p = Probe("queue_len")
        >>> p.record(0.0, 1)
        >>> p.record(2.0, 3)
        >>> p.mean()
        2.0
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"probe {self.name!r}: sample time {time} precedes "
                f"{self.times[-1]}")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        """Arithmetic mean of the samples (nan when empty)."""
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def maximum(self) -> float:
        """Largest sample (nan when empty)."""
        return max(self.values) if self.values else math.nan

    def minimum(self) -> float:
        """Smallest sample (nan when empty)."""
        return min(self.values) if self.values else math.nan

    def std(self) -> float:
        """Population standard deviation (nan for <1 sample)."""
        n = len(self.values)
        if n < 1:
            return math.nan
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / n)

    def time_average(self) -> float:
        """Time-weighted average, treating samples as a step function
        held until the next sample (nan for <2 samples)."""
        if len(self.values) < 2:
            return math.nan
        area = 0.0
        for i in range(len(self.values) - 1):
            area += self.values[i] * (self.times[i + 1] - self.times[i])
        span = self.times[-1] - self.times[0]
        return area / span if span > 0 else math.nan


def summary(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """Return (mean, std, min, max) for *values* (nans when empty)."""
    probe = Probe("_summary")
    for i, v in enumerate(values):
        probe.record(float(i), v)
    return probe.mean(), probe.std(), probe.minimum(), probe.maximum()
