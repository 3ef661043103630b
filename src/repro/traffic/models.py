"""Stochastic traffic models.

The classic source models used for ATM performance evaluation (Ferranto
[11] in the paper): constant bit rate, Poisson, interrupted (on-off)
processes and Markov-modulated Poisson processes, plus an on-off source
with heavy-tailed (Pareto) sojourns, the building block of self-similar
traffic models.  All models are seeded and reproducible.
"""

from __future__ import annotations

import random

from .base import ArrivalProcess

__all__ = ["ConstantBitRate", "PoissonArrivals", "OnOffSource",
           "MarkovModulatedPoisson", "ParetoOnOffSource"]


class ConstantBitRate(ArrivalProcess):
    """Deterministic arrivals: one unit every ``period`` seconds.

    For an ATM CBR connection the period is the reciprocal of the cell
    rate; e.g. a 25 % loaded STM-1 port emits a cell every
    4 × 2.726 µs.
    """

    def __init__(self, period: float, jitter: float = 0.0,
                 seed: int = 0) -> None:
        if period <= 0:
            raise ValueError(f"non-positive CBR period {period}")
        if jitter < 0 or jitter >= period:
            if jitter != 0.0:
                raise ValueError(f"jitter {jitter} must lie in [0, period)")
        self.period = period
        self.jitter = jitter
        self._seed = seed
        self._rng = random.Random(seed)

    def next_interarrival(self) -> float:
        if self.jitter == 0.0:
            return self.period
        return self.period + self._rng.uniform(-self.jitter, self.jitter)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at mean rate ``rate`` (arrivals/second)."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError(f"non-positive Poisson rate {rate}")
        self.rate = rate
        self._seed = seed
        self._rng = random.Random(seed)

    def next_interarrival(self) -> float:
        return self._rng.expovariate(self.rate)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class OnOffSource(ArrivalProcess):
    """Interrupted source: exponential ON/OFF sojourns, CBR while ON.

    The standard bursty-voice / data model for ATM traffic studies.

    Args:
        peak_period: inter-cell spacing while the source is ON.
        mean_on: mean ON-state duration (exponential).
        mean_off: mean OFF-state duration (exponential).
        seed: RNG seed.
    """

    def __init__(self, peak_period: float, mean_on: float, mean_off: float,
                 seed: int = 0) -> None:
        for label, value in (("peak_period", peak_period),
                             ("mean_on", mean_on), ("mean_off", mean_off)):
            if value <= 0:
                raise ValueError(f"non-positive {label} {value}")
        self.peak_period = peak_period
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._on_remaining = self._rng.expovariate(1.0 / self.mean_on)

    def next_interarrival(self) -> float:
        gap = 0.0
        # Consume whole OFF periods that elapse before the next cell.
        while self._on_remaining < self.peak_period:
            gap += self._on_remaining
            gap += self._rng.expovariate(1.0 / self.mean_off)
            self._on_remaining = self._rng.expovariate(1.0 / self.mean_on)
        self._on_remaining -= self.peak_period
        return gap + self.peak_period


class MarkovModulatedPoisson(ArrivalProcess):
    """Two-state MMPP: Poisson arrivals whose rate switches between
    ``rate_a`` and ``rate_b`` with exponential sojourn times.

    A workhorse model for aggregated VBR traffic.

    Args:
        rate_a: arrival rate in state A.
        rate_b: arrival rate in state B.
        mean_sojourn_a: mean dwell time in state A.
        mean_sojourn_b: mean dwell time in state B.
        seed: RNG seed.
    """

    def __init__(self, rate_a: float, rate_b: float,
                 mean_sojourn_a: float, mean_sojourn_b: float,
                 seed: int = 0) -> None:
        for label, value in (("rate_a", rate_a), ("rate_b", rate_b),
                             ("mean_sojourn_a", mean_sojourn_a),
                             ("mean_sojourn_b", mean_sojourn_b)):
            if value <= 0:
                raise ValueError(f"non-positive {label} {value}")
        self.rates = (rate_a, rate_b)
        self.sojourns = (mean_sojourn_a, mean_sojourn_b)
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._state = 0
        self._state_remaining = self._rng.expovariate(
            1.0 / self.sojourns[0])

    def next_interarrival(self) -> float:
        gap = 0.0
        while True:
            candidate = self._rng.expovariate(self.rates[self._state])
            if candidate <= self._state_remaining:
                self._state_remaining -= candidate
                return gap + candidate
            # State switches before the candidate arrival; discard it
            # (memorylessness makes this exact) and advance the state.
            gap += self._state_remaining
            self._state = 1 - self._state
            self._state_remaining = self._rng.expovariate(
                1.0 / self.sojourns[self._state])


class ParetoOnOffSource(ArrivalProcess):
    """An on-off source with Pareto-distributed sojourn times.

    Args:
        peak_period: inter-cell spacing while ON.
        mean_on: mean ON duration (sets the Pareto scale).
        mean_off: mean OFF duration.
        alpha: Pareto shape, 1 < α < 2 (heavy-tailed, finite mean,
            infinite variance — the self-similarity generator).
        seed: RNG seed.
    """

    def __init__(self, peak_period: float, mean_on: float,
                 mean_off: float, alpha: float = 1.5,
                 seed: int = 0) -> None:
        for label, value in (("peak_period", peak_period),
                             ("mean_on", mean_on),
                             ("mean_off", mean_off)):
            if value <= 0:
                raise ValueError(f"non-positive {label} {value}")
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"shape {alpha} outside (1, 2)")
        self.peak_period = peak_period
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.alpha = alpha
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._on_remaining = self._pareto(self.mean_on)

    def _pareto(self, mean: float) -> float:
        """A Pareto sample with the requested mean: scale
        x_m = mean * (α - 1) / α."""
        scale = mean * (self.alpha - 1.0) / self.alpha
        u = self._rng.random()
        while u <= 0.0:
            u = self._rng.random()
        return scale / (u ** (1.0 / self.alpha))

    def next_interarrival(self) -> float:
        gap = 0.0
        while self._on_remaining < self.peak_period:
            gap += self._on_remaining
            gap += self._pareto(self.mean_off)
            self._on_remaining = self._pareto(self.mean_on)
        self._on_remaining -= self.peak_period
        return gap + self.peak_period
