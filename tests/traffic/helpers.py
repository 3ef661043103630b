"""Shared helpers for the traffic-model tests."""

from typing import List

from repro.traffic import ArrivalProcess


def sample_arrivals(process: ArrivalProcess, n: int) -> List[float]:
    """Sample *n* absolute arrival times, starting from zero, from a
    process; the process is reset first so repeated calls agree."""
    process.reset()
    times: List[float] = []
    t = 0.0
    for _ in range(n):
        t += process.next_interarrival()
        times.append(t)
    return times
