"""Usage parameter control: GCRA policing.

ATM traffic management (the paper: "the largest part of ATM traffic
management ... in dedicated hardware") polices each connection at the
UNI with the Generic Cell Rate Algorithm, ITU-T I.371, here in its
virtual scheduling formulation.  The equivalent continuous-state leaky
bucket is its test oracle (:class:`repro.reference.LeakyBucket`); a
property test checks the two accept and reject identically, which is
the textbook equivalence result.
"""

from __future__ import annotations

__all__ = ["VirtualScheduling"]


class VirtualScheduling(object):
    """GCRA(T, tau) — virtual scheduling formulation.

    Args:
        increment: T, the nominal inter-cell interval (1/PCR).
        limit: tau, the cell-delay-variation tolerance.
    """

    def __init__(self, increment: float, limit: float) -> None:
        if increment <= 0:
            raise ValueError(f"non-positive GCRA increment {increment}")
        if limit < 0:
            raise ValueError(f"negative GCRA limit {limit}")
        self.increment = increment
        self.limit = limit
        self._tat = 0.0  # theoretical arrival time
        self.conforming = 0
        self.non_conforming = 0

    def arrival(self, time: float) -> bool:
        """Process a cell arrival; returns True when conforming."""
        if time > self._tat:
            self._tat = time
        if self._tat - time > self.limit:
            self.non_conforming += 1
            return False
        self._tat += self.increment
        self.conforming += 1
        return True

    def reset(self) -> None:
        """Forget all state (new connection)."""
        self._tat = 0.0
        self.conforming = 0
        self.non_conforming = 0
