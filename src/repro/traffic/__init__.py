"""Traffic model library.

Stochastic sources (CBR, Poisson, on-off, MMPP, Pareto on-off),
synthetic MPEG traces and trace files — the stimuli CASTANET reuses
from the network simulation environment as RTL and hardware test
vectors.
"""

from .base import ArrivalProcess, TrafficSource
from .models import (ConstantBitRate, MarkovModulatedPoisson, OnOffSource,
                     ParetoOnOffSource, PoissonArrivals)
from .mpeg import GOP_PATTERN, MpegCellArrivals, MpegTraceSynthesizer
from .trace import Trace, TraceError

__all__ = [
    "ArrivalProcess", "TrafficSource",
    "ConstantBitRate", "MarkovModulatedPoisson", "OnOffSource",
    "ParetoOnOffSource", "PoissonArrivals",
    "GOP_PATTERN", "MpegCellArrivals", "MpegTraceSynthesizer",
    "Trace", "TraceError",
]
