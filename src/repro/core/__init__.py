"""CASTANET — the co-verification core.

Time-stamped message queues, the conservative timing-window
synchronisation protocol, the abstraction interface (cell ↔ bit-level
conversion), the co-simulation entity, the board interface model,
reference-vs-DUT stream comparison and the top-level
:class:`CoVerificationEnvironment` façade.
"""

from .board_interface import (BoardInterfaceModel, IN_ATMDATA, IN_CELLSYNC,
                              IN_TICK, IN_VALID, OUT_REC_VALID,
                              OUT_REC_WORD, cell_stream_pin_config)
from .comparison import Mismatch, StreamComparator, VerificationReport
from .contract import DUT_LEVELS, DutContract, resolve_level
from .cosim import (CELL_MSG, CosimulationEntity,
                    ResidualBacklogWarning, TICK_MSG)
from .environment import CoVerificationEnvironment, TapModule
from .mapping import CellMapper
from .messages import (CausalityError, MessageQueue, MessageQueueSet,
                       TimestampedMessage)
from .sync import (ConservativeSynchronizer, LockstepSynchronizer,
                   SyncStatistics)
from .timebase import CELL_BITS, CELL_OCTETS, STM1_LINE_RATE, TimeBase
from .vectors import (ConformanceReport, ConformanceVector,
                      VectorBuilder, run_cell_conformance,
                      standard_conformance_suite)

__all__ = [
    "BoardInterfaceModel", "IN_ATMDATA", "IN_CELLSYNC", "IN_TICK",
    "IN_VALID", "OUT_REC_VALID", "OUT_REC_WORD",
    "cell_stream_pin_config",
    "Mismatch", "StreamComparator", "VerificationReport",
    "DUT_LEVELS", "DutContract", "resolve_level",
    "CELL_MSG", "CosimulationEntity", "ResidualBacklogWarning",
    "TICK_MSG",
    "CoVerificationEnvironment", "TapModule",
    "CellMapper",
    "CausalityError", "MessageQueue", "MessageQueueSet",
    "TimestampedMessage",
    "ConservativeSynchronizer", "LockstepSynchronizer", "SyncStatistics",
    "CELL_BITS", "CELL_OCTETS", "STM1_LINE_RATE", "TimeBase",
    "ConformanceReport", "ConformanceVector", "VectorBuilder",
    "run_cell_conformance", "standard_conformance_suite",
]
