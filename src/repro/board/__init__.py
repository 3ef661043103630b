"""Hardware test board model (the RAVEN substitute).

128-pin / 16-byte-lane bit-stream interface, Figure-5 pin-mapping
configuration data sets, stimulus/response memories, SW/HW activity
test cycles and a SCSI transport model, plus pin-level DUT adapters
that mount RTL designs behind the board's pins.
"""

from .board import (BoardError, HardwareTestBoard, MAX_BOARD_CLOCK_HZ,
                    MAX_CYCLE_CLOCKS, MIN_CYCLE_CLOCKS, TestCycleResult,
                    TestCycleStats)
from .device import LoopbackDevice, PinLevelDevice, RtlPinDevice
from .pinmap import (ConfigurationDataSet, CtrlPortMapping, IoPortMapping,
                     LANE_WIDTH, NUM_BYTE_LANES, NUM_PINS, PinMapError,
                     PinSegment, PortMapping)
from .scsi import ScsiBus, ScsiTransfer

__all__ = [
    "BoardError", "HardwareTestBoard", "MAX_BOARD_CLOCK_HZ",
    "MAX_CYCLE_CLOCKS", "MIN_CYCLE_CLOCKS", "TestCycleResult",
    "TestCycleStats",
    "LoopbackDevice", "PinLevelDevice", "RtlPinDevice",
    "ConfigurationDataSet", "CtrlPortMapping", "IoPortMapping",
    "LANE_WIDTH", "NUM_BYTE_LANES", "NUM_PINS", "PinMapError",
    "PinSegment", "PortMapping",
    "ScsiBus", "ScsiTransfer",
]
