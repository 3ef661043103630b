"""ATM model suite.

Cells and HEC, VPI/VCI switching tables, GCRA policing, the charging
(accounting) reference algorithm and an abstract N-port switch model —
the OPNET "ATM model suite" equivalent the paper chose its network
simulator for.
"""

from .buffering import PbsQueueModule
from .accounting import (AccountingError, AccountingUnit, ChargingRecord,
                         Tariff)
from .cell import (AtmCell, CELL_BITS, CELL_OCTETS, CellFormatError,
                   HEADER_OCTETS, IDLE_VPI_VCI, PAYLOAD_OCTETS)
from .hec import HEC_COSET, HEC_POLY, check_hec, crc8, hec_octet
from .policing import VirtualScheduling
from .signaling import (CALL_TIMER, CallControlProcess, CallRequest,
                        HOLD_TIMER)
from .switch import (AtmSwitch, GlobalControlUnit, PortModule,
                     STM1_CELL_TIME, make_setup_packet,
                     make_teardown_packet)
from .switching import ConnectionTable, RoutingEntry, RoutingError

__all__ = [
    "PbsQueueModule",
    "CALL_TIMER", "CallControlProcess", "CallRequest", "HOLD_TIMER",
    "AccountingError", "AccountingUnit", "ChargingRecord", "Tariff",
    "AtmCell", "CELL_BITS", "CELL_OCTETS", "CellFormatError",
    "HEADER_OCTETS", "IDLE_VPI_VCI", "PAYLOAD_OCTETS",
    "HEC_COSET", "HEC_POLY", "check_hec", "crc8", "hec_octet",
    "VirtualScheduling",
    "AtmSwitch", "GlobalControlUnit", "PortModule", "STM1_CELL_TIME",
    "make_setup_packet", "make_teardown_packet",
    "ConnectionTable", "RoutingEntry", "RoutingError",
]
