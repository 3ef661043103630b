"""RTL device-under-test designs built on the HDL kernel.

Registers, FIFOs, HEC circuits, octet-serial cell stream interfaces,
the switch port module, the global control unit and the accounting
unit with its record-bus monitor — the hardware side of the paper's
co-verification case studies.
"""

from .accounting_unit import (AccountingUnitRtl, RECORD_WORDS,
                              RecordBusMonitor)
from .cell_stream import (CELL_OCTETS, CellReceiver, CellSender,
                          CellStreamPort)
from .component import Component
from .control_unit import GlobalControlUnitRtl, LookupClient
from .fifo import SyncFifo
from .hec_circuit import HecChecker, HecGenerator, crc8_step
from .mp_bus import (AccountingMgmtSlave, CTRL_CLEAR, CTRL_REGISTER,
                     CTRL_TICK, MpBusMaster, MpBusSlavePort, REG_CELLS_HI,
                     REG_CELLS_LO, REG_CONN_COUNT, REG_CTRL, REG_FIXED,
                     REG_INTERVAL, REG_STATUS, REG_UPC, REG_UPC1, REG_VCI,
                     REG_VPI, STATUS_FAIL, STATUS_IDLE, STATUS_OK)
from .policer import PolicingDecision, UpcPolicerRtl
from .port_module import AtmPortModuleRtl
from .switch_fabric import AtmSwitchRtl
from .registers import Counter, Register

__all__ = [
    "AccountingUnitRtl", "RECORD_WORDS", "RecordBusMonitor",
    "CELL_OCTETS", "CellReceiver", "CellSender", "CellStreamPort",
    "Component",
    "GlobalControlUnitRtl", "LookupClient",
    "SyncFifo",
    "HecChecker", "HecGenerator", "crc8_step",
    "AccountingMgmtSlave", "CTRL_CLEAR", "CTRL_REGISTER", "CTRL_TICK",
    "MpBusMaster", "MpBusSlavePort", "REG_CELLS_HI", "REG_CELLS_LO",
    "REG_CONN_COUNT", "REG_CTRL", "REG_FIXED", "REG_INTERVAL",
    "REG_STATUS", "REG_UPC", "REG_UPC1", "REG_VCI", "REG_VPI",
    "STATUS_FAIL", "STATUS_IDLE", "STATUS_OK",
    "PolicingDecision", "UpcPolicerRtl",
    "AtmPortModuleRtl", "AtmSwitchRtl",
    "Counter", "Register",
]
