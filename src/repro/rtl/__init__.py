"""RTL device-under-test designs built on the HDL kernel.

Registers, HEC circuits, octet-serial cell stream interfaces,
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
from .hec_circuit import HecChecker, HecGenerator, crc8_step
from .policer import PolicingDecision, UpcPolicerRtl
from .port_module import AtmPortModuleRtl
from .switch_fabric import AtmSwitchRtl
from .registers import Counter, Register

__all__ = [
    "AccountingUnitRtl", "RECORD_WORDS", "RecordBusMonitor",
    "CELL_OCTETS", "CellReceiver", "CellSender", "CellStreamPort",
    "Component",
    "GlobalControlUnitRtl", "LookupClient",
    "HecChecker", "HecGenerator", "crc8_step",
    "PolicingDecision", "UpcPolicerRtl",
    "AtmPortModuleRtl", "AtmSwitchRtl",
    "Counter", "Register",
]
