"""Microprocessor register-bus interface.

The paper's board section calls out that "the hardware test board
allows to interface unidirectional hardware ports as well as
bidirectional ports, e.g. µP or bus interfaces" — real ATM devices are
configured by embedded control software through exactly such a bus.

This module provides the hardware side of that picture:

* :class:`MpBusSlavePort` — the signal bundle of a simple synchronous
  register bus (address, write data, read data, rd/wr strobes, ready);
* :class:`MpBusMaster` — a blocking bus-functional model for test
  benches (issue ``write``/``read`` transactions, the simulator is
  advanced until the slave responds);
* :class:`AccountingMgmtSlave` — maps the accounting unit's
  management plane (connection registration, tariff ticks, status and
  counters) onto bus registers, so the DUT is configured the way the
  real chip would be: by software, over its µP port.

Register map (all 16-bit):

====== ============ =====================================================
addr   name         function
====== ============ =====================================================
0x00   CTRL         write 1: register staged connection; write 2:
                    tariff tick; write 3: clear status
0x01   VPI          staging: connection VPI
0x02   VCI          staging: connection VCI
0x03   UPC          staging: charge units per CLP0 cell
0x04   UPC1         staging: charge units per CLP1 cell
0x05   FIXED        staging: fixed units per interval
0x10   STATUS       read: 1 = last op OK, 2 = last op failed, 0 = idle
0x11   CONN_COUNT   read: registered connections
0x12   CELLS_LO     read: cells_seen & 0xFFFF
0x13   CELLS_HI     read: cells_seen >> 16
0x14   INTERVAL     read: current tariff interval index
====== ============ =====================================================
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .accounting_unit import AccountingUnitRtl
from .component import Component

__all__ = ["MpBusSlavePort", "MpBusMaster", "AccountingMgmtSlave",
           "REG_CTRL", "REG_VPI", "REG_VCI", "REG_UPC", "REG_UPC1",
           "REG_FIXED", "REG_STATUS", "REG_CONN_COUNT", "REG_CELLS_LO",
           "REG_CELLS_HI", "REG_INTERVAL",
           "CTRL_REGISTER", "CTRL_TICK", "CTRL_CLEAR",
           "STATUS_IDLE", "STATUS_OK", "STATUS_FAIL"]

REG_CTRL = 0x00
REG_VPI = 0x01
REG_VCI = 0x02
REG_UPC = 0x03
REG_UPC1 = 0x04
REG_FIXED = 0x05
REG_STATUS = 0x10
REG_CONN_COUNT = 0x11
REG_CELLS_LO = 0x12
REG_CELLS_HI = 0x13
REG_INTERVAL = 0x14

CTRL_REGISTER = 1
CTRL_TICK = 2
CTRL_CLEAR = 3

STATUS_IDLE = 0
STATUS_OK = 1
STATUS_FAIL = 2


class MpBusSlavePort:
    """The signal bundle of the register bus (slave view)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self.addr = sim.signal(f"{name}.addr", width=8, init=0)
        self.wdata = sim.signal(f"{name}.wdata", width=16, init=0)
        self.rdata = sim.signal(f"{name}.rdata", width=16, init=0)
        self.rd = sim.signal(f"{name}.rd", init="0")
        self.wr = sim.signal(f"{name}.wr", init="0")
        self.ready = sim.signal(f"{name}.ready", init="0")


class MpBusMaster:
    """Blocking bus-functional model driving a slave port.

    Each transaction asserts the strobe with address (and data) for
    one clock and then advances the simulator until the slave raises
    ``ready`` (bounded by *timeout_clocks*).
    """

    def __init__(self, sim: Simulator, clk: Signal,
                 port: MpBusSlavePort, timeout_clocks: int = 64,
                 clock_period: int = 10) -> None:
        self.sim = sim
        self.clk = clk
        self.port = port
        self.timeout_clocks = timeout_clocks
        self.period = clock_period
        self.transactions = 0

    def write(self, addr: int, data: int) -> None:
        """One register write; blocks until the slave acknowledges."""
        self.port.addr.drive(addr)
        self.port.wdata.drive(data)
        self.port.wr.drive("1")
        self._await_ready()
        self.port.wr.drive("0")
        self.sim.run(until=self.sim.now + self.period)
        self.transactions += 1

    def read(self, addr: int) -> int:
        """One register read; returns the slave's data."""
        self.port.addr.drive(addr)
        self.port.rd.drive("1")
        self._await_ready()
        value = self.port.rdata.as_int()
        self.port.rd.drive("0")
        self.sim.run(until=self.sim.now + self.period)
        self.transactions += 1
        return value

    def _await_ready(self) -> None:
        for _ in range(self.timeout_clocks):
            self.sim.run(until=self.sim.now + self.period)
            if self.port.ready.value == "1":
                return
        raise TimeoutError(
            f"bus slave {self.port.name} did not raise ready within "
            f"{self.timeout_clocks} clocks")


class AccountingMgmtSlave(Component):
    """Register-bus management interface of the accounting unit.

    Wraps an :class:`~repro.rtl.accounting_unit.AccountingUnitRtl`:
    bus writes stage and commit connection registrations and trigger
    tariff ticks; bus reads expose status and counters.  ``ready``
    pulses one clock after each accepted strobe.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 unit: AccountingUnitRtl,
                 port: Optional[MpBusSlavePort] = None) -> None:
        super().__init__(sim, name)
        self.unit = unit
        self.port = port if port is not None \
            else MpBusSlavePort(sim, f"{name}.bus")
        self._staging: Dict[int, int] = {
            REG_VPI: 0, REG_VCI: 0, REG_UPC: 1, REG_UPC1: 0,
            REG_FIXED: 0}
        self._status = STATUS_IDLE
        self._strobe_seen = False
        #: set by a CTRL_TICK write; the clocked process turns it into
        #: the actual tariff_tick pulse, so :meth:`_write` stays free
        #: of signal side effects
        self._tick_request = False
        self._tick_pending = False
        self.writes = 0
        self.reads = 0
        self.clocked(clk, self._compile_seq)

    def _compile_seq(self, ctx):
        """The clocked process: end the tariff pulse started last
        edge, then execute a new bus strobe once (a held strobe only
        drops ``ready``).  Register semantics live in the pure
        :meth:`_write` / :meth:`_read`."""
        port = self.port
        wr_slot = ctx.read(port.wr)
        rd_slot = ctx.read(port.rd)
        addr_slot = ctx.read(port.addr)
        wdata_slot = ctx.read(port.wdata)
        w_ready = ctx.write(port.ready)
        w_rdata = ctx.write(port.rdata)
        w_tick = ctx.write(self.unit.tariff_tick)

        def evaluate():
            if self._tick_pending:
                w_tick("0")
                self._tick_pending = False
            wr = wr_slot.value == "1"
            rd = rd_slot.value == "1"
            if not (wr or rd):
                w_ready("0")
                self._strobe_seen = False
                return
            if self._strobe_seen:
                w_ready("0")
                return
            self._strobe_seen = True
            addr = slot_int(addr_slot.value)
            if wr:
                self._write(addr, slot_int(wdata_slot.value))
                if self._tick_request:
                    self._tick_request = False
                    w_tick("1")
                    self._tick_pending = True
            else:
                w_rdata(self._read(addr))
            w_ready("1")

        return evaluate

    # ------------------------------------------------------------------
    # Register semantics
    # ------------------------------------------------------------------
    def _write(self, addr: int, data: int) -> None:
        self.writes += 1
        if addr in self._staging:
            self._staging[addr] = data
            return
        if addr != REG_CTRL:
            self._status = STATUS_FAIL
            return
        if data == CTRL_REGISTER:
            try:
                self.unit.register(
                    self._staging[REG_VPI], self._staging[REG_VCI],
                    units_per_cell=self._staging[REG_UPC],
                    units_per_cell_clp1=self._staging[REG_UPC1],
                    fixed_units=self._staging[REG_FIXED])
                self._status = STATUS_OK
            except ValueError:
                self._status = STATUS_FAIL
        elif data == CTRL_TICK:
            self._tick_request = True
            self._status = STATUS_OK
        elif data == CTRL_CLEAR:
            self._status = STATUS_IDLE
        else:
            self._status = STATUS_FAIL

    def _read(self, addr: int) -> int:
        self.reads += 1
        if addr in self._staging:
            return self._staging[addr]
        if addr == REG_STATUS:
            return self._status
        if addr == REG_CONN_COUNT:
            return self.unit.connection_count & 0xFFFF
        if addr == REG_CELLS_LO:
            return self.unit.cells_seen & 0xFFFF
        if addr == REG_CELLS_HI:
            return (self.unit.cells_seen >> 16) & 0xFFFF
        if addr == REG_INTERVAL:
            return self.unit.interval & 0xFFFF
        return 0xDEAD
