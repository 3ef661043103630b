"""RTL HEC generator and checker.

Byte-serial CRC-8 circuits over the ATM header, matching the reference
implementation in :mod:`repro.atm.hec` bit for bit (a co-verification
test in ``tests/rtl`` checks them against each other, which is exactly
the paper's reference-model-vs-DUT methodology at unit scale).
"""

from __future__ import annotations

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .component import Component

__all__ = ["HecGenerator", "HecChecker", "crc8_step"]

_POLY = 0x07
_COSET = 0x55


def crc8_step(crc: int, byte: int) -> int:
    """One byte-serial CRC-8 update step (the combinational core)."""
    crc ^= byte
    for _ in range(8):
        if crc & 0x80:
            crc = ((crc << 1) ^ _POLY) & 0xFF
        else:
            crc = (crc << 1) & 0xFF
    return crc


class HecGenerator(Component):
    """Computes the HEC octet for the 4 header octets of a cell.

    Ports:
        d[7:0], d_valid — header octet stream.
        sof — assert together with the first header octet.
        hec[7:0], hec_valid — result, pulsed one clock after the
            fourth octet was accepted.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal) -> None:
        super().__init__(sim, name)
        self.d = self.signal("d", width=8, init=0)
        self.d_valid = self.signal("d_valid", init="0")
        self.sof = self.signal("sof", init="0")
        self.hec = self.signal("hec", width=8, init=0)
        self.hec_valid = self.signal("hec_valid", init="0")
        self._crc = 0
        self._count = 0
        self.clocked(clk, self._compile_seq)

    def _compile_seq(self, ctx):
        """The clocked process: CRC over the first four valid octets
        after sof, then the HEC with a one-clock valid pulse."""
        d = ctx.read(self.d)
        d_valid = ctx.read(self.d_valid)
        sof = ctx.read(self.sof)
        w_hec = ctx.write(self.hec)
        w_hec_valid = ctx.write(self.hec_valid)

        def evaluate():
            w_hec_valid("0")
            if d_valid.value != "1":
                return
            if sof.value == "1":
                self._crc = 0
                self._count = 0
            if self._count >= 4:
                return
            self._crc = crc8_step(self._crc, slot_int(d.value))
            self._count += 1
            if self._count == 4:
                w_hec(self._crc ^ _COSET)
                w_hec_valid("1")

        return evaluate


class HecChecker(Component):
    """Checks the HEC of a 5-octet header stream.

    Ports:
        d[7:0], d_valid, sof — octet stream (sof with octet 0).
        ok, err — one-clock pulses after the fifth octet: exactly one
            of them fires.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal) -> None:
        super().__init__(sim, name)
        self.d = self.signal("d", width=8, init=0)
        self.d_valid = self.signal("d_valid", init="0")
        self.sof = self.signal("sof", init="0")
        self.ok = self.signal("ok", init="0")
        self.err = self.signal("err", init="0")
        self._crc = 0
        self._count = 0
        self.headers_checked = 0
        self.errors_seen = 0
        self.clocked(clk, self._compile_seq)

    def _compile_seq(self, ctx):
        """The clocked process: CRC over octets 0-3, then compare
        octet 4 and pulse ``ok`` or ``err`` for one clock."""
        d = ctx.read(self.d)
        d_valid = ctx.read(self.d_valid)
        sof = ctx.read(self.sof)
        w_ok = ctx.write(self.ok)
        w_err = ctx.write(self.err)

        def evaluate():
            w_ok("0")
            w_err("0")
            if d_valid.value != "1":
                return
            if sof.value == "1":
                self._crc = 0
                self._count = 0
            if self._count >= 5:
                return
            octet = slot_int(d.value)
            if self._count < 4:
                self._crc = crc8_step(self._crc, octet)
            else:
                self.headers_checked += 1
                if (self._crc ^ _COSET) == octet:
                    w_ok("1")
                else:
                    self.errors_seen += 1
                    w_err("1")
            self._count += 1

        return evaluate
