"""The ATM cell: 53 octets = 5-octet header + 48-octet payload.

Figure 4 of the paper shows the abstract representation (a C struct
with VPI/VCI fields) and its bit-level image on an 8-bit VHDL port over
53 clock cycles.  :class:`AtmCell` is the abstract side;
:meth:`AtmCell.to_octets` / :meth:`AtmCell.from_octets` implement the
exact UNI header layout used for the bit-level side.

UNI header layout (bit 8 = MSB first on the wire):

====== =========================================
octet  contents
====== =========================================
1      GFC(4) | VPI(4 high bits)
2      VPI(4 low bits) | VCI(4 high bits)
3      VCI(middle 8 bits)
4      VCI(4 low bits) | PT(3) | CLP(1)
5      HEC
====== =========================================
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..netsim.packet import Packet
from .hec import check_hec, hec_octet

__all__ = ["AtmCell", "CellFormatError", "CELL_OCTETS", "PAYLOAD_OCTETS",
           "HEADER_OCTETS", "CELL_BITS", "IDLE_VPI_VCI"]

CELL_OCTETS = 53
HEADER_OCTETS = 5
PAYLOAD_OCTETS = 48
CELL_BITS = CELL_OCTETS * 8

#: (VPI, VCI) of idle/unassigned cells inserted to fill the cell stream.
IDLE_VPI_VCI = (0, 0)

_ZEROS = (0,) * PAYLOAD_OCTETS
#: ``slots=True`` needs Python 3.10; 3.9 keeps a ``__dict__`` per cell
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


class CellFormatError(ValueError):
    """Raised for out-of-range header fields or malformed octet streams."""


@dataclass(**_SLOTS)
class AtmCell:
    """One ATM cell at the abstract (network-simulator) level.

    Attributes:
        vpi: virtual path identifier, 0..255 (UNI: 8 bits).
        vci: virtual channel identifier, 0..65535.
        pt: payload type, 0..7.
        clp: cell loss priority bit.
        gfc: generic flow control, 0..15.
        payload: exactly 48 octets (zero-padded when shorter at
            construction via :meth:`with_payload`).
        trace_id: provenance id assigned by the observability layer
            (see :mod:`repro.obs.provenance`); ``None`` when untracked.
            Excluded from equality/repr — a traced cell still compares
            equal to its untraced reference-model twin — and never part
            of the 53-octet wire image.
    """

    vpi: int = 0
    vci: int = 0
    pt: int = 0
    clp: int = 0
    gfc: int = 0
    payload: Tuple[int, ...] = _ZEROS
    trace_id: Optional[int] = field(default=None, compare=False,
                                    repr=False)

    def __post_init__(self) -> None:
        # Single compound check on the hot path; the per-field helper
        # reruns only on failure to raise the precise error.
        if not (isinstance(self.gfc, int) and 0 <= self.gfc <= 0xF
                and isinstance(self.vpi, int) and 0 <= self.vpi <= 0xFF
                and isinstance(self.vci, int)
                and 0 <= self.vci <= 0xFFFF
                and isinstance(self.pt, int) and 0 <= self.pt <= 0x7
                and isinstance(self.clp, int) and 0 <= self.clp <= 0x1):
            self._check_range("gfc", self.gfc, 0xF)
            self._check_range("vpi", self.vpi, 0xFF)
            self._check_range("vci", self.vci, 0xFFFF)
            self._check_range("pt", self.pt, 0x7)
            self._check_range("clp", self.clp, 0x1)
        payload = tuple(self.payload)
        self.payload = payload
        if len(payload) != PAYLOAD_OCTETS:
            raise CellFormatError(
                f"payload must be {PAYLOAD_OCTETS} octets, "
                f"got {len(payload)}")
        # bytes() validates all 48 octets at C speed (TypeError for a
        # non-int, ValueError out of 0..255); the per-octet loop reruns
        # only on failure to raise the precise CellFormatError.  This
        # replaced a bounded global memo of validated payload tuples:
        # with random traffic the memo's capacity went to whichever
        # stream filled it first, silently making every *other* shard's
        # replay pay the Python loop — a 2x per-shard apply skew in
        # multi-shard topologies.
        try:
            bytes(payload)
        except (TypeError, ValueError):
            for octet in payload:
                self._check_range("payload octet", octet, 0xFF)
            raise CellFormatError(    # pragma: no cover - non-int 0..255
                f"payload octets invalid: {payload!r}")

    @staticmethod
    def _check_range(label: str, value: int, maximum: int) -> None:
        if not isinstance(value, int) or not 0 <= value <= maximum:
            raise CellFormatError(
                f"{label} value {value!r} outside 0..{maximum}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def with_payload(cls, vpi: int, vci: int,
                     payload: Sequence[int] = (), **kwargs) -> "AtmCell":
        """Build a cell, zero-padding *payload* to 48 octets."""
        return cls(vpi=vpi, vci=vci, payload=_padded(payload), **kwargs)

    @classmethod
    def idle(cls) -> "AtmCell":
        """An idle (unassigned) cell as inserted into empty slots."""
        return cls(vpi=IDLE_VPI_VCI[0], vci=IDLE_VPI_VCI[1], pt=0, clp=1)

    @property
    def is_idle(self) -> bool:
        """True for idle/unassigned filler cells."""
        return (self.vpi, self.vci) == IDLE_VPI_VCI

    # ------------------------------------------------------------------
    # Octet-level image (the bit-level side of Figure 4)
    # ------------------------------------------------------------------
    def header_octets(self, with_hec: bool = True) -> List[int]:
        """The 4- or 5-octet header image (UNI layout)."""
        octets = [
            ((self.gfc & 0xF) << 4) | ((self.vpi >> 4) & 0xF),
            ((self.vpi & 0xF) << 4) | ((self.vci >> 12) & 0xF),
            (self.vci >> 4) & 0xFF,
            ((self.vci & 0xF) << 4) | ((self.pt & 0x7) << 1) | (self.clp & 1),
        ]
        if with_hec:
            octets.append(hec_octet(octets))
        return octets

    def to_octets(self) -> List[int]:
        """The full 53-octet wire image."""
        return self.header_octets() + list(self.payload)

    @classmethod
    def from_octets(cls, octets: Sequence[int],
                    verify_hec: bool = True) -> "AtmCell":
        """Parse a 53-octet wire image back into a cell.

        Raises:
            CellFormatError: wrong length or (with *verify_hec*) a HEC
                mismatch — the error a corrupted header must produce.
        """
        octets = list(octets)
        if len(octets) != CELL_OCTETS:
            raise CellFormatError(
                f"a cell is {CELL_OCTETS} octets, got {len(octets)}")
        header = octets[:HEADER_OCTETS]
        if verify_hec and not check_hec(header):
            raise CellFormatError(
                f"HEC mismatch: header={header}")
        gfc = (header[0] >> 4) & 0xF
        vpi = ((header[0] & 0xF) << 4) | ((header[1] >> 4) & 0xF)
        vci = (((header[1] & 0xF) << 12) | (header[2] << 4)
               | ((header[3] >> 4) & 0xF))
        pt = (header[3] >> 1) & 0x7
        clp = header[3] & 1
        return cls(gfc=gfc, vpi=vpi, vci=vci, pt=pt, clp=clp,
                   payload=tuple(octets[HEADER_OCTETS:]))

    # ------------------------------------------------------------------
    # Network-simulator packet bridge
    # ------------------------------------------------------------------
    def to_packet(self, creation_time: float = 0.0) -> Packet:
        """Wrap the cell in an abstract netsim packet (Figure 4 struct)."""
        fields = {"VPI": self.vpi, "VCI": self.vci,
                  "PT": self.pt, "CLP": self.clp,
                  "GFC": self.gfc, "payload": list(self.payload)}
        if self.trace_id is not None:
            fields["trace_id"] = self.trace_id
        return Packet(size_bits=CELL_BITS, creation_time=creation_time,
                      fields=fields)

    @classmethod
    def from_packet(cls, packet: Packet) -> "AtmCell":
        """Recover a cell from an abstract packet built by
        :meth:`to_packet` (missing fields default to zero; a provenance
        ``trace_id`` stamped on the packet is carried over)."""
        get = packet.fields.get
        return cls(get("VPI", 0), get("VCI", 0), get("PT", 0),
                   get("CLP", 0), get("GFC", 0),
                   _padded(get("payload", ())), get("trace_id"))

    def connection(self) -> Tuple[int, int]:
        """The (VPI, VCI) pair identifying the cell's connection."""
        return (self.vpi, self.vci)


def _padded(payload: Sequence[int]) -> Sequence[int]:
    """*payload* zero-padded to 48 octets (as it is when it has 48)."""
    if not isinstance(payload, (tuple, list, bytes)):
        payload = tuple(payload)
    if len(payload) > PAYLOAD_OCTETS:
        raise CellFormatError(
            f"payload of {len(payload)} octets exceeds {PAYLOAD_OCTETS}")
    if len(payload) == PAYLOAD_OCTETS:
        return payload
    return tuple(payload) + _ZEROS[len(payload):]
