"""Abstract packets exchanged between network-simulation processes.

In a network simulator processes communicate through the exchange of
*abstracted* information — the paper's Figure 4 shows an OPNET packet as
a C struct carrying VPI/VCI fields.  :class:`Packet` is the Python
equivalent: a typed bundle of named fields plus bookkeeping (creation
time, size in bits, a unique id).  Communication at this level is
instantaneous: when the delivery event fires, the complete information
is available at once.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

__all__ = ["Packet", "PacketFormatError"]

_packet_ids = itertools.count()


class PacketFormatError(KeyError):
    """Raised when a packet field is accessed that the packet lacks."""


class Packet:
    """An abstract protocol data unit.

    Fields are arbitrary named values (``pkt["VPI"]``-style access).
    ``size_bits`` drives transmission-delay computation on rate-limited
    links; an ATM cell is 53 octets = 424 bits.

    Example:
        >>> p = Packet(size_bits=424, fields={"VPI": 3, "VCI": 17})
        >>> p["VPI"]
        3
    """

    __slots__ = ("id", "size_bits", "creation_time", "fields")

    def __init__(self, size_bits: int = 0,
                 fields: Optional[Dict[str, Any]] = None,
                 creation_time: float = 0.0) -> None:
        self.id = next(_packet_ids)
        self.size_bits = size_bits
        self.creation_time = creation_time
        self.fields: Dict[str, Any] = dict(fields or {})

    # -- field access ---------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        try:
            return self.fields[key]
        except KeyError:
            raise PacketFormatError(
                f"packet {self.id} has no field {key!r}; "
                f"fields: {sorted(self.fields)}") from None

    def __setitem__(self, key: str, value: Any) -> None:
        self.fields[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.fields

    def get(self, key: str, default: Any = None) -> Any:
        """Return field *key* or *default* when absent."""
        return self.fields.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Packet(id={self.id}, bits={self.size_bits}, "
                f"fields={self.fields})")
