"""VPI/VCI translation and routing tables.

An ATM switch forwards cells by looking up the (input port, VPI, VCI)
triple in a connection table that yields (output port, new VPI, new
VCI).  The global control unit owns the table (connection admission /
signalling would populate it); port modules only consult it on the fast
path — the same split the paper's switch model uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

__all__ = ["RoutingEntry", "ConnectionTable", "RoutingError"]


class RoutingError(KeyError):
    """Raised when a cell arrives on an unknown connection."""


@dataclass(frozen=True)
class RoutingEntry:
    """Forwarding decision for one connection."""

    out_port: int
    out_vpi: int
    out_vci: int


class ConnectionTable:
    """The switch-wide connection (translation) table.

    Keys are ``(in_port, vpi, vci)``; values are
    :class:`RoutingEntry` objects.

    Example:
        >>> table = ConnectionTable()
        >>> table.install(0, 1, 100, RoutingEntry(3, 2, 200))
        >>> table.lookup(0, 1, 100)
        RoutingEntry(out_port=3, out_vpi=2, out_vci=200)
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int, int], RoutingEntry] = {}
        self.lookups = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int, int],
                                         RoutingEntry]]:
        return iter(self._entries.items())

    def install(self, in_port: int, vpi: int, vci: int,
                entry: RoutingEntry) -> None:
        """Install (or replace) the route for a connection."""
        self._entries[(in_port, vpi, vci)] = entry

    def remove(self, in_port: int, vpi: int, vci: int) -> None:
        """Tear a connection down; unknown connections raise."""
        try:
            del self._entries[(in_port, vpi, vci)]
        except KeyError:
            raise RoutingError(
                f"no connection (port={in_port}, vpi={vpi}, vci={vci})")

    def lookup(self, in_port: int, vpi: int, vci: int) -> RoutingEntry:
        """Fast-path lookup; unknown connections raise RoutingError."""
        self.lookups += 1
        try:
            return self._entries[(in_port, vpi, vci)]
        except KeyError:
            self.misses += 1
            raise RoutingError(
                f"no connection (port={in_port}, vpi={vpi}, vci={vci})")
