"""Conversion-function library: abstract data types ↔ bit level (§3.2).

"The user has to specify how high-level protocol data units and
abstract data types has to be mapped to bit-level signals using
appropriate conversion functions that are provided in the CASTANET
library."

:class:`CellMapper` is the ATM instance: it maps cells to the 53-octet
bit-level image and back.
"""

from __future__ import annotations

from typing import List, Sequence

from ..atm.cell import AtmCell, CELL_OCTETS

__all__ = ["CellMapper"]


class CellMapper:
    """ATM-cell instance of the abstraction interface (Figure 4).

    Maps cells to the 53-octet bit-level image and back; the first
    octet of each cell goes onto the wire with a one-clock ``cellsync``
    pulse.
    """

    octets_per_cell = CELL_OCTETS

    def cell_to_octets(self, cell: AtmCell) -> List[int]:
        """AtmCell -> wire image."""
        return cell.to_octets()

    def octets_to_cell(self, octets: Sequence[int],
                       verify_hec: bool = True) -> AtmCell:
        """Wire image -> AtmCell."""
        return AtmCell.from_octets(octets, verify_hec=verify_hec)
