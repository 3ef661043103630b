"""Algorithmic reference model of the ATM accounting (charging) unit.

The paper's case study ("We have used CASTANET for the functional
verification of an ATM accounting unit", cf. their charging-algorithm
work [9]) verifies a hardware charging unit against the algorithm
model that was used for system-level evaluation.  This module is that
algorithm model; :mod:`repro.rtl.accounting_unit` is the RTL
implementation verified against it through CASTANET.

The charging scheme is volume-based with tariff intervals:

* every connection is registered with a *tariff* (integer charge units
  per cell, separately for CLP=0 and CLP=1 cells, plus a fixed fee per
  tariff interval);
* the unit counts cells per connection;
* at each tariff-interval boundary a :class:`ChargingRecord` is emitted
  and the interval counters reset.

All arithmetic is integer so the RTL implementation can match the
reference bit-exactly — the property CASTANET's stream comparator
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["Tariff", "ChargingRecord", "AccountingUnit", "AccountingError"]

Connection = Tuple[int, int]


class AccountingError(Exception):
    """Raised for unknown connections or invalid tariffs."""


@dataclass(frozen=True)
class Tariff:
    """Charging parameters of one connection.

    Attributes:
        units_per_cell: charge units for each CLP=0 cell.
        units_per_cell_clp1: charge units for each CLP=1 (tagged) cell —
            typically cheaper, as the network may discard them.
        fixed_units: flat fee charged per tariff interval while the
            connection exists.
    """

    units_per_cell: int = 1
    units_per_cell_clp1: int = 0
    fixed_units: int = 0

    def __post_init__(self) -> None:
        for label in ("units_per_cell", "units_per_cell_clp1",
                      "fixed_units"):
            value = getattr(self, label)
            if not isinstance(value, int) or value < 0:
                raise AccountingError(
                    f"tariff field {label} must be a non-negative int, "
                    f"got {value!r}")


@dataclass(frozen=True)
class ChargingRecord:
    """One closed tariff interval of one connection."""

    vpi: int
    vci: int
    interval: int
    cells_clp0: int
    cells_clp1: int
    charge_units: int


@dataclass
class _Account:
    tariff: Tariff
    cells_clp0: int = 0
    cells_clp1: int = 0
    total_cells: int = 0
    total_charge: int = 0


class AccountingUnit:
    """Reference (algorithmic) ATM accounting unit.

    Example:
        >>> unit = AccountingUnit()
        >>> unit.register(1, 100, Tariff(units_per_cell=2))
        >>> unit.cell_arrival(1, 100)
        >>> unit.close_interval()
        [ChargingRecord(vpi=1, vci=100, interval=0, cells_clp0=1, \
cells_clp1=0, charge_units=2)]
    """

    def __init__(self, drop_unknown: bool = False) -> None:
        #: When True, cells on unregistered connections are silently
        #: counted in :attr:`unknown_cells` (a policing deployment);
        #: when False they raise — the strict verification posture.
        self.drop_unknown = drop_unknown
        self._accounts: Dict[Connection, _Account] = {}
        self._interval = 0
        self.unknown_cells = 0
        self.records: List[ChargingRecord] = []

    # ------------------------------------------------------------------
    # Connection management (the control plane the GCU drives)
    # ------------------------------------------------------------------
    def register(self, vpi: int, vci: int, tariff: Tariff) -> None:
        """Open accounting for connection (vpi, vci)."""
        key = (vpi, vci)
        if key in self._accounts:
            raise AccountingError(f"connection {key} already registered")
        self._accounts[key] = _Account(tariff=tariff)

    def deregister(self, vpi: int, vci: int) -> ChargingRecord:
        """Close a connection, emitting a final (partial) record."""
        key = (vpi, vci)
        account = self._require(key)
        record = self._make_record(key, account)
        self.records.append(record)
        del self._accounts[key]
        return record

    def is_registered(self, vpi: int, vci: int) -> bool:
        """True while the connection has an open account."""
        return (vpi, vci) in self._accounts

    @property
    def interval(self) -> int:
        """Index of the current (open) tariff interval."""
        return self._interval

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def cell_arrival(self, vpi: int, vci: int, clp: int = 0) -> bool:
        """Count one cell; returns True when the cell was accounted.

        Raises:
            AccountingError: unknown connection with strict accounting.
        """
        key = (vpi, vci)
        account = self._accounts.get(key)
        if account is None:
            if self.drop_unknown:
                self.unknown_cells += 1
                return False
            raise AccountingError(f"cell on unknown connection {key}")
        if clp:
            account.cells_clp1 += 1
        else:
            account.cells_clp0 += 1
        account.total_cells += 1
        return True

    # ------------------------------------------------------------------
    # Tariff intervals
    # ------------------------------------------------------------------
    def close_interval(self) -> List[ChargingRecord]:
        """Close the current tariff interval for every connection.

        Emits one record per connection (including idle ones — the
        fixed fee still applies), resets interval counters and advances
        the interval index.
        """
        closed = []
        for key in sorted(self._accounts):
            account = self._accounts[key]
            record = self._make_record(key, account)
            account.cells_clp0 = 0
            account.cells_clp1 = 0
            closed.append(record)
        self.records.extend(closed)
        self._interval += 1
        return closed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_charge(self, vpi: int, vci: int) -> int:
        """Charge units accumulated over all closed intervals."""
        return self._require((vpi, vci)).total_charge

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, key: Connection) -> _Account:
        try:
            return self._accounts[key]
        except KeyError:
            raise AccountingError(
                f"connection {key} is not registered") from None

    def _make_record(self, key: Connection,
                     account: _Account) -> ChargingRecord:
        tariff = account.tariff
        charge = (tariff.fixed_units
                  + account.cells_clp0 * tariff.units_per_cell
                  + account.cells_clp1 * tariff.units_per_cell_clp1)
        account.total_charge += charge
        return ChargingRecord(vpi=key[0], vci=key[1],
                              interval=self._interval,
                              cells_clp0=account.cells_clp0,
                              cells_clp1=account.cells_clp1,
                              charge_units=charge)
