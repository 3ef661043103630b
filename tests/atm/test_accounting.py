"""Unit and property tests for the accounting reference model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import AccountingError, AccountingUnit, Tariff


def test_basic_counting_and_charge():
    unit = AccountingUnit()
    unit.register(1, 100, Tariff(units_per_cell=2))
    for _ in range(5):
        unit.cell_arrival(1, 100)
    records = unit.close_interval()
    assert len(records) == 1
    rec = records[0]
    assert rec.cells_clp0 == 5
    assert rec.charge_units == 10
    assert rec.interval == 0


def test_clp_discrimination():
    unit = AccountingUnit()
    unit.register(1, 1, Tariff(units_per_cell=3, units_per_cell_clp1=1))
    unit.cell_arrival(1, 1, clp=0)
    unit.cell_arrival(1, 1, clp=1)
    unit.cell_arrival(1, 1, clp=1)
    (rec,) = unit.close_interval()
    assert rec.cells_clp0 == 1
    assert rec.cells_clp1 == 2
    assert rec.charge_units == 3 + 2


def test_fixed_fee_charged_when_idle():
    unit = AccountingUnit()
    unit.register(0, 5, Tariff(units_per_cell=1, fixed_units=7))
    (rec,) = unit.close_interval()
    assert rec.charge_units == 7


def test_interval_counters_reset():
    unit = AccountingUnit()
    unit.register(1, 1, Tariff())
    unit.cell_arrival(1, 1)
    unit.close_interval()
    unit.cell_arrival(1, 1)
    unit.cell_arrival(1, 1)
    (rec,) = unit.close_interval()
    assert rec.cells_clp0 == 2
    assert rec.interval == 1


def test_unknown_connection_strict_raises():
    unit = AccountingUnit()
    with pytest.raises(AccountingError):
        unit.cell_arrival(9, 9)


def test_unknown_connection_tolerant_counts():
    unit = AccountingUnit(drop_unknown=True)
    assert unit.cell_arrival(9, 9) is False
    assert unit.unknown_cells == 1


def test_duplicate_registration_rejected():
    unit = AccountingUnit()
    unit.register(1, 1, Tariff())
    with pytest.raises(AccountingError):
        unit.register(1, 1, Tariff())


def test_deregister_emits_final_record():
    unit = AccountingUnit()
    unit.register(1, 1, Tariff(units_per_cell=1))
    unit.cell_arrival(1, 1)
    rec = unit.deregister(1, 1)
    assert rec.cells_clp0 == 1
    assert not unit.is_registered(1, 1)
    with pytest.raises(AccountingError):
        unit.deregister(1, 1)


def test_total_charge_accumulates():
    unit = AccountingUnit()
    unit.register(1, 1, Tariff(units_per_cell=1))
    unit.cell_arrival(1, 1)
    unit.close_interval()
    unit.cell_arrival(1, 1)
    unit.cell_arrival(1, 1)
    unit.close_interval()
    assert unit.total_charge(1, 1) == 3
    assert sum(record.charge_units for record in unit.records) == 3


def test_records_sorted_by_connection_within_interval():
    unit = AccountingUnit()
    unit.register(2, 1, Tariff())
    unit.register(1, 1, Tariff())
    recs = unit.close_interval()
    assert [(r.vpi, r.vci) for r in recs] == [(1, 1), (2, 1)]


def test_invalid_tariff_rejected():
    with pytest.raises(AccountingError):
        Tariff(units_per_cell=-1)
    with pytest.raises(AccountingError):
        Tariff(fixed_units=1.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                max_size=200),
       st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
       st.integers(1, 5))
def test_property_charge_equals_closed_form(cells, upc, upc1, fixed,
                                            intervals):
    """Total charge == fixed*intervals + clp0*upc + clp1*upc1, however
    the cells distribute over intervals."""
    unit = AccountingUnit()
    for conn in range(4):
        unit.register(0, conn, Tariff(units_per_cell=upc,
                                      units_per_cell_clp1=upc1,
                                      fixed_units=fixed))
    per_interval = max(1, len(cells) // intervals)
    clp0 = {c: 0 for c in range(4)}
    clp1 = {c: 0 for c in range(4)}
    for index, (conn, clp) in enumerate(cells):
        unit.cell_arrival(0, conn, clp=clp)
        (clp1 if clp else clp0)[conn] += 1
        if (index + 1) % per_interval == 0:
            unit.close_interval()
    unit.close_interval()
    closed = unit.interval
    for conn in range(4):
        expected = fixed * closed + clp0[conn] * upc + clp1[conn] * upc1
        assert unit.total_charge(0, conn) == expected
