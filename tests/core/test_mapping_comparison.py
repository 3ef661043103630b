"""Tests for the cell mapper and the stream comparator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import AtmCell
from repro.core import CellMapper, StreamComparator


class TestCellMapper:

    def test_cell_round_trip(self):
        mapper = CellMapper()
        cell = AtmCell.with_payload(1, 2, [9])
        assert mapper.octets_to_cell(mapper.cell_to_octets(cell)) == cell


class TestStreamComparator:
    def test_matching_ordered_streams_pass(self):
        comp = StreamComparator("t")
        comp.extend_reference([1, 2, 3])
        comp.extend_observed([1, 2, 3])
        report = comp.compare()
        assert report.passed
        assert report.matched == 3
        assert "PASS" in report.summary()

    def test_mismatch_detected(self):
        comp = StreamComparator("t")
        comp.extend_reference([1, 2, 3])
        comp.extend_observed([1, 9, 3])
        report = comp.compare()
        assert not report.passed
        assert report.mismatches[0].index == 1
        assert report.mismatches[0].expected == 2
        assert report.mismatches[0].observed == 9
        assert "FAIL" in report.summary()

    def test_missing_and_unexpected(self):
        comp = StreamComparator("t")
        comp.extend_reference([1, 2, 3])
        comp.extend_observed([1])
        assert comp.compare().missing == 2
        comp2 = StreamComparator("t")
        comp2.extend_reference([1])
        comp2.extend_observed([1, 2])
        assert comp2.compare().unexpected == 1

    def test_sorted_normalisation_tolerates_reordering(self):
        ordered = StreamComparator("t")
        ordered.extend_reference([(1, 1), (2, 2)])
        ordered.extend_observed([(2, 2), (1, 1)])
        assert not ordered.compare().passed

        relaxed = StreamComparator("t", normalize="sorted")
        relaxed.extend_reference([(1, 1), (2, 2)])
        relaxed.extend_observed([(2, 2), (1, 1)])
        assert relaxed.compare().passed

    def test_key_projection(self):
        comp = StreamComparator("t", key=lambda item: item[0])
        comp.add_reference((1, "ref-detail"))
        comp.add_observed((1, "dut-detail"))
        assert comp.compare().passed

    def test_unknown_normalisation_rejected(self):
        with pytest.raises(ValueError):
            StreamComparator("t", normalize="fuzzy")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=30))
    def test_property_identical_streams_always_pass(self, items):
        comp = StreamComparator("t")
        comp.extend_reference(items)
        comp.extend_observed(list(items))
        assert comp.compare().passed
