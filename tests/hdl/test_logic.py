"""Unit and property tests for nine-value logic."""

import pytest
from hypothesis import given, strategies as st

from repro.hdl import (LogicError, STD_LOGIC_VALUES, resolve, resolve_many,
                       to_vector, vector_to_int)

LOGIC = st.sampled_from(STD_LOGIC_VALUES)


class TestResolve:
    def test_strong_conflict_is_x(self):
        assert resolve("0", "1") == "X"
        assert resolve("1", "0") == "X"

    def test_z_yields_to_anything(self):
        for v in STD_LOGIC_VALUES:
            if v == "Z":
                continue
            expected = "X" if v == "-" else v
            assert resolve("Z", v) == expected

    def test_weak_loses_to_strong(self):
        assert resolve("L", "1") == "1"
        assert resolve("H", "0") == "0"

    def test_weak_conflict_is_w(self):
        assert resolve("L", "H") == "W"

    def test_u_dominates(self):
        for v in STD_LOGIC_VALUES:
            assert resolve("U", v) == "U"
            assert resolve(v, "U") == "U"

    def test_invalid_value_rejected(self):
        with pytest.raises(LogicError):
            resolve("0", "Q")

    def test_resolve_many_empty_is_z(self):
        assert resolve_many([]) == "Z"

    def test_resolve_many_single(self):
        assert resolve_many(["1"]) == "1"

    def test_resolve_many_three_drivers(self):
        assert resolve_many(["Z", "Z", "0"]) == "0"
        assert resolve_many(["1", "Z", "0"]) == "X"

    @given(LOGIC, LOGIC)
    def test_property_commutative(self, a, b):
        assert resolve(a, b) == resolve(b, a)

    @given(LOGIC, LOGIC, LOGIC)
    def test_property_associative(self, a, b, c):
        assert resolve(resolve(a, b), c) == resolve(a, resolve(b, c))

    @given(LOGIC)
    def test_property_idempotent_except_dontcare(self, a):
        expected = {"-": "X"}.get(a, a)
        assert resolve(a, a) == expected

    @given(LOGIC)
    def test_property_z_is_identity(self, a):
        expected = "X" if a == "-" else a
        assert resolve(a, "Z") == expected


class TestVectors:
    def test_to_vector_from_int(self):
        assert to_vector(5, 4) == ("0", "1", "0", "1")
        assert to_vector(0, 2) == ("0", "0")

    def test_to_vector_overflow_rejected(self):
        with pytest.raises(LogicError):
            to_vector(16, 4)
        with pytest.raises(LogicError):
            to_vector(-1, 4)

    def test_to_vector_from_string(self):
        assert to_vector("1Z0X", 4) == ("1", "Z", "0", "X")

    def test_to_vector_width_mismatch(self):
        with pytest.raises(LogicError):
            to_vector("101", 4)

    def test_to_vector_bad_char(self):
        with pytest.raises(LogicError):
            to_vector("10Q1", 4)

    def test_zero_width_rejected(self):
        with pytest.raises(LogicError):
            to_vector(0, 0)

    def test_vector_to_int(self):
        assert vector_to_int(("1", "0", "1", "0")) == 10

    def test_vector_to_int_metavalue_rejected(self):
        with pytest.raises(LogicError):
            vector_to_int(("1", "X"))

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_property_int_round_trip(self, value):
        assert vector_to_int(to_vector(value, 16)) == value
