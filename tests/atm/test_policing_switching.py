"""Unit and property tests for GCRA policing and connection tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import (ConnectionTable, RoutingEntry, RoutingError,
                       VirtualScheduling)
from repro.reference import LeakyBucket


class TestGcra:
    def test_nominal_cbr_stream_conforms(self):
        gcra = VirtualScheduling(increment=1.0, limit=0.0)
        assert all(gcra.arrival(float(t)) for t in range(10))
        assert gcra.conforming == 10

    def test_too_fast_stream_rejected(self):
        gcra = VirtualScheduling(increment=1.0, limit=0.0)
        assert gcra.arrival(0.0)
        assert not gcra.arrival(0.5)  # half a period early, no tolerance
        assert gcra.arrival(1.0)      # back on schedule

    def test_cdv_tolerance_allows_jitter(self):
        gcra = VirtualScheduling(increment=1.0, limit=0.5)
        assert gcra.arrival(0.0)
        assert gcra.arrival(0.6)   # 0.4 early, within tau
        assert not gcra.arrival(0.7)  # now 1.3 ahead of schedule

    def test_burst_size_matches_tau_over_t(self):
        """With tau = N*T, a burst of N+1 back-to-back cells conforms."""
        gcra = VirtualScheduling(increment=1.0, limit=3.0)
        verdicts = [gcra.arrival(0.0) for _ in range(6)]
        assert verdicts == [True, True, True, True, False, False]

    def test_leaky_bucket_requires_time_order(self):
        bucket = LeakyBucket(increment=1.0, limit=0.0)
        bucket.arrival(1.0)
        with pytest.raises(ValueError):
            bucket.arrival(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VirtualScheduling(increment=0.0, limit=0.0)
        with pytest.raises(ValueError):
            VirtualScheduling(increment=1.0, limit=-1.0)
        with pytest.raises(ValueError):
            LeakyBucket(increment=-1.0, limit=0.0)

    def test_reset(self):
        gcra = VirtualScheduling(increment=1.0, limit=0.0)
        gcra.arrival(0.0)
        assert not gcra.arrival(0.1)
        gcra.reset()
        assert gcra.arrival(0.1)
        assert gcra.conforming == 1

    # The two-formulation equivalence is an exact-arithmetic theorem;
    # sampling dyadic rationals (multiples of 1/64 with small magnitude)
    # keeps every addition/subtraction exact in binary floating point so
    # the property is tested without rounding artefacts.
    _dyadic = st.integers(min_value=0, max_value=64 * 100).map(
        lambda n: n / 64.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_dyadic, min_size=1, max_size=100),
           st.integers(min_value=1, max_value=64 * 10).map(
               lambda n: n / 64.0),
           _dyadic)
    def test_property_virtual_scheduling_equals_leaky_bucket(
            self, times, increment, limit):
        """ITU-T I.371: the two GCRA formulations are equivalent."""
        times = sorted(times)
        vs = VirtualScheduling(increment, limit)
        lb = LeakyBucket(increment, limit)
        for t in times:
            assert vs.arrival(t) == lb.arrival(t)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=64 * 5).map(
               lambda n: n / 64.0),
           st.integers(min_value=0, max_value=64 * 5).map(
               lambda n: n / 64.0),
           st.integers(min_value=2, max_value=50))
    def test_property_nominal_rate_always_conforms(self, increment, limit,
                                                   n):
        gcra = VirtualScheduling(increment, limit)
        assert all(gcra.arrival(i * increment) for i in range(n))


class TestConnectionTable:
    def test_install_lookup(self):
        table = ConnectionTable()
        table.install(0, 1, 100, RoutingEntry(3, 2, 200))
        entry = table.lookup(0, 1, 100)
        assert (entry.out_port, entry.out_vpi, entry.out_vci) == (3, 2, 200)

    def test_lookup_miss_raises_and_counts(self):
        table = ConnectionTable()
        with pytest.raises(RoutingError):
            table.lookup(0, 1, 1)
        assert table.misses == 1
        assert table.lookups == 1

    def test_remove(self):
        table = ConnectionTable()
        table.install(0, 1, 100, RoutingEntry(1, 1, 100))
        table.remove(0, 1, 100)
        assert len(table) == 0
        with pytest.raises(RoutingError):
            table.remove(0, 1, 100)

    def test_replace_existing(self):
        table = ConnectionTable()
        table.install(0, 1, 100, RoutingEntry(1, 1, 1))
        table.install(0, 1, 100, RoutingEntry(2, 2, 2))
        assert table.lookup(0, 1, 100).out_port == 2
        assert len(table) == 1

    def test_iteration(self):
        table = ConnectionTable()
        table.install(0, 1, 2, RoutingEntry(1, 1, 2))
        table.install(1, 3, 4, RoutingEntry(0, 3, 4))
        assert len(dict(table)) == 2

    def test_port_disambiguates_same_vpi_vci(self):
        table = ConnectionTable()
        table.install(0, 1, 100, RoutingEntry(1, 0, 0))
        table.install(1, 1, 100, RoutingEntry(2, 0, 0))
        assert table.lookup(0, 1, 100).out_port == 1
        assert table.lookup(1, 1, 100).out_port == 2
