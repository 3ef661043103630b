"""Unit tests for stochastic traffic models."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic import (ConstantBitRate, MarkovModulatedPoisson,
                           OnOffSource, PoissonArrivals)

from .helpers import sample_arrivals


class TestConstantBitRate:
    def test_deterministic_period(self):
        cbr = ConstantBitRate(period=2.0)
        assert [cbr.next_interarrival() for _ in range(3)] == [2.0] * 3

    def test_arrival_times(self):
        cbr = ConstantBitRate(period=0.5)
        assert sample_arrivals(cbr, 4) == [0.5, 1.0, 1.5, 2.0]

    def test_jitter_bounded(self):
        cbr = ConstantBitRate(period=1.0, jitter=0.25, seed=7)
        gaps = [cbr.next_interarrival() for _ in range(200)]
        assert all(0.75 <= g <= 1.25 for g in gaps)
        assert len(set(gaps)) > 1

    def test_reset_reproduces(self):
        cbr = ConstantBitRate(period=1.0, jitter=0.2, seed=3)
        first = [cbr.next_interarrival() for _ in range(10)]
        cbr.reset()
        assert [cbr.next_interarrival() for _ in range(10)] == first

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            ConstantBitRate(period=0.0)

    def test_invalid_jitter(self):
        with pytest.raises(ValueError):
            ConstantBitRate(period=1.0, jitter=1.5)


class TestPoisson:
    def test_mean_rate_approximate(self):
        p = PoissonArrivals(rate=100.0, seed=1)
        gaps = [p.next_interarrival() for _ in range(5000)]
        assert statistics.mean(gaps) == pytest.approx(0.01, rel=0.1)

    def test_seed_determinism(self):
        a = PoissonArrivals(rate=5.0, seed=42)
        b = PoissonArrivals(rate=5.0, seed=42)
        assert ([a.next_interarrival() for _ in range(20)]
                == [b.next_interarrival() for _ in range(20)])

    def test_different_seeds_differ(self):
        a = PoissonArrivals(rate=5.0, seed=1)
        b = PoissonArrivals(rate=5.0, seed=2)
        assert (a.next_interarrival() != b.next_interarrival())

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=-1.0)


class TestOnOff:
    def test_gaps_at_least_peak_period(self):
        src = OnOffSource(peak_period=1.0, mean_on=10.0, mean_off=5.0,
                          seed=9)
        gaps = [src.next_interarrival() for _ in range(500)]
        assert all(g >= 1.0 - 1e-12 for g in gaps)

    def test_long_run_rate_matches_formula(self):
        src = OnOffSource(peak_period=0.01, mean_on=0.5, mean_off=0.5,
                          seed=4)
        times = sample_arrivals(src, 20000)
        measured = len(times) / times[-1]
        # duty cycle 0.5 at one cell per 10 ms while ON
        assert measured == pytest.approx(50.0, rel=0.1)

    def test_burstier_than_cbr(self):
        """On-off gaps include long OFF silences."""
        src = OnOffSource(peak_period=0.01, mean_on=0.1, mean_off=1.0,
                          seed=2)
        gaps = [src.next_interarrival() for _ in range(2000)]
        assert max(gaps) > 20 * min(gaps)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OnOffSource(peak_period=0, mean_on=1, mean_off=1)
        with pytest.raises(ValueError):
            OnOffSource(peak_period=1, mean_on=-1, mean_off=1)


class TestMmpp:

    def test_long_run_rate(self):
        m = MarkovModulatedPoisson(rate_a=50.0, rate_b=500.0,
                                   mean_sojourn_a=0.2, mean_sojourn_b=0.2,
                                   seed=11)
        times = sample_arrivals(m, 30000)
        measured = len(times) / times[-1]
        # equal sojourns: the mean of the two state rates
        assert measured == pytest.approx((50.0 + 500.0) / 2, rel=0.1)

    def test_determinism(self):
        kwargs = dict(rate_a=5.0, rate_b=50.0, mean_sojourn_a=1.0,
                      mean_sojourn_b=1.0, seed=3)
        a = MarkovModulatedPoisson(**kwargs)
        b = MarkovModulatedPoisson(**kwargs)
        assert ([a.next_interarrival() for _ in range(50)]
                == [b.next_interarrival() for _ in range(50)])

    def test_more_variable_than_poisson(self):
        """MMPP squared coefficient of variation exceeds Poisson's 1."""
        m = MarkovModulatedPoisson(rate_a=1.0, rate_b=200.0,
                                   mean_sojourn_a=5.0, mean_sojourn_b=5.0,
                                   seed=8)
        gaps = [m.next_interarrival() for _ in range(20000)]
        mu = statistics.mean(gaps)
        cv2 = statistics.pvariance(gaps) / (mu * mu)
        assert cv2 > 1.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MarkovModulatedPoisson(0, 1, 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
def test_property_all_gaps_nonnegative(seed, rate):
    """Every model produces non-negative inter-arrival times.

    ``rate >= 1`` keeps the on-off peak period at or below the mean ON
    duration; a peak period far above mean_on describes a source that
    essentially never emits, which is a degenerate configuration.
    """
    models = [
        PoissonArrivals(rate=rate, seed=seed),
        OnOffSource(peak_period=1.0 / rate, mean_on=1.0, mean_off=1.0,
                    seed=seed),
        MarkovModulatedPoisson(rate_a=rate, rate_b=rate * 10,
                               mean_sojourn_a=1.0, mean_sojourn_b=1.0,
                               seed=seed),
    ]
    for model in models:
        for _ in range(50):
            assert model.next_interarrival() >= 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_property_reset_is_reproducible(seed):
    """reset() rewinds every model to an identical sample path."""
    models = [
        ConstantBitRate(period=1.0, jitter=0.3, seed=seed),
        PoissonArrivals(rate=7.0, seed=seed),
        OnOffSource(peak_period=0.1, mean_on=0.5, mean_off=0.5, seed=seed),
        MarkovModulatedPoisson(rate_a=3.0, rate_b=30.0,
                               mean_sojourn_a=0.5, mean_sojourn_b=0.5,
                               seed=seed),
    ]
    for model in models:
        first = [model.next_interarrival() for _ in range(30)]
        model.reset()
        again = [model.next_interarrival() for _ in range(30)]
        assert first == again
