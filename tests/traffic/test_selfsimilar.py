"""Tests for the Pareto on-off (heavy-tailed) source."""


import pytest

from repro.traffic import ParetoOnOffSource

from .helpers import sample_arrivals


class TestParetoOnOff:
    def test_gaps_at_least_peak_period(self):
        src = ParetoOnOffSource(peak_period=1.0, mean_on=10.0,
                                mean_off=5.0, seed=3)
        gaps = [src.next_interarrival() for _ in range(400)]
        assert all(g >= 1.0 - 1e-12 for g in gaps)

    def test_reset_reproduces(self):
        src = ParetoOnOffSource(peak_period=0.1, mean_on=1.0,
                                mean_off=1.0, seed=5)
        first = [src.next_interarrival() for _ in range(50)]
        src.reset()
        assert [src.next_interarrival() for _ in range(50)] == first

    def test_long_run_rate_near_formula(self):
        src = ParetoOnOffSource(peak_period=0.01, mean_on=1.0,
                                mean_off=1.0, alpha=1.8, seed=7)
        times = sample_arrivals(src, 30000)
        measured = len(times) / times[-1]
        # duty cycle 0.5 at one cell per 10 ms while ON; heavy tails
        # converge slowly: generous tolerance
        assert measured == pytest.approx(50.0, rel=0.35)

    def test_heavier_tail_means_longer_extreme_bursts(self):
        """Smaller alpha -> heavier tails -> larger extreme OFF gaps."""
        def extreme_gap(alpha):
            src = ParetoOnOffSource(peak_period=0.01, mean_on=0.5,
                                    mean_off=0.5, alpha=alpha, seed=11)
            return max(src.next_interarrival() for _ in range(20000))
        assert extreme_gap(1.2) > extreme_gap(1.9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ParetoOnOffSource(0, 1, 1)
        with pytest.raises(ValueError):
            ParetoOnOffSource(1, 1, 1, alpha=2.5)
