"""Unit tests for statistic probes."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.netsim import Probe, summary


def test_probe_mean_min_max():
    p = Probe("x")
    for t, v in enumerate([1.0, 2.0, 3.0]):
        p.record(float(t), v)
    assert p.mean() == 2.0
    assert p.minimum() == 1.0
    assert p.maximum() == 3.0
    assert len(p) == 3


def test_probe_empty_is_nan():
    p = Probe("x")
    assert math.isnan(p.mean())
    assert math.isnan(p.maximum())
    assert math.isnan(p.time_average())


def test_probe_rejects_time_regression():
    p = Probe("x")
    p.record(1.0, 0.0)
    with pytest.raises(ValueError):
        p.record(0.5, 0.0)


def test_probe_std():
    p = Probe("x")
    for t, v in enumerate([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]):
        p.record(float(t), v)
    assert p.std() == pytest.approx(2.0)


def test_time_average_step_function():
    p = Probe("x")
    p.record(0.0, 0.0)   # 0 for 1s
    p.record(1.0, 10.0)  # 10 for 3s
    p.record(4.0, 0.0)
    assert p.time_average() == pytest.approx(30.0 / 4.0)


def test_summary_helper():
    mean, std, lo, hi = summary([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert lo == 1.0
    assert hi == 3.0
    assert std == pytest.approx(math.sqrt(2.0 / 3.0))


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100))
def test_property_mean_between_min_and_max(values):
    p = Probe("x")
    for t, v in enumerate(values):
        p.record(float(t), v)
    assert min(values) - 1e-9 <= p.mean() <= max(values) + 1e-9
