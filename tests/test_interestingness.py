"""Unit tests for interestingness functions (variance/skewness/kurtosis)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.interestingness import FUNCTIONS, get, kurtosis, skewness, variance


def test_variance_unbiased_formula():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert variance(v) == pytest.approx(np.var(v, ddof=1))


def test_variance_uniform_is_zero():
    assert variance(np.full(10, 3.5)) == 0.0


def test_variance_outlier_raises_score():
    flat = np.array([1.0, 1.0, 1.0, 1.0])
    spike = np.array([1.0, 1.0, 1.0, 100.0])
    assert variance(spike) > variance(flat)


def test_variance_degenerate_inputs():
    assert variance(np.array([])) == 0.0
    assert variance(np.array([5.0])) == 0.0


def test_skewness_symmetric_is_zero():
    assert skewness(np.array([-2.0, -1.0, 0.0, 1.0, 2.0])) == pytest.approx(0.0)


def test_skewness_right_tail_positive():
    assert skewness(np.array([1.0, 1.0, 1.0, 10.0])) > 1.0


def test_skewness_zero_variance():
    assert skewness(np.full(5, 2.0)) == 0.0


def test_kurtosis_matches_appendix_formula():
    # m4/m2^2 - 3 with population moments (Appendix A).
    v = np.array([1.0, 2.0, 8.0, 3.0, 5.0])
    d = v - v.mean()
    expect = abs((d**4).mean() / (d**2).mean() ** 2 - 3)
    assert kurtosis(v) == pytest.approx(expect)


def test_kurtosis_zero_variance():
    assert kurtosis(np.full(4, 1.0)) == 0.0


def test_registry():
    assert set(FUNCTIONS) == {"variance", "skewness", "kurtosis"}
    assert get("variance") is variance


def test_registry_unknown():
    with pytest.raises(KeyError):
        get("entropy")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=30))
@example([0.0, 8.1e-96])  # m2 > 0, but m2**2 underflows to 0
def test_property_scores_non_negative_finite(values):
    v = np.array(values)
    for name, h in FUNCTIONS.items():
        s = h(v)
        assert s >= 0.0 and np.isfinite(s)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=20), st.floats(0.1, 5))
def test_property_variance_scales_quadratically(values, scale):
    v = np.array(values)
    assert variance(scale * v) == pytest.approx(scale**2 * variance(v), rel=1e-6, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=20), st.floats(-100, 100))
def test_property_shift_invariance(values, shift):
    v = np.array(values)
    assert variance(v + shift) == pytest.approx(variance(v), rel=1e-6, abs=1e-6)
    if np.ptp(v) > 1e-3:  # tiny spreads cancel against the shift in float64
        assert skewness(v + shift) == pytest.approx(skewness(v), rel=1e-4, abs=1e-4)
