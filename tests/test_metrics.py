import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunkfair import UndefinedMetricError, deviation, mean_ci, min_weighted_rate

from oracles import deviation_direct


def test_deviation_zero_when_proportional():
    assert deviation(np.array([2.0, 2.0, 8.0, 8.0]), np.array([1.0, 1.0, 4.0, 4.0])) == 0.0


def test_deviation_worst_case_is_one():
    d = deviation(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert abs(d - 1.0) < 1e-15


def test_deviation_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    w = np.array([1.0, 1.0, 4.0, 4.0])
    for _ in range(100):
        r = rng.random(4) + 1e-9
        assert abs(deviation(r, w) - deviation_direct(r, w)) < 1e-14


def test_deviation_undefined_cases():
    with pytest.raises(UndefinedMetricError):
        deviation(np.array([1.0]), np.array([1.0]))
    with pytest.raises(UndefinedMetricError):
        deviation(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


finite_rates = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False),
    min_size=2,
    max_size=8,
)
finite_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=2, max_size=8
)


@settings(max_examples=200, deadline=None)
@given(finite_rates, finite_weights, st.floats(min_value=1e-6, max_value=1e6))
def test_deviation_properties(rates, weights, scale):
    k = min(len(rates), len(weights))
    r = np.array(rates[:k])
    w = np.array(weights[:k])
    assume(r.sum() > 0)
    # deviation is undefined once scaling underflows the total to zero,
    # and loses precision once it makes a nonzero rate subnormal
    assume(np.all(scale * r[r > 0] >= np.finfo(float).tiny))
    d = deviation(r, w)
    assert 0.0 <= d <= 1.0 + 1e-12
    # scale invariance
    assert abs(deviation(scale * r, w) - d) < 1e-9
    # permutation equivariance
    perm = np.random.default_rng(0).permutation(k)
    assert abs(deviation(r[perm], w[perm]) - d) < 1e-12


def test_deviation_zero_iff_proportional():
    w = np.array([1.0, 2.0, 3.0])
    r = 0.7 * w
    assert deviation(r, w) < 1e-12
    r2 = r.copy()
    r2[0] *= 1.01
    assert deviation(r2, w) > 1e-12


def test_min_weighted_rate():
    r = np.array([1.0, 4.0, 9.0])
    w = np.array([1.0, 2.0, 4.0])
    assert min_weighted_rate(r, w) == 1.0
    assert min_weighted_rate(np.array([3.0, 0.0]), np.array([1.0, 1.0])) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = rng.random(6)
        w = rng.random(6) + 0.1
        assert min_weighted_rate(r, w) == min(a / b for a, b in zip(r, w))


def test_mean_ci():
    mean, half = mean_ci([1.0, 1.0, 1.0])
    assert mean == 1.0 and half == 0.0
    mean, half = mean_ci([0.0, 2.0])
    assert mean == 1.0 and half > 0
    with pytest.raises(UndefinedMetricError):
        mean_ci([])
