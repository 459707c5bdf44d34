import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunkfair import UndefinedMetricError, deviation, mean_ci, min_weighted_rate
from chunkfair.metrics import _min, _total

from oracles import (deviation_direct, deviation_elementwise, deviation_listed, float_reprs,
                     min_weighted_rate_direct, min_weighted_rate_listed)


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
        assert abs(deviation(r, w) - deviation_elementwise(r, w)) < 1e-14


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


def _metric_outcome(metric, rates, weights):
    try:
        with np.errstate(all="ignore"):
            return float_reprs(metric(rates, weights))
    except UndefinedMetricError as exc:
        return str(exc)


def test_row_metrics_match_their_array_forms_bit_for_bit():
    # K 1-12 puts the sums on both sides of numpy's 8-term switch to pairwise.
    rng = np.random.default_rng(17)
    raised = set()
    for n_users in range(1, 13):
        for i in range(300):
            rates = rng.exponential(1.0, n_users) * 10.0 ** rng.uniform(-6, 3)
            weights = rng.random(n_users) + 0.1
            if i % 4 == 1:  # a zero total, from zeros of either sign
                rates = rng.choice([0.0, -0.0], n_users)
            elif i % 4 == 2:
                rates[rng.random(n_users) < 0.3] = rng.choice([0.0, -0.0, np.nan, np.inf])
            elif i % 4 == 3:
                weights[rng.random(n_users) < 0.2] = np.nan
            for metric, reference in ((deviation, deviation_direct),
                                      (min_weighted_rate, min_weighted_rate_direct)):
                got = _metric_outcome(metric, rates, weights)
                assert got == _metric_outcome(reference, rates, weights)
                if isinstance(got, str):
                    raised.add(got)
            # the row's min_rate and sum_rate
            assert float_reprs(_min(rates.tolist())) == float_reprs(rates.min())
            assert float_reprs(_total(rates.tolist())) == float_reprs(rates.sum())
    assert raised == {"deviation needs at least two users", "deviation undefined for zero total rate",
                      "deviation denominator is zero"}


def test_row_metrics_from_eight_users_match_their_list_forms_bit_for_bit():
    # From K = 8 the metrics hand numpy the arrays they were given; the
    # plain-float list form handed it lists of the same floats.
    rng = np.random.default_rng(29)
    raised = set()
    for n_users in range(8, 17):
        for i in range(200):
            rates = rng.exponential(1.0, n_users) * 10.0 ** rng.uniform(-6, 3)
            weights = rng.random(n_users) + 0.1
            if i % 4 == 1:  # a zero total, from zeros of either sign
                rates = rng.choice([0.0, -0.0], n_users)
            elif i % 4 == 2:
                rates[rng.random(n_users) < 0.3] = rng.choice([0.0, -0.0, np.nan])
            elif i % 4 == 3:
                weights[rng.random(n_users) < 0.2] = np.nan
            for metric, reference in ((deviation, deviation_listed),
                                      (min_weighted_rate, min_weighted_rate_listed)):
                got = _metric_outcome(metric, rates, weights)
                assert got == _metric_outcome(reference, rates, weights)
                if isinstance(got, str):
                    raised.add(got)
    assert raised == {"deviation undefined for zero total rate", "deviation denominator is zero"}


def test_row_metrics_need_one_weight_per_rate():
    for n_users in (3, 8):
        for weights in (np.ones(1), np.ones(n_users + 1), np.ones((n_users, 1))):
            for metric in (deviation, min_weighted_rate):
                with pytest.raises(ValueError, match="one weight per rate"):
                    metric(np.ones(n_users), weights)


def test_mean_ci():
    mean, half = mean_ci([1.0, 1.0, 1.0])
    assert mean == 1.0 and half == 0.0
    mean, half = mean_ci([0.0, 2.0])
    assert mean == 1.0 and half > 0
    with pytest.raises(UndefinedMetricError):
        mean_ci([])


def test_mean_ci_equals_numpys_mean_and_sample_std_bit_for_bit():
    # Sizes 1-7 are summed in order by numpy, 8-40 pairwise; the spread of
    # magnitudes and signs makes each rounding show.
    rng = np.random.default_rng(56)
    for n in range(1, 41):
        for _ in range(25):
            arr = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n) + rng.uniform(-5.0, 5.0)
            mean, half = mean_ci(arr.tolist())
            std = arr.std(ddof=1) if n > 1 else 0.0
            assert float_reprs([mean, half]) == float_reprs([arr.mean(), 1.96 * std / np.sqrt(n)])
