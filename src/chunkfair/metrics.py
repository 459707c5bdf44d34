"""Fairness and throughput metrics over per-user rate vectors."""

from __future__ import annotations

import math

import numpy as np

from .errors import UndefinedMetricError

__all__ = ["deviation", "min_weighted_rate", "mean_ci"]

# numpy adds fewer float64 terms than this in order, and sums longer runs pairwise.
_PAIRWISE_FROM = 8


def _total(xs) -> float:
    """``float(np.array(xs).sum())`` of a list or 1-D array of floats, bit for bit.

    numpy adds fewer than ``_PAIRWISE_FROM`` float64 terms in order,
    starting from 0.0, and sums longer runs pairwise; so a short list is
    added here in plain floats, which is faster than building an array,
    and a long one is handed to numpy, an array as it is.  The per-user
    values of the PAs and of the row metrics are summed through this one
    helper.
    """
    if len(xs) >= _PAIRWISE_FROM:
        return float(np.asarray(xs).sum())
    total = 0.0
    for x in xs:
        total += x
    return total


def _min(xs) -> float:
    """``float(np.array(xs).min())`` of a non-empty list or 1-D array of floats, bit for bit.

    numpy scans fewer than 8 float64 items in order, keeping any NaN and
    else the last least item (which tells -0.0 from 0.0), so a short
    list is scanned here in plain floats; a long one is handed to
    numpy, an array as it is, whose vector loop picks among equal zeros
    in its own order.
    """
    if len(xs) >= _PAIRWISE_FROM:
        return float(np.asarray(xs).min())
    least = xs[0]
    for x in xs:
        if not least < x and least == least:
            least = x
    return least


def _paired(rates, weights) -> tuple[np.ndarray, np.ndarray]:
    """The rates and weights as float arrays; ValueError unless both are 1-D of one length."""
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if rates.ndim != 1 or rates.shape != weights.shape:
        raise ValueError(f"need one weight per rate, got shapes {rates.shape} and {weights.shape}")
    return rates, weights


def deviation(rates: np.ndarray, weights: np.ndarray) -> float:
    """Normalised L1 distance between rate shares and weight shares.

    Zero means the rates are exactly proportional to the requested-rate
    weights; one is the worst case (all rate on the least-weighted
    user).  Undefined for a single user or an all-zero rate vector.
    Computed in numpy's order (``_total``, ``_min``): in plain floats
    below ``_PAIRWISE_FROM`` users, on the given arrays from there.  The
    weights must be positive: a zero weight total raises
    ZeroDivisionError in plain floats and gives NaN on arrays.
    """
    rates, weights = _paired(rates, weights)
    if rates.size < 2:
        raise UndefinedMetricError("deviation needs at least two users")
    if rates.size < _PAIRWISE_FROM:
        rates, weights = rates.tolist(), weights.tolist()
    total_rate = _total(rates)
    if not total_rate > 0:
        raise UndefinedMetricError("deviation undefined for zero total rate")
    total_weight = _total(weights)
    if isinstance(rates, list):
        weight_shares = [w / total_weight for w in weights]
        gaps = [abs(r / total_rate - s) for r, s in zip(rates, weight_shares)]
    else:
        weight_shares = weights / total_weight
        gaps = np.abs(rates / total_rate - weight_shares)
    denom = 2.0 - 2.0 * _min(weight_shares)
    if not denom > 0:
        raise UndefinedMetricError("deviation denominator is zero")
    return _total(gaps) / denom


def min_weighted_rate(rates: np.ndarray, weights: np.ndarray) -> float:
    """Smallest rate-to-weight ratio over users, in numpy's order (``_min``).

    In plain floats below ``_PAIRWISE_FROM`` users, where a zero weight
    raises ZeroDivisionError; on the given arrays from there.
    """
    rates, weights = _paired(rates, weights)
    if rates.size >= _PAIRWISE_FROM:
        return _min(rates / weights)
    return _min([r / w for r, w in zip(rates.tolist(), weights.tolist())])


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95% normal-approximation half-width over trials.

    The mean and the sample standard deviation are computed as
    ``arr.mean()`` and ``arr.std(ddof=1)`` compute them, bit for bit,
    without their Python wrappers: the sum over n, then the summed
    squared deviations over n - 1, then the square root.
    """
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    if n == 0:
        raise UndefinedMetricError("mean_ci of empty sample")
    mean = float(np.add.reduce(arr)) / n
    if n < 2:
        return mean, 0.0
    spread = arr - mean
    std = math.sqrt(float(np.add.reduce(spread * spread)) / (n - 1))
    return mean, 1.96 * std / math.sqrt(n)
