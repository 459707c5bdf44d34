"""Fairness and throughput metrics over per-user rate vectors."""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError

__all__ = ["deviation", "min_weighted_rate", "mean_ci"]


def deviation(rates: np.ndarray, weights: np.ndarray) -> float:
    """Normalised L1 distance between rate shares and weight shares.

    Zero means the rates are exactly proportional to the requested-rate
    weights; one is the worst case (all rate on the least-weighted
    user).  Undefined for a single user or an all-zero rate vector.
    """
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if rates.size < 2:
        raise UndefinedMetricError("deviation needs at least two users")
    total_rate = rates.sum()
    if not total_rate > 0:
        raise UndefinedMetricError("deviation undefined for zero total rate")
    weight_shares = weights / weights.sum()
    rate_shares = rates / total_rate
    denom = 2.0 - 2.0 * weight_shares.min()
    if not denom > 0:
        raise UndefinedMetricError("deviation denominator is zero")
    return float(np.abs(rate_shares - weight_shares).sum() / denom)


def min_weighted_rate(rates: np.ndarray, weights: np.ndarray) -> float:
    """Smallest rate-to-weight ratio over users."""
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float((rates / weights).min())


def mean_ci(values) -> tuple[float, float]:
    """Mean and 95% normal-approximation half-width over trials."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise UndefinedMetricError("mean_ci of empty sample")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / np.sqrt(arr.size)
    return mean, half
