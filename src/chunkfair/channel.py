"""Frequency-selective Rayleigh fading channels on an OFDM grid.

A user's channel is a short FIR filter of ``tap_count`` i.i.d.
circularly-symmetric complex Gaussian taps with a uniform power-delay
profile normalised to unit expected energy (per-tap variance
``1/tap_count``).  The per-subcarrier frequency response is the length-N
DFT of the taps, and the gain-to-noise ratio of subcarrier n is
``|H_n|^2 / noise_power``.  Subcarriers are indexed 0..N-1.

A user's links are drawn together: each link's generator makes one
``standard_normal(2 * tap_count)`` draw, and :func:`generate_taps`
builds the user's taps, :func:`frequency_response` their FFT and
:func:`subcarrier_gains` their gains in one pass each over all rows.
A single-cell user is one link, ``realize_channel``'s one row.

Reproducibility: every random draw comes from a substream generator
built by :func:`substreams`, or :func:`substream` for one path.  A
substream is ``default_rng(SeedSequence(entropy=(master_seed, *path)))``
where the path is a tuple of small non-negative integers, by convention
``(STREAM_CHANNEL, trial, user, cell)`` for channel draws and
``(STREAM_PLACEMENT, trial)`` for user placement.  ``substreams`` seeds
the generators of many paths from one block of entropy words, one row
per path; each row's generator is the one ``substream`` gives for that
path alone.  The derivation is stable across runs, platforms, and
trial execution order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "STREAM_CHANNEL",
    "STREAM_PLACEMENT",
    "UserProfile",
    "ChannelRealization",
    "substream",
    "substreams",
    "generate_taps",
    "frequency_response",
    "subcarrier_gains",
    "realize_channel",
]

STREAM_CHANNEL = 0
STREAM_PLACEMENT = 1


@dataclass(frozen=True)
class UserProfile:
    """Static per-user parameters: fading order and requested-rate weight."""

    tap_count: int
    rate_weight: float = 1.0

    def __post_init__(self):
        if self.tap_count < 1:
            raise ConfigError(f"tap_count must be >= 1, got {self.tap_count}")
        if not 0 < self.rate_weight < math.inf:
            raise ConfigError(f"rate_weight must be finite and > 0, got {self.rate_weight}")


@dataclass(frozen=True)
class ChannelRealization:
    """One drawn channel: taps, per-subcarrier response, and gain-to-noise ratios."""

    taps: np.ndarray
    response: np.ndarray
    gains: np.ndarray


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for one documented substream: ``substreams``' one-row case.

    ``path`` identifies the consumer, e.g. ``(STREAM_CHANNEL, trial,
    user, cell)``.  Identical (seed, path) always yields an identical
    stream; any difference in the path yields an independent one.
    """
    return substreams(master_seed, [path])[0]


def substreams(master_seed: int, paths) -> list[np.random.Generator]:
    """One PCG64 generator per path, in order, each seeded from ``(master_seed, *path)``.

    The paths must have one length and non-negative entries
    (ConfigError otherwise).  When every entry fits one uint32 word, the
    rows ``(master_seed, *path)`` form one read-only uint32 entropy
    block and each generator is seeded from its row; else each row is a
    tuple of Python ints.  Either way each entry is one or more uint32
    words of the seed pool, so the streams are the same.
    """
    rows = [(master_seed, *path) for path in paths]
    if min(map(min, rows), default=0) < 0:
        raise ConfigError(f"substream path entries must be non-negative, got {rows}")
    if len(set(map(len, rows))) > 1:
        raise ConfigError(f"substream paths must have one length, got {rows}")
    if max(map(max, rows), default=0) < 2**32:
        # numpy coerces one block of uint32 words much faster than a tuple of ints per row.
        entropy = np.array(rows, dtype=np.uint32)
        entropy.flags.writeable = False
    else:
        entropy = [tuple(int(e) for e in row) for row in rows]
    return [np.random.default_rng(np.random.SeedSequence(row)) for row in entropy]


def generate_taps(profile: UserProfile, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Draw one complex tap vector per generator: a (len(rngs), tap_count) array.

    Taps are i.i.d. CN(0, 1/tap_count), so the expected total energy
    sum(|h_i|^2) is one regardless of the fading order.  Each generator
    makes one ``standard_normal(2 * tap_count)`` draw, the real parts
    then the imaginary parts (the numbers that two
    ``standard_normal(tap_count)`` calls give); the scale and the
    complex build run once over all rows.
    """
    ell = profile.tap_count
    draws = np.empty((len(rngs), 2 * ell))
    for row, rng in zip(draws, rngs):
        rng.standard_normal(out=row)
    scale = np.sqrt(1.0 / (2.0 * ell))
    return scale * (draws[:, :ell] + 1j * draws[:, ell:])


def frequency_response(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Length-N DFT of the channel taps: H_n = sum_i h_i exp(-j 2 pi i n / N).

    Parameters
    ----------
    taps : complex array, (..., L)
        Channel impulse responses along the last axis, L <= n_subcarriers.
        Leading axes index independent channels and are transformed in
        one call; each row comes out bit-identical to a call on that row.
    n_subcarriers : int
        FFT size N; the response is evaluated at n = 0..N-1.

    Returns
    -------
    np.ndarray
        Complex response, shape (..., N).  The FFT output equals a direct
        evaluation of the sum at every n (to within rounding).
    """
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.size == 0:
        raise ConfigError("taps must contain at least one entry")
    if taps.shape[-1] > n_subcarriers:
        raise ConfigError(
            f"tap count {taps.shape[-1]} exceeds subcarrier count {n_subcarriers}"
        )
    return np.fft.fft(taps, n=n_subcarriers)


def subcarrier_gains(response: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-subcarrier gain-to-noise ratios |H_n|^2 / noise_power."""
    if not noise_power > 0:
        raise ConfigError(f"noise_power must be > 0, got {noise_power}")
    response = np.asarray(response)
    return (response.real**2 + response.imag**2) / noise_power


def realize_channel(
    profile: UserProfile,
    n_subcarriers: int,
    noise_power: float,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw taps and derive the response and gain vectors in one call."""
    taps = generate_taps(profile, [rng])[0]
    response = frequency_response(taps, n_subcarriers)
    gains = subcarrier_gains(response, noise_power)
    return ChannelRealization(taps=taps, response=response, gains=gains)
