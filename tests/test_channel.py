import numpy as np
import pytest

from chunkfair import (
    ConfigError,
    UserProfile,
    frequency_response,
    generate_taps,
    realize_channel,
    subcarrier_gains,
    substream,
)

from oracles import dft_direct


def test_profile_validation():
    with pytest.raises(ConfigError):
        UserProfile(tap_count=0)
    with pytest.raises(ConfigError):
        UserProfile(tap_count=4, rate_weight=0.0)


def test_single_tap_is_flat():
    rng = substream(11, 0, 0, 0, 0)
    ch = realize_channel(UserProfile(1), 64, 1.0, rng)
    assert ch.gains.max() == ch.gains.min()
    assert np.allclose(np.abs(ch.response), np.abs(ch.taps[0]))


def test_delta_taps_give_unit_response():
    h = frequency_response(np.array([1.0]), 8)
    assert np.allclose(h, np.ones(8))


def test_two_taps_n4_null():
    # H_2 = 1 + exp(-j pi) = 0 for taps (1, 1), N = 4
    h = frequency_response(np.array([1.0, 1.0]), 4)
    assert abs(h[2]) < 1e-14
    assert abs(h[0] - 2.0) < 1e-14


def test_fft_matches_direct_sum():
    rng = substream(3, 0, 0, 0, 0)
    taps = generate_taps(UserProfile(8), rng)
    fast = frequency_response(taps, 512)
    direct = dft_direct(taps, 512)
    err = np.abs(fast - direct).max() / np.abs(direct).max()
    assert err < 1e-10


def test_stacked_response_matches_row_by_row_bit_for_bit():
    # All 19 links of a user, an FFR edge user's 7 (cell 0 and the co-band
    # cells) and the 12 that a no-FFR read adds later.
    edge = (0, 7, 9, 11, 13, 15, 17)
    rest = tuple(cell for cell in range(19) if cell not in edge)
    for n, taps in ((512, 32), (128, 4), (16, 16), (12, 1)):
        stacked = np.stack([
            generate_taps(UserProfile(taps), substream(5, 0, 0, 0, cell)) for cell in range(19)
        ])
        for cells in (range(19), edge, rest):
            rows = stacked[list(cells)]
            batched = frequency_response(rows, n)
            assert batched.shape == (len(cells), n)
            for row, response in zip(rows, batched):
                assert np.array_equal(response, frequency_response(row, n))


def test_same_seed_identical_draws():
    a = generate_taps(UserProfile(6), substream(42, 0, 7, 3, 0))
    b = generate_taps(UserProfile(6), substream(42, 0, 7, 3, 0))
    assert np.array_equal(a, b)


def test_substreams_differ_across_path():
    base = generate_taps(UserProfile(6), substream(42, 0, 7, 3, 0))
    for path in [(0, 7, 3, 1), (0, 7, 4, 0), (0, 8, 3, 0), (1, 7, 3, 0)]:
        other = generate_taps(UserProfile(6), substream(42, *path))
        assert not np.array_equal(base, other)


@pytest.mark.parametrize("seed, path", [
    (0, (0, 0, 0, 0)),
    (42, (0, 7, 0, 3)),
    (2**32 - 1, (1, 0)),
    (2**32 + 5, (0, 7, 3, 0)),
    (2**64 + 1, (1, 0)),
])
def test_substream_matches_the_int_tuple_seed_sequence(seed, path):
    rng = substream(seed, *path)
    reference = np.random.SeedSequence(entropy=(seed, *path))
    assert np.array_equal(rng.bit_generator.seed_seq.pool, reference.pool)
    expected = np.random.default_rng(reference).standard_normal(8)
    assert np.array_equal(rng.standard_normal(8), expected)


def test_unit_energy_monte_carlo():
    rng = substream(2024, 0, 0, 0, 0)
    draws = 100_000
    scale = np.sqrt(1.0 / 8.0)  # 4 taps
    total = 0.0
    for _ in range(draws):
        taps = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        total += np.sum(np.abs(taps) ** 2)
    assert 0.99 <= total / draws <= 1.01


def test_unit_energy_via_generate_taps():
    rng = substream(7, 0, 0, 0, 0)
    mean = np.mean(
        [np.sum(np.abs(generate_taps(UserProfile(4), rng)) ** 2) for _ in range(20_000)]
    )
    assert 0.97 <= mean <= 1.03


def test_parseval_identity():
    for seed in range(40):
        ell = 1 + seed % 16
        ch = realize_channel(UserProfile(ell), 128, 1.0, substream(seed, 0, 0, 0, 0))
        lhs = np.sum(np.abs(ch.response) ** 2)
        rhs = 128 * np.sum(np.abs(ch.taps) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_gain_oracle_and_examples():
    rng = substream(5, 0, 0, 0, 0)
    h = generate_taps(UserProfile(8), rng)
    resp = frequency_response(h, 32)
    gains = subcarrier_gains(resp, 0.5)
    expected = np.array([abs(x) ** 2 / 0.5 for x in resp])
    assert np.allclose(gains, expected, rtol=1e-12)
    assert subcarrier_gains(np.array([0.0 + 0j]), 2.0)[0] == 0.0
    v = subcarrier_gains(np.array([np.sqrt(2.0) + 0j]), 2.0)
    assert abs(v[0] - 1.0) < 1e-14


def test_gain_requires_positive_noise():
    with pytest.raises(ConfigError):
        subcarrier_gains(np.ones(4, dtype=complex), 0.0)


def test_too_many_taps_rejected():
    with pytest.raises(ConfigError):
        frequency_response(np.ones(9, dtype=complex), 8)
    with pytest.raises(ConfigError):
        frequency_response(np.ones((3, 9), dtype=complex), 8)
    # the length limit applies per row, not to the stacked size
    assert frequency_response(np.ones((19, 8), dtype=complex), 8).shape == (19, 8)
    with pytest.raises(ConfigError):
        frequency_response(np.array([], dtype=complex), 8)
