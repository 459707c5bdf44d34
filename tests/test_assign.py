import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfair import (
    AllocationError,
    Assignment,
    ChunkfairError,
    ConfigError,
    InfeasibleError,
    OracleSizeError,
    OrderedGains,
    UserProfile,
    build_grid,
    chunk_rates,
    exact_pa_oracle,
    exhaustive_sa_oracle,
    linear_coefficients,
    normalized_rates,
    proposed_pa,
    proposed_sa,
    realize_channel,
    run_experiment,
    run_sa,
    shen_sa,
    static_sa,
    substream,
    sum_rate_bound,
    uniform_pa,
    user_rates,
)
from chunkfair import assign, power
from chunkfair.assign import _greedy_sa

from oracles import (
    assignment_record,
    chunk_rates_direct,
    exhaustive_sa_oracle_direct,
    proposed_sa_direct,
    shen_sa_direct,
)


def chunks_of(assignment, user):
    return [m for m, owner in enumerate(assignment.owners) if owner == user]


def random_gains(n_users, n, seed, taps=4):
    g = np.empty((n_users, n))
    for k in range(n_users):
        g[k] = realize_channel(UserProfile(taps), n, 1.0, substream(seed, 0, 0, k, 0)).gains
    return g


# ---------------------------------------------------------------- grid

def test_grid_exact_division():
    g = build_grid(512, 4)
    assert g.n_chunks == 128
    assert np.all(g.chunk_sizes() == 4)


def test_grid_remainder_goes_to_last_chunk():
    g = build_grid(128, 12)
    assert g.n_chunks == 10
    sizes = g.chunk_sizes()
    assert np.all(sizes[:-1] == 12)
    assert sizes[-1] == 20
    # union of chunk ranges covers 0..N-1 exactly once
    stops = np.cumsum(sizes)
    seen = np.concatenate([np.arange(stop - size, stop) for size, stop in zip(sizes, stops)])
    assert np.array_equal(seen, np.arange(128))


def test_grid_single_chunk():
    g = build_grid(8, 8)
    assert g.n_chunks == 1
    assert g.chunk_sizes()[0] == 8


def test_grid_chunk_sizes_built_once_and_read_only():
    g = build_grid(10, 3)
    assert g.chunk_sizes() is g.chunk_sizes()
    assert g.chunk_sizes().tolist() == [3, 3, 4]
    with pytest.raises(ValueError):
        g.chunk_sizes()[0] = 1
    same = build_grid(10, 3)
    assert g == same and hash(g) == hash(same)
    assert "sizes" not in repr(g)


def test_grid_rejects_bad_sizes():
    for n, l in ((8, 0), (8, 9), (0, 1)):
        with pytest.raises(ConfigError):
            build_grid(n, l)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=600))
def test_grid_partition_property(n, l):
    if l > n:
        with pytest.raises(ConfigError):
            build_grid(n, l)
        return
    grid = build_grid(n, l)
    sizes = grid.chunk_sizes()
    assert grid.n_chunks == n // l
    assert np.all(sizes[:-1] == l)
    assert sizes[-1] == l + n % l
    assert sizes.sum() == n
    # chunk m starts at m * L; the last chunk runs on to N
    chunk_of = np.repeat(np.arange(grid.n_chunks), sizes)
    assert np.array_equal(chunk_of, np.minimum(np.arange(n) // l, grid.n_chunks - 1))


# ---------------------------------------------------------------- rates

def test_chunk_rates_hand_value():
    grid = build_grid(4, 2)
    table = chunk_rates(np.array([[1.0, 1.0, 3.0, 3.0]]), grid, 1.0)
    assert np.allclose(table, [[0.5, 1.0]])


def test_chunk_rates_match_per_chunk_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    for n, l in ((128, 1), (128, 3), (128, 12), (100, 7), (37, 5), (9, 9), (17, 16), (512, 5)):
        grid = build_grid(n, l)
        gains = rng.exponential(size=(4, n))
        for power, n_total in ((1.0, None), (0.37, 1024)):
            table = chunk_rates(gains, grid, power, n_total=n_total)
            assert np.array_equal(table, chunk_rates_direct(gains, grid, power, n_total))
        assert np.array_equal(chunk_rates(gains[0], grid, 2.0),
                              chunk_rates_direct(gains[0], grid, 2.0))


def test_chunk_rates_zero_cases():
    grid = build_grid(8, 2)
    assert np.all(chunk_rates(np.zeros((2, 8)), grid, 1.0) == 0.0)
    assert np.all(chunk_rates(np.ones((2, 8)), grid, 0.0) == 0.0)
    with pytest.raises(ConfigError):
        chunk_rates(np.ones((2, 8)), grid, -1.0)
    with pytest.raises(ConfigError, match="7 columns"):
        chunk_rates(np.ones((2, 7)), grid, 1.0)


def test_normalized_rates_examples():
    r = np.array([[3.0], [1.0]])
    nr = normalized_rates(r)
    assert np.allclose(nr, [[1.5], [0.5]])
    same = normalized_rates(np.array([[2.0], [2.0]]))
    assert np.allclose(same, 1.0)


def test_normalized_rates_mean_identity():
    rng = np.random.default_rng(0)
    r = rng.random((5, 9))
    nr = normalized_rates(r)
    assert np.allclose(nr.mean(axis=0), 1.0, atol=1e-12)
    assert np.allclose(nr.sum(axis=0), 5.0, atol=1e-12)


def test_normalized_rates_degenerate_chunk_is_neutral():
    r = np.array([[1.0, 0.0], [3.0, 0.0]])
    nr = normalized_rates(r)
    assert np.allclose(nr[:, 1], 1.0)
    assert np.allclose(nr.mean(axis=0), 1.0)


# ---------------------------------------------------------------- proposed SA

def test_proposed_sa_manual_trace():
    # strong user 0, weak user 1; normalised selection protects user 1
    rates = np.array([[1.0, 0.9, 0.8], [0.3, 0.1, 0.1]])
    grid = build_grid(3, 1)
    a, _ = proposed_sa(rates, np.array([1.0, 1.0]), grid)
    assert a.owners == (1, 0, 1)
    assert chunks_of(a, 0) == [1]
    assert chunks_of(a, 1) == [0, 2]


def test_proposed_sa_single_user_gets_everything():
    rates = np.array([[0.5, 0.2, 0.9, 0.1]])
    a, counts = proposed_sa(rates, np.array([1.0]), build_grid(4, 1))
    assert a.owners == (0, 0, 0, 0)


def test_proposed_sa_square_case_is_matching():
    rng = np.random.default_rng(1)
    rates = rng.random((5, 5)) + 0.01
    a, counts = proposed_sa(rates, np.ones(5), build_grid(5, 1))
    assert sorted(a.owners) == [0, 1, 2, 3, 4]
    assert counts.phase2_argmax_scanned == 0
    assert counts.phase2_argmin_scanned == 0


def test_proposed_sa_rejects_more_users_than_chunks():
    with pytest.raises(InfeasibleError):
        proposed_sa(np.ones((3, 2)), np.ones(3), build_grid(2, 1))


def test_proposed_sa_partition_and_coverage():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n_users = rng.integers(1, 6)
        n = int(rng.integers(n_users, 40))
        grid = build_grid(n, 1)
        rates = rng.random((n_users, n)) + 1e-6
        a, _ = proposed_sa(rates, rng.random(n_users) + 0.1, grid)
        assert len(a.owners) == grid.n_chunks
        assert set(a.owners) <= set(range(n_users))
        assert a.subcarrier_counts().sum() == n
        assert min(a.owners.count(k) for k in range(n_users)) >= 1


def test_proposed_sa_accumulates_assigned_rates():
    rng = np.random.default_rng(9)
    rates = rng.random((3, 8)) + 0.01
    grid = build_grid(8, 1)
    a, _ = proposed_sa(rates, np.ones(3), grid)
    # recompute accumulated rates from ownership
    for k in range(3):
        assert rates[k, chunks_of(a, k)].sum() >= 0


def test_scale_invariance_of_selection():
    weights = np.array([1.0, 2.0, 1.0])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        gains = rng.lognormal(0.0, 1.0, size=(3, 12))
        grid = build_grid(12, 1)
        base = chunk_rates(gains, grid, 1.0)
        a0, _ = proposed_sa(base, weights, grid)
        # a hair of gain scaling cannot flip any tie-free comparison
        tiny = chunk_rates(gains * (1.0 + 1e-12), grid, 1.0)
        a1, _ = proposed_sa(tiny, weights, grid)
        assert a0.owners == a1.owners
        # a large common scale may reorder normalised rates; ownership must
        # only change when some per-user ranking actually flips
        big = chunk_rates(gains * 2.0, grid, 1.0)
        a2, _ = proposed_sa(big, weights, grid)
        if a2.owners != a0.owners:
            r0 = np.argsort(normalized_rates(base), axis=1)
            r2 = np.argsort(normalized_rates(big), axis=1)
            assert not np.array_equal(r0, r2)


# ---------------------------------------------------------------- shen SA

def test_shen_sa_manual_trace_serial_bias():
    rates = np.array([[1.0, 0.9, 0.8], [0.3, 0.1, 0.1]])
    grid = build_grid(3, 1)
    a, _ = shen_sa(rates, np.array([1.0, 1.0]), grid)
    # user 0 takes the globally best chunk first
    assert a.owners == (0, 1, 1)


def test_shen_sa_identical_users_favour_first():
    rates = np.array([[0.3, 0.9, 0.5], [0.3, 0.9, 0.5]])
    a, _ = shen_sa(rates, np.ones(2), build_grid(3, 1))
    assert a.owners[1] == 0  # chunk with rate 0.9 went to user 0


def test_shen_sa_single_user():
    a, _ = shen_sa(np.array([[0.1, 0.2]]), np.ones(1), build_grid(2, 1))
    assert a.owners == (0, 0)


def test_shen_sa_infeasible():
    with pytest.raises(InfeasibleError):
        shen_sa(np.ones((3, 2)), np.ones(3), build_grid(2, 1))


def test_greedy_schemes_reject_non_finite_tables():
    # the kernel's sorted chunk orders and first-minimum picks need finite rates
    table = np.array([[1.0, -np.inf, -np.inf], [5.0, 5.0, 5.0]])
    for scheme in (proposed_sa, shen_sa):
        for bad in (table, np.where(table < 0, np.nan, table)):
            with pytest.raises(ConfigError):
                scheme(bad, np.ones(2), build_grid(3, 1))


def test_greedy_schemes_reject_non_finite_weights():
    table = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    for scheme in (proposed_sa, shen_sa):
        for bad in (np.inf, np.nan, 0.0):
            with pytest.raises(ConfigError):
                scheme(table, np.array([1.0, bad]), build_grid(3, 1))


def test_greedy_schemes_reject_a_table_that_is_not_k_by_m_before_assigning():
    grid = build_grid(6, 1)
    for scheme in (proposed_sa, shen_sa):
        for table, weights in ((np.ones(6), np.ones(1)), (np.ones((2, 5)), np.ones(2)),
                               (np.ones((2, 7)), np.ones(2)), (np.ones((1, 2, 6)), np.ones(1))):
            with pytest.raises(ConfigError, match=r"rate table must be \(K, 6\)"):
                scheme(table, weights, grid)


# One instance with K = 3 users, M = 6 chunks of one subcarrier, for every
# public call that reads rate weights; K comes from the table or the gains,
# except in the exhaustive oracle, which reads it from the weights.
_K, _P = 3, 6.0
_GRID = build_grid(6, 1)
_GAINS = np.random.default_rng(8).exponential(size=(_K, 6)) + 0.1
_TABLE = chunk_rates(_GAINS, _GRID, _P / 6)
_STATIC = static_sa(_K, _GRID)


def _oracle_with(weights):
    def pa_rates(assignment):
        return user_rates(exact_pa_oracle(assignment, _GAINS, weights, _P).powers, _GAINS)

    bound = functools.partial(sum_rate_bound, _GRID, _GAINS, _P, weights=weights)
    return exhaustive_sa_oracle(weights, _GRID, pa_rates, upper_bound=bound)


# (function, variant) -> a call of it with the weights w.  test_source checks
# that every public function of assign and power with a ``weights`` parameter
# is listed.  static_sa takes the user count itself, for which K - 1 and K + 1
# are valid, so it is checked at count 0 only (see below).
WEIGHTS_ENTRIES = {
    ("proposed_sa", ""): lambda w: proposed_sa(_TABLE, w, _GRID),
    ("shen_sa", ""): lambda w: shen_sa(_TABLE, w, _GRID),
    **{("run_sa", scheme): lambda w, scheme=scheme: run_sa(scheme, _TABLE, w, _GRID)
       for scheme in ("proposed", "shen", "static")},
    ("exhaustive_sa_oracle", ""): _oracle_with,
    ("proposed_pa", ""): lambda w: proposed_pa(_STATIC, _GAINS, w, _P),
    ("linear_coefficients", ""): lambda w: linear_coefficients([OrderedGains.of(np.sort(g)) for g in _GAINS], w),
    ("exact_pa_oracle", ""): lambda w: exact_pa_oracle(_STATIC, _GAINS, w, _P),
    ("sum_rate_bound", ""): lambda w: sum_rate_bound(_GRID, _GAINS, _P, np.array([_STATIC.owners]), weights=w),
    ("static_sa", ""): lambda w: static_sa(len(w), _GRID),
}


@pytest.mark.parametrize("count", [_K - 1, _K + 1, 0])
@pytest.mark.parametrize("entry", list(WEIGHTS_ENTRIES), ids=lambda entry: "-".join(filter(None, entry)))
def test_every_weights_entry_rejects_a_wrong_weight_count(entry, count):
    call = WEIGHTS_ENTRIES[entry]
    call(np.ones(_K))  # the right count is accepted
    if entry[0] == "static_sa" and count:
        assert call(np.ones(count)).n_users == count
        return
    with pytest.raises((ConfigError, InfeasibleError)):
        call(np.ones(count))


# ---------------------------------------------------------------- static SA

def test_static_sa_round_robin():
    a = static_sa(2, build_grid(4, 1))
    assert a.owners == (0, 1, 0, 1)
    assert chunks_of(a, 0) == [0, 2]


def test_static_sa_identity_matching():
    a = static_sa(3, build_grid(3, 1))
    assert a.owners == (0, 1, 2)


def test_static_sa_channel_independent_and_infeasible():
    assert static_sa(2, build_grid(6, 2)).owners == static_sa(2, build_grid(6, 2)).owners
    with pytest.raises(InfeasibleError):
        static_sa(4, build_grid(3, 1))


# ---------------------------------------------------------------- greedy kernel

def test_greedy_schemes_match_direct_references():
    # K = 1 and K = M every fourth table each; every other table is an
    # integer table with integer weights, so ties are everywhere.
    rng = np.random.default_rng(20240)
    for case in range(400):
        n_users = 1 if case % 4 == 1 else int(rng.integers(1, 9))
        n_chunks = n_users if case % 4 == 0 else int(rng.integers(n_users, 50))
        if case % 2:
            table = rng.integers(0, 3, size=(n_users, n_chunks)).astype(float)
            weights = rng.integers(1, 3, size=n_users).astype(float)
        else:
            table = rng.random((n_users, n_chunks))
            weights = rng.random(n_users) + 0.1
        grid = build_grid(n_chunks, 1)
        for scheme, reference in ((proposed_sa, proposed_sa_direct), (shen_sa, shen_sa_direct)):
            a, counts = scheme(table, weights, grid)
            owners, ref_counts = reference(table, weights)
            assert a.owners == owners, (case, scheme.__name__)
            assert dataclasses.asdict(counts) == ref_counts, (case, scheme.__name__)


def _tie_heavy_tables(n_users, n_chunks, rng):
    """Two (table, weights) pairs full of the ties the greedy scans must break.

    The first is continuous, but every fifth chunk is all-zero (neutral
    normalised rates), every seventh has one rate shared by all users,
    and users 0 and 1 have identical rows and weights, so their weighted
    rates tie exactly.  The second is an integer table with integer
    weights.
    """
    table = rng.exponential(size=(n_users, n_chunks))
    table[:, ::5] = 0.0
    table[:, 3::7] = rng.exponential(size=n_chunks)[3::7]
    table[1] = table[0]
    weights = np.tile([1.0, 1.0, 2.0, 0.5], n_users // 4)
    integer_table = rng.integers(0, 3, size=(n_users, n_chunks)).astype(float)
    integer_weights = rng.integers(1, 3, size=n_users).astype(float)
    return (table, weights), (integer_table, integer_weights)


@pytest.mark.parametrize("n_users", [4, 8, 16])
@pytest.mark.parametrize("n_chunks", [128, 512, 1024])
def test_greedy_schemes_match_direct_references_at_workload_sizes(n_users, n_chunks):
    rng = np.random.default_rng(1000 * n_users + n_chunks)
    grid = build_grid(n_chunks, 1)
    for case, (table, weights) in enumerate(_tie_heavy_tables(n_users, n_chunks, rng)):
        kept = table.copy()
        for scheme, reference in ((proposed_sa, proposed_sa_direct), (shen_sa, shen_sa_direct)):
            a, counts = scheme(table, weights, grid)
            owners, ref_counts = reference(table, weights)
            assert a.owners == owners, (case, scheme.__name__)
            assert dataclasses.asdict(counts) == ref_counts, (case, scheme.__name__)
            assert np.array_equal(table, kept)
        scores = normalized_rates(table)
        kept_scores = scores.copy()
        _greedy_sa(scores, table, weights, grid, least_favoured_first=True)
        assert np.array_equal(scores, kept_scores) and np.array_equal(table, kept)


def test_run_sa_builds_each_comparison_count_once_per_shape():
    rng = np.random.default_rng(12)
    weights, grid = np.array([1.0, 2.0, 1.0]), build_grid(9, 1)
    tables = [rng.random((3, 9)) + 0.01 for _ in range(4)]
    assign._comparison_count.cache_clear()
    for table in tables:
        for scheme, sa in (("proposed", proposed_sa), ("shen", shen_sa)):
            assert run_sa(scheme, table, weights, grid) == sa(table, weights, grid)[0]
    # one build per (K, M, phase-one order); every later run reuses it
    assert assign._comparison_count.cache_info().misses == 2
    assert proposed_sa(tables[0], weights, grid)[1] is proposed_sa(tables[1], weights, grid)[1]


def test_run_sa_rejects_an_unknown_scheme():
    with pytest.raises(ConfigError, match="unknown SA scheme 'greedy'"):
        run_sa("greedy", np.ones((2, 4)), np.ones(2), build_grid(4, 1))


# ---------------------------------------------------------------- counters

def test_counter_closed_forms_proposed():
    rng = np.random.default_rng(3)
    n_users, n_chunks = 4, 8
    table = rng.random((n_users, n_chunks)) + 0.01
    _, c = proposed_sa(table, np.ones(n_users), build_grid(n_chunks, 1))
    strict = sum(i * (n_chunks - n_users + i - 1) for i in range(1, n_users + 1))
    scanned = sum(i * (n_chunks - n_users + i) for i in range(1, n_users + 1))
    assert c.phase1_argmax_strict == strict
    assert c.phase1_argmax_scanned == scanned
    # phase 2 scans: argmin over K users plus argmax over remaining chunks
    p2 = sum(n_users + (n_chunks - n_users - t) for t in range(n_chunks - n_users))
    assert c.phase2_argmin_scanned + c.phase2_argmax_scanned == p2


def test_counter_closed_forms_shen():
    rng = np.random.default_rng(4)
    n_users, n_chunks = 4, 9
    table = rng.random((n_users, n_chunks)) + 0.01
    _, c = shen_sa(table, np.ones(n_users), build_grid(n_chunks, 1))
    assert c.phase1_argmax_scanned == sum(
        n_chunks - n_users + i for i in range(1, n_users + 1)
    )
    assert c.phase1_argmin_scanned == 0
    assert c.phase2_argmax_scanned + c.phase2_argmin_scanned == sum(
        n_users + i for i in range(1, n_chunks - n_users + 1)
    )


def test_counter_square_case_has_empty_phase2():
    rng = np.random.default_rng(5)
    table = rng.random((4, 4)) + 0.01
    _, c = proposed_sa(table, np.ones(4), build_grid(4, 1))
    assert c.phase2_argmax_scanned == 0
    assert c.phase2_argmin_strict == 0


def test_counter_cubic_scaling():
    rng = np.random.default_rng(6)

    def total(n_users, n_chunks):
        table = rng.random((n_users, n_chunks)) + 0.01
        _, c = proposed_sa(table, np.ones(n_users), build_grid(n_chunks, 1))
        return sum(v for name, v in dataclasses.asdict(c).items() if name.endswith("_scanned"))

    ratio = total(16, 32) / total(8, 16)
    assert 0.8 * 8 <= ratio <= 1.2 * 8


# ---------------------------------------------------------------- oracle

def _uniform_rates_solver(gains, total_power):
    def solver(assignment):
        alloc = uniform_pa(assignment, total_power)
        return user_rates(alloc.powers, gains)

    return solver


def test_oracle_single_user_trivial():
    gains = random_gains(1, 6, seed=1)
    grid = build_grid(6, 2)
    res = exhaustive_sa_oracle(np.ones(1), grid, _uniform_rates_solver(gains, 6.0))
    assert res.assignment.owners == (0, 0, 0)
    assert res.deviation == 0.0  # undefined for one user


def test_oracle_reads_an_undefined_deviation_as_zero():
    # Every candidate's sum rate is 0, so the owners alone break the tie.
    res = exhaustive_sa_oracle(np.ones(2), build_grid(3, 1), lambda a: np.zeros(2))
    assert (res.assignment.owners, res.sum_rate, res.deviation) == ((0, 0, 1), 0.0, 0.0)


def test_oracle_rejects_a_solver_whose_gains_have_another_user_count():
    with pytest.raises(ConfigError, match="same"):
        exhaustive_sa_oracle(np.ones(2), build_grid(6, 1), _uniform_rates_solver(np.ones((3, 6)), 6.0))


def test_oracle_symmetric_tie_breaks_lexicographic():
    grid = build_grid(2, 1)

    def solver(assignment):
        counts = assignment.subcarrier_counts().astype(float)
        return counts  # fully symmetric users

    res = exhaustive_sa_oracle(np.ones(2), grid, solver)
    assert res.assignment.owners == (0, 1)


def test_oracle_dominates_heuristics():
    for seed in range(8):
        gains = random_gains(2, 8, seed=seed)
        grid = build_grid(8, 2)
        total_power = 8.0
        table = chunk_rates(gains, grid, total_power / 8)
        weights = np.array([1.0, 2.0])
        solver = _uniform_rates_solver(gains, total_power)
        res = exhaustive_sa_oracle(weights, grid, solver)
        for heuristic in (proposed_sa, shen_sa):
            a, _ = heuristic(table, weights, grid)
            assert res.sum_rate + 1e-12 >= float(np.sum(solver(a)))


def _oracle_bits(res):
    """Every field of an OracleResult, floats as their bytes."""
    return (
        res.assignment,
        np.float64(res.sum_rate).tobytes(),
        np.float64(res.deviation).tobytes(),
        res.rates.dtype,
        res.rates.shape,
        res.rates.tobytes(),
        res.candidates,
    )


def _exact_rates_solver(gains, weights, total_power):
    def solver(assignment):
        return user_rates(exact_pa_oracle(assignment, gains, weights, total_power).powers, gains)

    return solver


@pytest.mark.parametrize("n_users,n,chunk_size", [(2, 6, 1), (2, 12, 2), (3, 10, 2), (3, 8, 2)])
def test_oracle_matches_the_search_that_scores_every_deviation(n_users, n, chunk_size):
    grid = build_grid(n, chunk_size)
    weights = np.array([1.0, 2.0, 4.0][:n_users])
    for seed in range(3):
        gains = random_gains(n_users, n, seed=seed, taps=2)
        for snr_db in (-10.0, 0.0, 10.0):
            total_power = n * 10.0 ** (snr_db / 10.0)
            for solver in (_uniform_rates_solver(gains, total_power),
                           _exact_rates_solver(gains, weights, total_power)):
                res = exhaustive_sa_oracle(weights, grid, solver)
                ref = exhaustive_sa_oracle_direct(weights, grid, solver)
                assert _oracle_bits(res) == _oracle_bits(ref)


def _stub_solver(rates_by_owners):
    def solver(assignment):
        return np.array(rates_by_owners.get(assignment.owners, (0.5, 0.5)))

    return solver


def test_oracle_sum_rate_tie_goes_to_the_later_lower_deviation():
    grid = build_grid(3, 1)
    solver = _stub_solver({
        (0, 1, 1): (3.0, 1.0),  # sum 4, deviation 0.5
        (1, 0, 0): (1.6, 1.4),  # lower sum, deviation below 0.5
        (1, 1, 0): (2.0, 2.0),  # sum 4, deviation 0
    })
    res = exhaustive_sa_oracle(np.ones(2), grid, solver)
    assert res.assignment.owners == (1, 1, 0)
    assert res.deviation == 0.0
    assert _oracle_bits(res) == _oracle_bits(exhaustive_sa_oracle_direct(np.ones(2), grid, solver))


def test_oracle_deviation_tie_goes_to_the_smaller_owners():
    grid = build_grid(3, 1)
    solver = _stub_solver({
        (0, 1, 0): (1.0, 3.0),  # sum 4, deviation 0.5
        (1, 0, 1): (3.0, 1.0),  # sum 4, deviation 0.5
    })
    res = exhaustive_sa_oracle(np.ones(2), grid, solver)
    assert res.assignment.owners == (0, 1, 0)
    assert res.deviation == 0.5
    assert _oracle_bits(res) == _oracle_bits(exhaustive_sa_oracle_direct(np.ones(2), grid, solver))


def test_oracle_passes_over_a_first_candidate_with_a_nan_sum_rate():
    # (0, 0, 1) is the first covering map; NaN compares false both ways.
    grid = build_grid(3, 1)
    solver = _stub_solver({(0, 0, 1): (np.nan, 1.0)} | {
        owners: (2.0, 2.0) for owners in [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
    })
    res = exhaustive_sa_oracle(np.ones(2), grid, solver)
    assert res.assignment.owners == (0, 1, 0)
    assert res.sum_rate == 4.0
    assert _oracle_bits(res) == _oracle_bits(exhaustive_sa_oracle_direct(np.ones(2), grid, solver))


def test_oracle_with_only_nan_sum_rates_raises():
    grid = build_grid(3, 1)
    for search in (exhaustive_sa_oracle, exhaustive_sa_oracle_direct):
        with pytest.raises(AllocationError, match="all 6 candidate assignments have a NaN sum rate"):
            search(np.ones(2), grid, lambda a: np.array([np.nan, 1.0]))


def test_oracle_computes_deviation_only_for_candidates_that_can_win(monkeypatch, oracle_small_config):
    # 24 searches over 62 candidates each, all 1,488 with a positive sum rate.
    calls = []
    deviation = assign.deviation

    def counted(rates, weights):
        calls.append(rates.size)
        return deviation(rates, weights)

    monkeypatch.setattr(assign, "deviation", counted)
    run_experiment(oracle_small_config)
    assert 24 <= len(calls) <= 167


def _proposed_rates_solver(gains, weights, total_power):
    def solver(assignment):
        return user_rates(proposed_pa(assignment, gains, weights, total_power).powers, gains)

    return solver


@pytest.mark.parametrize("n_users", [2, 3])
def test_bounded_oracle_returns_the_full_searchs_result(n_users):
    # Every field but ``solved``, candidates included, under each PA with
    # the water-filling bound and under the exact solver also with the
    # rate-weighted one, from -60 to +40 dB.  Where the full search raises
    # a PA error, a bounded one may skip it, so there is nothing to compare.
    rng = np.random.default_rng(40 + n_users)
    compared = 0
    exact_solved = {"water-filling": 0, "weighted": 0}  # maps the exact solver solves
    for instance in range(8):
        n_chunks = int(rng.integers(n_users, 7))
        chunk_size = int(rng.integers(1, 4))
        n = n_chunks * chunk_size + int(rng.integers(0, chunk_size))
        grid = build_grid(n, chunk_size)
        gains = random_gains(n_users, n, seed=instance, taps=min(n, int(rng.integers(1, 5))))
        weights = rng.uniform(0.5, 4.0, n_users)
        total_power = n * 10.0 ** rng.uniform(-6.0, 4.0)
        bound = functools.partial(sum_rate_bound, grid, gains, total_power)
        weighted = functools.partial(bound, weights=weights)
        exact = _exact_rates_solver(gains, weights, total_power)
        for solver, bounds in ((_uniform_rates_solver(gains, total_power), [bound]),
                               (_proposed_rates_solver(gains, weights, total_power), [bound]),
                               (exact, [bound, weighted])):
            try:
                full = exhaustive_sa_oracle(weights, grid, solver)
            except ChunkfairError:
                continue
            assert full.solved == full.candidates
            for name, upper_bound in zip(("water-filling", "weighted"), bounds):
                res = exhaustive_sa_oracle(weights, grid, solver, upper_bound=upper_bound)
                assert _oracle_bits(res) == _oracle_bits(full)
                assert 1 <= res.solved <= res.candidates
                if solver is exact:
                    exact_solved[name] += res.solved
            compared += 1
    assert compared >= 20
    assert exact_solved["weighted"] < exact_solved["water-filling"]


def _recorded_search(weights, grid, solver, upper_bound):
    """The owner tuples one bounded search solves, in order, and its outcome: result bits and ``solved``, or its error."""
    visits = []

    def recorded(assignment):
        visits.append(assignment.owners)
        return solver(assignment)

    try:
        res = exhaustive_sa_oracle(weights, grid, recorded, upper_bound=upper_bound)
    except ChunkfairError as exc:
        return visits, (type(exc).__name__, str(exc))
    return visits, (_oracle_bits(res), res.solved)


def test_floored_search_visits_what_the_plain_bounds_search_visits(monkeypatch):
    # As the harness runs it: each PA's search takes as its floor the best
    # sum rate of the heuristics' assignments under that PA, and the
    # uniform and exact searches of an instance share each block's
    # unit-price water-fill.  From -60 to +20 dB, where some solves fail,
    # at weight ratios up to 1e12, where the margin skips every priced map.
    priced_bound, refined, side = power._priced_bound, {}, ["plain"]

    def counted(g, *args):
        refined[side[0]] += len(g)
        return priced_bound(g, *args)

    monkeypatch.setattr(power, "_priced_bound", counted)
    rng = np.random.default_rng(70)
    errors = 0
    for ratio in (2.0, 1e6, 1e12):
        refined.update(plain=0, floored=0)
        for instance in range(12):
            n_users = int(rng.integers(2, 4))
            chunk_size = int(rng.integers(1, 3))
            n = int(rng.integers(n_users, 7)) * chunk_size + int(rng.integers(0, chunk_size))
            grid = build_grid(n, chunk_size)
            gains = random_gains(n_users, n, seed=200 + instance, taps=min(n, int(rng.integers(1, 5))))
            weights = ratio ** rng.permutation(np.linspace(0.0, 1.0, n_users))
            total_power = n * 10.0 ** ((-60.0, -20.0, 0.0, 20.0)[instance % 4] / 10.0)
            table = chunk_rates(gains, grid, total_power / n)
            heuristics = [proposed_sa(table, weights, grid)[0], shen_sa(table, weights, grid)[0],
                          static_sa(n_users, grid)]
            unit = {}  # owner block bytes -> its unit-price water-fill, shared by both PAs' searches
            for solver, w in ((_uniform_rates_solver(gains, total_power), None),
                              (_exact_rates_solver(gains, weights, total_power), weights)):
                sums = []
                for assignment in heuristics:
                    try:
                        sums.append(float(solver(assignment).sum()))
                    except ChunkfairError:
                        pass
                floor = max([s for s in sums if s == s], default=-math.inf)

                def floored(owners, w=w, floor=floor):
                    key = owners.tobytes()
                    if key not in unit:
                        unit[key] = power._unit_waterfill(grid, gains, total_power, owners)
                    return sum_rate_bound(grid, gains, total_power, owners, w, floor, unit[key])

                side[0] = "plain"
                plain = _recorded_search(weights, grid, solver,
                                         functools.partial(sum_rate_bound, grid, gains, total_power, weights=w))
                side[0] = "floored"
                assert _recorded_search(weights, grid, solver, floored) == plain, (ratio, instance, w)
                errors += isinstance(plain[1][0], str)
        assert refined["floored"] < refined["plain"] if ratio < 1e12 else refined == {"plain": 0, "floored": 0}
    assert errors > 0


def _stub_bound(bounds_by_owners):
    def bound(owners):
        return np.array([bounds_by_owners.get(tuple(row), 1.0) for row in owners.tolist()])

    return bound


# Over the six covering maps of three chunks and two users, (0, 1, 1)
# wins with sum rate 4; every other map sums to 1.
_STUB_RATES = {(0, 1, 1): (2.0, 2.0)}
_STUB_BOUNDS = {(0, 1, 1): 5.0, (1, 0, 0): 4.5, (0, 0, 1): 3.9}


def _recording_solver(rates_by_owners, failing=()):
    solved = []

    def solver(assignment):
        solved.append(assignment.owners)
        if assignment.owners in failing:
            raise AllocationError(f"forced for {assignment.owners}")
        return np.array(rates_by_owners.get(assignment.owners, (0.5, 0.5)))

    return solver, solved


def test_bounded_oracle_visits_by_descending_bound_and_stops_below_the_best():
    grid = build_grid(3, 1)
    solver, solved = _recording_solver(_STUB_RATES)
    res = exhaustive_sa_oracle(np.ones(2), grid, solver, upper_bound=_stub_bound(_STUB_BOUNDS))
    # (1, 0, 0)'s bound 4.5 is not below the best sum 4, so it is solved;
    # the search stops at the next bound, 3.9.
    assert solved == [(0, 1, 1), (1, 0, 0)]
    assert _oracle_bits(res) == _oracle_bits(exhaustive_sa_oracle_direct(np.ones(2), grid, solver))
    assert res.candidates == 6 and res.solved == 2


def test_bounded_oracle_raises_a_visited_candidates_pa_error_but_not_a_skipped_ones():
    grid = build_grid(3, 1)
    want = exhaustive_sa_oracle(np.ones(2), grid, _recording_solver(_STUB_RATES)[0])
    skipped, _ = _recording_solver(_STUB_RATES, failing={(0, 0, 1), (1, 1, 0)})
    res = exhaustive_sa_oracle(np.ones(2), grid, skipped, upper_bound=_stub_bound(_STUB_BOUNDS))
    assert _oracle_bits(res) == _oracle_bits(want)
    visited, _ = _recording_solver(_STUB_RATES, failing={(1, 0, 0)})
    with pytest.raises(AllocationError, match=r"forced for \(1, 0, 0\)"):
        exhaustive_sa_oracle(np.ones(2), grid, visited, upper_bound=_stub_bound(_STUB_BOUNDS))
    with pytest.raises(AllocationError, match="forced"):  # the full search solves every map
        exhaustive_sa_oracle(np.ones(2), grid, skipped)


def test_bounded_oracle_visits_a_nan_bound_first_and_never_skips_it():
    grid = build_grid(3, 1)
    solver, solved = _recording_solver(_STUB_RATES)
    bounds = _STUB_BOUNDS | {(1, 1, 0): np.nan, (1, 0, 1): np.nan}
    exhaustive_sa_oracle(np.ones(2), grid, solver, upper_bound=_stub_bound(bounds))
    assert solved == [(1, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 0)]


def test_bounded_oracle_rejects_a_bound_below_a_visited_sum_rate():
    grid = build_grid(3, 1)
    solver, _ = _recording_solver(_STUB_RATES)
    with pytest.raises(AllocationError, match="exceeds its upper bound"):
        exhaustive_sa_oracle(np.ones(2), grid, solver, upper_bound=_stub_bound({(0, 1, 1): 3.5}))
    with pytest.raises(ConfigError, match="shape"):
        exhaustive_sa_oracle(np.ones(2), grid, solver, upper_bound=lambda owners: np.ones(2))


@pytest.mark.parametrize("n_users,n_chunks", [(2, 8), (3, 6)])
def test_oracle_search_spans_several_bound_blocks(n_users, n_chunks):
    # 512 subcarriers per chunk leave room for few maps in each block of
    # _BOUND_BLOCK owner entries: 16 blocks of 16 maps for K = 2, M = 8,
    # and 35 of 21 for K = 3, M = 6, the last one short.
    grid = build_grid(512 * n_chunks, 512)
    step = assign._BOUND_BLOCK // grid.n_subcarriers
    assert 1 < step < n_users**n_chunks
    table = np.random.default_rng(n_chunks).random((n_users, n_chunks))

    def rates_of(owners):
        return np.array([table[k][np.array(owners) == k].sum() for k in range(n_users)])

    solver, solved = _recording_solver({
        owners: rates_of(owners) for owners in itertools.product(range(n_users), repeat=n_chunks)
    })
    weights = np.arange(1.0, n_users + 1)
    res = exhaustive_sa_oracle(weights, grid, solver)
    covering = [owners for owners in itertools.product(range(n_users), repeat=n_chunks)
                if len(set(owners)) == n_users]
    assert solved == covering
    assert res.candidates == res.solved == sum(
        (-1) ** j * math.comb(n_users, j) * (n_users - j) ** n_chunks for j in range(n_users + 1)
    )
    assert _oracle_bits(res) == _oracle_bits(exhaustive_sa_oracle_direct(weights, grid, solver))


def test_visit_order_memory_is_bounded():
    # K = 2, M = 19: 524,286 covering maps, 10 MB of uint8 rows.  Building
    # them, their bounds and the visit order must stay within 24.2 MB;
    # int64 rows alone would take 80 MB.  The memo keeps the last two
    # (K, M), so searches over other sizes do not add up.
    assign._covering_rows.cache_clear()
    tracemalloc.start()
    try:
        rows, bounds, order = assign._visit_order(2, build_grid(38, 2), None)
        peak = tracemalloc.get_traced_memory()[1]
        assert rows.shape == (2**19 - 2, 19) and rows.dtype == np.uint8 and not rows.flags.writeable
        del rows, bounds, order
        for n_users, n_chunks in ((3, 12), (2, 18), (5, 8), (4, 9), (6, 7)):
            assign._visit_order(n_users, build_grid(n_chunks, 1), None)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        assign._covering_rows.cache_clear()
    assert peak <= 24.2e6
    assert held <= 4e6  # the last two sizes' rows, 1.8 MB; all six would hold 23.7 MB


def test_oracle_cap_enforced():
    grid = build_grid(13, 1)
    assert 3**13 > assign.ORACLE_CAP
    with pytest.raises(OracleSizeError):
        exhaustive_sa_oracle(np.ones(3), grid, lambda a: np.zeros(3))


def test_oracle_rejects_more_users_than_chunks():
    with pytest.raises(InfeasibleError):
        exhaustive_sa_oracle(np.ones(3), build_grid(4, 2), lambda a: np.zeros(3))


# ---------------------------------------------------------------- records

def test_assignment_rejects_malformed_owners():
    grid = build_grid(4, 2)
    for owners in ((0,), (0, 1, 0), (0, 2), (-1, 0)):
        with pytest.raises(ConfigError):
            Assignment(grid=grid, owners=owners, n_users=2)


def test_assignment_subcarrier_owners_follow_grid():
    grid = build_grid(5, 2)  # chunk sizes 2 and 3
    a = Assignment(grid=grid, owners=(1, 0), n_users=3)
    assert a.subcarrier_owners.tolist() == [1, 1, 0, 0, 0]
    assert a.subcarrier_counts().tolist() == [3, 2, 0]
    same = Assignment(grid=grid, owners=(1, 0), n_users=3)
    assert a == same and hash(a) == hash(same)
    assert "subcarrier_owners" not in repr(a)


def test_assignment_record_golden():
    a = static_sa(2, build_grid(4, 1))
    assert assignment_record(a) == "user 1: 1 3\nuser 2: 2 4\n"
