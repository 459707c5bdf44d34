import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkfair import (
    Assignment,
    ConfigError,
    InfeasibleError,
    OracleSizeError,
    UserProfile,
    build_grid,
    chunk_rates,
    exhaustive_sa_oracle,
    normalized_rates,
    proposed_sa,
    realize_channel,
    shen_sa,
    static_sa,
    substream,
    uniform_pa,
    user_rates,
)

from oracles import chunk_rates_direct, proposed_sa_direct, shen_sa_direct


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
    seen = np.concatenate([np.arange(g.starts[m], g.stops[m]) for m in range(10)])
    assert np.array_equal(np.sort(seen), np.arange(128))


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
    with pytest.raises(ConfigError):
        build_grid(8, 0)
    with pytest.raises(ConfigError):
        build_grid(8, 9)


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
    assert grid.starts[0] == 0 and grid.stops[-1] == n
    for m in range(1, grid.n_chunks):
        assert grid.starts[m] == grid.stops[m - 1]


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
    assert list(a.chunks_of(0)) == [1]
    assert list(a.chunks_of(1)) == [0, 2]


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
        ind = a.indicator()
        assert np.all(ind.sum(axis=0) == 1)
        assert a.subcarrier_counts().sum() == n
        assert min(len(a.chunks_of(k)) for k in range(n_users)) >= 1


def test_proposed_sa_accumulates_assigned_rates():
    rng = np.random.default_rng(9)
    rates = rng.random((3, 8)) + 0.01
    grid = build_grid(8, 1)
    a, _ = proposed_sa(rates, np.ones(3), grid)
    # recompute accumulated rates from ownership
    for k in range(3):
        assert rates[k, a.chunks_of(k)].sum() >= 0


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
    # masking taken chunks to -inf would let a -inf rate alias a taken chunk
    table = np.array([[1.0, -np.inf, -np.inf], [5.0, 5.0, 5.0]])
    for scheme in (proposed_sa, shen_sa):
        for bad in (table, np.where(table < 0, np.nan, table)):
            with pytest.raises(ConfigError):
                scheme(bad, np.ones(2), build_grid(3, 1))


# ---------------------------------------------------------------- static SA

def test_static_sa_round_robin():
    a = static_sa(2, build_grid(4, 1))
    assert a.owners == (0, 1, 0, 1)
    assert list(a.chunks_of(0)) == [0, 2]


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
        return c.total_scanned

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


def test_oracle_cap_enforced():
    grid = build_grid(24, 1)
    with pytest.raises(OracleSizeError):
        exhaustive_sa_oracle(np.ones(3), grid, lambda a: np.zeros(3), cap=1000)


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
    assert a.subcarriers_of(0).tolist() == [2, 3, 4]
    assert a.subcarriers_of(2).size == 0
    assert a.subcarrier_counts().tolist() == [3, 2, 0]
    assert a.indicator().tolist() == [[0, 1], [1, 0], [0, 0]]
    same = Assignment(grid=grid, owners=(1, 0), n_users=3)
    assert a == same and hash(a) == hash(same)
    assert "subcarrier_owners" not in repr(a)


def test_assignment_record_golden():
    a = static_sa(2, build_grid(4, 1))
    assert a.to_record() == "user 1: 1 3\nuser 2: 2 4\n"
