import numpy as np
import pytest

from chunkfair import (
    AllocationError,
    InfeasibleError,
    UserProfile,
    ZeroGainError,
    build_grid,
    chunk_rates,
    drop_zero_gains,
    exact_pa_oracle,
    linear_coefficients,
    order_gains,
    proposed_pa,
    proposed_sa,
    prune_and_waterfill,
    realize_channel,
    repair_negative_budgets,
    solve_power_split,
    static_sa,
    substream,
    uniform_pa,
    user_rates,
    waterfill_coefficients,
)
from chunkfair.metrics import deviation
from chunkfair.power import _check_allocation, _total

from oracles import exact_pa_oracle_direct, gauss_solve, proportional_budget_system, rates_direct


def og(values):
    values = np.asarray(values, dtype=float)
    return order_gains(values, np.arange(values.size))


def random_instance(seed, n_users=4, n=64, taps=8, chunk_size=4,
                    weights=(1.0, 1.0, 4.0, 4.0), total_power=None):
    gains = np.empty((n_users, n))
    for k in range(n_users):
        gains[k] = realize_channel(
            UserProfile(taps), n, 1.0, substream(seed, 0, 0, k, 0)
        ).gains
    weights = np.asarray(weights, dtype=float)
    total_power = float(n if total_power is None else total_power)
    grid = build_grid(n, chunk_size)
    table = chunk_rates(gains, grid, total_power / n)
    assignment, _ = proposed_sa(table, weights, grid)
    return assignment, gains, weights, total_power


# ------------------------------------------------------- coefficients

def test_coefficients_flat_gains():
    c = waterfill_coefficients(og([2.0, 2.0, 2.0]))
    assert c.v == 0.0
    assert c.e == 3.0
    assert c.w == 1.0


def test_coefficients_hand_value():
    c = waterfill_coefficients(og([1.0, 2.0]))
    assert abs(c.v - 0.5) < 1e-15
    assert abs(c.e - 3.0) < 1e-15
    assert abs(c.w - np.sqrt(2.0)) < 1e-15


def test_log_domain_w_matches_direct_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gains = np.sort(rng.lognormal(0.0, 1.5, size=50))
        c = waterfill_coefficients(og(gains))
        direct = np.prod(gains[1:] / gains[0]) ** (1.0 / gains.size)
        assert abs(c.w - direct) <= 1e-12 * direct


def test_zero_gain_rejected_and_dropped():
    with pytest.raises(ZeroGainError):
        waterfill_coefficients(og([0.0, 1.0]))
    trimmed = drop_zero_gains(og([0.0, 0.0, 1.0, 2.0]))
    assert trimmed.size == 2
    assert trimmed.values[0] == 1.0


def test_alpha_is_minus_one_for_identical_users():
    c = waterfill_coefficients(og([1.0, 2.0, 4.0]))
    alphas, betas = linear_coefficients([c, c], np.array([1.0, 1.0]))
    assert abs(alphas[0] + 1.0) < 1e-14


def test_beta_zero_for_identical_flat_users():
    c = waterfill_coefficients(og([3.0, 3.0, 3.0, 3.0]))
    alphas, betas = linear_coefficients([c, c], np.array([2.0, 2.0]))
    assert abs(betas[0]) < 1e-14
    assert abs(alphas[0] + 1.0) < 1e-14
    # alpha is negative for any instance (all factors positive, leading minus)
    rng = np.random.default_rng(1)
    cs = [waterfill_coefficients(og(np.sort(rng.lognormal(0, 1, 12)))) for _ in range(4)]
    a, _ = linear_coefficients(cs, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.all(a < 0)


def test_coefficients_match_independent_derivation():
    # rebuild the row equations from raw proportionality and compare budgets
    rng = np.random.default_rng(7)
    for _ in range(20):
        sizes = rng.integers(2, 30, size=4)
        cs = [
            waterfill_coefficients(og(np.sort(rng.lognormal(0.0, 1.0, s))))
            for s in sizes
        ]
        weights = rng.random(4) + 0.5
        total_power = 50.0
        alphas, betas = linear_coefficients(cs, weights)
        budgets, fell_back = solve_power_split(alphas, betas, total_power, weights)
        assert not fell_back
        a, b = proportional_budget_system(cs, weights, total_power)
        reference = gauss_solve(a, b)
        assert np.abs(budgets - reference).max() <= 1e-9 * np.abs(reference).max()
        # row residuals of the packaged system
        for k in range(1, 4):
            assert abs(budgets[0] + alphas[k - 1] * budgets[k] - betas[k - 1]) \
                <= 1e-10 * total_power


# ------------------------------------------------------- split

def test_split_single_user():
    budgets, fb = solve_power_split(np.empty(0), np.empty(0), 5.0, np.array([1.0]))
    assert budgets.tolist() == [5.0]
    assert not fb


def test_split_identical_users_halves():
    c = waterfill_coefficients(og([1.0, 2.0, 4.0]))
    alphas, betas = linear_coefficients([c, c], np.array([1.0, 1.0]))
    budgets, _ = solve_power_split(alphas, betas, 8.0, np.array([1.0, 1.0]))
    assert np.allclose(budgets, [4.0, 4.0])


def test_split_singular_falls_back_to_weights():
    # alpha = 1 - eps engineered so 1 - sum(1/alpha) ~ 0 for K = 2
    budgets, fb = solve_power_split(
        np.array([1.0 + 1e-16]), np.array([3.0]), 10.0, np.array([1.0, 3.0])
    )
    assert fb
    assert np.allclose(budgets, [2.5, 7.5])


def test_split_conserves_total():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        alphas = -rng.random(k - 1) - 0.1
        betas = rng.normal(size=k - 1)
        total = float(rng.random() * 10 + 0.1)
        budgets, _ = solve_power_split(alphas, betas, total, np.ones(k))
        assert abs(budgets.sum() - total) <= 1e-9 * total


# ------------------------------------------------------- repair

def test_repair_untouched_when_positive():
    budgets, mask = repair_negative_budgets(np.array([1.0, 2.0]))
    assert budgets.tolist() == [1.0, 2.0]
    assert not mask.any()


def test_repair_two_user_trace():
    budgets, mask = repair_negative_budgets(np.array([-1.0, 3.0]))
    assert np.allclose(budgets, [1.0, 1.0])
    assert mask.all()


def test_repair_three_user_trace():
    budgets, mask = repair_negative_budgets(np.array([-2.0, 1.0, 3.0]))
    assert np.allclose(budgets, [2.0 / 3.0] * 3)
    assert mask.all()


def test_repair_partial_group():
    budgets, mask = repair_negative_budgets(np.array([5.0, -1.0, 2.0, 4.0]))
    # group grows {-1}, {-1, 2}: sum 1 >= 0 -> both get 0.5
    assert np.allclose(budgets, [5.0, 0.5, 0.5, 4.0])
    assert mask.tolist() == [False, True, True, False]
    assert abs(budgets.sum() - 10.0) < 1e-12


def test_repair_when_rounding_keeps_every_sorted_sum_negative():
    # the total rounds to 1.1e-16 >= 0, yet each sorted partial sum stays below zero
    raw = np.array([-0.6651946734866135, 0.3515100700930197, 0.9034701816518086,
                    0.09401229776087457, -0.7434992493538084, -0.9217253762584194,
                    0.9814267495931386])
    fixed, mask = repair_negative_budgets(raw)
    assert mask.all()
    assert fixed.min() >= 0.0
    assert np.all(fixed == raw.sum() / raw.size)


def test_repair_preserves_total_and_nonnegativity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        raw = rng.normal(size=rng.integers(2, 9))
        raw = raw - raw.mean() + 1.0 / raw.size  # total fixed at 1 > 0
        fixed, _ = repair_negative_budgets(raw)
        assert fixed.min() >= 0.0
        assert abs(fixed.sum() - raw.sum()) <= 1e-12


# ------------------------------------------------------- waterfill

def test_waterfill_flat_gains_uniform():
    p, pruned = prune_and_waterfill(2.0, og([3.0, 3.0, 3.0, 3.0]))
    assert np.allclose(p, 0.5)
    assert pruned == 0


def test_waterfill_prunes_weakest_trace():
    p, pruned = prune_and_waterfill(0.3, og([1.0, 2.0]))
    assert pruned == 1
    assert np.allclose(p, [0.0, 0.3])


def test_waterfill_two_gain_trace():
    p, pruned = prune_and_waterfill(1.5, og([1.0, 2.0]))
    assert pruned == 0
    assert np.allclose(p, [0.5, 1.0])


def test_waterfill_zero_budget():
    p, pruned = prune_and_waterfill(0.0, og([0.5, 1.0, 2.0]))
    assert np.all(p == 0.0)


def test_water_level_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(300):
        size = int(rng.integers(1, 50))
        gains = np.sort(rng.lognormal(0.0, 1.0, size=size)) + 1e-3
        budget = float(rng.random() * 20)
        p, pruned = prune_and_waterfill(budget, og(gains))
        active = p > 0
        assert abs(p.sum() - budget) <= 1e-10 * max(budget, 1.0)
        assert np.all(p >= 0)
        if active.any():
            level = p[active] + 1.0 / gains[active]
            assert level.max() - level.min() < 1e-10
        # pruned subcarriers are exactly the weakest ones
        assert np.all(p[:pruned] == 0.0)


# ------------------------------------------------------- end-to-end PA

def test_proposed_pa_single_user_flat_channel():
    grid = build_grid(8, 2)
    a = static_sa(1, grid)
    gains = np.full((1, 8), 2.0)
    alloc = proposed_pa(a, gains, np.array([1.0]), 4.0)
    assert np.allclose(alloc.powers, 0.5)
    assert np.allclose(alloc.budgets, [4.0])


def test_proposed_pa_symmetric_users():
    grid = build_grid(8, 1)
    a = static_sa(2, grid)
    base = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    gains = np.vstack([base, base[[1, 0, 3, 2, 5, 4, 7, 6]]])
    alloc = proposed_pa(a, gains, np.array([1.0, 1.0]), 6.0)
    assert np.allclose(alloc.budgets, [3.0, 3.0])
    assert abs(alloc.powers.sum() - 6.0) < 1e-12


def test_proposed_pa_linear_rate_proportionality():
    hits = 0
    for seed in range(40):
        assignment, gains, weights, total_power = random_instance(seed, total_power=640.0)
        alloc = proposed_pa(assignment, gains, weights, total_power)
        free = alloc.untouched()
        if free.sum() < 2:
            continue
        hits += 1
        lin = (alloc.powers * gains).sum(axis=1) / weights
        vals = lin[free]
        assert (vals.max() - vals.min()) <= 1e-8 * vals.max()
    assert hits >= 10


def test_proposed_pa_conservation_and_nonnegativity():
    for seed in range(30):
        assignment, gains, weights, total_power = random_instance(seed, total_power=64.0)
        alloc = proposed_pa(assignment, gains, weights, total_power)
        assert abs(alloc.powers.sum() - total_power) <= 1e-9 * total_power
        assert alloc.powers.min() >= 0.0
        assert alloc.budgets.min() >= 0.0


def test_proposed_pa_requires_positive_gain_user():
    grid = build_grid(4, 1)
    a = static_sa(2, grid)
    gains = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleError):
        proposed_pa(a, gains, np.ones(2), 4.0)


def test_uniform_pa_examples():
    grid = build_grid(128, 4)
    a = static_sa(4, grid)
    alloc = uniform_pa(a, 64.0)
    owned = alloc.powers.sum(axis=0)
    assert np.allclose(owned, 0.5)
    assert abs(alloc.budgets.sum() - 64.0) < 1e-12
    assert np.allclose(alloc.budgets, a.subcarrier_counts() * 0.5)


def test_allocation_record_lists_budget_and_active_set():
    grid = build_grid(4, 2)
    a = static_sa(1, grid)
    alloc = uniform_pa(a, 4.0)
    record = alloc.to_records()
    assert record == "user 1: budget 4 | subcarriers 1 2 3 4 | powers 1 1 1 1\n"


# ------------------------------------------------------- exact oracle

def test_exact_oracle_single_user_matches_waterfill():
    grid = build_grid(16, 4)
    a = static_sa(1, grid)
    gains = np.empty((1, 16))
    gains[0] = realize_channel(UserProfile(4), 16, 1.0, substream(8, 0, 0, 0, 0)).gains
    alloc = exact_pa_oracle(a, gains, np.array([1.0]), 4.0)
    direct, _ = prune_and_waterfill(4.0, drop_zero_gains(order_gains(gains[0], np.arange(16))))
    assert abs(alloc.powers.sum() - 4.0) <= 1e-9
    assert np.allclose(np.sort(alloc.powers[0]), np.sort(direct), atol=1e-9)


def test_exact_oracle_symmetric_users_equal_budgets():
    grid = build_grid(8, 1)
    a = static_sa(2, grid)
    base = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    gains = np.vstack([base, base[[1, 0, 3, 2, 5, 4, 7, 6]]])
    alloc = exact_pa_oracle(a, gains, np.array([1.0, 1.0]), 6.0)
    assert abs(alloc.budgets[0] - alloc.budgets[1]) < 1e-9


def test_exact_oracle_proportional_rates():
    for seed in range(15):
        assignment, gains, weights, total_power = random_instance(seed, total_power=640.0)
        alloc = exact_pa_oracle(assignment, gains, weights, total_power)
        rates = user_rates(alloc.powers, gains)
        ratios = rates / weights
        assert (ratios.max() - ratios.min()) <= 1e-6 * ratios.max()
        assert abs(alloc.budgets.sum() - total_power) <= 1e-12 * total_power
        # direct-loop rate oracle agrees
        assert np.allclose(rates, rates_direct(alloc.powers, gains), rtol=1e-12)


def test_exact_oracle_fairness_survives_pruning():
    # low power forces pruning; proportionality must still hold exactly
    for seed in range(5):
        assignment, gains, weights, total_power = random_instance(seed, total_power=0.64)
        alloc = exact_pa_oracle(assignment, gains, weights, total_power)
        rates = user_rates(alloc.powers, gains)
        dev = deviation(rates, weights)
        assert dev < 1e-6
        assert alloc.powers.min() >= 0.0


def test_exact_oracle_takes_closer_end_of_a_collapsed_bracket():
    # Oracle-small workload input (seed 4000022, trial 5, 0 dB): the bisection
    # bracket shrinks to two adjacent floats with the residual still above
    # rel_tol * total_power, which used to raise OracleConvergenceError.
    assignment, gains, weights, total_power = _collapsed_bracket_instance()
    alloc = exact_pa_oracle(assignment, gains, weights, total_power)
    assert abs(alloc.budgets.sum() - total_power) <= 1e-9 * total_power
    assert abs(alloc.powers.sum() - total_power) <= 1e-9 * total_power
    assert deviation(user_rates(alloc.powers, gains), weights) < 1e-6


def _collapsed_bracket_instance():
    n, weights, total_power = 12, np.array([1.0, 2.0]), 12.0
    gains = np.vstack([
        realize_channel(UserProfile(taps), n, 1.0, substream(4000022, 0, 5, k, 0)).gains
        for k, taps in enumerate((2, 4))
    ])
    grid = build_grid(n, 2)
    assignment, _ = proposed_sa(chunk_rates(gains, grid, 1.0), weights, grid)
    return assignment, gains, weights, total_power


def _exact_oracle_instances():
    """Seeded instances for K in {1, 2, 3, 7, 8, 9, 16}, at full and at pruning power."""
    for n_users in (1, 2, 3, 7, 8, 9, 16):
        for seed in range(4):
            weights = 1.0 + np.random.default_rng(seed).integers(0, 4, n_users)
            for total_power in (64.0, 0.64):
                yield random_instance(100 * n_users + seed, n_users=n_users, taps=4 + seed,
                                      weights=weights, total_power=total_power)
    yield _collapsed_bracket_instance()
    # A weight ratio this large overflows 2**x at the first bracket level.
    yield random_instance(3, n_users=2, weights=(1.0, 1e5))


def test_exact_oracle_matches_direct_form_bit_for_bit():
    pruning = 0
    for assignment, gains, weights, total_power in _exact_oracle_instances():
        got = exact_pa_oracle(assignment, gains, weights, total_power)
        with np.errstate(over="ignore"):
            want = exact_pa_oracle_direct(assignment, gains, weights, total_power)
        for name in ("budgets", "powers", "pruned"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()
        pruning += bool(want.pruned.any())
    assert pruning >= 20


def test_budget_total_sums_in_ndarray_order():
    # numpy sums 8 or more terms pairwise, so an in-order sum differs there.
    rng = np.random.default_rng(11)
    for n_users in range(1, 17):
        for _ in range(200):
            budgets = list(rng.standard_normal(n_users) * 10.0 ** rng.integers(-6, 6, n_users))
            assert _total(budgets) == np.array(budgets).sum()


def test_check_allocation_raises_instead_of_asserting():
    _check_allocation(np.array([[1.0, 2.0], [0.0, 1.0]]), 4.0)
    with pytest.raises(AllocationError, match="negative"):
        _check_allocation(np.array([[2.5, -0.5], [1.0, 1.0]]), 4.0)
    with pytest.raises(AllocationError):
        _check_allocation(np.array([[np.nan, 2.0], [1.0, 1.0]]), 4.0)
    with pytest.raises(AllocationError, match="conserve"):
        _check_allocation(np.array([[1.0, 1.0], [1.0, 0.5]]), 4.0)
