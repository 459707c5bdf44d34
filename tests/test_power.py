import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkfair import (
    AllocationError,
    ChunkfairError,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    OracleConvergenceError,
    OrderedGains,
    UserProfile,
    build_grid,
    chunk_rates,
    exact_pa_oracle,
    linear_coefficients,
    proposed_pa,
    proposed_sa,
    prune_and_waterfill,
    realize_channel,
    repair_negative_budgets,
    run_experiment,
    solve_power_split,
    static_sa,
    substream,
    sum_rate_bound,
    uniform_pa,
    user_rates,
)
from chunkfair import power
from chunkfair.assign import Assignment
from chunkfair.metrics import _total, deviation
from chunkfair.power import _check_allocation

from oracles import (
    allocation_records,
    exact_pa_oracle_direct,
    float_reprs,
    gauss_solve,
    linear_coefficients_direct,
    order_gains_direct,
    proportional_budget_system,
    proposed_pa_direct,
    prune_and_waterfill_direct,
    rates_direct,
    repair_negative_budgets_direct,
    solve_power_split_direct,
    user_gains_direct,
)


def og(values):
    return order_gains_direct(values, np.arange(np.size(values)))[0]


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

def log2_w(values):
    """The exact oracle's log2 of the geometric-mean gain ratio of the ascending ``values``."""
    return power._level_fit(np.asarray(values, dtype=float), 1.0)[4]


def test_coefficients_flat_gains():
    c = og([2.0, 2.0, 2.0])
    assert c.v == 0.0
    assert c.e == 3.0
    assert 2.0**log2_w(c.values) == 1.0


def test_coefficients_hand_value():
    c = og([1.0, 2.0])
    assert abs(c.v - 0.5) < 1e-15
    assert abs(c.e - 3.0) < 1e-15
    assert abs(2.0**log2_w(c.values) - np.sqrt(2.0)) < 1e-15


def test_log_domain_w_matches_direct_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gains = np.sort(rng.lognormal(0.0, 1.5, size=50))
        direct = np.prod(gains[1:] / gains[0]) ** (1.0 / gains.size)
        assert abs(2.0**log2_w(gains) - direct) <= 1e-12 * direct


def test_zero_gain_rejected_and_dropped():
    with pytest.raises(ConfigError):
        OrderedGains.of(np.array([0.0, 1.0]))
    with pytest.raises(InfeasibleError):
        OrderedGains.of(np.array([]))
    assignment = Assignment(grid=build_grid(4, 1), owners=(0, 0, 0, 0), n_users=1)
    with pytest.raises(InfeasibleError):
        power._sorted_gains(assignment, np.zeros((1, 4)))
    g, subcarriers, _, bounds = power._sorted_gains(assignment, np.array([[0.0, 2.0, 0.0, 1.0]]))
    assert g.tolist() == [1.0, 2.0]
    assert subcarriers.tolist() == [3, 1]
    assert bounds.tolist() == [0, 2]


def test_record_and_oracle_statistics_match_exact_sums():
    record = og(np.random.default_rng(3).exponential(size=9))
    for rec in (record, OrderedGains.of(record.values[1:])):
        g = rec.values.tolist()
        assert (rec.size, rec.g_min) == (len(g), g[0])
        assert type(rec.size) is int and type(rec.g_min) is float
        exact_v = math.fsum((x - g[0]) / (x * g[0]) for x in g[1:])
        assert rec.v == pytest.approx(exact_v, rel=1e-14, abs=0.0)
        assert rec.e == pytest.approx(math.fsum(x / g[0] for x in g), rel=1e-14, abs=0.0)
        # The exact oracle's per-user tuple agrees with the record.
        v, scale, weight, n, w = power._level_fit(rec.values, 2.5)
        assert (v, scale, weight, n) == (rec.v, rec.size / rec.g_min, 2.5, rec.size)
        exact_w = math.fsum(math.log2(x / g[0]) for x in g[1:]) / len(g)
        assert w == pytest.approx(exact_w, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_records_for_spans_store_their_first_read_statistics(seed):
    rng = np.random.default_rng(seed)
    n_users, n = int(rng.integers(1, 7)), int(rng.integers(8, 150))
    grid = build_grid(n, 1)
    owners = rng.permutation(np.arange(n) % n_users)
    assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=n_users)
    gains = rng.exponential(size=(n_users, n)) * 10.0 ** rng.uniform(-8, 8)
    gains[:, rng.integers(0, n, 3)] = 0.0  # dropped, or equal gains within a user
    gains[0, :2] = gains[0, 2]
    try:
        g, subcarriers, owner_of, bounds = power._sorted_gains(assignment, gains)
    except InfeasibleError:
        pytest.skip("a user lost every subcarrier")
    records, terms = OrderedGains._for_spans(g, owner_of, bounds)
    for k, (rec, (fresh, subs)) in enumerate(zip(records, user_gains_direct(assignment, gains))):
        lo, hi = bounds[k], bounds[k + 1]
        assert rec.values.tolist() == fresh.values.tolist()
        assert subcarriers[lo:hi].tolist() == subs.tolist()
        for name in ("size", "g_min", "v", "e"):
            # Summed over the batched terms, equal to the fields one record computes.
            assert type(getattr(rec, name)) is type(getattr(fresh, name)), name
            assert getattr(rec, name) == getattr(fresh, name), name
        assert terms[lo:hi].tolist() == power._waterfill_terms(fresh.values, fresh.g_min).tolist()


def test_alpha_is_minus_one_for_identical_users():
    c = og([1.0, 2.0, 4.0])
    alphas, betas = linear_coefficients([c, c], np.array([1.0, 1.0]))
    assert abs(alphas[0] + 1.0) < 1e-14


def test_coefficients_need_one_weight_per_user():
    c = og([1.0, 2.0, 4.0])
    for weights in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0, 0.0], [1.0, -1.0],
                    [1.0, np.inf], [1.0, np.nan]):
        with pytest.raises(ConfigError, match="positive finite rate weights"):
            linear_coefficients([c, c], np.array(weights))
    alphas, betas = linear_coefficients([c, c], (1.0, 2.0))
    assert type(alphas) is list and type(betas) is list
    assert all(type(x) is float for x in alphas + betas)


def test_beta_zero_for_identical_flat_users():
    c = og([3.0, 3.0, 3.0, 3.0])
    alphas, betas = linear_coefficients([c, c], np.array([2.0, 2.0]))
    assert abs(betas[0]) < 1e-14
    assert abs(alphas[0] + 1.0) < 1e-14
    # alpha is negative for any instance (all factors positive, leading minus)
    rng = np.random.default_rng(1)
    cs = [og(np.sort(rng.lognormal(0, 1, 12))) for _ in range(4)]
    a, _ = linear_coefficients(cs, np.array([1.0, 2.0, 3.0, 4.0]))
    assert all(x < 0 for x in a)


def test_positive_weights_keep_the_split_denominator_at_least_one():
    # alpha_k = -(w_1 / w_k) (e_k n_1 g_k) / (e_1 n_k g_1) has a positive
    # ratio, so it is negative, or -0.0 or -inf where the weights' ratio
    # under- or overflows; then 1 - sum(1 / alpha) >= 1 or is not finite.
    rng = np.random.default_rng(29)
    seen = {"-0.0": 0, "-inf": 0}
    for _ in range(400):
        n_users = int(rng.integers(2, 9))
        cs = [og(np.sort(rng.lognormal(0.0, 2.0, int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-60, 60)))
              for _ in range(n_users)]
        log_w = rng.uniform(-300.0, 300.0, n_users)
        ends = rng.random(n_users) < 0.5  # the range's ends, where the weights' ratio under- or overflows
        log_w[ends] = rng.choice([-300.0, 300.0], int(ends.sum()))
        weights = np.exp(log_w)
        alphas, betas = linear_coefficients(cs, weights)
        assert all(a <= 0 for a in alphas), alphas
        with np.errstate(divide="ignore", over="ignore"):
            denom = 1.0 - (1.0 / np.array(alphas)).sum()
        assert denom >= 1.0 or not np.isfinite(denom), (alphas, denom)
        assert len(solve_power_split(alphas, betas, 1.0)) == n_users
        seen["-0.0"] += any(a == 0 for a in alphas)
        seen["-inf"] += any(a == -math.inf for a in alphas)
    assert seen["-0.0"] >= 5 and seen["-inf"] >= 5


def test_coefficients_match_independent_derivation():
    # rebuild the row equations from raw proportionality and compare budgets
    rng = np.random.default_rng(7)
    for _ in range(20):
        sizes = rng.integers(2, 30, size=4)
        cs = [
            og(np.sort(rng.lognormal(0.0, 1.0, s)))
            for s in sizes
        ]
        weights = rng.random(4) + 0.5
        total_power = 50.0
        alphas, betas = linear_coefficients(cs, weights)
        budgets = solve_power_split(alphas, betas, total_power)
        a, b = proportional_budget_system(cs, weights, total_power)
        reference = gauss_solve(a, b)
        assert np.abs(budgets - reference).max() <= 1e-9 * np.abs(reference).max()
        # row residuals of the packaged system
        for k in range(1, 4):
            assert abs(budgets[0] + alphas[k - 1] * budgets[k] - betas[k - 1]) \
                <= 1e-10 * total_power


# ------------------------------------------------------- split

def test_split_single_user():
    assert solve_power_split([], [], 5.0) == [5.0]


def test_split_identical_users_halves():
    c = og([1.0, 2.0, 4.0])
    alphas, betas = linear_coefficients([c, c], np.array([1.0, 1.0]))
    budgets = solve_power_split(alphas, betas, 8.0)
    assert np.allclose(budgets, [4.0, 4.0])


def test_split_rejects_a_positive_alpha():
    # No positive weights give alpha > 0; alpha = 1 would make 1 - sum(1 / alpha) exactly 0.
    for alphas in ([1.0], [-2.0, 1e-300], [-2.0, np.inf]):
        with pytest.raises(ConfigError, match="non-positive alphas"):
            solve_power_split(alphas, [3.0] * len(alphas), 10.0)


def test_split_of_a_signed_zero_alpha_divides_by_it_as_signed_infinity():
    # 1 / (+-0.0) is +-inf, as on numpy arrays, not a ZeroDivisionError.
    for alphas in ([-0.0, -2.0], [0.0, -2.0], [-0.0]):
        betas = [1.0] * len(alphas)
        budgets = solve_power_split(alphas, betas, 4.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert float_reprs(budgets) == float_reprs(solve_power_split_direct(alphas, betas, 4.0))
        assert math.isnan(budgets[0])


def test_split_conserves_total():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        alphas = -rng.random(k - 1) - 0.1
        betas = rng.normal(size=k - 1)
        total = float(rng.random() * 10 + 0.1)
        budgets = solve_power_split(alphas.tolist(), betas.tolist(), total)
        assert abs(np.sum(budgets) - total) <= 1e-9 * total


# ------------------------------------------------------- repair

def test_repair_untouched_when_positive():
    budgets, mask = repair_negative_budgets(np.array([1.0, 2.0]))
    assert budgets == [1.0, 2.0]
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
    assert abs(np.sum(budgets) - 10.0) < 1e-12


def test_repair_when_rounding_keeps_every_sorted_sum_negative():
    # the total rounds to 1.1e-16 >= 0, yet each sorted partial sum stays below zero
    raw = np.array([-0.6651946734866135, 0.3515100700930197, 0.9034701816518086,
                    0.09401229776087457, -0.7434992493538084, -0.9217253762584194,
                    0.9814267495931386])
    fixed, mask = repair_negative_budgets(raw)
    assert mask.all()
    assert min(fixed) >= 0.0
    assert fixed == [raw.sum() / raw.size] * raw.size


def test_repair_preserves_total_and_nonnegativity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        raw = rng.normal(size=rng.integers(2, 9))
        raw = raw - raw.mean() + 1.0 / raw.size  # total fixed at 1 > 0
        fixed, _ = repair_negative_budgets(raw)
        assert min(fixed) >= 0.0
        assert abs(np.sum(fixed) - raw.sum()) <= 1e-12


def _split_outcome(solver, *args):
    """A split's budgets, or a repair's (budgets, mask), as ``float_reprs`` lists, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            out = solver(*args)
    except ChunkfairError as exc:
        return type(exc), str(exc)
    return [float_reprs(x) for x in (out if isinstance(out, tuple) else (out,))]


def test_split_and_repair_match_their_array_forms_bit_for_bit():
    # K 2-12 puts the sums on both sides of numpy's 8-term switch to pairwise.
    rng = np.random.default_rng(5)
    splits = [([-0.0, -2.0], [1.0, 2.0], 4.0),  # 1 / -0.0 = -inf
              ([np.nan, -2.0], [1.0, 2.0], 4.0)]
    repairs = []
    for n_users in range(2, 13):
        for _ in range(20):
            cs = [og(np.sort(10.0 ** rng.uniform(-6, 6, int(rng.integers(1, 9))))) for _ in range(n_users)]
            weights = np.exp(rng.uniform(-300, 300, n_users)) if rng.random() < 0.3 else rng.random(n_users) + 0.1
            got = _split_outcome(linear_coefficients, cs, weights)
            assert got == _split_outcome(linear_coefficients_direct, cs, weights)
            splits.append((*linear_coefficients(cs, weights), float(10.0 ** rng.uniform(-6, 3))))
        for _ in range(40):
            splits.append(((-(10.0 ** rng.uniform(-3, 3, n_users - 1))).tolist(),
                           (rng.normal(size=n_users - 1) * 10.0 ** rng.uniform(-3, 3, n_users - 1)).tolist(),
                           float(10.0 ** rng.uniform(-6, 3))))
        for _ in range(100):
            budgets = rng.normal(size=n_users) + rng.uniform(-0.5, 1.0)
            budgets[rng.random(n_users) < 0.1] = rng.choice([-0.0, 0.0, np.nan])
            repairs.append(budgets.tolist())
    seen = {"repaired": 0, "raised": 0}
    for args in splits:
        got = _split_outcome(solve_power_split, *args)
        assert got == _split_outcome(solve_power_split_direct, *args)
        repairs.append(solve_power_split(*args))
    for budgets in repairs:
        got = _split_outcome(repair_negative_budgets, budgets)
        assert got == _split_outcome(repair_negative_budgets_direct, budgets)
        seen["raised"] += got[0] is AllocationError
        seen["repaired"] += got[0] is not AllocationError and "1.0" in got[1]
    assert seen["repaired"] > 100 and seen["raised"] > 10


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
    with pytest.raises(ConfigError, match="budget must be >= 0"):
        prune_and_waterfill(-1e-300, og([0.5, 1.0, 2.0]))


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


def _prune_instances(seed=18):
    """Sizes 1-200 over three gain families, each with budgets at and beside its v(s).

    The families cycle with the size: log-uniform gains over 1e-12..1e12,
    near-equal gains (a few ulp apart, at a random scale) and the
    shipped channel's exponential gains.  Budgets are 0, each tested
    start's float v(s) with its two float neighbours (every start up to
    16 gains, 2 random ones above), and NaN at every tenth size: a NaN
    budget drops every subcarrier but the strongest, one at a time.
    """
    rng = np.random.default_rng(seed)
    for n in range(1, 201):
        if n % 3 == 0:
            gains = 10.0 ** rng.uniform(-12.0, 12.0, n)
        elif n % 3 == 1:
            gains = (1.0 + rng.integers(0, 4, n) * 2.0**-52) * 10.0 ** rng.uniform(-6.0, 6.0)
        else:
            gains = realize_channel(UserProfile(min(n, 32)), n, 1.0, substream(seed, 0, 0, n, 0)).gains
        ordered = og(gains)
        g = ordered.values
        starts = range(g.size) if g.size <= 16 else rng.choice(g.size, 2, replace=False)
        budgets = [0.0, math.nan] if n % 10 == 0 else [0.0]
        for s in starts:
            v = power._waterfill_v(g[s:])
            budgets += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
        yield ordered, [b for b in budgets if not b < 0]


def test_prune_matches_the_stepwise_loop_bit_for_bit():
    cases = 0
    for ordered, budgets in _prune_instances():
        for budget in budgets:
            powers, pruned = prune_and_waterfill(budget, ordered)
            want_powers, want_pruned = prune_and_waterfill_direct(budget, ordered)
            assert pruned == want_pruned, (ordered.values, budget)
            assert np.array_equal(powers, want_powers, equal_nan=True), (ordered.values, budget)
            cases += 1
    assert cases > 1500


@pytest.mark.parametrize("gains, budget, pruned", [
    # 1e300 * 2e300 overflows, so the float v from start 1 is 0 and the
    # loop stops there; a certificate would skip to start 2.
    ([1e-10, 1e300, 2e300], 0.0, 1),
    # 1 / 1e-320 overflows.
    ([1e-320, 3e-320, 1e-319, 1.0], 1.0, 3),
    ([1e-320, 1e-319, 2.0, 3.0], 1.0, 2),
])
def test_prune_outside_the_certified_range_steps_one_at_a_time(gains, budget, pruned):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ordered = og(gains)
        got = prune_and_waterfill(budget, ordered)
        want = prune_and_waterfill_direct(budget, ordered)
    assert got[1] == want[1] == pruned
    assert np.array_equal(got[0], want[0])


def test_proposed_pa_sums_v_once_per_pruned_user(monkeypatch):
    # One drop of the shipped sweep's users at -10 dB, the sweep's point
    # with the most pruned subcarriers.
    config = json.loads((Path(__file__).parents[1] / "configs" / "single_cell_sweep.json")
                        .read_text(encoding="utf-8"))
    config.update(trials=1, snr_db=[-10.0], pa_schemes=["proposed"])
    sums, calls = [0], []
    waterfill_v, pa = power._waterfill_v, power.proposed_pa

    def counted_v(g):
        sums[0] += 1
        return waterfill_v(g)

    def counted_pa(*args):
        sums[0] = 0
        alloc = pa(*args)
        calls.append((sums[0], alloc.pruned))
        return alloc

    monkeypatch.setattr(power, "_waterfill_v", counted_v)
    monkeypatch.setattr(power, "proposed_pa", counted_pa)
    run_experiment(ExperimentConfig.from_dict(config))
    assert len(calls) == 2
    assert sum(pruned.sum() for _, pruned in calls) > 100
    for count, pruned in calls:
        # Every user's v comes from the one pass; a pruned user re-sums it once.
        assert count <= np.count_nonzero(pruned)


def _proposed_pa_instances(count=700, seed=43):
    """Seeded inputs: K 1-8, N 1-200, SNR -200 to 30 dB, random, zero, near-equal and tied gains."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n_users = int(rng.integers(1, 9))
        n = int(rng.integers(1, 201))
        grid = build_grid(n, int(rng.integers(1, max(1, n // n_users) + 1)))
        owners = rng.integers(0, n_users, grid.n_chunks)
        if grid.n_chunks >= n_users and i % 10:
            owners[:n_users] = np.arange(n_users)
            rng.shuffle(owners)
        assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=n_users)
        scale = 10.0 ** rng.uniform(-3, 3, (n_users, 1))
        kind = i % 4
        if kind == 0:
            gains = rng.exponential(1.0, (n_users, n)) * scale
        elif kind == 1:
            gains = rng.exponential(1.0, (n_users, n)) * (rng.random((n_users, n)) < 0.7)
        elif kind == 2:  # v below the rounding noise of its terms
            gains = scale * (1.0 + 2.0**-52 * rng.integers(-3, 4, (n_users, n)))
        else:
            gains = scale * rng.integers(1, 4, (n_users, n))
        weights = (1.0 + rng.integers(0, 4, n_users)) * 10.0 ** rng.integers(0, 2, n_users)
        snr_db = float(rng.choice([-200.0, -70.0, -30.0, -10.0, 0.0, 10.0, 30.0]))
        yield assignment, gains, weights, n * 10.0 ** (snr_db / 10.0)


def _singular_split_instance():
    """Two users whose weights would make the budget system singular (1 - 1 / alpha = 0): one is negative."""
    grid = build_grid(8, 2)
    gains = np.vstack([np.linspace(1.0, 2.0, 8), np.linspace(1.0, 3.0, 8)])
    assignment = static_sa(2, grid)
    (c1, _), (c2, _) = user_gains_direct(assignment, gains)
    ratio = (c2.e * c1.size * c2.g_min) / (c1.e * c2.size * c1.g_min)
    return assignment, gains, np.array([1.0, -ratio]), 8.0


def _pa_outcome(solver, instance):
    """Every allocation field's dtype, shape and bytes, or the error's type and message."""
    try:
        with np.errstate(all="ignore"):
            alloc = solver(*instance)
    except ChunkfairError as exc:
        return type(exc), str(exc)
    arrays = (alloc.budgets, alloc.powers, alloc.pruned, alloc.repaired)
    return tuple((a.dtype, a.shape, a.tobytes()) for a in arrays)


def test_proposed_pa_matches_the_per_user_form_bit_for_bit():
    instances = [
        *_proposed_pa_instances(),
        *(random_instance(seed, n_users=2, weights=(1.0, 1e5)) for seed in range(4)),
    ]
    seen = {"pruned": 0, "repaired": 0, "errors": set()}
    for instance in instances:
        got = _pa_outcome(proposed_pa, instance)
        assert got == _pa_outcome(proposed_pa_direct, instance)
        if isinstance(got[0], type):
            seen["errors"].add(got[0])
            continue
        alloc = proposed_pa(*instance)
        seen["pruned"] += bool(alloc.pruned.any())
        seen["repaired"] += bool(alloc.repaired.any())
        assert not alloc.singular_fallback
    assert seen["pruned"] > 100 and seen["repaired"] > 10
    assert seen["errors"] == {InfeasibleError, AllocationError}


def test_proposed_pa_sorts_once_and_prunes_only_short_budgets(monkeypatch):
    # Each instance has users that prune and, for K > 1, users that do not.
    instances = [random_instance(seed, n_users=k, n=64, weights=np.ones(k), total_power=total)
                 for seed, k, total in ((0, 1, 1.0), (2, 2, 64.0), (1, 4, 64.0), (3, 8, 16.0))]
    records = [[rec for rec, _ in user_gains_direct(a, gains)] for a, gains, _, _ in instances]
    calls = []
    lexsort, argsort, prune = np.lexsort, np.argsort, power.prune_and_waterfill

    def counted(name, sort):
        return lambda *args, **kwargs: calls.append(name) or sort(*args, **kwargs)

    def counted_prune(budget, ordered):
        calls.append(("prune", float(budget)))
        assert budget < ordered.v
        return prune(budget, ordered)

    monkeypatch.setattr(np, "lexsort", counted("sort", lexsort))
    monkeypatch.setattr(np, "argsort", counted("sort", argsort))
    monkeypatch.setattr(power, "prune_and_waterfill", counted_prune)
    for instance, users in zip(instances, records):
        calls.clear()
        alloc = proposed_pa(*instance)
        assert not alloc.repaired.any()  # the repair sorts the budgets
        short = [("prune", float(b)) for b, c in zip(alloc.budgets, users) if not b >= c.v]
        assert calls == ["sort", *short]
        assert 0 < len(short) < max(2, len(users))


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
        free = ~alloc.repaired & (alloc.pruned == 0)  # neither repaired nor pruned
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


@pytest.mark.parametrize("pa", [proposed_pa, exact_pa_oracle], ids=["proposed", "exact-oracle"])
def test_proposed_pa_requires_positive_gain_user(pa):
    grid = build_grid(4, 1)
    a = static_sa(2, grid)
    gains = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleError, match="user 1 has no positive-gain subcarrier"):
        pa(a, gains, np.ones(2), 4.0)


def _malformed_inputs():
    """An 8-subcarrier, 2-user assignment with well-formed gains and weights, and one bad input at a time."""
    assignment = static_sa(2, build_grid(8, 2))
    gains = np.random.default_rng(4).exponential(size=(2, 8)) + 0.1
    weights = np.array([1.0, 2.0])
    return assignment, {
        "gains-2x4": (gains[:, :4], weights),
        "gains-2x16": (np.hstack([gains, gains]), weights),
        "gains-1d": (gains[0], weights),
        "weights-zero": (gains, np.array([1.0, 0.0])),
        "weights-negative": (gains, np.array([1.0, -1.0])),
        "weights-short": (gains, np.array([1.0])),
        "weights-singular": _singular_split_instance()[1:3],
    }


@pytest.mark.parametrize("case", list(_malformed_inputs()[1]))
@pytest.mark.parametrize("pa", [proposed_pa, exact_pa_oracle], ids=["proposed", "exact-oracle"])
def test_rate_adaptive_pas_reject_malformed_inputs(pa, case):
    assignment, cases = _malformed_inputs()
    gains, weights = cases[case]
    with pytest.raises(ConfigError, match="table" if case.startswith("gains") else "rate weights"):
        pa(assignment, gains, weights, 8.0)


def test_sum_rate_bound_rejects_a_gain_table_of_the_wrong_width():
    assignment, cases = _malformed_inputs()
    rows = np.array([assignment.owners])
    for case in ("gains-2x4", "gains-2x16", "gains-1d"):
        gains, weights = cases[case]
        for w in (None, weights):
            with pytest.raises(ConfigError, match="table"):
                sum_rate_bound(assignment.grid, gains, 8.0, rows, weights=w)


def test_user_rates_rejects_powers_and_gains_of_different_or_non_2d_shapes():
    with pytest.raises(ConfigError, match="same"):
        user_rates(np.ones((1, 6)), np.ones((3, 6)))  # would broadcast to three users
    for powers, gains in ((np.ones(6), np.ones(6)), (np.ones((2, 6)), np.ones((2, 5)))):
        with pytest.raises(ConfigError, match="same"):
            user_rates(powers, gains)
    assert user_rates(np.ones((2, 4)), np.ones((2, 4))).tolist() == [1.0, 1.0]


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
    record = allocation_records(alloc)
    assert record == "user 1: budget 4 | subcarriers 1 2 3 4 | powers 1 1 1 1\n"


# ------------------------------------------------------- exact oracle

def test_exact_oracle_single_user_matches_waterfill():
    grid = build_grid(16, 4)
    a = static_sa(1, grid)
    gains = np.empty((1, 16))
    gains[0] = realize_channel(UserProfile(4), 16, 1.0, substream(8, 0, 0, 0, 0)).gains
    alloc = exact_pa_oracle(a, gains, np.array([1.0]), 4.0)
    direct, _ = prune_and_waterfill(4.0, og(gains[0]))
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


def test_exact_oracle_prune_recomputes_only_the_pruned_users_statistics(monkeypatch):
    sizes, level_fit = [], power._level_fit

    def counted(g, weight):
        sizes.append(g.size)
        return level_fit(g, weight)

    monkeypatch.setattr(power, "_level_fit", counted)
    pruning = 0
    for seed in range(5):
        assignment, gains, weights, total_power = random_instance(seed, total_power=0.64)
        sizes.clear()
        alloc = exact_pa_oracle(assignment, gains, weights, total_power)
        spans = assignment.subcarrier_counts().tolist()  # every gain is positive
        # One tuple per user, then one per dropped subcarrier.
        assert sizes[: len(spans)] == spans
        assert len(sizes) == len(spans) + alloc.pruned.sum()
        pruning += bool(alloc.pruned.any())
    assert pruning == 5


def test_exact_oracle_takes_closer_end_of_a_collapsed_bracket():
    # Oracle-small workload input (seed 4000022, trial 5, 0 dB): the bisection
    # bracket shrinks to two adjacent floats with the residual still above
    # the oracle's relative tolerance times total_power, which used to raise
    # OracleConvergenceError.
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


def _random_oracle_instances(count=400, seed=31):
    """Seeded instances: K 1-9, N <= 99, P / N from 1e-3 to 1e3, weights up to 400."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_users = int(rng.integers(1, 10))
        n = int(rng.integers(n_users, 100))
        grid = build_grid(n, int(rng.integers(1, n // n_users + 1)))
        owners = np.concatenate(
            [np.arange(n_users), rng.integers(0, n_users, grid.n_chunks - n_users)]
        )
        rng.shuffle(owners)
        assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=n_users)
        gains = rng.exponential(1.0, (n_users, n)) * 10.0 ** rng.uniform(-3, 3, (n_users, 1))
        if rng.random() < 0.5:
            weights = rng.integers(1, 401, n_users).astype(float)
        else:
            weights = 1.0 + rng.integers(0, 4, n_users)
        yield assignment, gains, weights, n * 10.0 ** rng.uniform(-3, 3)


def _edge_oracle_instances():
    """Inputs that reach the oracle's errors, tiny weights, and dropped gains (a zero weight is a ConfigError)."""
    grid = build_grid(8, 2)
    flat = np.ones((2, 8))
    ramp = np.vstack([np.ones(8), np.linspace(1.0, 2.0, 8)])
    holed = np.vstack([np.linspace(0.5, 4.0, 8), np.linspace(2.0, 1.0, 8)])
    holed[0, 1], holed[1, 6] = 0.0, math.nan  # one owned gain each that the sort drops
    for gains, weights, total_power in (
        (flat, (1e100, 2e100), 8.0),  # the bisection runs out of steps
        (ramp, (1e80, 3e80), 8.0),  # so does it on unequal gains
        (flat, (1e-320, 1e-320), 1e-300),  # no level brackets the power
        (ramp, (1e-300, 1.0), 8.0),  # a budget that barely grows with the level
        (ramp, (1.0, 3.0), 1e-300),  # the budgets cannot conserve the power
        (holed, (1.0, 3.0), 0.5),  # both users also prune their weakest kept gain
    ):
        yield static_sa(2, grid), gains, np.array(weights), total_power


def _oracle_outcome(solver, instance):
    """The allocation's dtypes and bytes, or the error's type and message."""
    try:
        with np.errstate(all="ignore"):
            alloc = solver(*instance)
    except ChunkfairError as exc:
        return type(exc), str(exc)
    return tuple((a.dtype, a.tobytes()) for a in (alloc.budgets, alloc.powers, alloc.pruned))


def test_exact_oracle_matches_direct_form_on_random_instances():
    outcomes = []
    for instance in [*_random_oracle_instances(), *_edge_oracle_instances()]:
        got = _oracle_outcome(exact_pa_oracle, instance)
        assert got == _oracle_outcome(exact_pa_oracle_direct, instance)
        outcomes.append(got[0])
    assert outcomes.count(OracleConvergenceError) == 3
    assert AllocationError in outcomes


def test_oracle_small_makes_41_exact_oracle_calls(monkeypatch, oracle_small_config):
    # The oracle-small benchmark workload at its default seed.  Of the 62
    # candidates of each of the 12 oracle searches, only those that the
    # water-filling bound cannot rule out are solved, each once; the
    # three heuristic assignments are solved once each whether or not
    # the search visits them.  The exact-oracle searches use the
    # rate-weighted bound, which rules out all but 17 of their 744
    # candidates.
    counts = {"oracle": 0}
    oracle = power.exact_pa_oracle

    def counted_oracle(*args):
        counts["oracle"] += 1
        return oracle(*args)

    monkeypatch.setattr(power, "exact_pa_oracle", counted_oracle)
    run_experiment(oracle_small_config)
    assert counts["oracle"] == 41


def test_oracle_small_makes_43_uniform_pa_calls(monkeypatch, oracle_small_config):
    # The same workload.  Its 12 trials' heuristics pick 32 distinct
    # assignments, each solved once.  The uniform searches bound each
    # candidate by its own uniform-power sum rate, so they solve only
    # candidates whose sum rate reaches the best one's: 11 more in all,
    # against 117 under the water-filling bound.
    counts = {"uniform": 0}
    uniform = power.uniform_pa

    def counted_uniform(*args):
        counts["uniform"] += 1
        return uniform(*args)

    monkeypatch.setattr(power, "uniform_pa", counted_uniform)
    run_experiment(oracle_small_config)
    assert counts["uniform"] == 43


def test_budget_total_sums_in_ndarray_order():
    # numpy adds fewer than 8 terms in order and 8 or more pairwise.  Every
    # digest rests on that order: if an installed numpy changes it, fail here.
    rng = np.random.default_rng(11)
    for n in range(1, 21):
        for _ in range(200):
            xs = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20, 20, n)).tolist()
            assert _total(xs) == float(np.array(xs).sum())
        for xs in ([-0.0] * n, [0.0] * (n - 1) + [-0.0]):
            assert float_reprs(_total(xs)) == float_reprs(np.array(xs).sum())


def test_check_allocation_raises_instead_of_asserting():
    _check_allocation(np.array([[1.0, 2.0], [0.0, 1.0]]), 4.0)
    with pytest.raises(AllocationError, match="negative"):
        _check_allocation(np.array([[2.5, -0.5], [1.0, 1.0]]), 4.0)
    with pytest.raises(AllocationError):
        _check_allocation(np.array([[np.nan, 2.0], [1.0, 1.0]]), 4.0)
    with pytest.raises(AllocationError, match="conserve"):
        _check_allocation(np.array([[1.0, 1.0], [1.0, 0.5]]), 4.0)


# ------------------------------------------------------- sum-rate bound

_PA_RATES = {
    "uniform": lambda a, gains, weights, p: uniform_pa(a, p),
    "proposed": proposed_pa,
    "exact-oracle": exact_pa_oracle,
}


def _bound_instance(seed, n_users, chunk_size, extra_chunks, remainder):
    """Channels and one covering chunk map; the last chunk is longer when ``remainder`` > 0."""
    n = chunk_size * (n_users + extra_chunks) + remainder % chunk_size
    rng = np.random.default_rng(seed)
    gains = np.empty((n_users, n))
    for k in range(n_users):
        profile = UserProfile(int(rng.integers(1, min(n, 4) + 1)))
        gains[k] = realize_channel(profile, n, 1.0, substream(seed, 0, 0, k, 0)).gains
    grid = build_grid(n, chunk_size)
    owners = rng.permutation(np.resize(np.arange(n_users), grid.n_chunks))
    weights = rng.uniform(0.5, 4.0, n_users)
    return grid, gains, owners, weights


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 3),
    chunk_size=st.integers(1, 4),
    extra_chunks=st.integers(0, 3),
    remainder=st.integers(0, 3),
    snr_db=st.floats(-60.0, 40.0),
    zero_gain=st.booleans(),
)
def test_sum_rate_bound_is_above_every_pa_sum_rate(
    seed, n_users, chunk_size, extra_chunks, remainder, snr_db, zero_gain
):
    # A zero gain must raise no warning: pytest turns warnings into errors.
    grid, gains, owners, weights = _bound_instance(seed, n_users, chunk_size, extra_chunks, remainder)
    if zero_gain:
        gains[owners[0], 0] = 0.0
    total_power = grid.n_subcarriers * 10.0 ** (snr_db / 10.0)
    bound = sum_rate_bound(grid, gains, total_power, owners[None, :])
    assert bound.shape == (1,) and bound[0] > 0
    assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=n_users)
    allocations = {}
    if (gains[assignment.subcarrier_owners, np.arange(grid.n_subcarriers)] > 0).any():
        allocations["widest water-filling"] = _widest_waterfill(assignment, gains, total_power)
    for name, solve in _PA_RATES.items():
        try:
            allocations[name] = solve(assignment, gains, weights, total_power).powers
        except ChunkfairError:
            continue  # no allocation to bound, as at very low SNR
    for name, powers in allocations.items():
        total = float(user_rates(powers, gains).sum())
        assert total <= bound[0], (name, total, bound[0])
        if n_users == 1 and name != "uniform":
            # One user's proportional-rate allocation is water-filling,
            # so the bound is tight up to its float margin.
            assert bound[0] <= total * (1.0 + 1e-9) + 1e-12, (name, total, bound[0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 3),
    chunk_size=st.integers(1, 4),
    extra_chunks=st.integers(0, 3),
    remainder=st.integers(0, 3),
    snr_db=st.floats(-60.0, 40.0),
    zero_gain=st.booleans(),
)
# Single users at low SNR whose exact sum rate exceeds the priced
# water-fill without its float margins by 1e-16 to 2e-9 relative.
@example(seed=909, n_users=1, chunk_size=3, extra_chunks=2, remainder=1, snr_db=-53.88, zero_gain=False)
@example(seed=1452, n_users=1, chunk_size=2, extra_chunks=3, remainder=3, snr_db=-55.59, zero_gain=False)
@example(seed=2055, n_users=1, chunk_size=3, extra_chunks=1, remainder=3, snr_db=-59.5, zero_gain=False)
def test_weighted_sum_rate_bound_is_above_the_exact_oracles_sum_rate(
    seed, n_users, chunk_size, extra_chunks, remainder, snr_db, zero_gain
):
    grid, gains, owners, weights = _bound_instance(seed, n_users, chunk_size, extra_chunks, remainder)
    if zero_gain:
        gains[owners[0], 0] = 0.0
    total_power = grid.n_subcarriers * 10.0 ** (snr_db / 10.0)
    bound = sum_rate_bound(grid, gains, total_power, owners[None, :], weights=weights)
    assert bound.shape == (1,) and bound[0] <= sum_rate_bound(grid, gains, total_power, owners[None, :])[0]
    assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=n_users)
    try:
        powers = exact_pa_oracle(assignment, gains, weights, total_power).powers
    except ChunkfairError:
        return  # no allocation to bound, as at very low SNR
    total = float(user_rates(powers, gains).sum())
    assert total <= bound[0], (total, bound[0])
    if n_users == 1:
        assert bound[0] <= total * (1.0 + 1e-9) + 1e-12, (total, bound[0])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_users=st.integers(1, 4),
    chunk_size=st.integers(1, 4),
    extra_chunks=st.integers(0, 3),
    remainder=st.integers(0, 3),
    db_range=st.tuples(st.floats(-200.0, 60.0), st.floats(-200.0, 60.0)).map(sorted),
    special=st.sampled_from([None, 0.0, -0.0, math.nan, math.inf, -1.0, -1e-30]),
)
def test_uniform_bound_is_at_or_above_the_uniform_pas_sum_rate(
    seed, n_users, chunk_size, extra_chunks, remainder, db_range, special
):
    # Each map's bound is its computed uniform-PA sum rate, raised by a
    # rounding margin, or NaN where an owned gain is negative or NaN.
    rng = np.random.default_rng(seed)
    n = chunk_size * (n_users + extra_chunks) + remainder % chunk_size
    grid = build_grid(n, chunk_size)
    gains = 10.0 ** (rng.uniform(*db_range, size=(n_users, n)) / 10.0)
    if special is not None:
        gains[rng.integers(n_users), rng.integers(n)] = special
    rows = rng.integers(0, n_users, size=(6, grid.n_chunks))
    total_power = float(n)
    bounds = power._uniform_bound(grid, gains, total_power, rows)
    assert bounds.shape == (6,)
    for row, bound in zip(rows, bounds.tolist()):
        assignment = Assignment(grid=grid, owners=tuple(row.tolist()), n_users=n_users)
        owned = gains[assignment.subcarrier_owners, np.arange(n)]
        assert math.isnan(bound) == bool((np.isnan(owned) | (owned < 0)).any())
        with np.errstate(all="ignore"):
            total = float(user_rates(uniform_pa(assignment, total_power).powers, gains).sum())
        if not (math.isnan(bound) or math.isnan(total)):
            assert total <= bound <= total * (1.0 + 1e-12), (total, bound)


def test_weighted_sum_rate_bound_is_tight_where_the_unweighted_one_is_not():
    # N = 12, L = 2, rate weights 1 and 2, 0 dB: the rate constraint binds,
    # so water-filling overstates the exact oracle's sum rate by 1.2%; the
    # price updates bring the bound within 1e-4 of it.
    grid, gains, owners, _ = _bound_instance(5, 2, 2, 4, 0)
    weights = np.array([1.0, 2.0])
    assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=2)
    exact = float(user_rates(exact_pa_oracle(assignment, gains, weights, 12.0).powers, gains).sum())
    loose = sum_rate_bound(grid, gains, 12.0, owners[None, :])[0]
    tight = sum_rate_bound(grid, gains, 12.0, owners[None, :], weights=weights)[0]
    assert exact <= tight < exact * (1.0 + 1e-4) and loose > exact * 1.01


def test_block_bounds_equal_each_maps_own_bound():
    # The oracle bounds blocks of maps; a row must not depend on the rows beside it.
    rng = np.random.default_rng(23)
    for seed in range(60):
        n_users = int(rng.integers(1, 4))
        grid, gains, _, weights = _bound_instance(seed, n_users, int(rng.integers(1, 4)),
                                                  int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        if seed % 3 == 0:
            gains[0, 0] = 0.0
        rows = rng.integers(0, n_users, size=(int(rng.integers(2, 9)), grid.n_chunks))
        total_power = grid.n_subcarriers * 10.0 ** rng.uniform(-6.0, 4.0)
        for w in (None, weights):
            block = sum_rate_bound(grid, gains, total_power, rows, weights=w)
            alone = [sum_rate_bound(grid, gains, total_power, row[None, :], weights=w) for row in rows]
            assert block.tobytes() == np.concatenate(alone).tobytes(), (seed, w)


def test_weighted_sum_rate_bound_rejects_bad_weights():
    grid, gains, owners, _ = _bound_instance(3, 2, 2, 2, 1)
    for weights in ([1.0], [1.0, 0.0], [1.0, -2.0], [1.0, np.inf], [1.0, np.nan]):
        with pytest.raises(ConfigError, match="rate weights"):
            sum_rate_bound(grid, gains, 10.0, owners[None, :], weights=np.array(weights))


def test_priced_bound_takes_prices_that_underflow_to_zero(monkeypatch):
    # A weight ratio of 1e300 underflows the small user's normalised prices
    # to 0; such a price's subcarriers sort last and add nothing, without a
    # divide-by-zero warning.  Shape of the oracle-small workload: N = 12,
    # K = 2.  ``sum_rate_bound`` skips the priced iterates at this ratio,
    # so ``_priced_bound`` is called directly.
    weights = np.array([1e300, 1.0])
    calls = []
    waterfill = power._priced_waterfill

    def recording(g, r, price, budget):
        terms = waterfill(g, r, price, budget)
        calls.append((price == 0, terms))
        return terms

    monkeypatch.setattr(power, "_priced_waterfill", recording)
    for chunk_size in (1, 2, 3):
        grid = build_grid(12, chunk_size)
        rows = np.array([row for row in itertools.product(range(2), repeat=grid.n_chunks) if len(set(row)) == 2])
        for trial in range(3):
            gains = np.random.default_rng(trial).exponential(size=(2, 12))
            unit, rates, _ = power._unit_waterfill(grid, gains, 12.0, rows)
            owners, g, r = power._owned_gains(grid, gains, rows)
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                iterate = power._priced_bound(g, r, rates, owners, weights, 12.0)
            assert calls and all(zero.any() for zero, _ in calls)
            assert all(np.all(terms[zero] == 0.0) for zero, terms in calls)
            assert np.all(np.isfinite(iterate)) and np.all(iterate >= 0.0)


def test_priced_waterfill_takes_a_row_without_a_priced_gain():
    # Weights (1e300, 1) normalise to prices (1e-300, 1e-300); a step of
    # 1e-30 on user 1 underflows its price to 0, so the row where user 1
    # owns every chunk has no positive price on a positive gain.  Its
    # water-fill earns nothing, without a floating-point warning, and
    # the other row's terms are those it gets alone.
    grid = build_grid(12, 2)
    gains = np.random.default_rng(0).exponential(size=(2, 12))
    owners, g, r = power._owned_gains(grid, gains, np.array([[1] * 6, [0, 1, 0, 1, 0, 1]]))
    nu = np.array([1.0, 1e-30]) / 1e300
    price = nu[owners]
    assert np.all(price[0] == 0.0) and np.all(price[1][owners[1] == 0] > 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = power._priced_waterfill(g, r, price, 12.0)
        alone = power._priced_waterfill(g[1:], r[1:], price[1:], 12.0)
    assert np.all(terms[0] == 0.0)
    assert np.array_equal(terms[1:].view(np.uint64), alone.view(np.uint64))
    assert terms[1].sum() > 0.0


def _bound_with_every_priced_iterate(grid, gains, total_power, rows, weights):
    """``sum_rate_bound``'s rate-weighted bound with the priced iterates taken on every map: (bound, margin, unit)."""
    unit, rates, g_max = power._unit_waterfill(grid, gains, total_power, rows)
    owners, g, r = power._owned_gains(grid, gains, rows)
    margin = weights.sum() / weights.min() * (2.0**-45 + 6e-12 * total_power * g_max / grid.n_subcarriers)
    iterate = power._priced_bound(g, r, rates, owners, weights, total_power * (1.0 + 1e-9)) + margin
    bound = np.fmin(unit, iterate)
    bound[np.isnan(unit)] = np.nan
    return bound, margin, unit


@pytest.mark.parametrize("ratio", [1.0, 1e6, 1e12])
def test_weighted_bound_skips_only_priced_iterates_that_cannot_lower_it(monkeypatch, ratio):
    # Oracle-small's shape: N = 12, K = 2, L in {1, 2, 3}, every covering map.
    # A priced iterate is at least its margin, so a map whose margin reaches
    # its unit-price bound keeps that bound and skips its priced water-fills;
    # at a weight ratio of 1e12 every map's margin does.
    weights = np.array([1.0, ratio])
    priced_rows = []
    waterfill = power._priced_waterfill

    def recorded(g, r, price, budget):
        if not (price == 1.0).all():
            priced_rows.append(len(g))
        return waterfill(g, r, price, budget)

    refined = lowered = 0
    for chunk_size in (1, 2, 3):
        grid = build_grid(12, chunk_size)
        rows = np.array([row for row in itertools.product(range(2), repeat=grid.n_chunks) if len(set(row)) == 2])
        for trial in range(3):
            gains = np.random.default_rng(trial).exponential(size=(2, 12))
            want, margin, unit = _bound_with_every_priced_iterate(grid, gains, 12.0, rows, weights)
            with monkeypatch.context() as m:
                m.setattr(power, "_priced_waterfill", recorded)
                bound = sum_rate_bound(grid, gains, 12.0, rows, weights=weights)
            assert bound.tobytes() == want.tobytes()
            refined += int((margin < unit).sum())
            lowered += int((bound < unit).sum())
    assert sum(priced_rows) == power._DUAL_UPDATES * power._DUAL_EXPONENTS.size * refined
    assert (refined == lowered == 0) if ratio == 1e12 else lowered > 0


def _widest_waterfill(assignment, gains, total_power):
    """Water-filling over the map's own gains, spending as much as ``_check_allocation`` accepts.

    This allocation meets the bound closest: the bound is the water-filling
    rate at P (1 + 1e-9), so only its float margin lies between them.
    """
    n = assignment.grid.n_subcarriers
    owned = gains[assignment.subcarrier_owners, np.arange(n)]
    ordered, subcarriers = order_gains_direct(owned, np.arange(n))
    for excess in (1e-9, 1e-9 - 1e-15, 1e-9 - 1e-14):
        powers = np.zeros_like(gains)
        powers[assignment.subcarrier_owners[subcarriers], subcarriers] = (
            prune_and_waterfill(total_power * (1.0 + excess), ordered)[0]
        )
        try:
            _check_allocation(powers, total_power)
        except AllocationError:
            continue
        return powers
    raise AssertionError("no water-filling allocation near the tolerance is accepted")


def test_sum_rate_bound_of_a_map_with_a_nan_gain_is_nan():
    grid, gains, owners, weights = _bound_instance(3, 2, 2, 2, 1)
    rows = np.array([owners, 1 - owners])
    gains[owners[0], 0] = np.nan  # owned by row 0 only
    for bound in (sum_rate_bound(grid, gains, 10.0, rows),
                  sum_rate_bound(grid, gains, 10.0, rows, weights=weights)):
        assert np.isnan(bound[0]) and np.isfinite(bound[1])


def test_sum_rate_bound_of_a_map_without_a_positive_gain_is_its_margin():
    grid = build_grid(6, 2)
    bound = sum_rate_bound(grid, np.zeros((2, 6)), 6.0, np.array([[0, 1, 0], [1, 1, 0]]))
    assert bound.tolist() == [2.0**-50] * 2
