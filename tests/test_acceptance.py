"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its stated tolerance and runtime budget.  Shared Monte-Carlo
runs are module-scoped fixtures so the trend criteria reuse one run.
"""

import time

import numpy as np
import pytest

from chunkfair import (
    ExperimentConfig,
    OrderedGains,
    UserProfile,
    build_grid,
    chunk_rates,
    deviation,
    exact_pa_oracle,
    exhaustive_sa_oracle,
    linear_coefficients,
    mean_ci,
    proposed_pa,
    proposed_sa,
    prune_and_waterfill,
    realize_channel,
    run_experiment,
    solve_power_split,
    static_sa,
    substream,
    uniform_pa,
    user_rates,
)
from chunkfair.harness import emit_csv

from oracles import gauss_solve


def report(number, ok, text):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} {text}")


SINGLE_CELL_TREND_CONFIG = {
    "scenario": "single-cell",
    "n_subcarriers": 128,
    "n_users": 4,
    "tap_counts": [4, 8, 16, 32],
    "rate_weights": [1.0, 1.0, 4.0, 4.0],
    "trials": 500,
    "seed": 13579,
    "sa_schemes": ["proposed", "shen"],
    "pa_schemes": ["proposed", "uniform"],
    "chunk_sizes": [1],
    "snr_db": [-10.0, 0.0, 10.0],
}

MULTICELL_BASE = {
    "n_subcarriers": 512,
    "n_users": 8,
    "tap_counts": [4, 8, 16, 32, 4, 8, 16, 32],
    "rate_weights": [1.0] * 8,
    "trials": 200,
    "seed": 24680,
    "sa_schemes": ["proposed", "shen", "static"],
    "pa_schemes": ["uniform"],
    "chunk_sizes": [1, 4, 16],
    "centre_radius_fraction": 0.5,
    "cell_radius_km": 1.0,
    "intercell_distance_km": 2.0,
    "target_ber": 1e-6,
    "bs_power_dbm": 43.0,
    "noise_density_dbm_hz": -174.0,
    "subcarrier_spacing_hz": 15e3,
}


@pytest.fixture(scope="module")
def single_cell_run():
    config = ExperimentConfig.from_dict(SINGLE_CELL_TREND_CONFIG)
    started = time.perf_counter()
    rows, summary = run_experiment(config)
    elapsed = time.perf_counter() - started
    return config, rows, summary, elapsed


@pytest.fixture(scope="module")
def multicell_runs():
    started = time.perf_counter()
    out = {}
    for scenario in ("multi-cell", "multi-cell-no-FFR"):
        config = ExperimentConfig.from_dict(MULTICELL_BASE | {"scenario": scenario})
        rows, summary = run_experiment(config)
        out[scenario] = rows
    elapsed = time.perf_counter() - started
    return out, elapsed


def metric_by_trial(rows, metric, **match):
    out = {}
    for r in rows:
        if r.error:
            continue
        if all(getattr(r, key) == val for key, val in match.items()):
            value = getattr(r, metric)
            if value is not None:
                out[r.trial] = value
    return out


def paired_gap(rows, metric, match_a, match_b):
    a = metric_by_trial(rows, metric, **match_a)
    b = metric_by_trial(rows, metric, **match_b)
    trials = sorted(set(a) & set(b))
    diffs = [a[t] - b[t] for t in trials]
    return mean_ci(diffs)


# ------------------------------------------------------------------ 1

def test_criterion_01_linear_split_matches_dense_solve():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 1000:
        k = int(rng.integers(2, 9))
        sizes = rng.integers(2, 17, size=k)
        total = int(sizes.sum())
        if not 16 <= total <= 128:
            continue
        coeffs = [
            OrderedGains.of(np.sort(rng.lognormal(0.0, 1.0, s)))
            for s in sizes
        ]
        weights = rng.random(k) + 0.2
        total_power = float(rng.random() * 100 + 1.0)
        alphas, betas = linear_coefficients(coeffs, weights)
        budgets = solve_power_split(alphas, betas, total_power)
        a = np.zeros((k, k))
        b = np.zeros(k)
        a[0, :] = 1.0
        b[0] = total_power
        for j in range(1, k):
            a[j, 0] = 1.0
            a[j, j] = alphas[j - 1]
            b[j] = betas[j - 1]
        reference = gauss_solve(a, b)
        err = np.abs(budgets - reference).max() / np.abs(reference).max()
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, ok, f"linear split vs dense row reduction, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


# ------------------------------------------------------------------ 2

def test_criterion_02_water_level_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_level = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 64))
        gains = np.sort(rng.lognormal(0.0, 1.0, size)) + 1e-3
        og = OrderedGains.of(gains)
        v = og.v
        budget = float(rng.random() * (2.0 * v + 5.0))
        powers, _ = prune_and_waterfill(budget, og)
        active = powers > 0
        if active.any():
            level = powers[active] + 1.0 / gains[active]
            worst_level = max(worst_level, float(level.max() - level.min()))
        worst_sum = max(worst_sum, abs(powers.sum() - budget) / max(budget, 1e-300))
    elapsed = time.perf_counter() - started
    ok = worst_level < 1e-10 and worst_sum < 1e-10 and elapsed < 5.0
    report(2, ok, f"water level spread {worst_level:.2e}, budget error {worst_sum:.2e}, {elapsed:.1f}s")
    assert worst_level < 1e-10
    assert worst_sum < 1e-10
    assert elapsed < 5.0


# ------------------------------------------------------------------ 3

def test_criterion_03_exact_oracle_fairness():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    weights = np.array([1.0, 1.0, 4.0, 4.0])
    grid = build_grid(64, 4)
    checked = 0
    attempts = 0
    worst_dev = 0.0
    worst_budget = 0.0
    while checked < 100 and attempts < 3000:
        attempts += 1
        # moderate spread keeps every budget above its waterfill floor
        gains = np.exp(0.4 * rng.standard_normal((4, 64))) + 0.2
        total_power = 320.0
        assignment = static_sa(4, grid)
        alloc = exact_pa_oracle(assignment, gains, weights, total_power)
        if alloc.pruned.sum() > 0:
            continue
        checked += 1
        rates = user_rates(alloc.powers, gains)
        worst_dev = max(worst_dev, deviation(rates, weights))
        worst_budget = max(
            worst_budget, abs(alloc.budgets.sum() - total_power) / total_power
        )
    elapsed = time.perf_counter() - started
    ok = checked == 100 and worst_dev < 1e-6 and worst_budget <= 1e-12 and elapsed < 30.0
    report(3, ok, f"exact PA oracle on {checked} prune-free instances, "
                  f"worst deviation {worst_dev:.2e}, budget error {worst_budget:.2e}, {elapsed:.1f}s")
    assert checked == 100
    assert worst_dev < 1e-6
    assert worst_budget <= 1e-12
    assert elapsed < 30.0


# ------------------------------------------------------------------ 4

def test_criterion_04_low_snr_deviation_shrinks():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    weights = np.array([1.0, 1.0, 4.0, 4.0])
    grid = build_grid(64, 4)
    improved = 0
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 5000:
        attempts += 1
        # near-flat gains keep every budget above its waterfill floor at
        # both power levels, so only the linearisation error remains
        gains = np.exp(0.05 * rng.standard_normal((4, 64)))
        total_power = 128.0
        assignment = static_sa(4, grid)
        high = proposed_pa(assignment, gains, weights, total_power)
        low = proposed_pa(assignment, gains, weights, total_power / 10.0)
        touched = (
            high.repaired.any() or high.pruned.sum() > 0
            or low.repaired.any() or low.pruned.sum() > 0
        )
        if touched:
            continue
        checked += 1
        dev_high = deviation(user_rates(high.powers, gains), weights)
        dev_low = deviation(user_rates(low.powers, gains), weights)
        if dev_low < dev_high:
            improved += 1
    elapsed = time.perf_counter() - started
    frac = improved / max(checked, 1)
    ok = checked == 200 and frac >= 0.90 and elapsed < 60.0
    report(4, ok, f"deviation shrank at P/10 on {improved}/{checked} instances "
                  f"({100 * frac:.1f}%), {elapsed:.1f}s")
    assert checked == 200
    assert frac >= 0.90
    assert elapsed < 60.0


# ------------------------------------------------------------------ 5

def test_criterion_05_single_cell_rate_trends(single_cell_run):
    config, rows, _, elapsed = single_cell_run
    checks = []

    for snr in (-10.0, 0.0, 10.0):
        for pa in ("proposed", "uniform"):
            gap, half = paired_gap(
                rows, "min_weighted_rate",
                {"sa": "proposed", "pa": pa, "snr_db": snr},
                {"sa": "shen", "pa": pa, "snr_db": snr},
            )
            checks.append((f"(a) proposed >= shen SA, pa={pa}, snr={snr:+.0f}", gap, half))

    gap, half = paired_gap(
        rows, "min_weighted_rate",
        {"sa": "proposed", "pa": "proposed", "snr_db": -10.0},
        {"sa": "proposed", "pa": "uniform", "snr_db": -10.0},
    )
    checks.append(("(b) proposed >= uniform PA at -10 dB", gap, half))

    gap, half = paired_gap(
        rows, "min_weighted_rate",
        {"sa": "proposed", "pa": "uniform", "snr_db": 10.0},
        {"sa": "proposed", "pa": "proposed", "snr_db": 10.0},
    )
    checks.append(("(c) uniform >= proposed PA at +10 dB", gap, half))

    failures = []
    for label, gap, half in checks:
        passed = gap > -half
        print(f"    criterion 5 {label}: gap {gap:+.3e}, ci half-width {half:.3e} "
              f"-> {'ok' if passed else 'STATISTICALLY REVERSED'}")
        if not passed:
            failures.append(label)
    ok = not failures and elapsed < 600.0
    report(5, ok, f"single-cell rate trends, {len(checks) - len(failures)}/{len(checks)} "
                  f"inequalities hold, run {elapsed:.0f}s")
    assert elapsed < 600.0
    assert not failures, (
        f"statistically reversed: {failures}; known model-level conflict, "
        "see decisions ledger (linearised PA degrades min weighted rate around "
        "-15..-5 dB per-subcarrier SNR)"
    )


# ------------------------------------------------------------------ 6

def test_criterion_06_single_cell_deviation_trends(single_cell_run):
    _, rows, _, _ = single_cell_run
    dev_low = np.mean(list(metric_by_trial(
        rows, "deviation", sa="proposed", pa="proposed", snr_db=-10.0).values()))
    dev_high = np.mean(list(metric_by_trial(
        rows, "deviation", sa="proposed", pa="proposed", snr_db=10.0).values()))
    dev_uniform_low = np.mean(list(metric_by_trial(
        rows, "deviation", sa="proposed", pa="uniform", snr_db=-10.0).values()))
    ok = dev_low > dev_high and dev_uniform_low <= dev_low
    report(6, ok, f"deviation(proposed PA): {dev_low:.4f} @-10dB > {dev_high:.4f} @+10dB; "
                  f"uniform {dev_uniform_low:.4f} <= proposed @-10dB")
    assert dev_low > dev_high
    assert dev_uniform_low <= dev_low


# ------------------------------------------------------------------ 7

def test_criterion_07_oracle_dominance():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    violations = 0
    for i in range(200):
        n_chunks = int(rng.integers(2, 7))
        chunk = int(rng.integers(1, 5))
        n = n_chunks * chunk + int(rng.integers(0, chunk))
        grid = build_grid(n, chunk)
        taps = int(rng.integers(1, min(n, 4) + 1))
        gains = np.empty((2, n))
        for k in range(2):
            gains[k] = realize_channel(
                UserProfile(taps), n, 1.0, substream(700 + i, 0, 0, k, 0)
            ).gains
        weights = np.array([1.0, float(rng.integers(1, 5))])
        total_power = float(n)

        def solver(assignment):
            return user_rates(uniform_pa(assignment, total_power).powers, gains)

        best = exhaustive_sa_oracle(weights, grid, solver)
        table = chunk_rates(gains, grid, total_power / n)
        heuristic, _ = proposed_sa(table, weights, grid)
        if best.sum_rate + 1e-12 < float(np.sum(solver(heuristic))):
            violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 60.0
    report(7, ok, f"oracle dominance on 200 instances, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


# ------------------------------------------------------------------ 8

def test_criterion_08_multicell_rate_trends(multicell_runs):
    runs, elapsed = multicell_runs
    ffr = runs["multi-cell"]
    reuse1 = runs["multi-cell-no-FFR"]
    failures = []

    means = {}
    for scenario, rows in (("ffr", ffr), ("reuse1", reuse1)):
        for sa in ("proposed", "shen", "static"):
            for chunk in (1, 4, 16):
                vals = list(metric_by_trial(
                    rows, "min_edge_rate", sa=sa, chunk_size=chunk).values())
                means[(scenario, sa, chunk)] = float(np.mean(vals))

    for sa in ("proposed", "shen", "static"):
        for chunk in (1, 4, 16):
            if not means[("ffr", sa, chunk)] > means[("reuse1", sa, chunk)]:
                failures.append(f"(a) FFR <= reuse-1 for sa={sa}, L={chunk}")

    for chunk in (1, 4, 16):
        p = means[("ffr", "proposed", chunk)]
        s = means[("ffr", "shen", chunk)]
        st = means[("ffr", "static", chunk)]
        if not (p >= s >= st):
            failures.append(f"(b) ordering broken at L={chunk}: {p:.4f}, {s:.4f}, {st:.4f}")

    ratio = means[("ffr", "proposed", 4)] / means[("ffr", "static", 4)]
    if ratio < 2.0:
        failures.append(f"(c) proposed/static ratio {ratio:.2f} < 2.0 at L=4")

    for lo, hi in ((1, 4), (4, 16)):
        gap, half = paired_gap(
            ffr, "min_edge_rate",
            {"sa": "proposed", "chunk_size": hi},
            {"sa": "proposed", "chunk_size": lo},
        )
        if gap > half:
            failures.append(f"(d) min edge rate increased from L={lo} to L={hi}")

    for key in sorted(means):
        print(f"    criterion 8 mean min edge rate {key}: {means[key]:.4f}")
    ok = not failures and elapsed < 1200.0
    report(8, ok, f"multi-cell rate trends, proposed/static ratio {ratio:.2f} at L=4, "
                  f"run {elapsed:.0f}s" + (f"; failures: {failures}" if failures else ""))
    assert elapsed < 1200.0
    assert not failures


# ------------------------------------------------------------------ 9

def test_criterion_09_multicell_deviation_trends(multicell_runs):
    runs, _ = multicell_runs
    ffr = runs["multi-cell"]
    failures = []
    means = {}
    for sa in ("proposed", "static"):
        for chunk in (1, 4, 16):
            vals = list(metric_by_trial(
                ffr, "edge_deviation", sa=sa, chunk_size=chunk).values())
            means[(sa, chunk)] = float(np.mean(vals))
    for chunk in (1, 4, 16):
        if not means[("static", chunk)] > means[("proposed", chunk)]:
            failures.append(f"static deviation not above proposed at L={chunk}")
    for lo, hi in ((1, 4), (4, 16)):
        gap, half = paired_gap(
            ffr, "edge_deviation",
            {"sa": "proposed", "chunk_size": hi},
            {"sa": "proposed", "chunk_size": lo},
        )
        if gap < -half:
            failures.append(f"proposed deviation decreased from L={lo} to L={hi}")
    for key in sorted(means):
        print(f"    criterion 9 mean edge deviation {key}: {means[key]:.4f}")
    ok = not failures
    report(9, ok, "multi-cell deviation trends"
                  + (f"; failures: {failures}" if failures else ""))
    assert not failures


# ------------------------------------------------------------------ 10

def test_criterion_10_structural_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    for i in range(10_000):
        n_users = int(rng.integers(1, 7))
        chunk = int(rng.integers(1, 5))
        n_chunks = int(rng.integers(n_users, n_users + 12))
        n = n_chunks * chunk
        grid = build_grid(n, chunk)
        gains = np.empty((n_users, n))
        parseval_ok = True
        for k in range(n_users):
            ch = realize_channel(
                UserProfile(int(rng.integers(1, min(n, 8) + 1))), n, 1.0,
                substream(i, 0, 0, k, 0),
            )
            lhs = np.sum(np.abs(ch.response) ** 2)
            rhs = n * np.sum(np.abs(ch.taps) ** 2)
            parseval_ok = parseval_ok and abs(lhs - rhs) <= 1e-10 * rhs
            gains[k] = ch.gains
        assert parseval_ok
        total_power = float(n)
        table = chunk_rates(gains, grid, total_power / n)
        weights = rng.random(n_users) + 0.2
        assignment, _ = proposed_sa(table, weights, grid)
        assert len(assignment.owners) == grid.n_chunks
        assert set(assignment.owners) <= set(range(n_users))
        assert assignment.subcarrier_counts().sum() == n
        alloc = proposed_pa(assignment, gains, weights, total_power)
        assert abs(alloc.powers.sum() - total_power) <= 1e-9 * total_power
        assert alloc.powers.min() >= 0.0
        if n_users >= 2:
            rates = user_rates(alloc.powers, gains)
            if rates.sum() > 0:
                d = deviation(rates, weights)
                assert 0.0 <= d <= 1.0
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    report(10, ok, f"structural invariants on 10000 random instances, {elapsed:.1f}s")
    assert elapsed < 60.0


# ------------------------------------------------------------------ 11

def test_criterion_11_byte_identical_reruns(single_cell_run, tmp_path):
    config, rows, _, _ = single_cell_run
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    emit_csv(rows, first)
    rows2, _ = run_experiment(ExperimentConfig.from_dict(SINGLE_CELL_TREND_CONFIG))
    emit_csv(rows2, second)
    ok = first.read_bytes() == second.read_bytes()
    report(11, ok, "byte-identical CSV across reruns of the same seed")
    assert ok
