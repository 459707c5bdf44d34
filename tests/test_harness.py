import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import runpy
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from chunkfair import (
    AllocationError,
    ChunkfairError,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    OracleConvergenceError,
    cli,
    harness,
    power,
    run_experiment,
)
from chunkfair.assign import build_grid, static_sa
from chunkfair.cli import main
from chunkfair.harness import ROW_COLUMNS, SUMMARY_COLUMNS, _fmt, emit_csv, emit_summary_csv
from chunkfair.power import proposed_pa

DATA = Path(__file__).parent / "data"
# The golden fixture is the output of `chunkfair run` on this config.
GOLDEN_CONFIG_PATH = DATA / "golden_config.json"
GOLDEN_CONFIG = json.loads(GOLDEN_CONFIG_PATH.read_text(encoding="utf-8"))
CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))

# Small multi-cell run with edge users at every chunk size.
MULTI_CELL = {
    "scenario": "multi-cell",
    "n_subcarriers": 128,
    "n_users": 4,
    "tap_counts": [4, 8, 4, 8],
    "rate_weights": [1.0, 1.0, 2.0, 2.0],
    "trials": 3,
    "seed": 11,
    "sa_schemes": ["proposed", "static"],
    "pa_schemes": ["uniform"],
    "chunk_sizes": [2, 4],
}


def tiny_config(**kw):
    data = {
        "scenario": "single-cell",
        "n_subcarriers": 16,
        "n_users": 2,
        "tap_counts": [2, 4],
        "rate_weights": [1.0, 2.0],
        "trials": 2,
        "seed": 5,
        "sa_schemes": ["proposed"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [4],
        "snr_db": [0.0],
    }
    data.update(kw)
    return ExperimentConfig.from_dict(data)


# ------------------------------------------------------------- config

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        tiny_config(bogus=1)


def test_config_rejects_bad_schemes():
    with pytest.raises(ConfigError, match="unknown SA"):
        tiny_config(sa_schemes=["best"])
    with pytest.raises(ConfigError, match="unknown PA"):
        tiny_config(pa_schemes=["magic"])


def test_config_single_cell_needs_snr():
    with pytest.raises(ConfigError, match="snr_db"):
        tiny_config(snr_db=[])


def test_config_multicell_requires_uniform_pa():
    with pytest.raises(ConfigError, match="uniform power only"):
        tiny_config(scenario="multi-cell", pa_schemes=["proposed"])


def test_config_chunks_must_cover_users():
    with pytest.raises(ConfigError, match="fewer chunks than users"):
        tiny_config(chunk_sizes=[16])


def test_config_oracle_cap_guard():
    # 2**32 candidate maps is far beyond the default enumeration cap
    with pytest.raises(ConfigError, match="exhaustive oracle"):
        tiny_config(
            n_subcarriers=32,
            sa_schemes=["proposed", "exhaustive-oracle"],
            chunk_sizes=[1],
        )


def test_config_per_user_lists_checked():
    with pytest.raises(ConfigError, match="per user"):
        tiny_config(tap_counts=[2])


@pytest.mark.parametrize("change, message", [
    ({"trials": 0}, "trials must be >= 1"),
    ({"target_ber": 3.0}, "do not read"),
    ({"chunk_sizes": (1.5,)}, r"chunk_sizes must be a list of integers, got \(1\.5,\)"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
], ids=["trials", "target_ber", "chunk_sizes-kind", "seed-kind", "trials-kind"])
def test_config_is_checked_when_constructed(change, message):
    base = tiny_config()
    data = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**data | change)
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(base, **change)


def test_config_resolves_its_field_kinds_once(monkeypatch):
    calls = []
    resolve = harness.get_type_hints
    monkeypatch.setattr(harness, "get_type_hints", lambda cls: calls.append(cls) or resolve(cls))
    monkeypatch.setattr(harness, "_type_hints", functools.cache(harness._type_hints.__wrapped__))
    config = tiny_config()
    for seed in range(3):
        config = dataclasses.replace(config, seed=seed)
        tiny_config(trials=seed + 1)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        dataclasses.replace(config, seed=1.5)
    assert calls == [ExperimentConfig]


def test_config_built_in_python_keeps_lists_as_tuples():
    config = dataclasses.replace(tiny_config(), chunk_sizes=[2, 4], sa_schemes=["proposed", "shen"])
    assert config.chunk_sizes == (2, 4) and config.sa_schemes == ("proposed", "shen")
    assert config == tiny_config(chunk_sizes=[2, 4], sa_schemes=["proposed", "shen"])
    assert hash(config) == hash(tiny_config(chunk_sizes=(2, 4), sa_schemes=("proposed", "shen")))


def test_config_from_file_and_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "single-cell"}), encoding="utf-8")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.from_file(path)


# ------------------------------------------------------------- runs

def test_run_is_deterministic_and_sorted():
    config = tiny_config(trials=3, snr_db=[-5.0, 5.0])
    rows_a, summary_a = run_experiment(config)
    rows_b, _ = run_experiment(config)
    assert [r.rates for r in rows_a] == [r.rates for r in rows_b]
    keys = [r.sort_key() for r in rows_a]
    assert keys == sorted(keys)
    assert len(rows_a) == 3 * 2
    assert all(not r.error for r in rows_a)
    assert summary_a


def test_rows_share_channels_across_snr():
    config = tiny_config(trials=1, snr_db=[-5.0, 5.0], pa_schemes=["uniform"])
    rows, _ = run_experiment(config)
    low, high = rows[0], rows[1]
    assert low.snr_db == -5.0 and high.snr_db == 5.0
    assert high.sum_rate > low.sum_rate  # same channels, more power


def test_exhaustive_oracle_scheme_runs_when_capped():
    config = tiny_config(
        n_subcarriers=8,
        chunk_sizes=[2],
        sa_schemes=["proposed", "exhaustive-oracle"],
        trials=2,
    )
    rows, _ = run_experiment(config)
    by_scheme = {}
    for r in rows:
        by_scheme.setdefault(r.sa, []).append(r)
    for trial in range(2):
        oracle = [r for r in by_scheme["exhaustive-oracle"] if r.trial == trial][0]
        heur = [r for r in by_scheme["proposed"] if r.trial == trial][0]
        assert oracle.sum_rate + 1e-12 >= heur.sum_rate


def test_multicell_run_emits_edge_metrics():
    config = ExperimentConfig.from_dict({
        "scenario": "multi-cell",
        "n_subcarriers": 256,
        "n_users": 4,
        "tap_counts": [4, 8, 4, 8],
        "rate_weights": [1.0, 1.0, 1.0, 1.0],
        "trials": 3,
        "seed": 11,
        "sa_schemes": ["proposed", "static"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [4],
    })
    rows, summary = run_experiment(config)
    ok_rows = [r for r in rows if not r.error]
    assert ok_rows
    assert any(r.min_edge_rate is not None for r in ok_rows)
    assert all(r.snr_db is None for r in rows)
    metrics_seen = {s.metric for s in summary}
    assert "min_edge_rate" in metrics_seen


def test_multicell_run_draws_each_trial_once(monkeypatch):
    from chunkfair import multicell

    draws = []
    build = multicell.build_scenario

    def counting_build(params, master_seed, trial):
        draws.append(trial)
        return build(params, master_seed, trial)

    monkeypatch.setattr(multicell, "build_scenario", counting_build)
    config = ExperimentConfig.from_dict({
        "scenario": "multi-cell-no-FFR",
        "n_subcarriers": 128,
        "n_users": 4,
        "tap_counts": [4, 8, 4, 8],
        "rate_weights": [1.0, 1.0, 1.0, 1.0],
        "trials": 2,
        "seed": 3,
        "sa_schemes": ["proposed", "shen"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [1, 3, 4],
    })
    rows, _ = run_experiment(config)
    assert draws == [0, 1]
    assert len(rows) == 12


def test_multicell_run_reuses_the_checked_params(monkeypatch):
    # The config's check builds each chunk size's ScenarioParams, and
    # with it the drop geometry; a run builds neither.
    from chunkfair import multicell

    config = ExperimentConfig.from_dict(MULTI_CELL)
    counts = {"params": 0, "layouts": 0}
    post_init, build_layout = multicell.ScenarioParams.__post_init__, multicell.build_layout

    def counting_post_init(params):
        counts["params"] += 1
        post_init(params)

    def counting_build_layout(*args):
        counts["layouts"] += 1
        return build_layout(*args)

    monkeypatch.setattr(multicell.ScenarioParams, "__post_init__", counting_post_init)
    monkeypatch.setattr(multicell, "build_layout", counting_build_layout)
    rows, _ = run_experiment(config)
    assert counts == {"params": 0, "layouts": 0}
    assert len(rows) == config.trials * len(config.chunk_sizes) * len(config.sa_schemes)


def _counting_run_sa(monkeypatch, fail=()):
    """Record each run_sa call's scheme; schemes in ``fail`` raise InfeasibleError."""
    from chunkfair import assign

    calls = []
    run_sa = assign.run_sa

    def counting(name, table, weights, grid):
        calls.append(name)
        if name in fail:
            raise InfeasibleError(f"{name} has no assignment")
        return run_sa(name, table, weights, grid)

    monkeypatch.setattr(assign, "run_sa", counting)
    return calls


def test_single_cell_assigns_once_per_sweep_point(monkeypatch):
    calls = _counting_run_sa(monkeypatch)
    config = tiny_config(
        trials=2,
        n_subcarriers=8,
        chunk_sizes=[2, 4],
        snr_db=[-5.0, 5.0],
        sa_schemes=["proposed", "shen", "exhaustive-oracle"],
        pa_schemes=["proposed", "uniform", "exact-oracle"],
    )
    rows, _ = run_experiment(config)
    # 2 trials x 2 chunk sizes x 2 SNR points, once per greedy scheme.
    assert sorted(calls) == ["proposed"] * 8 + ["shen"] * 8
    assert len(rows) == 8 * 3 * 3 and not any(r.error for r in rows)


@pytest.mark.parametrize("name", ["single_cell_sweep.json", "multicell_ffr.json"])
def test_materialised_points_give_the_rates_of_points_consumed_in_order(name):
    config = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / name)
    weights = np.asarray(config.rate_weights, dtype=float)
    points = harness._single_cell_points if config.scenario == "single-cell" else harness._multi_cell_points

    def rates(rates_of):
        return [rates_of(sa, pa).tolist() for sa in config.sa_schemes for pa in config.pa_schemes]

    in_order = [rates(rates_of) for _, _, rates_of, _ in points(config, 0, weights)]
    held = list(points(config, 0, weights))
    assert len(held) == 5 and len({repr(r) for r in in_order}) == 5
    assert [rates(rates_of) for _, _, rates_of, _ in held] == in_order


def test_failed_assignment_writes_one_error_row_per_pa_scheme(monkeypatch):
    calls = _counting_run_sa(monkeypatch, fail=("shen",))
    config = tiny_config(sa_schemes=["proposed", "shen"], pa_schemes=["proposed", "uniform"])
    rows, _ = run_experiment(config)
    assert calls.count("shen") == 2
    failed = [r for r in rows if r.sa == "shen"]
    assert [(r.trial, r.pa) for r in failed] == [
        (0, "proposed"), (0, "uniform"), (1, "proposed"), (1, "uniform")
    ]
    assert all(r.error == "InfeasibleError: shen has no assignment" for r in failed)
    assert all(r.rates == () and r.min_rate is None for r in failed)
    assert not any(r.error for r in rows if r.sa == "proposed")


def test_failed_power_allocation_marks_only_its_own_rows(monkeypatch):
    from chunkfair import power

    def failing(*args):
        raise OracleConvergenceError("forced")

    monkeypatch.setattr(power, "exact_pa_oracle", failing)
    config = tiny_config(sa_schemes=["proposed", "exhaustive-oracle"],
                         pa_schemes=["uniform", "exact-oracle"])
    rows, _ = run_experiment(config)
    failed = [r for r in rows if r.pa == "exact-oracle"]
    assert [(r.trial, r.sa) for r in failed] == [
        (0, "exhaustive-oracle"), (0, "proposed"), (1, "exhaustive-oracle"), (1, "proposed")
    ]
    assert all(r.error == "OracleConvergenceError: forced" for r in failed)
    assert all(r.rates == () and r.min_rate is None and r.deviation is None for r in failed)
    complete = [r for r in rows if r.pa == "uniform"]
    assert len(complete) == 4 and not any(r.error for r in complete)
    assert all(len(r.rates) == 2 and r.min_rate is not None and r.deviation is not None
               for r in complete)


def _record_oracle_visits(monkeypatch):
    """Every owner tuple the exhaustive oracle asks its PA for, in order."""
    from chunkfair import assign

    search, visited = assign.exhaustive_sa_oracle, []

    def recorded(weights, grid, pa_solver, **kw):
        def solver(assignment):
            visited.append(assignment.owners)
            return pa_solver(assignment)

        return search(weights, grid, solver, **kw)

    monkeypatch.setattr(assign, "exhaustive_sa_oracle", recorded)
    return visited


def _failing_uniform_pa(monkeypatch):
    """Make ``power.uniform_pa`` record each owner tuple and fail on those put in the returned set."""
    from chunkfair import power

    uniform, asked, failing = power.uniform_pa, [], set()

    def counted(assignment, total_power):
        asked.append(assignment.owners)
        if assignment.owners in failing:
            raise OracleConvergenceError("forced")
        return uniform(assignment, total_power)

    monkeypatch.setattr(power, "uniform_pa", counted)
    return asked, failing


def test_each_assignment_is_solved_once_per_point_and_errors_are_asked_again(monkeypatch):
    asked, failing = _failing_uniform_pa(monkeypatch)
    visited = _record_oracle_visits(monkeypatch)
    # At this seed the search visits the proposed assignment, which the
    # proposed row solves first; the search takes its rates from that solve.
    config = tiny_config(trials=1, seed=2, sa_schemes=["proposed", "exhaustive-oracle"])
    clean, _ = run_experiment(config)
    assert asked[0] in visited
    assert len(asked) == len(set(asked)) == len(visited) < 14
    failing.add(asked[0])
    asked.clear()
    rows, _ = run_experiment(config)
    assert asked.count(next(iter(failing))) == 2
    assert [r.error for r in rows] == ["OracleConvergenceError: forced"] * 2
    assert not any(r.error for r in clean)


def test_a_pa_error_fails_the_oracle_row_only_from_a_candidate_the_search_visits(monkeypatch):
    asked, failing = _failing_uniform_pa(monkeypatch)
    visited = _record_oracle_visits(monkeypatch)
    config = tiny_config(trials=1, sa_schemes=["exhaustive-oracle"])
    clean, _ = run_experiment(config)
    visited_clean = list(visited)
    maps = [o for o in itertools.product(range(2), repeat=4) if len(set(o)) == 2]
    skipped = [o for o in maps if o not in visited_clean]
    assert not any(r.error for r in clean) and len(skipped) == 14 - len(visited_clean) > 0
    failing.update(skipped)
    assert run_experiment(config)[0] == clean
    failing.add(visited_clean[-1])
    rows, _ = run_experiment(config)
    assert [r.error for r in rows] == ["OracleConvergenceError: forced"]


def test_infeasible_scenarios_become_error_rows():
    config = ExperimentConfig.from_dict({
        "scenario": "multi-cell",
        "n_subcarriers": 16,
        "n_users": 8,
        "tap_counts": [4] * 8,
        "rate_weights": [1.0] * 8,
        "trials": 2,
        "seed": 1,
        "sa_schemes": ["proposed"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [4],
        "centre_radius_fraction": 0.0,
    })
    rows, _ = run_experiment(config)
    assert len(rows) == 2
    assert all("InfeasibleError" in r.error for r in rows)
    assert all(r.min_rate is None for r in rows)


def test_rate_adaptive_pa_failures_at_minus_200_db_are_allocation_errors():
    # The budgets' float cancellation at this SNR is a run-time failure,
    # not a config error; uniform power still allocates.
    config = json.loads((Path(__file__).parents[1] / "configs" / "single_cell_sweep.json")
                        .read_text(encoding="utf-8"))
    config.update(trials=10, snr_db=[-200.0], pa_schemes=["proposed", "uniform", "exact-oracle"])
    rows, _ = run_experiment(ExperimentConfig.from_dict(config))
    by_pa = {pa: [r.error.split(":")[0] for r in rows if r.pa == pa]
             for pa in config["pa_schemes"]}
    assert by_pa == {
        "proposed": ["AllocationError"] * 20,
        "uniform": [""] * 20,
        "exact-oracle": ["AllocationError"] * 20,
    }


def test_proposed_pa_failures_at_low_snr_are_pinned():
    # Here the prune drops the most subcarriers and the budgets are tiny;
    # the linearised split's cancellation fails some proposed rows.
    config = json.loads((Path(__file__).parents[1] / "configs" / "single_cell_sweep.json")
                        .read_text(encoding="utf-8"))
    config.update(trials=20, snr_db=[-70.0, -60.0, -50.0], pa_schemes=["proposed", "uniform"])
    rows, _ = run_experiment(ExperimentConfig.from_dict(config))
    failed = {(pa, snr): 0 for pa in config["pa_schemes"] for snr in config["snr_db"]}
    for r in rows:
        assert not r.error or r.error.startswith("AllocationError: ")
        failed[r.pa, r.snr_db] += bool(r.error)
    assert len(rows) == 240
    assert failed == {
        ("proposed", -70.0): 15, ("proposed", -60.0): 1, ("proposed", -50.0): 0,
        ("uniform", -70.0): 0, ("uniform", -60.0): 0, ("uniform", -50.0): 0,
    }


def test_proposed_pa_failures_at_large_rate_weight_ratios_are_pinned():
    # ExperimentConfig accepts any positive finite weights, but from a
    # ratio of about 1e8 the closed-form split loses the small user's
    # budget to cancellation between beta and P_1, at any SNR.
    assignment = static_sa(2, build_grid(16, 1))
    failed = {(0.0, 1e6): 0, (0.0, 1e8): 0, (0.0, 1e10): 0, (30.0, 1e10): 0}
    for snr_db, ratio in failed:
        for seed in range(20):
            gains = np.random.default_rng(seed).exponential(size=(2, 16))
            try:
                proposed_pa(assignment, gains, np.array([1.0, ratio]), 16 * 10.0 ** (snr_db / 10.0))
            except AllocationError as err:
                assert "does not conserve total" in str(err)
                failed[snr_db, ratio] += 1
    assert failed == {(0.0, 1e6): 0, (0.0, 1e8): 15, (0.0, 1e10): 20, (30.0, 1e10): 8}


def _csv_bytes(rows, path):
    emit_csv(rows, path)
    return path.read_bytes()


def test_only_the_exact_oracles_search_uses_the_rate_weighted_bound(monkeypatch, tmp_path):
    # The rate-weighted bound holds only for rates proportional to the
    # weights, so the proposed PA's search must keep the water-filling
    # bound and the uniform PA's its own sum rate, whose rows are those of
    # a search that solves every candidate.  Given the rate-weighted bound,
    # their searches meet sum rates above it and fail rows.
    from chunkfair import assign

    config = tiny_config(n_subcarriers=12, chunk_sizes=[2], snr_db=[-10.0, 0.0, 20.0], trials=6,
                         sa_schemes=["proposed", "exhaustive-oracle"], pa_schemes=["proposed", "uniform"])
    bounded = _csv_bytes(run_experiment(config)[0], tmp_path / "bounded.csv")
    search = assign.exhaustive_sa_oracle
    with monkeypatch.context() as m:
        m.setattr(assign, "exhaustive_sa_oracle",
                  lambda weights, grid, pa_solver, upper_bound: search(weights, grid, pa_solver))
        assert _csv_bytes(run_experiment(config)[0], tmp_path / "full.csv") == bounded
    monkeypatch.setattr(harness, "_PA", {name: (solve, "rate-weighted") for name, (solve, _) in harness._PA.items()})
    assert b"exceeds its upper bound" in _csv_bytes(run_experiment(config)[0], tmp_path / "flagged.csv")


def test_every_pa_schemes_search_bound_holds_for_its_solver():
    # A new PA scheme's bound must be at or above its solver's computed sum
    # rate on every covering map, or its oracle search could skip a winner.
    from chunkfair import assign

    for seed, (n_users, n, chunk_size) in enumerate([(1, 6, 2), (2, 12, 2), (3, 9, 3), (2, 7, 1)]):
        grid = build_grid(n, chunk_size)
        rng = np.random.default_rng(seed)
        gains = rng.exponential(size=(n_users, n))
        gains[0, 0] = 0.0
        weights = rng.uniform(0.5, 4.0, n_users)
        rows = assign._covering_rows(n_users, grid.n_chunks)
        for snr_db in (-40.0, -10.0, 0.0, 30.0):
            total_power = n * 10.0 ** (snr_db / 10.0)
            for name, (solve, bound_name) in harness._PA.items():
                bounds = harness._search_bound(bound_name, grid, gains, weights, total_power, -math.inf, {})(rows)
                for row, bound in zip(rows, bounds.tolist()):
                    a = assign.Assignment(grid=grid, owners=tuple(row.tolist()), n_users=n_users)
                    try:
                        powers = solve(a, gains, weights, total_power).powers
                    except ChunkfairError:
                        continue
                    total = float(power.user_rates(powers, gains).sum())
                    assert total <= bound, (name, seed, snr_db, row, total, bound)


def test_oracle_rows_at_minus_60_db_fail_only_from_visited_candidates():
    # Some candidates' proposed PA fails to conserve power here.  A search
    # that solved every candidate failed trials 2, 3, 5, 9, 10 and 12; in
    # trials 2 and 12 the bound rules out every candidate that fails, so
    # those rows hold the best sum rate over the candidates that succeed.
    config = tiny_config(n_subcarriers=12, chunk_sizes=[2], snr_db=[-60.0], trials=13, seed=7,
                         sa_schemes=["proposed", "exhaustive-oracle"], pa_schemes=["proposed"])
    rows, _ = run_experiment(config)
    failed = [r.trial for r in rows if r.error]
    assert failed == [3, 5, 9, 10]
    assert all(r.error.startswith("AllocationError: ") for r in rows if r.error)
    by_trial = {(r.sa, r.trial): r for r in rows}
    for trial in (2, 12):
        assert by_trial["exhaustive-oracle", trial].sum_rate >= by_trial["proposed", trial].sum_rate


def test_threaded_run_matches_serial():
    for config in (tiny_config(trials=4), ExperimentConfig.from_dict(MULTI_CELL)):
        serial, _ = run_experiment(config, threads=1)
        parallel, _ = run_experiment(config, threads=2)
        assert serial == parallel


def test_threads_capped_at_trials_and_below_one_rejected(tmp_path, monkeypatch):
    created = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = tiny_config(trials=3)
    serial, _ = run_experiment(config)
    assert run_experiment(config, threads=64)[0] == serial
    assert run_experiment(config, threads=2)[0] == serial
    assert created == [3, 2]
    for threads in (0, -1):
        with pytest.raises(ConfigError, match="threads"):
            run_experiment(config, threads=threads)
    out = tmp_path / "rows.csv"
    args = ["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out), "--threads", "0"]
    assert main(args) == 1
    assert not out.exists()
    assert created == [3, 2]


# ------------------------------------------------------------- csv

def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text(encoding="utf-8") == ",".join(ROW_COLUMNS) + "\n"


def test_emit_csv_round_trip_format(tmp_path):
    config = tiny_config()
    rows, _ = run_experiment(config)
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    lines = _csv_lines(path)
    assert lines[0] == list(ROW_COLUMNS)
    assert len(lines) == 1 + len(rows)
    first = lines[1]
    assert first[0] == "single-cell"
    assert first[ROW_COLUMNS.index("trial")] == "0"


def _csv_lines(path):
    """Each line of a CSV file as its list of cells, quoting undone."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_row_csv_quotes_an_error_that_holds_a_comma(monkeypatch, tmp_path):
    # Given the rate-weighted bound, the proposed and uniform PAs' oracle searches
    # fail rows with "sum rate ... of (0, 1, 0, 1, 0, 1) exceeds its upper
    # bound ...", a message with commas in it.
    config = tiny_config(n_subcarriers=12, chunk_sizes=[2], snr_db=[-10.0, 0.0, 20.0], trials=6,
                         sa_schemes=["proposed", "exhaustive-oracle"], pa_schemes=["proposed", "uniform"])
    monkeypatch.setattr(harness, "_PA", {name: (solve, "rate-weighted") for name, (solve, _) in harness._PA.items()})
    rows, _ = run_experiment(config)
    emit_csv(rows, tmp_path / "rows.csv")
    lines = _csv_lines(tmp_path / "rows.csv")
    assert lines[0] == list(ROW_COLUMNS)
    assert [len(line) for line in lines] == [len(ROW_COLUMNS)] * (1 + len(rows))
    assert [line[-1] for line in lines[1:]] == [r.error for r in rows]
    assert any("," in r.error for r in rows)


@pytest.mark.parametrize("name, columns", [
    ("golden_rows.csv", ROW_COLUMNS), ("golden_rows.summary.csv", SUMMARY_COLUMNS),
], ids=["rows", "summary"])
def test_golden_csv_lines_have_their_headers_width(name, columns):
    lines = _csv_lines(DATA / name)
    assert lines[0] == list(columns)
    assert len(lines) > 1 and all(len(line) == len(columns) for line in lines)


@pytest.mark.parametrize("value, cell", [
    (None, ""), ("proposed", "proposed"), (7, "7"), (True, "1"), (np.int64(7), "7"),
    (1.0 / 3.0, "0.333333333333"), (np.float64(1e-20), "1e-20"), (np.float32(0.5), "0.5"),
    ((0.25, np.float64(2.0)), "0.25;2"), ((), ""),
    ('AllocationError: x of (0, 1) is "off"', '"AllocationError: x of (0, 1) is ""off"""'),
    ("a\nb", '"a\nb"'), ("a\rb", '"a\rb"'),
])
def test_csv_cell_of_every_value_kind(value, cell):
    assert _fmt(value) == cell


def test_golden_fixture_matches(tmp_path):
    out = tmp_path / "golden_rows.csv"
    assert main(["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out)]) == 0
    for name in ("golden_rows.csv", "golden_rows.summary.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("config, digest", [
    pytest.param(
        lambda: tiny_config(
            n_subcarriers=8,
            chunk_sizes=[2],
            snr_db=[0.0, 5.0],
            sa_schemes=["proposed", "shen", "exhaustive-oracle"],
            pa_schemes=["uniform", "proposed"],
            trials=4,
        ),
        "896fc77b647c5db5de739b8a82266bb9556f1b343ad543339e88e444b3b553f2",
        id="single-cell-with-oracle",
    ),
    pytest.param(
        lambda: ExperimentConfig.from_dict(MULTI_CELL),
        "a87d38bca36096dd59b3e82a3674bd000b6fbcb139a431bfd52af6130eff31af",
        id="multi-cell",
    ),
    pytest.param(
        lambda: ExperimentConfig.from_dict(MULTI_CELL | {"scenario": "multi-cell-no-FFR"}),
        "da2c7793132301734fa7ff938b0791cd4814192c32950e45b95ad1ee970ecf79",
        id="multi-cell-no-FFR",
    ),
])
def test_summary_csv_bytes_are_pinned(tmp_path, config, digest):
    _, summary = run_experiment(config())
    path = tmp_path / "summary.csv"
    emit_summary_csv(summary, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# The benchmark's workloads and the SHA-256 digests of their row and
# summary CSVs at each workload's default seed; run_path reads the file
# without importing it as a module or caching its bytecode.
PERFBENCH_WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
)["WORKLOADS"]


# The same digests at seed 97531, the first input block of
# ``perfbench/run.py --seed 97531``, a seed the benchmark does not pin.
SEED_97531_DIGESTS = {
    "multicell-ffr": ("02e7622131acf07b5b63d7be45a32f8abb7fc30eda5960a8a91063efca7c95cd",
                      "e2cf283b4858dfeba5d9799892c472854b10c43a626240f0234ff90e5e340213"),
    "oracle-small": ("ed70cafd172002096b295c30d754252d60692bde77d92af72b2908d541fde5f8",
                     "c53bec46f00ccb89363a0734c6549c0bc5d1122da8ca5beefb693350281df19c"),
    "single-sweep": ("f20ae0a3647f91f3ace4d462122540d7cd08bc8aad67dfce03871f55abc24690",
                     "40fee61e3b1c78d8388a3eaf240f9ce04416bfe07c03b3d744ee9322c15d7125"),
}


def _workload_digests(tmp_path, name, seed):
    config = ExperimentConfig.from_dict(dict(PERFBENCH_WORKLOADS[name].config, seed=seed))
    rows, summary = run_experiment(config)
    emit_csv(rows, tmp_path / "rows.csv")
    emit_summary_csv(summary, tmp_path / "rows.summary.csv")
    return tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("rows.csv", "rows.summary.csv")
    )


@pytest.mark.parametrize("name", sorted(PERFBENCH_WORKLOADS))
def test_benchmark_workload_csv_bytes_are_pinned(tmp_path, name):
    workload = PERFBENCH_WORKLOADS[name]
    assert _workload_digests(tmp_path, name, workload.default_seed) == workload.digests


@pytest.mark.parametrize("name", sorted(SEED_97531_DIGESTS))
def test_benchmark_workload_csv_bytes_are_pinned_at_seed_97531(tmp_path, name):
    assert _workload_digests(tmp_path, name, 97531) == SEED_97531_DIGESTS[name]


def test_benchmark_microbenchmarks_run_on_the_library():
    # perfbench/micro.py calls the library directly, outside any run.
    micro = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"))
    calls = micro["cases"](7, 2, 16)
    assert sorted(calls) == ["assign.proposed_sa", "assign.shen_sa", "multicell.build_scenario",
                             "power.exact_pa_oracle", "power.proposed_pa"]
    for call in calls.values():
        for i in (0, 7):
            call(i)


def test_summarize_groups_and_cis():
    config = tiny_config(trials=5)
    rows, summary = run_experiment(config)
    s = [x for x in summary if x.metric == "sum_rate"]
    assert len(s) == 1
    assert s[0].n_trials == 5
    values = [r.sum_rate for r in rows]
    assert s[0].mean == pytest.approx(float(np.mean(values)))


def test_summary_normalizes_against_oracle_rows():
    config = tiny_config(
        n_subcarriers=8,
        chunk_sizes=[2],
        sa_schemes=["proposed", "exhaustive-oracle"],
        trials=4,
    )
    rows, summary = run_experiment(config)
    normed = [s for s in summary if s.metric == "sum_rate_vs_oracle"]
    assert len(normed) == 1
    assert normed[0].sa == "proposed"
    assert normed[0].n_trials == 4
    # oracle maximises sum rate over assignments under the same PA
    assert normed[0].mean <= 1.0 + 1e-12
    # per-trial cross-check against the raw rows
    oracle = {r.trial: r.sum_rate for r in rows if r.sa == "exhaustive-oracle"}
    ratios = [r.sum_rate / oracle[r.trial] for r in rows if r.sa == "proposed"]
    assert normed[0].mean == pytest.approx(float(np.mean(ratios)))


def test_no_heuristic_row_beats_the_oracle_row_on_sum_rate():
    # Each heuristic assignment is one of the oracle's candidates, scored
    # by the same PA function, so no row may exceed its oracle row.
    path = Path(__file__).parent.parent / "configs" / "small_oracle_check.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    rows, _ = run_experiment(ExperimentConfig.from_dict({**data, "trials": 6}))
    oracle = {(r.trial, r.pa): r.sum_rate for r in rows if r.sa == "exhaustive-oracle"}
    heuristic = [r for r in rows if r.sa != "exhaustive-oracle"]
    assert len(oracle) == 12 and len(heuristic) == 36
    assert not any(r.error for r in rows)
    for r in heuristic:
        assert r.sum_rate <= oracle[r.trial, r.pa] * (1 + 1e-12), (r.sa, r.pa, r.trial)


def test_no_scheme_beats_the_oracle_on_sum_rate_under_any_pa():
    # Greedy phase 1 and the static round robin both cover every user, so
    # every heuristic assignment is an oracle candidate under the same PA.
    config = tiny_config(n_subcarriers=8, chunk_sizes=[2], snr_db=[-10.0, 10.0], trials=4,
                         sa_schemes=list(harness.SA_SCHEMES), pa_schemes=list(harness.PA_SCHEMES))
    rows, summary = run_experiment(config)
    assert len(rows) == 2 * 4 * 4 * 3 and not any(r.error for r in rows)
    oracle = {(r.snr_db, r.trial, r.pa): r.sum_rate for r in rows if r.sa == "exhaustive-oracle"}
    for r in rows:
        assert r.sum_rate <= oracle[r.snr_db, r.trial, r.pa] * (1 + 1e-12), (r.sa, r.pa, r.snr_db)
    means = [s for s in summary if s.metric == "sum_rate_vs_oracle"]
    assert len(means) == 2 * 3 * 3 and all(s.mean <= 1 + 1e-12 for s in means)


def test_every_traced_library_function_is_read_from_its_module_when_called(monkeypatch):
    # A profiler that wraps these module attributes sees every call only if
    # the harness looks each one up on its module when it runs a row.
    from chunkfair import assign, metrics, multicell, power

    traced = [(power, name) for name in ("proposed_pa", "uniform_pa", "exact_pa_oracle", "user_rates")]
    traced += [(assign, name) for name in ("proposed_sa", "shen_sa", "static_sa", "exhaustive_sa_oracle")]
    traced += [(multicell, name) for name in ("build_scenario", "multicell_sa")]
    traced += [(metrics, name) for name in ("deviation", "min_weighted_rate", "mean_ci")]
    reached = set()
    for module, name in traced:
        def counting(*args, _fn=getattr(module, name), _name=f"{module.__name__}.{name}", **kw):
            reached.add(_name)
            return _fn(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    run_experiment(tiny_config(n_subcarriers=8, chunk_sizes=[2], trials=1,
                               sa_schemes=list(harness.SA_SCHEMES), pa_schemes=list(harness.PA_SCHEMES)))
    for scenario in ("multi-cell", "multi-cell-no-FFR"):
        run_experiment(ExperimentConfig.from_dict(MULTI_CELL | {"scenario": scenario, "trials": 1}))
    assert sorted({f"{module.__name__}.{name}" for module, name in traced} - reached) == []


# ------------------------------------------------------------- cli

def test_cli_validate_and_run(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "scenario": "single-cell",
        "n_subcarriers": 16,
        "n_users": 2,
        "tap_counts": [2, 4],
        "rate_weights": [1.0, 2.0],
        "trials": 2,
        "seed": 5,
        "sa_schemes": ["proposed"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [4],
        "snr_db": [0.0],
    }), encoding="utf-8")
    assert main(["validate", "--config", str(config_path)]) == 0
    # A .csv suffix gives way to .summary.csv; any other name gets it appended.
    for name, summary in (("rows.csv", "rows.summary.csv"), ("rows.out", "rows.out.summary.csv")):
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name).exists()
        assert (tmp_path / summary).exists()


_CLOCK_PROBE = """
import sys, time, types
from chunkfair import cli

at_import = "numpy.random" in sys.modules
at_clock = []

def clock():
    at_clock.append("numpy.random" in sys.modules)
    return time.perf_counter()

cli.time = types.SimpleNamespace(perf_counter=clock)
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, at_import, at_clock[0])
"""


def test_cli_imports_numpy_random_before_it_starts_the_clock(tmp_path):
    # numpy imports numpy.random lazily, on the first channel draw; the
    # printed elapsed time must not include that, and importing the
    # package must not pay for it either.
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(SINGLE_CELL), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CLOCK_PROBE, str(config_path), str(tmp_path / "rows.csv")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False True"


SINGLE_CELL = {
    "scenario": "single-cell",
    "n_subcarriers": 16,
    "n_users": 2,
    "tap_counts": [2, 4],
    "rate_weights": [1.0, 2.0],
    "trials": 1,
    "seed": 5,
    "chunk_sizes": [4],
    "snr_db": [0.0],
}
SMALL_MULTI_CELL = {
    "scenario": "multi-cell",
    "n_subcarriers": 64,
    "n_users": 2,
    "tap_counts": [4, 8],
    "rate_weights": [1.0, 1.0],
    "trials": 1,
    "seed": 5,
    "chunk_sizes": [4],
}


def _probe_id(value):
    if isinstance(value, dict) and "scenario" in value:
        return value["scenario"]
    return ",".join(f"{k}={v!r}" for k, v in value.items())


@pytest.mark.parametrize("base, change", [
    (SMALL_MULTI_CELL, {"scenario": "nope"}),
    (SINGLE_CELL, {"seed": -1}),
    (SINGLE_CELL, {"n_users": 0, "tap_counts": [], "rate_weights": []}),
    (SINGLE_CELL, {"rate_weights": [1.0]}),
    (SINGLE_CELL, {"chunk_sizes": []}),
    (SMALL_MULTI_CELL, {"sa_schemes": ["exhaustive-oracle"]}),
    (SMALL_MULTI_CELL, {"chunk_sizes": [0]}),
    (SMALL_MULTI_CELL, {"chunk_sizes": [-2]}),
    (SMALL_MULTI_CELL, {"chunk_sizes": [1000]}),
    (SMALL_MULTI_CELL, {"chunk_sizes": [2.5]}),
    (SINGLE_CELL, {"chunk_sizes": [2.5]}),
    (SMALL_MULTI_CELL, {"cell_radius_km": 0}),
    (SMALL_MULTI_CELL, {"intercell_distance_km": -1}),
    (SINGLE_CELL, {"tap_counts": [2, 40]}),
    (SMALL_MULTI_CELL, {"tap_counts": [4, 100]}),
    (SINGLE_CELL, {"n_subcarriers": 0}),
    (SMALL_MULTI_CELL, {"n_subcarriers": 0}),
    (SMALL_MULTI_CELL, {"reuse_factor": 2}),
    (SINGLE_CELL, {"trials": "3"}),
    (SINGLE_CELL, {"seed": True}),
    (SINGLE_CELL, {"rate_weights": [1.0, 0.0]}),
    (SINGLE_CELL, {"noise_power": 0}),
    (SINGLE_CELL, {"snr_db": [0.0, 4000.0]}),
    (SMALL_MULTI_CELL, {"centre_radius_fraction": 1.5}),
    (SMALL_MULTI_CELL, {"target_ber": 0.5}),
    (SINGLE_CELL, {"chunk_sizes": [4, 4]}),
    (SMALL_MULTI_CELL, {"chunk_sizes": [4, 2, 4]}),
    (SINGLE_CELL, {"snr_db": [0.0, 5.0, 0]}),
    (SINGLE_CELL, {"sa_schemes": ["proposed", "proposed"]}),
    (SMALL_MULTI_CELL, {"sa_schemes": ["static", "shen", "static"]}),
    (SINGLE_CELL, {"pa_schemes": ["uniform", "proposed", "uniform"]}),
    (SINGLE_CELL, {"rate_weights": [1.0, float("inf")]}),
    (SINGLE_CELL, {"snr_db": [0.0, float("inf")]}),
    (SMALL_MULTI_CELL, {"cell_radius_km": float("inf")}),
    (SMALL_MULTI_CELL, {"intercell_distance_km": float("inf")}),
    (SMALL_MULTI_CELL, {"bs_power_dbm": float("nan")}),
    (SMALL_MULTI_CELL, {"bs_power_dbm": float("inf")}),
    (SMALL_MULTI_CELL, {"bs_power_dbm": -float("inf")}),
    (SMALL_MULTI_CELL, {"bs_power_dbm": 4000.0}),
    (SMALL_MULTI_CELL, {"noise_density_dbm_hz": float("nan")}),
    (SMALL_MULTI_CELL, {"noise_density_dbm_hz": float("inf")}),
    (SMALL_MULTI_CELL, {"noise_density_dbm_hz": -float("inf")}),
    (SMALL_MULTI_CELL, {"subcarrier_spacing_hz": 0}),
    (SMALL_MULTI_CELL, {"subcarrier_spacing_hz": -15000.0}),
    (SMALL_MULTI_CELL, {"subcarrier_spacing_hz": float("inf")}),
    # Path-loss factors that overflow at the nearest base station or the nearest user draw.
    (SMALL_MULTI_CELL, {"intercell_distance_km": 1e-100}),
    (SMALL_MULTI_CELL, {"cell_radius_km": 1e-86}),
    # Keys the scenario does not read must keep their defaults.
    (SINGLE_CELL, {"bs_power_dbm": float("nan"), "cell_radius_km": -1, "target_ber": 3.0}),
    (SMALL_MULTI_CELL, {"oracle_cap": -5, "snr_db": [3, 7]}),
    (SMALL_MULTI_CELL, {"snr_db": [3, 7]}),
    # Sizes numpy refuses to allocate; 2**62 is refused at once, without touching memory.
    (GOLDEN_CONFIG, {"tap_counts": [2, 2**62]}),
    (GOLDEN_CONFIG, {"n_subcarriers": 2**62}),
    (SMALL_MULTI_CELL, {"n_subcarriers": 2**62}),
    # 2**58 complex subcarriers pass numpy's size check, but 4 EiB fits no address space.
    (GOLDEN_CONFIG, {"n_subcarriers": 2**58}),
    (SMALL_MULTI_CELL, {"n_subcarriers": 2**58}),
], ids=_probe_id)
def test_validate_and_run_reject_the_same_configs(tmp_path, capsys, base, change):
    _assert_rejected(tmp_path, capsys, json.dumps(base | change).encode("utf-8"))


@pytest.mark.parametrize("body", [b"3", b"null", b'["scenario", "trials"]', b'{"seed": "\xff"}'],
                         ids=["number", "null", "list-of-strings", "not-utf-8"])
def test_validate_and_run_reject_a_file_that_is_no_config_object(tmp_path, capsys, body):
    _assert_rejected(tmp_path, capsys, body)


def test_validate_and_run_reject_a_weight_past_the_float_range(tmp_path, capsys):
    # JSON reads a long integer literal as an int that no float can hold.
    _assert_rejected(tmp_path, capsys, json.dumps(SINGLE_CELL | {"rate_weights": [1.0, 10**400]}).encode("utf-8"))


def _assert_rejected(tmp_path, capsys, body: bytes):
    """validate and run each exit 1 with one `config error:` line and write no file."""
    config_path = tmp_path / "c.json"
    config_path.write_bytes(body)
    out = tmp_path / "rows.csv"
    for args in (["validate"], ["run", "--out", str(out)]):
        assert main([*args, "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_validate(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == "config OK\n"


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "nope"}), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 1


def test_cli_runtime_error_exit_code(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "scenario": "single-cell",
        "n_subcarriers": 16,
        "n_users": 2,
        "tap_counts": [2, 4],
        "rate_weights": [1.0, 2.0],
        "trials": 1,
        "seed": 5,
        "sa_schemes": ["proposed"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [4],
        "snr_db": [0.0],
    }), encoding="utf-8")
    missing_dir = tmp_path / "no" / "such" / "dir" / "rows.csv"
    assert main(["run", "--config", str(config_path), "--out", str(missing_dir)]) == 2


def test_cli_broken_worker_pool_exit_code(tmp_path, monkeypatch, capsys):
    def crash(config, threads=1):
        raise BrokenProcessPool("a worker process died")

    monkeypatch.setattr(cli, "run_experiment", crash)
    out = tmp_path / "rows.csv"
    args = ["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out), "--threads", "2"]
    assert main(args) == 2
    assert capsys.readouterr().err == "runtime error: a worker process died\n"
    assert not out.exists()


def test_cli_memory_error_during_a_run_exit_code(tmp_path, monkeypatch, capsys):
    def exhaust(config, threads=1):
        raise MemoryError("Unable to allocate 4.00 EiB")

    monkeypatch.setattr(cli, "run_experiment", exhaust)
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "runtime error: Unable to allocate 4.00 EiB\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [
    {
        "scenario": "single-cell",
        "n_subcarriers": 16,
        "n_users": 2,
        "tap_counts": [2, 4],
        "rate_weights": [1.0, 2.0],
        "trials": 1,
        "seed": 5,
        "sa_schemes": ["proposed"],
        "pa_schemes": ["uniform"],
        "chunk_sizes": [4],
        "snr_db": [0.0],
    },
    # --seed rebuilds the config from all its fields, unread keys at their defaults.
    MULTI_CELL | {"trials": 1, "bs_power_dbm": 40.0},
], ids=_probe_id)
def test_cli_seed_override(tmp_path, config):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()
