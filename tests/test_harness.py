import hashlib
import json
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from chunkfair import ConfigError, ExperimentConfig, InfeasibleError, cli, run_experiment
from chunkfair.cli import GOLDEN_CONFIG, main
from chunkfair.harness import ROW_COLUMNS, emit_csv, emit_summary_csv

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rows.csv"
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


def test_threaded_run_matches_serial():
    for config in (tiny_config(trials=4), ExperimentConfig.from_dict(MULTI_CELL)):
        serial, _ = run_experiment(config, threads=1)
        parallel, _ = run_experiment(config, threads=2)
        assert serial == parallel


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
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",") == list(ROW_COLUMNS)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "single-cell"
    assert first[ROW_COLUMNS.index("trial")] == "0"


def test_golden_fixture_matches(tmp_path):
    config = ExperimentConfig.from_dict(GOLDEN_CONFIG)
    rows, _ = run_experiment(config)
    path = tmp_path / "fresh.csv"
    emit_csv(rows, path)
    assert GOLDEN_PATH.exists(), "golden fixture missing; run: chunkfair golden --write"
    assert path.read_bytes() == GOLDEN_PATH.read_bytes()


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
])
def test_summary_csv_bytes_are_pinned(tmp_path, config, digest):
    _, summary = run_experiment(config())
    path = tmp_path / "summary.csv"
    emit_summary_csv(summary, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
    out = tmp_path / "rows.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert out.exists()
    assert out.with_suffix(".summary.csv").exists()


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
], ids=_probe_id)
def test_validate_and_run_reject_the_same_configs(tmp_path, capsys, base, change):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(base | change), encoding="utf-8")
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
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
    out = tmp_path / "rows.csv"
    args = ["run", "--config", str(config_path), "--out", str(out), "--threads", "2"]
    assert main(args) == 2
    assert capsys.readouterr().err == "runtime error: a worker process died\n"
    assert not out.exists()


def test_cli_golden_requires_write_flag(tmp_path):
    out = tmp_path / "golden.csv"
    assert main(["golden", "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["golden", "--out", str(out), "--write"]) == 0
    assert out.exists()


def test_cli_seed_override(tmp_path):
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
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()
