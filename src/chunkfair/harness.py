"""Seeded Monte-Carlo experiment runner and CSV output.

A run is fully determined by (config, master seed): channels come from
per-(trial, user, cell) substreams, so trials can execute in any order
or in parallel without changing a single output byte.  Row CSVs carry
one line per (sweep point, scheme pair, trial); a companion summary CSV
aggregates means and 95% confidence half-widths per scheme and sweep
point.
"""

from __future__ import annotations

import concurrent.futures
import json
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional

import numpy as np

from . import assign, metrics, multicell, power
from .channel import STREAM_CHANNEL, UserProfile, realize_channel, substream
from .errors import ChunkfairError, ConfigError, UndefinedMetricError

__all__ = [
    "SA_SCHEMES",
    "PA_SCHEMES",
    "SCENARIOS",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "run_experiment",
    "emit_csv",
    "emit_summary_csv",
    "ROW_COLUMNS",
]

SA_SCHEMES = ("proposed", "shen", "static", "exhaustive-oracle")
PA_SCHEMES = ("proposed", "uniform", "exact-oracle")
SCENARIOS = ("single-cell", "multi-cell", "multi-cell-no-FFR")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; see README for the JSON file grammar.

    Single-cell runs sweep ``snr_db`` with per-subcarrier noise power
    ``noise_power``; the transmit power at a sweep point is
    P_T = N * noise_power * 10**(snr/10), i.e. snr is the average
    per-subcarrier SNR under uniform power and unit-energy channels.
    Multi-cell runs sweep ``chunk_sizes`` instead and always use uniform
    power.
    """

    scenario: str
    n_subcarriers: int
    n_users: int
    tap_counts: tuple[int, ...]
    rate_weights: tuple[float, ...]
    trials: int
    seed: int
    sa_schemes: tuple[str, ...] = ("proposed",)
    pa_schemes: tuple[str, ...] = ("uniform",)
    chunk_sizes: tuple[int, ...] = (1,)
    snr_db: tuple[float, ...] = ()
    noise_power: float = 1.0
    oracle_cap: int = 1_000_000
    cell_radius_km: float = 1.0
    intercell_distance_km: float = 2.0
    centre_radius_fraction: float = 0.5
    reuse_factor: int = 3
    target_ber: float = 1e-6
    bs_power_dbm: float = 43.0
    noise_density_dbm_hz: float = -174.0
    subcarrier_spacing_hz: float = 15e3

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        for key in ("tap_counts", "rate_weights", "chunk_sizes", "snr_db",
                    "sa_schemes", "pa_schemes"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        try:
            config = cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
        config.validate()
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def validate(self) -> None:
        problems = []
        if self.scenario not in SCENARIOS:
            problems.append(f"scenario must be one of {SCENARIOS}")
        if self.trials < 1:
            problems.append("trials must be >= 1")
        if self.seed < 0:
            problems.append("seed must be non-negative")
        if self.n_users < 1:
            problems.append("n_users must be >= 1")
        if len(self.tap_counts) != self.n_users:
            problems.append("tap_counts must list one entry per user")
        if len(self.rate_weights) != self.n_users:
            problems.append("rate_weights must list one entry per user")
        if any(w <= 0 for w in self.rate_weights):
            problems.append("rate_weights must be positive")
        if any(t < 1 for t in self.tap_counts):
            problems.append("tap_counts must be >= 1")
        if not self.chunk_sizes:
            problems.append("chunk_sizes must not be empty")
        bad_sa = set(self.sa_schemes) - set(SA_SCHEMES)
        bad_pa = set(self.pa_schemes) - set(PA_SCHEMES)
        if bad_sa:
            problems.append(f"unknown SA schemes {sorted(bad_sa)}")
        if bad_pa:
            problems.append(f"unknown PA schemes {sorted(bad_pa)}")
        if self.scenario == "single-cell":
            if not self.snr_db:
                problems.append("single-cell runs need at least one snr_db point")
            if self.noise_power <= 0:
                problems.append("noise_power must be positive")
            for l in self.chunk_sizes:
                if not 1 <= l <= self.n_subcarriers:
                    problems.append(f"chunk size {l} out of range")
                elif self.n_subcarriers // l < self.n_users:
                    problems.append(f"chunk size {l} leaves fewer chunks than users")
                elif "exhaustive-oracle" in self.sa_schemes:
                    m = self.n_subcarriers // l
                    if self.n_users**m > self.oracle_cap:
                        problems.append(
                            f"exhaustive oracle needs {self.n_users}**{m} candidates, "
                            f"cap is {self.oracle_cap}"
                        )
        else:
            if "exhaustive-oracle" in self.sa_schemes:
                problems.append("exhaustive oracle is only available single-cell")
            if tuple(self.pa_schemes) != ("uniform",):
                problems.append("multi-cell runs use uniform power only")
            if not 0 <= self.centre_radius_fraction <= 1:
                problems.append("centre_radius_fraction must lie in [0, 1]")
            if not 0 < self.target_ber < 0.2:
                problems.append("target_ber must lie in (0, 0.2)")
        if problems:
            raise ConfigError("; ".join(problems))

    def scenario_params(self, chunk_size: int) -> multicell.ScenarioParams:
        return multicell.ScenarioParams(
            n_subcarriers=self.n_subcarriers,
            chunk_size=chunk_size,
            n_users=self.n_users,
            tap_counts=tuple(self.tap_counts),
            rate_weights=tuple(self.rate_weights),
            cell_radius_km=self.cell_radius_km,
            intercell_distance_km=self.intercell_distance_km,
            centre_radius_fraction=self.centre_radius_fraction,
            reuse_factor=self.reuse_factor,
            target_ber=self.target_ber,
            bs_power_dbm=self.bs_power_dbm,
            noise_density_dbm_hz=self.noise_density_dbm_hz,
            subcarrier_spacing_hz=self.subcarrier_spacing_hz,
        )


@dataclass
class ResultRow:
    """One (sweep point, scheme pair, trial) outcome."""

    scenario: str
    sa: str
    pa: str
    chunk_size: int
    snr_db: Optional[float]
    trial: int
    seed: int
    rates: tuple[float, ...] = ()
    min_rate: Optional[float] = None
    min_weighted_rate: Optional[float] = None
    sum_rate: Optional[float] = None
    deviation: Optional[float] = None
    min_edge_rate: Optional[float] = None
    edge_deviation: Optional[float] = None
    error: str = ""

    def sort_key(self):
        return (
            self.chunk_size,
            self.snr_db if self.snr_db is not None else 0.0,
            self.trial,
            self.sa,
            self.pa,
        )


ROW_COLUMNS = (
    "scenario",
    "sa",
    "pa",
    "chunk_size",
    "snr_db",
    "trial",
    "seed",
    "rates",
    "min_rate",
    "min_weighted_rate",
    "sum_rate",
    "deviation",
    "min_edge_rate",
    "edge_deviation",
    "error",
)

SUMMARY_COLUMNS = (
    "scenario",
    "sa",
    "pa",
    "chunk_size",
    "snr_db",
    "metric",
    "n_trials",
    "mean",
    "ci95_halfwidth",
)


@dataclass
class SummaryRow:
    scenario: str
    sa: str
    pa: str
    chunk_size: int
    snr_db: Optional[float]
    metric: str
    n_trials: int
    mean: float
    ci95_halfwidth: float


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _row_record(row: ResultRow) -> str:
    cells = []
    for name in ROW_COLUMNS:
        value = getattr(row, name)
        if name == "rates":
            cells.append(";".join(_fmt(r) for r in value))
        else:
            cells.append(_fmt(value))
    return ",".join(cells)


def emit_csv(rows: Iterable[ResultRow], path) -> None:
    """Write the deterministic row CSV: header plus one line per row."""
    lines = [",".join(ROW_COLUMNS)]
    lines.extend(_row_record(r) for r in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary_csv(rows: Iterable[SummaryRow], path) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.scenario,
                    r.sa,
                    r.pa,
                    _fmt(r.chunk_size),
                    _fmt(r.snr_db),
                    r.metric,
                    _fmt(r.n_trials),
                    _fmt(r.mean),
                    _fmt(r.ci95_halfwidth),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _single_cell_trial(config: ExperimentConfig, trial: int) -> list[ResultRow]:
    """All rows of one single-cell trial across chunk sizes and SNR points."""
    weights = np.asarray(config.rate_weights, dtype=float)
    n = config.n_subcarriers
    gains = np.empty((config.n_users, n))
    for k in range(config.n_users):
        profile = UserProfile(tap_count=config.tap_counts[k], rate_weight=weights[k])
        rng = substream(config.seed, STREAM_CHANNEL, trial, k, 0)
        gains[k] = realize_channel(profile, n, config.noise_power, rng).gains

    rows = []
    for chunk_size in config.chunk_sizes:
        grid = assign.build_grid(n, chunk_size)
        for snr_db in config.snr_db:
            total_power = n * config.noise_power * 10.0 ** (snr_db / 10.0)
            table = assign.chunk_rates(gains, grid, total_power / n)
            for sa_name in config.sa_schemes:
                for pa_name in config.pa_schemes:
                    row = ResultRow(
                        scenario=config.scenario,
                        sa=sa_name,
                        pa=pa_name,
                        chunk_size=chunk_size,
                        snr_db=snr_db,
                        trial=trial,
                        seed=config.seed,
                    )
                    try:
                        rates = _evaluate_single_cell(
                            config, sa_name, pa_name, table, grid, gains, weights, total_power
                        )
                        _fill_metrics(row, rates, weights)
                    except ChunkfairError as exc:
                        row.error = f"{type(exc).__name__}: {exc}"
                    rows.append(row)
    return rows


def _apply_pa(pa_name, assignment, gains, weights, total_power):
    if pa_name == "proposed":
        return power.proposed_pa(assignment, gains, weights, total_power)
    if pa_name == "uniform":
        return power.uniform_pa(assignment, total_power)
    if pa_name == "exact-oracle":
        return power.exact_pa_oracle(assignment, gains, weights, total_power)
    raise ConfigError(f"unknown PA scheme {pa_name!r}")


def _evaluate_single_cell(config, sa_name, pa_name, table, grid, gains, weights, total_power):
    if sa_name == "exhaustive-oracle":
        def pa_solver(candidate):
            alloc = _apply_pa(pa_name, candidate, gains, weights, total_power)
            return power.user_rates(alloc.powers, gains)

        result = assign.exhaustive_sa_oracle(weights, grid, pa_solver, cap=config.oracle_cap)
        return result.rates
    assignment = assign.run_sa(sa_name, table, weights, grid)
    alloc = _apply_pa(pa_name, assignment, gains, weights, total_power)
    return power.user_rates(alloc.powers, gains)


def _fill_metrics(row: ResultRow, rates: np.ndarray, weights: np.ndarray) -> None:
    row.rates = tuple(float(r) for r in rates)
    row.min_rate = float(rates.min())
    row.min_weighted_rate = metrics.min_weighted_rate(rates, weights)
    row.sum_rate = float(rates.sum())
    try:
        row.deviation = metrics.deviation(rates, weights)
    except UndefinedMetricError:
        row.deviation = None


def _multi_cell_trial(config: ExperimentConfig, trial: int) -> list[ResultRow]:
    """All rows of one multi-cell trial across chunk sizes and SA schemes.

    The network is drawn once; every chunk size sees the same draw.
    """
    weights = np.asarray(config.rate_weights, dtype=float)
    drawn = multicell.build_scenario(
        config.scenario_params(config.chunk_sizes[0]), config.seed, trial
    )
    rows = []
    for chunk_size in config.chunk_sizes:
        scenario = drawn.with_chunk_size(chunk_size)
        for sa_name in config.sa_schemes:
            row = ResultRow(
                scenario=config.scenario,
                sa=sa_name,
                pa="uniform",
                chunk_size=chunk_size,
                snr_db=None,
                trial=trial,
                seed=config.seed,
            )
            try:
                if config.scenario == "multi-cell":
                    rates = multicell.multicell_sa(scenario, sa_name).rates
                else:
                    rates = multicell.reuse1_baseline(scenario, sa_name)
                _fill_metrics(row, rates, weights)
                edge = scenario.edge_users
                if edge.size:
                    row.min_edge_rate = float(rates[edge].min())
                    try:
                        row.edge_deviation = metrics.deviation(rates[edge], weights[edge])
                    except UndefinedMetricError:
                        row.edge_deviation = None
            except ChunkfairError as exc:
                row.error = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return rows


def _trial_rows(config: ExperimentConfig, trial: int) -> list[ResultRow]:
    if config.scenario == "single-cell":
        return _single_cell_trial(config, trial)
    return _multi_cell_trial(config, trial)


def _worker(payload) -> list[ResultRow]:
    config_dict, trial = payload
    return _trial_rows(ExperimentConfig.from_dict(config_dict), trial)


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Execute every (sweep point, scheme, trial) cell of the configured run.

    Returns the rows sorted deterministically plus the aggregated
    summary.  ``threads`` > 1 runs whole trials in parallel processes;
    per-trial substreams make the result independent of scheduling.
    """
    config.validate()
    if threads <= 1:
        per_trial = [_trial_rows(config, t) for t in range(config.trials)]
    else:
        payloads = [(asdict(config), t) for t in range(config.trials)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            per_trial = list(pool.map(_worker, payloads))
    rows = [row for trial_rows in per_trial for row in trial_rows]
    rows.sort(key=ResultRow.sort_key)
    return rows, summarize(rows)


_SUMMARY_METRICS = (
    "min_rate",
    "min_weighted_rate",
    "sum_rate",
    "deviation",
    "min_edge_rate",
    "edge_deviation",
)


_ORACLE_NORMALIZED = ("min_rate", "min_weighted_rate", "sum_rate")


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Means and confidence half-widths per (scenario, scheme, sweep point).

    When a run includes the exhaustive-oracle assignment, each heuristic
    scheme additionally gets per-trial ratios against the oracle rows of
    the same power scheme and sweep point (metrics suffixed
    ``_vs_oracle``).
    """
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.scenario, row.sa, row.pa, row.chunk_size, row.snr_db), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (k[3], k[4] if k[4] is not None else 0.0, k[1], k[2])):
        scenario, sa, pa, chunk_size, snr_db = key
        for metric_name in _SUMMARY_METRICS:
            values = [
                getattr(r, metric_name)
                for r in groups[key]
                if not r.error and getattr(r, metric_name) is not None
            ]
            if not values:
                continue
            mean, half = metrics.mean_ci(values)
            out.append(
                SummaryRow(
                    scenario=scenario,
                    sa=sa,
                    pa=pa,
                    chunk_size=chunk_size,
                    snr_db=snr_db,
                    metric=metric_name,
                    n_trials=len(values),
                    mean=mean,
                    ci95_halfwidth=half,
                )
            )
        oracle_key = (scenario, "exhaustive-oracle", pa, chunk_size, snr_db)
        if sa != "exhaustive-oracle" and oracle_key in groups:
            reference = {
                r.trial: r for r in groups[oracle_key]
                if not r.error and r.sum_rate is not None
            }
            for metric_name in _ORACLE_NORMALIZED:
                ratios = []
                for r in groups[key]:
                    ref = reference.get(r.trial)
                    if r.error or ref is None:
                        continue
                    value = getattr(r, metric_name)
                    ref_value = getattr(ref, metric_name)
                    if value is None or ref_value is None or ref_value <= 0:
                        continue
                    ratios.append(metrics.normalize_vs_oracle(value, ref_value))
                if not ratios:
                    continue
                mean, half = metrics.mean_ci(ratios)
                out.append(
                    SummaryRow(
                        scenario=scenario,
                        sa=sa,
                        pa=pa,
                        chunk_size=chunk_size,
                        snr_db=snr_db,
                        metric=metric_name + "_vs_oracle",
                        n_trials=len(ratios),
                        mean=mean,
                        ci95_halfwidth=half,
                    )
                )
    return out
