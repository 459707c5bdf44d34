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
import functools
import json
from dataclasses import dataclass, fields
from typing import Iterable, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import assign, metrics, multicell, power
from .channel import (
    STREAM_CHANNEL,
    NoiseModel,
    UserProfile,
    frequency_response,
    realize_channel,
    substream,
)
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

# What a JSON value of each field type must be: (one value, a list of them).
_JSON_KINDS = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


def _is_json_kind(value, kind) -> bool:
    """Whether a JSON value has the field type: booleans are never numbers."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


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
        hints = get_type_hints(cls)
        problems = []
        for f in fields(cls):
            if f.name not in data:
                continue
            value, kind = data[f.name], hints[f.name]
            if get_origin(kind) is tuple:
                kind = get_args(kind)[0]
                if isinstance(value, (list, tuple)) and all(_is_json_kind(v, kind) for v in value):
                    data[f.name] = tuple(value)
                    continue
                expected = "a list of " + _JSON_KINDS[kind][1]
            elif _is_json_kind(value, kind):
                continue
            else:
                expected = _JSON_KINDS[kind][0]
            problems.append(f"{f.name} must be {expected}, got {value!r}")
        if problems:
            raise ConfigError("; ".join(problems))
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
        """Check the config as a whole, then build what a run builds.

        The rules about single inputs (weights, tap counts, chunk sizes,
        noise power, geometry, target BER) live in the constructors the
        run uses; building them here raises their ``ConfigError``, so a
        config that validates also runs.
        """
        single_cell = self.scenario == "single-cell"
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
        if not self.chunk_sizes:
            problems.append("chunk_sizes must not be empty")
        for name in ("snr_db", "chunk_sizes", "sa_schemes", "pa_schemes"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                problems.append(f"{name} repeats {repeated}")
        bad_sa = set(self.sa_schemes) - set(SA_SCHEMES)
        bad_pa = set(self.pa_schemes) - set(PA_SCHEMES)
        if bad_sa:
            problems.append(f"unknown SA schemes {sorted(bad_sa)}")
        if bad_pa:
            problems.append(f"unknown PA schemes {sorted(bad_pa)}")
        if single_cell and not self.snr_db:
            problems.append("single-cell runs need at least one snr_db point")
        if not single_cell and "exhaustive-oracle" in self.sa_schemes:
            problems.append("exhaustive oracle is only available single-cell")
        if not single_cell and tuple(self.pa_schemes) != ("uniform",):
            problems.append("multi-cell runs use uniform power only")
        if problems:
            raise ConfigError("; ".join(problems))

        for tap_count, weight in zip(self.tap_counts, self.rate_weights):
            profile = UserProfile(tap_count=tap_count, rate_weight=weight)
            # The run transforms each user's taps at N subcarriers.
            frequency_response(np.zeros(profile.tap_count), self.n_subcarriers)
        if not single_cell:
            layout = multicell.build_layout(self.cell_radius_km, self.intercell_distance_km)
            multicell.ber_gap(self.target_ber)
            for chunk_size in self.chunk_sizes:
                self.scenario_params(chunk_size).band_plan(layout)
            return
        for snr_db in self.snr_db:
            try:
                NoiseModel(self.noise_power, self.total_power(snr_db))
            except OverflowError:
                raise ConfigError(f"snr_db {snr_db} overflows the transmit power") from None
        for chunk_size in self.chunk_sizes:
            m = assign.build_grid(self.n_subcarriers, chunk_size).n_chunks
            if m < self.n_users:
                problems.append(f"chunk size {chunk_size} leaves fewer chunks than users")
            elif "exhaustive-oracle" in self.sa_schemes and self.n_users**m > self.oracle_cap:
                problems.append(
                    f"exhaustive oracle needs {self.n_users}**{m} candidates, "
                    f"cap is {self.oracle_cap}"
                )
        if problems:
            raise ConfigError("; ".join(problems))

    def total_power(self, snr_db: float) -> float:
        """Single-cell transmit power at one sweep point."""
        return self.n_subcarriers * self.noise_power * 10.0 ** (snr_db / 10.0)

    def scenario_params(self, chunk_size: int) -> multicell.ScenarioParams:
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(multicell.ScenarioParams)
            if f.name != "chunk_size"
        }
        return multicell.ScenarioParams(chunk_size=chunk_size, **shared)


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


ROW_COLUMNS = tuple(f.name for f in fields(ResultRow))
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ";".join(_fmt(v) for v in value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(rows, columns: tuple[str, ...], path) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(getattr(r, name)) for name in columns) for r in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(rows: Iterable[ResultRow], path) -> None:
    """Write the deterministic row CSV: header plus one line per row."""
    _write_csv(rows, ROW_COLUMNS, path)


def emit_summary_csv(rows: Iterable[SummaryRow], path) -> None:
    """Write the summary CSV: header plus one line per (group, metric)."""
    _write_csv(rows, SUMMARY_COLUMNS, path)


def _single_cell_trial(config: ExperimentConfig, trial: int) -> list[ResultRow]:
    """All rows of one single-cell trial across chunk sizes and SNR points.

    Each greedy or static SA runs once per sweep point and its
    assignment serves every PA scheme; an SA that raises writes the same
    error row for each of them.  The exhaustive oracle searches per PA
    scheme, since its result depends on the PA.
    """
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
            total_power = config.total_power(snr_db)
            table = assign.chunk_rates(gains, grid, total_power / n)
            for sa_name in config.sa_schemes:
                assignment, sa_error = None, ""
                if sa_name != "exhaustive-oracle":
                    try:
                        assignment = assign.run_sa(sa_name, table, weights, grid)
                    except ChunkfairError as exc:
                        sa_error = _error_text(exc)
                for pa_name in config.pa_schemes:
                    row = ResultRow(
                        scenario=config.scenario,
                        sa=sa_name,
                        pa=pa_name,
                        chunk_size=chunk_size,
                        snr_db=snr_db,
                        trial=trial,
                        seed=config.seed,
                        error=sa_error,
                    )
                    if not sa_error:
                        try:
                            rates = _evaluate_single_cell(
                                config, assignment, pa_name, grid, gains, weights, total_power
                            )
                            _fill_metrics(row, rates, weights)
                        except ChunkfairError as exc:
                            row.error = _error_text(exc)
                    rows.append(row)
    return rows


def _error_text(exc: ChunkfairError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _apply_pa(pa_name, assignment, gains, weights, total_power):
    if pa_name == "proposed":
        return power.proposed_pa(assignment, gains, weights, total_power)
    if pa_name == "uniform":
        return power.uniform_pa(assignment, total_power)
    if pa_name == "exact-oracle":
        return power.exact_pa_oracle(assignment, gains, weights, total_power)
    raise ConfigError(f"unknown PA scheme {pa_name!r}")


def _evaluate_single_cell(config, assignment, pa_name, grid, gains, weights, total_power):
    """User rates under one PA scheme; no assignment means the exhaustive oracle's."""
    if assignment is None:
        def pa_solver(candidate):
            alloc = _apply_pa(pa_name, candidate, gains, weights, total_power)
            return power.user_rates(alloc.powers, gains)

        result = assign.exhaustive_sa_oracle(weights, grid, pa_solver, cap=config.oracle_cap)
        return result.rates
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
                row.error = _error_text(exc)
            rows.append(row)
    return rows


def _trial_rows(config: ExperimentConfig, trial: int) -> list[ResultRow]:
    if config.scenario == "single-cell":
        return _single_cell_trial(config, trial)
    return _multi_cell_trial(config, trial)


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
        run_trial = functools.partial(_trial_rows, config)
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            per_trial = list(pool.map(run_trial, range(config.trials)))
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


def _metric_values(key: tuple, groups: dict[tuple, list[ResultRow]]):
    """(metric, values) pairs of one group: the plain metrics, then ratios vs the oracle.

    A heuristic's ratio for a trial compares it with the oracle row of
    the same power scheme, sweep point and trial; failed rows, missing
    values and non-positive references are skipped.
    """
    members = groups[key]
    for name in _SUMMARY_METRICS:
        yield name, [
            getattr(r, name) for r in members if not r.error and getattr(r, name) is not None
        ]
    scenario, sa, pa, chunk_size, snr_db = key
    oracle_rows = groups.get((scenario, "exhaustive-oracle", pa, chunk_size, snr_db))
    if sa == "exhaustive-oracle" or oracle_rows is None:
        return
    reference = {r.trial: r for r in oracle_rows if not r.error and r.sum_rate is not None}
    paired = [(r, reference[r.trial]) for r in members if not r.error and r.trial in reference]
    for name in _ORACLE_NORMALIZED:
        pairs = [(getattr(r, name), getattr(ref, name)) for r, ref in paired]
        yield name + "_vs_oracle", [
            metrics.normalize_vs_oracle(value, ref_value)
            for value, ref_value in pairs
            if value is not None and ref_value is not None and ref_value > 0
        ]


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Means and confidence half-widths per (scenario, scheme, sweep point).

    When a run includes the exhaustive-oracle assignment, each heuristic
    scheme additionally gets per-trial ratios against the oracle rows of
    the same power scheme and sweep point (metrics suffixed
    ``_vs_oracle``).
    """
    # Keyed by the first five SummaryRow fields, in their order.
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.scenario, row.sa, row.pa, row.chunk_size, row.snr_db), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (k[3], k[4] if k[4] is not None else 0.0, k[1], k[2])):
        for metric_name, values in _metric_values(key, groups):
            if values:
                mean, half = metrics.mean_ci(values)
                out.append(SummaryRow(*key, metric_name, len(values), mean, half))
    return out
