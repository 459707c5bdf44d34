"""Seeded Monte-Carlo experiment runner and CSV output.

A run is fully determined by (config, master seed): channels come from
per-(trial, user, cell) substreams, so trials can execute in any order
or in parallel without changing a single output byte.  Row CSVs carry
one line per (sweep point, scheme pair, trial); a companion summary CSV
aggregates means and 95% confidence half-widths per scheme and sweep
point.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import assign, metrics, multicell, power
from .channel import (
    STREAM_CHANNEL,
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
    "summarize",
    "emit_csv",
    "emit_summary_csv",
    "ROW_COLUMNS",
    "SUMMARY_COLUMNS",
]

SA_SCHEMES = ("proposed", "shen", "static", "exhaustive-oracle")
# Each PA scheme: its solver, which reads its ``power`` function when called, so a
# wrapper set there takes effect; and the name of the bound on its sum rates that
# its exhaustive-oracle search uses (``_search_bound``).  Unconstrained water-filling
# holds for every PA; the rate-weighted bound only for rates proportional to the
# weights (the exact oracle); uniform power's bound is its own sum rate.
_PA = {
    "proposed": (lambda a, gains, weights, p: power.proposed_pa(a, gains, weights, p), "water-filling"),
    "uniform": (lambda a, gains, weights, p: power.uniform_pa(a, p), "uniform-power"),
    "exact-oracle": (lambda a, gains, weights, p: power.exact_pa_oracle(a, gains, weights, p), "rate-weighted"),
}
PA_SCHEMES = tuple(_PA)
SCENARIOS = ("single-cell", "multi-cell", "multi-cell-no-FFR")
# The keys only one kind of run reads; the other kind takes them at their defaults only.
_SINGLE_CELL_KEYS = ("snr_db",)
_MULTI_CELL_KEYS = tuple(f.name for f in fields(multicell.LinkBudget))

# What a JSON value of each field type must be: (one value, a list of them).
_JSON_KINDS = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


@functools.cache
def _type_hints(cls) -> dict:
    """``get_type_hints(cls)``, resolved once per class: a config's field kinds never change."""
    return get_type_hints(cls)


def _is_json_kind(value, kind) -> bool:
    """Whether a JSON value has the field type: booleans are never numbers."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(multicell.LinkBudget):
    """Everything a run needs; see README for the JSON file grammar.

    Single-cell runs sweep ``snr_db`` under unit noise power per
    subcarrier; the transmit power at a sweep point is
    P_T = N * 10**(snr/10), i.e. snr is the average per-subcarrier SNR
    under uniform power and unit-energy channels.  Multi-cell runs sweep
    ``chunk_sizes`` instead, always use uniform power, and read the
    link-budget keys inherited from ``multicell.LinkBudget``.

    Construction checks the config: first each field's JSON kind (a
    list becomes a tuple), so a config built in Python or by
    ``dataclasses.replace`` passes the same check as a JSON file; then
    as a whole (keys the scenario does not read must keep their
    defaults); then by building what a run builds.  Rules about single
    inputs (weights, chunk sizes, geometry, target BER, link budget)
    live in the constructors the run uses and raise their
    ``ConfigError`` here, so every config that constructs runs.  A
    multi-cell check keeps what it built as ``chunk_params``.
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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def __post_init__(self):
        hints = _type_hints(type(self))
        problems = []
        for f in fields(self):
            value, kind = getattr(self, f.name), hints[f.name]
            if get_origin(kind) is tuple:
                kind = get_args(kind)[0]
                if isinstance(value, (list, tuple)) and all(_is_json_kind(v, kind) for v in value):
                    object.__setattr__(self, f.name, tuple(value))
                    continue
                expected = "a list of " + _JSON_KINDS[kind][1]
            elif _is_json_kind(value, kind):
                continue
            else:
                expected = _JSON_KINDS[kind][0]
            problems.append(f"{f.name} must be {expected}, got {value!r}")
        if problems:
            raise ConfigError("; ".join(problems))

        single_cell = self.scenario == "single-cell"
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
        if not single_cell and self.pa_schemes != ("uniform",):
            problems.append("multi-cell runs use uniform power only")
        if any(tap_count > self.n_subcarriers for tap_count in self.tap_counts):
            problems.append(f"tap counts {list(self.tap_counts)} must not exceed n_subcarriers")
        other_keys = _MULTI_CELL_KEYS if single_cell else _SINGLE_CELL_KEYS
        unread = [f.name for f in fields(self)
                  if f.name in other_keys and getattr(self, f.name) != f.default]
        if unread:
            problems.append(f"{self.scenario} runs do not read {unread}; drop them")
        if problems:
            raise ConfigError("; ".join(problems))

        assign._rate_weights(self.rate_weights, self.n_users)
        for tap_count in self.tap_counts:
            UserProfile(tap_count=tap_count)
        try:  # the run transforms each user's taps at N subcarriers; every output has N points
            frequency_response(np.zeros(max(self.tap_counts)), self.n_subcarriers)
        except (ValueError, MemoryError) as exc:  # numpy refuses, or cannot allocate, the output
            raise ConfigError(f"n_subcarriers {self.n_subcarriers} is too large: {exc}") from None
        if not single_cell:
            self.chunk_params  # building each chunk size's ScenarioParams checks it
            return
        for snr_db in self.snr_db:
            try:
                total_power = self.total_power(snr_db)
            except OverflowError:
                total_power = math.inf
            if not 0 < total_power < math.inf:
                problems.append(f"snr_db {snr_db} must give a positive finite transmit power")
        for chunk_size in self.chunk_sizes:
            m = assign.build_grid(self.n_subcarriers, chunk_size).n_chunks
            if m < self.n_users:
                problems.append(f"chunk size {chunk_size} leaves fewer chunks than users")
            elif "exhaustive-oracle" in self.sa_schemes and self.n_users**m > assign.ORACLE_CAP:
                problems.append(f"exhaustive oracle needs {self.n_users}**{m} candidates, "
                                f"cap is {assign.ORACLE_CAP}")
        if problems:
            raise ConfigError("; ".join(problems))

    def total_power(self, snr_db: float) -> float:
        """Single-cell transmit power at one sweep point."""
        return self.n_subcarriers * 10.0 ** (snr_db / 10.0)

    @functools.cached_property
    def chunk_params(self) -> tuple[multicell.ScenarioParams, ...]:
        """One multi-cell ``ScenarioParams`` per chunk size, in ``chunk_sizes`` order.

        Not a field: equality, ``fields()`` and the JSON grammar ignore it.
        """
        names = {f.name for f in fields(multicell.ScenarioParams) if f.init} - {"chunk_size"}
        shared = {n: getattr(self, n) for n in names}
        return tuple(multicell.ScenarioParams(chunk_size=size, **shared) for size in self.chunk_sizes)


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
    if isinstance(value, float):  # the most common cell, numpy floats included
        return format(float(value), ".12g")
    if value is None:
        return ""
    if isinstance(value, str):  # quoted only if it holds a comma, a quote or a line break
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, tuple):
        return ";".join([_fmt(v) for v in value])
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(rows, columns: tuple[str, ...], path) -> None:
    cells = operator.attrgetter(*columns)
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt, cells(r))) for r in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(rows: Iterable[ResultRow], path) -> None:
    """Write the deterministic row CSV: header plus one line per row."""
    _write_csv(rows, ROW_COLUMNS, path)


def emit_summary_csv(rows: Iterable[SummaryRow], path) -> None:
    """Write the summary CSV: header plus one line per (group, metric)."""
    _write_csv(rows, SUMMARY_COLUMNS, path)


def _row(config, trial, sa, pa, chunk_size, snr_db, weights, rates_of, edge) -> ResultRow:
    """One result row: the metrics of ``rates_of(sa, pa)``, or ``"<Type>: <message>"`` of its library error.

    The edge metrics cover the users that ``edge`` indexes, when there are any.
    """
    row = ResultRow(config.scenario, sa, pa, chunk_size, snr_db, trial, config.seed)
    try:
        rates = rates_of(sa, pa)
    except ChunkfairError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
        return row
    values = rates.tolist()
    row.rates = tuple(values)
    row.min_rate = metrics._min(values)
    row.min_weighted_rate = metrics.min_weighted_rate(rates, weights)
    row.sum_rate = metrics._total(values)
    row.deviation = _deviation_or_none(rates, weights)
    if edge is not None and edge.size:
        row.min_edge_rate = float(rates[edge].min())
        row.edge_deviation = _deviation_or_none(rates[edge], weights[edge])
    return row


def _deviation_or_none(rates: np.ndarray, weights: np.ndarray) -> Optional[float]:
    try:
        return metrics.deviation(rates, weights)
    except UndefinedMetricError:
        return None


def _single_cell_points(config: ExperimentConfig, trial: int, weights: np.ndarray):
    """Each (chunk size, SNR) point of one single-cell trial, as ``(chunk_size, snr_db, rates_of, None)``.

    A greedy or static SA runs once per point and its assignment, or its
    error, serves every PA scheme; the exhaustive oracle searches per PA,
    skipping the candidates that the PA's bound in ``_PA`` rules out
    (``_search_bound``), so a skipped candidate's PA error never reaches
    a row.  The proposed PA's bound is unconstrained water-filling
    (``power.sum_rate_bound``), which holds for every PA; the exact
    oracle's also takes the rate weights, a tighter bound that holds
    only for rates proportional to them; uniform power's is its own sum
    rate (``power._uniform_bound``), so its search solves little more
    than the winner.  Each PA scheme solves each distinct assignment
    once per point, so an oracle candidate that a heuristic also picked
    is not solved again.  A PA error is not kept: asking again raises it
    again.

    The unit-price water-fill of each block of candidates depends on
    neither the PA nor the weights, so it is computed once per point and
    the water-filling and rate-weighted searches both read it.  A
    search's floor is the best sum rate among the assignments this PA
    has already solved at the point, NaNs left out: those of the SA
    schemes listed before the oracle.  Each gives every user a chunk, so
    each is a candidate of the search.  Only the candidates whose
    unit-price bound reaches the floor get the rate-weighted
    refinement; by the argument in ``exhaustive_sa_oracle``, the search
    visits and solves the same candidates, and raises the same errors,
    as without a floor.
    """
    n = config.n_subcarriers
    gains = np.empty((config.n_users, n))
    for k in range(config.n_users):
        profile = UserProfile(tap_count=config.tap_counts[k])
        rng = substream(config.seed, STREAM_CHANNEL, trial, k, 0)
        gains[k] = realize_channel(profile, n, 1.0, rng).gains
    for chunk_size in config.chunk_sizes:
        grid = assign.build_grid(n, chunk_size)
        for snr_db in config.snr_db:
            total_power = config.total_power(snr_db)
            table = assign.chunk_rates(gains, grid, total_power / n)
            yield chunk_size, snr_db, _single_cell_rates(grid, gains, weights, total_power, table), None


def _single_cell_rates(grid, gains, weights, total_power, table):
    """``rates_of(sa, pa)`` of one single-cell point; see ``_single_cell_points``."""
    assigned = {}  # SA name -> its assignment or its error
    solved = {}  # (PA name, owners) -> that assignment's rates under that PA
    unit = {}  # owner block bytes -> its unit-price water-fill, shared by the proposed and exact-oracle searches

    def rates_of(sa, pa):
        solve, bound_name = _PA[pa]

        def pa_rates(assignment):
            key = (pa, assignment.owners)
            if key not in solved:
                alloc = solve(assignment, gains, weights, total_power)
                rates = power.user_rates(alloc.powers, gains)
                rates.flags.writeable = False  # every row and search that asks shares it
                solved[key] = rates
            return solved[key]

        if sa == "exhaustive-oracle":
            sums = [float(rates.sum()) for (name, _), rates in solved.items() if name == pa]
            floor = max([s for s in sums if s == s], default=-math.inf)
            bound = _search_bound(bound_name, grid, gains, weights, total_power, floor, unit)
            return assign.exhaustive_sa_oracle(weights, grid, pa_rates, upper_bound=bound).rates
        if sa not in assigned:
            try:
                assigned[sa] = assign.run_sa(sa, table, weights, grid)
            except ChunkfairError as exc:
                assigned[sa] = exc
        if isinstance(assigned[sa], ChunkfairError):
            raise assigned[sa]
        return pa_rates(assigned[sa])

    return rates_of


def _search_bound(name, grid, gains, weights, total_power, floor, unit):
    """The bound ``name`` of ``_PA`` for an oracle search at one point: (C, M) owner rows to (C,) bounds.

    ``floor`` is ``power.sum_rate_bound``'s; ``unit`` is a dict, keyed
    by an owner block's bytes, that keeps each block's unit-price
    water-fill for the point's other searches.  The uniform-power bound
    reads neither.
    """
    if name == "uniform-power":
        return functools.partial(power._uniform_bound, grid, gains, total_power)
    rate_weights = {"water-filling": None, "rate-weighted": weights}[name]

    def bound(owners):
        key = owners.tobytes()
        if key not in unit:
            unit[key] = power._unit_waterfill(grid, gains, total_power, owners)
        return power.sum_rate_bound(grid, gains, total_power, owners, rate_weights, floor, unit[key])

    return bound


def _multi_cell_points(config: ExperimentConfig, trial: int, weights: np.ndarray):
    """Each chunk size of one multi-cell trial, as ``(chunk_size, None, rates_of, edge users)``.

    The network is drawn once; every chunk size sees the same draw
    through a view that swaps in that chunk size's checked params.  The
    PA is always uniform, so ``rates_of`` reads only the SA name.
    """
    ffr = config.scenario == "multi-cell"
    drawn = multicell.build_scenario(config.chunk_params[0], config.seed, trial)
    for params in config.chunk_params:
        yield params.chunk_size, None, _multi_cell_rates(replace(drawn, params=params), ffr), drawn.edge_users


def _multi_cell_rates(scenario, ffr: bool):
    """``rates_of(sa, pa)`` of one multi-cell point, with or without FFR."""

    def rates_of(sa, pa):
        return multicell.multicell_sa(scenario, sa, ffr)

    return rates_of


def _trial_rows(config: ExperimentConfig, trial: int) -> list[ResultRow]:
    """All rows of one trial: one per sweep point, SA scheme and PA scheme."""
    weights = np.asarray(config.rate_weights, dtype=float)
    points = _single_cell_points if config.scenario == "single-cell" else _multi_cell_points
    return [
        _row(config, trial, sa, pa, chunk_size, snr_db, weights, rates_of, edge)
        for chunk_size, snr_db, rates_of, edge in points(config, trial, weights)
        for sa in config.sa_schemes
        for pa in config.pa_schemes
    ]


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Execute every (sweep point, scheme, trial) cell of the configured run.

    Returns the rows sorted deterministically plus the aggregated
    summary.  ``threads`` > 1 runs whole trials in parallel processes,
    at most one per trial; per-trial substreams make the result
    independent of scheduling.  Raises ConfigError unless threads >= 1.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    workers = min(threads, config.trials)
    if workers == 1:
        per_trial = [_trial_rows(config, t) for t in range(config.trials)]
    else:
        import concurrent.futures  # only a parallel run pays for this import

        run_trial = functools.partial(_trial_rows, config)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
            value / ref_value
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
