"""Two-tier 19-cell network with fractional frequency reuse.

Cell 0 (reported as cell 1) sits at the origin of a hexagonal layout
with six first-tier neighbours at the intercell distance D and twelve
second-tier cells, six at sqrt(3)*D and six at 2*D.  The band is split
into a centre band F1 reused by every cell and three disjoint edge
bands F2-F4 handed out by a reuse-3 colouring, so the co-band edge
interferers of cell 1 are exactly the six sqrt(3)*D cells.
``multicell_sa`` runs cell 1 with or without FFR by its ``ffr`` flag.

SINR per subcarrier uses uniform transmit power everywhere.  The
desired link is attenuated by the path loss at the user's own distance
from its base station; each interfering link is attenuated by the path
loss at the interferer-to-home-base-station distance, which stands in
for the interferer-to-user distance.  Effective rates scale the SINR by
the BER-dependent gap factor before the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assign import ChunkGrid, _rate_weights, build_grid, chunk_rates, run_sa
from .channel import (STREAM_CHANNEL, STREAM_PLACEMENT, UserProfile, frequency_response, generate_taps,
                      subcarrier_gains, substream, substreams)
from .errors import ConfigError, InfeasibleError

__all__ = [
    "HexLayout",
    "FfrPlan",
    "LinkBudget",
    "ScenarioParams",
    "CellScenario",
    "build_layout",
    "path_loss_db",
    "place_users",
    "band_partition",
    "ber_gap",
    "dbm_to_watts",
    "build_scenario",
    "multicell_sa",
]

N_CELLS = 19
# The FFR plan's edge bands are coloured by reuse 3; no other plan exists.
REUSE_FACTOR = 3


@dataclass(frozen=True)
class HexLayout:
    """Cell-centre coordinates (km) and derived base-station geometry."""

    centers: np.ndarray        # (19, 2)
    bs_distance_km: np.ndarray # (19,) distance to cell 0's base station
    reuse3_color: np.ndarray   # (19,) in {0, 1, 2}


def build_layout(radius_km: float, intercell_km: float) -> HexLayout:
    """Build the 19-cell layout: cell 0 centre, 1-6 tier one, 7-18 tier two.

    Second-tier cells alternate mid-edge (distance sqrt(3)*D, odd
    positions 7, 9, ..., 17) and corner (distance 2*D).
    """
    if not (0 < radius_km < math.inf and 0 < intercell_km < math.inf):
        raise ConfigError("radius and intercell distance must be positive and finite")
    d = float(intercell_km)
    centers = [(0.0, 0.0)]
    for j in range(6):  # tier 1 at D
        ang = math.radians(60.0 * j)
        centers.append((d * math.cos(ang), d * math.sin(ang)))
    for j in range(6):  # tier 2, interleaved mid-edge then corner
        mid_ang = math.radians(30.0 + 60.0 * j)
        centers.append((math.sqrt(3.0) * d * math.cos(mid_ang),
                        math.sqrt(3.0) * d * math.sin(mid_ang)))
        cor_ang = math.radians(60.0 * j)
        centers.append((2.0 * d * math.cos(cor_ang), 2.0 * d * math.sin(cor_ang)))
    centers = np.array(centers)
    dist = np.hypot(centers[:, 0], centers[:, 1])

    # Reuse-3 colour from axial lattice coordinates (q, r) with basis
    # e1 = D*(1, 0), e2 = D*(1/2, sqrt(3)/2): colour = (q + 2 r) mod 3.
    qs = np.rint((centers[:, 0] - centers[:, 1] / math.sqrt(3.0)) / d).astype(int)
    rs = np.rint(centers[:, 1] * 2.0 / (math.sqrt(3.0) * d)).astype(int)
    color = (qs + 2 * rs) % 3
    for array in (centers, dist, color):
        array.flags.writeable = False
    return HexLayout(centers=centers, bs_distance_km=dist, reuse3_color=color)


def path_loss_db(distance_km: float) -> float:
    """Macro-cell propagation loss 128.1 + 37.6 log10(d) in dB."""
    if not distance_km > 0:
        raise ConfigError(f"distance must be positive, got {distance_km}")
    return 128.1 + 37.6 * math.log10(distance_km)


def _path_gain(distance_km: float) -> float:
    """Linear path-loss factor 10 ** (-PL / 10); ``ScenarioParams`` checks what the drop evaluates."""
    return 10.0 ** (-0.1 * path_loss_db(distance_km))


def place_users(n_users: int, radius_km: float, rng: np.random.Generator) -> np.ndarray:
    """Distances of users dropped uniformly over the cell disc (CDF ~ r^2)."""
    if n_users < 1:
        raise ConfigError(f"n_users must be >= 1, got {n_users}")
    return radius_km * np.sqrt(rng.random(n_users))


@dataclass(frozen=True)
class FfrPlan:
    """Cell 1's band split: the centre band, its own edge band, and the cells sharing that edge band."""

    n_cc: int
    n_ce: int
    centre_band: np.ndarray    # F1 subcarriers, reused by every cell
    edge_band: np.ndarray      # cell 1's edge band, one of F2-F4 by its reuse-3 colour
    co_band_cells: np.ndarray  # cells sharing cell 1's edge band


def band_partition(
    n_subcarriers: int, tau_km: float, radius_km: float, layout: HexLayout
) -> FfrPlan:
    """Split N subcarriers into the centre band and reuse-3 edge bands.

    The centre band holds ceil(N * (tau/R)^2) subcarriers, matching the
    coverage-area split; each edge band holds floor((N - N_cc) / 3), and
    edge band b (of colour b) follows the centre band and bands 0..b-1.
    The plan does not depend on the chunk size, and its arrays are
    read-only.  Raises ConfigError unless 0 <= tau <= R.
    """
    n = int(n_subcarriers)
    if not 0 <= tau_km <= radius_km:
        raise ConfigError(f"tau must lie in [0, {radius_km}], got {tau_km}")
    n_cc = math.ceil(n * (tau_km / radius_km) ** 2)
    n_ce = (n - n_cc) // REUSE_FACTOR
    colour = layout.reuse3_color[0]
    bands = (np.arange(n_cc), np.arange(n_cc + colour * n_ce, n_cc + (colour + 1) * n_ce),
             np.flatnonzero(layout.reuse3_color == colour)[1:])
    for array in bands:
        array.flags.writeable = False
    return FfrPlan(n_cc, n_ce, *bands)


def ber_gap(target_ber: float) -> float:
    """SNR gap factor -1.5 / ln(5 * BER) applied inside the rate log."""
    if not 0 < target_ber < 0.2:
        raise ConfigError(f"target BER must lie in (0, 0.2), got {target_ber}")
    return -1.5 / math.log(5.0 * target_ber)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Multi-cell geometry, target BER and powers; the one place their defaults are stated."""

    cell_radius_km: float = 1.0
    intercell_distance_km: float = 2.0
    centre_radius_fraction: float = 0.5
    target_ber: float = 1e-6
    bs_power_dbm: float = 43.0
    noise_density_dbm_hz: float = -174.0
    subcarrier_spacing_hz: float = 15e3

    @property
    def total_power_watts(self) -> float:
        return dbm_to_watts(self.bs_power_dbm)

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_density_dbm_hz) * self.subcarrier_spacing_hz

    @property
    def tau_km(self) -> float:
        return self.centre_radius_fraction * self.cell_radius_km


@dataclass(frozen=True, kw_only=True)
class ScenarioParams(LinkBudget):
    """Inputs of one multi-cell drop, before any randomness; construction checks every range.

    Construction also builds the drop geometry that every drop of these
    params shares: the ``layout``, the FFR ``plan``, the
    ``interferer_attenuation`` (19,) path-loss factor of each base
    station (0 for cell 1's) and the BER gap ``lam``.  They are derived
    fields, outside ``__init__``, equality and repr, and read-only: the
    arrays are not writeable.
    """

    n_subcarriers: int
    chunk_size: int
    n_users: int
    tap_counts: tuple[int, ...]
    rate_weights: tuple[float, ...]
    layout: HexLayout = field(init=False, repr=False, compare=False)
    plan: FfrPlan = field(init=False, repr=False, compare=False)
    interferer_attenuation: np.ndarray = field(init=False, repr=False, compare=False)
    lam: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_users < 1:
            raise ConfigError(f"n_users must be >= 1, got {self.n_users}")
        if len(self.tap_counts) != self.n_users or len(self.rate_weights) != self.n_users:
            raise ConfigError("tap_counts and rate_weights must list one entry per user")
        if not all(isinstance(t, (int, np.integer)) and 1 <= t <= self.n_subcarriers for t in self.tap_counts):
            raise ConfigError(f"tap_counts must be integers in [1, {self.n_subcarriers}], "
                              f"got {list(self.tap_counts)}")
        _rate_weights(self.rate_weights, self.n_users)
        if not 0 <= self.centre_radius_fraction <= 1:
            raise ConfigError("centre_radius_fraction must lie in [0, 1]")
        layout = build_layout(self.cell_radius_km, self.intercell_distance_km)
        # The nearest base station, or the nearest user place_users can draw
        # (rng.random() >= 2**-53 unless 0), has the largest path-loss factor.
        nearest = min(layout.bs_distance_km[1:].min(), self.cell_radius_km * math.sqrt(2.0**-53))
        try:
            _path_gain(nearest)
        except OverflowError:
            raise ConfigError(f"cell_radius_km and intercell_distance_km must give finite "
                              f"path-loss factors; a distance of {nearest:g} km does not") from None
        lam = ber_gap(self.target_ber)
        ChunkGrid(self.n_subcarriers, self.chunk_size)  # raises unless 1 <= L <= N
        try:
            finite = 0 < self.total_power_watts < math.inf and 0 < self.noise_power_watts < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("bs_power_dbm, noise_density_dbm_hz and subcarrier_spacing_hz "
                              "must give positive finite powers in watts")
        interferer_att = np.zeros(N_CELLS)
        interferer_att[1:] = [_path_gain(d) for d in layout.bs_distance_km[1:]]
        interferer_att.flags.writeable = False
        plan = band_partition(self.n_subcarriers, self.tau_km, self.cell_radius_km, layout)
        for name, value in (("layout", layout), ("plan", plan), ("interferer_attenuation", interferer_att),
                            ("lam", lam)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CellScenario:
    """One seeded drop: placements, the plan, and channels to every base station.

    ``layout``, ``plan``, ``interferer_attenuation`` and ``lam`` are the
    drop geometry of the params it was drawn with, the same read-only
    objects, shared by every drop of those params.
    ``params.chunk_size`` is the only chunk-size input; the plan and the
    draw do not depend on it.  A view of the drop under another chunk
    size is ``dataclasses.replace(drawn, params=p)``, where ``p`` differs
    from ``drawn.params`` only in ``chunk_size``; it shares the drop's
    arrays, drawn-link mask, plan and memo.  Each (user, cell) link is
    drawn when a model first reads it, and reading ``gain_sq`` draws
    every link not drawn yet.  The gap-scaled SINR of each group's band
    and the group rate tables are computed on first use and kept in that
    memo, so write into ``gain_sq`` only before the first SINR read, that
    is, before the first ``multicell_sa`` call on any view.
    """

    params: ScenarioParams
    layout: HexLayout
    plan: FfrPlan
    distance_km: np.ndarray   # (K,) user distance from cell 0's base station
    is_centre: np.ndarray     # (K,) bool group tag
    desired_attenuation: np.ndarray     # (K,) path-loss factor of each user's own link
    interferer_attenuation: np.ndarray  # (19,) path-loss factor per base station, 0 for cell 1's
    lam: float
    _seed_trial: tuple[int, int]  # (master_seed, trial) of the channel substreams
    _gains: np.ndarray            # (K, 19, N) squared channel magnitudes, valid where _drawn
    _drawn: np.ndarray            # (K, 19) bool, links drawn so far
    # SINR blocks keyed by group ("centre", or "edge" with the FFR flag),
    # rate tables by (chunk size, FFR flag); shared by every chunk-size view.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def gain_sq(self) -> np.ndarray:
        """(K, 19, N) squared channel magnitudes; draws every link not drawn yet."""
        _links(self, np.arange(self.params.n_users), np.arange(N_CELLS))
        return self._gains

    @property
    def centre_users(self) -> np.ndarray:
        return np.flatnonzero(self.is_centre)

    @property
    def edge_users(self) -> np.ndarray:
        return np.flatnonzero(~self.is_centre)

    @property
    def weights(self) -> np.ndarray:
        return np.asarray(self.params.rate_weights, dtype=float)


def build_scenario(params: ScenarioParams, master_seed: int, trial: int) -> CellScenario:
    """Place the users of one multi-cell drop; its links are drawn on first read.

    The geometry is the params' own (see ``ScenarioParams``), so
    placement is all the work done here; it uses (STREAM_PLACEMENT,
    trial).  No link is drawn here:
    the channel from base station i to user k uses (STREAM_CHANNEL,
    trial, k, i) and is drawn when a model first reads it, or when
    ``gain_sq`` is read.  Write into ``gain_sq`` only before the first
    SINR read; see ``CellScenario``.
    """
    rng = substream(master_seed, STREAM_PLACEMENT, trial)
    distances = place_users(params.n_users, params.cell_radius_km, rng)
    return CellScenario(
        params=params,
        layout=params.layout,
        plan=params.plan,
        distance_km=distances,
        is_centre=distances <= params.tau_km,
        desired_attenuation=np.array([_path_gain(d) for d in distances]),
        interferer_attenuation=params.interferer_attenuation,
        lam=params.lam,
        _seed_trial=(master_seed, trial),
        _gains=np.empty((params.n_users, N_CELLS, params.n_subcarriers)),
        _drawn=np.zeros((params.n_users, N_CELLS), dtype=bool),
    )


def _links(scenario: CellScenario, users: np.ndarray, cells: np.ndarray) -> None:
    """Draw every listed (user, cell) link that is not drawn yet.

    A user's missing links are drawn in cell order, one
    ``standard_normal(2 * tap_count)`` from each link's own substream
    (seeded together by one ``substreams`` call), and get one tap build, one batched FFT and one gain pass, whose rows
    equal row-by-row calls, so a link's bytes depend only on its
    substream path, not on which links are drawn with it or when.
    """
    params = scenario.params
    master_seed, trial = scenario._seed_trial
    wanted = np.zeros(N_CELLS, dtype=bool)
    wanted[cells] = True
    for k in users:
        missing = np.flatnonzero(wanted & ~scenario._drawn[k])
        if not missing.size:
            continue
        profile = UserProfile(tap_count=params.tap_counts[k])
        rngs = substreams(master_seed, [(STREAM_CHANNEL, trial, k, cell) for cell in missing.tolist()])
        h = frequency_response(generate_taps(profile, rngs), params.n_subcarriers)
        scenario._gains[k, missing] = subcarrier_gains(h, 1.0)
        scenario._drawn[k, missing] = True


def _sinr_block(
    scenario: CellScenario,
    users: np.ndarray,
    subcarriers: np.ndarray,
    interferers: np.ndarray,
) -> np.ndarray:
    """SINR for the given users x subcarriers under the given interferer set."""
    params = scenario.params
    per_sc = params.total_power_watts / params.n_subcarriers
    _links(scenario, users, np.append(0, interferers))
    gain_sq = scenario._gains
    desired_att = scenario.desired_attenuation[users]
    att = scenario.interferer_attenuation[interferers]
    desired = desired_att[:, None] * gain_sq[np.ix_(users, [0], subcarriers)][:, 0, :] * per_sc
    interference = np.einsum(
        "i,kin->kn", att, gain_sq[np.ix_(users, interferers, subcarriers)]
    ) * per_sc
    return desired / (params.noise_power_watts + interference)


_ALL_INTERFERERS = np.arange(1, N_CELLS)


def _group_tables(
    scenario: CellScenario,
    ffr: bool = True,
) -> tuple[tuple[str, np.ndarray, np.ndarray | None, ChunkGrid | None], ...]:
    """(name, users, rate table, grid) of the centre group, then the edge group.

    Each band sees the interferers ``multicell_sa`` states.  A group
    without users or without a whole chunk in its band gets no table
    and no grid.  The result is computed once per chunk size and FFR
    choice, and each gap-scaled SINR block once per draw (the centre
    block serves both choices); both are read-only.
    """
    plan, memo = scenario.plan, scenario._memo
    chunk_size = scenario.params.chunk_size
    key = (chunk_size, ffr)
    if key in memo:
        return memo[key]
    groups = (
        (("centre",), scenario.centre_users, plan.centre_band, _ALL_INTERFERERS),
        (("edge", ffr), scenario.edge_users, plan.edge_band, plan.co_band_cells if ffr else _ALL_INTERFERERS),
    )
    out = []
    for sinr_key, users, band, interferers in groups:
        table = grid = None
        if users.size and band.size >= chunk_size:
            grid = build_grid(band.size, chunk_size)
            if sinr_key not in memo:
                scaled = scenario.lam * _sinr_block(scenario, users, band, interferers)
                scaled.flags.writeable = False
                memo[sinr_key] = scaled
            table = chunk_rates(memo[sinr_key], grid, 1.0, n_total=scenario.params.n_subcarriers)
            table.flags.writeable = False
        out.append((sinr_key[0], users, table, grid))
    memo[key] = tuple(out)
    return memo[key]


def multicell_sa(
    scenario: CellScenario,
    sa_scheme: str = "proposed",
    ffr: bool = True,
) -> np.ndarray:
    """Per-user rates in cell 1, each group's chunks assigned inside its own band.

    The centre group shares the centre band, the edge group shares cell
    1's edge band, and the two problems are solved independently with
    the chosen scheme under uniform power.  The centre band always sees
    all 18 interferers.  Under ``ffr`` the edge band sees only the six
    co-band cells; without it, reuse factor 1 on every band, the same
    band split and user groups see all 18, so on identical draws each
    edge subcarrier's SINR is term-wise dominated by its FFR counterpart.
    """
    weights = scenario.weights
    rates = np.zeros(scenario.params.n_users)
    for name, users, table, grid in _group_tables(scenario, ffr):
        if not users.size:
            continue
        if table is None or grid.n_chunks < users.size:
            raise InfeasibleError(f"{users.size} {name} users need at least as many {name} chunks")
        owners = np.asarray(run_sa(sa_scheme, table, weights[users], grid).owners)
        # Each row's chunks in chunk order, rows one after another: the
        # values, in the order, of table[row, owners == row].
        chunks = np.argsort(owners, kind="stable")
        owned = table[owners[chunks], chunks]
        ends = np.cumsum(np.bincount(owners, minlength=users.size)).tolist()
        rates[users] = [owned[start:end].sum() for start, end in zip([0, *ends], ends)]
    return rates
