"""Two-tier 19-cell network with fractional frequency reuse.

Cell 0 (reported as cell 1) sits at the origin of a hexagonal layout
with six first-tier neighbours at the intercell distance D and twelve
second-tier cells, six at sqrt(3)*D and six at 2*D.  The band is split
into a centre band F1 reused by every cell and three disjoint edge
bands F2-F4 handed out by a reuse-3 colouring, so the co-band edge
interferers of cell 1 are exactly the six sqrt(3)*D cells.

SINR per subcarrier uses uniform transmit power everywhere.  The
desired link is attenuated by the path loss at the user's own distance
from its base station; each interfering link is attenuated by the path
loss at the interferer-to-home-base-station distance, which stands in
for the interferer-to-user distance.  Effective rates scale the SINR by
the BER-dependent gap factor before the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .assign import Assignment, ChunkGrid, build_grid, chunk_rates, run_sa
from .channel import STREAM_CHANNEL, STREAM_PLACEMENT, UserProfile, frequency_response, generate_taps, substream
from .errors import ConfigError, InfeasibleError

__all__ = [
    "HexLayout",
    "FfrPlan",
    "ScenarioParams",
    "CellScenario",
    "MulticellAllocation",
    "build_layout",
    "path_loss_db",
    "place_users",
    "band_partition",
    "ber_gap",
    "dbm_to_watts",
    "build_scenario",
    "sinr_centre",
    "sinr_edge",
    "effective_chunk_rate",
    "multicell_sa",
    "reuse1_baseline",
]

N_CELLS = 19
# The FFR plan's edge bands are coloured by reuse 3; no other plan exists.
REUSE_FACTOR = 3


@dataclass(frozen=True)
class HexLayout:
    """Cell-centre coordinates (km) and derived base-station geometry."""

    radius_km: float
    intercell_km: float
    centers: np.ndarray        # (19, 2)
    bs_distance_km: np.ndarray # (19,) distance to cell 0's base station
    reuse3_color: np.ndarray   # (19,) in {0, 1, 2}


def build_layout(radius_km: float, intercell_km: float) -> HexLayout:
    """Build the 19-cell layout: cell 0 centre, 1-6 tier one, 7-18 tier two.

    Second-tier cells alternate mid-edge (distance sqrt(3)*D, odd
    positions 7, 9, ..., 17) and corner (distance 2*D).
    """
    if not radius_km > 0 or not intercell_km > 0:
        raise ConfigError("radius and intercell distance must be positive")
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
    return HexLayout(
        radius_km=float(radius_km),
        intercell_km=d,
        centers=centers,
        bs_distance_km=dist,
        reuse3_color=color,
    )


def path_loss_db(distance_km: float) -> float:
    """Macro-cell propagation loss 128.1 + 37.6 log10(d) in dB."""
    if not distance_km > 0:
        raise ConfigError(f"distance must be positive, got {distance_km}")
    return 128.1 + 37.6 * math.log10(distance_km)


def place_users(n_users: int, radius_km: float, rng: np.random.Generator) -> np.ndarray:
    """Distances of users dropped uniformly over the cell disc (CDF ~ r^2)."""
    if n_users < 1:
        raise ConfigError(f"n_users must be >= 1, got {n_users}")
    return radius_km * np.sqrt(rng.random(n_users))


@dataclass(frozen=True)
class FfrPlan:
    """Band split between the centre group and the three edge groups."""

    n_subcarriers: int
    chunk_size: int
    n_cc: int
    n_ce: int
    m_cc: int
    m_ce: int
    centre_band: np.ndarray            # F1 subcarriers
    edge_bands: tuple[np.ndarray, ...] # F2, F3, F4
    cell_edge_slot: np.ndarray         # (19,) index into edge_bands
    co_band_cells: np.ndarray          # cells sharing cell 0's edge band


def band_partition(
    n_subcarriers: int,
    chunk_size: int,
    tau_km: float,
    radius_km: float,
    layout: HexLayout,
) -> FfrPlan:
    """Split N subcarriers into the centre band and reuse-3 edge bands.

    The centre band holds ceil(N * (tau/R)^2) subcarriers, matching the
    coverage-area split; each edge band holds floor((N - N_cc) / 3).
    Raises ConfigError unless 1 <= L <= N and 0 <= tau <= R.
    """
    n, l = int(n_subcarriers), int(chunk_size)
    if not 1 <= l <= n:
        raise ConfigError(f"chunk_size must be in [1, {n}], got {l}")
    if not 0 <= tau_km <= radius_km:
        raise ConfigError(f"tau must lie in [0, {radius_km}], got {tau_km}")
    n_cc = math.ceil(n * (tau_km / radius_km) ** 2)
    n_ce = (n - n_cc) // REUSE_FACTOR
    return FfrPlan(
        n_subcarriers=n,
        chunk_size=l,
        n_cc=n_cc,
        n_ce=n_ce,
        m_cc=n_cc // l,
        m_ce=n_ce // l,
        centre_band=np.arange(n_cc),
        edge_bands=tuple(
            np.arange(n_cc + b * n_ce, n_cc + (b + 1) * n_ce) for b in range(REUSE_FACTOR)
        ),
        cell_edge_slot=layout.reuse3_color.copy(),
        co_band_cells=np.flatnonzero(layout.reuse3_color == layout.reuse3_color[0])[1:],
    )


def ber_gap(target_ber: float) -> float:
    """SNR gap factor -1.5 / ln(5 * BER) applied inside the rate log."""
    if not 0 < target_ber < 0.2:
        raise ConfigError(f"target BER must lie in (0, 0.2), got {target_ber}")
    return -1.5 / math.log(5.0 * target_ber)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioParams:
    """Inputs of one multi-cell drop, before any randomness."""

    n_subcarriers: int
    chunk_size: int
    n_users: int
    tap_counts: tuple[int, ...]
    rate_weights: tuple[float, ...]
    cell_radius_km: float = 1.0
    intercell_distance_km: float = 2.0
    centre_radius_fraction: float = 0.5
    target_ber: float = 1e-6
    bs_power_dbm: float = 43.0
    noise_density_dbm_hz: float = -174.0
    subcarrier_spacing_hz: float = 15e3

    def __post_init__(self):
        if len(self.tap_counts) != self.n_users or len(self.rate_weights) != self.n_users:
            raise ConfigError("tap_counts and rate_weights must list one entry per user")
        if not 0 <= self.centre_radius_fraction <= 1:
            raise ConfigError("centre_radius_fraction must lie in [0, 1]")

    @property
    def total_power_watts(self) -> float:
        return dbm_to_watts(self.bs_power_dbm)

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_density_dbm_hz) * self.subcarrier_spacing_hz

    @property
    def tau_km(self) -> float:
        return self.centre_radius_fraction * self.cell_radius_km

    def band_plan(self, layout: HexLayout) -> FfrPlan:
        """The FFR band plan of these params on the given layout."""
        return band_partition(
            self.n_subcarriers, self.chunk_size, self.tau_km, self.cell_radius_km, layout
        )


@dataclass(frozen=True)
class CellScenario:
    """One seeded drop: placements, channels to every base station, and the plan.

    The gap-scaled SINR of each group's band and the group rate tables
    are computed on first use and kept per edge interferer set, so
    ``gain_sq`` must not change after the first ``multicell_sa``,
    ``reuse1_baseline`` or ``effective_chunk_rate`` call on the
    scenario or on any of its ``with_chunk_size`` views.
    """

    params: ScenarioParams
    layout: HexLayout
    plan: FfrPlan
    distance_km: np.ndarray   # (K,) user distance from cell 0's base station
    is_centre: np.ndarray     # (K,) bool group tag
    gain_sq: np.ndarray       # (K, 19, N) squared channel magnitudes
    desired_attenuation: np.ndarray     # (K,) path-loss factor of each user's own link
    interferer_attenuation: np.ndarray  # (19,) path-loss factor per base station, 0 for cell 1's
    lam: float
    master_seed: int
    trial: int
    # Gap-scaled SINR per (group, interferer set); shared by every chunk-size view.
    _sinr: dict = field(default_factory=dict, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def with_chunk_size(self, chunk_size: int) -> CellScenario:
        """The same drop under another chunk size.

        Placement, channels and bands do not depend on the chunk size, so
        the result shares the draw and its gap-scaled SINR blocks with
        this scenario; only the params, the band plan's chunk counts and
        the rate tables change.
        """
        params = replace(self.params, chunk_size=chunk_size)
        return replace(self, params=params, plan=params.band_plan(self.layout))

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
    """Draw one multi-cell scenario from documented substreams.

    Placement uses (STREAM_PLACEMENT, trial); the channel from base
    station i to user k uses (STREAM_CHANNEL, trial, k, i).  A user's 19
    tap vectors are drawn in cell order and transformed in one batched
    FFT.
    """
    layout = build_layout(params.cell_radius_km, params.intercell_distance_km)
    plan = params.band_plan(layout)
    rng = substream(master_seed, STREAM_PLACEMENT, trial)
    distances = place_users(params.n_users, params.cell_radius_km, rng)
    is_centre = distances <= params.tau_km
    gain_sq = np.empty((params.n_users, N_CELLS, params.n_subcarriers))
    interferer_att = np.zeros(N_CELLS)
    interferer_att[1:] = [10.0 ** (-0.1 * path_loss_db(d)) for d in layout.bs_distance_km[1:]]
    for k in range(params.n_users):
        profile = UserProfile(tap_count=params.tap_counts[k], rate_weight=params.rate_weights[k])
        taps = np.stack([
            generate_taps(profile, substream(master_seed, STREAM_CHANNEL, trial, k, cell))
            for cell in range(N_CELLS)
        ])
        h = frequency_response(taps, params.n_subcarriers)
        gain_sq[k] = h.real**2 + h.imag**2
    return CellScenario(
        params=params,
        layout=layout,
        plan=plan,
        distance_km=distances,
        is_centre=is_centre,
        gain_sq=gain_sq,
        desired_attenuation=np.array([10.0 ** (-0.1 * path_loss_db(d)) for d in distances]),
        interferer_attenuation=interferer_att,
        lam=ber_gap(params.target_ber),
        master_seed=master_seed,
        trial=trial,
    )


def _sinr_block(
    scenario: CellScenario,
    users: np.ndarray,
    subcarriers: np.ndarray,
    interferers: np.ndarray,
) -> np.ndarray:
    """SINR for the given users x subcarriers under the given interferer set."""
    params = scenario.params
    per_sc = params.total_power_watts / params.n_subcarriers
    desired_att = scenario.desired_attenuation[users]
    att = scenario.interferer_attenuation[interferers]
    desired = desired_att[:, None] * scenario.gain_sq[np.ix_(users, [0], subcarriers)][:, 0, :] * per_sc
    interference = np.einsum(
        "i,kin->kn", att, scenario.gain_sq[np.ix_(users, interferers, subcarriers)]
    ) * per_sc
    return desired / (params.noise_power_watts + interference)


_ALL_INTERFERERS = np.arange(1, N_CELLS)


def sinr_centre(scenario: CellScenario, user: int, subcarrier: int) -> float:
    """SINR of a centre user on a centre-band subcarrier (18 interferers)."""
    if not scenario.is_centre[user]:
        raise ConfigError(f"user {user} is not in the centre group")
    if subcarrier not in scenario.plan.centre_band:
        raise ConfigError(f"subcarrier {subcarrier} is outside the centre band")
    return float(
        _sinr_block(scenario, np.array([user]), np.array([subcarrier]), _ALL_INTERFERERS)[0, 0]
    )


def sinr_edge(scenario: CellScenario, user: int, subcarrier: int) -> float:
    """SINR of an edge user on an edge-band subcarrier (six co-band interferers)."""
    if scenario.is_centre[user]:
        raise ConfigError(f"user {user} is not in the edge group")
    own_band = scenario.plan.edge_bands[scenario.plan.cell_edge_slot[0]]
    if subcarrier not in own_band:
        raise ConfigError(f"subcarrier {subcarrier} is outside cell 1's edge band")
    return float(
        _sinr_block(
            scenario, np.array([user]), np.array([subcarrier]), scenario.plan.co_band_cells
        )[0, 0]
    )


def _group_tables(
    scenario: CellScenario,
    edge_interferers: np.ndarray | None = None,
) -> tuple[tuple[str, np.ndarray, np.ndarray | None, ChunkGrid | None], ...]:
    """(name, users, rate table, grid) of the centre group, then the edge group.

    The centre band always sees all 18 interferers; the edge band sees
    the six co-band cells under FFR, or whatever ``edge_interferers``
    says (the no-FFR baseline passes all 18).  A group without users or
    without a whole chunk in its band gets no table and no grid.  The
    result is computed once per scenario and edge interferer set, and
    each gap-scaled SINR block once per draw; both are read-only.
    """
    plan = scenario.plan
    if edge_interferers is None:
        edge_interferers = plan.co_band_cells
    key = tuple(int(i) for i in edge_interferers)
    if key in scenario._tables:
        return scenario._tables[key]
    edge_band = plan.edge_bands[plan.cell_edge_slot[0]]
    groups = (
        ("centre", scenario.centre_users, plan.centre_band, plan.m_cc, _ALL_INTERFERERS),
        ("edge", scenario.edge_users, edge_band, plan.m_ce, edge_interferers),
    )
    out = []
    for name, users, band, n_chunks, interferers in groups:
        table = grid = None
        if users.size and n_chunks:
            grid = build_grid(band.size, plan.chunk_size)
            sinr_key = (name, tuple(int(i) for i in interferers))
            if sinr_key not in scenario._sinr:
                scaled = scenario.lam * _sinr_block(scenario, users, band, interferers)
                scaled.flags.writeable = False
                scenario._sinr[sinr_key] = scaled
            table = chunk_rates(
                scenario._sinr[sinr_key], grid, 1.0, n_total=scenario.params.n_subcarriers
            )
            table.flags.writeable = False
        out.append((name, users, table, grid))
    scenario._tables[key] = tuple(out)
    return scenario._tables[key]


def effective_chunk_rate(scenario: CellScenario, user: int, chunk: int) -> float:
    """Gap-scaled rate of one chunk in the user's own group band."""
    centre, edge = _group_tables(scenario)
    _, members, table, grid = centre if scenario.is_centre[user] else edge
    if table is None or not 0 <= chunk < grid.n_chunks:
        raise ConfigError(f"chunk {chunk} is outside user {user}'s band")
    row = int(np.flatnonzero(members == user)[0])
    return float(table[row, chunk])


@dataclass(frozen=True)
class MulticellAllocation:
    """Per-user rates in cell 1 plus the two group assignments."""

    rates: np.ndarray
    centre_assignment: Assignment | None
    edge_assignment: Assignment | None


def multicell_sa(
    scenario: CellScenario,
    sa_scheme: str = "proposed",
    edge_interferers: np.ndarray | None = None,
) -> MulticellAllocation:
    """Assign each group's chunks inside its own band and report user rates.

    The centre group shares the centre band, the edge group shares cell
    1's edge band, and the two problems are solved independently with
    the chosen scheme under uniform power.
    """
    weights = scenario.weights
    rates = np.zeros(scenario.params.n_users)
    assignments = []
    for name, users, table, grid in _group_tables(scenario, edge_interferers):
        assignment = None
        if users.size:
            if table is None or grid.n_chunks < users.size:
                raise InfeasibleError(
                    f"{users.size} {name} users need at least as many {name} chunks"
                )
            assignment = run_sa(sa_scheme, table, weights[users], grid)
            for row, user in enumerate(users):
                rates[user] = table[row, assignment.chunks_of(row)].sum()
        assignments.append(assignment)
    return MulticellAllocation(
        rates=rates,
        centre_assignment=assignments[0],
        edge_assignment=assignments[1],
    )


def reuse1_baseline(scenario: CellScenario, sa_scheme: str = "proposed") -> np.ndarray:
    """Per-user rates without FFR: reuse factor 1 on every band.

    Keeps the band split and user groups of the scenario but drops the
    reuse-3 coordination, so every cell transmits on every band and the
    edge band is hit by all 18 interferers instead of the six co-band
    cells.  On identical draws each edge subcarrier's SINR is therefore
    term-wise dominated by its FFR counterpart.
    """
    return multicell_sa(scenario, sa_scheme, edge_interferers=_ALL_INTERFERERS).rates
