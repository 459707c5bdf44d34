"""Chunk grids, per-chunk rate tables, and subcarrier-assignment schemes.

All assignment schemes operate on a (K, M) table of per-chunk rates
computed under uniform power, partition the M chunks among the K users,
and never see the power-allocation stage.  Ties in every arg-max /
arg-min scan break toward the lowest index so runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError, OracleSizeError
from .metrics import deviation

__all__ = [
    "ChunkGrid",
    "Assignment",
    "ComparisonCount",
    "OracleResult",
    "build_grid",
    "chunk_rates",
    "normalized_rates",
    "proposed_sa",
    "shen_sa",
    "static_sa",
    "run_sa",
    "exhaustive_sa_oracle",
]


@dataclass(frozen=True)
class ChunkGrid:
    """Partition of N subcarriers into M = N // L chunks.

    Chunks 0..M-2 hold exactly L subcarriers; the last chunk absorbs the
    N mod L leftover subcarriers.
    """

    n_subcarriers: int
    chunk_size: int
    starts: tuple[int, ...]
    stops: tuple[int, ...]
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = np.array(self.stops) - np.array(self.starts)
        sizes.flags.writeable = False
        object.__setattr__(self, "_sizes", sizes)

    @property
    def n_chunks(self) -> int:
        return len(self.starts)

    def chunk_sizes(self) -> np.ndarray:
        """Subcarriers per chunk, (M,); read-only, built once at construction."""
        return self._sizes


def build_grid(n_subcarriers: int, chunk_size: int) -> ChunkGrid:
    """Build the chunk grid for N subcarriers and chunk size L.

    Raises ConfigError unless 1 <= L <= N.
    """
    n, l = int(n_subcarriers), int(chunk_size)
    if n < 1:
        raise ConfigError(f"n_subcarriers must be >= 1, got {n}")
    if l < 1 or l > n:
        raise ConfigError(f"chunk_size must be in [1, {n}], got {l}")
    m = n // l
    starts = tuple(i * l for i in range(m))
    stops = tuple(list(starts[1:]) + [n])  # last chunk extends to N
    return ChunkGrid(n_subcarriers=n, chunk_size=l, starts=starts, stops=stops)


@dataclass(frozen=True)
class Assignment:
    """A chunk-to-user map: owners[m] is the user holding chunk m.

    ``subcarrier_owners[n]`` is the user holding subcarrier n.  It is
    derived from ``owners`` and the grid once, at construction, and
    takes no part in equality, hashing or repr.
    """

    grid: ChunkGrid
    owners: tuple[int, ...]
    n_users: int
    subcarrier_owners: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.owners) != self.grid.n_chunks:
            raise ConfigError(
                f"{len(self.owners)} owners given for {self.grid.n_chunks} chunks"
            )
        if min(self.owners) < 0 or max(self.owners) >= self.n_users:
            raise ConfigError(f"chunk owners must lie in [0, {self.n_users - 1}]")
        per_subcarrier = np.repeat(self.owners, self.grid.chunk_sizes())
        per_subcarrier.flags.writeable = False
        object.__setattr__(self, "subcarrier_owners", per_subcarrier)

    def chunks_of(self, user: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.owners) == user)

    def subcarriers_of(self, user: int) -> np.ndarray:
        return np.flatnonzero(self.subcarrier_owners == user)

    def subcarrier_counts(self) -> np.ndarray:
        return np.bincount(self.subcarrier_owners, minlength=self.n_users)

    def indicator(self) -> np.ndarray:
        """(K, M) 0/1 matrix; each column sums to one."""
        return (np.arange(self.n_users)[:, None] == np.asarray(self.owners)).astype(int)

    def to_record(self) -> str:
        """Plain-text record, one line per user: 'user <k>: <sorted 1-based chunks>'."""
        lines = []
        for k in range(self.n_users):
            chunks = " ".join(str(m + 1) for m in self.chunks_of(k))
            lines.append(f"user {k + 1}: {chunks}".rstrip())
        return "\n".join(lines) + "\n"


@dataclass
class ComparisonCount:
    """Comparison tallies for the selection scans of a greedy assignment run.

    Every arg-max / arg-min over s candidates is counted under two
    conventions: ``scanned`` adds s (one comparison per candidate
    examined) and ``strict`` adds s - 1 (comparisons beyond the first).
    The tallies depend only on (K, M) and the phase-one order, so the
    schemes compute them in closed form.
    """

    phase1_argmax_scanned: int = 0
    phase1_argmax_strict: int = 0
    phase1_argmin_scanned: int = 0
    phase1_argmin_strict: int = 0
    phase2_argmax_scanned: int = 0
    phase2_argmax_strict: int = 0
    phase2_argmin_scanned: int = 0
    phase2_argmin_strict: int = 0

    @property
    def total_scanned(self) -> int:
        return (
            self.phase1_argmax_scanned
            + self.phase1_argmin_scanned
            + self.phase2_argmax_scanned
            + self.phase2_argmin_scanned
        )

    @property
    def total_strict(self) -> int:
        return (
            self.phase1_argmax_strict
            + self.phase1_argmin_strict
            + self.phase2_argmax_strict
            + self.phase2_argmin_strict
        )


def chunk_rates(
    gains: np.ndarray,
    grid: ChunkGrid,
    power_per_subcarrier: float,
    n_total: int | None = None,
) -> np.ndarray:
    """Per-chunk achievable rates under equal per-subcarrier power.

    Parameters
    ----------
    gains : (K, N) or (N,) array
        Gain-to-noise ratios (or any x with rate log2(1 + p*x)).
    grid : ChunkGrid
        Chunk layout over the N columns of ``gains``.
    power_per_subcarrier : float
        Power p loaded on every subcarrier, >= 0.
    n_total : int, optional
        Normalising subcarrier count for the 1/N factor.  Defaults to
        the grid's own size; band-local grids pass the full system N.

    Returns
    -------
    (K, M) array of rates in bits/s/Hz.
    """
    if power_per_subcarrier < 0:
        raise ConfigError(f"power must be >= 0, got {power_per_subcarrier}")
    gains = np.atleast_2d(np.asarray(gains, dtype=float))
    if gains.shape[1] != grid.n_subcarriers:
        raise ConfigError(
            f"gain table has {gains.shape[1]} columns, grid expects {grid.n_subcarriers}"
        )
    n_norm = grid.n_subcarriers if n_total is None else int(n_total)
    per_sc = np.log2(1.0 + power_per_subcarrier * gains)
    # Chunks 0..M-2 are full; the last one absorbs the N mod L leftovers.
    # Both sums run along the contiguous last axis, so each chunk is
    # summed in the same order as its slice alone would be.
    k, l, m = gains.shape[0], grid.chunk_size, grid.n_chunks
    table = np.empty((k, m))
    table[:, :-1] = per_sc[:, : (m - 1) * l].reshape(k, m - 1, l).sum(axis=2)
    table[:, -1] = per_sc[:, (m - 1) * l :].sum(axis=1)
    return table / n_norm


def normalized_rates(rate_table: np.ndarray) -> np.ndarray:
    """Rates divided by the per-chunk mean rate over users.

    Each column of the result has mean one.  A chunk where every user
    has zero rate carries no preference information and maps to the
    neutral value 1 for all users.
    """
    rates = np.asarray(rate_table, dtype=float)
    means = rates.mean(axis=0)
    out = np.ones_like(rates)
    ok = means > 0
    out[:, ok] = rates[:, ok] / means[ok]
    return out


def _comparison_count(
    n_users: int, n_chunks: int, least_favoured_first: bool
) -> ComparisonCount:
    """Comparison counts of a greedy run; they depend on (K, M) only.

    With j users still pending in phase 1 (j = K, ..., 1), M - K + j
    chunks remain.  Least-favoured-first scans them once per pending
    user and then the j pending users for the winner; the serial order
    scans them once.  Phase 2 runs T = M - K steps; with r chunks left
    (r = T, ..., 1) it scans all K users, then the r chunks.
    """
    k, t = n_users, n_chunks - n_users
    tri_k = k * (k + 1) // 2  # sum of j, j = 1..K
    tri_t = t * (t + 1) // 2  # sum of r, r = 1..T
    if least_favoured_first:
        phase1_max = t * tri_k + k * (k + 1) * (2 * k + 1) // 6  # sum of j * (T + j)
        phase1_max_strict = phase1_max - tri_k
        phase1_min, phase1_min_strict = tri_k, tri_k - k
    else:
        phase1_max = k * t + tri_k  # sum of T + j
        phase1_max_strict = phase1_max - k
        phase1_min = phase1_min_strict = 0
    return ComparisonCount(
        phase1_argmax_scanned=phase1_max,
        phase1_argmax_strict=phase1_max_strict,
        phase1_argmin_scanned=phase1_min,
        phase1_argmin_strict=phase1_min_strict,
        phase2_argmax_scanned=tri_t,
        phase2_argmax_strict=tri_t - t,
        phase2_argmin_scanned=t * k,
        phase2_argmin_strict=t * (k - 1),
    )


def _greedy_sa(
    scores: np.ndarray,
    rates: np.ndarray,
    weights: np.ndarray,
    grid: ChunkGrid,
    least_favoured_first: bool,
) -> tuple[Assignment, ComparisonCount]:
    """Two-phase greedy assignment shared by the proposed and Shen schemes.

    Chunks are ranked by ``scores`` while users accumulate raw
    ``rates``.  Phase 1 hands every user one chunk, either
    least-favoured user first or in user index order; phase 2 gives the
    user with the smallest accumulated weighted rate its best remaining
    chunk until none remain.  Taken chunks are masked to -inf, so an
    arg-max over a row sees only the remaining chunks; that needs a
    finite table, and finite rates give finite normalised rates.
    """
    weights = np.asarray(weights, dtype=float)
    n_users, n_chunks = rates.shape
    if n_chunks < n_users:
        raise InfeasibleError(f"need at least {n_users} chunks, grid has {n_chunks}")
    if np.any(weights <= 0):
        raise ConfigError("rate weights must be positive")
    if not np.all(np.isfinite(rates)):
        raise ConfigError("rate table must be finite")
    scores = np.array(scores, dtype=float)  # private copy: taken chunks get masked
    owners = np.empty(n_chunks, dtype=int)
    acc = np.zeros(n_users)

    def take(k: int, m: int) -> None:
        owners[m] = k
        acc[k] += rates[k, m]
        scores[:, m] = -np.inf

    if least_favoured_first:
        # Every pending user registers its best chunk; the one whose
        # registered score over its weight is smallest takes it.
        pending = np.arange(n_users)
        while pending.size:
            best = scores[pending].argmax(axis=1)
            i = int((scores[pending, best] / weights[pending]).argmin())
            take(int(pending[i]), int(best[i]))
            pending = np.delete(pending, i)
    else:
        for k in range(n_users):
            take(k, int(scores[k].argmax()))
    for _ in range(n_chunks - n_users):
        k = int((acc / weights).argmin())
        take(k, int(scores[k].argmax()))

    assignment = Assignment(grid=grid, owners=tuple(owners.tolist()), n_users=n_users)
    return assignment, _comparison_count(n_users, n_chunks, least_favoured_first)


def proposed_sa(
    rate_table: np.ndarray,
    weights: np.ndarray,
    grid: ChunkGrid,
) -> tuple[Assignment, ComparisonCount]:
    """Two-phase chunk assignment driven by normalised rates.

    Phase 1 hands every user exactly one chunk: each pending user
    registers its best remaining chunk by normalised rate, and the user
    whose registered normalised rate divided by its weight is smallest
    wins its chunk first.  Phase 2 repeatedly gives the user with the
    smallest accumulated weighted rate its best remaining chunk by
    normalised rate, until no chunks remain.

    Returns the assignment together with the comparison counts of all
    selection scans.
    """
    rates = np.asarray(rate_table, dtype=float)
    return _greedy_sa(normalized_rates(rates), rates, weights, grid, least_favoured_first=True)


def shen_sa(
    rate_table: np.ndarray,
    weights: np.ndarray,
    grid: ChunkGrid,
) -> tuple[Assignment, ComparisonCount]:
    """Serial-order baseline assignment driven by raw rates.

    Phase 1 walks users in fixed index order; each takes its best
    remaining chunk by rate, so the first user always gets the globally
    best pick.  Phase 2 matches the proposed scheme's loop but selects
    chunks by raw rate instead of normalised rate.  With chunk size one
    this is the classic single-subcarrier scheme; larger chunks use the
    chunk-average rate.
    """
    rates = np.asarray(rate_table, dtype=float)
    return _greedy_sa(rates, rates, weights, grid, least_favoured_first=False)


def static_sa(n_users: int, grid: ChunkGrid) -> Assignment:
    """Channel-independent round-robin: chunk m goes to user m mod K."""
    if grid.n_chunks < n_users:
        raise InfeasibleError(f"need at least {n_users} chunks, grid has {grid.n_chunks}")
    owners = tuple(m % n_users for m in range(grid.n_chunks))
    return Assignment(grid=grid, owners=owners, n_users=n_users)


def run_sa(
    scheme: str,
    rate_table: np.ndarray,
    weights: np.ndarray,
    grid: ChunkGrid,
) -> Assignment:
    """Dispatch an assignment scheme by name; counters are discarded."""
    if scheme == "proposed":
        return proposed_sa(rate_table, weights, grid)[0]
    if scheme == "shen":
        return shen_sa(rate_table, weights, grid)[0]
    if scheme == "static":
        return static_sa(len(weights), grid)
    raise ConfigError(f"unknown SA scheme {scheme!r}")


@dataclass(frozen=True)
class OracleResult:
    assignment: Assignment
    sum_rate: float
    deviation: float
    rates: np.ndarray
    candidates: int = 0


def exhaustive_sa_oracle(
    weights: np.ndarray,
    grid: ChunkGrid,
    pa_solver,
    cap: int = 1_000_000,
) -> OracleResult:
    """Best assignment by brute force, for small instances only.

    Enumerates every chunk-to-user map that covers all users (each user
    holds at least one chunk), evaluates the supplied power allocation
    on each, and returns the candidate with the largest sum rate.  Ties
    break first toward the smallest rate-constraint deviation, then
    toward the lexicographically smallest owner vector.

    Parameters
    ----------
    weights : (K,) array
        Requested-rate weights, used for the deviation tie-break.
    grid : ChunkGrid
    pa_solver : callable
        Maps an Assignment to the (K,) vector of achieved user rates.
    cap : int
        Upper bound on K**M candidate maps before enumeration starts.
    """
    weights = np.asarray(weights, dtype=float)
    n_users = weights.size
    n_chunks = grid.n_chunks
    if n_chunks < n_users:
        raise InfeasibleError(f"need at least {n_users} chunks, grid has {n_chunks}")
    total = n_users**n_chunks
    if total > cap:
        raise OracleSizeError(
            f"{n_users}**{n_chunks} = {total} candidates exceeds cap {cap}"
        )

    best = None
    examined = 0
    for owners in itertools.product(range(n_users), repeat=n_chunks):
        if len(set(owners)) < n_users:
            continue
        examined += 1
        cand = Assignment(grid=grid, owners=owners, n_users=n_users)
        rates = np.asarray(pa_solver(cand), dtype=float)
        total_rate = float(rates.sum())
        if n_users >= 2 and total_rate > 0:
            dev = deviation(rates, weights)
        else:
            dev = 0.0
        key = (-total_rate, dev, owners)
        if best is None or key < best[0]:
            best = (key, cand, rates)
    (_, cand, rates) = best
    return OracleResult(
        assignment=cand,
        sum_rate=float(rates.sum()),
        deviation=best[0][1],
        rates=rates,
        candidates=examined,
    )
