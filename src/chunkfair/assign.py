"""Chunk grids, per-chunk rate tables, and subcarrier-assignment schemes.

All assignment schemes operate on a (K, M) table of per-chunk rates
computed under uniform power, partition the M chunks among the K users,
and never see the power-allocation stage.  Ties in every arg-max /
arg-min scan break toward the lowest index so runs are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationError, ConfigError, InfeasibleError, OracleSizeError, UndefinedMetricError
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
    """Partition of N subcarriers into M = N // L chunks, for 1 <= L <= N.

    Chunk m starts at subcarrier m * L and holds L subcarriers; the last
    chunk also absorbs the N mod L leftovers.
    """

    n_subcarriers: int
    chunk_size: int
    _sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, l = self.n_subcarriers, self.chunk_size
        if n < 1:
            raise ConfigError(f"n_subcarriers must be >= 1, got {n}")
        if not 1 <= l <= n:
            raise ConfigError(f"chunk_size must be in [1, {n}], got {l}")
        sizes = np.full(n // l, l)
        sizes[-1] += n % l
        sizes.flags.writeable = False
        object.__setattr__(self, "_sizes", sizes)

    @property
    def n_chunks(self) -> int:
        return self.n_subcarriers // self.chunk_size

    def chunk_sizes(self) -> np.ndarray:
        """Subcarriers per chunk, (M,); read-only, built once at construction."""
        return self._sizes

    def per_subcarrier(self, owners) -> np.ndarray:
        """Per-chunk owners along the last axis expanded to subcarriers: (..., M) to (..., N)."""
        owners = np.asarray(owners)
        return np.repeat(owners, self._sizes, axis=-1) if self.chunk_size > 1 else owners


def build_grid(n_subcarriers: int, chunk_size: int) -> ChunkGrid:
    """Build the chunk grid for N subcarriers and chunk size L.

    Raises ConfigError unless 1 <= L <= N.
    """
    return ChunkGrid(n_subcarriers=int(n_subcarriers), chunk_size=int(chunk_size))


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
        per_subcarrier = self.grid.per_subcarrier(self.owners)
        per_subcarrier.flags.writeable = False
        object.__setattr__(self, "subcarrier_owners", per_subcarrier)

    def subcarrier_counts(self) -> np.ndarray:
        return np.bincount(self.subcarrier_owners, minlength=self.n_users)


@dataclass(frozen=True)
class ComparisonCount:
    """Comparison tallies for the selection scans of a greedy assignment run.

    Every arg-max / arg-min over s candidates is counted under two
    conventions: ``scanned`` adds s (one comparison per candidate
    examined) and ``strict`` adds s - 1 (comparisons beyond the first).
    The tallies depend only on (K, M) and the phase-one order, so the
    schemes compute them in closed form, once per (K, M, order).
    """

    phase1_argmax_scanned: int = 0
    phase1_argmax_strict: int = 0
    phase1_argmin_scanned: int = 0
    phase1_argmin_strict: int = 0
    phase2_argmax_scanned: int = 0
    phase2_argmax_strict: int = 0
    phase2_argmin_scanned: int = 0
    phase2_argmin_strict: int = 0


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
    if grid.chunk_size == 1:
        return per_sc / n_norm  # one subcarrier per chunk: its sum is itself
    # Full chunks are summed as one reshape, the last (longer) one alone;
    # both sums run along the contiguous last axis, so each chunk is
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
    return np.divide(rates, means, out=np.ones_like(rates), where=means > 0)


def _rate_weights(weights, n_users: int) -> list[float]:
    """The rate weights as plain floats; ConfigError unless one positive finite weight per user."""
    try:
        values = np.asarray(weights, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, or an int past float range
        raise ConfigError(f"need {n_users} positive finite rate weights, got {weights!r}") from None
    listed = values.tolist()
    if values.shape != (n_users,) or not all(0.0 < w < math.inf for w in listed):
        raise ConfigError(f"need {n_users} positive finite rate weights, got {values}")
    return listed


def _check_chunk_count(n_users: int, n_chunks: int) -> None:
    """ConfigError unless K >= 1; InfeasibleError unless there is a chunk for every user."""
    if n_users < 1:
        raise ConfigError(f"need at least one user, got {n_users}")
    if n_chunks < n_users:
        raise InfeasibleError(f"need at least {n_users} chunks, grid has {n_chunks}")


@functools.lru_cache(maxsize=None)
def _comparison_count(
    n_users: int, n_chunks: int, least_favoured_first: bool
) -> ComparisonCount:
    """Comparison counts of a greedy run; they depend on (K, M) only.

    Memoised: the result is frozen, so every run of one (K, M, order)
    shares it.

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
) -> Assignment:
    """Two-phase greedy assignment shared by the proposed and Shen schemes.

    Chunks are ranked by ``scores`` while users accumulate raw
    ``rates``.  Phase 1 hands every user one chunk, either
    least-favoured user first or in user index order; phase 2 gives the
    user with the smallest accumulated weighted rate its best remaining
    chunk until none remain.

    The loops run on plain Python lists.  Each user's chunks are sorted
    once by descending score (a stable sort, so ties keep the lowest
    index first, as an arg-max does) and a per-user pointer skips the
    chunks already taken.  The weighted rates ``acc[k] / w[k]`` are kept
    in a list, and only the taker's entry is recomputed after a take;
    ``ratio.index(min(ratio))`` is the first minimum, as an arg-min is.
    Every float operation matches the array form: sequential adds into
    ``acc``, then one division.  Neither input array is modified.
    """
    if rates.ndim != 2 or rates.shape[1] != grid.n_chunks:
        raise ConfigError(f"rate table must be (K, {grid.n_chunks}), got shape {rates.shape}")
    n_users, n_chunks = rates.shape
    w = _rate_weights(weights, n_users)
    _check_chunk_count(n_users, n_chunks)
    if not np.isfinite(rates).all():
        raise ConfigError("rate table must be finite")
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(-scores, axis=1, kind="stable").tolist()
    rate_rows = rates.tolist()
    pointer = [0] * n_users
    taken = [False] * n_chunks
    owners = [0] * n_chunks
    acc = [0.0] * n_users

    def best(k: int) -> int:
        """User k's best remaining chunk; advances its pointer past taken ones."""
        row, p = order[k], pointer[k]
        while taken[row[p]]:
            p += 1
        pointer[k] = p
        return row[p]

    def take(k: int, m: int) -> None:
        owners[m] = k
        taken[m] = True
        acc[k] += rate_rows[k][m]

    if least_favoured_first:
        # Every pending user registers its best chunk; the one whose
        # registered score over its weight is smallest takes it.
        pending = list(range(n_users))
        while pending:
            picks = [best(k) for k in pending]
            values = [scores.item(k, m) / w[k] for k, m in zip(pending, picks)]
            i = values.index(min(values))
            take(pending.pop(i), picks[i])
    else:
        for k in range(n_users):
            take(k, best(k))
    ratio = [a / wk for a, wk in zip(acc, w)]
    for _ in range(n_chunks - n_users):
        # best() and take() inlined: this loop runs M - K times.
        k = ratio.index(min(ratio))
        row, p = order[k], pointer[k]
        while taken[row[p]]:
            p += 1
        m = row[p]
        pointer[k] = p + 1
        owners[m] = k
        taken[m] = True
        acc[k] += rate_rows[k][m]
        ratio[k] = acc[k] / w[k]

    return Assignment(grid=grid, owners=tuple(owners), n_users=n_users)


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
    assignment = _greedy_sa(normalized_rates(rates), rates, weights, grid, least_favoured_first=True)
    return assignment, _comparison_count(*rates.shape, True)


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
    assignment = _greedy_sa(rates, rates, weights, grid, least_favoured_first=False)
    return assignment, _comparison_count(*rates.shape, False)


def static_sa(n_users: int, grid: ChunkGrid) -> Assignment:
    """Channel-independent round-robin: chunk m goes to user m mod K."""
    _check_chunk_count(n_users, grid.n_chunks)
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
        _rate_weights(weights, len(rate_table))
        return static_sa(len(rate_table), grid)
    raise ConfigError(f"unknown SA scheme {scheme!r}")


@dataclass(frozen=True)
class OracleResult:
    assignment: Assignment
    sum_rate: float
    deviation: float
    rates: np.ndarray
    candidates: int = 0
    solved: int = 0


# Most candidate maps the exhaustive oracle enumerates; each is bounded, and
# only those whose bound does not rule them out are solved by the PA.
ORACLE_CAP = 1_000_000
# Owner entries (maps x subcarriers) per block of candidates the oracle bounds at once.
_BOUND_BLOCK = 2**16


@functools.lru_cache(maxsize=2)
def _covering_rows(n_users: int, n_chunks: int) -> np.ndarray:
    """Every map of M chunks to K users that covers all users: read-only (C, M) uint8 rows.

    Maps are enumerated as base-K numbers, most significant chunk first,
    which is ``itertools.product``'s order, ``_BOUND_BLOCK`` owner
    entries at a time, and each block's covering rows are written into
    the output, whose length C is known in closed form.  One byte per
    owner entry: every K that ``ORACLE_CAP`` admits fits.  The rows
    depend on (K, M) only, so every search of a sweep point, and of the
    sweep's other points and trials, shares them.  They are memoised
    for the last two (K, M), which bounds what the memo holds to about
    twice the largest search's rows, and read-only, so no caller can
    change them for the next.
    """
    count = sum((-1) ** j * math.comb(n_users, j) * (n_users - j) ** n_chunks for j in range(n_users + 1))
    rows = np.empty((count, n_chunks), dtype=np.uint8)
    place = n_users ** np.arange(n_chunks - 1, -1, -1)
    step = max(1, _BOUND_BLOCK // n_chunks)
    filled = 0
    for start in range(0, n_users**n_chunks, step):
        owners = np.arange(start, min(start + step, n_users**n_chunks))[:, None] // place % n_users
        owners = owners[np.all([(owners == k).any(axis=1) for k in range(n_users)], axis=0)]
        rows[filled : filled + len(owners)] = owners
        filled += len(owners)
    rows.flags.writeable = False
    return rows


def _visit_order(n_users: int, grid: ChunkGrid, upper_bound) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every covering map's owner row and bound, and the order that visits them by descending bound.

    The rows are ``_covering_rows``, in enumeration order; they are
    bounded in blocks of ``_BOUND_BLOCK`` owner entries (maps x
    subcarriers), each block a read-only view of them.  Without
    ``upper_bound`` every bound is +inf.  A NaN bound reads as +inf, so
    it is visited first and never skips.  The sort is stable: equal
    bounds keep the enumeration order.  Returns the (C, M) rows and
    their (C,) bounds, both in enumeration order, and the (C,) visit
    order, which indexes them in place.
    """
    rows = _covering_rows(n_users, grid.n_chunks)
    if upper_bound is None:
        bounds = np.full(len(rows), math.inf)
    else:
        step = max(1, _BOUND_BLOCK // grid.n_subcarriers)
        blocks = []
        for start in range(0, len(rows), step):
            owners = rows[start : start + step]
            block = np.asarray(upper_bound(owners), dtype=float)
            if block.shape != (len(owners),):
                raise ConfigError(f"upper_bound returned shape {block.shape} for "
                                  f"{len(owners)} maps")
            blocks.append(block)
        bounds = np.concatenate(blocks)
    bounds[np.isnan(bounds)] = math.inf
    return rows, bounds, np.argsort(-bounds, kind="stable")


def exhaustive_sa_oracle(
    weights: np.ndarray,
    grid: ChunkGrid,
    pa_solver,
    upper_bound=None,
) -> OracleResult:
    """Best assignment by brute force, for small instances only.

    Enumerates every chunk-to-user map that covers all users (each user
    holds at least one chunk), evaluates the supplied power allocation
    on each, and returns the candidate with the largest sum rate; more
    than ``ORACLE_CAP`` maps (K**M) raise OracleSizeError first.  Ties
    break first toward the smallest rate-constraint deviation, then
    toward the lexicographically smallest owner vector.  Only a
    candidate whose sum rate is at least the best so far can win, so
    only those get their deviation computed; a NaN sum rate never wins,
    and if every candidate has one the search raises AllocationError.

    Candidates are visited in descending ``upper_bound`` order (all
    bounds are +inf without one, which is enumeration order), and the
    search stops at the first bound below the best sum rate so far:
    that candidate and every later one have a sum rate below the best,
    so none can win.  The key (-sum rate, deviation, owners) is a total
    order, so the winner and every field of the result but ``solved``
    are those of the full search; ``candidates`` counts every covering
    map and ``solved`` the maps handed to ``pa_solver``.  A candidate
    that is not visited is not solved, so its PA error, if it has one,
    is never raised; one that is visited raises as before.  A visited
    candidate whose sum rate exceeds its bound raises AllocationError,
    since the bound could then have skipped a winner.

    Only the bounds at or above the winning sum rate steer the search,
    which lets a bound skip work on the rest (``power.sum_rate_bound``'s
    ``floor``).  Let H be a covering map whose sum rate S0 under
    ``pa_solver`` is known, and change any bound below S0 to another
    value below S0.  H's bound is at least S0, so H is visited before
    every map whose bound is below S0, and once H is visited the best
    sum rate is at least S0, so the search stops at or before the first
    such map.  The maps at or above S0 keep their bounds, and the stable
    sort their order, so the visits, ``solved``, ``candidates``, every
    PA error raised and the result are unchanged.

    Parameters
    ----------
    weights : (K,) array
        One positive finite rate weight per user (K is their count), for the deviation tie-break.
    grid : ChunkGrid
    pa_solver : callable
        Maps an Assignment to the (K,) vector of achieved user rates.
    upper_bound : callable, optional
        Maps a read-only (C, M) uint8 array of owner rows to (C,) values
        that no sum rate ``pa_solver`` returns for those maps exceeds,
        such as ``power.sum_rate_bound``; a NaN bound rules nothing out.
    """
    weights = _rate_weights(weights, np.size(weights))
    n_users, n_chunks = len(weights), grid.n_chunks
    _check_chunk_count(n_users, n_chunks)
    total = n_users**n_chunks
    if total > ORACLE_CAP:
        raise OracleSizeError(
            f"{n_users}**{n_chunks} = {total} candidates exceeds cap {ORACLE_CAP}"
        )

    rows, bounds, order = _visit_order(n_users, grid, upper_bound)
    best = None
    solved = 0
    for i in order:
        bound = bounds.item(i)
        if best is not None and bound < -best[0][0]:
            break  # visits run in descending bound order: no later candidate can win
        solved += 1
        owners = tuple(rows[i].tolist())
        cand = Assignment(grid=grid, owners=owners, n_users=n_users)
        rates = np.asarray(pa_solver(cand), dtype=float)
        total_rate = float(rates.sum())
        if total_rate > bound:
            raise AllocationError(
                f"sum rate {total_rate!r} of {owners} exceeds its upper bound {bound!r}"
            )
        if math.isnan(total_rate) or (best is not None and total_rate < -best[0][0]):
            continue  # a NaN or lower sum rate cannot win, whatever its deviation
        try:
            dev = deviation(rates, weights)
        except UndefinedMetricError:  # one user or a zero sum rate: no share to miss
            dev = 0.0
        key = (-total_rate, dev, owners)
        if best is None or key < best[0]:
            best = (key, cand, rates)
    if best is None:
        raise AllocationError(f"all {len(rows)} candidate assignments have a NaN sum rate")
    (_, cand, rates) = best
    return OracleResult(
        assignment=cand,
        sum_rate=float(rates.sum()),
        deviation=best[0][1],
        rates=rates,
        candidates=len(rows),
        solved=solved,
    )
