"""Power allocation for a fixed chunk assignment.

The main scheme splits the total power into per-user budgets by solving
the linear system obtained from the low-SNR approximation
log2(1 + x) ~ x * log2(e) of the proportional-rate constraint, repairs
any negative budgets by averaging over the worst-off users, and then
water-fills every user's budget across its own subcarriers.  A uniform
allocator and an exact nonlinear solver (bisection on the common
weighted-rate level) are provided for comparison and verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assign import Assignment, ChunkGrid, _rate_weights
from .errors import AllocationError, ConfigError, InfeasibleError, OracleConvergenceError
from .metrics import _PAIRWISE_FROM, _total

__all__ = [
    "OrderedGains",
    "PowerAllocation",
    "linear_coefficients",
    "solve_power_split",
    "repair_negative_budgets",
    "prune_and_waterfill",
    "proposed_pa",
    "uniform_pa",
    "exact_pa_oracle",
    "user_rates",
    "sum_rate_bound",
]

# exact_pa_oracle's stopping rule: the budgets must sum to the total power
# within this relative tolerance, in at most this many bracket doublings
# and bisection steps per prune pass.
_ORACLE_REL_TOL = 1e-12
_ORACLE_MAX_DOUBLINGS = 200
_ORACLE_MAX_BISECTIONS = 200
# prune_and_waterfill's certified start: the relative margin per gain,
# and the smallest g_min**2 its range guard admits (the least normal float).
_START_SLACK = 8.0 * 2.0**-52
_TINY = float(np.finfo(float).tiny)
# _check_allocation's relative tolerance on the total power.
_POWER_REL_TOL = 1e-9
# sum_rate_bound's price updates under rate weights, chosen by measurement
# (see README): how many, the exponents each tries on its step, and the
# most a step multiplies a price by.
_DUAL_UPDATES = 2
_DUAL_EXPONENTS = np.array([0.125, 0.5, 1.0])
_DUAL_STEP_CAP = 2.0**10


@dataclass(frozen=True)
class OrderedGains:
    """One user's active gains, sorted ascending, with their water-filling statistics.

    The set is non-empty and its weakest gain positive.  ``size`` and
    ``g_min`` are its length and weakest gain, ``v`` is the power
    consumed by equalising the water level across the set when the
    weakest subcarrier gets zero power, and ``e`` the sum of gains
    relative to the weakest.  Every field is set at construction:
    ``of`` builds one record, ``_for_spans`` every user's at once.
    """

    values: np.ndarray
    size: int
    g_min: float
    v: float
    e: float

    @classmethod
    def of(cls, values: np.ndarray) -> OrderedGains:
        """The record of the ascending gains ``values``.

        Raises InfeasibleError on an empty set and ConfigError on a
        non-positive weakest gain.
        """
        if values.size == 0:
            raise InfeasibleError("user has no subcarriers")
        if not values[0] > 0:
            raise ConfigError("active set needs a positive weakest gain")
        g_min = float(values[0])
        return cls(values, values.size, g_min, _waterfill_v(values), float((values / g_min).sum()))

    @classmethod
    def _for_spans(cls, g, owners, bounds) -> tuple[list[OrderedGains], np.ndarray]:
        """Every user's record from ``_sorted_gains``, and every gain's water-filling term.

        User k's record holds ``g[bounds[k]:bounds[k + 1]]``; no span may
        be empty.  The terms (``_waterfill_terms`` against the owner's
        g_min) and the ratios g / g_min are computed once for all gains,
        and each record's v and e are sums over its own slice of them,
        equal to the fields ``of`` computes.
        """
        g_min = g[bounds[:-1]]
        base = g_min[owners]
        terms = _waterfill_terms(g, base)
        ratios = g / base
        bounds = bounds.tolist()
        records = [
            cls(g[lo:hi], hi - lo, g0, float(terms[lo + 1 : hi].sum()), float(ratios[lo:hi].sum()))
            for lo, hi, g0 in zip(bounds, bounds[1:], g_min.tolist())
        ]
        return records, terms


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user budgets and per-subcarrier powers for one assignment."""

    budgets: np.ndarray       # (K,)
    powers: np.ndarray        # (K, N)
    repaired: np.ndarray      # (K,) bool, touched by the negative-budget repair
    pruned: np.ndarray        # (K,) int, subcarriers zeroed by the budget loop
    # Always False: the split has no fallback.  Kept only for perfbench's tracer, which reads it.
    singular_fallback: bool = False


def linear_coefficients(ordered: list[OrderedGains], weights) -> tuple[list[float], list[float]]:
    """Row parameters (alpha_k, beta_k) of the linearised budget system, as lists of floats.

    Row k (k = 2..K) reads P_1 + alpha_k * P_k = beta_k and encodes that
    user k's linearised rate over its weight equals user 1's.  Entry 0
    of each returned list corresponds to user 2.  The weights need one
    positive finite entry per record (``_rate_weights``), so every
    alpha_k is negative, or -0.0, -inf or NaN under over- and underflow.
    """
    weights = _rate_weights(weights, len(ordered))
    c1 = ordered[0]
    alphas, betas = [], []
    for ck, wk in zip(ordered[1:], weights[1:]):
        wr = weights[0] / wk
        alpha = -wr * (ck.e * c1.size * ck.g_min) / (c1.e * ck.size * c1.g_min)
        alphas.append(alpha)
        betas.append(
            wr * ck.e * c1.size / (c1.e * c1.g_min)
            - wr * c1.size * ck.size / (c1.e * c1.g_min)
            + alpha * ck.v
            + (c1.size / c1.g_min) * (c1.size / c1.e - 1.0)
            + c1.v
        )
    return alphas, betas


def solve_power_split(alphas: list[float], betas: list[float], total_power: float) -> list[float]:
    """Closed-form solution of the budget system, as a list of floats.

    P_1 = (P_T - sum(beta/alpha)) / (1 - sum(1/alpha)) and
    P_k = (beta_k - P_1) / alpha_k.  With one user both sums are empty
    and P_1 is the total power.  Every alpha from ``linear_coefficients``
    is at most 0 or NaN, so 1 - sum(1/alpha) is at least 1, or +-inf or
    NaN, and never 0; a positive alpha raises ConfigError.  The budgets
    equal the same formulas on numpy arrays bit for bit: sums go through
    ``_total``, and 1 / (+-0.0) is +-inf.
    """
    if any(a > 0 for a in alphas):
        raise ConfigError(f"budget system needs non-positive alphas, got {alphas}")
    inv = [1.0 / a if a else math.copysign(math.inf, a) for a in alphas]
    p1 = (total_power - _total([b * x for b, x in zip(betas, inv)])) / (1.0 - _total(inv))
    return [p1] + [(b - p1) * x for b, x in zip(betas, inv)]


def repair_negative_budgets(budgets) -> tuple[list[float], np.ndarray]:
    """Average the worst-off budgets until no budget is negative.

    If any budget is negative (or NaN), budgets are sorted ascending
    (ties by user index, NaN last) and the group grows from the smallest
    until its partial sum is non-negative; every group member then
    receives the group average.  Rounding can leave every sorted partial
    sum negative while the total is not; the group is then every user,
    sharing the total.  Returns (budgets as a list of floats,
    group_mask); the total is preserved.  A negative total cannot be
    repaired and raises AllocationError: the split gives one only
    through float cancellation, at very low SNR.  Runs in plain floats,
    totals summed in numpy's order (``_total``).
    """
    budgets = list(map(float, budgets))
    mask = np.zeros(len(budgets), dtype=bool)
    if all(b >= 0 for b in budgets):
        return budgets, mask
    total = _total(budgets)
    if total < 0:
        raise AllocationError("total budget must be non-negative for repair")
    users = range(len(budgets))
    order = sorted((k for k in users if budgets[k] == budgets[k]), key=budgets.__getitem__)
    order += [k for k in users if budgets[k] != budgets[k]]
    partial = budgets[order[0]]
    count = 1
    while partial < 0:
        if count == len(budgets):
            partial = total
            break
        partial += budgets[order[count]]
        count += 1
    for k in order[:count]:
        budgets[k] = partial / count
        mask[k] = True
    return budgets, mask


def _waterfill_terms(g, g0):
    """Power that lifts a subcarrier of gain ``g`` from the water level of gain ``g0`` to its own."""
    return (g - g0) / (g * g0)


def _waterfill_v(g: np.ndarray) -> float:
    """Power that lifts every gain of the ascending ``g`` to the weakest one's water level."""
    return float(_waterfill_terms(g[1:], g[0]).sum())


def _water_level(budget: float, v: float, size: int) -> float:
    """Power on the weakest of ``size`` active subcarriers when a budget is water-filled over them."""
    return (budget - v) / size


def _waterfill(budget: float, v: float, g: np.ndarray) -> np.ndarray:
    """Powers of a budget water-filled over the ascending active gains ``g`` with their ``v``."""
    return _water_level(budget, v, g.size) + _waterfill_terms(g, g[0])


def _first_doubtful_start(budget: float, g: np.ndarray) -> int:
    """First start s >= 1 at which ``budget >= _waterfill_v(g[s:])`` is not certified false.

    Every v(s) = (n - s) / g_s - sum_{i >= s} 1 / g_i at once, each term
    less its margin; see ``prune_and_waterfill``.
    """
    lo, hi = float(g[0]), float(g[-1])
    if not (lo * lo >= _TINY and hi * hi < math.inf):
        return 1
    slack = _START_SLACK * g.size
    r = 1.0 / g
    tail = r[::-1].cumsum()[::-1]  # sum_{i >= s} 1 / g_i
    head = np.arange(g.size, 0, -1) * r  # (n - s) / g_s
    certified = head * (1.0 - slack) - tail * (1.0 + slack) > budget
    return max(int(certified.argmin()), 1)


def prune_and_waterfill(
    budget: float,
    ordered: OrderedGains,
) -> tuple[np.ndarray, int]:
    """Water-fill one user's budget over its ordered gains.

    While the budget cannot keep the weakest active subcarrier at
    non-negative power (``budget >= v`` fails), that subcarrier is
    dropped.  The remaining set gets p_(1) = (budget - v) / n on the
    weakest and the water-level increments (g_(n) - g_(1)) / (g_(n) g_(1))
    on the rest.

    The first prune jumps over every start that a certificate rules out
    (``_first_doubtful_start``), so the exact ``v`` is summed about once
    per pruned user instead of once per dropped subcarrier.  Over the
    suffix from s, v(s) = (n - s - 1) / g_s - sum_{i > s} 1 / g_i; both
    the float ``_waterfill_v(g[s:])`` and the suffix-sum estimate of it
    stray from v(s) by about (n + 1) * 2**-53 * A(s) at most, where
    A(s) = (n - s) / g_s + sum_{i >= s} 1 / g_i, since each term and sum
    rounds once per operation and every term is at most 1 / g_s + 1 / g_i
    in size.  A start whose estimate exceeds the budget by 8 n 2**-52
    A(s) therefore fails the exact test too.  The bound needs every
    product g_i g_s to be a normal float and every 1 / g_i finite; when
    g_min**2 underflows or g_max**2 overflows, no start is ruled out and
    the subcarriers are dropped one at a time.  From the first start in
    doubt on, each start gets the exact test, so the start, ``v`` and
    every power equal those of dropping one subcarrier at a time.

    Returns (powers aligned with ``ordered.values``, pruned_count);
    pruned subcarriers hold exactly zero.
    """
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    g = ordered.values
    powers = np.zeros(g.size)
    start = 0
    v = ordered.v
    while not (budget >= v or start == g.size - 1):
        # The weakest gains leave the active set: at first every start
        # certified to fail, then one at a time.
        start = _first_doubtful_start(budget, g) if start == 0 else start + 1
        v = _waterfill_v(g[start:])
    powers[start:] = _waterfill(budget, v, g[start:])
    return powers, start


def _sorted_gains(assignment: Assignment, gains):
    """Every user's positive gains in one stable sort: (g, subcarriers, owners, bounds).

    User k's gains are ``g[bounds[k]:bounds[k + 1]]``, ascending with
    ties toward the lower subcarrier index, as a stable sort of that
    user's gains alone would order them; ``subcarriers`` and ``owners``
    hold each gain's subcarrier and user.  Zero, negative and NaN gains
    are dropped; a user left with none raises InfeasibleError.  A gain
    table that is not (K, N) raises ConfigError.
    """
    gains = np.asarray(gains, dtype=float)
    shape = (assignment.n_users, assignment.grid.n_subcarriers)
    if gains.shape != shape:
        raise ConfigError(f"gains must be a {shape} table, got {gains.shape}")
    owner = assignment.subcarrier_owners  # per subcarrier
    g = gains[owner, np.arange(owner.size)]
    subcarriers = np.lexsort((g, owner))
    g = g[subcarriers]
    keep = g > 0
    if np.count_nonzero(keep) < keep.size:
        subcarriers, g = subcarriers[keep], g[keep]
    owners = owner[subcarriers]  # per sorted gain
    bounds = np.searchsorted(owners, np.arange(assignment.n_users + 1))
    starts = bounds.tolist()
    for k in range(assignment.n_users):
        if starts[k] == starts[k + 1]:
            raise InfeasibleError(f"user {k} has no positive-gain subcarrier")
    return g, subcarriers, owners, bounds


def _scatter(assignment: Assignment, owners, subcarriers, powers, total_power: float) -> np.ndarray:
    """The (K, N) allocation with ``powers`` at (``owners``, ``subcarriers``), checked by ``_check_allocation``."""
    out = np.zeros((assignment.n_users, assignment.grid.n_subcarriers))
    out[owners, subcarriers] = powers
    _check_allocation(out, total_power)
    return out


def proposed_pa(
    assignment: Assignment,
    gains: np.ndarray,
    weights: np.ndarray,
    total_power: float,
) -> PowerAllocation:
    """Linearised proportional-rate power allocation.

    Parameters
    ----------
    assignment : Assignment
        Chunk ownership; every user needs at least one positive-gain
        subcarrier.
    gains : (K, N) array
        Gain-to-noise ratios per user and subcarrier.
    weights : (K,) array
        Requested-rate weights.
    total_power : float
        Transmit power budget, conserved exactly across the result.

    Notes
    -----
    Among users untouched by both the negative-budget repair and the
    water-filling prune loop, the linearised weighted rates
    sum(p * G) / weight agree to first order by construction.

    All users are handled in one pass over the assignment's
    subcarriers: one sort orders every user's gains, and the records'
    statistics and water-filling terms are computed once for all of
    them (``OrderedGains._for_spans``).  A user whose budget covers its
    v keeps all its subcarriers and is water-filled with the others in
    one step; only the rest go through ``prune_and_waterfill``.  The
    budgets stay a list of plain floats until the result is built.
    """
    g, subcarriers, owners, bounds = _sorted_gains(assignment, gains)
    ordered, terms = OrderedGains._for_spans(g, owners, bounds)
    alphas, betas = linear_coefficients(ordered, weights)
    budgets, repaired = repair_negative_budgets(solve_power_split(alphas, betas, total_power))
    levels, short = [], []
    for k, (og, budget) in enumerate(zip(ordered, budgets)):
        fits = budget >= og.v
        levels.append(_water_level(budget, og.v, og.size) if fits else 0.0)
        if not fits:
            short.append(k)
    powers = np.array(levels)[owners] + terms
    pruned = np.zeros(assignment.n_users, dtype=int)
    for k in short:
        lo, hi = bounds[k], bounds[k + 1]
        powers[lo:hi], pruned[k] = prune_and_waterfill(budgets[k], ordered[k])
    return PowerAllocation(
        budgets=np.array(budgets),
        powers=_scatter(assignment, owners, subcarriers, powers, total_power),
        repaired=repaired,
        pruned=pruned,
    )


def uniform_pa(assignment: Assignment, total_power: float) -> PowerAllocation:
    """Equal power on every subcarrier: p = P_T / N."""
    n = assignment.grid.n_subcarriers
    per_sc = total_power / n
    return PowerAllocation(
        budgets=assignment.subcarrier_counts() * per_sc,
        powers=_scatter(assignment, assignment.subcarrier_owners, np.arange(n), per_sc, total_power),
        repaired=np.zeros(assignment.n_users, dtype=bool),
        pruned=np.zeros(assignment.n_users, dtype=int),
    )


def _level_total(fit: list[tuple], t: float, budgets: list | None = None) -> float:
    """Total of the per-user budgets P_k(t) at rate level t, as ``_total`` sums them.

    ``fit`` holds one (v, n / g_min, weight, n, log2_w) tuple per user
    (``_level_fit``); each budget is also appended to ``budgets`` when
    one is given.  Each budget is the float numpy gives for the same
    formula on float64 scalars, so the operation order must stay as
    written (folding ``weight / n`` changes the rounding); a power that
    overflows is inf, as in numpy, where Python's ``**`` raises.  Below
    ``_PAIRWISE_FROM`` users the total is added as the budgets come, in
    ``_total``'s order, so no list is built; from there on numpy's
    pairwise sum needs them all.
    """
    pairwise = len(fit) >= _PAIRWISE_FROM
    if budgets is None and pairwise:
        budgets = []
    total = 0.0
    for v, scale, weight, n, log2_w in fit:
        try:
            growth = 2.0 ** (weight * t / n - log2_w)
        except OverflowError:
            growth = math.inf
        budget = v + scale * (growth - 1.0)
        total += budget
        if budgets is not None:
            budgets.append(budget)
    return _total(budgets) if pairwise else total


def _level_budgets(fit: list[tuple], t: float) -> list[float]:
    """Per-user budgets P_k(t) at rate level t, in plain floats (``_level_total``)."""
    budgets = []
    _level_total(fit, t, budgets)
    return budgets


def _solve_level(fit: list[tuple], total_power: float) -> list[float]:
    """One prune pass's budgets at the bisected rate level; see ``exact_pa_oracle``.

    The bracket and the bisection read only the budgets' total; the
    budget list is built once, at the level returned.
    """
    t_hi = 1.0
    for _ in range(_ORACLE_MAX_DOUBLINGS):
        if _level_total(fit, t_hi) > total_power:
            break
        t_hi *= 2.0
    else:
        raise OracleConvergenceError("failed to bracket the rate level")
    tol = _ORACLE_REL_TOL * total_power
    t_lo = 0.0
    for _ in range(_ORACLE_MAX_BISECTIONS):
        t = 0.5 * (t_lo + t_hi)
        if not t_lo < t < t_hi:
            # The bracket holds two adjacent floats and cannot move: take
            # the end whose budgets sum closer to the total power.
            end = min((t_lo, t_hi), key=lambda level: abs(_level_total(fit, level) - total_power))
            return _level_budgets(fit, end)
        resid = _level_total(fit, t) - total_power
        if abs(resid) <= tol:
            return _level_budgets(fit, t)
        if resid > 0:
            t_hi = t
        else:
            t_lo = t
    raise OracleConvergenceError(f"bisection residual {resid:g} did not reach {tol:g}")


def _level_fit(g: np.ndarray, weight: float) -> tuple:
    """One user's (v, n / g_min, weight, n, log2_w) for ``_level_budgets``, from its ascending active gains.

    log2_w is the log2 of the geometric-mean gain ratio g / g_min, kept
    in the log domain so that long gain vectors cannot overflow the product.
    """
    n, g_min = g.size, float(g[0])
    return _waterfill_v(g), n / g_min, weight, n, float(np.log2(g[1:] / g_min).sum()) / n


def exact_pa_oracle(
    assignment: Assignment,
    gains: np.ndarray,
    weights: np.ndarray,
    total_power: float,
) -> PowerAllocation:
    """Exact proportional-rate allocation by bisection on the rate level.

    Water-filling inside each user makes its rate a closed-form,
    strictly increasing function of its budget; inverting it at a common
    weighted-rate level t gives
    P_k(t) = v_k + (n_k / g_min,k) * (2**(w_k t / n_k) / W_k - 1),
    and the level is bisected until the budgets sum to the total power
    within ``_ORACLE_REL_TOL``.  If the bracket shrinks to two adjacent
    floats first, no level meets that tolerance; the bracket end whose
    budgets sum closer to the total power is taken instead.  Whenever
    the solution would drive a user's budget below its v_k, that user's
    weakest subcarrier is dropped, its statistics are recomputed and the
    level re-solved, iterating to a fixpoint.

    Every step evaluates the budgets' total in plain floats
    (``_level_total``), in ``ndarray.sum()``'s order (``_total``), which
    is faster than a numpy array at a few users and gives the same bits.
    Each pass builds its budget list once, at its level, and the budget
    array is built once, on the final pass.

    One sort orders every user's gains (``_sorted_gains``, as in
    ``proposed_pa``).  A prune drops the weakest gains, so each user's
    active gains are the top of its sorted span: its statistics
    (``_level_fit``) are computed from that top, and its powers written
    into it.
    """
    weights = _rate_weights(weights, assignment.n_users)
    g, subcarriers, owners, bounds = _sorted_gains(assignment, gains)
    ends = bounds[1:].tolist()
    fit = [_level_fit(g[lo:hi], w) for lo, hi, w in zip(bounds.tolist(), ends, weights)]

    for _ in range(g.size + 1):
        budgets = _solve_level(fit, total_power)
        # A budget below its floor prunes the user's weakest subcarrier;
        # a single-subcarrier user is never pruned.
        violations = [
            k
            for k, ((v, _, _, n, _), budget) in enumerate(zip(fit, budgets))
            if n > 1 and budget < v - 1e-12 * max(v, total_power)
        ]
        if not violations:
            powers = np.zeros(g.size)  # pruned gains keep zero power
            for (v, _, _, n, _), budget, hi in zip(fit, budgets, ends):
                powers[hi - n : hi] = _waterfill(max(budget, v), v, g[hi - n : hi])
            return PowerAllocation(
                budgets=np.array(budgets),
                powers=_scatter(assignment, owners, subcarriers, powers, total_power),
                repaired=np.zeros(assignment.n_users, dtype=bool),
                pruned=np.diff(bounds) - [n for _, _, _, n, _ in fit],
            )
        for k in violations:
            _, _, weight, n, _ = fit[k]
            fit[k] = _level_fit(g[ends[k] - n + 1 : ends[k]], weight)
    raise OracleConvergenceError("prune fixpoint did not terminate")


def user_rates(powers: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Achieved per-user rates (1/N) * sum_n log2(1 + p * G); ConfigError unless both are the same (K, N)."""
    powers = np.asarray(powers, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if powers.ndim != 2 or powers.shape != gains.shape:
        raise ConfigError(f"powers {powers.shape} and gains {gains.shape} must be the same (K, N) shape")
    n = powers.shape[1]
    return np.log2(1.0 + powers * gains).sum(axis=1) / n


def _priced_waterfill(g, r, price, budget):
    """Water-fill ``budget`` maximising sum_n price_n log2(1 + p_n g_n); (C, N) terms log2(mu price g).

    ``r`` holds 1/g, inf where g is not positive.  A zero ``price`` (an
    underflow) sorts last, as 1/(price g) = inf, and adds nothing.  A
    row with no positive price on a positive gain earns nothing at any
    power: its prefix levels are inf, a zero price sum included, and
    all its terms 0.
    With each row's 1/(price g) sorted ascending, every prefix level
    mu_a = (P + sum of its 1/g) / (sum of its prices) is at or above the
    water-filling level, since sum_n price_n (mu_a - 1/(price_n g_n))^+
    >= P, and the active prefix attains it, so the level is the smallest
    mu_a (any order would give levels at or above it).  It is raised
    against the rounding of the prefix sums.  A term is 0 where
    mu price g is not above 1.
    """
    order = np.argsort(np.divide(r, price, out=np.full(r.shape, np.inf), where=price > 0), axis=1)
    order += np.arange(0, g.size, g.shape[1])[:, None]  # flat indices: one take beats a 2-D gather
    # Without a positive price on a positive gain, a zero price sum's
    # level is x / 0 = inf, and the inf mu gives y = inf * 0 = NaN on a
    # zero price, which the y > 1 mask turns into a 0 term.
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = (budget + r.take(order).cumsum(axis=1)) / price.take(order).cumsum(axis=1)
        mu = levels.min(axis=1) * (1.0 + (2 * g.shape[1] + 2) * 2.0**-52)
        y = np.multiply(mu[:, None] * price, g, out=np.zeros(g.shape), where=g > 0)
    return np.log2(y, out=np.zeros(g.shape), where=y > 1.0)


def sum_rate_bound(
    grid: ChunkGrid,
    gains: np.ndarray,
    total_power: float,
    owners: np.ndarray,
    weights: np.ndarray | None = None,
    floor: float = -math.inf,
    unit: tuple | None = None,
) -> np.ndarray:
    """Upper bounds on the sum rate of each chunk map in a block: (C, M) owners to (C,) bounds.

    Row c bounds ``float(user_rates(powers, gains).sum())``, as computed,
    for every ``powers`` that ``_check_allocation(powers, total_power)``
    accepts and that loads only the map's own (owner, subcarrier)
    entries, as every PA here does.  With ``weights`` the bound holds
    only for ``exact_pa_oracle``'s powers: see "Rate weights" below,
    and with ``floor`` a bound below it may be looser: see "Floor".  A
    row with a NaN owned gain gets NaN.  ``unit``, when given, is
    ``_unit_waterfill(grid, gains, total_power, owners)`` of the same
    arguments, kept from an earlier call so that the searches of one
    sweep point water-fill each map at unit prices once; the bounds are
    the same as without it.

    The bound is unconstrained water-filling over the map's own gains:
    ``_priced_waterfill`` at unit prices, whose level is the least prefix
    level (P + S_a) / a, with S_a the sum of a row's a smallest 1/g.
    Any mu at or above it gives V(mu) = (1/N) sum_n max(0, log2(mu g_n)),
    at least the water-filling rate at power P, which no allocation of
    at most P beats.  Zero and negative gains add nothing; a reciprocal
    that overflows to inf only drops its prefixes from the minimum.

    The margin, with u = 2**-53 and ``np.log2`` taken to be within 4 ulp
    (8 u relative), to first order in u:

    - Power.  An accepted float total is within 1e-9 P of P, and numpy
      sums the K N non-negative powers within (K N - 1) u, so an
      accepted allocation spends at most P (1 + 1e-9)(1 + (K N + 1) u).
      The bound is taken at P' = P (1 + 1e-9), rounded to within 2 u;
      the water-filling rate is concave in the power and 0 at 0, so
      the rest costs a relative (K N + 4) u.
    - Level.  Unit prices sum to exact integers, so the reciprocals,
      the N in-order adds, the add of P' and the divide leave the float
      mu_a under the exact one by at most (N + 2) u relative; mu is
      raised by the exact factor 1 + (2 N + 2) 2**-52, which covers that
      and its own rounding.
    - The bound's rounding.  fl(mu g) is within u of mu g, which moves
      log2 by at most 1.5 u absolute, also where it masks a term at
      1; log2 adds 8 u relative, the row sum of N non-negative terms
      N u and the divide u.  So V(mu) <= B (1 + (N + 10) u) + 1.5 u,
      with B the float bound.
    - ``user_rates``' rounding.  For x = p g >= 0, fl(p g) raises
      log2(1 + x) by at most u log2(1 + x), since x / (1 + x) <=
      ln(1 + x); fl(1 + x) by at most 1.5 u absolute, which is
      unbounded relative to log2(1 + x) at tiny x; log2 by 8 u
      relative, the N-term row sum (entries without power are exactly
      log2(1) = 0) N u, the divide u and the K-term total K u.  Each
      subcarrier has one owner, so the computed sum is at most
      F (1 + (N + K + 10) u) + 1.5 u for the exact rate F.

    Chained: sum <= B (1 + (K N + 2 N + K + 24) u) + 3 u.  The bound
    returned doubles both terms, B (1 + (K N + 2 N + K + 32) 2**-52) +
    2**-50, which covers the second-order products and the rounding of
    the margin itself.  The argument takes every product and reciprocal
    to be a normal float or inf; an overflow only gives an inf bound.

    Rate weights.  ``exact_pa_oracle`` gives user k the rate R_k = w_k t
    at one level t, up to the errors below, so its sum rate is W t with
    W = sum w.  For prices nu >= 0 with sum nu_k w_k = 1, weak duality
    gives t <= sum nu_k R_k <= D(nu), the most any allocation of P'
    earns in sum_k nu_k R_k, so W D(nu) is a bound; D(nu) is a
    water-fill with the owner's price on each subcarrier
    (``_priced_waterfill``).  Any prices give a bound, and prices near
    the optimum a tight one.  The unit-price bound above is the first
    iterate.  Each of ``_DUAL_UPDATES`` updates takes the step
    s_k = mean(R / w) / (R_k / w_k), at most ``_DUAL_STEP_CAP``, from the
    previous water-fill's R, tries nu_k s_k**e for every exponent e in
    ``_DUAL_EXPONENTS``, renormalised, and keeps the try with the least
    bound (a full step overshoots when a user's rate is 0).  The least
    bound over the iterates is returned.  The margin of a priced
    iterate, with n_k user k's active subcarriers and w_min the least
    weight, to first order in u:

    - Proportionality.  Let r_k be the exact rate of the oracle's powers
      over w_k.  Then W min r <= W D(nu), and the sum rate is at most
      W max r, so W (max r - min r) is added.  User k's exact rate
      strays from w_k t / N by at most (n_k + 13) u R_k (the float
      exponent and log2 of the gain ratios' mean), plus (n_k / N) 24 u
      absolute (``2.0 **`` within 2 ulp, ten roundings in the water
      level, the rounded gain ratios), plus the floor: a budget up to
      1e-12 max(v, P) under v is raised to v, which lifts R_k by at most
      1.45e-12 P g_max / N, with g_max the map's largest gain, since
      max(v, P) <= P (1 + 2e-9) for an accepted allocation.  The
      2**x - 1 cancellation at low SNR is the absolute term: it moves
      every power of a user by the same tiny level, which matters only
      against a tiny rate.  So W (max r - min r) <= 2 (N + 13) u W max r
      + 2 (W / w_min)(24 u + 1.45e-12 P g_max / N).
    - Level.  The prices' prefix sums add N u to the level's error,
      (2 N + 1) u in all; mu is raised by 1 + (2 N + 2) 2**-52.
    - Rounding.  fl(fl(mu nu) g) moves log2 by at most 3 u absolute, so
      W D by at most 3 u W max nu <= 3 u W / w_min; the price products
      and the sum over N terms, the divide, the product with W and W's
      own sum add (N + K + 10) u relative, the normalisation (K + 2) u.

    Chained with the power and ``user_rates`` terms above:
    sum <= B (1 + (K N + 4 N + 3 K + 52) u) + (W / w_min)(51 u +
    2.9e-12 P g_max / N) + 1.5 u.  A priced iterate returns both terms
    doubled and rounded up, B (1 + (K N + 5 N + 3 K + 64) 2**-52) +
    (W / w_min)(2**-45 + 6e-12 P g_max / N); W / w_min >= 1, so 2**-45
    also covers the 3 u.  Over 4,500 random instances (K <= 3, M <= 14,
    weights e**[-2.5, 2.5], -65 to 45 dB), the computed sum rate
    exceeded the bound without these margins only below -45 dB,
    by at most 3.5e-9 relative and 1.2% of the absolute term; from
    -45 dB up it stayed at least 8.7e-11 relative under it.

    Every priced iterate is at least its margin, since its water-fill
    terms and prices are non-negative.  A map whose margin already
    reaches its unit-price bound, as every map's does once W / w_min
    nears 1e12, therefore keeps the unit-price bound, bit for bit, and
    its priced iterates are not computed.

    Floor.  A map whose unit-price bound is below ``floor`` skips the
    priced iterates too and keeps its unit-price bound.  That bound is
    valid and below ``floor``, and every other map gets the bound it
    gets without a floor, so the bounds at or above ``floor`` are the
    same, and so is the set of maps below it.  A search that is sure to
    meet a sum rate at or above ``floor`` before any bound below it
    therefore visits the same maps in the same order with or without
    it; see ``exhaustive_sa_oracle``.  Without ``weights`` nothing is
    skipped and ``floor`` is not read.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2 or gains.shape[1] != grid.n_subcarriers:
        raise ConfigError(f"gains must be a (K, {grid.n_subcarriers}) table, got {gains.shape}")
    n_users, n = gains.shape
    if weights is not None:
        weights = np.array(_rate_weights(weights, n_users))
    bound, rates, g_max = _unit_waterfill(grid, gains, total_power, owners) if unit is None else unit
    bound = bound.copy()
    if weights is None:
        return bound
    with np.errstate(over="ignore"):
        margin = weights.sum() / weights.min() * (2.0**-45 + 6e-12 * total_power * g_max / n)
        # NaN bounds compare false both ways, so a NaN row stays NaN.
        priced = np.flatnonzero((bound >= floor) & (margin < bound))
        if priced.size:
            owners, g, r = _owned_gains(grid, gains, np.asarray(owners)[priced])
            budget = total_power * (1.0 + _POWER_REL_TOL)
            iterate = _priced_bound(g, r, rates[priced], owners, weights, budget) + margin[priced]
            bound[priced] = np.fmin(bound[priced], iterate)
    return bound


def _uniform_bound(grid: ChunkGrid, gains: np.ndarray, total_power: float, owners) -> np.ndarray:
    """Upper bounds on ``uniform_pa``'s sum rate for each chunk map in a block: (C, M) owners to (C,) bounds.

    Row c bounds ``float(user_rates(uniform_pa(a, total_power).powers,
    gains).sum())``, as computed, for the map's assignment ``a``.  It is
    that sum rate itself, from one gather over the owned gains: each
    term log2(1 + (P / N) g) is the float ``user_rates`` computes for an
    owned entry, and an entry without power adds exactly log2(1) = 0.
    Only the order of the adds differs, so the sum of the terms is
    raised by a rounding margin.  A row with a negative or NaN owned
    gain gets NaN (its terms can cancel or be NaN), which rules nothing
    out.

    The margin, with u = 2**-53, for a row whose terms are all >= 0.
    ``np.log2`` is taken to be within 4 ulp (8 u relative), so a term
    here and the same term in ``user_rates`` differ by 16 u relative at
    most, should numpy take another loop for the other layout.  Any
    order of adds of m non-negative terms is within (m - 1) u relative
    of their exact sum, and no term is subnormal: the least positive
    one is log2(1 + 2**-52).  ``user_rates`` sums each user's N entries
    and divides by N, and the K rates are summed: at most
    T (1 + 16 u)(1 + u)**(N + K - 1) / N for the exact sum T of the
    terms here.  The row sum here and its divide leave the float B at or
    above T (1 - u)**N / N.  So the sum rate is at most
    B (1 + (2 N + K + 15) u) to first order; the bound returned is
    B (1 + (2 N + K + 20) 2**-52), whose factor is exact and whose
    rounding and second-order terms fit in the rest.  An inf term makes
    both sums inf.
    """
    n_users, n = gains.shape
    g = gains[grid.per_subcarrier(owners), np.arange(n)]
    with np.errstate(all="ignore"):  # 0 * inf, overflow, the log2 of a negative gain's term
        terms = np.log2(1.0 + total_power / n * g)
    bound = terms.sum(axis=1) / n * (1.0 + (2 * n + n_users + 20) * 2.0**-52)
    bound[~(g >= 0).all(axis=1)] = np.nan
    return bound


def _owned_gains(grid: ChunkGrid, gains: np.ndarray, owners):
    """A block of maps' per-subcarrier owners, owned gains g and their reciprocals r (inf where g <= 0): (C, N) each."""
    owners = grid.per_subcarrier(owners)
    g = gains[owners, np.arange(grid.n_subcarriers)]
    with np.errstate(over="ignore"):
        r = np.divide(1.0, g, out=np.full(g.shape, np.inf), where=g > 0)
    return owners, g, r


def _user_sums(owners, terms, n_users: int) -> np.ndarray:
    """(C, K) sums of each map's (C, N) ``terms`` over each user's subcarriers, added in subcarrier order."""
    n_maps = len(owners)
    cells = (owners + n_users * np.arange(n_maps)[:, None]).ravel()  # each term's (map, user)
    return np.bincount(cells, weights=terms.ravel(), minlength=n_maps * n_users).reshape(n_maps, n_users)


def _unit_waterfill(grid: ChunkGrid, gains: np.ndarray, total_power: float, owners):
    """``sum_rate_bound``'s unit-price pass over a block of maps: (bound, rates, g_max), each per map.

    ``bound`` is the unit-price bound, NaN for a map with a NaN owned
    gain; ``rates`` the (C, K) sums of each user's water-filling terms,
    from which the first price update starts; ``g_max`` the largest
    owned gain, at least 0, which sets the priced margin.  None of them
    depends on the rate weights or the PA, so every search of a sweep
    point can share them.
    """
    n_users, n = gains.shape
    owners, g, r = _owned_gains(grid, gains, owners)
    with np.errstate(over="ignore"):
        terms = _priced_waterfill(g, r, np.ones(g.shape), total_power * (1.0 + _POWER_REL_TOL))
        bound = terms.sum(axis=1) / n * (1.0 + (n_users * n + 2 * n + n_users + 32) * 2.0**-52) + 2.0**-50
    bound[np.isnan(g).any(axis=1)] = np.nan
    return bound, _user_sums(owners, terms, n_users), np.maximum(g.max(axis=1), 0.0)


def _priced_bound(g, r, rates, owners, weights, budget):
    """The least of ``sum_rate_bound``'s priced iterates before their margin is added.

    ``rates`` are the unit-price water-fill's per-user rates (``_user_sums``),
    from which the first price update starts.
    """
    n_maps, n = g.shape
    n_users, n_tries = weights.size, _DUAL_EXPONENTS.size
    w_sum = weights.sum()
    rows = np.arange(n_tries * n_maps)[:, None]
    tiled_g, tiled_r, tiled_owners = (np.tile(a, (n_tries, 1)) for a in (g, r, owners))
    nu = np.ones((n_maps, n_users))
    best = np.full(n_maps, np.inf)
    for update in range(_DUAL_UPDATES):
        if update:
            rates = _user_sums(owners, terms, n_users)
        mean = (rates.sum(axis=1) / w_sum)[:, None]  # N times mean(R / w)
        ratio = rates / weights
        step = np.divide(mean, ratio, out=np.full(ratio.shape, _DUAL_STEP_CAP),
                         where=ratio * _DUAL_STEP_CAP > mean)
        # Every map's prices at every exponent, stacked exponent by exponent.
        tries = (nu * step ** _DUAL_EXPONENTS[:, None, None]).reshape(-1, n_users)
        tries /= (tries * weights).sum(axis=1)[:, None]
        price = tries[rows, tiled_owners]
        tried = _priced_waterfill(tiled_g, tiled_r, price, budget)
        values = (price * tried).sum(axis=1) / n * w_sum
        pick = values.reshape(n_tries, n_maps).argmin(axis=0) * n_maps + np.arange(n_maps)
        nu, terms = tries[pick], tried[pick]
        best = np.fmin(best, values[pick])
    return best * (1.0 + (n_users * n + 5 * n + 3 * n_users + 64) * 2.0**-52)


def _check_allocation(powers: np.ndarray, total_power: float) -> None:
    """Raise AllocationError on a negative (or NaN) power or a total off by > 1e-9 relative."""
    if not powers.min() >= 0.0:
        raise AllocationError(f"negative or NaN power {powers.min():g} in allocation")
    if not abs(powers.sum() - total_power) <= _POWER_REL_TOL * total_power:
        raise AllocationError(
            f"allocated power {powers.sum():.12g} does not conserve total {total_power:.12g}"
        )
