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

from .assign import Assignment, ChunkGrid
from .errors import AllocationError, ConfigError, InfeasibleError, OracleConvergenceError

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

_SINGULAR_REL_TOL = 1e-12
# exact_pa_oracle's stopping rule: the budgets must sum to the total power
# within this relative tolerance, in at most this many bracket doublings
# and bisection steps per prune pass.
_ORACLE_REL_TOL = 1e-12
_ORACLE_MAX_DOUBLINGS = 200
_ORACLE_MAX_BISECTIONS = 200
# The bisection's decisions are certified with a margin of
# _ORACLE_SLACK * (K + 8) * (|total| + 2 * sum(n / g_min)) on a total of
# K budgets.  The plain-float total strays from one that rises with the
# level by under 2**-50 * (1.5 + K / 8) times that scale: ``2.0 **`` is
# taken to be within 2 ulp of the power, and every other operation and
# addition rounds once.  A certificate needs twice that, one per side.
_ORACLE_SLACK = 2.0**-50
_NEWTON_MAX_STEPS = 60
# A prune pass skips its bisection only if that bisection cannot run out
# of steps: from [0, top] to a level above lo it halves at most
# log2(top / lo) + 1 times and then settles inside one binade in about
# 57 steps, so a span below 2**100 stays within _ORACLE_MAX_BISECTIONS.
_ORACLE_SKIP_SPAN = 2.0**100
_LN2 = math.log(2.0)
# prune_and_waterfill's certified start: the relative margin per gain,
# and the smallest g_min**2 its range guard admits (the least normal float).
_START_SLACK = 8.0 * 2.0**-52
_TINY = float(np.finfo(float).tiny)
# _check_allocation's relative tolerance on the total power.
_POWER_REL_TOL = 1e-9


class _computed_once:
    """A lazily computed attribute, stored in the instance dict on first read.

    ``functools.cached_property`` without the lock that Python 3.11 takes
    on every first read; see ``OrderedGains``.
    """

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class OrderedGains:
    """One user's active gains, sorted ascending.

    The set is non-empty and its weakest gain positive.  The water-filling
    statistics are computed on first use: ``v`` is the power consumed by
    equalising the water level across the set when the weakest subcarrier
    gets zero power, ``e`` the sum of gains relative to the weakest, and
    ``log2_w`` the log2 of the geometric-mean gain ratio (kept in the log
    domain so long gain vectors cannot overflow the product).  Each is
    computed at most once per record and then read from the instance
    dict.  No lock guards the first read: the record is frozen and
    each statistic a pure function of it, so two threads that race
    would only store equal values.  ``_for_spans`` builds many records
    with these statistics already stored, computed for all at once.
    """

    values: np.ndarray

    def __post_init__(self):
        if self.values.size == 0:
            raise InfeasibleError("user has no subcarriers")
        if not self.values[0] > 0:
            raise ConfigError("active set needs a positive weakest gain")

    @_computed_once
    def size(self) -> int:
        return int(self.values.size)

    @_computed_once
    def g_min(self) -> float:
        return float(self.values[0])

    @_computed_once
    def v(self) -> float:
        return _waterfill_v(self.values)

    @_computed_once
    def e(self) -> float:
        return float((self.values / self.g_min).sum())

    @_computed_once
    def log2_w(self) -> float:
        return float(np.log2(self.values[1:] / self.g_min).sum()) / self.size

    @classmethod
    def _for_spans(cls, g, owners, bounds) -> tuple[list[OrderedGains], np.ndarray]:
        """Every user's record from ``_sorted_gains``, and every gain's water-filling term.

        User k's record holds ``g[bounds[k]:bounds[k + 1]]``; no span may
        be empty.  The terms (``_waterfill_terms`` against the owner's
        g_min) and the ratios g / g_min are computed once for all gains,
        and each record's v and e are sums over its own slice of them,
        so size, g_min, v and e are stored equal to their first-read values.
        """
        g_min = g[bounds[:-1]]
        base = g_min[owners]
        terms = _waterfill_terms(g, base)
        ratios = g / base
        bounds = bounds.tolist()
        records = []
        for lo, hi, g0 in zip(bounds, bounds[1:], g_min.tolist()):
            og = cls(values=g[lo:hi])
            og.__dict__.update(size=hi - lo, g_min=g0, v=float(terms[lo + 1 : hi].sum()),
                               e=float(ratios[lo:hi].sum()))
            records.append(og)
        return records, terms

    def without_weakest(self) -> OrderedGains:
        """The set with its weakest subcarrier dropped."""
        return OrderedGains(values=self.values[1:])


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user budgets and per-subcarrier powers for one assignment."""

    budgets: np.ndarray       # (K,)
    powers: np.ndarray        # (K, N)
    repaired: np.ndarray      # (K,) bool, touched by the negative-budget repair
    pruned: np.ndarray        # (K,) int, subcarriers zeroed by the budget loop
    singular_fallback: bool = False


def linear_coefficients(
    ordered: list[OrderedGains],
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row parameters (alpha_k, beta_k) of the linearised budget system.

    Row k (k = 2..K) reads P_1 + alpha_k * P_k = beta_k and encodes that
    user k's linearised rate over its weight equals user 1's.  Entry 0
    of each returned array corresponds to user 2.
    """
    weights = np.asarray(weights, dtype=float)
    n_users = len(ordered)
    if n_users != weights.size:
        raise ConfigError("one gain set per user required")
    c1 = ordered[0]
    alphas = np.empty(n_users - 1)
    betas = np.empty(n_users - 1)
    for k in range(1, n_users):
        ck = ordered[k]
        wr = weights[0] / weights[k]
        alpha = -wr * (ck.e * c1.size * ck.g_min) / (c1.e * ck.size * c1.g_min)
        beta = (
            wr * ck.e * c1.size / (c1.e * c1.g_min)
            - wr * c1.size * ck.size / (c1.e * c1.g_min)
            + alpha * ck.v
            + (c1.size / c1.g_min) * (c1.size / c1.e - 1.0)
            + c1.v
        )
        alphas[k - 1] = alpha
        betas[k - 1] = beta
    return alphas, betas


def solve_power_split(
    alphas: np.ndarray,
    betas: np.ndarray,
    total_power: float,
    weights: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Closed-form solution of the budget system; returns (budgets, fell_back).

    P_1 = (P_T - sum(beta/alpha)) / (1 - sum(1/alpha)) and
    P_k = (beta_k - P_1) / alpha_k.  A (near-)singular denominator falls
    back to budgets proportional to the rate weights.  With one user
    both sums are empty and P_1 is the total power.
    """
    weights = np.asarray(weights, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    inv = 1.0 / alphas
    denom = 1.0 - inv.sum()
    if abs(denom) < _SINGULAR_REL_TOL * max(1.0, np.abs(inv).sum()):
        return total_power * weights / weights.sum(), True
    p1 = (total_power - (betas * inv).sum()) / denom
    rest = (betas - p1) * inv
    return np.concatenate(([p1], rest)), False


def repair_negative_budgets(budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average the worst-off budgets until no budget is negative.

    If any budget is negative, budgets are sorted ascending (ties by
    user index) and the group grows from the smallest until its partial
    sum is non-negative; every group member then receives the group
    average.  Rounding can leave every sorted partial sum negative while
    the total is not; the group is then every user, sharing the total.
    Returns (budgets, group_mask); the total is preserved.  A negative
    total cannot be repaired and raises AllocationError: the split gives
    one only through float cancellation, at very low SNR.
    """
    budgets = np.asarray(budgets, dtype=float).copy()
    mask = np.zeros(budgets.size, dtype=bool)
    if budgets.min() >= 0:
        return budgets, mask
    if budgets.sum() < 0:
        raise AllocationError("total budget must be non-negative for repair")
    order = np.argsort(budgets, kind="stable")
    partial = budgets[order[0]]
    count = 1
    while partial < 0:
        if count == budgets.size:
            partial = budgets.sum()
            break
        partial += budgets[order[count]]
        count += 1
    group = order[:count]
    budgets[group] = partial / count
    mask[group] = True
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


def _sorted_gains(assignment: Assignment, gains: np.ndarray):
    """Every user's positive gains in one stable sort: (g, subcarriers, owners, bounds).

    User k's gains are ``g[bounds[k]:bounds[k + 1]]``, ascending with
    ties toward the lower subcarrier index, as a stable sort of that
    user's gains alone would order them; ``subcarriers`` and ``owners``
    hold each gain's subcarrier and user.  Zero, negative and NaN gains
    are dropped; a user left with none raises InfeasibleError.
    """
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
    one step; only the rest go through ``prune_and_waterfill``.
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    g, subcarriers, owners, bounds = _sorted_gains(assignment, gains)
    ordered, terms = OrderedGains._for_spans(g, owners, bounds)
    alphas, betas = linear_coefficients(ordered, weights)
    budgets, fallback = solve_power_split(alphas, betas, total_power, weights)
    budgets, repaired = repair_negative_budgets(budgets)
    levels, short = [], []
    for k, (og, budget) in enumerate(zip(ordered, budgets.tolist())):
        fits = budget >= og.v
        levels.append(_water_level(budget, og.v, og.size) if fits else 0.0)
        if not fits:
            short.append(k)
    powers = np.array(levels)[owners] + terms
    pruned = np.zeros(assignment.n_users, dtype=int)
    for k in short:
        lo, hi = bounds[k], bounds[k + 1]
        powers[lo:hi], pruned[k] = prune_and_waterfill(budgets[k], ordered[k])
    out = np.zeros((assignment.n_users, assignment.grid.n_subcarriers))
    out[owners, subcarriers] = powers
    _check_allocation(out, total_power)
    return PowerAllocation(
        budgets=budgets,
        powers=out,
        repaired=repaired,
        pruned=pruned,
        singular_fallback=fallback,
    )


def uniform_pa(assignment: Assignment, total_power: float) -> PowerAllocation:
    """Equal power on every subcarrier: p = P_T / N."""
    n = assignment.grid.n_subcarriers
    per_sc = total_power / n
    powers = np.zeros((assignment.n_users, n))
    powers[assignment.subcarrier_owners, np.arange(n)] = per_sc
    budgets = assignment.subcarrier_counts() * per_sc
    _check_allocation(powers, total_power)
    return PowerAllocation(
        budgets=budgets.astype(float),
        powers=powers,
        repaired=np.zeros(assignment.n_users, dtype=bool),
        pruned=np.zeros(assignment.n_users, dtype=int),
    )


def _level_budgets(fit: list[tuple], t: float) -> list[float]:
    """Per-user budgets P_k(t) at rate level t, in plain floats.

    ``fit`` holds one (v, n / g_min, weight, n, log2_w) tuple per user.
    Each budget is the float numpy gives for the same formula on float64
    scalars, so the operation order must stay as written (folding
    ``weight / n`` changes the rounding); a power that overflows is inf,
    as in numpy, where Python's ``**`` raises.
    """
    budgets = []
    for v, scale, weight, n, log2_w in fit:
        try:
            growth = 2.0 ** (weight * t / n - log2_w)
        except OverflowError:
            growth = math.inf
        budgets.append(v + scale * (growth - 1.0))
    return budgets


def _total(budgets: list[float]) -> float:
    """``ndarray.sum()`` of the budgets: numpy sums fewer than 8 terms in order."""
    if len(budgets) >= 8:
        return float(np.sum(budgets))
    total = 0.0
    for b in budgets:
        total += b
    return total


def _float_slack(value: float, scale: float, n_terms: int) -> float:
    """Float error bound of a sum of ``n_terms`` budgets whose n / g_min sum to ``scale``."""
    return _ORACLE_SLACK * (n_terms + 8) * (abs(value) + 2.0 * scale)


def _newton_root(
    fit: list[tuple], total_power: float, t_top: float, t: float
) -> tuple[float, float] | None:
    """Newton's root of the budget total below ``t_top``, with the total's slope there.

    The total is C + S(t), where C = sum(v - n / g_min) and S is a sum of
    positive exponentials of t, so ln S is convex in t.  Newton on
    ln S(t) = ln(P - C) therefore lands at or above the root after its
    first step and then falls to it monotonically; steps are clamped to
    the bracket top, and a level whose S overflows, far above the root,
    is halved.  It stops once the step left could move the total
    by less than an eighth of the tolerance.  The result only places the
    window that ``_solve_level`` certifies, so it needs no exact
    arithmetic.  Returns None when no certificate could hold: a weight
    that is negative or NaN (the total must rise with t), a non-positive
    n / g_min or P - C, a flat total, or no convergence in
    ``_NEWTON_MAX_STEPS`` steps.
    """
    target = total_power
    lines = []  # S(t) = sum(exp(a_k t + b_k))
    for v, scale, weight, n, log2_w in fit:
        if not (weight >= 0 and scale > 0):
            return None
        target -= v - scale
        lines.append((_LN2 * weight / n, math.log(scale) - _LN2 * log2_w))
    if not target > 0:
        return None
    ln_target = math.log(target)
    a_max = max(a for a, _ in lines)
    settle = 0.25 * _ORACLE_REL_TOL * total_power / target
    t = min(t, t_top)
    for _ in range(_NEWTON_MAX_STEPS):
        s = ds = 0.0  # S / (P - C) and its derivative
        try:
            for a, b in lines:
                e = math.exp(a * t + b - ln_target)
                s += e
                ds += a * e
        except OverflowError:
            t *= 0.5
            continue
        if not ds > 0:
            return None
        step = math.log(s) * s / ds
        t = min(t - step, t_top)
        # The step left after this one is at most a_max / 2 * step**2.
        if not a_max * ds / s * step * step > settle:
            break
    else:
        return None
    slope = target * ds
    return (t, slope) if slope > 0 else None


def _solve_level(
    fit: list[tuple], total_power: float, floors: list[float], warm: float | None
):
    """One prune pass's budgets, bit for bit those at the plain-float bisection's level.

    The bracket doublings run exactly.  Newton then finds the root, from
    ``warm`` (the previous pass's root) or from the bracket top, and two
    exact totals certify a window [lo, hi] around it:
    total(lo) < P - tol - err and total(hi) > P + tol + err, where err
    (``_float_slack``) bounds how far the float total strays from a
    monotone one.  Every level at or below lo then takes the bisection's
    upward branch and every level at or above hi its downward one, so the
    bisection's midpoint sequence is replayed with budgets evaluated only
    inside the window.  An end whose certificate fails leaves its side
    unknown; with both failing the loop is the plain bisection.

    Returns (budgets, violations, root): the users below their floors and
    Newton's root for the next pass.  When both ends hold and the budgets
    at lo and hi put every user on the same side of its floor, with err to
    spare, the budgets at the bisection's level would too; if some user is
    below its floor, the pass is decided without the replay and budgets is
    None.  Otherwise budgets is the list at the bisection's level and
    violations compares it with the floors.
    """
    t_hi = 1.0
    for _ in range(_ORACLE_MAX_DOUBLINGS):
        if _total(_level_budgets(fit, t_hi)) > total_power:
            break
        t_hi *= 2.0
    else:
        raise OracleConvergenceError("failed to bracket the rate level")
    tol = _ORACLE_REL_TOL * total_power
    known_lo, known_hi = -math.inf, math.inf
    root = _newton_root(fit, total_power, t_hi, t_hi if warm is None else warm)
    if root is not None:
        root, slope = root
        scale_sum = sum(scale for _, scale, *_ in fit)
        err = _float_slack(total_power, scale_sum, len(fit))
        half = 2.0 * (tol + err) / slope + 8.0 * math.ulp(root)
        lo, hi = root - half, root + half
        at_lo, at_hi = _level_budgets(fit, lo), _level_budgets(fit, hi)
        total = _total(at_lo)
        if total + _float_slack(total, scale_sum, len(fit)) < total_power - tol:
            known_lo = lo
        total = _total(at_hi)
        if total - _float_slack(total, scale_sum, len(fit)) > total_power + tol:
            known_hi = hi
        if 0.0 < known_lo and known_hi < math.inf and t_hi <= known_lo * _ORACLE_SKIP_SPAN:
            violations = []
            for k, floor in enumerate(floors):
                scale = fit[k][1]
                if at_hi[k] + _float_slack(at_hi[k], scale, 1) < floor:
                    violations.append(k)
                elif not at_lo[k] - _float_slack(at_lo[k], scale, 1) >= floor:
                    break  # this user's decision can change inside the window
            else:
                if violations:
                    return None, violations, root
    t_lo = 0.0
    for _ in range(_ORACLE_MAX_BISECTIONS):
        t = 0.5 * (t_lo + t_hi)
        if not t_lo < t < t_hi:
            # The bracket holds two adjacent floats and cannot move.
            budgets = min(
                (_level_budgets(fit, t_lo), _level_budgets(fit, t_hi)),
                key=lambda b: abs(_total(b) - total_power),
            )
            break
        if t <= known_lo:
            resid = -math.inf  # certified below P - tol
        elif t >= known_hi:
            resid = math.inf  # certified above P + tol
        else:
            budgets = _level_budgets(fit, t)
            resid = _total(budgets) - total_power
        if abs(resid) <= tol:
            break
        if resid > 0:
            t_hi = t
        else:
            t_lo = t
    else:
        resid = _total(_level_budgets(fit, t)) - total_power
        raise OracleConvergenceError(f"bisection residual {resid:g} did not reach {tol:g}")
    return budgets, [k for k, floor in enumerate(floors) if budgets[k] < floor], root


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

    The result is bit-identical to bisecting with every step evaluated
    as plain floats summed in ``ndarray.sum()``'s order, but most steps
    are not evaluated (``_solve_level``): a Newton root, warm-started
    from the previous pass, places a window whose two ends are certified
    with exact totals and a float-error margin; outside it the
    bisection's branch is known, so only steps inside are evaluated.
    A pass whose window ends agree, with margin, on which users to
    prune is decided without the bisection; only the final pass replays
    it.  If a certificate fails, that side is evaluated in full, which
    is the plain bisection.  The budget array is built once, on the
    final pass, at the level the bisection settles on.

    The records and the scatter are ``proposed_pa``'s: one sort of every
    user's gains (``_sorted_gains``), and each user's powers written into
    the top of its sorted span, since a prune drops the weakest gains.
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    g, subcarriers, owners, bounds = _sorted_gains(assignment, gains)
    ordered, _ = OrderedGains._for_spans(g, owners, bounds)
    n_users = assignment.n_users
    pruned = np.zeros(n_users, dtype=int)
    root = None

    for _ in range(g.size + 1):
        fit = [
            (og.v, og.size / og.g_min, float(weights[k]), og.size, og.log2_w)
            for k, og in enumerate(ordered)
        ]
        # A budget below its floor prunes the user's weakest subcarrier;
        # a single-subcarrier user is never pruned.
        floors = [
            og.v - 1e-12 * max(og.v, total_power) if og.size > 1 else -math.inf
            for og in ordered
        ]
        budgets, violations, root = _solve_level(fit, total_power, floors, root)
        if not violations:
            budgets = np.array(budgets)
            powers = np.zeros(g.size)  # pruned gains keep zero power
            for k, (og, hi) in enumerate(zip(ordered, bounds[1:].tolist())):
                powers[hi - og.size : hi] = _waterfill(max(budgets[k], og.v), og.v, og.values)
            out = np.zeros((n_users, assignment.grid.n_subcarriers))
            out[owners, subcarriers] = powers
            _check_allocation(out, total_power)
            return PowerAllocation(
                budgets=budgets,
                powers=out,
                repaired=np.zeros(n_users, dtype=bool),
                pruned=pruned,
            )
        for k in violations:
            ordered[k] = ordered[k].without_weakest()
            pruned[k] += 1
    raise OracleConvergenceError("prune fixpoint did not terminate")


def user_rates(powers: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Achieved per-user rates (1/N) * sum_n log2(1 + p * G)."""
    powers = np.asarray(powers, dtype=float)
    gains = np.asarray(gains, dtype=float)
    n = powers.shape[1]
    return np.log2(1.0 + powers * gains).sum(axis=1) / n


def sum_rate_bound(
    grid: ChunkGrid, gains: np.ndarray, total_power: float, owners: np.ndarray
) -> np.ndarray:
    """Upper bounds on the sum rate of each chunk map in a block: (C, M) owners to (C,) bounds.

    Row c bounds ``float(user_rates(powers, gains).sum())``, as computed,
    for every ``powers`` that ``_check_allocation(powers, total_power)``
    accepts and that loads only the map's own (owner, subcarrier)
    entries, as every PA here does.  A row with a NaN owned gain gets NaN.

    The bound is unconstrained water-filling over the map's own gains.
    With each row's 1/g sorted ascending and S_a the sum of its first a,
    every prefix level mu_a = (P + S_a) / a is at or above the
    water-filling level, since sum_n (mu_a - 1/g_n)^+ >= P; the active
    prefix attains it, so the level is the smallest mu_a.  Any mu at or
    above it gives V(mu) = (1/N) sum_n max(0, log2(mu g_n)), at least
    the water-filling rate at power P, which no allocation of at most P
    beats.  Zero and negative gains add nothing; a reciprocal that
    overflows to inf only drops its prefixes from the minimum.

    The margin, with u = 2**-53 and ``np.log2`` taken to be within 4 ulp
    (8 u relative), to first order in u:

    - Power.  An accepted float total is within 1e-9 P of P, and numpy
      sums the K N non-negative powers within (K N - 1) u, so an
      accepted allocation spends at most P (1 + 1e-9)(1 + (K N + 1) u).
      The bound is taken at P' = P (1 + 1e-9), rounded to within 2 u;
      the water-filling rate is concave in the power and 0 at 0, so
      the rest costs a relative (K N + 4) u.
    - Level.  The reciprocals, the N in-order adds, the add of P' and
      the divide leave the float mu_a under the exact one by at most
      (N + 2) u relative; mu is raised by the exact factor
      1 + (N + 2) 2**-52, which covers that and its own rounding.
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
    """
    gains = np.asarray(gains, dtype=float)
    owners = np.asarray(owners)
    n_users, n = gains.shape
    if grid.chunk_size > 1:
        owners = np.repeat(owners, grid.chunk_sizes(), axis=1)
    g = gains[owners, np.arange(n)]
    positive = g > 0
    with np.errstate(over="ignore"):
        r = np.divide(1.0, g, out=np.full(g.shape, np.inf), where=positive)
        r.sort(axis=1, kind="stable")  # same values as any kind; measured 0.1 MB less peak RSS
        levels = (total_power * (1.0 + _POWER_REL_TOL) + r.cumsum(axis=1)) / np.arange(1, n + 1)
        mu = levels.min(axis=1) * (1.0 + (n + 2) * 2.0**-52)
        y = np.multiply(mu[:, None], g, out=np.zeros(g.shape), where=positive)
    terms = np.log2(y, out=np.zeros(g.shape), where=y > 1.0)
    bound = terms.sum(axis=1) / n * (1.0 + (n_users * n + 2 * n + n_users + 32) * 2.0**-52) + 2.0**-50
    bound[np.isnan(g).any(axis=1)] = np.nan
    return bound


def _check_allocation(powers: np.ndarray, total_power: float) -> None:
    """Raise AllocationError on a negative (or NaN) power or a total off by > 1e-9 relative."""
    if not powers.min() >= 0.0:
        raise AllocationError(f"negative or NaN power {powers.min():g} in allocation")
    if not abs(powers.sum() - total_power) <= _POWER_REL_TOL * total_power:
        raise AllocationError(
            f"allocated power {powers.sum():.12g} does not conserve total {total_power:.12g}"
        )
