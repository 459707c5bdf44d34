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

from .assign import Assignment
from .errors import (
    AllocationError,
    ConfigError,
    InfeasibleError,
    OracleConvergenceError,
    ZeroGainError,
)

__all__ = [
    "OrderedGains",
    "WaterfillCoefficients",
    "PowerAllocation",
    "order_gains",
    "drop_zero_gains",
    "waterfill_coefficients",
    "linear_coefficients",
    "solve_power_split",
    "repair_negative_budgets",
    "prune_and_waterfill",
    "proposed_pa",
    "uniform_pa",
    "exact_pa_oracle",
    "user_rates",
]

_SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class OrderedGains:
    """One user's gains sorted ascending, with the owning subcarrier indices."""

    values: np.ndarray
    subcarriers: np.ndarray

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class WaterfillCoefficients:
    """Water-filling summary statistics of one user's ordered gains.

    ``v`` is the power consumed by equalising the water level across the
    active set when the weakest subcarrier gets zero power, ``e`` the sum
    of gains relative to the weakest, and ``w`` the geometric-mean gain
    ratio (kept alongside its log2 for overflow-free arithmetic).
    """

    n_active: int
    g_min: float
    v: float
    e: float
    w: float
    log2_w: float


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user budgets and per-subcarrier powers for one assignment."""

    budgets: np.ndarray       # (K,)
    powers: np.ndarray        # (K, N)
    repaired: np.ndarray      # (K,) bool, touched by the negative-budget repair
    pruned: np.ndarray        # (K,) int, subcarriers zeroed by the budget loop
    singular_fallback: bool = False

    def active_set(self, user: int) -> np.ndarray:
        return np.flatnonzero(self.powers[user] > 0)

    def untouched(self) -> np.ndarray:
        """Users whose budgets went through neither repair nor pruning."""
        return ~self.repaired & (self.pruned == 0)

    def to_records(self) -> str:
        """Plain-text record: one 'budget | active set | powers' line per user."""
        lines = []
        for k in range(self.budgets.size):
            active = self.active_set(k)
            powers = " ".join(format(p, ".12g") for p in self.powers[k, active])
            subs = " ".join(str(int(n) + 1) for n in active)
            lines.append(f"user {k + 1}: budget {format(self.budgets[k], '.12g')} | "
                         f"subcarriers {subs} | powers {powers}")
        return "\n".join(lines) + "\n"


def order_gains(gains: np.ndarray, subcarriers: np.ndarray) -> OrderedGains:
    """Sort one user's gains ascending, keeping the subcarrier permutation."""
    gains = np.asarray(gains, dtype=float)
    subcarriers = np.asarray(subcarriers, dtype=int)
    order = np.argsort(gains, kind="stable")
    return OrderedGains(values=gains[order], subcarriers=subcarriers[order])


def drop_zero_gains(ordered: OrderedGains) -> OrderedGains:
    """Remove zero-gain subcarriers; they can never carry power."""
    keep = ordered.values > 0
    return OrderedGains(values=ordered.values[keep], subcarriers=ordered.subcarriers[keep])


def waterfill_coefficients(ordered: OrderedGains) -> WaterfillCoefficients:
    """Compute the water-filling statistics (v, e, w) of one user.

    Requires a non-empty active set with strictly positive gains; the
    geometric mean ``w`` is evaluated in the log domain so long gain
    vectors cannot overflow the product.
    """
    g = ordered.values
    if g.size == 0:
        raise InfeasibleError("user has no subcarriers")
    g1 = float(g[0])
    if g1 <= 0:
        raise ZeroGainError("zero-gain subcarrier in active set; drop it first")
    v = float(((g[1:] - g1) / (g[1:] * g1)).sum())
    e = float((g / g1).sum())
    log2_w = float(np.log2(g[1:] / g1).sum()) / g.size
    return WaterfillCoefficients(
        n_active=g.size, g_min=g1, v=v, e=e, w=float(2.0**log2_w), log2_w=log2_w
    )


def linear_coefficients(
    coeffs: list[WaterfillCoefficients],
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Row parameters (alpha_k, beta_k) of the linearised budget system.

    Row k (k = 2..K) reads P_1 + alpha_k * P_k = beta_k and encodes that
    user k's linearised rate over its weight equals user 1's.  Entry 0
    of each returned array corresponds to user 2.
    """
    weights = np.asarray(weights, dtype=float)
    n_users = len(coeffs)
    if n_users != weights.size:
        raise ConfigError("one coefficient set per user required")
    c1 = coeffs[0]
    alphas = np.empty(n_users - 1)
    betas = np.empty(n_users - 1)
    for k in range(1, n_users):
        ck = coeffs[k]
        wr = weights[0] / weights[k]
        alpha = -wr * (ck.e * c1.n_active * ck.g_min) / (c1.e * ck.n_active * c1.g_min)
        beta = (
            wr * ck.e * c1.n_active / (c1.e * c1.g_min)
            - wr * c1.n_active * ck.n_active / (c1.e * c1.g_min)
            + alpha * ck.v
            + (c1.n_active / c1.g_min) * (c1.n_active / c1.e - 1.0)
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
    back to budgets proportional to the rate weights.
    """
    weights = np.asarray(weights, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    n_users = weights.size
    if n_users == 1:
        return np.array([float(total_power)]), False
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
    Returns (budgets, group_mask); the total is preserved.
    """
    budgets = np.asarray(budgets, dtype=float).copy()
    mask = np.zeros(budgets.size, dtype=bool)
    if budgets.min() >= 0:
        return budgets, mask
    if budgets.sum() < 0:
        raise ConfigError("total budget must be non-negative for repair")
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


def prune_and_waterfill(
    budget: float,
    ordered: OrderedGains,
) -> tuple[np.ndarray, int]:
    """Water-fill one user's budget over its ordered gains.

    While the budget cannot keep the weakest active subcarrier at
    non-negative power, that subcarrier is dropped.  The remaining set
    gets p_(1) = (budget - v) / n on the weakest and the water-level
    increments (g_(n) - g_(1)) / (g_(n) g_(1)) on the rest.

    Returns (powers aligned with ``ordered.values``, pruned_count);
    pruned subcarriers hold exactly zero.
    """
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    g = ordered.values
    if g.size == 0:
        raise InfeasibleError("user has no subcarriers")
    if g[0] <= 0:
        raise ZeroGainError("zero-gain subcarrier in active set; drop it first")
    powers = np.zeros(g.size)
    start = 0
    while True:
        active = g[start:]
        v = float(((active[1:] - active[0]) / (active[1:] * active[0])).sum())
        if budget >= v or active.size == 1:
            break
        start += 1  # weakest gain leaves the active set
    active = g[start:]
    p1 = (budget - v) / active.size
    powers[start:] = p1 + (active - active[0]) / (active * active[0])
    return powers, start


def _ordered_user_gains(assignment: Assignment, gains: np.ndarray) -> list[OrderedGains]:
    out = []
    for k in range(assignment.n_users):
        subs = assignment.subcarriers_of(k)
        og = drop_zero_gains(order_gains(gains[k, subs], subs))
        if og.size == 0:
            raise InfeasibleError(f"user {k} has no positive-gain subcarrier")
        out.append(og)
    return out


def _scatter(assignment: Assignment, per_user, n_users: int) -> np.ndarray:
    powers = np.zeros((n_users, assignment.grid.n_subcarriers))
    for k, (og, p) in enumerate(per_user):
        powers[k, og.subcarriers] = p
    return powers


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
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    ordered = _ordered_user_gains(assignment, gains)
    coeffs = [waterfill_coefficients(og) for og in ordered]
    if assignment.n_users == 1:
        budgets = np.array([float(total_power)])
        fallback = False
    else:
        alphas, betas = linear_coefficients(coeffs, weights)
        budgets, fallback = solve_power_split(alphas, betas, total_power, weights)
    budgets, repaired = repair_negative_budgets(budgets)
    per_user = []
    pruned = np.zeros(assignment.n_users, dtype=int)
    for k, og in enumerate(ordered):
        p, n_pruned = prune_and_waterfill(budgets[k], og)
        pruned[k] = n_pruned
        per_user.append((og, p))
    powers = _scatter(assignment, per_user, assignment.n_users)
    _check_allocation(powers, total_power)
    return PowerAllocation(
        budgets=budgets,
        powers=powers,
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


def exact_pa_oracle(
    assignment: Assignment,
    gains: np.ndarray,
    weights: np.ndarray,
    total_power: float,
    rel_tol: float = 1e-12,
    max_doublings: int = 200,
    max_bisections: int = 200,
) -> PowerAllocation:
    """Exact proportional-rate allocation by bisection on the rate level.

    Water-filling inside each user makes its rate a closed-form,
    strictly increasing function of its budget; inverting it at a common
    weighted-rate level t gives
    P_k(t) = v_k + (n_k / g_min,k) * (2**(w_k t / n_k) / W_k - 1),
    and the level is bisected until the budgets sum to the total power
    within ``rel_tol``.  If the bracket shrinks to two adjacent floats
    first, no level meets ``rel_tol``; the bracket end whose budgets sum
    closer to the total power is taken instead.  Whenever the solution
    would drive a user's budget below its v_k, that user's weakest
    subcarrier is dropped, its coefficients are refitted and the level
    re-solved, iterating to a fixpoint.

    Each step evaluates the budgets as plain floats and sums them in
    ``ndarray.sum()``'s order; the budget array is built once, at the
    level the bisection settles on.
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    ordered = _ordered_user_gains(assignment, gains)
    coeffs = [waterfill_coefficients(og) for og in ordered]
    n_users = assignment.n_users
    pruned = np.zeros(n_users, dtype=int)
    max_prunes = sum(og.size for og in ordered)

    for _ in range(max_prunes + 1):
        fit = [
            (c.v, c.n_active / c.g_min, float(weights[k]), c.n_active, c.log2_w)
            for k, c in enumerate(coeffs)
        ]
        t_hi = 1.0
        for _ in range(max_doublings):
            total = _total(_level_budgets(fit, t_hi))
            if total > total_power:
                break
            t_hi *= 2.0
        else:
            raise OracleConvergenceError("failed to bracket the rate level")
        t_lo = 0.0
        level = t_hi
        for _ in range(max_bisections):
            t = 0.5 * (t_lo + t_hi)
            if not t_lo < t < t_hi:
                # The bracket holds two adjacent floats and cannot move.
                level = min(
                    (t_lo, t_hi),
                    key=lambda s: abs(_total(_level_budgets(fit, s)) - total_power),
                )
                break
            level = t
            total = _total(_level_budgets(fit, t))
            resid = total - total_power
            if abs(resid) <= rel_tol * total_power:
                break
            if resid > 0:
                t_hi = t
            else:
                t_lo = t
        else:
            raise OracleConvergenceError(
                f"bisection residual {total - total_power:g} "
                f"did not reach {rel_tol * total_power:g}"
            )
        budgets = np.array(_level_budgets(fit, level))

        violations = [
            k
            for k, c in enumerate(coeffs)
            if budgets[k] < c.v - 1e-12 * max(c.v, total_power) and ordered[k].size > 1
        ]
        if not violations:
            per_user = []
            for k, og in enumerate(ordered):
                p, extra = prune_and_waterfill(max(budgets[k], coeffs[k].v), og)
                pruned[k] += extra
                per_user.append((og, p))
            powers = _scatter(assignment, per_user, n_users)
            _check_allocation(powers, total_power)
            return PowerAllocation(
                budgets=budgets,
                powers=powers,
                repaired=np.zeros(n_users, dtype=bool),
                pruned=pruned,
            )
        for k in violations:
            og = ordered[k]
            ordered[k] = OrderedGains(values=og.values[1:], subcarriers=og.subcarriers[1:])
            coeffs[k] = waterfill_coefficients(ordered[k])
            pruned[k] += 1
    raise OracleConvergenceError("prune fixpoint did not terminate")


def user_rates(powers: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Achieved per-user rates (1/N) * sum_n log2(1 + p * G)."""
    powers = np.asarray(powers, dtype=float)
    gains = np.asarray(gains, dtype=float)
    n = powers.shape[1]
    return np.log2(1.0 + powers * gains).sum(axis=1) / n


def _check_allocation(powers: np.ndarray, total_power: float) -> None:
    """Raise AllocationError on a negative (or NaN) power or a total off by > 1e-9 relative."""
    if not powers.min() >= 0.0:
        raise AllocationError(f"negative or NaN power {powers.min():g} in allocation")
    if not abs(powers.sum() - total_power) <= 1e-9 * total_power:
        raise AllocationError(
            f"allocated power {powers.sum():.12g} does not conserve total {total_power:.12g}"
        )
