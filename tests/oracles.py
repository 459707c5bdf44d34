"""Independent reference implementations used only by the tests.

Each oracle is deliberately written the slow, obvious way (explicit
loops, no shared code with the package) so a bug in the main path
cannot hide in its own checker.  The exception is
``exact_pa_oracle_direct``, an earlier form of the exact oracle kept to
pin its rewrite bit for bit; it shares the package's helpers.
"""

import cmath
import math

import numpy as np

from chunkfair.assign import Assignment
from chunkfair.errors import OracleConvergenceError
from chunkfair.power import (
    OrderedGains,
    PowerAllocation,
    _check_allocation,
    _ordered_user_gains,
    _scatter,
    prune_and_waterfill,
    waterfill_coefficients,
)


def dft_direct(taps, n_subcarriers):
    """O(N * len(taps)) evaluation of H_n = sum_i h_i exp(-j 2 pi i n / N)."""
    out = []
    for n in range(n_subcarriers):
        acc = 0j
        for i, h in enumerate(taps):
            acc += h * cmath.exp(-2j * cmath.pi * i * n / n_subcarriers)
        out.append(acc)
    return np.array(out)


def gauss_solve(a, b):
    """Dense row-reduction solve of a x = b with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = b.size
    for col in range(n - 1):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        assert abs(a[col, col]) > 0, "singular matrix"
        for row in range(col + 1, n):
            if a[row, col] != 0.0:
                factor = a[row, col] / a[col, col]
                a[row, col:] -= factor * a[col, col:]
                b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - np.dot(a[row, row + 1:], x[row + 1:])) / a[row, row]
    return x


def rates_direct(powers, gains):
    """Per-user achieved rates via an explicit double loop."""
    n_users, n = powers.shape
    out = np.zeros(n_users)
    for k in range(n_users):
        for j in range(n):
            out[k] += math.log2(1.0 + powers[k, j] * gains[k, j])
    return out / n


def deviation_direct(rates, weights):
    """Elementwise re-evaluation of the rate-constraint deviation."""
    total_r = float(sum(rates))
    total_w = float(sum(weights))
    num = 0.0
    for r, w in zip(rates, weights):
        num += abs(r / total_r - w / total_w)
    denom = 2.0 - 2.0 * min(w / total_w for w in weights)
    return num / denom


def proportional_budget_system(coeff_list, weights, total_power):
    """Budget system assembled directly from linear-rate proportionality.

    Row k states (1/w_1) * linrate_1(P_1) = (1/w_k) * linrate_k(P_k)
    with linrate_k(P) = ((P - v_k) / n_k) * gmin_k * e_k + e_k - n_k,
    which is sum(p * G) under the water-filling shape.  Returns (A, b)
    with row 0 the total-power constraint.
    """
    n_users = len(coeff_list)
    a = np.zeros((n_users, n_users))
    b = np.zeros(n_users)
    a[0, :] = 1.0
    b[0] = total_power
    c1 = coeff_list[0]
    for k in range(1, n_users):
        ck = coeff_list[k]
        a[k, 0] = c1.g_min * c1.e / (c1.n_active * weights[0])
        a[k, k] = -ck.g_min * ck.e / (ck.n_active * weights[k])
        b[k] = (
            c1.v * c1.g_min * c1.e / (c1.n_active * weights[0])
            - (c1.e - c1.n_active) / weights[0]
            - ck.v * ck.g_min * ck.e / (ck.n_active * weights[k])
            + (ck.e - ck.n_active) / weights[k]
        )
    return a, b


def _pick_direct(values, candidates, largest):
    """Lowest-index extremum of values over the sorted candidate list."""
    best = candidates[0]
    for c in candidates[1:]:
        if (values[c] > values[best]) if largest else (values[c] < values[best]):
            best = c
    return best


def _tally(counts, key, size):
    counts[key + "_scanned"] += size
    counts[key + "_strict"] += max(size - 1, 0)


def _greedy_counts():
    return {
        f"phase{p}_arg{kind}_{conv}": 0
        for p in (1, 2)
        for kind in ("max", "min")
        for conv in ("scanned", "strict")
    }


def _phase_two_direct(scores, rates, weights, owners, acc, remaining, counts):
    users = list(range(len(weights)))
    while remaining:
        k = _pick_direct([acc[u] / weights[u] for u in users], users, largest=False)
        _tally(counts, "phase2_argmin", len(users))
        m = _pick_direct(scores[k], remaining, largest=True)
        _tally(counts, "phase2_argmax", len(remaining))
        owners[m] = k
        acc[k] += rates[k, m]
        remaining.remove(m)


def proposed_sa_direct(rate_table, weights):
    """Normalised-rate two-phase assignment by explicit scans.

    Returns (owners, counts): the chunk owner tuple and a dict holding
    every comparison tally, each scan over s candidates adding s to its
    ``_scanned`` and s - 1 to its ``_strict`` entry.
    """
    rates = np.asarray(rate_table, dtype=float)
    n_users, n_chunks = rates.shape
    norm = np.ones_like(rates)
    for m in range(n_chunks):
        mean = sum(rates[k, m] for k in range(n_users)) / n_users
        if mean > 0:
            norm[:, m] = rates[:, m] / mean
    counts = _greedy_counts()
    owners = [-1] * n_chunks
    acc = [0.0] * n_users
    remaining = list(range(n_chunks))
    pending = list(range(n_users))
    while pending:
        best = {}
        for k in pending:
            best[k] = _pick_direct(norm[k], remaining, largest=True)
            _tally(counts, "phase1_argmax", len(remaining))
        ratios = [norm[k, best[k]] / weights[k] for k in pending]
        winner = pending[_pick_direct(ratios, list(range(len(pending))), largest=False)]
        _tally(counts, "phase1_argmin", len(pending))
        m = best[winner]
        owners[m] = winner
        acc[winner] += rates[winner, m]
        remaining.remove(m)
        pending.remove(winner)
    _phase_two_direct(norm, rates, weights, owners, acc, remaining, counts)
    return tuple(owners), counts


def shen_sa_direct(rate_table, weights):
    """Serial-order raw-rate assignment by explicit scans; returns (owners, counts)."""
    rates = np.asarray(rate_table, dtype=float)
    n_users, n_chunks = rates.shape
    counts = _greedy_counts()
    owners = [-1] * n_chunks
    acc = [0.0] * n_users
    remaining = list(range(n_chunks))
    for k in range(n_users):
        m = _pick_direct(rates[k], remaining, largest=True)
        _tally(counts, "phase1_argmax", len(remaining))
        owners[m] = k
        acc[k] += rates[k, m]
        remaining.remove(m)
    _phase_two_direct(rates, rates, weights, owners, acc, remaining, counts)
    return tuple(owners), counts


def chunk_rates_direct(gains, grid, power_per_subcarrier, n_total=None):
    """Per-chunk rates by one slice sum per chunk over the grid's start/stop pairs."""
    per_sc = np.log2(1.0 + power_per_subcarrier * np.atleast_2d(gains))
    table = np.empty((per_sc.shape[0], len(grid.starts)))
    for m, (start, stop) in enumerate(zip(grid.starts, grid.stops)):
        table[:, m] = per_sc[:, start:stop].sum(axis=1)
    return table / (grid.n_subcarriers if n_total is None else n_total)


def exact_pa_oracle_direct(
    assignment: Assignment,
    gains: np.ndarray,
    weights: np.ndarray,
    total_power: float,
    rel_tol: float = 1e-12,
    max_doublings: int = 200,
    max_bisections: int = 200,
) -> PowerAllocation:
    """The exact oracle as it was before its plain-float bisection.

    Kept verbatim: each bracket and bisection step builds the budget
    array and sums it with numpy, and every fixpoint pass refits every
    user.  ``power.exact_pa_oracle`` must match it bit for bit.

    Water-filling inside each user makes its rate a closed-form,
    strictly increasing function of its budget; inverting it at a common
    weighted-rate level t gives
    P_k(t) = v_k + (n_k / g_min,k) * (2**(w_k t / n_k) / W_k - 1),
    and the level is bisected until the budgets sum to the total power
    within ``rel_tol``.  If the bracket shrinks to two adjacent floats
    first, no level meets ``rel_tol``; the bracket end whose budgets sum
    closer to the total power is taken instead.  Whenever the solution
    would drive a user's budget below its v_k, that user's weakest
    subcarrier is dropped and the level re-solved, iterating to a
    fixpoint.
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    ordered = _ordered_user_gains(assignment, gains)
    n_users = assignment.n_users
    pruned = np.zeros(n_users, dtype=int)
    max_prunes = sum(og.size for og in ordered)

    for _ in range(max_prunes + 1):
        coeffs = [waterfill_coefficients(og) for og in ordered]

        def budget_at(t: float) -> np.ndarray:
            return np.array(
                [
                    c.v
                    + (c.n_active / c.g_min)
                    * (2.0 ** (weights[k] * t / c.n_active - c.log2_w) - 1.0)
                    for k, c in enumerate(coeffs)
                ]
            )

        t_hi = 1.0
        for _ in range(max_doublings):
            if budget_at(t_hi).sum() > total_power:
                break
            t_hi *= 2.0
        else:
            raise OracleConvergenceError("failed to bracket the rate level")
        t_lo = 0.0
        budgets = budget_at(t_hi)
        for _ in range(max_bisections):
            t = 0.5 * (t_lo + t_hi)
            if not t_lo < t < t_hi:
                # The bracket holds two adjacent floats and cannot move.
                budgets = min(
                    (budget_at(t_lo), budget_at(t_hi)),
                    key=lambda b: abs(b.sum() - total_power),
                )
                break
            budgets = budget_at(t)
            resid = budgets.sum() - total_power
            if abs(resid) <= rel_tol * total_power:
                break
            if resid > 0:
                t_hi = t
            else:
                t_lo = t
        else:
            raise OracleConvergenceError(
                f"bisection residual {budgets.sum() - total_power:g} "
                f"did not reach {rel_tol * total_power:g}"
            )

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
            pruned[k] += 1
    raise OracleConvergenceError("prune fixpoint did not terminate")
