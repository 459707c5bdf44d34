"""Independent reference implementations used only by the tests.

Each oracle is deliberately written the slow, obvious way (explicit
loops, no shared code with the package) so a bug in the main path
cannot hide in its own checker.  The exceptions pin the package bit
for bit: ``exact_pa_oracle_direct``, the exact oracle's bisection with
a numpy budget array; ``generate_taps_direct``, one link's taps from
two normal draws; ``linear_coefficients_direct``,
``solve_power_split_direct``, ``repair_negative_budgets_direct``,
``deviation_direct`` and ``min_weighted_rate_direct``, the numpy-array
forms of the budget system, its split, its repair and the row metrics,
which the package computes in plain floats; and
``prune_and_waterfill_direct``, ``proposed_pa_direct`` and ``exhaustive_sa_oracle_direct``, earlier
forms of the prune loop, the proposed PA and the SA oracle kept to pin
their rewrites.  They share the package's helpers, except that the two
PAs sort and scatter each user's gains alone (``order_gains_direct``,
``user_gains_direct`` and ``scatter_direct``), as they did before the
package's single sort.
``assignment_record``, ``allocation_records`` and ``float_reprs`` are
not oracles but the plain-text record formats the tests pin.
"""

import cmath
import itertools
import math

import numpy as np

from chunkfair.assign import Assignment, OracleResult
from chunkfair.errors import (
    AllocationError,
    ConfigError,
    InfeasibleError,
    OracleConvergenceError,
    UndefinedMetricError,
)
from chunkfair.metrics import _min, _total, deviation
from chunkfair.power import (
    OrderedGains,
    PowerAllocation,
    _check_allocation,
    _waterfill,
    _waterfill_v,
    prune_and_waterfill,
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


def generate_taps_direct(profile, rng):
    """One link's taps as the package drew them per link: two ``standard_normal(L)`` calls."""
    ell = profile.tap_count
    scale = np.sqrt(1.0 / (2.0 * ell))
    re = rng.standard_normal(ell)
    im = rng.standard_normal(ell)
    return scale * (re + 1j * im)


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


def deviation_elementwise(rates, weights):
    """Elementwise re-evaluation of the rate-constraint deviation."""
    total_r = float(sum(rates))
    total_w = float(sum(weights))
    num = 0.0
    for r, w in zip(rates, weights):
        num += abs(r / total_r - w / total_w)
    denom = 2.0 - 2.0 * min(w / total_w for w in weights)
    return num / denom


def deviation_direct(rates, weights):
    """``metrics.deviation`` on numpy arrays, as it was before its plain-float form; it must match bit for bit."""
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if rates.size < 2:
        raise UndefinedMetricError("deviation needs at least two users")
    total_rate = rates.sum()
    if not total_rate > 0:
        raise UndefinedMetricError("deviation undefined for zero total rate")
    weight_shares = weights / weights.sum()
    rate_shares = rates / total_rate
    denom = 2.0 - 2.0 * weight_shares.min()
    if not denom > 0:
        raise UndefinedMetricError("deviation denominator is zero")
    return float(np.abs(rate_shares - weight_shares).sum() / denom)


def deviation_listed(rates, weights):
    """``metrics.deviation`` in plain floats at every K, as it was before its array form from K = 8."""
    rates = np.asarray(rates, dtype=float).tolist()
    weights = np.asarray(weights, dtype=float).tolist()
    if len(rates) < 2:
        raise UndefinedMetricError("deviation needs at least two users")
    total_rate = _total(rates)
    if not total_rate > 0:
        raise UndefinedMetricError("deviation undefined for zero total rate")
    total_weight = _total(weights)
    weight_shares = [w / total_weight for w in weights]
    denom = 2.0 - 2.0 * _min(weight_shares)
    if not denom > 0:
        raise UndefinedMetricError("deviation denominator is zero")
    return _total([abs(r / total_rate - s) for r, s in zip(rates, weight_shares, strict=True)]) / denom


def min_weighted_rate_listed(rates, weights):
    """``metrics.min_weighted_rate`` in plain floats at every K, as it was before its array form from K = 8."""
    rates = np.asarray(rates, dtype=float).tolist()
    weights = np.asarray(weights, dtype=float).tolist()
    return _min([r / w for r, w in zip(rates, weights, strict=True)])


def min_weighted_rate_direct(rates, weights):
    """``metrics.min_weighted_rate`` on numpy arrays, as it was before its plain-float form."""
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float((rates / weights).min())


def float_reprs(values):
    """Each value's round-trip repr: equal lists hold equal floats bit for bit, -0.0 included, NaNs alike."""
    return [repr(float(v)) for v in np.asarray(values, dtype=float).ravel()]


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
        a[k, 0] = c1.g_min * c1.e / (c1.size * weights[0])
        a[k, k] = -ck.g_min * ck.e / (ck.size * weights[k])
        b[k] = (
            c1.v * c1.g_min * c1.e / (c1.size * weights[0])
            - (c1.e - c1.size) / weights[0]
            - ck.v * ck.g_min * ck.e / (ck.size * weights[k])
            + (ck.e - ck.size) / weights[k]
        )
    return a, b


def linear_coefficients_direct(ordered, weights):
    """``power.linear_coefficients`` on numpy arrays, as it was before its plain-float form."""
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


def solve_power_split_direct(alphas, betas, total_power):
    """``power.solve_power_split`` on numpy arrays, as it was before its plain-float form."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    inv = 1.0 / alphas
    p1 = (total_power - (betas * inv).sum()) / (1.0 - inv.sum())
    rest = (betas - p1) * inv
    return np.concatenate(([p1], rest))


def repair_negative_budgets_direct(budgets):
    """``power.repair_negative_budgets`` on numpy arrays, as it was before its plain-float form."""
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
    """Per-chunk rates by one slice sum per chunk; chunk m starts at m L, the last ends at N."""
    per_sc = np.log2(1.0 + power_per_subcarrier * np.atleast_2d(gains))
    bounds = [m * grid.chunk_size for m in range(grid.n_chunks)] + [grid.n_subcarriers]
    table = np.empty((per_sc.shape[0], grid.n_chunks))
    for m, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        table[:, m] = per_sc[:, start:stop].sum(axis=1)
    return table / (grid.n_subcarriers if n_total is None else n_total)


def assignment_record(assignment):
    """Plain-text record, one line per user: 'user <k>: <sorted 1-based chunks>'."""
    lines = []
    for k in range(assignment.n_users):
        chunks = " ".join(str(m + 1) for m, owner in enumerate(assignment.owners) if owner == k)
        lines.append(f"user {k + 1}: {chunks}".rstrip())
    return "\n".join(lines) + "\n"


def allocation_records(alloc):
    """Plain-text record: one 'budget | active set | powers' line per user."""
    lines = []
    for k in range(alloc.budgets.size):
        active = np.flatnonzero(alloc.powers[k] > 0)
        powers = " ".join(format(p, ".12g") for p in alloc.powers[k, active])
        subs = " ".join(str(int(n) + 1) for n in active)
        lines.append(f"user {k + 1}: budget {format(alloc.budgets[k], '.12g')} | "
                     f"subcarriers {subs} | powers {powers}")
    return "\n".join(lines) + "\n"


def order_gains_direct(gains, subcarriers):
    """One user's gains sorted ascending alone (stably), dropping those not > 0: (record, subcarriers)."""
    gains = np.asarray(gains, dtype=float)
    subcarriers = np.asarray(subcarriers, dtype=int)
    order = np.argsort(gains, kind="stable")
    order = order[gains[order] > 0]
    return OrderedGains.of(gains[order]), subcarriers[order]


def user_gains_direct(assignment, gains):
    """``order_gains_direct`` of each user's owned subcarriers, found and sorted one user at a time."""
    records = []
    for k in range(assignment.n_users):
        subs = np.flatnonzero(assignment.subcarrier_owners == k)
        try:
            records.append(order_gains_direct(gains[k, subs], subs))
        except InfeasibleError:
            raise InfeasibleError(f"user {k} has no positive-gain subcarrier") from None
    return records


def scatter_direct(assignment, per_user):
    """(K, N) powers from one (subcarriers, powers) pair per user; every other entry is zero."""
    powers = np.zeros((assignment.n_users, assignment.grid.n_subcarriers))
    for k, (subs, p) in enumerate(per_user):
        powers[k, subs] = p
    return powers


def exact_pa_oracle_direct(
    assignment: Assignment,
    gains: np.ndarray,
    weights: np.ndarray,
    total_power: float,
) -> PowerAllocation:
    """The exact oracle's bisection with a numpy budget array at every step.

    The same bracket doublings and bisection as ``power.exact_pa_oracle``,
    but each step builds the budget array and sums it with numpy, so it
    pins the rounding of ``power._level_budgets`` and the summation order
    of ``metrics._total``; the oracle must match it bit for bit.  It reads
    each user's v, size and g_min from its gain record, and computes
    log2_w, the log2 of the geometric-mean gain ratio, from the record's
    gains.

    Water-filling inside each user makes its rate a closed-form,
    strictly increasing function of its budget; inverting it at a common
    weighted-rate level t gives
    P_k(t) = v_k + (n_k / g_min,k) * (2**(w_k t / n_k) / W_k - 1),
    and the level is bisected until the budgets sum to the total power
    within 1e-12 relative, in at most 200 bracket doublings and 200
    bisection steps.  If the bracket shrinks to two adjacent floats
    first, no level meets that tolerance; the bracket end whose budgets
    sum closer to the total power is taken instead.  Whenever the
    solution would drive a user's budget below its v_k, that user's
    weakest subcarrier is dropped and the level re-solved, iterating to
    a fixpoint.
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    records = user_gains_direct(assignment, gains)
    ordered = [og for og, _ in records]
    subs = [subcarriers for _, subcarriers in records]
    n_users = assignment.n_users
    pruned = np.zeros(n_users, dtype=int)
    max_prunes = sum(og.size for og in ordered)

    for _ in range(max_prunes + 1):
        log2_w = [float(np.log2(c.values[1:] / c.g_min).sum()) / c.size for c in ordered]

        def budget_at(t: float) -> np.ndarray:
            return np.array(
                [
                    c.v
                    + (c.size / c.g_min)
                    * (2.0 ** (weights[k] * t / c.size - log2_w[k]) - 1.0)
                    for k, c in enumerate(ordered)
                ]
            )

        t_hi = 1.0
        for _ in range(200):
            if budget_at(t_hi).sum() > total_power:
                break
            t_hi *= 2.0
        else:
            raise OracleConvergenceError("failed to bracket the rate level")
        t_lo = 0.0
        budgets = budget_at(t_hi)
        for _ in range(200):
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
            if abs(resid) <= 1e-12 * total_power:
                break
            if resid > 0:
                t_hi = t
            else:
                t_lo = t
        else:
            raise OracleConvergenceError(
                f"bisection residual {budgets.sum() - total_power:g} "
                f"did not reach {1e-12 * total_power:g}"
            )

        violations = [
            k
            for k, c in enumerate(ordered)
            if budgets[k] < c.v - 1e-12 * max(c.v, total_power) and c.size > 1
        ]
        if not violations:
            per_user = []
            for k, og in enumerate(ordered):
                p, extra = prune_and_waterfill(max(budgets[k], og.v), og)
                pruned[k] += extra
                per_user.append((subs[k], p))
            powers = scatter_direct(assignment, per_user)
            _check_allocation(powers, total_power)
            return PowerAllocation(
                budgets=budgets,
                powers=powers,
                repaired=np.zeros(n_users, dtype=bool),
                pruned=pruned,
            )
        for k in violations:
            ordered[k] = OrderedGains.of(ordered[k].values[1:])
            subs[k] = subs[k][1:]
            pruned[k] += 1
    raise OracleConvergenceError("prune fixpoint did not terminate")


def prune_and_waterfill_direct(budget, ordered):
    """The prune loop as it was before its certified start: one exact ``v`` per dropped subcarrier.

    ``power.prune_and_waterfill`` must match it bit for bit.
    """
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    g = ordered.values
    powers = np.zeros(g.size)
    start = 0
    v = ordered.v
    while not (budget >= v or start == g.size - 1):
        start += 1  # weakest gain leaves the active set
        v = _waterfill_v(g[start:])
    powers[start:] = _waterfill(budget, v, g[start:])
    return powers, start


def proposed_pa_direct(assignment, gains, weights, total_power):
    """The proposed PA as it was before its single pass: one record and one prune call per user.

    Each user's subcarriers are found and sorted alone, the budget
    system is built, split and repaired on numpy arrays, and every
    user's budget goes through ``prune_and_waterfill``.
    ``power.proposed_pa`` must match it bit for bit.
    """
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    records = user_gains_direct(assignment, gains)
    ordered = [og for og, _ in records]
    alphas, betas = linear_coefficients_direct(ordered, weights)
    budgets, repaired = repair_negative_budgets_direct(solve_power_split_direct(alphas, betas, total_power))
    per_user = []
    pruned = np.zeros(assignment.n_users, dtype=int)
    for k, (og, subs) in enumerate(records):
        p, n_pruned = prune_and_waterfill(budgets[k], og)
        pruned[k] = n_pruned
        per_user.append((subs, p))
    powers = scatter_direct(assignment, per_user)
    _check_allocation(powers, total_power)
    return PowerAllocation(
        budgets=budgets,
        powers=powers,
        repaired=repaired,
        pruned=pruned,
    )


def exhaustive_sa_oracle_direct(weights, grid, pa_solver):
    """The SA oracle's search as it was before its lazy deviation: every candidate gets one.

    A candidate whose sum rate is NaN is passed over, and a search with
    no other candidate raises AllocationError.

    ``assign.exhaustive_sa_oracle`` must match it bit for bit.
    """
    weights = np.asarray(weights, dtype=float)
    n_users = weights.size
    best = None
    examined = 0
    for owners in itertools.product(range(n_users), repeat=grid.n_chunks):
        if len(set(owners)) < n_users:
            continue
        examined += 1
        cand = Assignment(grid=grid, owners=owners, n_users=n_users)
        rates = np.asarray(pa_solver(cand), dtype=float)
        total_rate = float(rates.sum())
        if math.isnan(total_rate):
            continue  # a NaN sum rate never wins
        if n_users >= 2 and total_rate > 0:
            dev = deviation(rates, weights)
        else:
            dev = 0.0
        key = (-total_rate, dev, owners)
        if best is None or key < best[0]:
            best = (key, cand, rates)
    if best is None:
        raise AllocationError(f"all {examined} candidate assignments have a NaN sum rate")
    (_, cand, rates) = best
    return OracleResult(
        assignment=cand,
        sum_rate=float(rates.sum()),
        deviation=best[0][1],
        rates=rates,
        candidates=examined,
    )
