"""Independent reference implementations used to cross-check the solvers.

These stay deliberately dumb: bisection instead of sorting, exhaustive grids
instead of KKT conditions, finite differences instead of backprop.
"""

from itertools import combinations

import numpy as np

from beamalloc.allocators import _PINNED_MAX_INNER, _PINNED_TOL, RATE_REL_TOL
from beamalloc.feasibility import m_matrix_solve
from beamalloc.waterfill import waterfill


def waterfill_bisection(c, budget, iters=200):
    """Bisection on the water level for max sum log2(1 + p/c), sum p <= P."""
    c = np.asarray(c, dtype=float)
    if budget <= 0:
        return np.zeros_like(c)
    lo, hi = float(c.min()), float(c.max()) + budget
    for _ in range(iters):
        w = 0.5 * (lo + hi)
        if np.maximum(0.0, w - c).sum() > budget:
            hi = w
        else:
            lo = w
    return np.maximum(0.0, 0.5 * (lo + hi) - c)


def waterfill_reference(inverse_gains, budget):
    """The water-fill as first written: argsort, then the levels, the active
    set and the output each as fresh arrays.  The solver must equal it bit for
    bit and raise the same errors."""
    c = np.asarray(inverse_gains, dtype=float)
    if c.size == 0:
        raise ValueError("water-filling needs at least one channel")
    if not (c.min() > 0 and c.max() < np.inf):  # NaN fails both
        raise ValueError("inverse gains must be finite and strictly positive")
    P = float(budget)
    if not 0.0 <= P < np.inf:
        raise ValueError("budget must be finite and nonnegative")
    if P == 0.0:
        return np.zeros_like(c)
    order = np.argsort(c, kind="stable")
    cs = c[order]
    csum = np.cumsum(cs)
    # water level if exactly the m cheapest channels are active
    m_range = np.arange(1, c.size + 1)
    levels = (P + csum) / m_range
    # the active set is the largest m with level_m > c_m (all m channels above water)
    active = levels > cs
    if not active.any():
        # P below the rounding of the cheapest cost: the KKT limit as P -> 0
        # gives the whole budget to the cheapest channels, split equally
        cheapest = c == cs[0]
        return np.where(cheapest, P / cheapest.sum(), 0.0)
    m = int(np.nonzero(active)[0][-1]) + 1
    w = levels[m - 1]
    p = np.maximum(0.0, w - c)
    # strip float residue so the budget is tight to ~1e-16 relative
    scale = P / p.sum()
    return p * scale


def waterfill_objective(c, p, bandwidth=1.0):
    return float(np.sum(bandwidth * np.log2(1.0 + np.asarray(p) / np.asarray(c))))


def _grid_axis(n):
    return np.arange(n + 1)


def simplex_grid_best(c, budget, step_frac=1e-3, bandwidth=1.0):
    """Best objective over an exhaustive grid of the budget simplex.

    m <= 3 enumerates the full grid at `step_frac`*budget resolution.  m = 4
    first enumerates a coarse 10x grid, then exhaustively refines the window
    of +-2 coarse cells around the coarse optimum at full resolution; for the
    strictly concave objective the fine-grid optimum lies in that window.
    """
    c = np.asarray(c, dtype=float)
    m = c.size
    P = float(budget)
    if P <= 0:
        return 0.0
    n = int(round(1.0 / step_frac))
    step = P / n
    if m == 1:
        return waterfill_objective(c, np.array([P]), bandwidth)
    if m == 2:
        p1 = _grid_axis(n) * step
        obj = bandwidth * (np.log2(1 + p1 / c[0]) + np.log2(1 + (P - p1) / c[1]))
        return float(obj.max())
    if m == 3:
        return _grid3_best(c, P, n, step, bandwidth)
    if m == 4:
        coarse_n = max(10, n // 10)
        best_idx = _grid4_best(c, P, coarse_n, P / coarse_n, bandwidth, None)[1]
        center = np.array(best_idx) * (P / coarse_n)
        span = 2 * (P / coarse_n)
        return _grid4_best(c, P, n, step, bandwidth, (center, span))[0]
    raise ValueError("grid oracle supports m <= 4")


def _grid3_best(c, P, n, step, bandwidth):
    i, j = np.meshgrid(_grid_axis(n), _grid_axis(n), indexing="ij")
    keep = i + j <= n
    p1 = i[keep] * step
    p2 = j[keep] * step
    p3 = P - p1 - p2
    obj = bandwidth * (
        np.log2(1 + p1 / c[0]) + np.log2(1 + p2 / c[1]) + np.log2(1 + p3 / c[2])
    )
    return float(obj.max())


def _grid4_best(c, P, n, step, bandwidth, window):
    if window is None:
        ax1 = ax2 = ax3 = _grid_axis(n) * step
    else:
        center, span = window
        axes = []
        for dim in range(3):
            lo = max(0.0, center[dim] - span)
            hi = min(P, center[dim] + span)
            axes.append(np.arange(lo, hi + step / 2, step))
        ax1, ax2, ax3 = axes
    p1, p2, p3 = np.meshgrid(ax1, ax2, ax3, indexing="ij")
    p4 = P - p1 - p2 - p3
    keep = p4 >= -1e-12
    p1, p2, p3, p4 = p1[keep], p2[keep], p3[keep], np.maximum(p4[keep], 0.0)
    obj = bandwidth * (
        np.log2(1 + p1 / c[0])
        + np.log2(1 + p2 / c[1])
        + np.log2(1 + p3 / c[2])
        + np.log2(1 + p4 / c[3])
    )
    best = int(np.argmax(obj))
    return float(obj[best]), (p1[best], p2[best], p3[best])


def max_satisfiable_set(Q, demands, noise_power, bandwidth_mhz, p_max, rel_tol):
    """Largest user set S whose demands, scaled by 1 - rel_tol, can all be met
    with every other user switched off: (I - R_SS Q_SS) p_S = nu_S has a
    positive solution with sum p_S <= p_max.  Any budget-feasible allocation
    that meets the demands of S certifies S, because the other users' power
    only adds interference, so no allocator satisfies more users.  Exhaustive
    over subsets, largest first: at most 2^K small solves."""
    Q = np.asarray(Q, dtype=float)
    g = np.diag(Q)
    alpha = 2.0 ** (np.asarray(demands, dtype=float) * (1.0 - rel_tol) / bandwidth_mhz) - 1.0
    r = alpha / ((alpha + 1.0) * g)
    nu = r * noise_power
    k = len(g)
    for size in range(k, 0, -1):
        for subset in combinations(range(k), size):
            s = list(subset)
            p = m_matrix_solve(np.eye(size) - r[s, None] * Q[np.ix_(s, s)], nu[s])
            if p is not None and p.sum() <= p_max:
                return frozenset(subset)
    return frozenset()


def solve_pinned_per_sweep(ds, pinned, p_budget, p_start):
    """The pinned-set alternation with one fresh solve of the pinned block per
    sweep: the reference for `allocators._solve_pinned`, which factors the
    block once per call.  Same contract: (powers, ok), p_start itself on a
    pinned spectral radius >= 1."""
    gains, sigma2 = ds.Qm, ds.noise_power
    g_kk = np.diag(gains)
    if not pinned.any():
        return waterfill(sigma2 / g_kk, p_budget), True
    s_idx = np.nonzero(pinned)[0]
    c_idx = np.nonzero(~pinned)[0]
    r_s = ds.R[s_idx]
    nu_s = ds.nu[s_idx]
    rq_ss = r_s[:, None] * gains[np.ix_(s_idx, s_idx)]
    a = np.eye(len(s_idx)) - rq_ss
    q_sc, q_c, g_c = gains[np.ix_(s_idx, c_idx)], gains[c_idx], g_kk[c_idx]
    p = p_start.copy()
    for _ in range(_PINNED_MAX_INNER):
        p_old = p.copy()
        interf_c = q_sc @ p[c_idx] if c_idx.size else 0.0
        # the right-hand side is >= nu_s > 0
        p_s = m_matrix_solve(a, nu_s + r_s * interf_c)
        if p_s is None:
            return p_start, False
        p[s_idx] = p_s
        leftover = p_budget - p_s.sum()
        if c_idx.size:
            if leftover > 0:
                interf = q_c @ p - g_c * p[c_idx]
                p[c_idx] = waterfill((sigma2 + interf) / g_c, leftover)
            else:
                p[c_idx] = 0.0
        if np.max(np.abs(p - p_old)) <= _PINNED_TOL * max(1.0, p_budget):
            break
    else:
        return p, False
    if p[s_idx].sum() > p_budget * (1.0 + 1e-12):
        return p, False
    return p, True


def satis_set_reference(link, W, qos, cfg, joint):
    """The satisfied-set allocation of the instance that `joint`, its joint_opt
    result, solved, written from the strategy's definition: (powers, outcome).
    Under congestion it is joint's own allocation.  Otherwise each user gets
    its minimum power plus an equal share of the surplus; under interference
    (any precoder but ZF) a split that leaves some user below its demand gives
    way to the minimum powers scaled up to the budget."""
    if joint.min_powers is None:
        return joint.powers, joint.outcome
    p_min, k, budget = joint.min_powers, len(qos.demands), cfg.p_max_w
    p = p_min + (budget - p_min.sum()) / k
    if W.kind != "zf":
        for u in range(k):
            interference = sum(link.Q[u, j] * p[j] for j in range(k) if j != u)
            rate = cfg.bandwidth_mhz * np.log2(1.0 + link.Q[u, u] * p[u] / (cfg.noise_power_w + interference))
            if rate < qos.demands[u] * (1.0 - RATE_REL_TOL):
                return p_min * (budget / p_min.sum()), "feasible_guard_scaled"
    return p, "feasible_closed_form"


def numeric_grads(weights, biases, x, t, eps=1e-5):
    """Central-difference gradients of the batch-mean squared error norm."""

    def loss(ws, bs):
        a = x
        last = len(ws) - 1
        for i, (w, b) in enumerate(zip(ws, bs)):
            a = a @ w + b
            if i < last:
                a = np.maximum(a, 0.0)
        return float(np.sum((a - t) ** 2) / x.shape[0])

    grad_w = [np.zeros_like(w) for w in weights]
    grad_b = [np.zeros_like(b) for b in biases]
    for li, w in enumerate(weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            up = loss(weights, biases)
            w[idx] = orig - eps
            dn = loss(weights, biases)
            w[idx] = orig
            grad_w[li][idx] = (up - dn) / (2 * eps)
    for li, b in enumerate(biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + eps
            up = loss(weights, biases)
            b[idx] = orig - eps
            dn = loss(weights, biases)
            b[idx] = orig
            grad_b[li][idx] = (up - dn) / (2 * eps)
    return grad_w, grad_b
