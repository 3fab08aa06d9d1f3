"""Power-allocation strategies: equal power, sum-rate maximization, and the
joint satisfied-set / sum-rate optimizers (generic, ZF and RZF variants).

The joint optimizers prioritize the number of satisfied users over the sum
rate (lexicographic weighting): satisfied users are pinned at exactly their
demands and every remaining watt goes to the rest through water-filling.
Every allocator takes the channel or its prebuilt Link for the precoder W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import SystemConfig
from .feasibility import (
    DemandSystem, build_demand_system, check_feasible, m_matrix_solve, sinr_targets
)
from .metrics import rates
from .precoding import Precoder, effective_gains
from .waterfill import waterfill

# Relative tolerance for demand-satisfaction membership tests; float noise on
# pinned equality constraints sits far below this.
RATE_REL_TOL = 1e-6

_PINNED_TOL = 1e-8
_PINNED_MAX_INNER = 100
# relative margin of the diagonal congestion bound over P_max; the bound and
# the certified minimum powers each carry a relative rounding error far below it
_BOUND_MARGIN = 1.0 + 1e-9


@dataclass(frozen=True)
class QoSProfile:
    """Per-user rate demands [Mbps] and RZF relaxation tolerances [Mbps]."""

    demands: np.ndarray
    tolerances: np.ndarray

    def __post_init__(self):
        # read-only copies: results derive their satisfied sets from them on read
        d = np.array(self.demands, dtype=float)
        t = np.array(self.tolerances, dtype=float)
        if not np.all(np.isfinite(d) & (d > 0)):
            raise ValueError("demands must be finite and strictly positive")
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValueError("tolerances must be finite and nonnegative")
        if d.shape != t.shape:
            raise ValueError("demands and tolerances must have equal length")
        d.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "tolerances", t)

    @classmethod
    def uniform(cls, xi_mbps: float, n_users: int, omega_frac: float = 0.02):
        return cls.per_user(np.full(n_users, float(xi_mbps)), omega_frac)

    @classmethod
    def per_user(cls, demands, omega_frac: float = 0.02):
        d = np.asarray(demands, dtype=float)
        return cls(demands=d, tolerances=omega_frac * d)


@dataclass(frozen=True)
class AllocationResult:
    """One allocation; `satisfied` and `trace` derive from its rates and demands on first read."""

    powers: np.ndarray
    rates_mbps: np.ndarray
    demands: np.ndarray = field(repr=False)
    iterations: int
    _trace: list | None = field(repr=False)  # the growth's (|Q|, sum rate) list; None for one iterate
    # joint and satisset only: feasible_closed_form, feasible_guard_repaired,
    # feasible_guard_scaled, congested_growth or not_converged
    outcome: str | None = None
    # joint and satisset only: the minimum powers a feasible outcome topped up
    min_powers: np.ndarray | None = None

    @cached_property
    def satisfied(self) -> frozenset:  # 0-based user indices meeting their demand
        return frozenset(satisfied_mask(self.rates_mbps, self.demands).nonzero()[0].tolist())

    @cached_property
    def trace(self) -> tuple:  # ((|Q|, sum rate) per iterate); without growth, the single entry
        return tuple(self._trace) if self._trace else ((len(self.satisfied), float(self.rates_mbps.sum())),)

    @property
    def converged(self) -> bool:
        return self.outcome != "not_converged"

    @property
    def congested(self) -> bool:
        return len(self.satisfied) < len(self.rates_mbps)


def satisfied_mask(rates_mbps: np.ndarray, demands: np.ndarray) -> np.ndarray:
    return rates_mbps >= demands * (1.0 - RATE_REL_TOL)


def _finish(link, W, cfg, qos, p, iterations, trace=None, outcome=None, r=None, min_powers=None):
    """The result of powers `p` on their served rates `r` (full interference),
    scored against the demands of `qos` on read."""
    if r is None:
        r = rates(link, W, p, cfg)
    return AllocationResult(p, r, qos.demands, iterations, trace, outcome, min_powers)


def equal_power(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Baseline: P_max/K to every user, no demand awareness."""
    k = len(qos.demands)
    p = np.full(k, cfg.p_max_w / k)
    return _finish(effective_gains(H, W), W, cfg, qos, p, 0)


def sum_opt(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Sum-rate maximization without demand constraints: water-filling on the
    interference-free rates (exact for ZF, an upper-bound heuristic for RZF;
    served rates are always re-evaluated with full interference)."""
    link = effective_gains(H, W)
    c = cfg.noise_power_w / link.g
    p = waterfill(c, cfg.p_max_w)
    return _finish(link, W, cfg, qos, p, 0)


def _zf_min_powers(W: Precoder, demands, cfg: SystemConfig):
    """ZF's c_k = ||w_raw_k||^2 sigma^2 and minimum powers alpha_k c_k, per row of (..., K) demands."""
    c = W.raw_norms**2 * cfg.noise_power_w
    return c, sinr_targets(demands, cfg.bandwidth_mhz) * c


def joint_opt_zf(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Closed-form joint optimizer for ZF: minimum powers p_min,k = alpha_k *
    ||w_raw_k||^2 * sigma^2; if they fit the budget everyone is served and the
    surplus is water-filled, otherwise the cheapest users are served first and
    the leftover is water-filled across the rest."""
    if W.kind != "zf":
        raise ValueError("ZF allocator requires a ZF precoder")
    link = effective_gains(H, W)
    k = len(qos.demands)
    p_budget = cfg.p_max_w
    c, p_min = _zf_min_powers(W, qos.demands, cfg)
    if np.add.reduce(p_min) <= p_budget:
        # interference-free: the top-up cannot push anyone below demand
        return _top_up(link, W, qos, cfg, p_min, None, c)
    # congestion: largest ascending-cost prefix that fits the budget, ties
    # broken by user index
    order = np.argsort(p_min, kind="stable")
    prefix_cost = np.cumsum(p_min[order])
    m = int(np.searchsorted(prefix_cost, p_budget, side="right"))
    members = order[:m]
    rest = order[m:]
    p = np.zeros(k)
    p[members] = p_min[members]
    leftover = p_budget - np.add.reduce(p[members])
    if rest.size:
        p[rest] = waterfill(c[rest], leftover)
    return _finish(link, W, cfg, qos, p, 0, outcome="congested_growth")


def _within_bound(ds: DemandSystem, p_budget):
    """sum(alpha sigma^2 / g) <= P_max per row of `ds`, each a dot of its own: above
    it, I - RQ = D - B with D = diag(1/(1 + alpha)), B >= 0 puts the minimum powers
    at or above D^-1 nu = alpha sigma^2 / g.  The margin keeps rounding from deciding."""
    nu, a1 = ds.nu, 1.0 + ds.alpha
    diagonal = nu @ a1 if nu.ndim == 1 else np.matmul(nu[..., None, :], a1[..., None])[..., 0, 0]
    return diagonal <= p_budget * _BOUND_MARGIN


def _certificate(ds: DemandSystem, p_budget):
    """check_feasible's report, or None where the diagonal bound shows congestion."""
    return check_feasible(ds, p_budget) if _within_bound(ds, p_budget) else None


def _topped_up(p_base, p_budget, c=None):
    """Each row of the (..., K) minimum powers `p_base` plus its surplus, water-filled on `c` or split equally."""
    surplus = p_budget - np.add.reduce(p_base, -1)
    return p_base + ((surplus / p_base.shape[-1])[..., None] if c is None else waterfill(c, surplus))


def _top_up(link, W, qos, cfg, p_base, guard, c=None, p=None, r=None):
    """Top up the minimum powers `p_base` of a feasible instance with the
    surplus, water-filled on the inverse gains `c` or, without `c`, split
    equally: the one step in which the joint and satisfied-set allocators differ
    (`p` and `r`, where given, are that top-up and its rates, from a stack).

    Under interference (a true `guard`) the top-up can push a user below its
    demand.  A water-filled top-up is repaired by pinning the violated users at
    the `alpha` targets of the demand system `guard` and water-filling the rest
    of the budget over the others, repeating while new violations appear;
    scaling all powers proportionally (which provably raises every SINR) is the
    last resort, and an equal split's only one.  Returns the result."""
    k = len(qos.demands)
    p_budget = cfg.p_max_w
    p = _topped_up(p_base, p_budget, c) if p is None else p

    def done(p, outcome, r=None):
        return _finish(link, W, cfg, qos, p, 0, outcome=outcome, r=r, min_powers=p_base)

    if not guard:
        return done(p, "feasible_closed_form", r)
    r = rates(link, W, p, cfg) if r is None else r
    pinned = ~satisfied_mask(r, qos.demands)  # the violated users
    if not pinned.any():
        return done(p, "feasible_closed_form", r)
    if c is not None:
        for _ in range(k):
            p_fix, ok = _solve_pinned(guard, pinned, p_budget, p)
            if not ok:
                break
            r = rates(link, W, p_fix, cfg)
            still = ~satisfied_mask(r, qos.demands)
            if not still.any():
                return done(p_fix, "feasible_guard_repaired", r)
            if not (still & ~pinned).any():
                break
            pinned |= still
    return done(p_base * (p_budget / p_base.sum()), "feasible_guard_scaled")


def joint_opt_rzf(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig, ds=None, rep=None, start=None) -> AllocationResult:
    """Joint optimizer for RZF on the interference-free rate upper bound, with
    relaxed demands xi_k + omega_k absorbing the neglected interference; a caller
    may pass their system `ds`, its _certificate `rep` and sum_opt's result `start`."""
    if W.kind != "rzf":
        raise ValueError("RZF allocator requires an RZF precoder")
    sigma2 = cfg.noise_power_w
    p_budget = cfg.p_max_w
    relaxed = qos.demands + qos.tolerances
    link = effective_gains(H, W)
    if ds is None:
        ds = build_demand_system(link, W, relaxed, sigma2, cfg.bandwidth_mhz)
        rep = _certificate(ds, p_budget)
    c = sigma2 / link.g
    if rep and rep.feasible:
        # exact joint minimum powers for the relaxed demands (true rates hit
        # xi_k + omega_k, so the omega margin absorbs the surplus top-up)
        return _top_up(link, W, qos, cfg, rep.min_powers, ds, c)
    # congestion: grow the relaxed satisfied set, truncating each new member
    # to exactly its relaxed demand against the current interference; keep the
    # lexicographically best iterate (|Q| first, then sum rate) seen
    def score(rv):  # (|Q|, sum rate) of a rate vector
        return (int(np.count_nonzero(satisfied_mask(rv, qos.demands))), float(np.add.reduce(rv)))

    p = start.powers.copy() if start else waterfill(c, p_budget)  # sum_opt's, on the same c
    r = start.rates_mbps if start else rates(link, W, p, cfg)
    in_set = satisfied_mask(r, relaxed)
    newly = in_set.copy()
    best_p, best_r, best_score = p.copy(), r, score(r)
    trace = [(int(np.count_nonzero(in_set)), best_score[1])]
    n = 0
    # each further round moves at least one user into in_set, so at most K rounds
    while newly.any():
        n += 1
        interf = link.Q[newly] @ p - link.g[newly] * p[newly]
        p[newly] = ds.alpha[newly] * (interf + sigma2) / link.g[newly]
        leftover = max(0.0, p_budget - np.add.reduce(p[in_set]))
        comp = ~in_set
        if not comp.any():
            break
        p[comp] = waterfill(c[comp], leftover)
        r = rates(link, W, p, cfg)
        s = score(r)
        if s > best_score:
            best_p, best_r, best_score = p.copy(), r, s
        joiners = comp & satisfied_mask(r, relaxed)
        in_set = in_set | joiners
        newly = joiners
        trace.append((int(np.count_nonzero(in_set)), s[1]))
    return _finish(link, W, cfg, qos, best_p, n, trace=trace, outcome="congested_growth", r=best_r)


def joint_opt_block(H, W, qoss, cfg: SystemConfig, starts=None):
    """joint_opt and satis_set_opt over the grid of T trials x the D points of `qoss`: (powers,
    rates, outcomes), (2, T, D, K) arrays and a (2, T, D) object array, joint's first, each (t, d)
    entry bit for bit the one-point allocator's on `link[t]` with `qoss[d]`.  `H` and `W` are a
    stacked Link of T trials and its precoder, or one channel (or Link) as T = 1.  Closed-form
    entries (ZF within budget, RZF certified) are rows of one stack; the others go through
    joint_opt_zf or joint_opt_rzf, and a top-up failing the rate guard through _top_up.  A
    congested RZF entry grows from `starts[t]`, trial t's sum_opt result, or its own water-fill."""
    link = effective_gains(H, W)
    link = link[None] if link.Q.ndim == 2 else link
    grid = link[:, None]  # each trial's Link, a view broadcast over the points: no copy per point
    W, p_budget, sigma2 = grid.precoder, cfg.p_max_w, cfg.noise_power_w
    demands = np.array([qos.demands for qos in qoss])
    shape, reps, guard = (len(link.Q), *demands.shape), {}, None
    if W.kind == "zf":
        c, p_min = _zf_min_powers(W, demands, cfg)
    elif W.kind == "rzf":  # an uncertified entry's minimum powers are inf
        c, p_min = sigma2 / grid.g, np.full(shape, np.inf)
        ds = build_demand_system(grid, W, demands + [q.tolerances for q in qoss], sigma2, cfg.bandwidth_mhz)
        def guard(t, d):  # entry (t, d)'s demand system, of views
            return DemandSystem(ds.R[t, d], link.Q[t], ds.nu[t, d], ds.alpha[d], sigma2)
        for t, d in zip(*_within_bound(ds, p_budget).nonzero()):
            rep = reps[t, d] = check_feasible(guard(t, d), p_budget)
            p_min[t, d] = rep.min_powers if rep.feasible else np.inf
    else:
        raise ValueError("the block pass serves ZF and RZF precoders")
    closed = np.add.reduce(p_min, -1) <= p_budget  # a certified entry's total is this sum
    powers, served = np.zeros((2, 2, *shape))  # zero powers outside the closed-form entries
    outcomes = np.full(powers.shape[:-1], "feasible_closed_form", dtype=object)
    ti, di = closed.nonzero()
    if ti.size:
        base = p_min[ti, di]
        powers[:, ti, di] = _topped_up(base, p_budget, c[ti, 0]), _topped_up(base, p_budget)
        served = rates(grid, W, powers, cfg)
    if guard and ti.size:  # a top-up can push a user below demand: _top_up repairs joint's, scales satisset's
        met = np.logical_and.reduce(satisfied_mask(served, demands), -1)
        for s, t, d in zip(*(closed & ~met).nonzero()):
            li = link[t]
            res = _top_up(li, li.precoder, qoss[d], cfg, p_min[t, d], guard(t, d) if s == 0 else True,
                          None if s else c[t, 0], powers[s, t, d], served[s, t, d])
            powers[s, t, d], served[s, t, d], outcomes[s, t, d] = res.powers, res.rates_mbps, res.outcome
    for t, d in zip(*(~closed).nonzero()):  # satisset shares joint's congested result
        li, q, start = link[t], qoss[d], None if starts is None else starts[t]
        res = (joint_opt_rzf(li, li.precoder, q, cfg, guard(t, d), reps.get((t, d)), start)
               if guard else joint_opt_zf(li, li.precoder, q, cfg))
        powers[:, t, d], served[:, t, d], outcomes[:, t, d] = res.powers, res.rates_mbps, res.outcome
    return powers, served, outcomes


def _solve_pinned(ds: DemandSystem, pinned, p_budget, p_start):
    """Fixed point of: (i) exact-demand linear solve for the pinned users of `ds`
    given complement interference, (ii) water-filling the leftover over the
    complement on interference-adjusted inverse gains (sigma^2 + I_k)/g_kk,
    with the interference taken from the previous sweep.

    For interference-free precoding (ZF) step (ii) reduces to the plain
    upper-bound water-fill.  The pinned block a = I - R_SS Q_SS is certified
    and factored once per call: step (i) is p_S = a^-1 nu_S + a^-1 R_S Q_SC p_C,
    so each sweep is a matrix-vector step plus one water-fill.  Returns
    (powers, ok); ok is False when the pinned subsystem is infeasible (budget
    exceeded, or spectral radius >= 1 by the test of `check_feasible`: p_start
    is returned) or the alternation fails to settle within the iteration cap.
    """
    gains, sigma2 = ds.Qm, ds.noise_power
    g_kk = np.diag(gains)
    if not pinned.any():
        return waterfill(sigma2 / g_kk, p_budget), True
    s_idx = pinned.nonzero()[0]
    c_idx = (~pinned).nonzero()[0]
    r_s, rows_s = ds.R[s_idx], gains[s_idx]
    a = np.eye(len(s_idx)) - r_s[:, None] * rows_s[:, s_idx]
    # a positive solve for one b > 0 certifies the Z-matrix `a` as a nonsingular
    # M-matrix, so a^-1 >= 0 and every sweep's pinned powers stay >= b0 > 0
    b0 = m_matrix_solve(a, ds.nu[s_idx])
    if b0 is None:
        return p_start, False
    coupling = np.linalg.solve(a, r_s[:, None] * rows_s[:, c_idx])
    q_c, g_c = gains[c_idx], g_kk[c_idx]
    tol = _PINNED_TOL * max(1.0, p_budget)
    p = p_start.copy()
    p_s, p_c = p[s_idx], p[c_idx]  # copies: the settle test may overwrite the old p_s
    for _ in range(_PINNED_MAX_INNER):
        new_s = coupling @ p_c
        new_s += b0
        p_s -= new_s
        settled = np.abs(p_s, out=p_s).max() <= tol
        p[s_idx] = p_s = new_s
        leftover = p_budget - np.add.reduce(p_s)
        if c_idx.size:
            if leftover > 0:
                cost = q_c @ p - g_c * p_c  # (sigma^2 + interference) / g_kk, in place
                cost += sigma2
                cost /= g_c
                new_c = waterfill(cost, leftover)
            else:
                new_c = np.zeros(c_idx.size)
            # the sweep settles when neither the pinned nor the complement powers move
            settled = settled and np.abs(new_c - p_c).max() <= tol
            p[c_idx] = p_c = new_c
        if settled:
            break
    else:
        return p, False
    if p_s.sum() > p_budget * (1.0 + 1e-12):
        return p, False
    return p, True


def joint_opt_generic(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Precoder-agnostic joint optimizer.

    When the demands are jointly feasible, the minimum-power solution is
    topped up by water-filling the surplus.  Under congestion the satisfied
    set grows from the sum-rate initialization: each round pins the current
    members at exactly their demands and water-fills the rest; if no user
    crosses its demand, the cheapest affordable candidate (by pinned-system
    total power) is admitted instead, so the set keeps growing whenever the
    budget allows.  Stops when the set stalls; at most K growth rounds.
    """
    k = len(qos.demands)
    p_budget = cfg.p_max_w
    link = effective_gains(H, W)
    ds = build_demand_system(link, W, qos.demands, cfg.noise_power_w, cfg.bandwidth_mhz)
    c_up = cfg.noise_power_w / link.g
    rep = _certificate(ds, p_budget)
    if rep and rep.feasible:
        return _top_up(link, W, qos, cfg, rep.min_powers, ds, c_up)
    # congestion: sum-rate initialization, then monotone set growth
    p = waterfill(c_up, p_budget)
    r = rates(link, W, p, cfg)
    mask = satisfied_mask(r, qos.demands)
    trace = [(int(mask.sum()), float(r.sum()))]
    outcome = "congested_growth"
    n = 0
    while n <= k:
        n += 1
        p_new, ok = _solve_pinned(ds, mask, p_budget, p)
        if not ok:
            outcome = "not_converged"
            break
        r_new = rates(link, W, p_new, cfg)
        mask_new = satisfied_mask(r_new, qos.demands)
        if mask_new.sum() <= mask.sum():
            # rate crossings stalled; admit the cheapest affordable candidate
            candidates = []
            for j in np.nonzero(~mask)[0]:
                trial_mask = mask.copy()
                trial_mask[j] = True
                p_j, ok_j = _solve_pinned(ds, trial_mask, p_budget, p_new)
                if ok_j:
                    candidates.append((p_j[trial_mask].sum(), j, p_j))
            if not candidates:
                p, r, mask = p_new, r_new, mask_new | mask
                trace.append((int(mask.sum()), float(r.sum())))
                break
            p_new = min(candidates, key=lambda cand: cand[:2])[2]
            r_new = rates(link, W, p_new, cfg)
            mask_new = satisfied_mask(r_new, qos.demands)
        p, r, mask = p_new, r_new, mask_new
        trace.append((int(mask.sum()), float(r.sum())))
        if mask.all():
            break
    return _finish(link, W, cfg, qos, p, n, trace=trace, outcome=outcome, r=r)


def satis_set_opt(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Satisfied-set maximization only: joint_opt's certificate and set growth.
    Under congestion it is joint_opt's own result, whose branch the two share;
    a feasible instance's surplus is split equally over joint's minimum powers
    instead of water-filled."""
    link = effective_gains(H, W)
    joint = joint_opt(link, W, qos, cfg)
    if joint.min_powers is None:
        return joint
    return _top_up(link, W, qos, cfg, joint.min_powers, W.kind != "zf")


def joint_opt(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Dispatch the joint optimizer matching the precoder kind."""
    joint = joint_opt_zf if W.kind == "zf" else joint_opt_rzf if W.kind == "rzf" else joint_opt_generic
    return joint(H, W, qos, cfg)
