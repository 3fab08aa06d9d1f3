"""Power-allocation strategies: equal power, sum-rate maximization, and the
joint satisfied-set / sum-rate optimizers (generic, ZF and RZF variants).

The joint optimizers prioritize the number of satisfied users over the sum
rate (lexicographic weighting): satisfied users are pinned at exactly their
demands and every remaining watt goes to the rest through water-filling.
Every allocator takes the channel or its prebuilt Link for the precoder W.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class QoSProfile:
    """Per-user rate demands [Mbps] and RZF relaxation tolerances [Mbps]."""

    demands: np.ndarray
    tolerances: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.demands, dtype=float)
        t = np.asarray(self.tolerances, dtype=float)
        if not np.all(np.isfinite(d) & (d > 0)):
            raise ValueError("demands must be finite and strictly positive")
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValueError("tolerances must be finite and nonnegative")
        if d.shape != t.shape:
            raise ValueError("demands and tolerances must have equal length")
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
    powers: np.ndarray
    satisfied: frozenset  # 0-based user indices meeting their demand
    rates_mbps: np.ndarray
    iterations: int
    trace: tuple  # ((|Q|, sum rate) per iterate)
    # joint and satisset only: feasible_closed_form, feasible_guard_repaired,
    # feasible_guard_scaled, congested_growth or not_converged
    outcome: str | None = None
    # joint and satisset only: the minimum powers a feasible outcome topped up
    min_powers: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.outcome != "not_converged"

    @property
    def congested(self) -> bool:
        return len(self.satisfied) < len(self.rates_mbps)


def satisfied_mask(rates_mbps: np.ndarray, demands: np.ndarray) -> np.ndarray:
    return rates_mbps >= demands * (1.0 - RATE_REL_TOL)


def _finish(link, W, cfg, qos, p, iterations, trace=None, outcome=None, r=None, min_powers=None):
    """Score powers `p` against the demands of `qos` on their served rates `r`
    (full interference); without a trace, the single entry is (|Q|, sum rate)."""
    r = rates(link, W, p, cfg) if r is None else r
    q = frozenset(np.flatnonzero(satisfied_mask(r, qos.demands)).tolist())
    return AllocationResult(
        powers=p,
        satisfied=q,
        rates_mbps=r,
        iterations=iterations,
        trace=tuple(trace) if trace else ((len(q), float(r.sum())),),
        outcome=outcome,
        min_powers=min_powers,
    )


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
    c = W.raw_norms**2 * cfg.noise_power_w
    alpha = sinr_targets(qos.demands, cfg.bandwidth_mhz)
    p_min = alpha * c
    if p_min.sum() <= p_budget:
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
    leftover = p_budget - p[members].sum()
    if rest.size:
        p[rest] = waterfill(c[rest], leftover)
    return _finish(link, W, cfg, qos, p, 0, outcome="congested_growth")


def _certificate(ds: DemandSystem, p_budget):
    """check_feasible's report, or None where sum(nu) > P_max shows congestion
    without its solve: (I - RQ)^-1 >= I puts the minimum powers at or above nu."""
    return check_feasible(ds, p_budget) if ds.nu.sum() <= p_budget else None


def _top_up(link, W, qos, cfg, p_base, guard, c=None):
    """Top up the minimum powers `p_base` of a feasible instance with the
    surplus, water-filled on the inverse gains `c` or, without `c`, split
    equally: the one step in which the joint and satisfied-set allocators differ.

    Under interference (a true `guard`) the top-up can push a user below its
    demand.  A water-filled top-up is repaired by pinning the violated users at
    the `alpha` targets of the demand system `guard` and water-filling the rest
    of the budget over the others, repeating while new violations appear;
    scaling all powers proportionally (which provably raises every SINR) is the
    last resort, and an equal split's only one.  Returns the result."""
    k = len(qos.demands)
    p_budget = cfg.p_max_w
    surplus = p_budget - p_base.sum()
    p = p_base + (surplus / k if c is None else waterfill(c, surplus))

    def done(p, outcome, r=None):
        return _finish(link, W, cfg, qos, p, 0, outcome=outcome, r=r, min_powers=p_base)

    if not guard:
        return done(p, "feasible_closed_form")
    r = rates(link, W, p, cfg)
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


def joint_opt_rzf(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Joint optimizer for RZF on the interference-free rate upper bound, with
    relaxed demands xi_k + omega_k absorbing the neglected interference."""
    if W.kind != "rzf":
        raise ValueError("RZF allocator requires an RZF precoder")
    sigma2 = cfg.noise_power_w
    p_budget = cfg.p_max_w
    relaxed = qos.demands + qos.tolerances
    link = effective_gains(H, W)
    ds = build_demand_system(link, W, relaxed, sigma2, cfg.bandwidth_mhz)
    c = sigma2 / link.g
    rep = _certificate(ds, p_budget)
    if rep and rep.feasible:
        # exact joint minimum powers for the relaxed demands (true rates hit
        # xi_k + omega_k, so the omega margin absorbs the surplus top-up)
        return _top_up(link, W, qos, cfg, rep.min_powers, ds, c)
    # congestion: grow the relaxed satisfied set, truncating each new member
    # to exactly its relaxed demand against the current interference; keep the
    # lexicographically best iterate (|Q| first, then sum rate) seen
    def score(rv):  # (|Q|, sum rate) of a rate vector
        return (int(satisfied_mask(rv, qos.demands).sum()), float(rv.sum()))

    p = waterfill(c, p_budget)
    r = rates(link, W, p, cfg)
    in_set = satisfied_mask(r, relaxed)
    newly = in_set.copy()
    best_p, best_r, best_score = p.copy(), r, score(r)
    trace = [(int(in_set.sum()), best_score[1])]
    n = 0
    # each further round moves at least one user into in_set, so at most K rounds
    while newly.any():
        n += 1
        interf = link.Q[newly] @ p - link.g[newly] * p[newly]
        p[newly] = ds.alpha[newly] * (interf + sigma2) / link.g[newly]
        leftover = max(0.0, p_budget - p[in_set].sum())
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
        trace.append((int(in_set.sum()), s[1]))
    return _finish(link, W, cfg, qos, best_p, n, trace=trace, outcome="congested_growth", r=best_r)


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
    s_idx = np.flatnonzero(pinned)
    c_idx = np.flatnonzero(~pinned)
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
    p_s, p_c = p[s_idx], p[c_idx]
    for _ in range(_PINNED_MAX_INNER):
        new_s = coupling @ p_c
        new_s += b0
        settled = np.abs(new_s - p_s).max() <= tol
        p[s_idx] = p_s = new_s
        leftover = p_budget - p_s.sum()
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
    """Satisfied-set maximization only: joint_opt's certificate and set growth,
    with a feasible instance's surplus split equally instead of water-filled."""
    link = effective_gains(H, W)
    return satis_set_from_joint(link, W, qos, cfg, joint_opt(link, W, qos, cfg))


def satis_set_from_joint(link, W: Precoder, qos: QoSProfile, cfg: SystemConfig, joint) -> AllocationResult:
    """The satis_set_opt result of the instance that `joint`, its joint_opt
    result, solved: joint's own result under congestion, whose branch the two
    share, and otherwise joint's minimum powers with the surplus split equally."""
    if joint.min_powers is None:
        return joint
    return _top_up(link, W, qos, cfg, joint.min_powers, W.kind != "zf")


def joint_opt(H, W: Precoder, qos: QoSProfile, cfg: SystemConfig) -> AllocationResult:
    """Dispatch the joint optimizer matching the precoder kind."""
    joint = {"zf": joint_opt_zf, "rzf": joint_opt_rzf}.get(W.kind, joint_opt_generic)
    return joint(H, W, qos, cfg)
