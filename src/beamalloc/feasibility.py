"""Joint-demand feasibility: spectral-radius and budget conditions, the
minimum-power linear solve, and the total-power lower bound.

For demands xi_k the SINR targets are alpha_k = 2^(xi_k/B) - 1.  Stacking the
per-user SINR equalities gives (I - R Q) p = nu with
R = diag(alpha_k / ((alpha_k+1) g_kk)), [Q]_kl = |h_k^H w_l|^2 and
nu_k = alpha_k sigma^2 / ((alpha_k+1) g_kk).  All K users can be served at
their demands iff rho(RQ) < 1 and 1^T (I - RQ)^{-1} nu <= P_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .precoding import Precoder, effective_gains


class DegenerateChannelError(ValueError):
    """An effective channel gain |h_k^H w_k|^2 vanished."""


def sinr_targets(demands_mbps: np.ndarray, bandwidth_mhz: float) -> np.ndarray:
    """alpha_k = 2^(xi_k/B) - 1 (xi in Mbps, B in MHz)."""
    return np.expm1(np.asarray(demands_mbps, dtype=float) / bandwidth_mhz * np.log(2.0))


@dataclass(frozen=True)
class DemandSystem:
    R: np.ndarray  # (K,) diagonal of R
    Qm: np.ndarray  # (K, K) cross gains |h_k^H w_l|^2
    nu: np.ndarray  # (K,)
    alpha: np.ndarray  # (K,) SINR targets
    noise_power: float


@dataclass(frozen=True)
class FeasibilityReport:
    spectral_radius: float
    min_powers: np.ndarray | None  # None when the radius condition fails
    total_min_power: float  # inf when undefined
    radius_ok: bool
    budget_ok: bool
    system: DemandSystem

    @property
    def feasible(self) -> bool:
        return self.radius_ok and self.budget_ok

    @property
    def lower_bound(self) -> float:
        """1^T nu / ||I - RQ||_2, a lower bound on the total minimum power."""
        ds = self.system
        a = np.eye(len(ds.nu)) - ds.R[:, None] * ds.Qm
        return float(np.sum(ds.nu) / np.linalg.norm(a, 2))


def build_demand_system(
    H, precoder: Precoder, demands_mbps: np.ndarray, noise_power: float, bandwidth_mhz: float
) -> DemandSystem:
    demands = np.asarray(demands_mbps, dtype=float)
    if np.any(demands <= 0):
        raise ValueError("demands must be strictly positive")
    gains = effective_gains(H, precoder)
    g_kk = np.diag(gains)
    if np.any(g_kk <= 0):
        raise DegenerateChannelError("zero effective gain |h_k^H w_k|^2")
    alpha = sinr_targets(demands, bandwidth_mhz)
    r_diag = alpha / ((alpha + 1.0) * g_kk)
    nu = alpha * noise_power / ((alpha + 1.0) * g_kk)
    return DemandSystem(R=r_diag, Qm=gains, nu=nu, alpha=alpha, noise_power=noise_power)


def check_feasible(ds: DemandSystem, p_max: float) -> FeasibilityReport:
    """Evaluate both serving conditions; infeasibility is reported, not raised."""
    rq = ds.R[:, None] * ds.Qm
    radius = float(np.max(np.abs(np.linalg.eigvals(rq))))
    radius_ok = radius < 1.0
    p_star = np.linalg.solve(np.eye(len(ds.nu)) - rq, ds.nu) if radius_ok else None
    total = float(np.sum(p_star)) if radius_ok else np.inf
    return FeasibilityReport(
        spectral_radius=radius,
        min_powers=p_star,
        total_min_power=total,
        radius_ok=radius_ok,
        budget_ok=radius_ok and bool(total <= p_max),
        system=ds,
    )
