"""Joint-demand feasibility: spectral-radius and budget conditions, the
minimum-power linear solve, and the total-power lower bound.

For demands xi_k the SINR targets are alpha_k = 2^(xi_k/B) - 1.  Stacking the
per-user SINR equalities gives (I - R Q) p = nu with
R = diag(alpha_k / ((alpha_k+1) g_kk)), [Q]_kl = |h_k^H w_l|^2 and
nu_k = alpha_k sigma^2 / ((alpha_k+1) g_kk).  All K users can be served at
their demands iff rho(RQ) < 1 and 1^T (I - RQ)^{-1} nu <= P_max.  I - RQ is
a Z-matrix, so rho(RQ) < 1 iff it is a nonsingular M-matrix, iff (I - RQ) x = b
has a strictly positive solution for a b > 0 (Berman & Plemmons, ch. 6, Thm
2.3): the minimum-power solve certifies the radius condition itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .precoding import Precoder, effective_gains


_LN2 = math.log(2.0)


class DegenerateChannelError(ValueError):
    """An effective channel gain |h_k^H w_k|^2 vanished."""


def sinr_targets(demands_mbps: np.ndarray, bandwidth_mhz: float) -> np.ndarray:
    """alpha_k = 2^(xi_k/B) - 1 (xi in Mbps, B in MHz)."""
    return np.expm1(np.asarray(demands_mbps, dtype=float) / bandwidth_mhz * _LN2)


@dataclass(frozen=True)
class DemandSystem:
    R: np.ndarray  # (K,) diagonal of R
    Qm: np.ndarray  # (K, K) cross gains |h_k^H w_l|^2
    nu: np.ndarray  # (K,)
    alpha: np.ndarray  # (K,) SINR targets
    noise_power: float


@dataclass(frozen=True)
class FeasibilityReport:
    min_powers: np.ndarray | None  # None when the radius condition fails
    total_min_power: float  # inf when undefined
    radius_ok: bool
    budget_ok: bool
    system: DemandSystem

    @property
    def feasible(self) -> bool:
        return self.radius_ok and self.budget_ok

    @property
    def spectral_radius(self) -> float:
        """rho(RQ), by an eigenvalue solve on read."""
        ds = self.system
        return float(np.max(np.abs(np.linalg.eigvals(ds.R[:, None] * ds.Qm))))

    @property
    def lower_bound(self) -> float:
        """1^T nu / ||I - RQ||_2, a lower bound on the total minimum power."""
        ds = self.system
        a = np.eye(len(ds.nu)) - ds.R[:, None] * ds.Qm
        return float(np.sum(ds.nu) / np.linalg.norm(a, 2))


def build_demand_system(
    H, precoder: Precoder, demands_mbps: np.ndarray, noise_power: float, bandwidth_mhz: float
) -> DemandSystem:
    """(I - RQ) p = nu for the demands; `H` is a channel or the Link of `precoder`."""
    demands = np.asarray(demands_mbps, dtype=float)
    if (demands <= 0).any():
        raise ValueError("demands must be strictly positive")
    link = effective_gains(H, precoder)
    if (link.g <= 0).any():
        raise DegenerateChannelError("zero effective gain |h_k^H w_k|^2")
    alpha = sinr_targets(demands, bandwidth_mhz)
    ag = (alpha + 1.0) * link.g
    return DemandSystem(alpha / ag, link.Q, alpha * noise_power / ag, alpha, noise_power)


def m_matrix_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve a x = b for a Z-matrix `a` and b > 0; None unless the solution is
    finite and strictly positive, i.e. unless `a` is a nonsingular M-matrix."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    return x if not x.size or (0.0 < x.min() and x.max() < math.inf) else None


def check_feasible(ds: DemandSystem, p_max: float) -> FeasibilityReport:
    """Evaluate both serving conditions; infeasibility is reported, not raised."""
    a = ds.R[:, None] * ds.Qm
    p_star = m_matrix_solve(np.subtract(np.eye(len(ds.nu)), a, out=a), ds.nu)
    radius_ok = p_star is not None
    total = float(p_star.sum()) if radius_ok else math.inf
    return FeasibilityReport(p_star, total, radius_ok, radius_ok and bool(total <= p_max), ds)
