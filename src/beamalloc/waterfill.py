"""Water-filling: maximize sum_k B*log2(1 + p_k/c_k) s.t. sum(p) <= P, p >= 0.

All semi-closed-form power steps in the allocators reduce to this problem.
The solver is the exact active-set-by-sorting method: the KKT point has
p_k = max(0, w - c_k) with a water level w such that the budget is tight.
"""

from __future__ import annotations

import numpy as np


def waterfill(inverse_gains: np.ndarray, budget: float) -> np.ndarray:
    """Unique KKT point for inverse gains c_k > 0 and a finite budget P >= 0 in
    the same power units; the budget is used exactly when it is positive."""
    c = np.asarray(inverse_gains, dtype=float)
    if c.size == 0:
        raise ValueError("water-filling needs at least one channel")
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
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
    m = int(np.nonzero(active)[0][-1]) + 1
    w = levels[m - 1]
    p = np.maximum(0.0, w - c)
    # strip float residue so the budget is tight to ~1e-16 relative
    scale = P / p.sum()
    return p * scale
