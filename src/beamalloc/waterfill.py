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
    cs = c[c.argsort(kind="stable")]  # as the allocators sort; np.sort pages in ~0.2 MB more code
    if not (cs[0] > 0 and cs[-1] < np.inf):  # NaN sorts last and fails both
        raise ValueError("inverse gains must be finite and strictly positive")
    P = float(budget)
    if not 0.0 <= P < np.inf:
        raise ValueError("budget must be finite and nonnegative")
    if P == 0.0:
        return np.zeros_like(c)
    # water level if exactly the m cheapest channels are active
    levels = np.add.accumulate(cs)  # as cs.cumsum(), without its axis handling
    levels += P
    np.divide(levels, np.arange(1.0, c.size + 1), out=levels)
    # the active set is the largest m with level_m > c_m (all m channels above water)
    active = (levels > cs).nonzero()[0]
    if active.size == 0:
        # P below the rounding of the cheapest cost: the KKT limit as P -> 0
        # gives the whole budget to the cheapest channels, split equally
        cheapest = c == cs[0]
        return np.where(cheapest, P / cheapest.sum(), 0.0)
    p = np.subtract(levels[active[-1]], c)
    np.maximum(p, 0.0, out=p)
    # strip float residue so the budget is tight to ~1e-16 relative
    p *= P / np.add.reduce(p)
    return p
