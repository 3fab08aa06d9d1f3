"""Water-filling: maximize sum_k B*log2(1 + p_k/c_k) s.t. sum(p) <= P, p >= 0.

All semi-closed-form power steps in the allocators reduce to this problem.
The solver is the exact active-set-by-sorting method: the KKT point has
p_k = max(0, w - c_k) with a water level w such that the budget is tight.
"""

from __future__ import annotations

import numpy as np

_COUNTS = np.arange(1.0, 65.0)  # the channel counts that divide the running sums; a slice costs less than an arange


def waterfill(inverse_gains: np.ndarray, budget) -> np.ndarray:
    """Unique KKT point for inverse gains c_k > 0 and a finite budget P >= 0 in the same power
    units; the budget is used exactly when it is positive.  (D, K) rows of c with an array of D
    budgets, one per row, give (D, K) powers, each row bit for bit its one-row call's."""
    c = np.asarray(inverse_gains, dtype=float)
    if c.size == 0:
        raise ValueError("water-filling needs at least one channel")
    order = c.argsort(kind="stable")  # as the allocators sort; np.sort pages in ~0.2 MB more code
    rows = c.ndim > 1  # rows of c, one per budget
    cs = np.take_along_axis(c, order, -1) if rows else c[order]
    lo, hi = (cs[:, 0].min(), cs[:, -1].max()) if rows else (cs[0], cs[-1])
    if not (lo > 0 and hi < np.inf):  # NaN sorts last and fails both
        raise ValueError("inverse gains must be finite and strictly positive")
    P = np.asarray(budget, dtype=float) if rows else float(budget)
    if not (np.all((P >= 0.0) & (P < np.inf)) if rows else 0.0 <= P < np.inf):
        raise ValueError("budget must be finite and nonnegative")
    # water level if exactly the m cheapest channels are active, one row per budget
    levels = np.add.accumulate(cs, -1) + (P[:, None] if rows else P)  # as cs.cumsum(), without its axis handling
    k = c.shape[-1]
    np.divide(levels, _COUNTS[:k] if k <= _COUNTS.size else np.arange(1.0, k + 1), out=levels)
    # the active set is the largest m with level_m > c_m (all m channels above water)
    above = levels > cs
    if rows:  # each row's last channel above water, counted from the top
        at = np.arange(len(levels)), (k - 1) - above[:, ::-1].argmax(axis=-1)
        dark, level = ~above[at], levels[at][:, None]
    else:
        active = above.nonzero()[0]
        dark, level = not active.size, levels[active[-1] if active.size else 0]
    p = np.subtract(level, c)
    np.maximum(p, 0.0, out=p)
    if np.any(dark) if rows else dark:
        # P below the rounding of the cheapest cost (or zero): the KKT limit as
        # P -> 0 gives the whole budget to the cheapest channels, split equally
        cheapest = c == cs[..., :1]
        p[dark] = cheapest[dark] if rows else cheapest
    # strip float residue so the budget is tight to ~1e-16 relative
    scale = P / np.add.reduce(p, -1)
    p *= scale[:, None] if rows else scale
    return p
