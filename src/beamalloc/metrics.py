"""Rates, fairness and campaign-level evaluation quantities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .precoding import Precoder, effective_gains


def sinr(H, precoder: Precoder, powers: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-user SINR with full mutual interference; `H` may be a Link.  Each row
    of (..., K) powers gets its own gemv Q p, bit for bit a one-row call's."""
    link = effective_gains(H, precoder)
    p = np.asarray(powers, dtype=float)
    signal = p * link.g
    received = link.Q @ p if p.ndim == 1 else np.matmul(link.Q, p[..., None])[..., 0]
    interference = received - signal
    return signal / (interference + noise_power)


def rates(H, precoder: Precoder, powers: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Served rate B*log2(1 + SINR) in Mbps (B in MHz), per row of the powers."""
    g = sinr(H, precoder, powers, cfg.noise_power_w)
    return cfg.bandwidth_mhz * np.log2(1.0 + g)


def jain(satisfaction_ratios: np.ndarray) -> np.ndarray:
    """Jain's fairness index (sum o)^2 / (K sum o^2) over ratios o_k >= 0 along
    the last axis: one value per row of a (rows, K) block, a scalar for (K,)."""
    o = np.asarray(satisfaction_ratios, dtype=float)
    if np.any(o < 0):
        raise ValueError("satisfaction ratios must be nonnegative")
    # the index does not depend on scale: a row whose largest ratio lies beyond
    # 2**±500 is scaled by an exact power of two, so its squares stay finite and nonzero
    e = np.frexp(o.max(axis=-1, keepdims=True))[1]
    if np.any(np.abs(e) > 500):
        o = np.where(np.abs(e) > 500, np.ldexp(o, -e), o)
    s2 = np.sum(o**2, axis=-1)
    if np.any(s2 == 0.0):
        raise ValueError("Jain's index undefined for all-zero ratios")
    return np.float_power(np.sum(o, axis=-1), 2) / (o.shape[-1] * s2)  # libm pow, as float ** 2


def lambda_objective(rates_mbps: np.ndarray, n_satisfied, sumopt_rates_mbps: np.ndarray):
    """Normalized joint objective against a paired sum-rate-optimal run:
    Lambda = Omega*(|Q|/K + sum(R)/S), Omega = K*S/(K+S), S = sum-opt rate.
    Rates along the last axis; one row per entry of `n_satisfied` (= |Q|),
    against one (K,) reference or reference rows that broadcast against the
    rate rows (one per row, or one per block of rows)."""
    s = np.sum(sumopt_rates_mbps, axis=-1)
    if np.any(s <= 0):
        raise ValueError("sum-rate reference is zero; objective undefined")
    k = np.shape(rates_mbps)[-1]
    omega = k * s / (k + s)
    return omega * (np.asarray(n_satisfied) / k + np.sum(rates_mbps, axis=-1) / s)


@dataclass(frozen=True)
class MetricsSummary:
    """Sample means of one campaign cell, fields in aggregate.csv column order."""

    n_trials: int
    congestion_prob: float
    satisfaction_prob: float
    mean_sum_rate: float
    mean_sum_rate_satisfied: float
    mean_sum_rate_unsatisfied: float
    jain_index: float
    lambda_obj: float


def aggregate(column_sums, n_trials: int) -> MetricsSummary:
    """Sample means of one cell from its per-trial column sums over `n_trials`
    trials, in the MetricsSummary field order after `n_trials`."""
    if n_trials < 1:
        raise ValueError("cannot aggregate an empty trial list")
    return MetricsSummary(n_trials, *(float(s) / n_trials for s in column_sums))
