"""ZF and RZF linear precoders with unit-norm columns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PrecoderSingularError(np.linalg.LinAlgError):
    """The Gram matrix is too ill-conditioned for zero forcing."""


@dataclass(frozen=True)
class Precoder:
    W: np.ndarray  # (N, K), unit-norm columns; real when H is real
    raw_norms: np.ndarray  # (K,) pre-normalization column norms
    kind: str  # "zf" | "rzf"


def _solve_normalized(H: np.ndarray, gram: np.ndarray, kind: str) -> Precoder:
    """W = H gram^{-1}, by one LU solve of the Hermitian gram, with unit-norm columns."""
    W_raw = np.linalg.solve(gram, H.conj().T).conj().T
    norms = np.linalg.norm(W_raw, axis=0)
    if np.any(norms <= 0) or not np.all(np.isfinite(norms)):
        raise PrecoderSingularError("precoding column norm vanished")
    return Precoder(W=W_raw / norms[None, :], raw_norms=norms, kind=kind)


def make_zf(H, cond_cap: float = 1e8) -> Precoder:
    """W = H (H^H H)^{-1} with normalized columns.

    Solves the K x K Gram system instead of inverting it.  Raises
    when the Gram condition number exceeds `cond_cap`; the caller is expected
    to redraw the user set.
    """
    H = np.asarray(H)
    gram = H.conj().T @ H
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > cond_cap:
        raise PrecoderSingularError(f"Gram condition number {cond:.3e} exceeds cap")
    return _solve_normalized(H, gram, "zf")


def make_rzf(H, noise_power: float, p_max: float) -> Precoder:
    """W = H (H^H H + rho I)^{-1}, rho = K*sigma^2/P_max, normalized columns."""
    if noise_power <= 0 or p_max <= 0:
        raise ValueError("noise power and power budget must be positive")
    H = np.asarray(H)
    k = H.shape[1]
    rho = k * noise_power / p_max
    gram = H.conj().T @ H + rho * np.eye(k)
    return _solve_normalized(H, gram, "rzf")


@dataclass(frozen=True)
class Link:
    """Effective gains of one channel under `precoder`: Q[k, l] = |h_k^H w_l|^2
    (read-only) and the useful gains g = diag Q."""

    precoder: Precoder
    Q: np.ndarray
    g: np.ndarray


def effective_gains(H, precoder: Precoder) -> Link:
    """The Link of channel `H` under `precoder`; a Link for it passes through."""
    if isinstance(H, Link):
        if H.precoder is not precoder:
            raise ValueError("Link was built for a different precoder")
        return H
    Q = np.abs(np.asarray(H).conj().T @ precoder.W) ** 2
    Q.flags.writeable = False
    return Link(precoder=precoder, Q=Q, g=np.diag(Q))
