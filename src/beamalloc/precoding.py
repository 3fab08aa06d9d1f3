"""ZF and RZF linear precoders with unit-norm columns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SAFE_MIN = np.finfo(float).tiny / np.finfo(float).eps  # underflowed terms cost a squared norm above it <= N K eps


class PrecoderSingularError(np.linalg.LinAlgError):
    """The Gram matrix is too ill-conditioned for zero forcing."""


@dataclass(frozen=True)
class Precoder:
    W: np.ndarray  # (N, K), unit-norm columns; real when H is real
    raw_norms: np.ndarray  # (K,) pre-normalization column norms
    kind: str  # "zf" | "rzf"


def _normalized(W_raw: np.ndarray, kind: str) -> Precoder:
    """W_raw = H gram^{-1}, from one LU solve of the Hermitian gram, with unit-norm columns."""
    norms = np.linalg.norm(W_raw, axis=0)
    if np.any(norms <= 0) or not np.all(np.isfinite(norms)):
        raise PrecoderSingularError("precoding column norm vanished")
    return Precoder(W=W_raw / norms[None, :], raw_norms=norms, kind=kind)


def make_zf(H, cond_cap: float = 1e8) -> Precoder:
    """W = H (H^H H)^{-1} with normalized columns.

    Solves the K x K Gram system instead of inverting it.  Raises when the Gram
    condition number exceeds `cond_cap` (the caller redraws the user set); its SVD
    runs only when the Frobenius bound cond(H)^2 <= (||H||_F ||H^+||_F)^2 exceeds it.
    """
    H = np.asarray(H)
    gram = H.conj().T @ H
    try:
        h_pinv = np.linalg.solve(gram, H.conj().T)
    except np.linalg.LinAlgError:
        raise PrecoderSingularError("Gram matrix is singular") from None
    # undecided near underflow, or within the bound's rounding, (N + K) eps per unit, of the cap
    with np.errstate(all="ignore"):
        h2, p2 = np.vdot(H, H).real, np.vdot(h_pinv, h_pinv).real
        bound = h2 * p2 * (1.0 + 1e-12 * sum(H.shape) * h2 * p2)
        # the bound holds for an inverse only: a singular gram's consistent solve
        # makes h_pinv H a projection of trace rank(H) <= K - 1
        inverse = abs(np.vdot(h_pinv.conj(), H.T) - H.shape[1]) < 0.5  # trace(h_pinv H) = K
    if not (inverse and min(h2, p2) >= _SAFE_MIN and bound <= cond_cap):
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > cond_cap:
            raise PrecoderSingularError(f"Gram condition number {cond:.3e} exceeds cap")
    return _normalized(h_pinv.conj().T, "zf")


def make_rzf(H, noise_power: float, p_max: float) -> Precoder:
    """W = H (H^H H + rho I)^{-1}, rho = K*sigma^2/P_max, normalized columns."""
    if noise_power <= 0 or p_max <= 0:
        raise ValueError("noise power and power budget must be positive")
    H = np.asarray(H)
    k = H.shape[1]
    rho = k * noise_power / p_max
    gram = H.conj().T @ H + rho * np.eye(k)
    return _normalized(np.linalg.solve(gram, H.conj().T).conj().T, "rzf")


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


def stack_links(links) -> Link:
    """One Link whose Q, g and precoder W and raw norms are those of `links`, one row each."""
    Ws = [link.precoder for link in links]
    if len({w.kind for w in Ws}) > 1:
        raise ValueError("the rows of a block share one precoder kind")
    W = Precoder(np.array([w.W for w in Ws]), np.array([w.raw_norms for w in Ws]), Ws[0].kind)
    return Link(W, np.array([link.Q for link in links]), np.array([link.g for link in links]))
