"""ZF and RZF linear precoders with unit-norm columns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SAFE_MIN = np.finfo(float).tiny / np.finfo(float).eps  # underflowed terms cost a squared norm above it <= N K eps


class PrecoderSingularError(np.linalg.LinAlgError):
    """The Gram matrix is too ill-conditioned for zero forcing."""


@dataclass(frozen=True)
class Precoder:
    W: np.ndarray  # (N, K), unit-norm columns; real when H is real; (T, N, K) for a stack of T channels
    raw_norms: np.ndarray  # (K,) pre-normalization column norms; (T, K) for a stack
    kind: str  # "zf" | "rzf"

    def __getitem__(self, rows):
        """The precoder of row (or rows) `rows` of a stack."""
        return Precoder(self.W[rows], self.raw_norms[rows], self.kind)


def _normalized(W_raw: np.ndarray, kind: str) -> Precoder:
    """W_raw = H gram^{-1}, from one LU solve of the Hermitian gram, with unit-norm columns."""
    norms = np.sqrt(np.add.reduce((W_raw.conj() * W_raw).real, axis=-2))  # np.linalg.norm's column norms
    if not np.logical_and.reduce((norms > 0) & (norms < np.inf), axis=None):
        raise PrecoderSingularError("precoding column norm vanished")
    return Precoder(W=W_raw / norms[..., None, :], raw_norms=norms, kind=kind)


def make_zf(H, cond_cap: float = 1e8) -> Precoder:
    """W = H (H^H H)^{-1} with normalized columns, of an (N, K) channel or of
    each channel of a (T, N, K) stack, every row with the bits of its own build.

    Solves the K x K Gram system instead of inverting it.  Raises when a Gram
    condition number exceeds `cond_cap` (the caller redraws the user set); the SVD
    runs only on rows whose Frobenius bound cond(H)^2 <= (||H||_F ||H^+||_F)^2 exceeds it.
    """
    H = np.asarray(H)
    H_h = H.conj().swapaxes(-1, -2)
    gram = H_h @ H
    try:
        h_pinv = np.linalg.solve(gram, H_h)
    except np.linalg.LinAlgError:
        raise PrecoderSingularError("Gram matrix is singular") from None
    # undecided near underflow, or within the bound's rounding, (N + K) eps per unit, of the cap
    with np.errstate(all="ignore"):
        h2 = np.add.reduce(gram.diagonal(0, -2, -1).real, -1)  # ||H||_F^2 per row
        p2 = np.add.reduce((h_pinv.conj() * h_pinv).real, axis=(-2, -1))
        bound = h2 * p2 * (1.0 + 1e-12 * sum(H.shape[-2:]) * h2 * p2)
        # the bound holds for an inverse only: a singular gram's consistent solve
        # makes h_pinv H a projection of trace rank(H) <= K - 1
        inverse = abs(np.einsum("...ij,...ji->...", h_pinv, H) - H.shape[-1]) < 0.5  # trace(h_pinv H) = K
    undecided = ~(inverse & (h2 >= _SAFE_MIN) & (p2 >= _SAFE_MIN) & (bound <= cond_cap))
    if np.logical_or.reduce(undecided, axis=None):  # the SVD decides these rows
        cond = np.linalg.cond(gram[undecided])
        if not (cond <= cond_cap).all():  # some row is over the cap, or not finite: name the first
            raise PrecoderSingularError(f"Gram condition number {cond[~(cond <= cond_cap)][0]:.3e} exceeds cap")
    return _normalized(h_pinv.conj().swapaxes(-1, -2), "zf")


def make_rzf(H, noise_power: float, p_max: float) -> Precoder:
    """W = H (H^H H + rho I)^{-1}, rho = K*sigma^2/P_max, normalized columns, of
    an (N, K) channel or of each channel of a (T, N, K) stack."""
    if noise_power <= 0 or p_max <= 0:
        raise ValueError("noise power and power budget must be positive")
    H = np.asarray(H)
    k = H.shape[-1]
    rho = k * noise_power / p_max
    gram = H.conj().swapaxes(-1, -2) @ H + rho * np.eye(k)
    return _normalized(np.linalg.solve(gram, H.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2), "rzf")


@dataclass(frozen=True)
class Link:
    """Effective gains of one channel under `precoder`: Q[k, l] = |h_k^H w_l|^2
    (read-only) and the useful gains g = diag Q; of each row, for a stack."""

    precoder: Precoder
    Q: np.ndarray
    g: np.ndarray

    def __getitem__(self, rows):
        """The Link of row (or rows) `rows` of a stack."""
        return Link(self.precoder[rows], self.Q[rows], self.g[rows])


def effective_gains(H, precoder: Precoder) -> Link:
    """The Link of channel `H` under `precoder`, or of each channel of a stack
    under its row of a stacked precoder; a Link for it passes through."""
    if isinstance(H, Link):
        if H.precoder is not precoder:
            raise ValueError("Link was built for a different precoder")
        return H
    Q = np.abs(np.asarray(H).conj().swapaxes(-1, -2) @ precoder.W) ** 2
    Q.flags.writeable = False
    return Link(precoder=precoder, Q=Q, g=Q.diagonal(0, -2, -1))
