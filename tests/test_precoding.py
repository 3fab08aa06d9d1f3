import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from beamalloc.precoding import (
    PrecoderSingularError,
    effective_gains,
    make_rzf,
    make_zf,
)
from conftest import random_channel


def _unitary(n, seed):
    h = random_channel(n, n, seed)
    q, _ = np.linalg.qr(h)
    return q


def test_zf_on_orthonormal_columns_is_identity():
    H = _unitary(4, 0)
    W = make_zf(H)
    assert np.allclose(W.W, H, atol=1e-12)
    assert np.allclose(W.raw_norms, 1.0)
    assert W.kind == "zf"


def test_zf_cancels_cross_terms():
    H = random_channel(6, 4, 1)
    W = make_zf(H)
    m = np.abs(H.conj().T @ W.W) ** 2
    diag = np.diag(m).copy()
    np.fill_diagonal(m, 0.0)
    assert m.max() < 1e-20 * diag.min()


def test_zf_two_by_two_hand_inverse():
    H = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    W = make_zf(H)
    raw = np.array([[0.5, 0.0], [-0.5, 1.0]])  # H (H^H H)^{-1} by hand
    expect_norms = np.linalg.norm(raw, axis=0)
    assert np.allclose(W.raw_norms, expect_norms)
    assert np.allclose(W.W, raw / expect_norms[None, :])


def test_zf_rejects_ill_conditioned():
    h = random_channel(4, 1, 3)
    H = np.hstack([h, h * (1 + 1e-13)])
    with pytest.raises(PrecoderSingularError):
        make_zf(H)


def test_unit_column_norms():
    H = random_channel(7, 5, 4)
    for W in (make_zf(H), make_rzf(H, 1.0, 100.0)):
        assert np.allclose(np.linalg.norm(W.W, axis=0), 1.0, atol=1e-12)
        assert np.all(W.raw_norms > 0)


def test_rzf_regularizer_value():
    # rho = K sigma^2 / P_max = 3 * 2 / 30
    H = random_channel(5, 3, 6)
    W = make_rzf(H, noise_power=2.0, p_max=30.0)

    def normalized(rho):
        raw = H @ np.linalg.inv(H.conj().T @ H + rho * np.eye(3))
        return raw / np.linalg.norm(raw, axis=0)

    np.testing.assert_allclose(W.W, normalized(0.2), rtol=0.0, atol=1e-12)
    for wrong in (2.0 / 30.0, 3 * 30.0 / 2.0):  # K dropped; sigma^2 and P swapped
        assert not np.allclose(W.W, normalized(wrong), rtol=0.0, atol=1e-6)
    assert W.kind == "rzf"


def test_rzf_orthonormal_absorbs_scalar():
    H = _unitary(4, 7)
    W = make_rzf(H, 1.0, 4.0)
    # (H^H H + rho I)^{-1} = I/(1+rho); the scalar drops out in normalization
    assert np.allclose(W.W, H, atol=1e-12)


def test_rzf_limits():
    H = random_channel(6, 3, 8)
    Wz = make_zf(H)
    W_small = make_rzf(H, 1e-12, 1.0)  # rho -> 0 recovers ZF directions
    assert np.allclose(np.abs(W_small.W.conj().T @ Wz.W).diagonal(), 1.0, atol=1e-6)
    W_big = make_rzf(H, 1e9, 1.0)  # rho -> inf tends to the matched filter
    mf = H / np.linalg.norm(H, axis=0)
    assert np.allclose(np.abs(np.sum(W_big.W.conj() * mf, axis=0)), 1.0, atol=1e-6)


def test_phase_rotation_leaves_gains_invariant():
    H = random_channel(5, 4, 9)
    H2 = H.copy()
    H2[:, 2] *= np.exp(1j * 0.7)
    for make in (make_zf, lambda h: make_rzf(h, 1.0, 10.0)):
        g1 = effective_gains(H, make(H)).Q
        g2 = effective_gains(H2, make(H2)).Q
        assert np.allclose(g1, g2, rtol=1e-10)


def test_precoder_with_a_vanished_column_norm_is_singular():
    # a user with an all-zero channel column gets an all-zero raw RZF column
    H = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(PrecoderSingularError, match="column norm vanished"):
        make_rzf(H, 1.0, 1.0)


def test_rzf_bad_inputs():
    H = random_channel(3, 2, 10)
    with pytest.raises(ValueError):
        make_rzf(H, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_rzf(H, 1.0, 0.0)


# ---------------------------------------------------------------------------
# the conditioning check: the Frobenius bound first, the SVD when it cannot decide

def _svd_rule(H, cond_cap):
    """The plain test: accept iff the Gram's 2-norm condition number is finite and <= cond_cap."""
    cond = np.linalg.cond(H.conj().T @ H)
    return bool(np.isfinite(cond) and cond <= cond_cap)


def _reference_zf(H):
    """(W, raw norms) of the plain test's accept path, one solve and unit-norm
    columns, or None where that solve or its column norms fail."""
    try:
        W_raw = np.linalg.solve(H.conj().T @ H, H.conj().T).conj().T
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(W_raw, axis=0)
    if not np.all((norms > 0) & np.isfinite(norms)):
        return None
    return W_raw / norms, norms


def _counting_cond(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counted(*args, **kw):
        calls.append(1)
        return cond(*args, **kw)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return calls


def _assert_is_reference(W, H):
    W_ref, norms_ref = _reference_zf(H)
    assert np.array_equal(W.W, W_ref) and np.array_equal(W.raw_norms, norms_ref)


def _accepts(H, cond_cap):
    try:
        make_zf(H, cond_cap=cond_cap)
    except PrecoderSingularError:
        return False
    return True


def test_zf_bound_decides_without_the_svd(monkeypatch):
    H = random_channel(6, 4, 11)
    calls = _counting_cond(monkeypatch)
    W = make_zf(H)
    assert calls == []
    _assert_is_reference(W, H)


def test_zf_svd_decides_when_the_bound_cannot(monkeypatch):
    H = random_channel(6, 4, 12)
    cond = np.linalg.cond(H.conj().T @ H)
    calls = _counting_cond(monkeypatch)
    W = make_zf(H, cond_cap=cond * (1 + 1e-9))  # the bound exceeds the exact number by far more
    assert calls == [1]
    _assert_is_reference(W, H)
    with pytest.raises(PrecoderSingularError, match="exceeds cap"):
        make_zf(H, cond_cap=cond * (1 - 1e-9))
    assert calls == [1, 1]


def test_zf_exactly_singular_gram_raises_the_precoder_error():
    h = random_channel(4, 1, 13)
    with pytest.raises(PrecoderSingularError):
        make_zf(np.hstack([h, h]))


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_zf_decision_at_extreme_channel_scales(scale, monkeypatch):
    # one squared norm lands near 1e-300, below the bound's underflow floor, so
    # the SVD decides; no float error escapes the program's float policy (over,
    # divide and invalid raise; underflow is gradual: the unit-norm step's
    # squares underflow at scale 1e150 with or without the bound)
    H = random_channel(6, 4, 14) * scale
    cond = np.linalg.cond(H.conj().T @ H)
    calls = _counting_cond(monkeypatch)
    for cap in (cond * 2.0, cond / 2.0, 1e8):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert _accepts(H, cap) == _svd_rule(H, cap)
    assert len(calls) == 6  # each decision by the SVD, then each reference


@settings(max_examples=200, deadline=None)
@given(
    n_extra=st.integers(0, 3),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 6.0),  # column scales over 10^±spread
    mix=st.floats(0.0, 1.0),  # pull column 0 toward column 1
    log_ratio=st.floats(-0.1, 0.1) | st.floats(-3.0, 12.0),
)
def test_zf_accepts_exactly_when_the_svd_rule_does(n_extra, k, seed, spread, mix, log_ratio):
    rng = np.random.default_rng(seed)
    H = random_channel(k + n_extra, k, seed) * 10.0 ** rng.uniform(-spread, spread, size=k)
    if k > 1:
        H[:, 0] = (1 - mix) * H[:, 0] + mix * H[:, 1]
    cond = np.linalg.cond(H.conj().T @ H)
    assume(np.isfinite(cond))
    cap = max(1.0, cond * np.exp(log_ratio))
    # where the plain test accepts a Gram that its solve then finds singular,
    # a PrecoderSingularError stands for that solve's failure
    accept = _svd_rule(H, cap) and _reference_zf(H) is not None
    try:
        W = make_zf(H, cond_cap=cap)
    except PrecoderSingularError:
        assert not accept
    else:
        assert accept
        _assert_is_reference(W, H)
