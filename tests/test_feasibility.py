import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from beamalloc import SystemConfig
from beamalloc.allocators import _solve_pinned
from beamalloc.feasibility import (
    DegenerateChannelError,
    DemandSystem,
    build_demand_system,
    check_feasible,
    m_matrix_solve,
    sinr_targets,
)
from beamalloc.metrics import rates
from beamalloc.precoding import Precoder, make_rzf
from conftest import random_channel

B = 500.0


def _identity_precoder(k, kind="rzf"):
    return Precoder(
        W=np.eye(k, dtype=complex), raw_norms=np.ones(k), kind=kind
    )


def _system_from_gain_matrix(q, demands, sigma2=1.0):
    """Gains [Q]_kl = |h_k^H w_l|^2 realized by H = sqrt(Q)^T and W = I."""
    q = np.asarray(q, dtype=float)
    H = np.sqrt(q).T.astype(complex)
    W = _identity_precoder(q.shape[0])
    return H, W, build_demand_system(H, W, demands, sigma2, B)


def test_sinr_targets():
    assert sinr_targets(np.array([B]), B)[0] == pytest.approx(1.0)  # 2^1 - 1
    assert sinr_targets(np.array([1e-9]), B)[0] == pytest.approx(
        np.log(2.0) * 1e-9 / B, rel=1e-6
    )


def test_two_user_hand_evaluation():
    g1, g2, q12, q21 = 2.0, 0.5, 0.3, 0.1
    xi = np.array([250.0, 400.0])
    sigma2 = 1.5
    H, W, ds = _system_from_gain_matrix([[g1, q12], [q21, g2]], xi, sigma2)
    a = 2.0 ** (xi / B) - 1.0
    assert np.allclose(ds.R, a / ((a + 1) * np.array([g1, g2])))
    assert np.allclose(ds.Qm, [[g1, q12], [q21, g2]])
    assert np.allclose(ds.nu, a * sigma2 / ((a + 1) * np.array([g1, g2])))
    assert np.allclose(ds.alpha, a)


def test_tiny_demand_shrinks_system():
    H, W, ds = _system_from_gain_matrix([[1.0, 0.1], [0.1, 1.0]], np.array([1e-6, 1e-6]))
    assert np.all(ds.R < 1e-8)
    assert np.all(ds.nu < 1e-8)


def test_demands_must_be_positive():
    with pytest.raises(ValueError):
        _system_from_gain_matrix([[1.0, 0.0], [0.0, 1.0]], np.array([0.0, 100.0]))


def test_zero_effective_gain_is_degenerate():
    H = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    # second precoding vector orthogonal to h_2
    W = Precoder(
        W=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex),
        raw_norms=np.ones(2),
        kind="rzf",
    )
    with pytest.raises(DegenerateChannelError):
        build_demand_system(H, W, np.array([100.0, 100.0]), 1.0, B)


def test_zf_diagonal_closed_form():
    # no interference: radius = max alpha/(alpha+1) < 1, p* = alpha sigma^2/g
    g = np.array([2.0, 0.7, 1.3])
    xi = np.array([300.0, 500.0, 800.0])
    sigma2 = 2.0
    H, W, ds = _system_from_gain_matrix(np.diag(g), xi, sigma2)
    rep = check_feasible(ds, p_max=1e9)
    a = 2.0 ** (xi / B) - 1.0
    assert rep.radius_ok
    assert rep.spectral_radius == pytest.approx(np.max(a / (a + 1)), rel=1e-12)
    assert np.allclose(rep.min_powers, a * sigma2 / g, rtol=1e-12)


def test_symmetric_two_user_hand_solve():
    g, q = 1.0, 0.2
    xi = np.array([400.0, 400.0])
    H, W, ds = _system_from_gain_matrix([[g, q], [q, g]], xi)
    rep = check_feasible(ds, p_max=1e9)
    a = 2.0 ** (400.0 / B) - 1.0
    # symmetric 2x2 solve by hand: p = nu/(1 - r(g + q)) with r = a/((a+1)g)
    r = a / ((a + 1) * g)
    nu = a / ((a + 1) * g)
    p_hand = nu / (1.0 - r * (g + q))
    assert np.allclose(rep.min_powers, p_hand, rtol=1e-12)


def _random_instance(seed, k=4):
    H = random_channel(k + 1, k, seed)
    W = make_rzf(H, 1.0, 10.0)
    rng = np.random.default_rng(seed + 1000)
    xi = B * rng.uniform(0.05, 0.4, size=k)
    return H, W, xi


def test_min_power_hits_demands_exactly():
    cfg = SystemConfig(n_beams=5, n_users=4)
    hits = 0
    for seed in range(40):
        H, W, xi = _random_instance(seed)
        ds = build_demand_system(H, W, xi, 1.0, B)
        rep = check_feasible(ds, p_max=50.0)
        if not rep.feasible:
            continue
        hits += 1
        r = rates(H, W, rep.min_powers, cfg)
        assert np.allclose(r, xi, rtol=1e-8)
        # SINRs equal the targets
        from beamalloc.metrics import sinr

        assert np.allclose(sinr(H, W, rep.min_powers, 1.0), ds.alpha, rtol=1e-8)
    assert hits > 10


def test_total_power_monotone_in_demands():
    for seed in range(20):
        H, W, xi = _random_instance(seed)
        ds1 = build_demand_system(H, W, xi, 1.0, B)
        rep1 = check_feasible(ds1, p_max=np.inf)
        ds2 = build_demand_system(H, W, xi * 1.05, 1.0, B)
        rep2 = check_feasible(ds2, p_max=np.inf)
        if rep1.radius_ok and rep2.radius_ok:
            assert rep2.total_min_power >= rep1.total_min_power - 1e-12


def test_lower_bound_below_total():
    for seed in range(60):
        H, W, xi = _random_instance(seed)
        rep = check_feasible(build_demand_system(H, W, xi, 1.0, B), p_max=np.inf)
        if rep.radius_ok:
            assert rep.lower_bound <= rep.total_min_power + 1e-12
    # the value itself, 1^T nu / ||I - RQ||_2, with and without the radius condition
    for q, xi, radius_ok in (
        ([[1.0, 0.1], [0.2, 0.8]], [300.0, 450.0], True),
        ([[1.0, 0.9], [0.9, 1.0]], [1.5 * B, 1.5 * B], False),
    ):
        q, xi = np.array(q), np.array(xi)
        H, W, ds = _system_from_gain_matrix(q, xi, sigma2=1.7)
        rep = check_feasible(ds, p_max=np.inf)
        assert rep.radius_ok is radius_ok
        a = 2.0 ** (xi / B) - 1.0
        r = a / ((a + 1) * np.diag(q))
        nu = 1.7 * r
        expected = nu.sum() / np.linalg.norm(np.eye(2) - np.diag(r) @ q, 2)
        assert rep.lower_bound == pytest.approx(expected, rel=1e-12)


def test_neumann_series_converges_to_min_powers():
    H, W, xi = _random_instance(2)
    ds = build_demand_system(H, W, xi, 1.0, B)
    rep = check_feasible(ds, p_max=np.inf)
    assert rep.radius_ok
    rq = ds.R[:, None] * ds.Qm
    p = np.zeros_like(ds.nu)
    term = ds.nu.copy()
    for _ in range(201):
        p += term
        term = rq @ term
    assert np.allclose(p, rep.min_powers, atol=1e-8 * max(1.0, rep.total_min_power))


def test_infeasible_radius_is_reported_not_raised():
    # strong symmetric coupling with high demands pushes the radius past 1
    H, W, ds = _system_from_gain_matrix(
        [[1.0, 0.9], [0.9, 1.0]], np.array([1.5 * B, 1.5 * B])
    )
    rep = check_feasible(ds, p_max=100.0)
    assert rep.spectral_radius >= 1.0
    assert not rep.radius_ok
    assert not rep.budget_ok
    assert rep.min_powers is None
    assert rep.total_min_power == np.inf


def test_budget_verdict():
    g = np.array([1.0, 1.0])
    xi = np.array([400.0, 400.0])
    H, W, ds = _system_from_gain_matrix(np.diag(g), xi)
    need = check_feasible(ds, p_max=np.inf).total_min_power
    assert check_feasible(ds, p_max=need * 1.01).budget_ok
    assert not check_feasible(ds, p_max=need * 0.99).budget_ok


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    sparsity=st.floats(0.0, 0.8),
    radius=st.one_of(
        st.floats(0.2, 2.0), st.sampled_from([1 - 1e-8, 1 + 1e-8, 1 - 2e-9, 1 + 2e-9])
    ),
)
def test_solve_certificate_agrees_with_eigvals_radius(k, seed, sparsity, radius):
    # nonnegative Q with a positive diagonal, some entries zeroed (reducible
    # RQ included), and R scaled so that rho(RQ) lands at `radius`
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, (k, k)) * (rng.uniform(size=(k, k)) >= sparsity)
    np.fill_diagonal(q, rng.uniform(0.5, 2.0, k))
    r = rng.uniform(0.1, 1.0, k)
    r *= radius / np.max(np.abs(np.linalg.eigvals(r[:, None] * q)))
    rep = check_feasible(DemandSystem(R=r, Qm=q, nu=r, alpha=r, noise_power=1.0), np.inf)
    rho = np.max(np.abs(np.linalg.eigvals(r[:, None] * q)))
    assume(abs(rho - 1.0) >= 1e-9)
    assert rep.spectral_radius == rho
    assert rep.radius_ok == (rho < 1.0)
    assert (rep.min_powers is not None) == rep.radius_ok


def test_solve_pinned_rejects_pinned_radius_at_least_one():
    # users 0 and 1 couple strongly (pinned block radius 1.23); user 2 is free
    q = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
    H, W, ds = _system_from_gain_matrix(q, np.array([1.5 * B, 1.5 * B, 0.2 * B]))
    pinned = np.array([True, True, False])
    rq_ss = ds.R[:2, None] * q[:2, :2]
    assert np.max(np.abs(np.linalg.eigvals(rq_ss))) >= 1.0
    p_start = np.array([1.0, 2.0, 3.0])
    p, ok = _solve_pinned(ds, pinned, 100.0, p_start)
    assert p is p_start and not ok


def test_m_matrix_solve_of_a_singular_matrix_is_no_certificate():
    assert m_matrix_solve(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2)) is None
