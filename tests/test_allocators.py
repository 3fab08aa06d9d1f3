from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from beamalloc import QoSProfile, SystemConfig, allocators
from beamalloc.allocators import (
    RATE_REL_TOL,
    equal_power,
    joint_opt,
    joint_opt_generic,
    joint_opt_rzf,
    joint_opt_zf,
    satis_set_from_joint,
    satis_set_opt,
    satisfied_mask,
    sum_opt,
)
from beamalloc.experiment import build_precoder, make_trial
from beamalloc.feasibility import (
    build_demand_system, check_feasible, m_matrix_solve, sinr_targets
)
from beamalloc.metrics import rates
from beamalloc.precoding import (
    Precoder, PrecoderSingularError, effective_gains, make_rzf, make_zf
)
from beamalloc.waterfill import waterfill
from conftest import make_instance, random_channel
from oracles import (
    max_satisfiable_set, satis_set_reference, simplex_grid_best, solve_pinned_per_sweep,
    waterfill_objective,
)

B = 500.0


def _diag_channel(amps, n_beams=None):
    """Orthogonal-column channel: ZF == identity directions, no interference."""
    amps = np.asarray(amps, dtype=float)
    k = amps.size
    n = n_beams or k
    H = np.zeros((n, k), dtype=complex)
    H[:k, :k] = np.diag(amps)
    return H


def _cfg(k, p_max, **kw):
    return SystemConfig(n_beams=k, n_users=k, p_max_w=p_max, **kw)


# ---------------------------------------------------------------------------
# equal power

def test_equal_power_default_budget(cfg):
    H, W = make_instance(cfg, 1)
    qos = QoSProfile.uniform(500.0, cfg.n_users)
    res = equal_power(H, W, qos, cfg)
    per_user = 10.0**2.337 / 7.0
    assert np.allclose(res.powers, per_user)
    assert per_user == pytest.approx(31.04, abs=0.01)
    assert 10 * np.log10(per_user) == pytest.approx(14.92, abs=0.005)
    assert res.powers.sum() == pytest.approx(cfg.p_max_w, rel=1e-15)


def test_equal_power_single_user():
    cfg = _cfg(1, 5.0)
    H = _diag_channel([1.0])
    W = make_zf(H)
    res = equal_power(H, W, QoSProfile.uniform(100.0, 1), cfg)
    assert res.powers[0] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# sum-rate maximization

def test_sum_opt_symmetric_channels_split_equally():
    cfg = _cfg(3, 9.0)
    H = _diag_channel([1.3, 1.3, 1.3])
    W = make_zf(H)
    res = sum_opt(H, W, QoSProfile.uniform(100.0, 3), cfg)
    assert np.allclose(res.powers, 3.0)


def test_sum_opt_matches_grid_oracle_for_zf():
    rng = np.random.default_rng(14)
    for k in (2, 3):
        amps = rng.uniform(0.3, 2.0, size=k)
        cfg = _cfg(k, 4.0)
        H = _diag_channel(amps)
        W = make_zf(H)
        res = sum_opt(H, W, QoSProfile.uniform(100.0, k), cfg)
        c = W.raw_norms**2 * cfg.noise_power_w
        got = waterfill_objective(c, res.powers, bandwidth=cfg.bandwidth_mhz)
        ref = simplex_grid_best(c, 4.0, bandwidth=cfg.bandwidth_mhz)
        assert got >= ref - 1e-5 * abs(ref)


def test_sum_opt_zero_budget():
    cfg = _cfg(2, 0.0)
    H = _diag_channel([1.0, 2.0])
    W = make_zf(H)
    res = sum_opt(H, W, QoSProfile.uniform(100.0, 2), cfg)
    assert np.all(res.rates_mbps == 0.0)
    assert res.satisfied == frozenset()


# ---------------------------------------------------------------------------
# closed-form ZF joint optimizer

def test_joint_zf_feasible_branch_contract():
    cfg = _cfg(3, 10.0)
    amps = np.array([1.0, 0.8, 1.4])
    H = _diag_channel(amps)
    W = make_zf(H)
    qos = QoSProfile.uniform(400.0, 3)
    res = joint_opt_zf(H, W, qos, cfg)
    assert not res.congested
    assert res.satisfied == frozenset({0, 1, 2})
    assert np.all(res.rates_mbps >= qos.demands * (1 - 1e-9))
    assert res.powers.sum() == pytest.approx(10.0, rel=1e-12)
    # powers decompose into minimum powers plus a water-fill of the surplus
    c = W.raw_norms**2 * cfg.noise_power_w
    p_min = sinr_targets(qos.demands, B) * c
    assert np.allclose(res.powers, p_min + waterfill(c, 10.0 - p_min.sum()))


def test_joint_zf_three_user_prefix():
    # p_min/P_max = [0.2, 0.5, 0.9]: only the two cheapest users fit
    cfg = _cfg(3, 1.0)
    shares = np.array([0.2, 0.5, 0.9])
    amps = 1.0 / np.sqrt(shares)  # alpha = 1 at xi = B
    H = _diag_channel(amps)
    W = make_zf(H)
    qos = QoSProfile.uniform(B, 3)
    res = joint_opt_zf(H, W, qos, cfg)
    assert res.satisfied == frozenset({0, 1})
    assert res.congested
    assert res.powers[0] == pytest.approx(0.2, rel=1e-12)
    assert res.powers[1] == pytest.approx(0.5, rel=1e-12)
    assert res.powers[2] == pytest.approx(0.3, rel=1e-12)  # leftover
    # exhaustive subset oracle confirms |Q| is maximal
    p_min = shares
    best = max(
        m
        for m in range(4)
        for s in combinations(range(3), m)
        if p_min[list(s)].sum() <= 1.0 + 1e-12
    )
    assert len(res.satisfied) == best


def test_joint_zf_all_demands_unaffordable():
    cfg = _cfg(3, 1.0)
    H = _diag_channel([1.0, 0.9, 1.1])
    W = make_zf(H)
    # every p_min alone exceeds the budget: alpha = 3 at xi = 2B
    qos = QoSProfile.uniform(2 * B, 3)
    p_min = sinr_targets(qos.demands, B) * W.raw_norms**2
    assert np.all(p_min > 1.0)
    res = joint_opt_zf(H, W, qos, cfg)
    assert res.satisfied == frozenset()
    c = W.raw_norms**2 * cfg.noise_power_w
    assert np.allclose(res.powers, waterfill(c, 1.0))


def test_joint_zf_requires_zf():
    H = _diag_channel([1.0, 1.0])
    W = make_rzf(H, 1.0, 4.0)
    with pytest.raises(ValueError):
        joint_opt_zf(H, W, QoSProfile.uniform(100.0, 2), _cfg(2, 4.0))


def test_joint_rzf_requires_rzf():
    H = _diag_channel([1.0, 1.0])
    with pytest.raises(ValueError, match="RZF allocator requires an RZF precoder"):
        joint_opt_rzf(H, make_zf(H), QoSProfile.uniform(100.0, 2), _cfg(2, 4.0))


# ---------------------------------------------------------------------------
# iterative RZF joint optimizer

def test_joint_rzf_zero_interference_matches_zf_branches():
    # orthogonal columns make the rate upper bound tight
    amps = np.array([1.0, 0.7, 1.2])
    H = _diag_channel(amps)
    cfg = _cfg(3, 10.0)
    W_rzf = make_rzf(H, cfg.noise_power_w, cfg.p_max_w)
    W_zf = make_zf(H)
    qos = QoSProfile(demands=np.full(3, 400.0), tolerances=np.zeros(3))
    res_r = joint_opt_rzf(H, W_rzf, qos, cfg)
    res_z = joint_opt_zf(H, W_zf, qos, cfg)
    assert not res_r.congested and not res_z.congested
    assert np.allclose(res_r.powers, res_z.powers, rtol=1e-9)
    # congested branch: both fall back to pure water-filling when nothing fits
    qos_hi = QoSProfile(demands=np.full(3, 3 * B), tolerances=np.zeros(3))
    cfg_small = _cfg(3, 0.5)
    res_r = joint_opt_rzf(H, make_rzf(H, 1.0, 0.5), qos_hi, cfg_small)
    res_z = joint_opt_zf(H, W_zf, qos_hi, cfg_small)
    assert res_r.satisfied == res_z.satisfied == frozenset()
    assert np.allclose(res_r.powers, res_z.powers, rtol=1e-9)


def test_joint_rzf_feasible_with_zero_tolerance_meets_demands(cfg):
    hits = 0
    for seed in range(30):
        H, W = make_instance(cfg, 100 + seed, "rzf")
        qos = QoSProfile(demands=np.full(7, 300.0), tolerances=np.zeros(7))
        res = joint_opt_rzf(H, W, qos, cfg)
        if res.congested:
            continue
        hits += 1
        assert np.all(res.rates_mbps >= qos.demands * (1 - 1e-6))
    assert hits > 10


def test_joint_rzf_trace_monotone(cfg):
    seen_congested = 0
    for seed in range(40):
        H, W = make_instance(cfg, 300 + seed, "rzf")
        qos = QoSProfile.uniform(900.0, 7)
        res = joint_opt_rzf(H, W, qos, cfg)
        sizes = [t[0] for t in res.trace]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        seen_congested += res.congested
    assert seen_congested > 10


# ---------------------------------------------------------------------------
# precoder-agnostic joint optimizer

def test_generic_matches_zf_algorithm(cfg):
    for seed in range(25):
        H, W = make_instance(cfg, 500 + seed)
        xi = float(np.random.default_rng(seed).uniform(300, 1300))
        qos = QoSProfile.uniform(xi, 7)
        a2 = joint_opt_zf(H, W, qos, cfg)
        g = joint_opt_generic(H, W, qos, cfg)
        assert g.satisfied == a2.satisfied
        assert g.rates_mbps.sum() == pytest.approx(a2.rates_mbps.sum(), rel=1e-6)


def test_generic_feasible_serves_everyone(cfg):
    H, W = make_instance(cfg, 2)
    qos = QoSProfile.uniform(200.0, 7)
    res = joint_opt_generic(H, W, qos, cfg)
    assert not res.congested
    assert res.satisfied == frozenset(range(7))
    assert res.iterations == 0


def test_generic_trace_follows_convergence_theorem(cfg):
    # the sum-rate descent series is exact when the inner subproblem is solved
    # optimally, which the water-filling subsolver achieves for ZF; for RZF the
    # subproblem is non-convex and only the set growth is guaranteed
    congested = 0
    for seed in range(30):
        for kind in ("zf", "rzf"):
            H, W = make_instance(cfg, 700 + seed, kind)
            res = joint_opt_generic(H, W, QoSProfile.uniform(1000.0, 7), cfg)
            if not res.congested:
                continue
            congested += 1
            sizes = [t[0] for t in res.trace]
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))
            growth = sum(b > a for a, b in zip(sizes, sizes[1:]))
            assert growth <= 7
            if kind == "zf":
                sums = [t[1] for t in res.trace]
                assert all(b <= a * (1 + 1e-9) for a, b in zip(sums, sums[1:]))
    assert congested > 20


def test_generic_dominates_sum_opt(cfg):
    for seed in range(20):
        for kind in ("zf", "rzf"):
            H, W = make_instance(cfg, 900 + seed, kind)
            qos = QoSProfile.uniform(800.0, 7)
            so = sum_opt(H, W, qos, cfg)
            jo = joint_opt_generic(H, W, qos, cfg)
            assert len(jo.satisfied) >= len(so.satisfied)


def test_joint_dispatch_matches_kind(cfg):
    qos = QoSProfile.uniform(600.0, 7)
    for kind, fn in (("zf", joint_opt_zf), ("rzf", joint_opt_rzf)):
        H, W = make_instance(cfg, 4, kind)
        direct = fn(H, W, qos, cfg)
        via = joint_opt(H, W, qos, cfg)
        assert np.array_equal(direct.powers, via.powers)


# ---------------------------------------------------------------------------
# satisfied-set maximization

def test_satisset_feasible_splits_surplus_equally():
    cfg = _cfg(3, 10.0)
    H = _diag_channel([1.0, 0.8, 1.4])
    W = make_zf(H)
    qos = QoSProfile.uniform(400.0, 3)
    res = satis_set_opt(H, W, qos, cfg)
    c = W.raw_norms**2 * cfg.noise_power_w
    p_min = sinr_targets(qos.demands, B) * c
    assert np.allclose(res.powers, p_min + (10.0 - p_min.sum()) / 3.0, rtol=1e-12)


def test_satisset_zero_surplus_is_min_power():
    cfg = _cfg(2, 1.0)
    shares = np.array([0.6, 0.4])
    H = _diag_channel(1.0 / np.sqrt(shares))
    W = make_zf(H)
    res = satis_set_opt(H, W, QoSProfile.uniform(B, 2), cfg)
    assert np.allclose(res.powers, shares, rtol=1e-12)


def test_satisset_congested_mirrors_joint(cfg):
    congested = 0
    for seed in range(25):
        for kind in ("zf", "rzf"):
            H, W = make_instance(cfg, 1100 + seed, kind)
            qos = QoSProfile.uniform(1000.0, 7)
            jo = joint_opt(H, W, qos, cfg)
            ss = satis_set_opt(H, W, qos, cfg)
            if not jo.congested:
                continue
            congested += 1
            assert ss.satisfied == jo.satisfied
            assert ss.rates_mbps.sum() <= jo.rates_mbps.sum() * (1 + 1e-9)
    assert congested > 20


def test_satisset_weakly_below_joint_on_sum_rate(cfg):
    for seed in range(15):
        H, W = make_instance(cfg, 1300 + seed)
        qos = QoSProfile.uniform(400.0, 7)
        jo = joint_opt(H, W, qos, cfg)
        ss = satis_set_opt(H, W, qos, cfg)
        assert ss.rates_mbps.sum() <= jo.rates_mbps.sum() * (1 + 1e-9)


# ---------------------------------------------------------------------------
# cross-strategy invariants

def test_budget_and_membership_invariants(cfg):
    qos = QoSProfile.uniform(700.0, 7)
    for seed in range(10):
        for kind in ("zf", "rzf"):
            H, W = make_instance(cfg, 1500 + seed, kind)
            for fn in (equal_power, sum_opt, satis_set_opt, joint_opt, joint_opt_generic):
                res = fn(H, W, qos, cfg)
                assert res.powers.sum() <= cfg.p_max_w + 1e-9
                assert np.all(res.powers >= -1e-15)
                recomputed = rates(H, W, res.powers, cfg)
                mask = satisfied_mask(recomputed, qos.demands)
                assert res.satisfied == frozenset(np.nonzero(mask)[0].tolist())
                assert res.congested == (len(res.satisfied) < 7)


def test_joint_and_sumopt_spend_full_budget(cfg):
    qos = QoSProfile.uniform(900.0, 7)
    for seed in range(10):
        H, W = make_instance(cfg, 1700 + seed)
        for fn in (sum_opt, joint_opt):
            res = fn(H, W, qos, cfg)
            assert res.powers.sum() == pytest.approx(cfg.p_max_w, rel=1e-9)


def test_qos_profile_validation():
    with pytest.raises(ValueError):
        QoSProfile(demands=np.array([100.0, 0.0]), tolerances=np.zeros(2))
    with pytest.raises(ValueError):
        QoSProfile(demands=np.array([100.0]), tolerances=np.array([-1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            QoSProfile.uniform(bad, 7)
        with pytest.raises(ValueError, match="finite"):
            QoSProfile.per_user([100.0, bad])
        with pytest.raises(ValueError, match="finite"):
            QoSProfile(demands=np.array([100.0]), tolerances=np.array([bad]))
    with pytest.raises(ValueError, match="equal length"):
        QoSProfile(demands=np.array([100.0, 200.0]), tolerances=np.zeros(3))
    q = QoSProfile.uniform(250.0, 3)
    assert np.allclose(q.tolerances, 5.0)  # default 2% relaxation


# ---------------------------------------------------------------------------
# outcomes, and the congestion branch that joint and satisset share

def _case(kind, k, extra, seed, p_max, xi, omega):
    """Gaussian K-user channel with a ZF, RZF or matched-filter precoder (any
    other kind, built directly and served by joint_opt_generic)."""
    H = random_channel(k + extra, k, seed)
    cfg = SystemConfig(n_beams=k + extra, n_users=k, p_max_w=p_max)
    if kind == "zf":
        W = make_zf(H)
    elif kind == "rzf":
        W = make_rzf(H, cfg.noise_power_w, p_max)
    else:
        norms = np.linalg.norm(H, axis=0)
        W = Precoder(W=H / norms, raw_norms=norms, kind=kind)
    return H, W, QoSProfile.per_user(xi, omega), cfg


def _seeded_case(seed, kind):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    extra = int(rng.integers(0, 3))
    p_max = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
    xi = rng.uniform(50.0, 1500.0, size=k)
    return _case(kind, k, extra, seed, p_max, xi, float(rng.choice([0.0, 0.02])))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf", "mrt"]),
    k=st.integers(1, 7),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.floats(0.5, 50.0),
    xi_frac=st.lists(st.floats(0.1, 3.0), min_size=7, max_size=7),
    omega=st.sampled_from([0.0, 0.02]),
)
def test_satisset_returns_joint_powers_when_joint_is_congested(
    kind, k, extra, seed, p_max, xi_frac, omega
):
    try:
        H, W, qos, cfg = _case(kind, k, extra, seed, p_max, B * np.array(xi_frac[:k]), omega)
    except PrecoderSingularError:
        assume(False)
    jo = joint_opt(H, W, qos, cfg)
    ss = satis_set_opt(H, W, qos, cfg)
    assert jo.outcome in (
        "feasible_closed_form", "feasible_guard_repaired", "feasible_guard_scaled",
        "congested_growth", "not_converged",
    )
    assert jo.converged == (jo.outcome != "not_converged")
    # a congested result carries no minimum powers: the campaign's own rule
    if jo.min_powers is None:
        assert np.array_equal(ss.powers, jo.powers)
        assert (ss.outcome, ss.iterations, ss.trace) == (jo.outcome, jo.iterations, jo.trace)
    else:
        assert not jo.congested  # every feasible outcome serves all demands


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf", "mrt"]),
    k=st.integers(1, 8),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.floats(0.1, 100.0),
    xi=st.lists(st.floats(25.0, 1500.0), min_size=8, max_size=8),
    omega=st.sampled_from([0.0, 0.02]),
)
def test_every_allocator_spends_the_budget_on_nonnegative_powers(kind, k, extra, seed, p_max, xi, omega):
    try:
        H, W, qos, cfg = _case(kind, k, extra, seed, p_max, np.array(xi[:k]), omega)
    except PrecoderSingularError:
        assume(False)
    link = effective_gains(H, W)
    for alloc in (equal_power, sum_opt, satis_set_opt, joint_opt, joint_opt_generic):
        res = alloc(link, W, qos, cfg)
        assert np.all(res.powers >= 0), alloc.__name__
        assert len(res.satisfied) <= k, alloc.__name__
        assert abs(res.powers.sum() - p_max) <= 1e-9 * p_max, (alloc.__name__, res.powers.sum(), p_max)


# a feasible RZF instance whose equal split fails the rate guard
_SATISSET_SCALED = dict(
    kind="rzf", k=7, extra=0, seed=399, p_max=31.0, omega=0.02,
    xi=[1325.0, 1482.0, 549.0, 757.0, 619.0, 708.0, 1286.0, 635.0],
)
# a feasible RZF instance whose water-filled top-up passes the rate guard
_RZF_CLOSED_FORM = dict(
    kind="rzf", k=7, extra=2, seed=234, p_max=22.0, omega=0.02,
    xi=[1462.0, 1349.0, 1270.0, 604.0, 752.0, 1023.0, 115.0, 845.0],
)


def _kw_case(kind, k, extra, seed, p_max, xi, omega):
    return _case(kind, k, extra, seed, p_max, np.array(xi[:k]), omega)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf", "mrt"]),
    k=st.integers(1, 8),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.floats(0.5, 50.0),
    xi=st.lists(st.floats(25.0, 1500.0), min_size=8, max_size=8),
    omega=st.sampled_from([0.0, 0.02]),
)
@example(**_SATISSET_SCALED)
def test_satisset_from_joint_equals_a_fresh_solve(kind, k, extra, seed, p_max, xi, omega):
    try:
        H, W, qos, cfg = _kw_case(kind, k, extra, seed, p_max, xi, omega)
    except PrecoderSingularError:
        assume(False)
    link = effective_gains(H, W)
    jo = joint_opt(link, W, qos, cfg)
    p_ref, outcome_ref = satis_set_reference(link, W, qos, cfg, jo)
    # a feasible outcome carries the minimum powers it topped up, a congested one none
    assert (jo.min_powers is None) == (not jo.outcome.startswith("feasible_"))
    derived = satis_set_from_joint(link, W, qos, cfg, jo)
    if jo.min_powers is None:
        assert derived is jo
    for ss in (derived, satis_set_opt(link, W, qos, cfg)):
        assert np.array_equal(ss.powers, p_ref) and ss.outcome == outcome_ref
        assert np.array_equal(ss.rates_mbps, rates(link, W, ss.powers, cfg))
        if jo.min_powers is None:
            assert (ss.iterations, ss.trace, ss.min_powers) == (jo.iterations, jo.trace, None)
        else:
            assert np.array_equal(ss.min_powers, jo.min_powers)
            assert (ss.iterations, ss.trace) == (0, ((len(ss.satisfied), float(ss.rates_mbps.sum())),))


def test_the_example_cases_reach_their_outcomes():
    H, W, qos, cfg = _kw_case(**_SATISSET_SCALED)
    assert satis_set_opt(H, W, qos, cfg).outcome == "feasible_guard_scaled"
    H, W, qos, cfg = _kw_case(**_RZF_CLOSED_FORM)
    assert joint_opt(H, W, qos, cfg).outcome == "feasible_closed_form"


def test_each_rate_vector_is_computed_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rates(*args)

    monkeypatch.setattr(allocators, "rates", counted)
    cases = [_kw_case(**_RZF_CLOSED_FORM), _seeded_case(1, "zf"), _seeded_case(0, "zf"), _seeded_case(0, "rzf")]
    for H, W, qos, cfg in cases:
        link = effective_gains(H, W)
        calls.clear()
        jo = joint_opt(link, W, qos, cfg)
        if jo.outcome == "feasible_closed_form":
            # RZF's rate guard already scored the topped-up powers
            assert len(calls) == 1, W.kind
        else:
            # the growth loop scores each round once, the best iterate included
            assert len(calls) <= jo.iterations + 1, W.kind
        joint_calls = len(calls)
        calls.clear()
        satis_set_from_joint(link, W, qos, cfg, jo)
        assert len(calls) <= 1, W.kind
        # a standalone satisset is joint plus the equal split
        calls.clear()
        satis_set_opt(link, W, qos, cfg)
        assert len(calls) <= joint_calls + 1, W.kind


@pytest.mark.parametrize(
    "kind, seed, outcome",
    [
        ("zf", 1, "feasible_closed_form"),
        ("zf", 0, "congested_growth"),
        ("rzf", 0, "congested_growth"),
        ("rzf", 4, "feasible_guard_repaired"),
        ("rzf", 418, "feasible_guard_scaled"),
        ("mrt", 12, "feasible_guard_repaired"),
        ("mrt", 1, "feasible_guard_scaled"),
        ("mrt", 8, "not_converged"),
    ],
)
def test_joint_reports_outcome(kind, seed, outcome):
    res = joint_opt(*_seeded_case(seed, kind))
    assert res.outcome == outcome
    assert res.converged == (outcome != "not_converged")


# ---------------------------------------------------------------------------
# sum(nu) > P_max: congestion shown without the certificate's solve

@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["rzf", "mrt"]),
    k=st.integers(1, 7),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    xi_frac=st.lists(st.floats(0.1, 3.0), min_size=7, max_size=7),
    log_budget=st.floats(-2.0, 2.0),  # the budget around sum(nu)
)
def test_nu_above_the_budget_is_never_feasible(kind, k, extra, seed, xi_frac, log_budget):
    try:
        H, W, qos, cfg = _case(kind, k, extra, seed, 1.0, B * np.array(xi_frac[:k]), 0.02)
    except PrecoderSingularError:
        assume(False)
    ds = _demand_system(H, W, qos, cfg)
    p_max = float(ds.nu.sum() * np.exp(log_budget))
    rep = check_feasible(ds, p_max)
    if rep.radius_ok:
        assert np.all(rep.min_powers >= ds.nu)  # (I - RQ)^-1 >= I
    if ds.nu.sum() > p_max:
        assert not rep.feasible


@pytest.mark.parametrize("joint", [joint_opt_rzf, joint_opt_generic])
def test_nu_above_the_budget_skips_the_certificate(joint, monkeypatch):
    H, W, qos, cfg = _case("rzf", 6, 1, 3, 0.5, np.full(6, 600.0), 0.02)
    for demands in (qos.demands, qos.demands + qos.tolerances):  # generic's, then RZF's relaxed ones
        ds = build_demand_system(H, W, demands, cfg.noise_power_w, cfg.bandwidth_mhz)
        assert ds.nu.sum() > cfg.p_max_w
    calls = []

    def counted(ds, p_budget):
        calls.append(p_budget)
        return check_feasible(ds, p_budget)

    monkeypatch.setattr(allocators, "check_feasible", counted)
    skipped = joint(H, W, qos, cfg)
    assert calls == []
    monkeypatch.setattr(allocators, "_certificate", counted)  # the certificate, forced
    forced = joint(H, W, qos, cfg)
    assert calls == [cfg.p_max_w]
    assert np.array_equal(skipped.powers, forced.powers)
    assert np.array_equal(skipped.rates_mbps, forced.rates_mbps)
    assert (skipped.outcome, skipped.trace, skipped.satisfied, skipped.iterations) == (
        forced.outcome, forced.trace, forced.satisfied, forced.iterations)
    assert skipped.outcome == "congested_growth"


# ---------------------------------------------------------------------------
# pinned-set solver: one factorization per call against a fresh solve per sweep

def _demand_system(H, W, qos, cfg):
    return build_demand_system(
        effective_gains(H, W), W, qos.demands, cfg.noise_power_w, cfg.bandwidth_mhz
    )


def _assert_matches_per_sweep(ds, pinned, p_budget, p_start):
    ref, ok_ref = solve_pinned_per_sweep(ds, pinned, p_budget, p_start)
    p, ok = allocators._solve_pinned(ds, pinned, p_budget, p_start)
    assert ok == ok_ref
    assert np.max(np.abs(p - ref)) <= 1e-12 * max(1.0, p_budget)
    if ref is p_start:
        assert p is p_start
    return p, ok


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf", "mrt"]),
    k=st.integers(1, 8),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.floats(0.5, 50.0),
    xi_frac=st.lists(st.floats(0.1, 3.0), min_size=8, max_size=8),
    pinned=st.lists(st.booleans(), min_size=8, max_size=8),
    start_frac=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
)
def test_solve_pinned_matches_per_sweep_oracle(
    kind, k, extra, seed, p_max, xi_frac, pinned, start_frac
):
    try:
        H, W, qos, cfg = _case(kind, k, extra, seed, p_max, B * np.array(xi_frac[:k]), 0.02)
    except PrecoderSingularError:
        assume(False)
    p_start = np.array(start_frac[:k]) * (p_max / k)
    _assert_matches_per_sweep(_demand_system(H, W, qos, cfg), np.array(pinned[:k]), p_max, p_start)


def _mrt_system():
    """Matched-filter case: every pinned user sees the others' interference."""
    H, W, qos, cfg = _case("mrt", 5, 1, 3, 20.0, np.full(5, 300.0), 0.02)
    return _demand_system(H, W, qos, cfg), cfg.p_max_w


def _pinned_alone(ds, pinned):
    """Exact-demand powers of the pinned users with every other user off."""
    s = np.flatnonzero(pinned)
    return m_matrix_solve(np.eye(s.size) - ds.R[s, None] * ds.Qm[np.ix_(s, s)], ds.nu[s])


def test_solve_pinned_every_user_pinned():
    ds, p_max = _mrt_system()
    rep = check_feasible(ds, p_max)
    assert rep.feasible
    everyone = np.ones(5, dtype=bool)
    for budget, feasible in ((p_max, True), (0.5 * rep.total_min_power, False)):
        p, ok = _assert_matches_per_sweep(ds, everyone, budget, np.ones(5))
        assert ok == feasible
        assert np.array_equal(p, rep.min_powers)


@pytest.mark.parametrize("budget_share, feasible", [(1.0, True), (0.5, False)])
def test_solve_pinned_block_at_or_over_budget_leaves_the_complement_dark(budget_share, feasible):
    # a pinned block that spends the whole budget is ok; one that needs twice
    # the budget is not
    ds, _ = _mrt_system()
    pinned = np.array([True, False, True, False, False])
    p_alone = _pinned_alone(ds, pinned)
    budget = budget_share * float(p_alone.sum())
    p, ok = _assert_matches_per_sweep(ds, pinned, budget, np.ones(5))
    assert ok == feasible
    assert np.all(p[~pinned] == 0.0)
    assert np.array_equal(p[pinned], p_alone)


def test_sum_opt_budget_below_cost_rounding():
    # the budget is below the float spacing of every cost: it all goes to the
    # cheapest channel, and no rate rises above zero
    cfg = _cfg(2, 1e-30)
    H = _diag_channel([1.0, 2.0])
    res = sum_opt(H, make_zf(H), QoSProfile.uniform(100.0, 2), cfg)
    assert res.powers.tolist() == [0.0, 1e-30]
    assert np.all(res.rates_mbps == 0.0)


# seeds from test_joint_reports_outcome, so every joint branch runs on a Link
@pytest.mark.parametrize(
    "kind, seeds",
    [("zf", (0, 1, 5)), ("rzf", (0, 4, 418)), ("mrt", (1, 8, 12))],
)
def test_prebuilt_link_gives_the_channel_results(kind, seeds):
    for seed in seeds:
        H, W, qos, cfg = _seeded_case(seed, kind)
        link = effective_gains(H, W)
        allocs = [equal_power, sum_opt, joint_opt, joint_opt_generic, satis_set_opt]
        allocs += {"zf": [joint_opt_zf], "rzf": [joint_opt_rzf]}.get(kind, [])
        for alloc in allocs:
            a, b = alloc(H, W, qos, cfg), alloc(link, W, qos, cfg)
            assert np.array_equal(a.powers, b.powers) and np.array_equal(a.rates_mbps, b.rates_mbps)
            assert (a.satisfied, a.trace, a.iterations, a.outcome) == (
                b.satisfied, b.trace, b.iterations, b.outcome
            )
        p = np.random.default_rng(seed).uniform(0.0, cfg.p_max_w, size=len(qos.demands))
        assert np.array_equal(rates(H, W, p, cfg), rates(link, W, p, cfg))
        ds_h = build_demand_system(H, W, qos.demands, cfg.noise_power_w, cfg.bandwidth_mhz)
        ds_l = build_demand_system(link, W, qos.demands, cfg.noise_power_w, cfg.bandwidth_mhz)
        for name in ("R", "Qm", "nu", "alpha"):
            assert np.array_equal(getattr(ds_h, name), getattr(ds_l, name))


def test_link_is_read_only_and_bound_to_its_precoder():
    H, W, qos, cfg = _seeded_case(0, "zf")
    link = effective_gains(H, W)
    assert np.array_equal(link.g, np.diag(link.Q))
    with pytest.raises(ValueError):
        link.Q[0, 0] = 1.0
    with pytest.raises(ValueError):
        link.g[0] = 1.0
    other = make_rzf(H, cfg.noise_power_w, cfg.p_max_w)
    assert effective_gains(link, W) is link
    with pytest.raises(ValueError, match="different precoder"):
        effective_gains(link, other)
    for call in (
        lambda: joint_opt(link, other, qos, cfg),
        lambda: equal_power(link, other, qos, cfg),
        lambda: rates(link, other, np.ones(len(qos.demands)), cfg),
        lambda: build_demand_system(link, other, qos.demands, 1.0, cfg.bandwidth_mhz),
    ):
        with pytest.raises(ValueError, match="different precoder"):
            call()


def test_no_allocator_satisfies_more_users_than_the_exact_oracle():
    cfg = SystemConfig()  # N = K = 7
    k = cfg.n_users
    demand_sets = [np.full(k, xi) for xi in (300.0, 600.0, 900.0, 1200.0)]
    demand_sets.append(np.linspace(200.0, 1400.0, k))
    sizes = set()
    for seed in range(500, 510):
        trial = make_trial(cfg, seed)
        for kind in ("zf", "rzf"):
            W = build_precoder(trial, cfg, kind)
            link = effective_gains(trial.channel, W)
            for demands in demand_sets:
                qos = QoSProfile.per_user(demands)
                best = len(max_satisfiable_set(
                    link.Q, demands, cfg.noise_power_w, cfg.bandwidth_mhz, cfg.p_max_w, RATE_REL_TOL
                ))
                sizes.add(best)
                served = {alloc.__name__: len(alloc(link, W, qos, cfg).satisfied)
                          for alloc in (equal_power, sum_opt, satis_set_opt, joint_opt, joint_opt_generic)}
                assert max(served.values()) <= best, (seed, kind, demands[0], served, best)
                if kind == "zf":
                    assert served["joint_opt"] == best, (seed, demands[0], served, best)
    # the cells cover both uncongested and congested instances
    assert k in sizes and min(sizes) < k
