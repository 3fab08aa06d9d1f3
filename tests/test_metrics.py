import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beamalloc import QoSProfile, SystemConfig
from beamalloc.allocators import satisfied_mask, sum_opt
from beamalloc.experiment import _score_chunk
from beamalloc.metrics import (
    aggregate,
    jain,
    lambda_objective,
    rates,
    sinr,
)
from beamalloc.precoding import Precoder
from conftest import make_instance


def _identity_precoder(k):
    return Precoder(
        W=np.eye(k, dtype=complex), raw_norms=np.ones(k), kind="rzf"
    )


def test_single_user_sinr_has_no_interference():
    H = np.array([[0.8 + 0.6j]])
    W = _identity_precoder(1)
    g = sinr(H, W, np.array([2.0]), noise_power=0.5)
    assert g[0] == pytest.approx(2.0 * 1.0 / 0.5)


def test_zero_power_zero_rates(cfg):
    H, W = make_instance(cfg, 5)
    assert np.all(rates(H, W, np.zeros(7), cfg) == 0.0)


def test_two_user_rate_hand_substitution():
    # gains [[1.0, 0.2], [0.3, 0.5]], sigma^2 = 0.4, p = [2, 3]
    q = np.array([[1.0, 0.2], [0.3, 0.5]])
    H = np.sqrt(q).T.astype(complex)
    W = _identity_precoder(2)
    cfg = SystemConfig(n_beams=2, n_users=2, noise_power_w=0.4)
    p = np.array([2.0, 3.0])
    g1 = 2.0 * 1.0 / (3.0 * 0.2 + 0.4)
    g2 = 3.0 * 0.5 / (2.0 * 0.3 + 0.4)
    expect = cfg.bandwidth_mhz * np.log2(1 + np.array([g1, g2]))
    assert np.allclose(rates(H, W, p, cfg), expect, rtol=1e-12)


def test_rates_match_zf_closed_form(cfg):
    rng = np.random.default_rng(0)
    for seed in range(10):
        H, W = make_instance(cfg, 40 + seed)
        p = rng.uniform(0.1, 40.0, size=7)
        full = rates(H, W, p, cfg)
        closed = cfg.bandwidth_mhz * np.log2(
            1.0 + p / (W.raw_norms**2 * cfg.noise_power_w)
        )
        assert np.allclose(full, closed, rtol=1e-8)


def test_jain_values():
    assert jain(np.full(5, 0.7)) == pytest.approx(1.0)
    assert jain(np.array([0.0, 0.0, 3.0])) == pytest.approx(1.0 / 3.0)
    assert jain(np.array([1.0, 0.5])) == pytest.approx(0.9)


def test_jain_bounds_fuzz():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        o = rng.uniform(0.0, 5.0, size=k)
        if not o.any():
            continue
        j = jain(o)
        assert 1.0 / k - 1e-12 <= j <= 1.0 + 1e-12


def test_jain_rejects_degenerate():
    with pytest.raises(ValueError):
        jain(np.zeros(3))
    with pytest.raises(ValueError):
        jain(np.array([1.0, -0.1]))


def test_jain_is_scale_free_and_finite_at_the_float_limits():
    rng = np.random.default_rng(3)
    o = rng.uniform(0.0, 5.0, size=(200, 7))
    ref = jain(o)
    # rows within 2**±500 follow the plain formula bit for bit
    assert np.array_equal(ref, np.float_power(o.sum(axis=-1), 2) / (7 * np.sum(o**2, axis=-1)))
    # an exact power-of-two scale changes no bit, in a block of mixed scales too
    for e in (-1000, -600, 600, 1000, 1020):
        assert np.array_equal(jain(np.ldexp(o, e)), ref)
    mixed = np.ldexp(o, rng.choice([-900, 0, 900], size=(200, 1)))
    assert np.array_equal(jain(mixed), ref)
    for scale in (1e-303, 1e303):
        assert np.allclose(jain(o * scale), ref, rtol=1e-14, atol=0.0)


def test_lambda_for_sum_opt_itself_with_all_satisfied(cfg):
    H, W = make_instance(cfg, 3)
    res = sum_opt(H, W, QoSProfile.uniform(100.0, 7), cfg)
    assert res.satisfied == frozenset(range(7))
    s = res.rates_mbps.sum()
    omega = 7 * s / (7 + s)
    assert lambda_objective(res.rates_mbps, len(res.satisfied), res.rates_mbps) == pytest.approx(2 * omega)


def test_lambda_zero_when_nothing_served():
    ref = np.array([100.0, 200.0])
    assert lambda_objective(np.array([0.0, 0.0]), 0, ref) == 0.0


def test_lambda_mixed_case_formula():
    ref = np.array([200.0, 90.0, 60.0])
    s = ref.sum()
    omega = 3 * s / (3 + s)
    expect = omega * (1.0 / 3.0 + 270.0 / s)
    assert lambda_objective(np.array([150.0, 80.0, 40.0]), 1, ref) == pytest.approx(expect, rel=1e-12)


def test_lambda_requires_nonzero_reference():
    with pytest.raises(ValueError):
        lambda_objective(np.array([1.0]), 1, np.zeros(1))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 40), n_blocks=st.integers(1, 8), n_rows=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-200.0, 200.0))
@example(k=37, n_blocks=8, n_rows=24, seed=0, log_scale=0.0)
def test_lambda_with_one_reference_per_row_equals_the_scalar_calls(k, n_blocks, n_rows, seed, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    r = rng.uniform(0.0, 3000.0, size=(n_blocks, n_rows, k)) * (rng.random((n_blocks, n_rows, k)) < 0.9) * scale
    n_sat = rng.integers(0, k + 1, size=(n_blocks, n_rows))
    refs = rng.uniform(1.0, 3000.0, size=(n_blocks, k)) * scale  # one per block of rows
    scalar = [float(lambda_objective(r[b, i], int(n_sat[b, i]), refs[b]))
              for b in range(n_blocks) for i in range(n_rows)]
    # a reference per block broadcast over its rows, and one per row
    by_block = lambda_objective(r, n_sat, refs[:, None])
    by_row = lambda_objective(r.reshape(-1, k), n_sat.ravel(), refs.repeat(n_rows, axis=0))
    assert by_block.shape == (n_blocks, n_rows) and by_row.shape == (n_blocks * n_rows,)
    assert by_block.ravel().tolist() == by_row.tolist() == scalar
    # one (K,) reference for every row is the same as that row repeated
    assert (lambda_objective(r, n_sat, refs[0]).tolist()
            == lambda_objective(r, n_sat, np.broadcast_to(refs[0], refs.shape)[:, None]).tolist())


def test_lambda_ratio_terms_scale_invariant():
    ref = np.array([200.0, 90.0])
    a = lambda_objective(np.array([150.0, 80.0]), 1, ref)
    b = lambda_objective(np.array([300.0, 160.0]), 1, ref * 2)
    s1, s2 = ref.sum(), 2 * ref.sum()
    # Omega changes with the scale but the bracketed terms do not
    assert a / (2 * s1 / (2 + s1)) == pytest.approx(b / (2 * s2 / (2 + s2)))


def _columns(**kw):
    """One trial's scores in MetricsSummary column order (after n_trials)."""
    base = dict(congested=1.0, satisfaction=5 / 7, sum_rate=1000.0, sum_rate_satisfied=800.0,
                sum_rate_unsatisfied=200.0, jain=0.8, lambda_obj=9.0)
    base.update(kw)
    return list(base.values())


def _sums(*trials):
    """Column sums of the given trials, added left to right."""
    return [sum(column) for column in zip(*trials)]


def test_aggregate_single_trial_is_identity():
    s = aggregate(_sums(_columns()), 1)
    assert s.congestion_prob == 1.0
    assert s.satisfaction_prob == pytest.approx(5 / 7)
    assert s.mean_sum_rate == 1000.0
    assert s.mean_sum_rate_satisfied == 800.0
    assert s.mean_sum_rate_unsatisfied == 200.0
    assert s.jain_index == 0.8
    assert s.lambda_obj == 9.0
    assert s.n_trials == 1


def test_aggregate_means():
    s = aggregate(_sums(_columns(), _columns()), 2)
    assert s.mean_sum_rate == 1000.0
    s2 = aggregate(_sums(_columns(congested=1.0), _columns(congested=0.0)), 2)
    assert s2.congestion_prob == 0.5


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate(_sums(), 0)


def _per_record_reference(r, demands, satisfied, sumopt_rates):
    """The scalar per-record formulas the block scoring replaces:
    (sum rate, satisfied and unsatisfied sums, Jain, Lambda)."""
    k = r.size
    o = r / demands
    jain_ref = float(np.sum(o)) ** 2 / (o.size * float(np.sum(o**2)))
    s = float(np.sum(sumopt_rates))
    lam_ref = k * s / (k + s) * (len(satisfied) / k + float(np.sum(r)) / s)
    sat = sorted(satisfied)
    unsat = [i for i in range(k) if i not in satisfied]
    return float(r.sum()), float(r[sat].sum()), float(r[unsat].sum()), jain_ref, lam_ref


def _check_block(rng, n_rows, k):
    r = rng.uniform(0.0, 3000.0, size=(n_rows, k)) * (rng.random((n_rows, k)) < 0.9)
    r[:, 0] += 1e-3  # Jain needs a nonzero ratio per row
    # demands near the rates with a per-row bias, so rows range from all users
    # satisfied to none; some demands equal their rate exactly
    demands = np.maximum(r, 1.0) * rng.uniform(0.7, 1.3, size=(n_rows, 1))
    demands *= rng.uniform(0.9, 1.1, size=(n_rows, k))
    ties = (rng.random((n_rows, k)) < 0.05) & (r > 0)
    demands[ties] = r[ties]
    masks = satisfied_mask(r, demands)
    sumopt_rates = rng.uniform(1.0, 3000.0, size=k)
    # one block whose rows each have their own demands; the rows' results
    # are gone, so their own satisfied sets cannot be scored by mistake
    scores, n_sat = _score_chunk([(0, 1, "zf")], [r], [sumopt_rates], demands, SystemConfig())
    assert scores.shape == (n_rows, 7) and scores.dtype == float
    jains = jain(r / demands)
    lams = lambda_objective(r, masks.sum(axis=-1), sumopt_rates)
    for i, row in enumerate(scores.tolist()):
        satisfied = set(np.flatnonzero(masks[i]).tolist())
        ref = _per_record_reference(r[i], demands[i], satisfied, sumopt_rates)
        # congested, n_satisfied/K, then the per-record formulas
        assert row == [float(len(satisfied) < k), len(satisfied) / k, *ref]
        assert n_sat[i] == len(satisfied)
        # one row is the scalar case, equal to its row of the block
        assert jain(r[i] / demands[i]) == jains[i] == ref[3]
        assert lambda_objective(r[i], int(masks[i].sum()), sumopt_rates) == lams[i] == ref[4]


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 40), n_rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(k=8, n_rows=30, seed=0)
@example(k=37, n_rows=30, seed=1)
def test_block_scoring_equals_per_record_scoring(k, n_rows, seed):
    _check_block(np.random.default_rng(seed), n_rows, k)


def test_block_scoring_is_bit_equal_on_many_rows():
    # a masked row sum (K >= 8) or x * x in place of libm pow in Jain each
    # differ from the per-record results in the last bit on some of these rows
    rng = np.random.default_rng(2024)
    for k in (7, 19, 37):
        _check_block(rng, 4000, k)


def test_jain_and_lambda_check_every_row():
    with pytest.raises(ValueError):
        jain(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jain(np.array([[1.0, 2.0], [1.0, -0.5]]))
    with pytest.raises(ValueError):
        lambda_objective(np.ones((2, 3)), np.array([1, 2]), np.zeros(3))
