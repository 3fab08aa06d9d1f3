"""joint_opt_block against the one-point allocators, row for row and bit for
bit, over one link's demand points and over rows with links of their own; the
numpy facts that its stacked arithmetic relies on; and gen-data's chunks."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from beamalloc import QoSProfile, allocators, experiment
from beamalloc.allocators import joint_opt, joint_opt_block, satis_set_opt, sum_opt
from beamalloc.config import SystemConfig
from beamalloc.experiment import build_precoder, make_trial
from beamalloc.feasibility import build_demand_system, check_feasible
from beamalloc.precoding import Precoder, PrecoderSingularError, effective_gains, make_rzf, make_zf
from beamalloc.waterfill import waterfill
from conftest import random_channel
from oracles import waterfill_reference
from test_allocators import _case, _kw_case, _seeded_case, _SATISSET_SCALED

# where a block's pivot point puts the budget: "random" keeps the drawn one
BUDGET_MODES = ("random", "zero surplus", "tiny surplus", "over budget", "between bound and certificate")


def _pivot_budget(link, W, qos, cfg, mode):
    """A budget that puts the demand point `qos` into the branch `mode`, or
    None where the instance has no such budget."""
    if mode == "random":
        return cfg.p_max_w
    if W.kind == "zf":
        c, p_min = allocators._zf_min_powers(W, qos.demands, cfg)
        total = diagonal = float(p_min.sum())
    else:
        ds = build_demand_system(link, W, qos.demands + qos.tolerances, cfg.noise_power_w, cfg.bandwidth_mhz)
        total = check_feasible(ds, np.inf).total_min_power
        diagonal = float(ds.nu @ (1.0 + ds.alpha))
    if not np.isfinite(total) or total <= 0:
        return None
    if mode == "zero surplus":
        return total
    if mode == "tiny surplus":  # one ulp over the minimum powers
        return float(np.nextafter(total, np.inf))
    if mode == "over budget":  # below the diagonal bound, which is the total for ZF
        return 0.5 * diagonal
    if W.kind == "rzf" and total > diagonal * (1.0 + 1e-6):  # certificate rejects, bound does not
        return float(np.sqrt(diagonal * total))
    return None


def _branch(link, W, qos, cfg, joint):
    """The branch of the block pass that the demand point `qos` takes."""
    if W.kind == "zf":
        return "zf " + ("in budget" if joint.outcome == "feasible_closed_form" else "over budget")
    ds = build_demand_system(link, W, qos.demands + qos.tolerances, cfg.noise_power_w, cfg.bandwidth_mhz)
    if not allocators._within_bound(ds, cfg.p_max_w):
        return "rzf rejected by the bound"
    if not check_feasible(ds, cfg.p_max_w).feasible:
        return "rzf rejected by the certificate"
    return "rzf " + joint.outcome


def _assert_block_equals_cells(H, W, qoss, cfg):
    """Each row of joint_opt_block equals joint_opt and satis_set_opt on the
    same Link; returns the branches and water-fill cases that the rows reached."""
    link = effective_gains(H, W)
    start = sum_opt(link, W, qoss[0], cfg)
    powers, served, outcomes = joint_opt_block(link, W, qoss, cfg, start)
    assert powers.shape == served.shape == (2, len(qoss), len(qoss[0].demands))
    reached = set()
    for i, qos in enumerate(qoss):
        joint = joint_opt(link, W, qos, cfg)
        for s, res in enumerate((joint, satis_set_opt(link, W, qos, cfg))):
            assert np.array_equal(powers[s, i], res.powers), (s, i)
            assert np.array_equal(served[s, i], res.rates_mbps), (s, i)
            assert outcomes[s][i] == res.outcome, (s, i)
            assert np.all(powers[s, i] >= 0)
            assert abs(powers[s, i].sum() - cfg.p_max_w) <= 1e-9 * cfg.p_max_w
            reached.add(("joint", "satisset")[s] + " " + res.outcome)
        reached.add(_branch(link, W, qos, cfg, joint))
        if joint.min_powers is not None:
            surplus = cfg.p_max_w - np.add.reduce(joint.min_powers)
            c = W.raw_norms**2 * cfg.noise_power_w if W.kind == "zf" else cfg.noise_power_w / link.g
            if surplus == 0.0:
                reached.add("zero surplus")
            elif c.min() + surplus == c.min():
                reached.add("surplus below the cheapest cost")
    return reached


def _block(kind, k, extra, seed, p_max, omega, xis, per_user, mode, pivot=0):
    """A block of demand points, uniform ones at the means `xis` or per-user
    ones around them, with the budget set by `mode` at the point `pivot`."""
    rng = np.random.default_rng(seed)
    H, W, _, cfg = _case(kind, k, extra, seed, p_max, np.ones(k), omega)
    qoss = [QoSProfile.per_user(xi * rng.uniform(0.5, 1.5, size=k), omega) if u
            else QoSProfile.uniform(xi, k, omega) for xi, u in zip(xis, per_user)]
    budget = _pivot_budget(effective_gains(H, W), W, qoss[pivot], cfg, mode)
    return H, W, qoss, None if budget is None else replace(cfg, p_max_w=budget)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf"]),
    k=st.integers(1, 7),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.floats(0.5, 50.0),
    omega=st.sampled_from([0.0, 0.02]),
    points=st.lists(st.tuples(st.floats(1.0, 1500.0), st.booleans()), min_size=1, max_size=8),
    mode=st.sampled_from(BUDGET_MODES),
)
@example(kind="zf", k=7, extra=0, seed=5, p_max=10.0, omega=0.02,
         points=[(1.0, False), (300.0, True), (1200.0, False)], mode="tiny surplus")
@example(kind="rzf", k=7, extra=0, seed=5, p_max=10.0, omega=0.02,
         points=[(1.0, False), (300.0, True), (1200.0, False)], mode="zero surplus")
def test_block_rows_equal_the_one_point_allocators(kind, k, extra, seed, p_max, omega, points, mode):
    xis, per_user = zip(*points)
    try:
        H, W, qoss, cfg = _block(kind, k, extra, seed, p_max, omega, xis, per_user, mode)
    except PrecoderSingularError:
        assume(False)
    assume(cfg is not None)
    _assert_block_equals_cells(H, W, qoss, cfg)


def _seeded_block(seed, kind, xis=(200.0, 700.0, 1400.0)):
    """The instance of `_seeded_case` as the first point of a block, the
    uniform demands `xis` after it."""
    H, W, qos, cfg = _seeded_case(seed, kind)
    k = len(qos.demands)
    omega = float(qos.tolerances[0] / qos.demands[0])
    return H, W, [qos, *(QoSProfile.uniform(xi, k, omega) for xi in xis)], cfg


def test_blocks_reach_every_branch():
    reached = set()
    # the rare RZF outcomes at the seeds of test_joint_reports_outcome
    for seed, kind in ((1, "zf"), (0, "zf"), (0, "rzf"), (4, "rzf"), (418, "rzf")):
        reached |= _assert_block_equals_cells(*_seeded_block(seed, kind))
    H, W, qos, cfg = _kw_case(**_SATISSET_SCALED)
    reached |= _assert_block_equals_cells(H, W, [qos, QoSProfile.uniform(100.0, len(qos.demands))], cfg)
    for kind in ("zf", "rzf"):
        for mode in BUDGET_MODES[1:]:
            block = _block(kind, 7, 0, 5, 10.0, 0.02, (1.0, 300.0, 900.0), (False, True, False), mode)
            if block[-1] is not None:
                reached |= _assert_block_equals_cells(*block)
    assert reached >= {
        "zf in budget", "zf over budget",
        "rzf feasible_closed_form", "rzf feasible_guard_repaired", "rzf feasible_guard_scaled",
        "rzf rejected by the bound", "rzf rejected by the certificate",
        "satisset feasible_guard_scaled", "zero surplus", "surplus below the cheapest cost",
    }, reached


def test_block_pass_builds_one_demand_system_and_takes_sum_opts_start(monkeypatch):
    # a congested RZF point grows from the block's sum-opt result, so the pass
    # builds no second demand system and repeats no sum-opt water-fill
    H, W, qoss, cfg = _seeded_block(0, "rzf")
    link = effective_gains(H, W)
    start = sum_opt(link, W, qoss[0], cfg)
    systems, fills = [], []
    build_demand_system, waterfill_ = allocators.build_demand_system, allocators.waterfill
    monkeypatch.setattr(allocators, "build_demand_system", lambda *a: systems.append(a) or build_demand_system(*a))
    monkeypatch.setattr(allocators, "waterfill", lambda c, b: fills.append((c, b)) or waterfill_(c, b))
    _, _, outcomes = joint_opt_block(link, W, qoss, cfg, start)
    assert "congested_growth" in outcomes[0]
    assert len(systems) == 1
    assert not [c for c, b in fills if np.ndim(b) == 0 and b == cfg.p_max_w and len(c) == len(link.g)]


def test_block_pass_serves_only_zf_and_rzf():
    H, W, qos, cfg = _seeded_case(3, "mrt")
    with pytest.raises(ValueError, match="ZF and RZF"):
        joint_opt_block(H, W, [qos], cfg, sum_opt(H, W, qos, cfg))


# ---------------------------------------------------------------------------
# rows with links of their own, as gen-data labels a chunk of trials

def _assert_rows_equal_cells(Hs, Ws, qoss, cfg):
    """Each row of joint_opt_block over the stacked Link of the rows' own
    channels and precoders equals joint_opt and satis_set_opt on that row's
    Link; returns the branches that the rows reached."""
    W = Precoder(np.stack([w.W for w in Ws]), np.stack([w.raw_norms for w in Ws]), Ws[0].kind)
    powers, served, outcomes = joint_opt_block(effective_gains(np.stack(Hs), W), W, list(qoss), cfg)
    assert powers.shape == served.shape == (2, len(qoss), len(qoss[0].demands))
    reached = set()
    for i, (H, W, qos) in enumerate(zip(Hs, Ws, qoss)):
        link = effective_gains(H, W)
        joint = joint_opt(link, W, qos, cfg)
        for s, res in enumerate((joint, satis_set_opt(link, W, qos, cfg))):
            assert np.array_equal(powers[s, i], res.powers), (s, i)
            assert np.array_equal(served[s, i], res.rates_mbps), (s, i)
            assert outcomes[s][i] == res.outcome, (s, i)
            assert np.all(powers[s, i] >= 0)
            assert abs(powers[s, i].sum() - cfg.p_max_w) <= 1e-9 * cfg.p_max_w
        reached.add(_branch(link, W, qos, cfg, joint))
    return reached


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf"]),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**31),
    n_rows=st.integers(1, 8),
    budget_scale=st.floats(1e-3, 10.0),
    xi=st.floats(50.0, 1500.0),
    per_user=st.booleans(),
    atmospherics=st.booleans(),
)
@example(kind="rzf", k=19, seed=1, n_rows=8, budget_scale=1.0, xi=300.0, per_user=True, atmospherics=False)
@example(kind="zf", k=19, seed=1, n_rows=8, budget_scale=1.0, xi=300.0, per_user=True, atmospherics=False)
def test_rows_of_drops_equal_per_trial_joint_opt(kind, k, seed, n_rows, budget_scale, xi, per_user, atmospherics):
    system = SystemConfig(n_beams=k, n_users=k, atmospherics=atmospherics)
    system = replace(system, p_max_w=system.p_max_w * budget_scale)
    rng = np.random.default_rng(seed)
    trials = [make_trial(system, seed + i) for i in range(n_rows)]
    qoss = [QoSProfile.per_user(xi * rng.uniform(0.5, 1.5, size=k)) if per_user else QoSProfile.uniform(xi, k)
            for _ in trials]
    Ws = [build_precoder(trial, system, kind) for trial in trials]
    _assert_rows_equal_cells([trial.channel for trial in trials], Ws, qoss, system)


def _rows_around(H, W, qos, cfg, n_more=3):
    """The instance as the first row, then `n_more` Gaussian channels of its
    shape with the same kind of precoder and the same demands."""
    Hs = [H, *(random_channel(*H.shape, 1000 + i) for i in range(n_more))]
    Ws = [W, *(make_zf(h) if W.kind == "zf" else make_rzf(h, cfg.noise_power_w, cfg.p_max_w) for h in Hs[1:])]
    return Hs, Ws, [qos] * len(Hs), cfg


def test_rows_with_their_own_links_reach_every_branch():
    reached = set()
    # the rare RZF outcomes at the seeds of test_joint_reports_outcome
    for seed, kind in ((1, "zf"), (0, "zf"), (0, "rzf"), (4, "rzf"), (418, "rzf")):
        reached |= _assert_rows_equal_cells(*_rows_around(*_seeded_case(seed, kind)))
    reached |= _assert_rows_equal_cells(*_rows_around(*_kw_case(**_SATISSET_SCALED)))
    for kind in ("zf", "rzf"):
        for mode in BUDGET_MODES[1:]:
            H, W, qoss, cfg = _block(kind, 7, 0, 5, 10.0, 0.02, (300.0,), (True,), mode)
            if cfg is not None:
                reached |= _assert_rows_equal_cells(*_rows_around(H, W, qoss[0], cfg))
    # one row per drop of an N=37 campaign with rain and cloud
    system = SystemConfig(n_beams=37, n_users=37, atmospherics=True)
    trials = [make_trial(system, seed) for seed in range(1, 5)]
    for kind in ("zf", "rzf"):
        Ws = [build_precoder(trial, system, kind) for trial in trials]
        reached |= _assert_rows_equal_cells([t.channel for t in trials], Ws, [QoSProfile.uniform(300.0, 37)] * 4, system)
    assert reached >= {
        "zf in budget", "zf over budget",
        "rzf feasible_closed_form", "rzf feasible_guard_repaired", "rzf feasible_guard_scaled",
        "rzf rejected by the bound", "rzf rejected by the certificate",
    }, reached


@pytest.mark.parametrize("xi", [250.0, 900.0])
def test_gen_data_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, xi):
    # 40 trials: two chunks at the default size, eight at 5 and forty at 1
    cfg = experiment.ExperimentConfig(system=SystemConfig(n_beams=7, n_users=7))
    cfg.surrogate.n_train, cfg.surrogate.n_test, cfg.surrogate.xi_mbps = 30, 10, xi
    digests = set()
    for chunk_trials in (experiment._CHUNK_TRIALS, 5, 1):
        monkeypatch.setattr(experiment, "_CHUNK_TRIALS", chunk_trials)
        cfg.out_dir = str(tmp_path / f"chunk{chunk_trials}")
        data = Path(experiment.gen_dataset(cfg)).read_bytes()
        assert data.count(b"\n") == 2 * 40
        digests.add(hashlib.sha256(data).hexdigest())
    assert experiment._CHUNK_TRIALS == 1 and len(digests) == 1


# ---------------------------------------------------------------------------
# numpy facts: a numpy or BLAS on which they break fails here, not in a golden

@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_stacked_rows_equal_one_row_calls(k, rows, seed):
    rng = np.random.default_rng(seed)
    Q = rng.exponential(size=(k, k))
    P = rng.exponential(size=(rows, k)) * 10.0 ** rng.uniform(-6, 6, size=(rows, 1))
    # a stacked matmul is one gemv per row; a stacked P @ Q.T is not
    stacked = np.matmul(Q, P[..., None])[..., 0]
    for p, row in zip(P, stacked):
        assert np.array_equal(row, Q @ p)
        assert np.array_equal(np.matmul(Q, p[..., None])[..., 0], Q @ p)
    # and so is one over a (2, rows, K) stack, as the joint and satisset top-ups
    assert np.array_equal(np.matmul(Q, np.array((P, P))[..., None])[..., 0], np.array((stacked, stacked)))
    # row-wise sums and running sums are the one-row calls
    assert np.array_equal(np.add.reduce(P, -1), [np.add.reduce(p) for p in P])
    assert np.array_equal(np.add.reduce(P, -1), [p.sum() for p in P])
    assert np.array_equal(np.add.accumulate(P, -1), [np.add.accumulate(p) for p in P])
    # row-wise dot products of the diagonal bound
    alpha = rng.exponential(size=(rows, k))
    dots = np.matmul(P[:, None, :], (1.0 + alpha)[..., None])[:, 0, 0]
    assert np.array_equal(dots, [p @ (1.0 + a) for p, a in zip(P, alpha)])


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.sampled_from([7, 19, 37]), st.integers(1, 40)), rows=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_per_row_matrices_equal_one_row_calls(k, rows, seed):
    rng = np.random.default_rng(seed)
    Q = rng.exponential(size=(rows, k, k))
    P = rng.exponential(size=(rows, k)) * 10.0 ** rng.uniform(-6, 6, size=(rows, 1))
    # a matmul over per-row Q is one gemv per row, also over a (2, rows, K) stack of top-ups
    stacked = np.matmul(Q, P[..., None])[..., 0]
    for q, p, row in zip(Q, P, stacked):
        assert np.array_equal(row, q @ p)
    assert np.array_equal(np.matmul(Q, np.array((P, P))[..., None])[..., 0], np.array((stacked, stacked)))
    # a stacked solve is one solve per row
    A = np.eye(k) - 0.5 * Q / Q.sum(axis=-1, keepdims=True)
    x = np.linalg.solve(A, P[..., None])[..., 0]
    for a, p, row in zip(A, P, x):
        assert np.array_equal(row, np.linalg.solve(a, p))
    # row-wise sorts and running sums of per-row inverse gains, as waterfill takes them
    C = rng.exponential(size=(rows, k))
    cs = np.take_along_axis(C, C.argsort(kind="stable"), -1)
    assert np.array_equal(np.add.accumulate(cs, -1), [np.add.accumulate(c[c.argsort(kind="stable")]) for c in C])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_waterfill_rows_of_inverse_gains_equal_one_row_calls(data):
    k = data.draw(st.integers(1, 40), label="k")
    n = data.draw(st.integers(1, 10), label="rows")
    C = np.array(data.draw(st.lists(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k),
                                    min_size=n, max_size=n), label="c"))
    if data.draw(st.booleans(), label="ties"):
        C = np.round(C, 0) + 1.0
    budgets = np.array([data.draw(st.one_of(
        st.just(0.0),
        st.floats(1e-6, 1.0).map(lambda u: float(c.min()) * 2.0**-54 * u),  # below the cheapest cost's rounding
        st.floats(1e-3, 1e4),
    ), label="budget") for c in C])
    rows = waterfill(C, budgets)
    assert rows.shape == (n, k)
    for c, budget, row in zip(C, budgets, rows):
        assert np.array_equal(row, waterfill(c, float(budget)))
        assert np.array_equal(row, waterfill_reference(c, float(budget)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_waterfill_rows_equal_one_budget_calls(data):
    k = data.draw(st.integers(1, 40), label="k")
    c = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k), label="c"))
    if data.draw(st.booleans(), label="ties"):
        c = np.round(c, 0) + 1.0
    cheapest = float(c.min())
    budgets = np.array(data.draw(st.lists(st.one_of(
        st.just(0.0),
        st.floats(1e-6, 1.0).map(lambda u: cheapest * 2.0**-54 * u),  # below the cheapest cost's rounding
        st.floats(1e-3, 1e4),
    ), min_size=1, max_size=10), label="budgets"))
    rows = waterfill(c, budgets)
    assert rows.shape == (len(budgets), k)
    for budget, row in zip(budgets, rows):
        assert np.array_equal(row, waterfill(c, float(budget)))
        assert np.array_equal(row, waterfill_reference(c, float(budget)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_waterfill_rejects_a_bad_budget_in_a_vector(bad):
    with pytest.raises(ValueError, match="budget must be finite and nonnegative"):
        waterfill(np.array([1.0, 2.0]), np.array([1.0, bad]))
    with pytest.raises(ValueError, match="budget must be finite and nonnegative"):
        waterfill(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_waterfill_rejects_a_bad_inverse_gain_in_any_row(bad):
    with pytest.raises(ValueError, match="inverse gains must be finite and strictly positive"):
        waterfill(np.array([[1.0, 2.0], [3.0, bad]]), np.array([1.0, 1.0]))
