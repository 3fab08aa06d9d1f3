"""joint_opt_block against the one-point allocators, entry for entry and bit
for bit, over grids of trials x demand points; the numpy facts that its
stacked arithmetic relies on; and gen-data's chunks."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from beamalloc import QoSProfile, allocators, experiment
from beamalloc.allocators import joint_opt, joint_opt_block, satis_set_opt, sum_opt
from beamalloc.config import SystemConfig
from beamalloc.experiment import make_trial
from beamalloc.feasibility import build_demand_system, check_feasible
from beamalloc.precoding import Precoder, PrecoderSingularError, effective_gains, make_rzf, make_zf
from beamalloc.waterfill import waterfill
from conftest import random_channel
from oracles import waterfill_reference
from test_allocators import _case, _kw_case, _seeded_case, _SATISSET_SCALED

# where a grid's pivot entry puts the budget: "random" keeps the drawn one
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
    """The branch of the grid pass that the demand point `qos` takes on `link`."""
    if W.kind == "zf":
        return "zf " + ("in budget" if joint.outcome == "feasible_closed_form" else "over budget")
    ds = build_demand_system(link, W, qos.demands + qos.tolerances, cfg.noise_power_w, cfg.bandwidth_mhz)
    if not allocators._within_bound(ds, cfg.p_max_w):
        return "rzf rejected by the bound"
    if not check_feasible(ds, cfg.p_max_w).feasible:
        return "rzf rejected by the certificate"
    return "rzf " + joint.outcome


def _assert_grid_equals_cells(H, W, qoss, cfg):
    """Each (t, d) entry of joint_opt_block over the trials of `H` (a stacked
    channel or Link, or one channel as one trial) and the points `qoss` equals
    joint_opt and satis_set_opt on the trial's row Link with `qoss[d]`, with each
    trial's sum_opt result as its start and without; returns the branches and
    water-fill cases that the entries reached."""
    link = effective_gains(H, W)
    rows = [link] if link.Q.ndim == 2 else [link[t] for t in range(len(link.Q))]
    starts = [sum_opt(li, li.precoder, qoss[0], cfg) for li in rows]
    grids = [joint_opt_block(H, W, qoss, cfg, starts), joint_opt_block(H, W, qoss, cfg)]
    reached = set()
    for t, li in enumerate(rows):
        for d, qos in enumerate(qoss):
            joint = joint_opt(li, li.precoder, qos, cfg)
            for s, res in enumerate((joint, satis_set_opt(li, li.precoder, qos, cfg))):
                for powers, served, outcomes in grids:
                    assert powers.shape == served.shape == (2, len(rows), len(qoss), len(qos.demands))
                    assert outcomes.shape == powers.shape[:-1]
                    assert np.array_equal(powers[s, t, d], res.powers), (s, t, d)
                    assert np.array_equal(served[s, t, d], res.rates_mbps), (s, t, d)
                    assert outcomes[s, t, d] == res.outcome, (s, t, d)
                assert np.all(res.powers >= 0)
                assert abs(res.powers.sum() - cfg.p_max_w) <= 1e-9 * cfg.p_max_w
                reached.add(("joint", "satisset")[s] + " " + res.outcome)
            reached.add(_branch(li, li.precoder, qos, cfg, joint))
            if joint.min_powers is not None:
                surplus = cfg.p_max_w - np.add.reduce(joint.min_powers)
                c = li.precoder.raw_norms**2 * cfg.noise_power_w if W.kind == "zf" else cfg.noise_power_w / li.g
                if surplus == 0.0:
                    reached.add("zero surplus")
                elif c.min() + surplus == c.min():
                    reached.add("surplus below the cheapest cost")
    return reached


def _grid_around(H, W, cfg, n_more=3):
    """The instance's channel as the first trial, then `n_more` Gaussian
    channels of its shape with the same kind of precoder: the stacked channel and precoder."""
    Hs = [H, *(random_channel(*H.shape, 1000 + i) for i in range(n_more))]
    Ws = [W, *(make_zf(h) if W.kind == "zf" else make_rzf(h, cfg.noise_power_w, cfg.p_max_w) for h in Hs[1:])]
    return np.stack(Hs), Precoder(np.stack([w.W for w in Ws]), np.stack([w.raw_norms for w in Ws]), W.kind)


def _block(kind, k, extra, seed, p_max, omega, xis, per_user, mode, pivot=0):
    """A channel and its demand points, uniform ones at the means `xis` or
    per-user ones around them, with the budget set by `mode` at the point `pivot`."""
    rng = np.random.default_rng(seed)
    H, W, _, cfg = _case(kind, k, extra, seed, p_max, np.ones(k), omega)
    qoss = [QoSProfile.per_user(xi * rng.uniform(0.5, 1.5, size=k), omega) if u
            else QoSProfile.uniform(xi, k, omega) for xi, u in zip(xis, per_user)]
    budget = _pivot_budget(effective_gains(H, W), W, qoss[pivot], cfg, mode)
    return H, W, qoss, None if budget is None else replace(cfg, p_max_w=budget)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf"]),
    k=st.integers(1, 7),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    p_max=st.floats(0.5, 50.0),
    omega=st.sampled_from([0.0, 0.02]),
    points=st.lists(st.tuples(st.floats(1.0, 1500.0), st.booleans()), min_size=1, max_size=7),
    mode=st.sampled_from(BUDGET_MODES),
    n_more=st.integers(0, 5),
)
@example(kind="zf", k=7, extra=0, seed=5, p_max=10.0, omega=0.02,
         points=[(1.0, False), (300.0, True), (1200.0, False)], mode="tiny surplus", n_more=0)
@example(kind="rzf", k=7, extra=0, seed=5, p_max=10.0, omega=0.02,
         points=[(1.0, False), (300.0, True), (1200.0, False)], mode="zero surplus", n_more=2)
def test_grid_entries_equal_the_one_point_allocators(kind, k, extra, seed, p_max, omega, points, mode, n_more):
    # Gaussian channels, the first trial's pivot point at the edge of a branch;
    # with no more trials, the pass takes that one channel as T = 1
    xis, per_user = zip(*points)
    try:
        H, W, qoss, cfg = _block(kind, k, extra, seed, p_max, omega, xis, per_user, mode)
        assume(cfg is not None)
        if n_more:
            H, W = _grid_around(H, W, cfg, n_more)
    except PrecoderSingularError:
        assume(False)
    _assert_grid_equals_cells(H, W, qoss, cfg)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["zf", "rzf"]),
    n=st.sampled_from([4, 7, 19, 37]),
    atmospherics=st.booleans(),
    seed=st.integers(1, 2**31),
    n_trials=st.integers(1, 6),
    points=st.lists(st.tuples(st.floats(50.0, 1500.0), st.booleans()), min_size=1, max_size=7),
    budget_scale=st.floats(1e-3, 10.0),
)
@example(kind="rzf", n=19, atmospherics=False, seed=1, n_trials=6, points=[(300.0, True), (900.0, False)],
         budget_scale=1.0)
@example(kind="zf", n=37, atmospherics=True, seed=1, n_trials=4, points=[(300.0, False), (150.0, True)],
         budget_scale=1.0)
def test_trial_grids_equal_per_trial_allocators(kind, n, atmospherics, seed, n_trials, points, budget_scale):
    # a campaign chunk's stacked Link of T trials under per-user and uniform demand points
    system = SystemConfig(n_beams=n, n_users=n, atmospherics=atmospherics)
    system = replace(system, p_max_w=system.p_max_w * budget_scale)
    rng = np.random.default_rng(seed)
    qoss = [QoSProfile.per_user(xi * rng.uniform(0.5, 1.5, size=n)) if per_user else QoSProfile.uniform(xi, n)
            for xi, per_user in points]
    link = experiment._chunk_link([make_trial(system, seed + i) for i in range(n_trials)], system, kind)
    _assert_grid_equals_cells(link, link.precoder, qoss, system)


def _seeded_block(seed, kind, xis=(200.0, 700.0, 1400.0)):
    """The instance of `_seeded_case` as the first point of a block, the
    uniform demands `xis` after it."""
    H, W, qos, cfg = _seeded_case(seed, kind)
    k = len(qos.demands)
    omega = float(qos.tolerances[0] / qos.demands[0])
    return H, W, [qos, *(QoSProfile.uniform(xi, k, omega) for xi in xis)], cfg


def test_grids_reach_every_branch():
    reached = set()
    # the rare RZF outcomes at the seeds of test_joint_reports_outcome, alone and as the first of four trials
    for seed, kind in ((1, "zf"), (0, "zf"), (0, "rzf"), (4, "rzf"), (418, "rzf")):
        H, W, qoss, cfg = _seeded_block(seed, kind)
        reached |= _assert_grid_equals_cells(H, W, qoss, cfg)
        reached |= _assert_grid_equals_cells(*_grid_around(H, W, cfg), qoss, cfg)
    H, W, qos, cfg = _kw_case(**_SATISSET_SCALED)
    qoss = [qos, QoSProfile.uniform(100.0, len(qos.demands))]
    reached |= _assert_grid_equals_cells(*_grid_around(H, W, cfg), qoss, cfg)
    for kind in ("zf", "rzf"):
        for mode in BUDGET_MODES[1:]:
            H, W, qoss, cfg = _block(kind, 7, 0, 5, 10.0, 0.02, (1.0, 300.0, 900.0), (False, True, False), mode)
            if cfg is not None:
                reached |= _assert_grid_equals_cells(*_grid_around(H, W, cfg), qoss, cfg)
    # four drops of an N=37 campaign with rain and cloud
    system = SystemConfig(n_beams=37, n_users=37, atmospherics=True)
    trials = [make_trial(system, seed) for seed in range(1, 5)]
    for kind in ("zf", "rzf"):
        link = experiment._chunk_link(trials, system, kind)
        reached |= _assert_grid_equals_cells(link, link.precoder, [QoSProfile.uniform(xi, 37) for xi in (100.0, 300.0)],
                                             system)
    assert reached >= {
        "zf in budget", "zf over budget",
        "rzf feasible_closed_form", "rzf feasible_guard_repaired", "rzf feasible_guard_scaled",
        "rzf rejected by the bound", "rzf rejected by the certificate",
        "satisset feasible_guard_scaled", "zero surplus", "surplus below the cheapest cost",
    }, reached


def test_block_pass_builds_one_demand_system_and_takes_sum_opts_start(monkeypatch):
    # a congested RZF point grows from its trial's sum-opt result, so the pass
    # builds no second demand system and repeats no sum-opt water-fill
    H, W, qoss, cfg = _seeded_block(0, "rzf")
    link = effective_gains(H, W)
    start = sum_opt(link, W, qoss[0], cfg)
    systems, fills = [], []
    build_demand_system, waterfill_ = allocators.build_demand_system, allocators.waterfill
    monkeypatch.setattr(allocators, "build_demand_system", lambda *a: systems.append(a) or build_demand_system(*a))
    monkeypatch.setattr(allocators, "waterfill", lambda c, b: fills.append((c, b)) or waterfill_(c, b))
    _, _, outcomes = joint_opt_block(link, W, qoss, cfg, [start])
    assert "congested_growth" in outcomes[0, 0]
    assert len(systems) == 1
    assert not [c for c, b in fills if np.ndim(b) == 0 and b == cfg.p_max_w and len(c) == len(link.g)]


@pytest.mark.parametrize("kind", ["zf", "rzf"])
def test_the_grid_pass_reads_each_trials_gains_in_place(monkeypatch, kind):
    # every Link and demand system that the pass hands on is a view of the
    # caller's Q: no copy per demand point, nor per entry
    system = SystemConfig(n_beams=7, n_users=7)
    link = experiment._chunk_link([make_trial(system, seed) for seed in range(1, 6)], system, kind)
    qoss = [QoSProfile.uniform(xi, 7) for xi in (200.0, 600.0, 1000.0, 1400.0)]
    starts = [sum_opt(li, li.precoder, qoss[0], system) for li in (link[t] for t in range(5))]
    rates, check, links, systems = allocators.rates, allocators.check_feasible, [], []
    monkeypatch.setattr(allocators, "rates", lambda H, *a: links.append(H) or rates(H, *a))
    monkeypatch.setattr(allocators, "check_feasible", lambda ds, p: systems.append(ds) or check(ds, p))
    _, _, outcomes = joint_opt_block(link, link.precoder, qoss, system, starts)
    assert links[0].Q.shape == (5, 1, 7, 7)  # the grid's rates, one call over every entry
    assert "congested_growth" in outcomes and "feasible_closed_form" in outcomes
    assert bool(systems) == (kind == "rzf")
    for Q in [H.Q for H in links] + [ds.Qm for ds in systems]:
        assert np.shares_memory(Q, link.Q)


def test_block_pass_serves_only_zf_and_rzf():
    H, W, qos, cfg = _seeded_case(3, "mrt")
    with pytest.raises(ValueError, match="ZF and RZF"):
        joint_opt_block(H, W, [qos], cfg, [sum_opt(H, W, qos, cfg)])


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


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.sampled_from([4, 7, 19, 37]), st.integers(1, 40)), trials=st.integers(1, 6),
       points=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_views_broadcast_over_the_points_equal_one_entry_calls(k, trials, points, seed):
    rng = np.random.default_rng(seed)
    Q = rng.exponential(size=(trials, k, k))
    P = rng.exponential(size=(2, trials, points, k)) * 10.0 ** rng.uniform(-6, 6, size=(2, trials, points, 1))
    # a matmul of each trial's Q, a view broadcast over the points, is one gemv per entry
    received = np.matmul(Q[:, None], P[..., None])[..., 0]
    # the diagonal bound's dots of (T, D, K) rows with (D, K) rows broadcast over the trials
    alpha = rng.exponential(size=(points, k))
    dots = np.matmul(P[0][..., None, :], (1.0 + alpha)[..., None])[..., 0, 0]
    for t in range(trials):
        for d in range(points):
            assert np.array_equal(dots[t, d], P[0, t, d] @ (1.0 + alpha[d]))
            for s in range(2):
                assert np.array_equal(received[s, t, d], Q[t] @ P[s, t, d])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_waterfill_rejects_a_bad_budget_in_a_vector(bad):
    with pytest.raises(ValueError, match="budget must be finite and nonnegative"):
        waterfill(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, bad]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_waterfill_rejects_a_bad_inverse_gain_in_any_row(bad):
    with pytest.raises(ValueError, match="inverse gains must be finite and strictly positive"):
        waterfill(np.array([[1.0, 2.0], [3.0, bad]]), np.array([1.0, 1.0]))
