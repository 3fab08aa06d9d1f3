"""joint_opt_block against the one-point allocators, row for row and bit for
bit, and the numpy facts that its stacked arithmetic relies on."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from beamalloc import QoSProfile, allocators
from beamalloc.allocators import joint_opt, joint_opt_block, satis_set_opt, sum_opt
from beamalloc.feasibility import build_demand_system, check_feasible
from beamalloc.precoding import PrecoderSingularError, effective_gains
from beamalloc.waterfill import waterfill
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
