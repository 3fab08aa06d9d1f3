import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamalloc.waterfill import waterfill
from oracles import simplex_grid_best, waterfill_bisection, waterfill_objective, waterfill_reference


def test_symmetric_split():
    assert np.allclose(waterfill([1.0, 1.0], 2.0), [1.0, 1.0])


def test_unbalanced_channels_shut_off_the_weak_one():
    # brute-force grid search (step 1e-4) puts everything on the cheap channel
    c = np.array([1.0, 3.0])
    p1 = np.linspace(0.0, 2.0, 20001)
    obj = np.log2(1 + p1 / c[0]) + np.log2(1 + (2.0 - p1) / c[1])
    assert p1[np.argmax(obj)] == pytest.approx(2.0, abs=1e-4)
    assert np.allclose(waterfill(c, 2.0), [2.0, 0.0])


def test_zero_budget():
    assert np.all(waterfill([0.5, 2.0, 7.0], 0.0) == 0.0)


def test_bad_inputs():
    with pytest.raises(ValueError):
        waterfill(np.array([]), 1.0)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="inverse gains must be finite and strictly positive"):
            waterfill(np.array([1.0, bad, 2.0]), 1.0)
        with pytest.raises(ValueError, match="inverse gains must be finite and strictly positive"):
            waterfill(np.array([bad]), 1.0)
    with pytest.raises(ValueError):
        waterfill(np.array([1.0]), -0.5)
    with pytest.raises(ValueError):
        waterfill(np.array([1.0, 2.0]), np.nan)
    with pytest.raises(ValueError):
        waterfill(np.array([1.0, 2.0]), np.inf)


def test_budget_tightness_and_slackness():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(1, 9))
        c = rng.lognormal(0.0, 1.2, size=m)
        P = float(rng.uniform(0.01, 50.0))
        p = waterfill(c, P)
        assert np.all(p >= 0)
        assert abs(p.sum() - P) <= 1e-10 * max(P, 1.0)
        # complementary slackness: active channels share one water level
        active = p > 0
        levels = p[active] + c[active]
        w = levels.max()
        assert np.allclose(levels, w, rtol=1e-9)
        assert np.all(c[~active] >= w - 1e-9 * max(1.0, w))


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    c = rng.lognormal(0.0, 1.0, size=6)
    P = 4.0
    p = waterfill(c, P)
    perm = rng.permutation(6)
    assert np.allclose(waterfill(c[perm], P), p[perm])


def test_matches_bisection():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        c = rng.lognormal(0.0, 1.0, size=m)
        P = float(rng.uniform(0.1, 20.0))
        assert np.allclose(waterfill(c, P), waterfill_bisection(c, P), atol=1e-9)


def test_beats_simplex_grid():
    rng = np.random.default_rng(9)
    for _ in range(12):
        m = int(rng.integers(1, 5))
        c = rng.lognormal(0.0, 1.0, size=m)
        P = float(rng.uniform(0.5, 5.0))
        p = waterfill(c, P)
        got = waterfill_objective(c, p)
        ref = simplex_grid_best(c, P)
        assert got >= ref - 1e-6 * abs(ref)


@pytest.mark.parametrize(
    "c, budget, expected",
    [
        ([1.0, 2.0], 1e-30, [1e-30, 0.0]),
        ([1000.0, 2000.0], 1e-14, [1e-14, 0.0]),
        ([2000.0, 1000.0], 1e-14, [0.0, 1e-14]),
        # ties with the cheapest channel split the budget equally
        ([3.0, 1.0, 1.0], 1e-30, [0.0, 5e-31, 5e-31]),
        ([1.0], 5e-324, [5e-324]),
    ],
)
def test_budget_below_cost_rounding_goes_to_the_cheapest(c, budget, expected):
    # P + c rounds to c, so no water level rises above a cost; the KKT point's
    # limit as P -> 0 puts the whole budget on the cheapest channels
    assert float(np.asarray(c).min()) + budget == float(np.asarray(c).min())
    assert waterfill(c, budget).tolist() == expected


def test_small_budgets_stay_on_the_kkt_limit():
    # above the rounding threshold the sorting path takes over without a jump
    c = np.array([1.0, 2.0, 1.0])
    for budget in (1e-17, 1e-16, 1e-15, 1e-12):
        p = waterfill(c, budget)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(budget / 2, rel=1e-6) and p[0] == p[2]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_equals_the_reference_bit_for_bit(data):
    n = data.draw(st.integers(1, 64), label="n")
    # costs around 10**center, spread over up to 6 decades either way
    center = data.draw(st.floats(-6.0, 6.0), label="center")
    spread = data.draw(st.sampled_from([0.0, 1e-12, 1.0, 6.0]), label="spread")
    exps = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="exps"))
    c = 10.0 ** (center + spread * exps)
    if data.draw(st.booleans(), label="ties"):
        c = c[data.draw(st.lists(st.integers(0, min(n, 3) - 1), min_size=n, max_size=n), label="picks")]
    kind = data.draw(st.sampled_from(["zero", "below cost rounding", "normal"]), label="budget")
    if kind == "zero":
        budget = 0.0
    elif kind == "below cost rounding":
        budget = float(c.min()) * 2.0**-54 * data.draw(st.floats(1e-6, 1.0), label="u")
        assert float(c.min()) + budget == float(c.min())
    else:
        budget = float(c.sum()) * 10.0 ** data.draw(st.floats(-6.0, 6.0), label="scale")
    before = c.copy()
    got, want = waterfill(c, budget), waterfill_reference(c, budget)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(c, before)  # the input is not written to


@pytest.mark.parametrize(
    "c, budget",
    [
        ([], 1.0),
        ([np.nan], 1.0),
        ([1.0, np.nan, 2.0], 1.0),
        ([np.inf], 1.0),
        ([1.0, -np.inf], 1.0),
        ([0.0, 1.0], 1.0),
        ([2.0, -1.0], 1.0),
        ([0.0], np.nan),  # the costs are checked first
        ([1.0, 2.0], np.nan),
        ([1.0, 2.0], np.inf),
        ([1.0], -0.5),
        ([1.0, 2.0], -np.inf),
    ],
)
def test_raises_as_the_reference(c, budget):
    with pytest.raises(ValueError) as want:
        waterfill_reference(np.array(c, dtype=float), budget)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        waterfill(np.array(c, dtype=float), budget)
