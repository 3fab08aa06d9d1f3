import numpy as np
import pytest

from beamalloc.waterfill import waterfill
from oracles import simplex_grid_best, waterfill_bisection, waterfill_objective


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
    with pytest.raises(ValueError):
        waterfill(np.array([1.0, -1.0]), 1.0)
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
