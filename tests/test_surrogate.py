import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from beamalloc import QoSProfile
from beamalloc.experiment import build_precoder, make_trial
from beamalloc.surrogate import (
    DatasetRecord,
    NormStats,
    SurrogateModel,
    TrainingConfig,
    _loss_and_grads,
    denormalize_powers,
    fit_norm_stats,
    forward,
    gains_vector,
    load_dataset,
    load_model,
    normalize,
    normalize_powers,
    predict_powers,
    project_budget,
    save_dataset,
    save_model,
    train,
)
from oracles import numeric_grads


def _stats():
    return NormStats(
        x_min=np.array([0.0, 1.0, 2.0]),
        x_max=np.array([2.0, 3.0, 2.0]),  # last coordinate degenerate
        p_min=np.array([1.0, 2.0]),
        p_max=np.array([5.0, 8.0]),
    )


def test_normalize_endpoints_and_midpoint():
    s = _stats()
    assert np.allclose(normalize(s.x_min, s), [0.0, 0.0, 0.0])
    assert np.allclose(normalize(s.x_max, s), [1.0, 1.0, 0.0])
    assert np.allclose(normalize(np.array([1.0, 2.0, 2.0]), s), [0.5, 0.5, 0.0])


def test_normalize_shape_mismatch():
    with pytest.raises(ValueError):
        normalize(np.zeros(4), _stats())


def test_power_normalization_round_trip():
    s = _stats()
    rng = np.random.default_rng(0)
    p = rng.uniform(s.p_min, s.p_max, size=(20, 2))
    assert np.allclose(denormalize_powers(normalize_powers(p, s), s), p, atol=1e-12)


def _model(weights, biases):
    k = biases[-1].shape[0]
    stats = NormStats(
        x_min=np.zeros(weights[0].shape[0]),
        x_max=np.ones(weights[0].shape[0]),
        p_min=np.zeros(k),
        p_max=np.ones(k),
    )
    return SurrogateModel(weights=weights, biases=biases, norm_stats=stats)


def test_forward_zero_weights_returns_bias():
    m = _model(
        [np.zeros((3, 4)), np.zeros((4, 2))],
        [np.zeros(4), np.array([0.3, -1.2])],
    )
    assert np.allclose(forward(m, np.ones(3)), [0.3, -1.2])


def test_forward_relu_clips_hidden():
    # negative hidden pre-activation contributes nothing
    m = _model(
        [np.array([[1.0], [0.0]]), np.array([[2.0]])],
        [np.array([-5.0]), np.array([0.0])],
    )
    assert forward(m, np.array([1.0, 0.0]))[0] == 0.0
    assert forward(m, np.array([6.0, 0.0]))[0] == pytest.approx(2.0)


def test_forward_identity_single_layer():
    m = _model([np.eye(3)], [np.zeros(3)])
    x = np.array([0.2, -0.4, 1.5])
    assert np.allclose(forward(m, x), x)


def test_project_budget_cases():
    p, fb = project_budget(np.array([2.0, 2.0]), 2.0)
    assert np.allclose(p, [1.0, 1.0]) and not fb
    p, fb = project_budget(np.array([1.0, 3.0]), 4.0)
    assert np.allclose(p, [1.0, 3.0]) and not fb
    p, fb = project_budget(np.array([1.0, 3.0]), 8.0)
    assert np.allclose(p, [2.0, 6.0]) and not fb
    p, fb = project_budget(np.array([-1.0, 1.0]), 2.0)
    assert np.allclose(p, [0.0, 2.0]) and not fb
    p, fb = project_budget(np.array([0.0, 0.0]), 4.0)
    assert np.allclose(p, [2.0, 2.0]) and fb


def test_project_budget_batch_matches_rows():
    rng = np.random.default_rng(7)
    p_hat = rng.normal(1.0, 1.0, size=(6, 5))
    p_hat[2] = [-1.0, 0.0, -3.0, -0.5, 0.0]  # all nonpositive
    p, fell_back = project_budget(p_hat, 3.0)
    assert fell_back == 1
    assert np.array_equal(p[2], np.full(5, 3.0 / 5))
    assert np.allclose(p.sum(axis=1), 3.0, rtol=1e-15, atol=0.0)
    rows = [project_budget(row, 3.0) for row in p_hat]
    assert np.array_equal(p, np.stack([r for r, _ in rows]))
    assert [fb for _, fb in rows] == [0, 0, 1, 0, 0, 0]


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(5):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)]
        weights = [
            rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])
        ]
        biases = [rng.normal(size=b) for b in sizes[1:]]
        x = rng.normal(size=(4, sizes[0]))
        t = rng.normal(size=(4, sizes[-1]))
        _, gw, gb = _loss_and_grads(weights, biases, x, t)
        nw, nb = numeric_grads(weights, biases, x, t)
        for a, b in zip(gw + gb, nw + nb):
            denom = max(np.abs(b).max(), 1e-8)
            assert np.abs(a - b).max() / denom < 1e-4


def _records(n, dim_x, fn, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = rng.uniform(0.0, 1.0, size=dim_x)
        out.append(
            DatasetRecord(x=x, p_star=fn(x), seed=i, strategy="joint_zf")
        )
    return out


def test_train_learns_a_constant():
    const = np.array([3.0, 1.0])
    recs = _records(300, 4, lambda x: const)
    model, report = train(recs, TrainingConfig(hidden=(16,), epochs=60, seed=1))
    # degenerate label range normalizes to zero, so check raw predictions
    p = denormalize_powers(forward(model, normalize(recs[0].x, model.norm_stats)), model.norm_stats)
    assert np.allclose(p, const, atol=1e-9)


def test_train_learns_linear_map():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.2, 1.0, size=(3, 6))
    recs = _records(3000, 6, lambda x: A @ x, seed=6)
    model, report = train(
        recs, TrainingConfig(hidden=(64, 32), epochs=250, patience=30, seed=2)
    )
    best = report.val_losses[report.best_epoch]
    assert best < 1e-3


def test_training_loss_trends_down():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.2, 1.0, size=(2, 5))
    recs = _records(1500, 5, lambda x: A @ x, seed=9)
    _, report = train(
        recs,
        TrainingConfig(hidden=(24,), epochs=60, patience=60, seed=3),
    )
    losses = np.asarray(report.train_losses)
    assert losses.size >= 30
    medians = [np.median(losses[i : i + 10]) for i in range(0, losses.size - 9, 10)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(medians, medians[1:]))


def test_train_is_deterministic():
    recs = _records(200, 3, lambda x: x[:2], seed=4)
    m1, _ = train(recs, TrainingConfig(hidden=(8,), epochs=10, seed=11))
    m2, _ = train(recs, TrainingConfig(hidden=(8,), epochs=10, seed=11))
    for a, b in zip(m1.weights, m2.weights):
        assert np.array_equal(a, b)


def test_train_rejects_empty_and_divergence():
    with pytest.raises(ValueError):
        train([], TrainingConfig())
    recs = _records(64, 3, lambda x: x[:2], seed=8)
    bad = recs.copy()
    bad[3] = DatasetRecord(
        x=np.array([np.nan, 0.0, 0.0]), p_star=recs[3].p_star, seed=3,
        strategy="joint_zf",
    )
    with pytest.raises(ValueError, match="non-finite"):
        train(bad, TrainingConfig(hidden=(8,), epochs=5, seed=1))
    # an absurd step size overflows the activations within a couple of epochs
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite loss"):
        train(recs, TrainingConfig(hidden=(8,), epochs=5, learning_rate=1e160, seed=1))


def test_predict_pipeline_budget_and_determinism(cfg):
    qos = QoSProfile.uniform(250.0, cfg.n_users)
    recs = []
    from beamalloc.allocators import joint_opt_zf

    for i in range(40):
        tr = make_trial(cfg, 2000 + i)
        W = build_precoder(tr, cfg, "zf")
        res = joint_opt_zf(tr.channel, W, qos, cfg)
        recs.append(
            DatasetRecord(
                x=gains_vector(tr.channel),
                p_star=res.powers,
                seed=2000 + i,
                strategy="joint_zf",
            )
        )
    model, _ = train(recs, TrainingConfig(hidden=(16,), epochs=15, seed=5))
    p1 = predict_powers(model, recs[0].x, cfg.p_max_w)
    p2 = predict_powers(model, recs[0].x, cfg.p_max_w)
    assert np.array_equal(p1, p2)
    assert p1.shape == (cfg.n_users,)
    assert p1.sum() == pytest.approx(cfg.p_max_w, rel=1e-12)
    assert np.all(p1 >= 0)
    # batch prediction agrees with one-at-a-time; not bit for bit, because BLAS
    # multiplies one row and a stack of rows with different kernels
    gains = np.stack([r.x for r in recs[:5]])
    batch = predict_powers(model, gains, cfg.p_max_w)
    single = np.stack([predict_powers(model, g, cfg.p_max_w) for g in gains])
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-12 * cfg.p_max_w)


def test_model_and_dataset_round_trip(tmp_path):
    recs = _records(30, 4, lambda x: x[:2] + 1.0, seed=12)
    dpath = tmp_path / "data.jsonl"
    save_dataset(recs, dpath)
    back = load_dataset(dpath)
    assert len(back) == 30
    for a, b in zip(recs, back):
        assert np.array_equal(a.x, b.x)  # json round-trips doubles exactly
        assert np.array_equal(a.p_star, b.p_star)
        assert a.seed == b.seed and a.strategy == b.strategy

    model, _ = train(recs, TrainingConfig(hidden=(6,), epochs=5, seed=3))
    mpath = tmp_path / "model.npz"
    save_model(model, mpath)
    loaded = load_model(mpath)
    x = np.array([0.1, 0.9, 0.4, 0.2])
    assert np.allclose(
        forward(loaded, normalize(x, loaded.norm_stats)),
        forward(model, normalize(x, model.norm_stats)),
        atol=1e-15,
    )
    assert loaded.strategy == "joint_zf"
    assert [w.shape for w in loaded.weights] == [(4, 6), (6, 2)]


def test_model_round_trips_bit_for_bit_at_the_given_path(tmp_path):
    recs = [dataclasses.replace(r, fingerprint="0123abcd")
            for r in _records(30, 4, lambda x: x[:2] + 1.0, seed=12)]
    model, _ = train(recs, TrainingConfig(hidden=(6, 5), epochs=3, seed=3))
    path = tmp_path / "model"  # no .npz suffix: the file is written at this exact path
    save_model(model, str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
    back = load_model(path)
    pairs = list(zip(model.weights + model.biases, back.weights + back.biases))
    pairs += [(getattr(model.norm_stats, f.name), getattr(back.norm_stats, f.name))
              for f in dataclasses.fields(NormStats)]
    assert len(pairs) == 10
    for saved, loaded in pairs:
        assert loaded.dtype == np.float64 and np.array_equal(loaded, saved)
    assert (back.strategy, back.fingerprint) == ("joint_zf", "0123abcd")
    assert [w.shape for w in back.weights] == [(4, 6), (6, 5), (5, 2)]


def test_dataset_records_carry_no_demands(tmp_path):
    recs = [dataclasses.replace(r, fingerprint="0123abcd")
            for r in _records(3, 4, lambda x: x[:2], seed=13)]
    path = tmp_path / "data.jsonl"
    save_dataset(recs, path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [sorted(obj) for obj in lines] == [["fingerprint", "p_star", "seed", "strategy", "x"]] * 3
    # a record written while datasets still carried the labeling demands `xi`
    old = tmp_path / "old.jsonl"
    old.write_text("".join(json.dumps({**obj, "xi": [250.0, 250.0]}) + "\n" for obj in lines),
                   encoding="utf-8")
    back = load_dataset(old)
    assert len(back) == len(recs)
    for a, b in zip(back, recs):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.p_star, b.p_star)
        assert (a.seed, a.strategy, a.fingerprint) == (b.seed, b.strategy, b.fingerprint)


def test_load_dataset_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x": [1.0]}\n')
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_dataset(path)


def test_fit_norm_stats_uses_given_split():
    x = np.array([[0.0, 5.0], [2.0, 7.0]])
    p = np.array([[1.0], [3.0]])
    s = fit_norm_stats(x, p)
    assert np.allclose(s.x_min, [0.0, 5.0])
    assert np.allclose(s.x_max, [2.0, 7.0])
    assert np.allclose(s.p_min, [1.0])
    assert np.allclose(s.p_max, [3.0])


def test_surrogate_is_a_leaf_module():
    # the surrogate maps gains to powers; scoring them is its callers' job
    import ast
    import beamalloc.surrogate as mod

    tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
    relative = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    assert relative == []
