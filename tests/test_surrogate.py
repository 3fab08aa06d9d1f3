import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamalloc import QoSProfile, surrogate
from beamalloc.experiment import build_precoder, make_trial
from beamalloc.surrogate import (
    DATASET_COLUMNS,
    NormStats,
    SurrogateModel,
    TrainingConfig,
    _loss_and_grads,
    dataset_from_rows,
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


def _dataset(n, dim_x, fn, seed=0, fingerprint=""):
    """n uniform gain rows, their labels fn(x) and seeds 0 .. n - 1, as dataset columns."""
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, dim_x))
    return dataset_from_rows((row, fn(row), i, "joint_zf", fingerprint) for i, row in enumerate(x))


def test_train_learns_a_constant():
    const = np.array([3.0, 1.0])
    data = _dataset(300, 4, lambda x: const)
    model, report = train(data["x"], data["p_star"], TrainingConfig(hidden=(16,), epochs=60, seed=1))
    # degenerate label range normalizes to zero, so check raw predictions
    p = denormalize_powers(forward(model, normalize(data["x"][0], model.norm_stats)), model.norm_stats)
    assert np.allclose(p, const, atol=1e-9)


def test_train_learns_linear_map():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.2, 1.0, size=(3, 6))
    data = _dataset(3000, 6, lambda x: A @ x, seed=6)
    model, report = train(
        data["x"], data["p_star"], TrainingConfig(hidden=(64, 32), epochs=250, patience=30, seed=2)
    )
    best = report.val_losses[report.best_epoch]
    assert best < 1e-3


def test_training_loss_trends_down():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.2, 1.0, size=(2, 5))
    data = _dataset(1500, 5, lambda x: A @ x, seed=9)
    _, report = train(
        data["x"], data["p_star"],
        TrainingConfig(hidden=(24,), epochs=60, patience=60, seed=3),
    )
    losses = np.asarray(report.train_losses)
    assert losses.size >= 30
    medians = [np.median(losses[i : i + 10]) for i in range(0, losses.size - 9, 10)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(medians, medians[1:]))


def test_train_is_deterministic():
    data = _dataset(200, 3, lambda x: x[:2], seed=4)
    m1, _ = train(data["x"], data["p_star"], TrainingConfig(hidden=(8,), epochs=10, seed=11))
    m2, _ = train(data["x"], data["p_star"], TrainingConfig(hidden=(8,), epochs=10, seed=11))
    for a, b in zip(m1.weights, m2.weights):
        assert np.array_equal(a, b)


def test_train_rejects_empty_and_divergence():
    with pytest.raises(ValueError):
        train(np.empty((0, 3)), np.empty((0, 2)), TrainingConfig())
    data = _dataset(64, 3, lambda x: x[:2], seed=8)
    bad = data["x"].copy()
    bad[3] = [np.nan, 0.0, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        train(bad, data["p_star"], TrainingConfig(hidden=(8,), epochs=5, seed=1))
    bad = data["p_star"].copy()
    bad[5, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        train(data["x"], bad, TrainingConfig(hidden=(8,), epochs=5, seed=1))
    # an absurd step size overflows the activations within a couple of epochs
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite loss"):
        train(data["x"], data["p_star"], TrainingConfig(hidden=(8,), epochs=5, learning_rate=1e160, seed=1))


def test_predict_pipeline_budget_and_determinism(cfg):
    qos = QoSProfile.uniform(250.0, cfg.n_users)
    from beamalloc.allocators import joint_opt_zf

    trials = [make_trial(cfg, 2000 + i) for i in range(40)]
    x = np.stack([gains_vector(tr.channel) for tr in trials])
    p_star = np.stack([joint_opt_zf(tr.channel, build_precoder(tr, cfg, "zf"), qos, cfg).powers for tr in trials])
    model, _ = train(x, p_star, TrainingConfig(hidden=(16,), epochs=15, seed=5))
    p1 = predict_powers(model, x[0], cfg.p_max_w)
    p2 = predict_powers(model, x[0], cfg.p_max_w)
    assert np.array_equal(p1, p2)
    assert p1.shape == (cfg.n_users,)
    assert p1.sum() == pytest.approx(cfg.p_max_w, rel=1e-12)
    assert np.all(p1 >= 0)
    # batch prediction agrees with one-at-a-time; not bit for bit, because BLAS
    # multiplies one row and a stack of rows with different kernels
    gains = x[:5]
    batch = predict_powers(model, gains, cfg.p_max_w)
    single = np.stack([predict_powers(model, g, cfg.p_max_w) for g in gains])
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-12 * cfg.p_max_w)


def test_model_and_dataset_round_trip(tmp_path):
    data = _dataset(30, 4, lambda x: x[:2] + 1.0, seed=12, fingerprint="0123abcd")
    data["strategy"] = np.where(np.arange(30) % 2, "joint_zf", "joint_rzf")  # both, interleaved
    dpath = tmp_path / "data.jsonl"
    save_dataset(data, dpath)
    back = load_dataset(dpath)
    assert list(back) == list(DATASET_COLUMNS) == list(data)
    for key in DATASET_COLUMNS:  # json round-trips doubles exactly
        assert back[key].dtype == data[key].dtype and np.array_equal(back[key], data[key]), key
    assert [back[k].dtype.kind for k in DATASET_COLUMNS] == ["f", "f", "i", "U", "U"]
    assert back["x"].shape == (30, 4) and back["p_star"].shape == (30, 2)

    model, _ = train(data["x"], data["p_star"], TrainingConfig(hidden=(6,), epochs=5, seed=3))
    model.strategy = "joint_zf"
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
    data = _dataset(30, 4, lambda x: x[:2] + 1.0, seed=12)
    model, _ = train(data["x"], data["p_star"], TrainingConfig(hidden=(6, 5), epochs=3, seed=3))
    assert (model.strategy, model.fingerprint) == ("", "")  # the caller names what it trained
    model.strategy, model.fingerprint = "joint_zf", "0123abcd"
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
    data = _dataset(3, 4, lambda x: x[:2], seed=13, fingerprint="0123abcd")
    path = tmp_path / "data.jsonl"
    save_dataset(data, path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [sorted(obj) for obj in lines] == [["fingerprint", "p_star", "seed", "strategy", "x"]] * 3
    # a record written while datasets still carried the labeling demands `xi`
    old = tmp_path / "old.jsonl"
    old.write_text("".join(json.dumps({**obj, "xi": [250.0, 250.0]}) + "\n" for obj in lines),
                   encoding="utf-8")
    back = load_dataset(old)
    assert list(back) == list(data)
    for key in DATASET_COLUMNS:
        assert back[key].dtype == data[key].dtype and np.array_equal(back[key], data[key]), key


def test_load_dataset_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x": [1.0]}\n')
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_dataset(path)
    # a seed that json does not read as an integer is a bad line too
    path.write_text('{"x": [1.0], "p_star": [1.0], "seed": Infinity, "strategy": "joint_zf"}\n')
    with pytest.raises(ValueError, match="bad.jsonl:1: bad dataset record: seed Infinity is not an integer"):
        load_dataset(path)


@pytest.mark.parametrize("key, value", [
    ("x", [0.5, 0.5, 0.5]), ("x", [0.5] * 5), ("p_star", [1.0]), ("x", [[0.5, 0.5], [0.5, 0.5]]), ("p_star", 1.0),
])
def test_load_dataset_rejects_a_row_unlike_the_first(tmp_path, key, value):
    # every row must hold as many gains and powers as the first, as flat lists
    path = tmp_path / "data.jsonl"
    save_dataset(_dataset(4, 4, lambda x: x[:2], seed=14), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), key: value}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"data\.jsonl:3: bad dataset record: x and p_star of shapes"):
        load_dataset(path)


@pytest.mark.parametrize("blank_lines", [0, 1])
def test_load_dataset_names_the_first_rows_line_when_it_is_the_short_one(tmp_path, blank_lines):
    # the first row is shortened, so the mismatch shows on the next line, a good one; the
    # message names the first row's line next to it (after blank lines, that is not line 1)
    path = tmp_path / "data.jsonl"
    save_dataset(_dataset(3, 4, lambda x: x[:2], seed=14), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "x": [0.5, 0.5, 0.5]}) + "\n"
    path.write_text("\n" * blank_lines + "".join(lines), encoding="utf-8")
    first, bad = 1 + blank_lines, 2 + blank_lines
    with pytest.raises(ValueError, match=re.escape(
            f"data.jsonl:{bad}: bad dataset record: x and p_star of shapes (4,) and (2,), "
            f"not flat lists as long as line {first}'s (3,) and (2,)")):
        load_dataset(path)


def _assert_same_columns(got, want):
    assert list(got) == list(want) == list(DATASET_COLUMNS)
    for key in DATASET_COLUMNS:
        assert (got[key].dtype, got[key].shape) == (want[key].dtype, want[key].shape), key
        if got[key].dtype.kind == "f":  # a NaN's sign too: a parse reads every NaN as +nan
            assert np.array_equal(got[key], want[key], equal_nan=True), key
            assert np.array_equal(np.signbit(got[key]), np.signbit(want[key])), key
        else:
            assert np.array_equal(got[key], want[key]), key


def _fresh_load(path):
    """load_dataset as a new process runs it: nothing remembered, the file parsed."""
    surrogate._dataset_memo = (None, None)
    return load_dataset(path)


_floats = st.floats(width=64) | st.sampled_from([0.0, -0.0, 5e-324, -1e308, -np.nan])


@st.composite
def _datasets(draw):
    """Columns as gen-data makes them, and the rarer cases a file can hold: runs of rows with the same
    x, signed zeros, NaN of either sign, seeds past int64, the empty fingerprint of a row without one,
    no rows at all."""
    n, dim_x, dim_p = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    x_rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["same", "zeros flipped", "new"] if x_rows else ["new"]))
        if kind == "new":
            x_rows.append(np.array(draw(st.lists(_floats, min_size=dim_x, max_size=dim_x))))
        else:  # equal to the row before, and with its zeros' signs flipped also equal in value, not in text
            x_rows.append(x_rows[-1] if kind == "same" else np.where(x_rows[-1] == 0, -x_rows[-1], x_rows[-1]))
    rows = [(x, np.array(draw(st.lists(_floats, min_size=dim_p, max_size=dim_p))),
             draw(st.integers(-2**70, 2**70) | st.integers(0, 100)),
             draw(st.sampled_from(["joint_zf", "joint_rzf", "", 'é"x'])), draw(st.sampled_from(["", "0123abcd"])))
            for x in x_rows]
    return dataset_from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(data=_datasets())
def test_dataset_save_writes_json_dumps_per_row_and_every_load_parses_the_same(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        save_dataset(data, path)
        oracle = "".join(json.dumps(dict(zip(DATASET_COLUMNS, (x.tolist(), p.tolist(), *rest)))) + "\n"
                         for x, p, *rest in zip(data["x"], data["p_star"],
                                                *(data[k].tolist() for k in DATASET_COLUMNS[2:])))
        assert path.read_bytes() == oracle.encode()
        remembered = load_dataset(path)  # the columns save_dataset kept: nothing is parsed
        parsed = _fresh_load(path)
        _assert_same_columns(remembered, parsed)
        if len(data["seed"]) and not any(np.isnan(data[k]).any() for k in ("x", "p_star")):
            _assert_same_columns(parsed, data)  # columns read back as they were
        crlf = Path(tmp) / "crlf.jsonl"
        crlf.write_bytes(oracle.replace("\n", "\r\n").encode())
        _assert_same_columns(load_dataset(crlf), parsed)
        if not any(data["fingerprint"]):  # rows written without the key read as fingerprint ""
            bare = Path(tmp) / "bare.jsonl"
            bare.write_text("".join(json.dumps({k: v for k, v in json.loads(line).items() if k != "fingerprint"}) + "\n"
                                    for line in oracle.splitlines()), encoding="utf-8")
            _assert_same_columns(load_dataset(bare), parsed)


def test_load_dataset_hands_out_copies(tmp_path):
    path = tmp_path / "data.jsonl"
    data = _dataset(5, 4, lambda x: x[:2], seed=15, fingerprint="0123abcd")
    save_dataset(data, path)
    kept = {k: v.copy() for k, v in data.items()}
    data["x"][:] = 7.0  # the caller's columns, edited after the save
    for _ in range(2):
        back = load_dataset(path)
        _assert_same_columns(back, kept)
        back["x"][0, 0], back["p_star"][:] = -1.0, 0.0
        back["seed"][1], back["strategy"][2], back["fingerprint"][3] = 99, "joint_rzf", "ffffffff"
    _assert_same_columns(load_dataset(path), kept)


def test_load_dataset_parses_an_edited_file_of_the_same_size(tmp_path):
    path = tmp_path / "data.jsonl"
    data = dataset_from_rows([(np.array([0.25, 0.5]), np.array([1.0]), 3, "joint_zf", "0123abcd")] * 2)
    save_dataset(data, path)
    load_dataset(path)
    text = path.read_text(encoding="utf-8")
    edited = text.replace("0.25", "0.35", 1)
    assert len(edited) == len(text)
    path.write_text(edited, encoding="utf-8")
    assert load_dataset(path)["x"].tolist() == [[0.35, 0.5], [0.25, 0.5]]


def test_load_dataset_of_a_corrupt_file_after_a_good_one_raises_as_a_first_load_does(tmp_path):
    path, bad = tmp_path / "data.jsonl", tmp_path / "bad.jsonl"
    save_dataset(_dataset(4, 4, lambda x: x[:2], seed=14), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad.write_text("".join(lines[:2]) + lines[2][:-20] + "\n" + lines[3], encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.jsonl:3: bad dataset record") as first:
        _fresh_load(bad)
    load_dataset(path)  # a good file, remembered
    with pytest.raises(ValueError) as again:
        load_dataset(bad)
    assert str(again.value) == str(first.value)
    path.write_bytes(bad.read_bytes())  # the remembered file, corrupted in place
    with pytest.raises(ValueError) as again:
        load_dataset(path)
    assert str(again.value) == str(first.value).replace("bad.jsonl", "data.jsonl")


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
