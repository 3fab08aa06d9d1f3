import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import beamalloc
from beamalloc import allocators, cli, experiment, metrics, surrogate
from beamalloc.cli import main
from beamalloc.experiment import (
    ConfigError,
    build_precoder,
    fingerprint,
    gen_dataset,
    eval_model,
    make_trial,
    parse_config,
    run_campaign,
    train_models,
)
from beamalloc.channel import UserDrop, drop_users, geometry_from_positions
from beamalloc.config import SystemConfig
from beamalloc.precoding import effective_gains, make_rzf, make_zf
from beamalloc.surrogate import DATASET_COLUMNS, gains_vector, load_dataset, load_model, save_dataset

SMALL_CONFIG = """
# desk-scale smoke campaign
system.n_beams = 7
system.n_users = 7
qos.sweep = 300, 900
strategies = equal, sumopt, satisset, joint
precoders = zf, rzf
n_trials = 3
base_seed = 11
output.dir = {out}
surrogate.n_train = 40
surrogate.n_test = 10
surrogate.xi_mbps = 250
surrogate.hidden = 16
surrogate.epochs = 8
surrogate.batch_size = 32
"""


def _one_line_per_key(text):
    """`text` with a later line of a key put in place of its earlier line: a
    test overrides a SMALL_CONFIG key by appending it, and a config file that
    sets one key twice is an error."""
    lines = {}
    for line in text.splitlines():
        lines[line.partition("=")[0].strip() or line] = line
    return "\n".join(lines.values()) + "\n"


def _write_config(tmp_path, text=None, **fmt):
    p = tmp_path / "run.cfg"
    p.write_text(_one_line_per_key(text or SMALL_CONFIG).format(out=tmp_path / "out", **fmt))
    return str(p)


def _scored_rows(monkeypatch, cfg):
    """Run the campaign; per per_trial.csv row, its printed fields, the exact
    scores the chunk scoring returned for it (MetricsSummary column order)
    and its satisfied count."""
    blocks = []
    score_chunk = experiment._score_chunk

    def spy(*args):
        blocks.append(score_chunk(*args))
        return blocks[-1]

    monkeypatch.setattr(experiment, "_score_chunk", spy)
    with open(run_campaign(cfg)["per_trial"]) as fh:
        lines = fh.read().splitlines()[1:]
    scored = [(row, n) for scores, n_sat in blocks for row, n in zip(scores.tolist(), n_sat.tolist())]
    assert len(scored) == len(lines)
    return [(line.split(","), row, n) for line, (row, n) in zip(lines, scored)]


def test_parse_config_round_trip(tmp_path):
    cfg = parse_config(_write_config(tmp_path))
    assert cfg.system.n_beams == 7
    assert cfg.qos_sweep == (300.0, 900.0)
    assert cfg.strategies == ("equal", "sumopt", "satisset", "joint")
    assert cfg.n_trials == 3
    assert cfg.base_seed == 11
    assert cfg.surrogate.hidden == (16,)
    assert cfg.surrogate.n_train == 40


def test_parse_config_unknown_key_is_line_precise(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("system.n_beams = 7\nsystem.bogus = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus"):
        parse_config(str(p))


def test_parse_config_rejects_garbage_and_missing(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        parse_config(str(p))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "nope.cfg"))


def test_parse_config_validates_strategy(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("strategies = equal, turbo\n")
    with pytest.raises(ConfigError, match="turbo"):
        parse_config(str(p))


def test_make_trial_deterministic():
    sys_cfg = SystemConfig()
    t1 = make_trial(sys_cfg, 5)
    t2 = make_trial(sys_cfg, 5)
    assert np.array_equal(t1.channel, t2.channel)
    assert t1.seed == 5


def test_campaign_outputs_and_determinism(tmp_path):
    cfg = parse_config(_write_config(tmp_path))
    out = run_campaign(cfg)
    per_trial = Path(out["per_trial"]).read_text()
    agg = Path(out["aggregate"]).read_text()
    lines = per_trial.strip().splitlines()
    # golden schema, version 1
    assert lines[0] == (
        "trial,seed,precoder,strategy,xi_mbps,sum_rate_mbps,"
        "n_satisfied,congested,jain,lambda_obj,runtime_ms"
    )
    # trials x precoders x sweep points x strategies
    assert len(lines) - 1 == 3 * 2 * 2 * 4
    assert agg.splitlines()[0] == (
        "precoder,strategy,xi_mbps,n_trials,congestion_prob,satisfaction_prob,"
        "mean_sum_rate_mbps,mean_sum_rate_satisfied_mbps,mean_sum_rate_unsatisfied_mbps,"
        "mean_jain,mean_lambda"
    )
    assert len(agg.strip().splitlines()) - 1 == 2 * 2 * 4
    seeds = {line.split(",")[1] for line in lines[1:]}
    assert seeds == {"11", "12", "13"}
    # timing is off by default, so reruns are byte-identical
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])
    rerun = run_campaign(cfg)
    assert Path(rerun["per_trial"]).read_text() == per_trial
    assert Path(rerun["aggregate"]).read_text() == agg


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 30), k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 1.0))
def test_split_sums_add_each_row_as_its_compaction_does(rows, k, seed, share):
    # bit for bit: a row's masked entries summed on their own, in row order
    rng = np.random.default_rng(seed)
    r = rng.exponential(1000.0, size=(rows, k))
    mask = rng.random((rows, k)) < share
    sums = experiment._split_sums(r, mask, mask.sum(axis=-1))
    assert sums.tolist() == [float(row[m].sum()) if m.any() else 0.0 for row, m in zip(r, mask)]


def test_campaign_records_timing_when_asked(tmp_path):
    text = SMALL_CONFIG + "output.record_timing = true\n"
    cfg = parse_config(_write_config(tmp_path, text))
    cfg.n_trials = 1
    out = run_campaign(cfg)
    times = [
        float(line.rsplit(",", 1)[1])
        for line in Path(out["per_trial"]).read_text().strip().splitlines()[1:]
    ]
    assert any(t > 0 for t in times)


def test_gen_dataset_and_labels(tmp_path):
    cfg = parse_config(_write_config(tmp_path))
    cfg.surrogate.n_train = 4
    cfg.surrogate.n_test = 2
    path = gen_dataset(cfg)
    data = load_dataset(path)
    k, n = cfg.system.n_users, cfg.system.n_beams
    assert data["x"].shape == (6 * 2, k * n)  # both precoders
    assert data["p_star"].shape == (6 * 2, k)
    assert np.all(data["x"] >= 0)
    assert np.all(data["p_star"].sum(axis=1) <= cfg.system.p_max_w * (1 + 1e-9))
    assert data["strategy"].tolist() == ["joint_zf", "joint_rzf"] * 6
    assert data["seed"].tolist() == [s for s in range(cfg.base_seed, cfg.base_seed + 6) for _ in cfg.precoders]
    assert set(data["fingerprint"].tolist()) == {fingerprint(cfg)}
    # regeneration is identical
    again = load_dataset(gen_dataset(cfg))
    for key in DATASET_COLUMNS:
        assert again[key].dtype == data[key].dtype and np.array_equal(again[key], data[key]), key


@pytest.mark.parametrize("base_seed", [11, 10**22])  # the second is past int64
def test_load_then_save_rewrites_a_gen_data_file_byte_for_byte(tmp_path, base_seed):
    cfg = parse_config(_write_config(tmp_path))
    cfg.base_seed = base_seed
    cfg.surrogate.n_train, cfg.surrogate.n_test = 6, 3
    path = Path(gen_dataset(cfg))
    copy = tmp_path / "copy.jsonl"
    save_dataset(load_dataset(path), copy)
    assert copy.read_bytes() == path.read_bytes()
    assert json.loads(path.read_text().splitlines()[-1])["seed"] == base_seed + 8


def test_an_in_process_pipeline_parses_no_dataset_it_wrote(tmp_path, monkeypatch):
    # train and both evals read back the columns gen-data saved; the same rows with CRLF line ends
    # are other bytes, parsed once, and train the same models
    cfg = parse_config(_write_config(tmp_path))
    parsed, parse = [], surrogate._parse_dataset
    monkeypatch.setattr(surrogate, "_parse_dataset", lambda path, raw: parsed.append(path) or parse(path, raw))

    def train_and_eval():
        trained = train_models(cfg)
        for model_path, _ in trained.values():
            eval_model(cfg, model_path)
        return {model_path: Path(model_path).read_bytes() for model_path, _ in trained.values()}

    path = Path(gen_dataset(cfg))
    models = train_and_eval()
    assert parsed == [] and len(models) == 2
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert train_and_eval() == models
    assert parsed == [str(path)]


@pytest.mark.parametrize("pk", ["zf", "rzf"])
def test_train_and_eval_pipeline(tmp_path, pk):
    text = SMALL_CONFIG.replace("precoders = zf, rzf", f"precoders = {pk}")
    cfg = parse_config(_write_config(tmp_path, text))
    gen_dataset(cfg)
    trained = train_models(cfg)
    assert set(trained) == {f"joint_{pk}"}
    model_path, report = trained[f"joint_{pk}"]
    assert model_path == str(tmp_path / "out" / f"model_joint_{pk}.npz")
    assert load_model(model_path).strategy == f"joint_{pk}"  # train names what it trained
    assert report.train_losses
    eval_path = eval_model(cfg, model_path)
    assert eval_path == str(tmp_path / "out" / f"eval_{pk}.csv")
    lines = Path(eval_path).read_text().strip().splitlines()
    assert lines[0] == "method,qos,time_ms,sum_rate,satisfaction_pct"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {f"model_{pk}", f"surrogate_{pk}"}
    for r in rows:
        assert float(r[1]) == 250.0
        assert float(r[2]) > 0  # time_ms
        assert 0.0 <= float(r[4]) <= 100.0


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 0
    assert (tmp_path / "out" / "per_trial.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense here\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["eval", "--model", str(tmp_path / "missing.npz"), "--config", cfg_path]) == 1
    capsys.readouterr()


def test_cli_missing_or_corrupt_inputs_exit_1(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, SMALL_CONFIG.replace("precoders = zf, rzf", "precoders = zf"))
    dataset = tmp_path / "out" / "dataset.jsonl"
    model_path = str(tmp_path / "out" / "model_joint_zf.npz")

    def exits_1_naming(argv, path):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(path) in err

    train = ["train", "--config", cfg_path]
    evaluate = ["eval", "--model", model_path, "--config", cfg_path]
    exits_1_naming(train, dataset)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(train) == 0
    missing_model = str(tmp_path / "missing.npz")
    exits_1_naming(["eval", "--model", missing_model, "--config", cfg_path], missing_model)

    good = dataset.read_text(encoding="utf-8")
    dataset.write_text(good + "{not json\n", encoding="utf-8")
    exits_1_naming(train, dataset)
    exits_1_naming(evaluate, dataset)
    dataset.unlink()
    exits_1_naming(evaluate, dataset)
    dataset.write_text(good, encoding="utf-8")
    assert main(evaluate) == 0


def test_cli_imports_no_scipy():
    # importing scipy used to be most of every command's start-up time
    code = (
        "import sys, beamalloc.cli, beamalloc.experiment; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(beamalloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_a_carrier_whose_wavelength_overflows_is_named_before_any_drop(tmp_path):
    # every drop's channel would be inf: LAPACK's DLASCL complained on each
    # condition-number check, from C, and the run blamed system.cond_cap
    text = "system.n_beams = 4\nsystem.n_users = 4\nn_trials = 1\nsystem.carrier_ghz = 5e-324\noutput.dir = {out}\n"
    src = str(Path(beamalloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "beamalloc.cli", "run", "--config", _write_config(tmp_path, text)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert out.returncode == 1
    assert "config error: system.carrier_ghz = 4.94066e-324 puts the wavelength beyond the float range" in out.stderr
    assert "DLASCL" not in out.stdout + out.stderr
    assert not (tmp_path / "out").exists()


def test_cli_overrides(tmp_path):
    cfg_path = _write_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["run", "--config", cfg_path, "--trials", "2", "--seed", "99", "--out", str(alt)]) == 0
    lines = (alt / "per_trial.csv").read_text().strip().splitlines()
    assert {line.split(",")[1] for line in lines[1:]} == {"99", "100"}


def test_per_user_demand_point(tmp_path):
    text = SMALL_CONFIG + "qos.per_user = 200, 200, 400, 400, 600, 600, 800\n"
    cfg = parse_config(_write_config(tmp_path, text))
    cfg.n_trials = 1
    out = run_campaign(cfg)
    lines = Path(out["per_trial"]).read_text().strip().splitlines()
    # two sweep points plus the per-user list
    assert len(lines) - 1 == 1 * 2 * 3 * 4
    xi_values = {line.split(",")[4] for line in lines[1:]}
    assert "457.1428571" in xi_values  # mean of the per-user list


def test_sum_rate_split_adds_up(tmp_path, monkeypatch):
    cfg = parse_config(_write_config(tmp_path))
    cfg.n_trials = 2
    for _, (_, _, sum_rate, satisfied, unsatisfied, _, _), _ in _scored_rows(monkeypatch, cfg):
        assert satisfied + unsatisfied == pytest.approx(sum_rate, rel=1e-12)


@pytest.mark.parametrize(
    "line",
    [
        "system.p_max_w = 0",
        "system.p_max_w = -1",
        "system.n_beams = 0",
        "n_trials = 0",
        # an empty list
        "strategies = ",
        "precoders = ",
        "qos.sweep = ",  # and no qos.per_user
        "qos.per_user = 200, 300, 400",
        "qos.sweep = 300, 0",
        "qos.per_user = 200, 200, 400, -1, 600, 600, 800",
        "qos.omega_frac = -0.01",
        # values that do not convert to the key's type
        "system.atmospherics = no",
        "output.record_timing = yes",
        "system.p_max_w = abc",
        "system.p_max_w = inf",
        "system.n_beams = 7.5",
        "system.bandwidth_mhz = 500, 600",
        "n_trials = 2.7",
        "surrogate.n_train = 1.5",
        "qos.sweep = nan",
        # ranges that used to die late or run silently
        "system.beam_3db_radius_km = 0",
        "system.beam_3db_radius_km = -5",
        "system.cond_cap = 0.5",
        "surrogate.batch_size = 0",
        "surrogate.n_train = 0",
        "surrogate.n_test = -3",
        "surrogate.patience = 0",
        "surrogate.epochs = 0",
        "surrogate.hidden = 16, 0",
        "surrogate.val_fraction = 2",
        "surrogate.learning_rate = -1",
        "surrogate.xi_mbps = 0",
        "surrogate.val_fraction = 0.99",  # 40 samples, all of them for validation
        "surrogate.val_fraction = 1e308",  # val_fraction * n_train overflows
        "surrogate.xi_mbps = 1e300",  # the label demand's SINR target overflows
        # the cloud model's permittivity terms overflow
        "system.atmospherics = true\nsystem.carrier_ghz = 1e300",
        "system.atmospherics = true\nsystem.carrier_ghz = 1e-300",
        "system.atmospherics = true\nsystem.carrier_ghz = 1e160",
        "system.atmospherics = true\nsystem.carrier_ghz = 1e-160",
        "surrogate.seed = -1",
        "base_seed = -3",
        # two demand points with one mean demand would merge into one aggregate row
        "qos.sweep = 300, 900, 300",
        "qos.per_user = 100, 200, 300, 400, 500, 300, 300",  # mean 300, a sweep value
        # a repeated strategy or precoder would add its rows twice to one cell
        "strategies = joint, equal, joint",
        "precoders = zf, rzf, zf",
        "system.carrier_ghz = 5e-324",  # the wavelength overflows
    ],
)
def test_cli_rejects_unrunnable_config_at_parse_time(tmp_path, capsys, line):
    cfg_path = _write_config(tmp_path, SMALL_CONFIG + line + "\n")
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "per_trial.csv").exists()


@pytest.mark.parametrize("carrier, rejected", [("1e160", True), ("1e-160", True), ("1e150", False), ("1e-150", False)])
def test_cloud_model_overflow_is_rejected_at_parse_time_naming_the_carrier(tmp_path, carrier, rejected):
    text = "system.atmospherics = true\nsystem.carrier_ghz = {carrier}\n"
    cfg_path = _write_config(tmp_path, text, carrier=carrier)
    if rejected:
        with pytest.raises(ConfigError, match=re.escape(f"system.carrier_ghz = {float(carrier):g} overflows the cloud model")):
            parse_config(cfg_path)
    else:
        assert parse_config(cfg_path).system.carrier_ghz == float(carrier)


def test_cli_train_divergence_exits_1_naming_the_learning_rate(tmp_path, capsys):
    # runs under the tier-1 filter, so a numpy RuntimeWarning on the way would be exit 2
    text = SMALL_CONFIG.replace("precoders = zf, rzf", "precoders = zf")
    assert main(["gen-data", "--config", _write_config(tmp_path, text)]) == 0
    for lr in ("1e100", "1e150", "1e300"):
        cfg_path = _write_config(tmp_path, text + f"surrogate.learning_rate = {lr}\n")
        assert main(["train", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert f"config error: surrogate.learning_rate = {float(lr):g} diverges training the joint_zf model" in err
    assert main(["train", "--config", _write_config(tmp_path, text + "surrogate.learning_rate = 1e20\n")]) == 0


def test_build_precoder_rejects_unknown_kind():
    system = SystemConfig()
    with pytest.raises(ConfigError, match="unknown precoder 'mrt'"):
        build_precoder(make_trial(system, 5), system, "mrt")


def test_every_precoder_is_built_through_the_rebindable_constructors(tmp_path, monkeypatch):
    # make_trial, build_precoder and eval all go through PRECODERS, which looks
    # make_zf and make_rzf up in the module at call time
    assert experiment.KNOWN_PRECODERS == tuple(experiment.PRECODERS) == ("zf", "rzf")
    built = []
    for name in ("make_zf", "make_rzf"):
        real = getattr(experiment, name)
        monkeypatch.setattr(experiment, name, lambda *args, real=real, **kw: built.append(real(*args, **kw)) or built[-1])
    cfg = parse_config(_write_config(tmp_path))
    trial = make_trial(cfg.system, 5)
    assert [w.kind for w in built] == ["zf"] * (trial.redraws + 1) and build_precoder(trial, cfg.system, "zf") is built[-1]
    assert build_precoder(trial, cfg.system, "rzf") is built[-1] and built[-1].kind == "rzf"
    gen_dataset(cfg)
    paths = train_models(cfg)
    del built[:]
    eval_model(cfg, paths["joint_rzf"][0])
    assert [(w.kind, w.W.shape[0]) for w in built] == [("rzf", cfg.surrogate.n_test)]  # one stacked build


def test_cli_train_and_eval_refuse_what_they_cannot_use(tmp_path, capsys):
    text = SMALL_CONFIG.replace("precoders = zf, rzf", "precoders = zf") + "surrogate.n_train = 8\nsurrogate.n_test = 0\n"
    cfg_path = _write_config(tmp_path, text)
    out = tmp_path / "out"
    out.mkdir()
    (out / "dataset.jsonl").write_text("")
    assert main(["train", "--config", cfg_path]) == 1
    assert "dataset is empty" in capsys.readouterr().err
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    model_path = out / "model_joint_zf.npz"
    assert main(["eval", "--model", str(model_path), "--config", cfg_path]) == 1  # surrogate.n_test = 0
    assert "dataset has no test split" in capsys.readouterr().err
    model = load_model(model_path)
    model.strategy = "satisset_zf"
    other = tmp_path / "satisset_model.npz"
    surrogate.save_model(model, other)
    assert main(["eval", "--model", str(other), "--config", cfg_path]) == 1
    assert "unknown label strategy 'satisset_zf'" in capsys.readouterr().err


@pytest.mark.parametrize("line", [3, 100])  # a training row, the last test row
def test_cli_train_and_eval_exit_1_on_a_short_dataset_row(tmp_path, capsys, line):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    lines = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 100
    row = json.loads(lines[line - 1])
    lines[line - 1] = json.dumps({**row, "x": row["x"][:-1]}) + "\n"
    (out / "dataset.jsonl").write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    for argv in (["train"], ["eval", "--model", str(out / f"model_{row['strategy']}.npz")]):
        assert main([*argv, "--config", cfg_path]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"dataset.jsonl:{line}: bad dataset record" in err, err
        assert "shapes (48,) and (7,)" in err and "re-run gen-data" in err


@pytest.mark.parametrize("seed, shown", [(12.7, "12.7"), (True, "true"), ("12", '"12"')])
def test_cli_train_and_eval_exit_1_on_a_seed_that_is_not_a_json_integer(tmp_path, capsys, seed, shown):
    # int() would read these as 12, 1 and 12; a test row's seed is what eval's messages name
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    lines = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[99])
    lines[99] = json.dumps({**row, "seed": seed}) + "\n"
    (out / "dataset.jsonl").write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    for argv in (["train"], ["eval", "--model", str(out / f"model_{row['strategy']}.npz")]):
        assert main([*argv, "--config", cfg_path]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error") and "dataset.jsonl:100: bad dataset record" in err, err
        assert f"seed {shown} is not an integer" in err and "re-run gen-data" in err


@pytest.mark.parametrize("strategy", [None, "joint_mrt"])
def test_cli_train_and_eval_exit_1_on_a_row_of_an_unknown_label_strategy(tmp_path, capsys, strategy):
    # json null read as the text "None" once trained a model_None.npz on that one row
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    models = sorted(out.glob("model_*.npz"))
    lines = (out / "dataset.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    for i in (8, 2):  # seeds 15 and 12: the first such row is named
        lines[i] = json.dumps({**json.loads(lines[i]), "strategy": strategy}) + "\n"
    (out / "dataset.jsonl").write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    for argv in (["train"], ["eval", "--model", str(out / "model_joint_zf.npz")]):
        assert main([*argv, "--config", cfg_path]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error") and "dataset.jsonl: the seed-12 record's label strategy" in err, err
        assert repr(str(strategy)) in err and "re-run gen-data" in err
    assert sorted(out.glob("model_*.npz")) == models


def test_cli_reports_a_runtime_error_with_exit_2(tmp_path, capsys, monkeypatch):
    def fails(cfg):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "run_campaign", fails)
    assert main(["run", "--config", _write_config(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: disk on fire\n"


# extreme values of every scalar system.*, qos.* and surrogate.* key; sizes
# (N, K, sample counts, epochs, widths) stay small so that no draw allocates much
_EXTREMES = ("0", "1", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "1.7976931348623157e308")
_SIZES = ("0", "1", "2", "-1", "1e300")
_HUGE_INT = "10000000000000000000000"
_FUZZ_VALUES = {
    **{f"{section}.{f.name}": _EXTREMES
       for section, cls in (("system", SystemConfig), ("surrogate", experiment.SurrogateSection))
       for f in fields(cls) if isinstance(f.default, float)},
    "system.cond_cap": _EXTREMES + ("1.0000001",),
    "system.n_beams": _SIZES + ("7",),
    "system.n_users": _SIZES + ("7",),
    "system.atmospherics": ("true", "false"),
    "qos.sweep": _EXTREMES,
    "qos.omega_frac": _EXTREMES,
    "surrogate.val_fraction": _EXTREMES + ("0.5", "0.999"),
    "surrogate.n_train": _SIZES + ("12",),
    "surrogate.n_test": _SIZES + ("4",),
    "surrogate.epochs": _SIZES,
    "surrogate.hidden": _SIZES + ("8",),
    **{f"surrogate.{name}": _SIZES + (_HUGE_INT,) for name in ("batch_size", "patience", "seed")},
}
_FUZZ_BASE = {
    "system.n_beams": "4", "system.n_users": "4", "n_trials": "1", "qos.sweep": "300, 900",
    "surrogate.n_train": "8", "surrogate.n_test": "2", "surrogate.epochs": "2", "surrogate.hidden": "8",
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(*(st.tuples(st.just(key), st.sampled_from(values)) for key, values in _FUZZ_VALUES.items())),
                min_size=1, max_size=3, unique_by=lambda kv: kv[0]))
@example([("system.atmospherics", "true"), ("system.carrier_ghz", "1e300")])
@example([("surrogate.learning_rate", "1e300")])
@example([("system.p_max_w", "1e-300")])  # gen-data's RZF column norms vanish
def test_accepted_config_never_exits_2(overrides):
    # every stage exits 0 or 1, never 2, also under the tier-1 RuntimeWarning filter
    for command, code in _cli_stages(overrides):
        assert code in (0, 1), (command, overrides)


def test_fuzz_base_config_runs_every_stage():
    # without overrides every stage exits 0 and both models are evaluated, so
    # the fuzz above does not pass on evals that merely miss their model
    assert _cli_stages([]) == [("run", 0), ("gen-data", 0), ("train", 0), ("eval", 0), ("eval", 0)]


def _cli_stages(overrides):
    """[(command, exit code)] of run, then gen-data -> train -> eval of each
    model that train prints, through the CLI on _FUZZ_BASE plus `overrides`;
    after run, a stage that fails ends the list (the next needs its output)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "fuzz.cfg")
        settings_ = {**_FUZZ_BASE, **dict(overrides), "output.dir": os.path.join(tmp, "out")}
        Path(cfg_path).write_text("".join(f"{key} = {value}\n" for key, value in settings_.items()))
        stages = []
        for command in ("run", "gen-data", "train"):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                stages.append((command, main([command, "--config", cfg_path])))
            if stages[-1][1] and command != "run":
                return stages
        # `beamalloc train` prints "<strategy>: <model path> (best epoch ...)" per model
        for line in printed.getvalue().splitlines():
            model = line.split(": ", 1)[1].rsplit(" (", 1)[0]
            stages.append(("eval", main(["eval", "--model", model, "--config", cfg_path])))
            if stages[-1][1]:
                break
        return stages


@pytest.mark.parametrize(
    "lines, key",
    [
        ("qos.sweep = 300, 900, 300", "qos.sweep"),
        ("qos.sweep = 200, 400\nqos.per_user = 100, 200, 300, 400, 500, 600, 700", "qos.per_user"),
    ],
)
def test_colliding_demand_points_name_their_key(tmp_path, lines, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(_write_config(tmp_path, SMALL_CONFIG + lines + "\n"))
    # distinct mean demands run, one aggregate row per demand point
    text = SMALL_CONFIG + "qos.sweep = 200, 400\nqos.per_user = 100, 200, 300, 400, 500, 600, 800\n"
    cfg = parse_config(_write_config(tmp_path, text))
    cfg.n_trials = 2
    run_campaign(cfg)
    with open(tmp_path / "out" / "aggregate.csv") as fh:
        rows = fh.read().splitlines()[1:]
    assert len(rows) == 3 * len(cfg.precoders) * len(cfg.strategies)
    assert all(row.split(",")[3] == "2" for row in rows)


@pytest.mark.parametrize("line", ["system.cond_cap = 1.5", "system.beam_3db_radius_km = 100000"])
def test_cli_rejects_config_with_no_well_conditioned_drop(tmp_path, capsys, line):
    # both parse, but no drop passes the conditioning test
    cfg_path = _write_config(tmp_path, SMALL_CONFIG + line + "\n")
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "system.cond_cap" in err and "(seed 11)" in err
    assert not (tmp_path / "out" / "per_trial.csv").exists()


def test_cli_rejects_beam_layout_beyond_the_cloud_model(tmp_path, capsys):
    # parses, but every drop puts users under 0.5 deg of elevation, where the
    # cloud attenuation exceeds 100 dB
    text = SMALL_CONFIG + "system.atmospherics = true\nsystem.beam_radius_km = {radius}\n"
    cfg_path = _write_config(tmp_path, text, radius=10000000)
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "system.beam_radius_km = 1e+07" in err and "(seed 11)" in err
    assert not (tmp_path / "out" / "per_trial.csv").exists()
    cfg_path = _write_config(tmp_path, text, radius=1000000)
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 0


@pytest.mark.parametrize("p_max_w", ["1e-30", "1e-20", "1e-15"])
def test_budget_that_rounds_every_rate_to_0_exits_1(tmp_path, capsys, p_max_w):
    # every SINR is below 2**-53, so every rate is exactly 0, and Jain and
    # Lambda are undefined
    text = SMALL_CONFIG + "system.p_max_w = {p_max_w}\n"
    cfg_path = _write_config(tmp_path, text, p_max_w=p_max_w)
    cfg = parse_config(cfg_path)
    cfg.n_trials = 1
    with pytest.raises(ConfigError, match=rf"system\.p_max_w = {p_max_w} .*\(seed 11\)"):
        run_campaign(cfg)
    assert not (tmp_path / "out" / "per_trial.csv").exists()
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"system.p_max_w = {p_max_w}" in err and "(seed 11)" in err
    cfg_path = _write_config(tmp_path, text, p_max_w="1e-14")
    assert main(["run", "--config", cfg_path, "--trials", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "line, code",
    [
        # the relaxed demand's SINR target 2^(xi (1 + omega) / B) - 1 overflows
        ("system.bandwidth_mhz = 0.001", 1),
        ("system.bandwidth_mhz = 1e-300", 1),
        ("qos.sweep = 1e300", 1),
        ("qos.omega_frac = 1e300", 1),
        # every rate rounds to 0
        ("system.noise_power_w = 1e300", 1),
        ("system.rx_gain = 1e-300", 1),
        ("system.beam_3db_radius_km = 1e-12", 1),
        ("system.peak_beam_gain = 1e-300", 1),
        # no drop passes the conditioning test
        ("system.sat_height_km = 1e-9", 1),
        ("system.cond_cap = 1", 1),
        ("system.beam_radius_km = 1e-12", 1),
        # a float error in the numerics: the channel or an inverse gain leaves the float range
        ("system.rx_gain = 1e300\nsystem.peak_beam_gain = 1e300", 1),
        ("system.beam_3db_radius_km = 1e-300", 1),
        ("system.beam_radius_km = 1.7976931348623157e308", 1),
        ("system.noise_temp_k = 5e-324", 1),
        ("system.noise_power_w = 1.7976931348623157e308", 1),
        ("system.noise_temp_k = 1e-300\nsystem.noise_power_w = 1e-300", 1),
        ("system.atmospherics_enabled = true", 1),  # unknown key: the one spelling is system.atmospherics
        ("system.noise_power_w = 1e-300", 0),
        ("system.p_max_w = 1e300", 0),
        ("system.carrier_ghz = 1e-9", 0),
        ("system.noise_temp_k = 1e-300", 0),
        ("qos.sweep = 1e-300", 0),  # satisfaction ratios near 1e300: Jain stays finite
    ],
)
def test_cli_exit_codes_at_the_float_limits(tmp_path, capsys, line, code):
    # the tier-1 filter makes a RuntimeWarning an error, which the CLI reports as exit 2
    text = "system.n_beams = 7\nsystem.n_users = 7\nn_trials = 1\noutput.dir = {out}\n" + line + "\n"
    assert main(["run", "--config", _write_config(tmp_path, text)]) == code
    err = capsys.readouterr().err
    assert ("config error" in err) == (code == 1)
    for csv_path in (tmp_path / "out").glob("*.csv"):
        assert "nan" not in csv_path.read_text()


def test_dataset_x_is_the_whole_channel(tmp_path):
    # eval builds H, the precoder and the Link from x alone: each must equal
    # what a replayed trial gives, bit for bit
    for n in (7, 37):
        text = SMALL_CONFIG.replace("= 7\n", f"= {n}\n") + "system.atmospherics = true\n"
        cfg = parse_config(_write_config(tmp_path, text))
        cfg.surrogate.n_train, cfg.surrogate.n_test = 3, 1
        system = cfg.system
        k = system.n_users
        assert (system.n_beams, k) == (n, n)
        data = load_dataset(gen_dataset(cfg))
        assert set(data["strategy"].tolist()) == {"joint_zf", "joint_rzf"}
        for x, seed, strategy in zip(data["x"], data["seed"].tolist(), data["strategy"].tolist()):
            trial = make_trial(system, seed)
            H = x.reshape(k, n).T
            assert np.array_equal(H, trial.channel)
            pk = strategy.removeprefix("joint_")
            if pk == "zf":
                W = make_zf(H, cond_cap=system.cond_cap)
            else:
                W = make_rzf(H, system.noise_power_w, system.p_max_w)
            W_trial = build_precoder(trial, system, pk)
            assert np.array_equal(W.W, W_trial.W)
            assert np.array_equal(W.raw_norms, W_trial.raw_norms)
            assert np.array_equal(effective_gains(H, W).Q, effective_gains(trial.channel, W_trial).Q)


def _replayed_eval_rows(cfg, pk, model_path):
    """The eval CSV rows, without time_ms, computed from replayed trials."""
    system, surr = cfg.system, cfg.surrogate
    k = system.n_users
    qos = allocators.QoSProfile.uniform(surr.xi_mbps, k, cfg.omega_frac)
    seeds = range(cfg.base_seed + surr.n_train, cfg.base_seed + surr.n_train + surr.n_test)
    trials = [make_trial(system, seed) for seed in seeds]
    gains = np.stack([surrogate.gains_vector(t.channel) for t in trials])
    powers = surrogate.predict_powers(load_model(model_path), gains, system.p_max_w)
    model_rates, model_sat, surro_rates, surro_sat = [], 0, [], 0
    for trial, p in zip(trials, powers):
        W = build_precoder(trial, system, pk)
        link = effective_gains(trial.channel, W)
        res = allocators.joint_opt(link, W, qos, system)
        model_rates.append(res.rates_mbps.sum())
        model_sat += len(res.satisfied)
        r = metrics.rates(link, W, p, system)
        surro_rates.append(r.sum())
        surro_sat += int(allocators.satisfied_mask(r, qos.demands).sum())
    n = len(trials)
    return [
        [f"{method}_{pk}", f"{surr.xi_mbps:.10g}", f"{np.mean(rates):.10g}", f"{100.0 * sat / (n * k):.10g}"]
        for method, rates, sat in (("model", model_rates, model_sat), ("surrogate", surro_rates, surro_sat))
    ]


@pytest.mark.parametrize("pk", ["zf", "rzf"])
def test_eval_reads_channels_from_the_dataset(tmp_path, monkeypatch, pk):
    text = SMALL_CONFIG.replace("precoders = zf, rzf", f"precoders = {pk}")
    cfg = parse_config(_write_config(tmp_path, text))
    gen_dataset(cfg)
    model_path = train_models(cfg)[f"joint_{pk}"][0]

    def replay(*args):
        raise AssertionError("eval replayed a trial")

    monkeypatch.setattr(experiment, "make_trial", replay)
    monkeypatch.setattr(experiment, "build_precoder", replay)
    lines = Path(eval_model(cfg, model_path)).read_text().splitlines()
    monkeypatch.undo()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] + row[3:] for row in rows] == _replayed_eval_rows(cfg, pk, model_path)


def _per_sample_eval_csv(cfg, model_path):
    """The eval CSV with time_ms 0, scored sample by sample: the model's rates
    are its joint_opt result's, the surrogate's one metrics.rates call each."""
    model = load_model(model_path)
    pk = model.strategy.removeprefix("joint_")
    system, surr = cfg.system, cfg.surrogate
    k = system.n_users
    data = load_dataset(os.path.join(cfg.out_dir, surr.dataset_path))
    test = np.flatnonzero(data["strategy"] == model.strategy)[surr.n_train : surr.n_train + surr.n_test]
    qos = allocators.QoSProfile.uniform(surr.xi_mbps, k, cfg.omega_frac)
    gains = data["x"][test]
    model_rates, surro_rates = [], []
    for x, p in zip(gains, surrogate.predict_powers(model, gains, system.p_max_w)):
        H = x.reshape(k, system.n_beams).T
        W = make_zf(H, cond_cap=system.cond_cap) if pk == "zf" else make_rzf(H, system.noise_power_w, system.p_max_w)
        link = effective_gains(H, W)
        model_rates.append(allocators.joint_opt(link, W, qos, system).rates_mbps)
        surro_rates.append(metrics.rates(link, W, p, system))
    n = len(test)
    rows = [
        experiment.EVAL_ROW.format(f"{method}_{pk}", float(surr.xi_mbps), 0.0, float(r.sum(axis=-1).mean()),
                                   100.0 * int(allocators.satisfied_mask(r, qos.demands).sum()) / (n * k))
        for method, r in (("model", np.array(model_rates)), ("surrogate", np.array(surro_rates)))
    ]
    return "\n".join([experiment.EVAL_COLUMNS, *rows]) + "\n"


@pytest.mark.parametrize("xi", [250, 900])  # feasible, and congested for most drops
@pytest.mark.parametrize("pk", ["zf", "rzf"])
def test_eval_scores_both_methods_in_one_rates_call(tmp_path, monkeypatch, pk, xi):
    # the stacked call writes the bytes that per-sample scoring writes
    text = SMALL_CONFIG.replace("precoders = zf, rzf", f"precoders = {pk}") + f"surrogate.xi_mbps = {xi}\n"
    cfg = parse_config(_write_config(tmp_path, text))
    gen_dataset(cfg)
    model_path = train_models(cfg)[f"joint_{pk}"][0]
    monkeypatch.setattr(experiment, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    rates, calls = metrics.rates, []
    monkeypatch.setattr(metrics, "rates", lambda *args: calls.append(args) or rates(*args))
    csv_text = Path(eval_model(cfg, model_path)).read_text()
    assert len(calls) == 1 and calls[0][2].shape == (2, cfg.surrogate.n_test, cfg.system.n_users)
    monkeypatch.undo()
    assert csv_text == _per_sample_eval_csv(cfg, model_path)


def test_two_precoder_dataset_splits_each_strategy_by_seed(tmp_path, monkeypatch):
    # both precoders' rows interleave in one file: each strategy trains on
    # seeds base_seed .. base_seed + n_train - 1 and is evaluated on the next
    # n_test
    cfg = parse_config(_write_config(tmp_path))
    assert cfg.precoders == ("zf", "rzf")
    data = load_dataset(gen_dataset(cfg))
    train = surrogate.train
    seen = []

    def recording_train(x, p_star, settings):
        seen.append((x.copy(), p_star.copy()))
        return train(x, p_star, settings)

    monkeypatch.setattr(surrogate, "train", recording_train)
    trained = train_models(cfg)
    monkeypatch.undo()
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.surrogate.n_train)
    # x is the channel of each seed's trial, in seed order; p_star tells the
    # strategies apart, as both see the same channels
    x = np.stack([gains_vector(make_trial(cfg.system, seed).channel) for seed in seeds])
    assert [len(got_x) for got_x, _ in seen] == [len(seeds)] * 2
    for (got_x, got_p), s in zip(seen, ("joint_rzf", "joint_zf")):
        assert np.array_equal(got_x, x)
        rows = [np.flatnonzero((data["strategy"] == s) & (data["seed"] == seed)).item() for seed in seeds]
        assert np.array_equal(got_p, data["p_star"][rows])
    assert not np.array_equal(seen[0][1], seen[1][1])
    for pk in ("zf", "rzf"):
        model_path = trained[f"joint_{pk}"][0]
        lines = Path(eval_model(cfg, model_path)).read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] + row[3:] for row in rows] == _replayed_eval_rows(cfg, pk, model_path)


def test_cli_train_refuses_a_dataset_made_under_another_config(tmp_path, capsys):
    def config(name, extra=""):
        path = tmp_path / name
        path.write_text(_one_line_per_key(SMALL_CONFIG + extra).format(out=tmp_path / "out"))
        return str(path)

    cfg_path, dataset = config("run.cfg"), str(tmp_path / "out" / "dataset.jsonl")
    assert main(["gen-data", "--config", config("budget.cfg", "system.p_max_w = 100\n")]) == 0
    assert main(["train", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and dataset in err and "the seed-11 record's fingerprint" in err

    # a dataset joined from two: this config's rows, then rows made under p_max_w = 100 from seed 100
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    rows = Path(dataset).read_text()
    foreign = "system.p_max_w = 100\nbase_seed = 100\nsurrogate.dataset_path = foreign.jsonl\n"
    assert main(["gen-data", "--config", config("foreign.cfg", foreign)]) == 0
    Path(dataset).write_text(rows + (tmp_path / "out" / "foreign.jsonl").read_text())
    capsys.readouterr()
    for argv in (["train"], ["eval", "--model", str(tmp_path / "out" / "model_joint_zf.npz")]):
        assert main([*argv, "--config", cfg_path]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error") and dataset in err and "the seed-100 record's fingerprint" in err


def test_cli_eval_refuses_another_system_and_old_models(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, SMALL_CONFIG.replace("precoders = zf, rzf", "precoders = rzf"))
    out = tmp_path / "out"
    model_path = str(out / "model_joint_rzf.npz")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    fp = fingerprint(parse_config(cfg_path))
    assert set(load_dataset(out / "dataset.jsonl")["fingerprint"].tolist()) == {fp}
    assert load_model(model_path).fingerprint == fp  # train copies it from the rows
    assert main(["eval", "--model", model_path, "--config", cfg_path]) == 0
    capsys.readouterr()

    # another system.* value
    other = tmp_path / "other.cfg"
    for line in ("system.n_users = 5", "system.p_max_w = 100"):
        other.write_text(_one_line_per_key(Path(cfg_path).read_text() + line + "\n"))
        assert main(["eval", "--model", model_path, "--config", str(other)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and model_path in err and "fingerprint" in err

    # the model matches the config, the dataset was remade under another system
    assert main(["gen-data", "--config", str(other)]) == 0
    assert main(["eval", "--model", model_path, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "dataset.jsonl" in err and "fingerprint" in err

    # the same model as format 2 wrote it: one JSON document
    model = load_model(model_path)
    doc = {
        "format_version": 2, "strategy": model.strategy, "fingerprint": model.fingerprint,
        "layer_sizes": [model.weights[0].shape[0]] + [w.shape[1] for w in model.weights],
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "norm_stats": {name: getattr(model.norm_stats, name).tolist() for name in ("x_min", "x_max", "p_min", "p_max")},
    }
    old = tmp_path / "model_joint_rzf.json"
    old.write_text(json.dumps(doc))
    assert main(["eval", "--model", str(old), "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(old) in err and "format-2 JSON model" in err and "re-run train" in err


def _saved(save, *args, **arrays):
    """The bytes that np.save or np.savez writes."""
    buf = io.BytesIO()
    save(buf, *args, **arrays)
    return buf.getvalue()


# a bad model file made from a good model's bytes and arrays -> what stderr names
_BAD_MODELS = {
    "truncated": (lambda raw, a: raw[: len(raw) // 2], "not a whole npz archive"),
    "empty": (lambda raw, a: b"", "not a whole npz archive"),
    "format_2": (lambda raw, a: _saved(np.savez, **{**a, "format_version": np.array(2)}), "unsupported model format: 2"),
    "no_bias1": (lambda raw, a: _saved(np.savez, **{k: v for k, v in a.items() if k != "bias1"}), "bias1: missing"),
    "unchained": (lambda raw, a: _saved(np.savez, **{**a, "weight1": a["weight1"][1:]}), "weight1: float64 array"),
    "object_array": (lambda raw, a: _saved(np.savez, **{**a, "strategy": np.array(["joint_zf", None], dtype=object)}),
                     "allow_pickle=False"),
    "npy": (lambda raw, a: _saved(np.save, a["weight0"]), "not a whole npz archive"),
}


@pytest.fixture(scope="module")
def trained_zf(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained_zf")
    cfg_path = _write_config(tmp, SMALL_CONFIG.replace("precoders = zf, rzf", "precoders = zf"))
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    return cfg_path, tmp / "out" / "model_joint_zf.npz"


@pytest.mark.parametrize("case", sorted(_BAD_MODELS))
def test_cli_eval_exits_1_on_every_bad_model_file(trained_zf, tmp_path, capsys, case):
    cfg_path, good = trained_zf
    with np.load(good, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    make, cause = _BAD_MODELS[case]
    bad = tmp_path / f"{case}.npz"
    bad.write_bytes(make(good.read_bytes(), arrays))
    capsys.readouterr()
    assert main(["eval", "--model", str(bad), "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(bad) in err and cause in err and "re-run train" in err


def test_campaign_sumopt_reuse_equals_fresh_solve(tmp_path, monkeypatch):
    from beamalloc.metrics import jain, lambda_objective

    text = SMALL_CONFIG.replace("equal, sumopt, satisset, joint", "sumopt")
    text += "qos.per_user = 200, 250, 300, 600, 900, 1000, 1200\n"
    cfg = parse_config(_write_config(tmp_path, text))
    cfg.n_trials = 2
    rows = _scored_rows(monkeypatch, cfg)
    points = cfg.demand_points()
    assert len(rows) == cfg.n_trials * len(cfg.precoders) * len(points)
    assert 0 < sum(scores[0] for _, scores, _ in rows) < len(rows)
    cells = ((t, pk, qos, xi) for t in range(cfg.n_trials) for pk in cfg.precoders
             for qos, xi in points)
    for (line, scores, n), (t, pk, qos, xi) in zip(rows, cells):
        trial = make_trial(cfg.system, cfg.base_seed + t)
        W = build_precoder(trial, cfg.system, pk)
        fresh = allocators.sum_opt(trial.channel, W, qos, cfg.system)
        r, sat = fresh.rates_mbps, sorted(fresh.satisfied)
        unsat = sorted(set(range(r.size)) - fresh.satisfied)
        assert line[:5] == [str(t), str(cfg.base_seed + t), pk, "sumopt", f"{xi:.10g}"]
        assert line[-1] == "0"  # runtime_ms
        assert n == len(sat)
        assert scores == [
            float(fresh.congested), len(sat) / r.size, float(r.sum()), float(r[sat].sum()),
            float(r[unsat].sum()), float(jain(r / qos.demands)), float(lambda_objective(r, len(sat), r)),
        ]


def test_campaign_reuse_is_independent_of_order_and_company(tmp_path, monkeypatch):
    from beamalloc import allocators

    cfg = parse_config(_write_config(tmp_path))
    satis_set_opt = allocators.satis_set_opt
    calls = []

    def spy(*args):
        calls.append(args)
        return satis_set_opt(*args)

    monkeypatch.setattr(allocators, "satis_set_opt", spy)

    def run(strategies):
        cfg.strategies, cfg.out_dir = strategies, str(tmp_path / "-".join(strategies))
        calls.clear()
        return _scored_rows(monkeypatch, cfg), len(calls)

    def key(line):  # (trial, precoder, xi, strategy)
        return line[0], line[2], line[4], line[3]

    default, default_calls = run(("equal", "sumopt", "satisset", "joint"))
    n_cells = cfg.n_trials * len(cfg.precoders) * len(cfg.qos_sweep)
    # joint_opt_block serves satisset, with or without joint listed
    assert default_calls == 0
    expected = {key(line): (line, scores, n) for line, scores, n in default}
    for strategies, expected_calls in (
        (("joint", "satisset", "equal"), 0),
        (("satisset",), 0),
        (("equal",), 0),
    ):
        rows, n_calls = run(strategies)
        assert [line[3] for line, _, _ in rows] == list(strategies) * n_cells
        for line, scores, n in rows:
            assert (line, scores, n) == expected[key(line)]
        assert n_calls == expected_calls


def test_a_failed_campaign_leaves_earlier_outputs_untouched(tmp_path, monkeypatch):
    cfg = parse_config(_write_config(tmp_path))
    out = run_campaign(cfg)
    before = {name: (tmp_path / "out" / name).read_bytes() for name in os.listdir(tmp_path / "out")}
    assert set(before) == {"per_trial.csv", "aggregate.csv"}

    def fails_at_the_third_seed(system, seed, *first):
        if seed == cfg.base_seed + 2:
            raise ConfigError(f"no drop at seed {seed}")
        return make_trial(system, seed, *first)

    monkeypatch.setattr(experiment, "make_trial", fails_at_the_third_seed)
    with pytest.raises(ConfigError, match="no drop at seed 13"):
        run_campaign(cfg)
    # no temporary file remains, and both CSVs keep the first run's bytes
    assert {name: (tmp_path / "out" / name).read_bytes() for name in os.listdir(tmp_path / "out")} == before
    assert out["per_trial"] == str(tmp_path / "out" / "per_trial.csv")


# every file that run, gen-data, train and eval write under SMALL_CONFIG
_OUTPUTS = ("per_trial.csv", "aggregate.csv", "dataset.jsonl", "model_joint_zf.npz", "model_joint_rzf.npz",
            "eval_zf.csv", "eval_rzf.csv")


def _every_command(cfg_path, out):
    """Exit codes of run, gen-data, train and eval of both models, all writing into `out`."""
    codes = [main([command, "--config", cfg_path]) for command in ("run", "gen-data", "train")]
    return codes + [main(["eval", "--model", str(out / f"model_joint_{pk}.npz"), "--config", cfg_path])
                    for pk in ("zf", "rzf")]


def _contents(out):
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


def test_every_output_is_written_as_a_new_file(tmp_path, monkeypatch, capsys):
    # eval's time_ms reads 0, so two runs of one config write the same bytes
    monkeypatch.setattr(experiment, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    for name in ("first", "fresh", "links"):
        (tmp_path / name).mkdir()
    cfg_path, out, links = _write_config(tmp_path / "first"), tmp_path / "first" / "out", tmp_path / "links"
    assert _every_command(cfg_path, out) == [0] * 5
    assert sorted(os.listdir(out)) == sorted(_OUTPUTS)
    for name in _OUTPUTS:
        os.link(out / name, links / name)
    first = _contents(links)

    renamed = []  # (destination, whether it existed)
    for fn in ("rename", "replace"):
        def spy(src, dst, *args, real=getattr(os, fn), **kwargs):
            renamed.append((os.path.basename(dst), os.path.exists(dst)))
            return real(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, fn, spy)
    # the second run draws other trials, so every output's bytes change
    second = SMALL_CONFIG + "base_seed = 12\n"
    assert _every_command(_write_config(tmp_path / "first", second), out) == [0] * 5
    assert sorted(renamed) == sorted((name, False) for name in _OUTPUTS)  # never onto an existing file
    assert _every_command(_write_config(tmp_path / "fresh", second), tmp_path / "fresh" / "out") == [0] * 5
    # the first files were not rewritten in place; the second run's equal a fresh directory's; no *.tmp is left
    assert _contents(links) == first
    assert all(first[name] != (out / name).read_bytes() for name in _OUTPUTS)
    assert _contents(out) == _contents(tmp_path / "fresh" / "out")
    capsys.readouterr()


def _fail_midway(monkeypatch, command):
    """Make `command`'s writer raise once part of its file is written, or
    train's second model fail to train or to save."""
    full = OSError(28, "No space left on device")
    if command == "run":  # per_trial.csv is published, aggregate.csv fails after its header
        monkeypatch.setattr(experiment, "AGGREGATE_ROW", "{:d}")
    elif command == "gen-data":  # at the third dataset line
        lines = []

        def dumps(obj):
            lines.append(obj)
            if len(lines) == 3:
                raise full
            return json.dumps(obj)

        monkeypatch.setattr(surrogate, "json", SimpleNamespace(dumps=dumps))
    elif command == "train":  # the first model, after its archive's first bytes
        def savez(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise full

        monkeypatch.setattr(surrogate.np, "savez", savez)
    elif command == "train:second-model":  # training the second model, after the first is trained
        train, trained = surrogate.train, []

        def fails_second(*args):
            trained.append(args)
            if len(trained) == 2:
                raise OSError(12, "Cannot allocate memory")
            return train(*args)

        monkeypatch.setattr(surrogate, "train", fails_second)
    elif command == "train:second-save":  # saving the second model, after the first is written
        save, saved = surrogate.save_model, []

        def fails_second_save(*args):
            saved.append(args)
            if len(saved) == 2:
                raise full
            return save(*args)

        monkeypatch.setattr(surrogate, "save_model", fails_second_save)
    else:  # eval, after the CSV header
        monkeypatch.setattr(experiment, "EVAL_ROW", "{:d}")


# another draw of trials and another training seed: a rerun that published any file would change its bytes
_RERUN_CONFIG = SMALL_CONFIG + "base_seed = 12\nsurrogate.seed = 5\n"


@pytest.mark.parametrize("case", ["run", "gen-data", "train", "train:second-model", "train:second-save", "eval"])
def test_a_failed_write_leaves_earlier_outputs_untouched(tmp_path, monkeypatch, capsys, case):
    cfg_path, out = _write_config(tmp_path), tmp_path / "out"
    assert _every_command(cfg_path, out) == [0] * 5
    before = _contents(out)
    _fail_midway(monkeypatch, case)
    command = case.partition(":")[0]
    args = ["--model", str(out / "model_joint_zf.npz")] if command == "eval" else []
    assert main([command, *args, "--config", _write_config(tmp_path, _RERUN_CONFIG)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _contents(out) == before  # each earlier file keeps its bytes, and no temporary file remains


def _draw_fails_at_seed_3(monkeypatch):
    def fails(system, seed, *first):
        if seed == 3:
            raise ConfigError(f"no drop at seed {seed}")
        return make_trial(system, seed, *first)

    monkeypatch.setattr(experiment, "make_trial", fails)


def test_a_draw_failure_is_reported_after_the_earlier_trials_of_its_chunk(tmp_path, monkeypatch):
    # seeds 1 and 2 are drawn and solved before seed 3 fails to draw; they are
    # scored first, so the error names seed 1, the first failing trial
    cfg = parse_config(_write_config(tmp_path, SMALL_CONFIG + "base_seed = 1\nsystem.p_max_w = 1e-30\n"))
    cfg.n_trials = 5
    _draw_fails_at_seed_3(monkeypatch)
    with pytest.raises(ConfigError, match=r"system\.p_max_w = 1e-30 rounds every rate to 0 \(seed 1\)"):
        run_campaign(cfg)
    assert os.listdir(tmp_path / "out") == []


def test_a_draw_failure_is_reported_after_gen_data_labels_the_earlier_trials(tmp_path, monkeypatch):
    # seeds 1 and 2 are labeled before seed 3's draw failure is raised, and
    # their RZF precoder leaves the float range first
    cfg = parse_config(_write_config(tmp_path, SMALL_CONFIG + "base_seed = 1\nsystem.p_max_w = 1e-300\n"))
    _draw_fails_at_seed_3(monkeypatch)
    with pytest.raises(ConfigError, match="leaves the float range: precoding column norm vanished"):
        gen_dataset(cfg)


def _third_trial_fails_in_its_batch(monkeypatch, how):
    """Every drop of seed 3, its first and each redraw, puts user 1 on user 0's
    spot (so no redraw passes the conditioning test) or every user on the
    horizon (so the cloud attenuation overflows); spies record the size of each
    batch build and the seeds of each scored or labeled chunk's rows."""
    draw, build, score, label = (experiment.drop_users, experiment.build_channel, experiment._score_chunk,
                                 allocators.joint_opt_block)
    seen = {"built": [], "scored": [], "labeled": []}

    def drop_users(system, seed):
        drop = draw(system, seed)
        if seed % experiment._REDRAW_STRIDE != 3:
            return drop
        if how == "cloud":
            return dataclasses.replace(drop, elevations_deg=np.zeros_like(drop.elevations_deg))
        positions = drop.positions.copy()
        positions[1] = positions[0]
        d, elev = geometry_from_positions(positions, system)
        return dataclasses.replace(drop, positions=positions, distances_km=d, elevations_deg=elev)

    def build_channel(drops, system):
        seen["built"].append(1 if isinstance(drops, UserDrop) else len(drops))
        return build(drops, system)

    def score_chunk(blocks, *args):
        seen["scored"].append([seed for _, seed, _ in blocks])
        return score(blocks, *args)

    def joint_opt_block(link, W, qoss, *args):
        if len(qoss) == 1:  # gen-data's one demand point, not a campaign's two
            seen["labeled"].append(len(link.Q))
        return label(link, W, qoss, *args)

    monkeypatch.setattr(experiment, "drop_users", drop_users)
    monkeypatch.setattr(experiment, "build_channel", build_channel)
    monkeypatch.setattr(experiment, "_score_chunk", score_chunk)
    monkeypatch.setattr(allocators, "joint_opt_block", joint_opt_block)
    return seen


@pytest.mark.parametrize("how, message", [
    ("redraws", r"no drop meets system\.cond_cap = 1e\+08 in 64 redraws \(seed 3\)"),
    ("cloud", r"elevation angle too small; cloud path diverges at system\.beam_radius_km = 150 \(seed 3\)"),
])
def test_a_trial_failing_inside_a_batch_is_named_after_the_earlier_trials(tmp_path, monkeypatch, how, message):
    # seeds 1 to 5 are one batch; seed 3 fails in its own make_trial, so seeds 1
    # and 2 are scored, or labeled by both precoders, before its error is raised
    cfg = parse_config(_write_config(tmp_path, SMALL_CONFIG + "base_seed = 1\nsystem.atmospherics = true\n"))
    cfg.n_trials, cfg.surrogate.n_train, cfg.surrogate.n_test = 5, 5, 0
    seen = _third_trial_fails_in_its_batch(monkeypatch, how)
    with pytest.raises(ConfigError, match=message):
        run_campaign(cfg)
    with pytest.raises(ConfigError, match=message):
        gen_dataset(cfg)
    # each command builds the five first drops in one pass; a redraw is a one-drop build
    assert seen["built"] == ([5] + [1] * 63) * 2 if how == "redraws" else [5, 5]
    assert seen["scored"] == [[1, 1, 2, 2]] and seen["labeled"] == [2, 2]
    assert os.listdir(tmp_path / "out") == []


def test_a_float_error_in_a_batch_build_is_raised_at_its_own_trial(tmp_path, monkeypatch):
    # seed 3's channel overflows: the batch of seeds 1 to 5 falls back to one
    # build per trial, so seed 1's zero rates are scored and named first, as
    # when every trial built its own channel
    cfg = parse_config(_write_config(tmp_path, SMALL_CONFIG + "base_seed = 1\nsystem.p_max_w = 1e-30\n"))
    cfg.n_trials = 5
    build, third = experiment.build_channel, drop_users(cfg.system, 3).positions

    def overflows_at_seed_3(drops, system):
        if any(np.array_equal(d.positions, third) for d in ([drops] if isinstance(drops, UserDrop) else drops)):
            raise FloatingPointError("overflow encountered in multiply")
        return build(drops, system)

    monkeypatch.setattr(experiment, "build_channel", overflows_at_seed_3)
    with pytest.raises(ConfigError, match=r"system\.p_max_w = 1e-30 rounds every rate to 0 \(seed 1\)"):
        run_campaign(cfg)


def test_a_failed_chunk_precoder_pass_is_raised_at_its_own_trial(tmp_path, monkeypatch):
    # the RZF solve of seed 3's channel fails: the chunk's one RZF pass falls
    # back to one build per trial at each trial's turn, so seed 1's zero rates
    # are scored and named first, as when every trial built its own precoder
    cfg = parse_config(_write_config(tmp_path, SMALL_CONFIG + "base_seed = 1\nsystem.p_max_w = 1e-30\n"))
    cfg.n_trials = 5
    rzf, third, rows = experiment.make_rzf, make_trial(cfg.system, 3).channel, []

    def fails_at_seed_3(H, *args):
        rows.append(len(H) if H.ndim > 2 else 1)
        if any(np.array_equal(h, third) for h in (H if H.ndim > 2 else [H])):
            raise np.linalg.LinAlgError("Singular matrix")
        return rzf(H, *args)

    monkeypatch.setattr(experiment, "make_rzf", fails_at_seed_3)
    with pytest.raises(ConfigError, match=r"system\.p_max_w = 1e-30 rounds every rate to 0 \(seed 1\)"):
        run_campaign(cfg)
    assert rows == [5, 1, 1, 1]  # the chunk's pass, then seeds 1, 2 and 3 one at a time


@pytest.mark.parametrize("zeroed", ["row", "sumopt"])
def test_a_zero_rate_trial_inside_a_chunk_names_its_seed(tmp_path, monkeypatch, zeroed):
    # trial 2 of a one-chunk campaign gets a row of zero rates, or a zero
    # sum-opt reference: the error names that trial's seed, not the chunk's
    # first, and no per_trial.csv (nor its temporary file) is left behind
    cfg = parse_config(_write_config(tmp_path))
    cfg.n_trials = 5
    assert cfg.n_trials <= experiment._CHUNK_TRIALS
    campaign_blocks = experiment._campaign_blocks

    def one_zero_trial(cfg, points):
        for (t, seed, pk), rates, ms, sumopt_rates in campaign_blocks(cfg, points):
            if t == 2 and pk == "rzf":
                if zeroed == "row":
                    rates = [np.zeros_like(rates[0]), *rates[1:]]
                else:
                    sumopt_rates = np.zeros_like(sumopt_rates)
            yield (t, seed, pk), rates, ms, sumopt_rates

    monkeypatch.setattr(experiment, "_campaign_blocks", one_zero_trial)
    message = rf"system\.p_max_w = {cfg.system.p_max_w:g} rounds every rate to 0 \(seed 13\)"
    with pytest.raises(ConfigError, match=message):
        run_campaign(cfg)
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("strategies", ["equal, sumopt, satisset, joint", "satisset"])
def test_outputs_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, strategies):
    # 40 trials: two chunks at the default size, six (the last one partial) at
    # 7 and forty at 1; two sweep points plus a qos.per_user point
    text = SMALL_CONFIG + f"strategies = {strategies}\nqos.per_user = 200, 250, 300, 600, 900, 1000, 1200\n"
    cfg = parse_config(_write_config(tmp_path, text))
    cfg.n_trials = 40
    assert experiment._CHUNK_TRIALS < cfg.n_trials

    def outputs(chunk_trials):
        monkeypatch.setattr(experiment, "_CHUNK_TRIALS", chunk_trials)
        cfg.out_dir = str(tmp_path / f"chunk{chunk_trials}")
        out = run_campaign(cfg)
        return Path(out["per_trial"]).read_bytes(), Path(out["aggregate"]).read_bytes()

    default = outputs(experiment._CHUNK_TRIALS)
    assert default[0].count(b"\n") == 1 + cfg.n_trials * 2 * 3 * len(cfg.strategies)
    assert outputs(1) == default
    assert outputs(7) == default


def test_cell_means_add_the_trials_left_to_right(tmp_path, monkeypatch):
    # one cell whose per-trial sum rates are 1.0 and three times 2**-53: added
    # in trial order each half ulp rounds away and the mean is 1/4; a
    # compensated sum (math.fsum, or Python 3.12's sum) keeps them, and so
    # does a chunk's own sum added to the running one (2**-53 + 2**-53 is a
    # whole ulp).  The trials are scored in one chunk, four chunks of one and
    # two chunks of two.
    text = SMALL_CONFIG + "strategies = joint\nprecoders = zf\nqos.sweep = 300\nn_trials = 4\n"
    cfg = parse_config(_write_config(tmp_path, text))
    per_trial = [1.0, 2.0**-53, 2.0**-53, 2.0**-53]
    assert math.fsum(per_trial) / 4 != 0.25 != (1.0 + (2.0**-53 + 2.0**-53)) / 4
    score_chunk = experiment._score_chunk
    scored = []

    def fixed_sum_rate(*args):
        scores, n_sat = score_chunk(*args)
        # one row per trial, trials in order
        scores[:, 2] = per_trial[len(scored):len(scored) + len(scores)]
        scored.extend(scores.tolist())
        return scores, n_sat

    summaries = []
    aggregate = metrics.aggregate

    def spy(*args):
        summaries.append(aggregate(*args))
        return summaries[-1]

    monkeypatch.setattr(experiment, "_score_chunk", fixed_sum_rate)
    monkeypatch.setattr(metrics, "aggregate", spy)
    for chunk_trials in (experiment._CHUNK_TRIALS, 1, 2):
        monkeypatch.setattr(experiment, "_CHUNK_TRIALS", chunk_trials)
        scored.clear()
        summaries.clear()
        run_campaign(cfg)
        assert len(scored) == 4
        assert [(s.n_trials, s.mean_sum_rate) for s in summaries] == [(4, 0.25)]
