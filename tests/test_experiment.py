import contextlib
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
from beamalloc.config import SystemConfig
from beamalloc.precoding import effective_gains, make_rzf, make_zf
from beamalloc.surrogate import load_dataset, load_model

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
    scores the block scoring returned for it (MetricsSummary column order)
    and its satisfied count."""
    blocks = []
    score_block = experiment._score_block

    def spy(*args):
        blocks.append(score_block(*args))
        return blocks[-1]

    monkeypatch.setattr(experiment, "_score_block", spy)
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
    records = load_dataset(path)
    assert len(records) == 6 * 2  # both precoders
    k, n = cfg.system.n_users, cfg.system.n_beams
    for r in records:
        assert r.x.shape == (k * n,)
        assert np.all(r.x >= 0)
        assert r.p_star.sum() <= cfg.system.p_max_w * (1 + 1e-9)
        assert r.strategy in ("joint_zf", "joint_rzf")
    assert {r.strategy for r in records} == {"joint_zf", "joint_rzf"}
    # regeneration is identical
    again = load_dataset(gen_dataset(cfg))
    assert all(np.array_equal(a.x, b.x) for a, b in zip(records, again))


@pytest.mark.parametrize("pk", ["zf", "rzf"])
def test_train_and_eval_pipeline(tmp_path, pk):
    text = SMALL_CONFIG.replace("precoders = zf, rzf", f"precoders = {pk}")
    cfg = parse_config(_write_config(tmp_path, text))
    gen_dataset(cfg)
    trained = train_models(cfg)
    assert set(trained) == {f"joint_{pk}"}
    model_path, report = trained[f"joint_{pk}"]
    assert model_path == str(tmp_path / "out" / f"model_joint_{pk}.npz")
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
        records = load_dataset(gen_dataset(cfg))
        assert {r.strategy for r in records} == {"joint_zf", "joint_rzf"}
        for rec in records:
            trial = make_trial(system, rec.seed)
            H = rec.x.reshape(k, n).T
            assert np.array_equal(H, trial.channel)
            pk = rec.strategy.removeprefix("joint_")
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


def test_two_precoder_dataset_splits_each_strategy_by_seed(tmp_path, monkeypatch):
    # both precoders' records interleave in one file: each strategy trains on
    # seeds base_seed .. base_seed + n_train - 1 and is evaluated on the next
    # n_test
    cfg = parse_config(_write_config(tmp_path))
    assert cfg.precoders == ("zf", "rzf")
    gen_dataset(cfg)
    train = surrogate.train
    seen = []

    def recording_train(records, settings):
        seen.append([(r.strategy, r.seed) for r in records])
        return train(records, settings)

    monkeypatch.setattr(surrogate, "train", recording_train)
    trained = train_models(cfg)
    monkeypatch.undo()
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.surrogate.n_train)
    assert seen == [[(s, seed) for seed in seeds] for s in ("joint_rzf", "joint_zf")]
    for pk in ("zf", "rzf"):
        model_path = trained[f"joint_{pk}"][0]
        lines = Path(eval_model(cfg, model_path)).read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] + row[3:] for row in rows] == _replayed_eval_rows(cfg, pk, model_path)


def test_cli_eval_refuses_another_system_and_old_models(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, SMALL_CONFIG.replace("precoders = zf, rzf", "precoders = rzf"))
    out = tmp_path / "out"
    model_path = str(out / "model_joint_rzf.npz")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train", "--config", cfg_path]) == 0
    fp = fingerprint(parse_config(cfg_path))
    assert {r.fingerprint for r in load_dataset(out / "dataset.jsonl")} == {fp}
    assert load_model(model_path).fingerprint == fp  # train copies it from the records
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
    # satisset is taken from joint's result wherever joint is listed
    assert default_calls == 0
    expected = {key(line): (line, scores, n) for line, scores, n in default}
    for strategies, expected_calls in (
        (("joint", "satisset", "equal"), 0),
        (("satisset",), n_cells),
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

    def fails_at_the_third_seed(system, seed):
        if seed == cfg.base_seed + 2:
            raise ConfigError(f"no drop at seed {seed}")
        return make_trial(system, seed)

    monkeypatch.setattr(experiment, "make_trial", fails_at_the_third_seed)
    with pytest.raises(ConfigError, match="no drop at seed 13"):
        run_campaign(cfg)
    # no temporary file remains, and both CSVs keep the first run's bytes
    assert {name: (tmp_path / "out" / name).read_bytes() for name in os.listdir(tmp_path / "out")} == before
    assert out["per_trial"] == str(tmp_path / "out" / "per_trial.csv")


def test_cell_means_add_the_trials_left_to_right(tmp_path, monkeypatch):
    # one cell whose per-trial sum rates are 1.0, 2**-53 and 2**-53: added in
    # trial order the two halves of an ulp round away and the mean is 1/3; a
    # compensated sum (math.fsum, or Python 3.12's sum) keeps them
    text = SMALL_CONFIG + "strategies = joint\nprecoders = zf\nqos.sweep = 300\n"
    cfg = parse_config(_write_config(tmp_path, text))
    per_trial = [1.0, 2.0**-53, 2.0**-53]
    assert math.fsum(per_trial) / 3 == 0.3333333333333334
    score_block = experiment._score_block

    def fixed_sum_rate(rows, sumopt_rates, seed, system):
        scores, n_sat = score_block(rows, sumopt_rates, seed, system)
        scores[:, 2] = per_trial[seed - cfg.base_seed]
        return scores, n_sat

    summaries = []
    aggregate = metrics.aggregate

    def spy(*args):
        summaries.append(aggregate(*args))
        return summaries[-1]

    monkeypatch.setattr(experiment, "_score_block", fixed_sum_rate)
    monkeypatch.setattr(metrics, "aggregate", spy)
    run_campaign(cfg)
    assert [(s.n_trials, s.mean_sum_rate) for s in summaries] == [(3, 1 / 3)]
