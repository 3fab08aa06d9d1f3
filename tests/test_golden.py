"""Golden outputs: campaign CSVs compared byte for byte; allocator powers on
paths no campaign reaches (the generic pinned-set solver), compared to 1e-12
relative; and the files of a small gen-data -> train -> eval run, compared
with the tolerances in SURROGATE_FILES.

The fixtures under tests/golden/ are frozen outputs of the reference code.
A change that is meant to alter results regenerates them with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import csv
import json
import math
import os
import sys

import numpy as np
import pytest

from beamalloc import QoSProfile, SystemConfig
from beamalloc.allocators import joint_opt_generic, satis_set_opt
from beamalloc.experiment import (
    build_precoder, eval_model, gen_dataset, make_trial, parse_config, run_campaign, train_models,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CAMPAIGNS = {
    # every strategy, both precoders, the default sweep plus one per-user point
    "n7": """
system.n_beams = 7
system.n_users = 7
qos.per_user = 150, 250, 400, 550, 700, 900, 1100
strategies = equal, sumopt, satisset, joint
precoders = zf, rzf
n_trials = 10
base_seed = 3
output.dir = {out}
""",
    # rain and cloud at N=K=37: nearly every cell congested
    "n37_atmos": """
system.n_beams = 37
system.n_users = 37
system.atmospherics = true
n_trials = 3
base_seed = 5
output.dir = {out}
""",
    # the default sweep at N=K=19: RZF guard repair runs in many cells
    "n19": """
system.n_beams = 19
system.n_users = 19
strategies = equal, sumopt, satisset, joint
precoders = zf, rzf
n_trials = 10
base_seed = 7
output.dir = {out}
""",
}

POWER_SEEDS = (21, 22, 23)
POWER_DEMANDS = (300.0, 600.0, 900.0, 1200.0)
POWER_ALLOCATORS = {"joint_generic": joint_opt_generic, "satisset": satis_set_opt}
POWER_RTOL = 1e-12

# a small surrogate pipeline: two label strategies, 12 training and 6 test seeds
SURROGATE_CONFIG = """
system.n_beams = 7
system.n_users = 7
precoders = zf, rzf
base_seed = 11
output.dir = {out}
surrogate.n_train = 12
surrogate.n_test = 6
surrogate.hidden = 8, 4
surrogate.epochs = 3
"""
SURROGATE_DIR = os.path.join(GOLDEN, "surrogate")
MODEL_RTOL = 1e-9  # weights, biases, statistics and the eval scores
# file name -> relative tolerance of its floats; every other value is compared
# exactly, and each eval row's time_ms is not compared
SURROGATE_FILES = {
    "dataset.jsonl": POWER_RTOL,  # x and p_star, as powers.json
    "model_joint_rzf.npz": MODEL_RTOL,
    "model_joint_zf.npz": MODEL_RTOL,
    "eval_rzf.csv": MODEL_RTOL,
    "eval_zf.csv": MODEL_RTOL,
}


def _campaign(name, workdir):
    path = os.path.join(workdir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CAMPAIGNS[name].format(out=os.path.join(workdir, name)))
    return run_campaign(parse_config(path))


def _powers():
    """{"<allocator>/<precoder>/<seed>/<xi>": powers} at N=K=7."""
    system = SystemConfig()
    out = {}
    for seed in POWER_SEEDS:
        trial = make_trial(system, seed)
        for pk in ("zf", "rzf"):
            W = build_precoder(trial, system, pk)
            for xi in POWER_DEMANDS:
                qos = QoSProfile.uniform(xi, system.n_users)
                for name, fn in POWER_ALLOCATORS.items():
                    res = fn(trial.channel, W, qos, system)
                    out[f"{name}/{pk}/{seed}/{xi:g}"] = [float(v) for v in res.powers]
    return out


def _surrogate(workdir):
    """Run gen-data, train and eval into `workdir`; returns the output directory."""
    out = os.path.join(workdir, "surrogate")
    path = os.path.join(workdir, "surrogate.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SURROGATE_CONFIG.format(out=out))
    cfg = parse_config(path)
    gen_dataset(cfg)
    for model_path, _ in train_models(cfg).values():
        eval_model(cfg, model_path)
    return out


def _read_surrogate_file(path):
    """A JSON-like value: the dataset's records, the model's arrays as
    {name: nested lists}, or the eval rows as {column: text}, with the scores
    as floats and time_ms left out."""
    if path.endswith(".npz"):
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name].tolist() for name in archive.files}
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            return [json.loads(line) for line in fh]
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["time_ms"]
        for col in ("sum_rate", "satisfaction_pct"):
            row[col] = float(row[col])
    return rows


def _same(got, ref, rtol):
    """Same structure, key order and non-float values; floats within rtol."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and list(got) == list(ref) and all(
            _same(got[k], ref[k], rtol) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            _same(g, r, rtol) for g, r in zip(got, ref)
        )
    if isinstance(ref, float):
        return isinstance(got, float) and math.isclose(got, ref, rel_tol=rtol, abs_tol=0.0)
    return type(got) is type(ref) and got == ref


def _surrogate_matches(out, name):
    golden = os.path.join(SURROGATE_DIR, name)
    return os.path.exists(golden) and _same(
        _read_surrogate_file(os.path.join(out, name)), _read_surrogate_file(golden), SURROGATE_FILES[name]
    )


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_csvs_match_golden(name, tmp_path):
    out = _campaign(name, str(tmp_path))
    for path in (out["per_trial"], out["aggregate"]):
        fname = os.path.basename(path)
        with open(os.path.join(GOLDEN, name, fname), "rb") as fh:
            expected = fh.read()
        with open(path, "rb") as fh:
            assert fh.read() == expected, f"{name}/{fname} differs from the golden copy"


def test_allocator_powers_match_golden():
    with open(os.path.join(GOLDEN, "powers.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    got = _powers()
    assert sorted(got) == sorted(expected)
    for key, ref in expected.items():
        np.testing.assert_allclose(got[key], ref, rtol=POWER_RTOL, atol=0.0, err_msg=key)


def test_surrogate_pipeline_matches_golden(tmp_path):
    out = _surrogate(str(tmp_path))
    assert sorted(os.listdir(out)) == sorted(SURROGATE_FILES)
    for name in SURROGATE_FILES:
        assert _surrogate_matches(out, name), f"surrogate/{name} differs from the golden copy"


def _regenerate():
    """Rewrite only the fixtures that the tests above would reject: a CSV
    whose bytes differ, powers.json when its keys differ or a value falls
    outside POWER_RTOL, and a surrogate file outside its tolerance."""
    import filecmp
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for name in CAMPAIGNS:
            out = _campaign(name, workdir)
            os.makedirs(os.path.join(GOLDEN, name), exist_ok=True)
            for path in (out["per_trial"], out["aggregate"]):
                golden = os.path.join(GOLDEN, name, os.path.basename(path))
                if not (os.path.exists(golden) and filecmp.cmp(path, golden, shallow=False)):
                    shutil.copy(path, golden)
        out = _surrogate(workdir)
        os.makedirs(SURROGATE_DIR, exist_ok=True)
        for name in SURROGATE_FILES:
            if not _surrogate_matches(out, name):
                shutil.copy(os.path.join(out, name), os.path.join(SURROGATE_DIR, name))
    powers_path = os.path.join(GOLDEN, "powers.json")
    got = _powers()
    if os.path.exists(powers_path):
        with open(powers_path, encoding="utf-8") as fh:
            expected = json.load(fh)
        if sorted(got) == sorted(expected) and all(
            np.allclose(got[key], ref, rtol=POWER_RTOL, atol=0.0) for key, ref in expected.items()
        ):
            return
    with open(powers_path, "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
