"""Golden outputs: campaign CSVs compared byte for byte, and allocator powers
on paths no campaign reaches (the generic pinned-set solver), compared to
1e-12 relative.

The fixtures under tests/golden/ are frozen outputs of the reference code.
A change that is meant to alter results regenerates them with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import json
import os
import sys

import numpy as np
import pytest

from beamalloc import QoSProfile, SystemConfig
from beamalloc.allocators import joint_opt_generic, satis_set_opt
from beamalloc.experiment import build_precoder, make_trial, parse_config, run_campaign

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


def _regenerate():
    """Rewrite only the fixtures that the tests above would reject: a CSV
    whose bytes differ, and powers.json when its keys differ or a value
    falls outside POWER_RTOL."""
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
