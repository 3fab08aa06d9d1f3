"""A stack of channels precoded in one `make_zf`/`make_rzf` pass and linked in
one `effective_gains` pass: each row has the bits of its own one-trial build,
and the trial loop that builds each batch's ZF precoders that way makes the
same trials as one `make_trial` per seed, redraws included."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamalloc import experiment
from beamalloc.channel import build_channel, geometry_from_positions
from beamalloc.config import SystemConfig
from beamalloc.experiment import make_trial
from beamalloc.precoding import PrecoderSingularError, effective_gains, make_rzf, make_zf
from beamalloc.surrogate import gains_vector


def _bits(trial):
    return (trial.seed, trial.redraws, trial.channel.tobytes(), trial.zf.W.tobytes(), trial.zf.raw_norms.tobytes())


def _assert_rows_are_their_own_builds(channels, system):
    builds = (lambda H: make_zf(H, cond_cap=system.cond_cap), lambda H: make_rzf(H, system.noise_power_w, system.p_max_w))
    for make in builds:
        W = make(channels)
        link = effective_gains(channels, W)
        assert link.Q.shape == (len(channels), system.n_users, system.n_users)
        for i, H in enumerate(channels):
            one = effective_gains(H, make(H))
            for got, want in ((W.W[i], one.precoder.W), (W.raw_norms[i], one.precoder.raw_norms),
                              (link.Q[i], one.Q), (link.g[i], one.g)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [1, 5, 32])
@pytest.mark.parametrize("atmospherics", [False, True])
@pytest.mark.parametrize("n", [4, 7, 19, 37])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_each_row_of_a_precoder_stack_gets_the_bits_of_its_own_build(n, atmospherics, batch, seed):
    system = SystemConfig(n_beams=n, n_users=n, atmospherics=atmospherics)
    channels = np.stack([make_trial(system, s).channel for s in range(seed, seed + batch)])
    _assert_rows_are_their_own_builds(channels, system)
    # eval's stack, read back from the dataset's gain vectors: H = x.reshape(K, N).T per row
    x = np.array([gains_vector(H) for H in channels])
    _assert_rows_are_their_own_builds(x.reshape(batch, n, n).swapaxes(1, 2), system)


def _spy_zf(monkeypatch):
    """The row count of each make_zf call through the trial loop: a stack's rows, or 1 for one channel."""
    make, calls = experiment.make_zf, []

    def spy(H, **kw):
        calls.append(len(H) if np.ndim(H) == 3 else 1)
        return make(H, **kw)

    monkeypatch.setattr(experiment, "make_zf", spy)
    return calls


@pytest.mark.parametrize("atmospherics", [False, True])
def test_a_batch_holding_a_redraw_makes_each_seeds_own_trial(monkeypatch, atmospherics):
    # seed 254 is the only seed of 1-2000 whose first N = K = 7 drop fails ZF conditioning
    system = SystemConfig(n_beams=7, n_users=7, atmospherics=atmospherics)
    seeds = range(240, 280)
    calls = _spy_zf(monkeypatch)
    trials = list(experiment._make_trials(system, seeds))
    monkeypatch.undo()
    assert [t.seed for t in trials if t.redraws] == [254]
    assert [_bits(t) for t in trials] == [_bits(make_trial(system, s)) for s in seeds]
    # the batch of seeds 240-271 fails in its one pass, so each of its trials builds its own ZF (254 twice)
    assert calls == [32] + [1] * 33 + [8]


def test_a_batch_holding_a_singular_row_makes_each_seeds_own_trial(monkeypatch):
    # seed 3's first drop puts user 1 on user 0's spot: its Gram matrix is singular, so it redraws
    system = SystemConfig(n_beams=7, n_users=7)
    draw = experiment.drop_users

    def drop_users(system, seed):
        drop = draw(system, seed)
        if seed != 3:
            return drop
        positions = drop.positions.copy()
        positions[1] = positions[0]
        d, elev = geometry_from_positions(positions, system)
        return dataclasses.replace(drop, positions=positions, distances_km=d, elevations_deg=elev)

    with pytest.raises(PrecoderSingularError):
        make_zf(build_channel(drop_users(system, 3), system))
    monkeypatch.setattr(experiment, "drop_users", drop_users)
    seeds = range(1, 6)
    calls = _spy_zf(monkeypatch)
    trials = list(experiment._make_trials(system, seeds))
    assert [t.redraws for t in trials] == [0, 0, 1, 0, 0]
    assert calls == [5] + [1] * 6  # the one pass fails, then each trial builds its own ZF, seed 3 twice
    assert [_bits(t) for t in trials] == [_bits(make_trial(system, s)) for s in seeds]
