"""A stack of drops built in one `build_channel` pass: each drop's channel has
the bits of its own one-drop build, and the trial loops that draw their first
channels that way make the same trials as one `make_trial` per seed."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beamalloc import experiment
from beamalloc.channel import UserDrop, beam_gain, build_channel, drop_users, geometry_from_positions
from beamalloc.config import SystemConfig
from beamalloc.experiment import make_trial


def _bits(trial):
    return trial.seed, trial.redraws, trial.channel.tobytes()


@pytest.mark.parametrize("batch", [1, 5, 32])
@pytest.mark.parametrize("atmospherics", [False, True])
@pytest.mark.parametrize("n", [4, 7, 19, 37])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_each_drop_of_a_batch_gets_the_bits_of_its_own_build(n, atmospherics, batch, seed):
    system = SystemConfig(n_beams=n, n_users=n, atmospherics=atmospherics)
    seeds = range(seed, seed + batch)
    drops = [drop_users(system, s) for s in seeds]
    channels = build_channel(drops, system)
    assert channels.shape == (batch, n, n)
    for s, drop, H in zip(seeds, drops, channels):
        assert H.tobytes() == build_channel(drop, system).tobytes()
        # the trial made from the batch's channel, with its atmosphere and any redraws, is the one-seed trial
        assert _bits(make_trial(system, s, (drop, H, None))) == _bits(make_trial(system, s))


@pytest.mark.parametrize("n, batches", [(4, [32, 8]), (7, [32, 8]), (19, [5] * 8), (37, [1] * 40)])
def test_the_trial_loop_builds_each_batch_in_one_pass(monkeypatch, n, batches):
    # 40 seeds cross a chunk at N = 4 and 7; the 2,048-entry cap splits them at 19 and 37
    system = SystemConfig(n_beams=n, n_users=n, atmospherics=True)
    seeds = range(1, 41)
    build, draw, built, drawn = experiment.build_channel, experiment.drop_users, [], []

    def spy_build(drops, system):
        if not isinstance(drops, UserDrop):
            built.append(len(drops))
        return build(drops, system)

    def spy_draw(system, seed):
        drawn.append(seed)
        return draw(system, seed)

    monkeypatch.setattr(experiment, "build_channel", spy_build)
    monkeypatch.setattr(experiment, "drop_users", spy_draw)
    trials = list(experiment._make_trials(system, seeds))
    monkeypatch.undo()
    assert built == batches
    assert len(drawn) == len(seeds) + sum(t.redraws for t in trials)  # once per seed, and once per redraw
    assert [_bits(t) for t in trials] == [_bits(make_trial(system, s)) for s in seeds]


def _on_axis_drop(cfg, seed):
    """A drop whose user 1 stands at the origin, on the boresight of beam 0 (u = 0 there)."""
    drop = drop_users(cfg, seed)
    positions = drop.positions.copy()
    positions[1] = 0.0
    d, elev = geometry_from_positions(positions, cfg)
    return dataclasses.replace(drop, positions=positions, distances_km=d, elevations_deg=elev)


def test_a_user_on_a_boresight_gets_the_peak_gain_alone_and_in_a_batch():
    cfg = SystemConfig(n_beams=7, n_users=3)
    drop = _on_axis_drop(cfg, 3)
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # run_campaign's setting
        alone = build_channel(drop, cfg)
        stacked = build_channel([drop_users(cfg, 1), drop, drop_users(cfg, 2)], cfg)
        zeros = beam_gain(np.zeros((2, 3, 4)), cfg)
    peak = cfg.wavelength_m * np.sqrt(cfg.rx_gain * cfg.peak_beam_gain) / (
        4.0 * np.pi * (drop.distances_km[1] * 1e3) * np.sqrt(cfg.noise_norm))
    assert alone[0, 1] == peak
    assert stacked[1].tobytes() == alone.tobytes()
    assert zeros.shape == (2, 3, 4) and (zeros == cfg.peak_beam_gain).all()
