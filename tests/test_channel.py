import dataclasses

import numpy as np
import pytest

from beamalloc import InvalidConfigError, SystemConfig
from beamalloc.channel import (
    AttenuationOverflowError,
    UserDrop,
    _water_permittivity,
    apply_atmosphere,
    beam_gain,
    build_channel,
    cloud_attenuation_db,
    drop_users,
    geometry_from_positions,
    hex_beam_centers,
)


def test_hex_grid_seven_beams(cfg):
    centers = hex_beam_centers(7, cfg.beam_radius_km * np.sqrt(3.0))
    assert centers.shape == (7, 2)
    assert np.allclose(centers[0], [0.0, 0.0])
    dists = np.linalg.norm(centers[1:], axis=1)
    assert np.allclose(dists, cfg.beam_radius_km * np.sqrt(3.0))


def test_hex_grid_second_ring():
    centers = hex_beam_centers(19, 1.0)
    dists = np.sort(np.linalg.norm(centers, axis=1))
    assert np.allclose(dists[:1], 0.0)
    assert np.allclose(dists[1:7], 1.0)
    # ring 2 mixes corners (2.0) and edge midpoints (sqrt(3))
    assert np.allclose(np.sort(np.unique(np.round(dists[7:], 9))), [np.sqrt(3.0), 2.0])


def test_zero_offset_geometry(cfg):
    d, e = geometry_from_positions(np.array([[0.0, 0.0]]), cfg)
    assert d[0] == pytest.approx(cfg.sat_height_km)
    assert e[0] == pytest.approx(90.0)


def test_offset_geometry_matches_hand_formula(cfg):
    d, e = geometry_from_positions(np.array([[300.0, 0.0]]), cfg)
    assert d[0] == pytest.approx(np.sqrt(cfg.sat_height_km**2 + 300.0**2), rel=1e-12)
    assert e[0] == pytest.approx(np.degrees(np.arctan2(cfg.sat_height_km, 300.0)))


def test_drop_is_deterministic_and_valid(cfg):
    d1 = drop_users(cfg, 123)
    d2 = drop_users(cfg, 123)
    assert np.array_equal(d1.positions, d2.positions)
    assert np.array_equal(d1.beam_of_user, d2.beam_of_user)
    assert len(set(d1.beam_of_user.tolist())) == cfg.n_users
    # each user lies inside its own beam disc
    offs = np.linalg.norm(d1.positions - d1.beam_centers[d1.beam_of_user], axis=1)
    assert np.all(offs <= cfg.beam_radius_km + 1e-9)
    assert np.all(d1.distances_km >= cfg.sat_height_km)
    assert np.all((d1.elevations_deg > 0) & (d1.elevations_deg <= 90.0))


def test_drop_rejects_too_many_users():
    with pytest.raises(InvalidConfigError):
        SystemConfig(n_beams=3, n_users=4)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p_max_w", np.nan),
        ("p_max_w", np.inf),
        ("bandwidth_mhz", np.inf),
        ("noise_temp_k", np.nan),
        ("cond_cap", np.nan),
        ("cond_cap", np.inf),
        ("beam_3db_radius_km", np.nan),
        ("beam_3db_radius_km", np.inf),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidConfigError, match=field):
        SystemConfig(**{field: value})


def test_beam_gain_boresight_and_half_power(cfg):
    assert beam_gain(0.0, cfg) == pytest.approx(cfg.peak_beam_gain)
    theta_3db = np.arctan2(cfg.pattern_3db_radius_km, cfg.sat_height_km)
    assert beam_gain(theta_3db, cfg) == pytest.approx(0.5 * cfg.peak_beam_gain, rel=0.01)


def test_beam_gain_far_sidelobe_is_tiny(cfg):
    theta_3db = np.arctan2(cfg.pattern_3db_radius_km, cfg.sat_height_km)
    theta_u10 = np.arcsin(np.clip(10.0 / 2.07123 * np.sin(theta_3db), -1, 1))
    assert beam_gain(theta_u10, cfg) < 1e-2 * cfg.peak_beam_gain


def test_beam_gain_non_increasing_inside_first_null(cfg):
    theta_3db = np.arctan2(cfg.pattern_3db_radius_km, cfg.sat_height_km)
    u = np.linspace(0.0, 3.0, 400)
    theta = np.arcsin(u / 2.07123 * np.sin(theta_3db))
    g = beam_gain(theta, cfg)
    assert np.all(np.diff(g) <= 1e-12)
    assert np.all(g <= cfg.peak_beam_gain * (1 + 1e-12))


def _single_user_drop(cfg, distance_km):
    centers = hex_beam_centers(cfg.n_beams, cfg.beam_radius_km * np.sqrt(3.0))
    return UserDrop(
        positions=np.array([[0.0, 0.0]]),
        distances_km=np.array([distance_km]),
        elevations_deg=np.array([90.0]),
        beam_centers=centers,
        beam_of_user=np.array([0]),
    )


def test_channel_entry_matches_link_formula():
    cfg = SystemConfig(n_beams=1, n_users=1)
    chan = build_channel(_single_user_drop(cfg, cfg.sat_height_km), cfg, 7)
    expected = (
        cfg.wavelength_m
        * np.sqrt(cfg.rx_gain * cfg.peak_beam_gain)
        / (4.0 * np.pi * cfg.sat_height_km * 1e3 * np.sqrt(cfg.noise_norm))
    )
    assert chan.gain[0, 0] == pytest.approx(expected, rel=1e-12)


def test_channel_inverse_distance_law():
    cfg = SystemConfig(n_beams=1, n_users=1)
    near = build_channel(_single_user_drop(cfg, 20000.0), cfg, 7)
    far = build_channel(_single_user_drop(cfg, 40000.0), cfg, 7)
    assert far.gain[0, 0] == pytest.approx(0.5 * near.gain[0, 0], rel=1e-12)


def test_channel_scales_with_sqrt_gain():
    cfg = SystemConfig(n_beams=1, n_users=1)
    weak = dataclasses.replace(cfg, peak_beam_gain=cfg.peak_beam_gain * 1e-6)
    strong = build_channel(_single_user_drop(cfg, cfg.sat_height_km), cfg, 7)
    faded = build_channel(_single_user_drop(weak, weak.sat_height_km), weak, 7)
    assert faded.gain[0, 0] == pytest.approx(1e-3 * strong.gain[0, 0], rel=1e-12)


def test_channel_phase_structure(cfg):
    drop = drop_users(cfg, 11)
    chan = build_channel(drop, cfg, 11)
    assert np.allclose(np.abs(chan.H), chan.gain, rtol=1e-14, atol=0.0)
    assert np.allclose(chan.H, chan.gain * np.exp(1j * chan.phases)[None, :])
    assert np.all(chan.gain > 0)
    again = build_channel(drop, cfg, 11)
    assert np.array_equal(chan.H, again.H)


def test_permittivity_frozen_values():
    # independent evaluation of the two rational expressions at 20 GHz, 273.15 K
    eps_p, eps_pp = _water_permittivity(20.0, 273.15)
    assert eps_p == pytest.approx(19.2705303192, rel=1e-9)
    assert eps_pp == pytest.approx(30.8373861524, rel=1e-9)


def test_cloud_attenuation_elevation_law():
    c = cloud_attenuation_db(np.array([90.0, 30.0]), 20.0)
    assert c[1] == pytest.approx(2.0 * c[0], rel=1e-12)  # sin 30 deg = 1/2
    with pytest.raises(AttenuationOverflowError):
        cloud_attenuation_db(np.array([1e-9]), 20.0)


def test_apply_atmosphere_column_scaling():
    cfg = SystemConfig(atmospherics_enabled=True)
    drop = drop_users(cfg, 21)
    chan = build_channel(drop, cfg, 21)
    out, state = apply_atmosphere(chan, drop, cfg, 21)
    scale = np.sqrt(state.rain_fades) / np.sqrt(10.0 ** (state.cloud_attens_db / 10.0))
    assert np.allclose(out.H, chan.H * scale[None, :])
    assert np.allclose(np.abs(out.H), out.gain, rtol=1e-14, atol=0.0)
    assert np.all(state.rain_fades > 0)
    assert np.all(state.cloud_attens_db >= 0)
    # identity attenuation leaves a column untouched
    unity = chan.H[:, 0] * np.sqrt(1.0) / np.sqrt(10.0 ** (0.0 / 10.0))
    assert np.allclose(unity, chan.H[:, 0])
    rerun, _ = apply_atmosphere(chan, drop, cfg, 21)
    assert np.array_equal(out.H, rerun.H)


def test_apply_atmosphere_requires_flag(cfg):
    drop = drop_users(cfg, 3)
    chan = build_channel(drop, cfg, 3)
    with pytest.raises(InvalidConfigError):
        apply_atmosphere(chan, drop, cfg, 3)
