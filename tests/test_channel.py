import dataclasses

import numpy as np
import pytest
from scipy.special import j0, j1, jv

from beamalloc import InvalidConfigError, SystemConfig, allocators
from beamalloc.channel import (
    _STREAM_ATMOS,
    RAIN_MEAN_DB,
    RAIN_VAR_DB,
    AttenuationOverflowError,
    UserDrop,
    _water_permittivity,
    apply_atmosphere,
    beam_gain,
    bessel_j0_j1,
    build_channel,
    cloud_attenuation_db,
    drop_users,
    geometry_from_positions,
    hex_beam_centers,
)
from beamalloc.experiment import make_trial
from beamalloc.precoding import effective_gains, make_rzf, make_zf


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


def _hex_loop_reference(n_beams, spacing_km):
    centers = [(0.0, 0.0)]
    ring = 1
    while len(centers) < n_beams:
        angles = np.deg2rad(np.arange(0, 360, 60))
        corners = [ring * spacing_km * np.array([np.cos(a), np.sin(a)]) for a in angles]
        for i in range(6):
            start, stop = corners[i], corners[(i + 1) % 6]
            for step in range(ring):
                pt = start + (stop - start) * (step / ring)
                centers.append((float(pt[0]), float(pt[1])))
        ring += 1
    return np.asarray(centers[:n_beams], dtype=float)


@pytest.mark.parametrize("spacing", [1.0, 150.0 * np.sqrt(3.0), 0.37])
def test_hex_grid_matches_loop_reference_and_is_shared_read_only(spacing):
    for n in range(1, 92):
        assert np.array_equal(hex_beam_centers(n, spacing), _hex_loop_reference(n, spacing))
    grid = hex_beam_centers(37, spacing)
    assert hex_beam_centers(37, spacing) is grid
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0


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
    theta_3db = np.arctan2(cfg.beam_3db_radius_km, cfg.sat_height_km)
    assert beam_gain(theta_3db, cfg) == pytest.approx(0.5 * cfg.peak_beam_gain, rel=0.01)


def test_beam_gain_far_sidelobe_is_tiny(cfg):
    theta_3db = np.arctan2(cfg.beam_3db_radius_km, cfg.sat_height_km)
    theta_u10 = np.arcsin(np.clip(10.0 / 2.07123 * np.sin(theta_3db), -1, 1))
    assert beam_gain(theta_u10, cfg) < 1e-2 * cfg.peak_beam_gain


def test_beam_gain_non_increasing_inside_first_null(cfg):
    theta_3db = np.arctan2(cfg.beam_3db_radius_km, cfg.sat_height_km)
    u = np.linspace(0.0, 3.0, 400)
    theta = np.arcsin(u / 2.07123 * np.sin(theta_3db))
    g = beam_gain(theta, cfg)
    assert np.all(np.diff(g) <= 1e-12)
    assert np.all(g <= cfg.peak_beam_gain * (1 + 1e-12))


def test_beam_gain_matches_scipy_pattern(cfg):
    u = np.concatenate([
        np.geomspace(1e-9, 1e-2, 300),
        np.linspace(1e-2, 60.0, 3001),
        4.0 + np.linspace(-1e-3, 1e-3, 201),  # series/recurrence switch
        np.nextafter(4.0, [0.0, 8.0]),
    ])
    theta_3db = np.arctan2(cfg.beam_3db_radius_km, cfg.sat_height_km)
    theta = np.arcsin(u / 2.07123 * np.sin(theta_3db))
    u = 2.07123 * np.sin(theta) / np.sin(theta_3db)  # the u beam_gain sees
    oracle = cfg.peak_beam_gain * (j1(u) / (2.0 * u) + 36.0 * jv(3, u) / u**3) ** 2
    assert np.max(np.abs(beam_gain(theta, cfg) - oracle)) <= 1e-13 * cfg.peak_beam_gain
    assert beam_gain(0.0, cfg) == cfg.peak_beam_gain
    assert beam_gain(np.zeros(3), cfg).tolist() == [cfg.peak_beam_gain] * 3
    assert beam_gain(np.zeros((2, 0)), cfg).shape == (2, 0)


def test_bessel_j0_j1_matches_scipy():
    def max_err(u):
        j0_u, j1_u = bessel_j0_j1(u)
        return max(np.max(np.abs(j0_u - j0(u))), np.max(np.abs(j1_u - j1(u))))

    assert max_err(np.linspace(0.0, 100.0, 400001)) <= 1e-15
    assert max_err(np.linspace(100.0, 1e4, 400001)) <= 1e-14
    switch = 8.0  # power series below, Hankel form from here up
    assert max_err(switch + np.arange(-8, 9) * np.spacing(switch)) <= 1e-15
    tiny = np.geomspace(1e-300, 1e-2, 2001)  # beam_gain divides J1 by u
    assert np.max(np.abs(bessel_j0_j1(tiny)[1] / tiny / (j1(tiny) / tiny) - 1.0)) <= 1e-15
    u = np.linspace(0.0, 150.0, 3001)
    (j0_u, j1_u), (j0_neg, j1_neg) = bessel_j0_j1(u), bessel_j0_j1(-u)
    assert np.array_equal(j0_neg, j0_u) and np.array_equal(j1_neg, -j1_u)
    for shaped in (u[7], u[:12].reshape(3, 4), u[:0]):  # results keep the input's shape
        for got, want in zip(bessel_j0_j1(shaped), (j0(shaped), j1(shaped))):
            assert np.shape(got) == np.shape(shaped) and np.allclose(got, want, rtol=0, atol=1e-15)


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
    chan = build_channel(_single_user_drop(cfg, cfg.sat_height_km), cfg)
    expected = (
        cfg.wavelength_m
        * np.sqrt(cfg.rx_gain * cfg.peak_beam_gain)
        / (4.0 * np.pi * cfg.sat_height_km * 1e3 * np.sqrt(cfg.noise_norm))
    )
    assert chan[0, 0] == pytest.approx(expected, rel=1e-12)


def test_channel_inverse_distance_law():
    cfg = SystemConfig(n_beams=1, n_users=1)
    near = build_channel(_single_user_drop(cfg, 20000.0), cfg)
    far = build_channel(_single_user_drop(cfg, 40000.0), cfg)
    assert far[0, 0] == pytest.approx(0.5 * near[0, 0], rel=1e-12)


def test_channel_scales_with_sqrt_gain():
    cfg = SystemConfig(n_beams=1, n_users=1)
    weak = dataclasses.replace(cfg, peak_beam_gain=cfg.peak_beam_gain * 1e-6)
    strong = build_channel(_single_user_drop(cfg, cfg.sat_height_km), cfg)
    faded = build_channel(_single_user_drop(weak, weak.sat_height_km), weak)
    assert faded[0, 0] == pytest.approx(1e-3 * strong[0, 0], rel=1e-12)


@pytest.mark.parametrize("n, seed", [(7, 1), (7, 8), (7, 23), (19, 4), (19, 31)])
def test_column_phases_change_no_gain_or_power(n, seed):
    # W(H Phi) = W(H) Phi for ZF and RZF, so a real channel loses nothing
    system = SystemConfig(n_beams=n, n_users=n)
    H = make_trial(system, seed).channel
    assert np.isrealobj(H) and np.all(H >= 0)
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n))
    H_phi = H * phases[None, :]
    allocs = (allocators.equal_power, allocators.sum_opt, allocators.joint_opt,
              allocators.satis_set_opt)
    for make in (lambda h: make_zf(h, cond_cap=system.cond_cap),
                 lambda h: make_rzf(h, system.noise_power_w, system.p_max_w)):
        W, W_phi = make(H), make(H_phi)
        q, q_phi = effective_gains(H, W).Q, effective_gains(H_phi, W_phi).Q
        np.testing.assert_allclose(q_phi, q, rtol=1e-12, atol=1e-12 * q.max())
        for xi in (300.0, 700.0, 1100.0):  # crosses feasible and congested branches
            qos = allocators.QoSProfile.uniform(xi, n)
            for alloc in allocs:
                p = alloc(H, W, qos, system).powers
                p_phi = alloc(H_phi, W_phi, qos, system).powers
                np.testing.assert_allclose(p_phi, p, rtol=1e-12, atol=1e-12 * system.p_max_w)


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
    cfg = SystemConfig(atmospherics=True)
    drop = drop_users(cfg, 21)
    chan = build_channel(drop, cfg)
    out = apply_atmosphere(chan, drop, cfg, 21)
    # the rain draw and cloud term, recomputed from their definitions
    rain_db = np.random.default_rng([_STREAM_ATMOS, 21]).normal(
        RAIN_MEAN_DB, np.sqrt(RAIN_VAR_DB), size=cfg.n_users
    )
    cloud_db = cloud_attenuation_db(drop.elevations_deg, cfg.carrier_ghz)
    scale = np.sqrt(10.0 ** (rain_db / 10.0)) / np.sqrt(10.0 ** (cloud_db / 10.0))
    assert np.allclose(out, chan * scale[None, :])
    assert np.allclose(np.abs(out), out, rtol=1e-14, atol=0.0)
    assert np.all(cloud_db >= 0)
    # identity attenuation leaves a column untouched
    unity = chan[:, 0] * np.sqrt(1.0) / np.sqrt(10.0 ** (0.0 / 10.0))
    assert np.allclose(unity, chan[:, 0])
    rerun = apply_atmosphere(chan, drop, cfg, 21)
    assert np.array_equal(out, rerun)


def test_apply_atmosphere_requires_flag(cfg):
    drop = drop_users(cfg, 3)
    chan = build_channel(drop, cfg)
    with pytest.raises(InvalidConfigError):
        apply_atmosphere(chan, drop, cfg, 3)
