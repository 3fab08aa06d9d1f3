"""User drops and LOS forward-link channel synthesis.

The channel matrix is H = Hbar * Phi: a nonnegative gain part built from the
beam pattern, path terms and receive gain, normalized by the thermal-noise
amplitude, times a diagonal matrix of per-user random phases.  Optional rain
and cloud attenuation rescales whole columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j1, jv

from .config import InvalidConfigError, SystemConfig

# Independent RNG substreams per operation so each stays deterministic per
# seed without coupling to the others.
_STREAM_DROP = 101
_STREAM_PHASE = 202
_STREAM_ATMOS = 303

# Half-power argument of the tapered-aperture pattern.
_U_3DB = 2.07123

# Atmosphere: lognormal rain fade with this dB mean and dB^2 variance, and a
# cloud of this integrated reduced liquid water content at this temperature.
RAIN_MEAN_DB = -2.6
RAIN_VAR_DB = 1.63
CLOUD_W_RED = 0.6  # kg/m^2
CLOUD_TEMP_K = 273.15


class AttenuationOverflowError(ValueError):
    """Cloud attenuation diverges as the elevation angle approaches zero."""


@dataclass(frozen=True)
class UserDrop:
    """One realization of user positions in the beam plane (km, relative to
    the sub-satellite point)."""

    positions: np.ndarray  # (K, 2)
    distances_km: np.ndarray  # (K,)
    elevations_deg: np.ndarray  # (K,)
    beam_centers: np.ndarray  # (N, 2)
    beam_of_user: np.ndarray  # (K,) index of the beam each user lies in


@dataclass(frozen=True)
class ChannelMatrix:
    H: np.ndarray  # complex (N, K)
    gain: np.ndarray  # nonnegative real (N, K), |H| columnwise
    phases: np.ndarray  # (K,) radians


@dataclass(frozen=True)
class AtmosphereState:
    rain_fades: np.ndarray  # (K,) linear power factors
    cloud_attens_db: np.ndarray  # (K,)


def hex_beam_centers(n_beams: int, spacing_km: float) -> np.ndarray:
    """Beam centers on a hexagonal grid: one at the origin plus concentric
    rings, truncated to `n_beams` (ring 1 holds the classic 7-beam layout)."""
    centers = [(0.0, 0.0)]
    ring = 1
    while len(centers) < n_beams:
        # walk the hexagon ring corner to corner
        angles = np.deg2rad(np.arange(0, 360, 60))
        corners = [
            ring * spacing_km * np.array([np.cos(a), np.sin(a)]) for a in angles
        ]
        for i in range(6):
            start, stop = corners[i], corners[(i + 1) % 6]
            for step in range(ring):
                pt = start + (stop - start) * (step / ring)
                centers.append((float(pt[0]), float(pt[1])))
        ring += 1
    return np.asarray(centers[:n_beams], dtype=float)


def geometry_from_positions(
    positions: np.ndarray, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Slant distances [km] and elevation angles [deg] for beam-plane offsets,
    using the flat-offset approximation (offset perpendicular to nadir)."""
    offsets = np.linalg.norm(np.asarray(positions, dtype=float), axis=-1)
    d = np.hypot(cfg.sat_height_km, offsets)
    elev = np.degrees(np.arctan2(cfg.sat_height_km, offsets))
    return d, elev


def drop_users(cfg: SystemConfig, seed: int) -> UserDrop:
    """Place one user uniformly inside each of K randomly chosen distinct
    beam discs. Deterministic for a fixed (cfg, seed)."""
    if cfg.n_users > cfg.n_beams:
        raise InvalidConfigError("cannot drop more users than beams")
    rng = np.random.default_rng([_STREAM_DROP, seed])
    spacing = cfg.beam_radius_km * np.sqrt(3.0)
    centers = hex_beam_centers(cfg.n_beams, spacing)
    chosen = rng.choice(cfg.n_beams, size=cfg.n_users, replace=False)
    radii = cfg.beam_radius_km * np.sqrt(rng.random(cfg.n_users))
    angles = 2.0 * np.pi * rng.random(cfg.n_users)
    offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    positions = centers[chosen] + offsets
    d, elev = geometry_from_positions(positions, cfg)
    return UserDrop(
        positions=positions,
        distances_km=d,
        elevations_deg=elev,
        beam_centers=centers,
        beam_of_user=chosen,
    )


def beam_gain(offset_angle: np.ndarray | float, cfg: SystemConfig) -> np.ndarray | float:
    """Tapered-aperture gain G(theta) = G_max*[J1(u)/(2u) + 36*J3(u)/u^3]^2
    with u = 2.07123*sin(theta)/sin(theta_3dB); the u -> 0 limit is G_max.

    theta_3dB = atan(pattern_3db_radius/sat_height).  The pattern radius is
    `beam_3db_radius_km` (75 km by default, half the 150 km drop-disc radius
    `beam_radius_km`); only when it is None does it equal the disc radius,
    putting disc-edge users on the half-power contour.
    """
    scalar_in = np.isscalar(offset_angle)
    theta = np.atleast_1d(np.asarray(offset_angle, dtype=float))
    theta_3db = np.arctan2(cfg.pattern_3db_radius_km, cfg.sat_height_km)
    u = _U_3DB * np.sin(theta) / np.sin(theta_3db)
    out = np.ones_like(u)
    nz = np.abs(u) > 1e-9
    un = u[nz]
    out[nz] = (j1(un) / (2.0 * un) + 36.0 * jv(3, un) / un**3) ** 2
    result = cfg.peak_beam_gain * out.reshape(np.shape(offset_angle))
    return float(result) if scalar_in else result


def _boresight_angles(drop: UserDrop, cfg: SystemConfig) -> np.ndarray:
    """(N, K) off-boresight angles between beam-center and user directions as
    seen from the satellite."""
    h = cfg.sat_height_km
    b = drop.beam_centers  # (N, 2)
    u = drop.positions  # (K, 2)
    dot = b @ u.T + h * h  # (N, K)
    nb = np.sqrt(np.sum(b * b, axis=1) + h * h)  # (N,)
    nu = np.sqrt(np.sum(u * u, axis=1) + h * h)  # (K,)
    cosang = dot / (nb[:, None] * nu[None, :])
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def build_channel(drop: UserDrop, cfg: SystemConfig, seed: int) -> ChannelMatrix:
    """Gain part [Hbar]_nk = lambda*sqrt(G_R*G_nk) / (4*pi*d_k*sqrt(K_B*T*B)),
    times i.i.d. uniform column phases."""
    rng = np.random.default_rng([_STREAM_PHASE, seed])
    angles = _boresight_angles(drop, cfg)
    gains = beam_gain(angles, cfg)  # (N, K)
    d_m = drop.distances_km[None, :] * 1e3
    amp = (
        cfg.wavelength_m
        * np.sqrt(cfg.rx_gain * gains)
        / (4.0 * np.pi * d_m * np.sqrt(cfg.noise_norm))
    )
    phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.n_users)
    H = amp * np.exp(1j * phases)[None, :]
    return ChannelMatrix(H=H, gain=amp, phases=phases)


def _water_permittivity(f_ghz: float, temp_k: float) -> tuple[float, float]:
    """Real and imaginary parts of the permittivity of liquid water."""
    th = 300.0 / temp_k
    e0 = 77.66 + 103.3 * (th - 1.0)
    e1 = 5.48
    e2 = 3.51
    fp = 20.09 - 142.0 * (th - 1.0) + 294.0 * (th - 1.0) ** 2
    fs = 590.0 - 1500.0 * (th - 1.0)
    eps_p = e2 + (e0 - e1) / (1.0 + (f_ghz / fp) ** 2) + (e1 - e2) / (
        1.0 + (f_ghz / fs) ** 2
    )
    eps_pp = f_ghz * (e0 - e1) / (fp * (1.0 + (f_ghz / fp) ** 2)) + f_ghz * (
        e1 - e2
    ) / (fs * (1.0 + (f_ghz / fs) ** 2))
    return eps_p, eps_pp


def cloud_attenuation_db(elevations_deg: np.ndarray, f_ghz: float) -> np.ndarray:
    """Cloud attenuation [dB] from liquid water content and elevation angle."""
    eps_p, eps_pp = _water_permittivity(f_ghz, CLOUD_TEMP_K)
    zeta = (2.0 + eps_p) / eps_pp
    sin_e = np.sin(np.radians(np.asarray(elevations_deg, dtype=float)))
    if np.any(sin_e <= 1e-6):
        raise AttenuationOverflowError("elevation angle too small; cloud path diverges")
    return 0.819 * f_ghz * CLOUD_W_RED / (eps_pp * (1.0 + zeta**2)) / sin_e


def apply_atmosphere(
    channel: ChannelMatrix,
    drop: UserDrop,
    cfg: SystemConfig,
    seed: int,
) -> tuple[ChannelMatrix, AtmosphereState]:
    """Scale column k by sqrt(r_k)/sqrt(c_k): lognormal rain fade r_k and
    Salonen-Uppala cloud attenuation c_k (computed in dB, converted to linear
    before the division)."""
    if not cfg.atmospherics_enabled:
        raise InvalidConfigError("atmospherics are disabled in this config")
    rng = np.random.default_rng([_STREAM_ATMOS, seed])
    rain_db = rng.normal(RAIN_MEAN_DB, np.sqrt(RAIN_VAR_DB), size=cfg.n_users)
    rain = 10.0 ** (rain_db / 10.0)
    cloud_db = cloud_attenuation_db(drop.elevations_deg, cfg.carrier_ghz)
    if np.any(cloud_db > 100.0):
        raise AttenuationOverflowError("cloud attenuation exceeds 100 dB")
    cloud_lin = 10.0 ** (cloud_db / 10.0)
    scale = np.sqrt(rain) / np.sqrt(cloud_lin)
    state = AtmosphereState(rain_fades=rain, cloud_attens_db=cloud_db)
    scaled = ChannelMatrix(
        H=channel.H * scale[None, :],
        gain=channel.gain * scale[None, :],
        phases=channel.phases,
    )
    return scaled, state
