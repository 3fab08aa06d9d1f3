"""User drops and LOS forward-link channel synthesis.

The channel matrix H is real and nonnegative: beam pattern, path terms and
receive gain, normalized by the thermal-noise amplitude.  Per-user phases are
left out: ZF, RZF and the matched filter satisfy W(H Phi) = W(H) Phi, so
|H^H W|^2 does not depend on them.  Optional rain and cloud attenuation
rescales whole columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import InvalidConfigError, SystemConfig

# Independent RNG substreams per operation so each stays deterministic per
# seed without coupling to the others.
_STREAM_DROP = 101
_STREAM_ATMOS = 303

# Half-power argument of the tapered-aperture pattern.
_U_3DB = 2.07123

# Coefficients 1/(m!(m+3)!) of J3(u)/(u/2)^3 as a polynomial in -(u/2)^2,
# lowest order first; at |u| = 4 the first omitted term is below 2e-24.
_J3_SERIES = np.array([1.0 / (math.factorial(m) * math.factorial(m + 3)) for m in range(18)])

# J0/J1 kernel.  Below u = 8, with z = u^2 and the first three zeros j0k, j1k:
#   J0 = g0(z/64) prod_k (z - j0k^2),   J1 = u g1(z/64) prod_k (z - j1k^2).
# From u = 8 up, with t = (8/u)^2, c = cos u, s = sin u and a = 1/sqrt(pi u):
#   J0 = a (P0 (c + s) - (8/u) Q0 (s - c)),   J1 = a (P1 (s - c) + (8/u) Q1 (c + s)),
# the Hankel forms with cos(u - pi/4) = (c + s)/sqrt 2 and sin(u - pi/4) = (s - c)/sqrt 2.
# g0, g1, P0, Q0, P1 and Q1 are degree-(6, 6) rational fits of the exact functions,
# built from mpmath.besselj/bessely, over z/64 and t in [0, 1]: linearized relative
# least squares on 160 Chebyshev nodes, reweighted by the previous denominator six
# times (Sanathanan-Koerner), at 40 digits in mpmath.  The largest relative fit
# error, on a 2,001-point grid, is 7.6e-18.  Rows hold coefficients, lowest order
# first, numerators then denominators.
_BESSEL_SWITCH = 8.0
_BESSEL_ZEROS_SQ = np.array([
    [5.783185962946784, 14.681970642123893],  # j01^2, j11^2
    [30.471262343662087, 49.2184563216946],
    [74.88700679069518, 103.49945389513658],
])[:, :, None]
_BESSEL_RATIONAL = np.array([
    [1.0, 2.823434524303001, 2.4963958350015987, 0.8358315074040489,
     0.1019572870685849, 0.0036067846213290937, 1.7758039272007235e-05],  # P0 numerator
    [-0.015625, -0.0496452349505205, -0.05019017956911056, -0.01963016090863938,
     -0.0028788862276769764, -0.00012663524799880703, -7.370054932893082e-07],  # Q0 numerator
    [1.0, 2.782578348789671, 2.415151116299129, 0.7893504727938563,
     0.0932759769612815, 0.0031803504301992315, 1.6412365544645563e-05],  # P1 numerator
    [0.046875, 0.1471697303887519, 0.14666736290938143, 0.056393748302842495,
     0.008116972641742286, 0.0003532055680414356, 2.2802305387787767e-06],  # Q1 numerator
    [-7.577674109763865e-05, 0.00010778723328654354, -6.160667036935502e-05, 1.8373099211137273e-05,
     -3.06110950318142e-06, 2.7442864708642554e-07, -1.0515917130237549e-08],  # g0 numerator
    [-6.685280072510012e-06, 8.056153335111261e-06, -3.962653444168563e-06, 1.0312665088181773e-06,
     -1.5179412015201486e-07, 1.215624904628862e-08, -4.2033503206539984e-10],  # g1 numerator
    [1.0, 2.824533157115501, 2.4994715789243065, 0.8385023546003006,
     0.10281586204044427, 0.0037013210736896195, 2.0180757066603075e-05],  # P0 denominator
    [1.0, 3.1864503102708115, 3.240900745992785, 1.2846409419544258,
     0.1947287737274183, 0.009455565869027923, 8.838178728230092e-05],  # Q0 denominator
    [1.0, 2.780747294102171, 2.41009461992483, 0.7850327701560025,
     0.09191661719832873, 0.003034489653427106, 1.278774286377871e-05],  # P1 denominator
    [1.0, 3.1438933758975405, 3.1421551898746167, 1.2159435000017356,
     0.17784874795204728, 0.008126769868889964, 6.622577011426763e-05],  # Q1 denominator
    [1.0, 0.5560434341442982, 0.15061292816610522, 0.02582593194284196,
     0.003015157947984347, 0.00023344461341433587, 9.760843452511954e-06],  # g0 denominator
    [1.0, 0.5171677054624619, 0.12962666909727236, 0.02044450663206819,
     0.0021792313332915595, 0.0001525682722792588, 5.6874786905300535e-06],  # g1 denominator
])

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


@lru_cache(maxsize=16)
def hex_beam_centers(n_beams: int, spacing_km: float) -> np.ndarray:
    """Beam centers on a hexagonal grid: one at the origin plus concentric
    rings, truncated to `n_beams` (ring 1 holds the classic 7-beam layout).
    Built once per (n_beams, spacing) and returned read-only."""
    a = np.deg2rad(np.arange(0, 360, 60))
    unit = np.stack([np.cos(a), np.sin(a)], axis=1)  # ring-1 hexagon corners
    rings = [np.zeros((1, 2))]
    while sum(map(len, rings)) < n_beams:
        # ring r walks its hexagon corner to corner in r steps per side
        r = len(rings)
        start = r * spacing_km * unit
        side = np.roll(start, -1, axis=0) - start
        t = (np.arange(r) / r)[None, :, None]
        rings.append((start[:, None] + side[:, None] * t).reshape(-1, 2))
    grid = np.concatenate(rings)[:n_beams]
    grid.flags.writeable = False
    return grid


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
    rng = np.random.default_rng([_STREAM_DROP, seed])
    spacing = cfg.beam_radius_km * np.sqrt(3.0)
    centers = hex_beam_centers(cfg.n_beams, spacing)
    chosen = rng.choice(cfg.n_beams, size=cfg.n_users, replace=False)
    radii = cfg.beam_radius_km * np.sqrt(rng.random(cfg.n_users))
    angles = 2.0 * np.pi * rng.random(cfg.n_users)
    offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    positions = centers[chosen] + offsets
    d, elev = geometry_from_positions(positions, cfg)
    return UserDrop(positions=positions, distances_km=d, elevations_deg=elev,
                    beam_centers=centers, beam_of_user=chosen)


def _powers(y: np.ndarray, n: int) -> np.ndarray:
    """y**0 ... y**(n-1) of a 1-D y as an (n, M) array, or of each row of a 2-D y as (rows, n, M), by doubling."""
    p = np.empty((n,) + y.shape)
    p[0] = 1.0
    p[1] = y
    k = 2
    while k < n:
        m = min(k - 1, n - k)
        np.multiply(p[1:m + 1], p[k - 1], out=p[k:k + m])  # y^(j+1) * y^(k-1)
        k += m
    return p.swapaxes(0, -2)


def bessel_j0_j1(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J0(u) and J1(u) of finite float values, within 1e-15 of the exact values
    for |u| <= 100 and with J1(u)/u accurate to 1e-15 relative near 0.  Each row along
    the last axis is its own matrix product, so it does not depend on the rows stacked with it."""
    shape = np.shape(u)
    u = np.asarray(u, dtype=float).reshape(-1)
    x = np.abs(u)
    xl = np.maximum(x, _BESSEL_SWITCH)
    v = np.minimum(x, _BESSEL_SWITCH)
    v /= xl  # u/8 below the switch and 8/u above it: one set of powers serves both
    m = shape[-1] if u.size > 1 else 1  # the row length
    r = np.empty((len(_BESSEL_RATIONAL), u.size))  # (fits, rows x m), filled by one gemm per row
    np.matmul(_BESSEL_RATIONAL, _powers((v * v).reshape(-1, m), _BESSEL_RATIONAL.shape[1]),
              out=r.reshape(len(r), -1, m).swapaxes(0, 1))
    r = np.divide(r[:6], r[6:], out=r[:6])  # P0, Q0, P1, Q1, g0, g1
    # Hankel form, in place: rows 0 and 2 become J0 and J1.  cos u and sin u come
    # from one tan: with t = tan(u/2), (1 + t^2) cos u = 1 - t^2, (1 + t^2) sin u = 2t.
    t = np.tan(0.5 * xl)
    t2 = t * t
    one_minus_t2 = 1.0 - t2
    t *= 2.0
    cos_chi = one_minus_t2 + t  # (cos u + sin u)(1 + t^2)
    sin_chi = t - one_minus_t2  # (sin u - cos u)(1 + t^2)
    r[1:4:2] *= v
    r[0:4:3] *= cos_chi
    r[1:3] *= sin_chi
    r[0] -= r[1]
    r[2] += r[3]
    a = np.sqrt(np.multiply(v, 1.0 / (_BESSEL_SWITCH * np.pi), out=v), out=v)
    t2 += 1.0
    a /= t2
    j = r[0:3:2]
    j[0] *= a
    j[1] *= np.copysign(a, u, out=a)
    # the zero-factored form below the switch, on those arguments only
    small = np.flatnonzero(x < _BESSEL_SWITCH)
    us = u[small]
    d = us * us - _BESSEL_ZEROS_SQ
    g = r[4:, small] * d[0] * d[1] * d[2]
    g[1] *= us
    j[:, small] = g
    return j[0].reshape(shape), j[1].reshape(shape)


def beam_gain(offset_angle: np.ndarray | float, cfg: SystemConfig) -> np.ndarray | float:
    """Tapered-aperture gain G(theta) = G_max*[J1(u)/(2u) + 36*J3(u)/u^3]^2
    with u = 2.07123*sin(theta)/sin(theta_3dB); the u -> 0 limit is G_max.

    theta_3dB = atan(beam_3db_radius/sat_height), with `beam_3db_radius_km`
    75 km by default, half the 150 km drop-disc radius `beam_radius_km`.
    The last two axes of `offset_angle` (all of it, if it has fewer) are one
    drop's angles; leading axes stack drops, each evaluated as if alone.
    """
    theta = np.asarray(offset_angle, dtype=float)
    theta_3db = np.arctan2(cfg.beam_3db_radius_km, cfg.sat_height_km)
    u = _U_3DB * np.sin(theta) / np.sin(theta_3db)
    u = u.reshape(-1, math.prod(theta.shape[-2:]) or 1)  # one row per drop
    zero = np.abs(u) <= 1e-9
    u[zero] = 1.0  # a finite stand-in, so nothing divides by 0; these entries take the limit
    j0_u, j1_u = bessel_j0_j1(u)
    out = (j1_u / (2.0 * u) + 36.0 * _j3(u, j0_u, j1_u) / u**3) ** 2
    out[zero] = 1.0
    result = cfg.peak_beam_gain * out.reshape(theta.shape)
    return float(result) if np.ndim(result) == 0 else result


def _j3(u: np.ndarray, j0_u: np.ndarray, j1_u: np.ndarray) -> np.ndarray:
    """Bessel J3 of rows of nonzero floats, given J0(u) and J1(u).  The upward
    recurrence J3 = 4(2 J1/u - J0)/u - J1 cancels badly for small u (it is
    unusable below u ~ 0.01), so |u| < 4 uses the power series instead, one
    matrix-vector product per row over that row's arguments."""
    out = 4.0 * (2.0 * j1_u / u - j0_u) / u - j1_u
    small = np.abs(u) < 4.0
    us = u[small]
    y, n = -0.25 * us * us, len(_J3_SERIES)
    series = _J3_SERIES @ _powers(y, n) if len(u) == 1 else np.concatenate(
        [_J3_SERIES @ _powers(row, n) for row in np.split(y, small.sum(axis=-1).cumsum()[:-1])])
    out[small] = (0.5 * us) ** 3 * series
    return out


def _boresight_angles(centers: np.ndarray, positions: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """(T, N, K) off-boresight angles between beam-center and user directions
    as seen from the satellite, for (T, N, 2) beam centers and (T, K, 2) user
    positions, or (N, K) for one drop's; each drop's b @ u.T is its own matrix product."""
    h = cfg.sat_height_km
    dot = centers @ positions.swapaxes(-1, -2) + h * h  # (T, N, K)
    nb = np.sqrt(np.sum(centers * centers, axis=-1) + h * h)  # (T, N)
    nu = np.sqrt(np.sum(positions * positions, axis=-1) + h * h)  # (T, K)
    cosang = dot / (nb[..., :, None] * nu[..., None, :])
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def build_channel(drops: UserDrop | list[UserDrop], cfg: SystemConfig) -> np.ndarray:
    """The real channel [H]_nk = lambda*sqrt(G_R*G_nk) / (4*pi*d_k*sqrt(K_B*T*B)):
    (N, K) for one drop, (T, N, K) for a sequence of T drops, built in one pass.
    Deterministic in each drop: a drop's channel has the same bits alone and in
    any stack."""
    one = isinstance(drops, UserDrop)
    centers, positions, d_km = (getattr(drops, f) if one else np.array([getattr(d, f) for d in drops])
                                for f in ("beam_centers", "positions", "distances_km"))
    gains = beam_gain(_boresight_angles(centers, positions, cfg), cfg)  # (N, K) or (T, N, K)
    d_m = d_km[..., None, :] * 1e3
    amp = cfg.wavelength_m * np.sqrt(cfg.rx_gain * gains)
    return amp / (4.0 * np.pi * d_m * np.sqrt(cfg.noise_norm))


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
    H: np.ndarray,
    drop: UserDrop,
    cfg: SystemConfig,
    seed: int,
) -> np.ndarray:
    """Scale column k by sqrt(r_k)/sqrt(c_k): lognormal rain fade r_k and
    Salonen-Uppala cloud attenuation c_k (computed in dB, converted to linear
    before the division)."""
    if not cfg.atmospherics:
        raise InvalidConfigError("atmospherics are disabled in this config")
    rng = np.random.default_rng([_STREAM_ATMOS, seed])
    rain_db = rng.normal(RAIN_MEAN_DB, np.sqrt(RAIN_VAR_DB), size=cfg.n_users)
    rain = 10.0 ** (rain_db / 10.0)
    cloud_db = cloud_attenuation_db(drop.elevations_deg, cfg.carrier_ghz)
    if np.any(cloud_db > 100.0):
        raise AttenuationOverflowError("cloud attenuation exceeds 100 dB")
    cloud_lin = 10.0 ** (cloud_db / 10.0)
    scale = np.sqrt(rain) / np.sqrt(cloud_lin)
    return H * scale[None, :]
