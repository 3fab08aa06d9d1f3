"""System-level configuration shared by every stage of the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

SPEED_OF_LIGHT = 299792458.0  # m/s
BOLTZMANN = 1.380649e-23  # J/K


class InvalidConfigError(ValueError):
    """Raised when a configuration violates its invariants."""


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Physical and budget parameters of the multi-beam downlink.

    The channel gains produced by :mod:`beamalloc.channel` are normalized by
    the thermal-noise amplitude sqrt(K_B * T * B), so `noise_power_w` is the
    noise power in that normalized domain (1.0 when the receiver noise equals
    the normalization temperature).  The default `noise_temp_k` is chosen so
    that K_B * T * B equals -118.3 dBW at 500 MHz.
    """

    n_beams: int = 7
    n_users: int = 7
    bandwidth_mhz: float = 500.0
    carrier_ghz: float = 20.0
    sat_height_km: float = 35786.0
    p_max_w: float = db_to_linear(23.37)  # 23.37 dBW total budget
    noise_power_w: float = 1.0
    # receive gain default absorbs the unknown end-to-end EIRP normalization
    # of the replaced proprietary pattern; it places the default demand sweep
    # (200..1200 Mbps) right across the congestion transition
    rx_gain: float = db_to_linear(44.8)
    noise_temp_k: float = 214.2627689105931  # K_B*T*B = 10^(-11.83) W
    peak_beam_gain: float = db_to_linear(44.4)
    beam_radius_km: float = 150.0
    # -3 dB pattern radius on the ground; beams narrower than the hex cell
    # spread the effective gains like a real overlapping layout
    beam_3db_radius_km: float = 75.0
    atmospherics: bool = False
    cond_cap: float = 1e8  # channel condition-number guard for precoding

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfigError(f"{f.name} must be finite, got {value}")
        if self.n_beams < 1:
            raise InvalidConfigError("n_beams must be >= 1")
        if not 1 <= self.n_users <= self.n_beams:
            raise InvalidConfigError(
                f"need 1 <= n_users <= n_beams, got K={self.n_users}, N={self.n_beams}"
            )
        if self.p_max_w < 0:
            raise InvalidConfigError("p_max_w must be nonnegative")
        # every other float setting is a physical scale
        for f in fields(self):
            if isinstance(f.default, float) and f.name not in ("p_max_w", "cond_cap") and getattr(self, f.name) <= 0:
                raise InvalidConfigError(f"{f.name} must be strictly positive")
        if self.cond_cap < 1:
            raise InvalidConfigError("cond_cap must be >= 1: a condition number is never below 1")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / (self.carrier_ghz * 1e9)

    @property
    def noise_norm(self) -> float:
        """Thermal-noise power K_B * T * B used to normalize channel amplitudes."""
        return BOLTZMANN * self.noise_temp_k * (self.bandwidth_mhz * 1e6)
