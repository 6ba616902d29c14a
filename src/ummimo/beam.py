"""Beamfocusing gains, angular beamwidth, and finite beamdepth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, SingularityError, check_finite_positive
from .geometry import ArrayGeometry
from .numerics import fresnel_cs, sinc

__all__ = [
    "BeamdepthInterval",
    "focus_phases",
    "array_gain",
    "angular_taper",
    "beamwidth_3db",
    "depth_gain",
    "beamdepth_3db",
]


def _finite_point(name: str, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (3,):
        raise ContractError(f"{name} must be a (3,) point, got shape {point.shape}")
    if not np.all(np.isfinite(point)):
        raise DomainError(f"{name} must be finite, got {point}")
    return point


def focus_phases(geom: ArrayGeometry, point) -> np.ndarray:
    """Phases psi_m = (2 pi / lambda) dist(point, p_m), (M,) radians, that
    cancel the propagation phase at the focus point, a finite (3,) point;
    defined modulo a common additive constant."""
    point = _finite_point("focus point", point)
    d = np.linalg.norm(point[None, :] - geom.positions, axis=1)
    if np.any(d == 0):
        raise SingularityError("focus point coincides with an array element")
    return 2.0 * np.pi / geom.wavelength * d


def array_gain(geom: ArrayGeometry, phases, rx) -> float:
    """Array gain (1/M) |sum_m e^{-j kappa d_m(rx)} e^{j psi_m}|^2 in [0, M]
    of the (M,) phases psi at a finite (3,) receive point rx; the phases
    must be finite."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (geom.num_elements,):
        raise ContractError(f"phases must have shape ({geom.num_elements},), "
                            f"got {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise DomainError("phases must be finite")
    rx = _finite_point("receive point", rx)
    d = np.linalg.norm(rx[None, :] - geom.positions, axis=1)
    if np.any(d == 0):
        raise SingularityError("receive point coincides with an array element")
    total = np.exp(1j * (phases - 2.0 * np.pi / geom.wavelength * d)).sum()
    return float(abs(total) ** 2 / geom.num_elements)


def angular_taper(n: int, spacing: float, wavelength: float, phi):
    """Off-focus array gain M sinc^2(N Delta sin(phi) / lambda), M = N^2.

    phi is the angular offset between the focused direction and the
    observation direction at equal range; independent of the range itself.
    phi broadcasts: an array of offsets gives the array of gains, and a
    scalar phi the float.  Both take the same array arithmetic, so element i
    of angular_taper(n, d, lam, phis) equals angular_taper(n, d, lam,
    phis[i]) bit for bit.  Every phi must be finite, and spacing and
    wavelength finite and positive.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    check_finite_positive(spacing=spacing, wavelength=wavelength)
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DomainError(f"phi must be finite, got {float(phi[~np.isfinite(phi)].flat[0])!r}")
    # a 1-d operand keeps numpy's array power loop: a 0-d one would turn into
    # a numpy scalar, whose ** rounds differently in the last place
    gain = n * n * sinc(n * spacing * np.sin(phi.reshape(-1)) / wavelength) ** 2
    return float(gain[0]) if phi.ndim == 0 else gain.reshape(phi.shape)


def beamwidth_3db(n: int, spacing: float, wavelength: float) -> float:
    """Half-power angular beamwidth 0.886 lambda / (N Delta) in radians;
    spacing and wavelength must be finite and positive."""
    check_finite_positive(spacing=spacing, wavelength=wavelength)
    if n * spacing <= 0.443 * wavelength:
        raise DomainError("array is electrically too small for a 3 dB width")
    return 0.886 * wavelength / (n * spacing)


def _depth_profile(x: float) -> float:
    """A(x) = (C^2(sqrt x) + S^2(sqrt x))^2 / x^2 with the x -> 0 limit 1.

    The direct formula is within about 1e-15 relative of mpmath from x -> 0
    (C^2 + S^2 ~ x) through the tail (C, S -> 1/2, A ~ 1 / (4 x^2)) at
    x = 1e6.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if x == 0:
        return 1.0
    c, s = fresnel_cs(np.sqrt(x))
    return ((c * c + s * s) / x) ** 2


def depth_gain(focus: float, z: float, d_fraunhofer: float) -> float:
    """Normalized array gain at depth z when focused at depth `focus`.

    Evaluates A(d_F / (8 z_eff)) with z_eff = F z / |F - z|; equals 1 at
    z = focus and is symmetric under swapping (focus, z).  All three
    arguments must be finite and positive.
    """
    check_finite_positive(focus=focus, z=z, d_fraunhofer=d_fraunhofer)
    if focus == z:
        return 1.0
    z_eff = focus * z / abs(focus - z)
    return _depth_profile(d_fraunhofer / (8.0 * z_eff))


# A(x*) = 1/2 for the depth profile A of depth_gain, which falls from 1 on
# [0, x*]; mpmath: x* = 1.24215761243332578114...
_HALF_POWER_X = 1.2421576124333258


def _numeric_beamdepth(F: float, d_f: float) -> float:
    """Exact half-power beamdepth z_far - z_near of the Fresnel depth profile.

    depth_gain(F, z) = A(d_F / (8 z_eff)) with z_eff = F z / |F - z|, so both
    half-power crossings sit at z_eff = d_F / (8 x*): z_near = F z_eff /
    (F + z_eff) and z_far = F z_eff / (z_eff - F), or inf when z_eff <= F.
    Each finite crossing is checked through depth_gain: ContractError unless
    the gain there is 1/2 within 1e-9 (a focus so small that the crossing is
    not resolved in double precision fails this).
    """
    z_eff = d_f / (8.0 * _HALF_POWER_X)
    z_near = F * z_eff / (F + z_eff)
    z_far = F * z_eff / (z_eff - F) if z_eff > F else np.inf
    for z in (z_near, z_far):
        if math.isfinite(z) and not abs(depth_gain(F, z, d_f) - 0.5) <= 1e-9:
            raise ContractError(f"depth gain at the half-power crossing z = {z!r} m "
                                f"of focus {F!r} m is not 1/2 within 1e-9")
    return z_far - z_near


@dataclass(frozen=True)
class BeamdepthInterval:
    """Half-power depth interval [z_near, z_far] and its length."""

    depth: float   # inf when the focus is at or beyond d_F / 10
    z_near: float  # d_F F / (d_F + 10 F); converges to d_F/10 as F grows
    z_far: float   # d_F F / (d_F - 10 F) when finite, else inf


def beamdepth_3db(focus: float, d_fraunhofer: float) -> BeamdepthInterval:
    """Half-power beamdepth of a beam focused at depth `focus`.

    Finite only for focus < d_F / 10: then 20 d_F F^2 / (d_F^2 - 100 F^2).
    Beyond that boundary the beam extends to infinity and only the near
    endpoint is finite.  Both arguments must be finite and positive.
    """
    check_finite_positive(focus=focus, d_fraunhofer=d_fraunhofer)
    z_near = d_fraunhofer * focus / (d_fraunhofer + 10.0 * focus)
    if focus >= d_fraunhofer / 10.0:
        return BeamdepthInterval(np.inf, z_near, np.inf)
    z_far = d_fraunhofer * focus / (d_fraunhofer - 10.0 * focus)
    depth = 20.0 * d_fraunhofer * focus ** 2 / (d_fraunhofer ** 2 - 100.0 * focus ** 2)
    return BeamdepthInterval(depth, z_near, z_far)
