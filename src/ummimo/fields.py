"""Near-field factors, aperture gain integrals, and Hertzian-dipole fields.

Phasor convention is e^{+j omega t}, so outgoing waves carry e^{-j kappa r}
propagation phase, as in channel and beam.  The dipole Green function
_green is in the circuit layer's e^{-j omega t}; fields are its conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SingularityError, check_finite_positive
from .numerics import _gauss_legendre

__all__ = [
    "DipoleSegment",
    "FieldSample",
    "near_field_factor",
    "edge_phase_and_power",
    "aperture_gain",
    "aperture_gain_subdivided",
    "isotropic_area",
    "dipole_field",
    "array_field",
]

# SI constants as literals, so importing the package loads no scipy module:
# c is exact in SI; epsilon_0 is the CODATA 2022 value (scipy >= 1.15 carries
# it; earlier releases carry CODATA 2018, 8.8541878128e-12).
speed_of_light = 299792458.0  # m/s
epsilon_0 = 8.8541878188e-12  # F/m


@dataclass(frozen=True, eq=False)
class DipoleSegment:
    """A Hertzian-dipole segment: position (m) and moment vector (A m)."""

    position: np.ndarray  # (3,)
    moment: np.ndarray    # (3,) complex

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        mom = np.asarray(self.moment, dtype=complex)
        if pos.shape != (3,) or mom.shape != (3,):
            raise DomainError("position and moment must be 3-vectors")
        if not np.all(np.isfinite(pos)):
            raise DomainError("segment position must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "moment", mom)


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Electric field (V/m) in the global spherical basis at the observation point."""

    E: np.ndarray  # (3,) complex: (radial, elevation, azimuthal) components


def near_field_factor(z, wavelength: float):
    """Squared magnitude of the point-source field correction, 1 - q^-2 + q^-4.

    q = 2 pi z / lambda.  Approaches 1 rapidly with distance: 0.9937 at z = 2
    wavelengths and >= 0.99 from there on (0.99 is first reached at 1.583
    wavelengths), so 2 wavelengths is the conventional single-antenna
    far-field boundary.

    z broadcasts: an array of distances gives the array of factors, and a
    scalar z the float.  Both take the same array arithmetic, so element i
    of near_field_factor(zs, lam) equals near_field_factor(zs[i], lam) bit
    for bit.  Every z must be finite and positive.
    """
    z = np.asarray(z, dtype=float)
    bad = ~((0 < z) & (z < math.inf))
    if bad.any():
        raise DomainError(f"z must be finite and positive, got {float(z[bad].flat[0])!r}")
    check_finite_positive(wavelength=wavelength)
    # a 1-d operand keeps numpy's array power loop: a 0-d one would turn into
    # a numpy scalar, whose ** rounds differently in the last place
    q = 2.0 * np.pi * z.reshape(-1) / wavelength
    f = 1.0 - q ** -2 + q ** -4
    return float(f[0]) if z.ndim == 0 else f.reshape(z.shape)


def edge_phase_and_power(z: float, D: float, wavelength: float) -> tuple[float, float]:
    """Center-to-edge phase shift and power ratio over an aperture of size D.

    Uses the exact path difference Delta = sqrt(z^2 + D^2/4) - z, not its
    Taylor form.  Returns (phase rad, power ratio z^2/(z+Delta)^2).  Only
    meaningful when the source is beyond the aperture half-size (z > D/2);
    all three arguments must be finite and positive.
    """
    check_finite_positive(z=z, D=D, wavelength=wavelength)
    if z <= D / 2:
        raise DomainError("requires z > D/2")
    delta = np.hypot(z, D / 2.0) - z
    phase = 2.0 * np.pi / wavelength * delta
    power_ratio = z ** 2 / (z + delta) ** 2
    return float(phase), float(power_ratio)


def isotropic_area(wavelength: float) -> float:
    """Effective area lambda^2 / (4 pi) of an isotropic reference antenna;
    the wavelength must be finite and positive."""
    check_finite_positive(wavelength=wavelength)
    return wavelength ** 2 / (4.0 * np.pi)


_CHUNK_ENTRIES = 1 << 14  # integrand entries per chunk of cells


def _cell_rule(length: float, n_cells: int, wavelength: float):
    """Composite Gauss-Legendre nodes and weights, (cells, nodes) arrays, of
    n_cells equal cells tiling [-length/2, length/2].  Panels no wider than
    lambda/2 (>= 16 nodes per wavelength against the ~1/lambda oscillation of
    the integrand), at least 2 per cell, 8 nodes each."""
    bounds = np.linspace(-length / 2, length / 2, n_cells + 1)
    n_panels = max(2, int(np.ceil(length / n_cells / (wavelength / 2.0))))
    edges = np.linspace(bounds[:-1], bounds[1:], n_panels + 1, axis=1)
    mids, half = (edges[:, :-1] + edges[:, 1:]) / 2, (edges[:, 1:] - edges[:, :-1]) / 2
    nodes, weights = _gauss_legendre(8)
    return ((mids[..., None] + half[..., None] * nodes).reshape(n_cells, -1),
            (half[..., None] * weights).reshape(n_cells, -1))


@lru_cache(maxsize=16)
def _folded_rule(length: float, n_cells: int, wavelength: float):
    """_cell_rule folded about the axis centre: blocks (nodes, weights,
    multiplicity) of the cells i >= (n_cells - 1)/2, cell n_cells - 1 - i
    being cell i's mirror image.  An odd count's centre cell is its own
    mirror: it keeps its x > 0 nodes (the upper half, as the rule is
    symmetric and has no node at 0) with doubled weights, multiplicity 1,
    as a block of its own; the outer cells count twice.  Computed once per
    (length, n_cells, wavelength) and shared read-only."""
    xs, ws = _cell_rule(length, n_cells, wavelength)
    half = n_cells // 2
    blocks = [(xs[n_cells - half:], ws[n_cells - half:], 2.0)] if half else []
    if n_cells % 2:
        upper = slice(xs.shape[1] // 2, None)
        blocks.append((xs[half:half + 1, upper], 2.0 * ws[half:half + 1, upper], 1.0))
    for nodes, weights, _ in blocks:
        nodes.flags.writeable = weights.flags.writeable = False
    return tuple(blocks)


def aperture_gain(a: float, b: float, z: float, wavelength: float) -> float:
    """Gain of an a x b receiving aperture for a broadside point source at z.

    Integrates the spherical-wavefront phase over the aperture; the far-field
    maximum is a*b / isotropic_area(wavelength), reached once the phase is
    constant over the aperture (z >> Fraunhofer distance).  The 1 x 1 case of
    aperture_gain_subdivided.
    """
    return aperture_gain_subdivided(a, b, 1, 1, z, wavelength)


def aperture_gain_subdivided(a: float, b: float, n_x: int, n_y: int,
                             z: float, wavelength: float) -> float:
    """Total gain when the aperture is split into n_x x n_y elements.

    Per-element gains are phase-aligned and summed (maximum-ratio combining
    across elements), which sidesteps the spherical-phase cancellation that
    penalizes one large aperture.  Returns sum |I_ij|^2 over the cell
    integrals, in the same normalization as aperture_gain.  One composite
    Gauss-Legendre rule per axis serves all cells and keeps the relative
    error below 1e-4.

    The aperture is centred and |I_ij| depends on x^2 and y^2 only, so the
    rule is folded about both axes: only the cells i >= (n_x - 1)/2 and
    j >= (n_y - 1)/2 are integrated, each |I_ij|^2 weighted by 2 per axis on
    which it has a distinct mirror cell; an odd axis's centre cell (the
    whole axis when the count is 1) is integrated on the x > 0 half of its
    nodes with doubled weights.
    That takes about a quarter of the exp calls of the unfolded rule and
    moves the result by float rounding only.  The integrand is evaluated
    over row-major chunks of cells, so memory does not grow with n_x * n_y.
    """
    check_finite_positive(a=a, b=b, z=z, wavelength=wavelength)
    if n_x < 1 or n_y < 1:
        raise DomainError("subdivision counts must be >= 1")
    y_blocks = _folded_rule(b, n_y, wavelength)
    power = 0.0
    for xs, wx, mx in _folded_rule(a, n_x, wavelength):
        for ys, wy, my in y_blocks:
            n_cells = len(xs) * len(ys)
            step = max(1, _CHUNK_ENTRIES // (xs.shape[1] * ys.shape[1]))
            for start in range(0, n_cells, step):
                i, j = np.divmod(np.arange(start, min(start + step, n_cells)), len(ys))
                r = np.sqrt(xs[i, :, None] ** 2 + ys[j, None, :] ** 2 + z ** 2)
                cells = np.einsum("cp,cq,cpq->c", wx[i], wy[j],
                                  np.exp(-2j * np.pi / wavelength * r))
                power += mx * my * np.sum(np.abs(cells) ** 2)
    return float(power) / (isotropic_area(wavelength) * (a / n_x) * (b / n_y))


# ---------------------------------------------------------------------------
# Hertzian dipole fields
# ---------------------------------------------------------------------------

def _basis_matrix(p: np.ndarray) -> np.ndarray:
    """Orthonormal (radial, elevation, azimuthal) unit vectors at p, as
    columns.  Elevation is measured from the xy-plane; at the poles (zero
    transverse component) the azimuth is taken as 0, the limit along phi = 0."""
    x, y, z = p
    r, rho = np.linalg.norm(p), np.hypot(x, y)
    cphi, sphi = (1.0, 0.0) if rho == 0.0 else (x / rho, y / rho)
    sth, cth = z / r, rho / r
    return np.array([[cphi * cth, -cphi * sth, -sphi],
                     [sphi * cth, -sphi * sth, cphi],
                     [sth, cth, 0.0]])


def _out(a):
    """a, to be overwritten by a ufunc, or None for a numpy scalar, which is
    immutable: one separation keeps numpy's scalar pow and complex division,
    which can round differently from the array loops in the last bit."""
    return a if isinstance(a, np.ndarray) else None


def _green(r, s1, s3, kappa: float):
    """The dipole Green function [kappa^2 + grad grad] e^{j kappa r}/(4 pi r) m
    of the e^{-j omega t} convention, the package's one implementation of the
    Hertzian-dipole field: e^{j kappa r}/(4 pi) [kappa^2 s1/r + (j kappa/r^2
    - 1/r^3) s3], s1 = m - (u.m) u and s3 = m - 3 (u.m) u for u along the
    separation, one component of each given (scalars, or arrays broadcasting
    with r > 0).  It works in place (an array s1 is overwritten) in one
    fixed order, so an entry's bits do not depend on the array shape;
    scalars keep numpy's scalar arithmetic (see _out)."""
    s1 *= kappa ** 2  # kappa^2 s1 / r
    s1 /= r
    near = 1j * kappa / r ** 2
    near -= 1.0 / r ** 3
    near *= s3
    near += s1
    wave = 1j * kappa * r
    wave = np.exp(wave, out=_out(wave))
    wave /= 4.0 * np.pi
    wave *= near
    return wave


def _amplitudes(r, wavelength: float):
    """(a_rad, a_ang) of a unit dipole at distances r, e^{+j omega t}: its
    field is a_rad (u.m) u + a_ang (m - (u.m) u).  They are _green at
    (s1, s3) = (0, -2) along u and (1, 1) across it over j omega eps0,
    conjugated from e^{-j omega t}, as the Green operator is real."""
    kappa = 2.0 * np.pi / wavelength
    omega = kappa * speed_of_light
    return tuple(np.conj(_green(r, s1, s3, kappa)) / (1j * omega * epsilon_0)
                 for s1, s3 in ((0.0, -2.0), (1.0, 1.0)))


def array_field(segments, moment_matrices, x: np.ndarray, p,
                wavelength: float) -> FieldSample:
    """Superposed field of dipole segments driven by the excitation vector x.

    moment_matrices[k] is the 3 x N map from x to segment k's moment m_k, so
    the result is linear in x.  All segments at once, in Cartesian form:
    E = sum_k a_ang m_k + (a_rad - a_ang) (u_k.m_k) u_k, u_k the unit vector
    from segment k to p, projected once onto the spherical basis at p,
    which the origin lacks (SingularityError there)."""
    p = np.asarray(p, dtype=float)
    if not p.any():
        raise SingularityError("the spherical basis is undefined at the origin")
    x = np.asarray(x, dtype=complex)
    rel = p - np.reshape([seg.position for seg in segments], (-1, 3))
    r = np.linalg.norm(rel, axis=1)
    if np.any(r == 0.0):
        raise SingularityError("observation point coincides with a segment")
    m = np.reshape(moment_matrices, (-1, 3, x.size)).astype(complex) @ x
    u = rel / r[:, None]
    a_rad, a_ang = _amplitudes(r, wavelength)
    radial = (a_rad - a_ang) * np.einsum("ki,ki->k", u, m)
    e_cart = a_ang @ m + radial @ u
    return FieldSample(_basis_matrix(p).T @ e_cart)


def dipole_field(segment: DipoleSegment, p, wavelength: float) -> FieldSample:
    """Field of a single Hertzian dipole at p: the one-segment array_field,
    in the spherical basis at p."""
    return array_field([segment], [np.eye(3)], segment.moment, p, wavelength)
