"""Line-of-sight and correlated-Rayleigh channel generation.

Spatial correlation follows the geometric model R = beta * integral of
f(az, el) s(az, el) s(az, el)^H over the front hemisphere, with f a density
per steradian and s the far-field array response.  For coplanar arrays the
isotropic hemisphere average coincides with the full-sphere Clarke
correlation beta * sinc(2 d / lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .geometry import ArrayGeometry
from .numerics import (QuadratureGrid, RngStream, complex_gaussian, hemisphere_grid,
                       hermitian_eig)

__all__ = [
    "ScatteringProfile",
    "SpatialCorrelation",
    "array_response",
    "steering_matrix",
    "los_channel",
    "correlation_matrix",
    "sample_rayleigh",
    "isotropic_profile",
    "gaussian_cluster_profile",
]

@dataclass(frozen=True)
class ScatteringProfile:
    """Normalized angular scattering density with average channel gain beta.

    density(azimuth, elevation) is per steradian and integrates to 1 over the
    front hemisphere (within quadrature tolerance).
    """

    kind: str  # "isotropic-hemisphere" | "gaussian-clusters"
    beta: float
    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    clusters: tuple = ()

    def integral(self, grid: QuadratureGrid) -> float:
        return float(np.real(grid.integrate(self.density(grid.azimuth, grid.elevation))))


@dataclass(frozen=True)
class SpatialCorrelation:
    """Hermitian PSD spatial correlation matrix with its average gain."""

    R: np.ndarray
    beta: float

    @property
    def num_antennas(self) -> int:
        return self.R.shape[0]

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues descending, eigenvectors) of R, computed once.

        Read-only, because every later caller shares the same arrays.
        """
        w, U = hermitian_eig(self.R)
        w.flags.writeable = U.flags.writeable = False
        return w, U

    @cached_property
    def _rayleigh_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(R^{1/2} = U sqrt(w), U^H) for sample_rayleigh, checked PSD, read-only."""
        w, U = self.eig
        tr = float(np.trace(self.R).real)
        if tr > 0 and w.min() < -1e-8 * tr:
            raise ContractError(f"correlation matrix has eigenvalue {w.min():.3e} < -1e-8 tr")
        root, Uh = U * np.sqrt(np.clip(w, 0.0, None)), U.conj().T
        root.flags.writeable = Uh.flags.writeable = False
        return root, Uh


def _as_correlation(corr: SpatialCorrelation | np.ndarray) -> SpatialCorrelation:
    """Wrap a bare matrix R, giving it the average gain trace(R) / M."""
    if isinstance(corr, SpatialCorrelation):
        return corr
    R = np.asarray(corr)
    return SpatialCorrelation(R, float(np.trace(R).real) / R.shape[0])


def isotropic_profile(beta: float = 1.0) -> ScatteringProfile:
    """Uniform density 1/(2 pi) per steradian over the front hemisphere."""
    return ScatteringProfile(
        kind="isotropic-hemisphere",
        beta=beta,
        density=lambda az, el: np.full_like(np.asarray(az, dtype=float), 1.0 / (2.0 * np.pi)),
    )


def gaussian_cluster_profile(centers, std: float, beta: float = 1.0,
                             weights=None) -> ScatteringProfile:
    """Mixture of truncated bivariate Gaussians in (azimuth, elevation).

    Each cluster is isotropic in the two angle coordinates with the given
    angular standard deviation (radians), truncated to the front hemisphere
    and renormalized so the mixture integrates to 1.
    """
    if std <= 0:
        raise ContractError("angular std must be positive")
    centers = [(float(a), float(e)) for (a, e) in centers]
    for a, e in centers:
        if abs(a) > np.pi / 2 or abs(e) > np.pi / 2:
            raise ContractError("cluster centers must lie in the front hemisphere")
    if weights is None:
        weights = np.full(len(centers), 1.0 / len(centers))
    else:
        weights = np.asarray(weights, dtype=float)
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ContractError("cluster weights must sum to 1")

    def unnormalized(az, el):
        az = np.asarray(az, dtype=float)
        el = np.asarray(el, dtype=float)
        out = np.zeros_like(az)
        for w, (ca, ce) in zip(weights, centers):
            out += w * np.exp(-((az - ca) ** 2 + (el - ce) ** 2) / (2.0 * std ** 2))
        return out

    # normalize on a grid finer than the default working grid, so the
    # renormalization stays within 1e-4 on any reasonable grid
    ref = hemisphere_grid(360, 180)
    norm = float(np.real(ref.integrate(unnormalized(ref.azimuth, ref.elevation))))
    return ScatteringProfile(
        kind="gaussian-clusters",
        beta=beta,
        density=lambda az, el: unnormalized(az, el) / norm,
        clusters=tuple((a, e, std, float(w)) for (a, e), w in zip(centers, weights)),
    )


def array_response(geom: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Far-field array response: unit-modulus phases of a plane wave.

    Entry m is exp(-j kappa u(az, el)^T p_m) with u the unit direction
    (azimuth from the +z normal toward +x, elevation toward +y).
    """
    return steering_matrix(geom, np.atleast_1d(azimuth), np.atleast_1d(elevation))[0]


def steering_matrix(geom: ArrayGeometry, azimuth: np.ndarray,
                    elevation: np.ndarray) -> np.ndarray:
    """Array responses for many directions at once, shape (Q, M)."""
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    u = np.stack(
        [np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=-1
    )
    kappa = 2.0 * np.pi / geom.wavelength
    return np.exp(-1j * kappa * (u @ geom.positions.T))


def _plane_z(geom: ArrayGeometry) -> float:
    zs = geom.positions[:, 2]
    if np.ptp(zs) > 1e-12 * max(1.0, np.abs(zs).max()):
        raise DomainError("geometry is not planar in z; broadside distance undefined")
    return float(zs.mean())


def los_channel(geom: ArrayGeometry, tx, mode: str = "exact",
                amplitude: str = "common") -> np.ndarray:
    """Line-of-sight channel vector from a point transmitter.

    mode "exact" uses spherical-wave distances in the phase; "fresnel" uses
    the paraxial expansion z + ((tx_x - p_x)^2 + (tx_y - p_y)^2) / (2 z)
    about the array's broadside axis.  amplitude "common" applies the single
    coefficient lambda sqrt(G) / (4 pi z) with z the broadside (normal
    component) distance of the transmitter; "per-element" uses each exact
    distance instead (for asymptotic studies where power variation matters).
    """
    if mode not in ("exact", "fresnel"):
        raise DomainError(f"unknown mode {mode!r}")
    if amplitude not in ("common", "per-element"):
        raise DomainError(f"unknown amplitude convention {amplitude!r}")
    tx = np.asarray(tx, dtype=float)
    lam = geom.wavelength
    pos = geom.positions
    dist = np.linalg.norm(tx[None, :] - pos, axis=1)
    if np.any(dist == 0):
        raise SingularityError("transmitter coincides with an array element")

    z = abs(tx[2] - _plane_z(geom))
    if mode == "fresnel":
        if z <= 0:
            raise DomainError("fresnel mode requires the transmitter off the array plane")
        trans2 = (tx[0] - pos[:, 0]) ** 2 + (tx[1] - pos[:, 1]) ** 2
        path = z + trans2 / (2.0 * z)
    else:
        path = dist

    g = np.sqrt(geom.element_gain)
    if amplitude == "common":
        if z <= 0:
            raise DomainError("common amplitude requires the transmitter off the array plane")
        amp = lam * g / (4.0 * np.pi * z)
        return amp * np.exp(-2j * np.pi / lam * path)
    amp = lam * g / (4.0 * np.pi * dist)
    return amp * np.exp(-2j * np.pi / lam * path)


def correlation_matrix(geom: ArrayGeometry, profile: ScatteringProfile,
                       grid: QuadratureGrid | None = None) -> SpatialCorrelation:
    """Spatial correlation matrix of the angular scattering model.

    R = beta * sum_q f_q w_q s_q s_q^H over the grid, symmetrized.  The
    profile must integrate to 1 on the supplied grid (contract check at
    1e-3); trace(R) then equals M beta to the same accuracy.
    """
    if grid is None:
        grid = hemisphere_grid()
    total = profile.integral(grid)
    if abs(total - 1.0) > 1e-3:
        raise ContractError(
            f"scattering density integrates to {total:.6f} on this grid, not 1"
        )
    f = profile.density(grid.azimuth, grid.elevation)
    S = steering_matrix(geom, grid.azimuth, grid.elevation)  # (Q, M)
    R = (S.T * (f * grid.weights * profile.beta)) @ S.conj()
    R = 0.5 * (R + R.conj().T)
    return SpatialCorrelation(R, profile.beta)


def sample_rayleigh(corr: SpatialCorrelation | np.ndarray, stream: RngStream) -> np.ndarray:
    """Draw h = R^{1/2} w, w ~ CN(0, I), via the eigendecomposition of R.

    A SpatialCorrelation computes that eigendecomposition and the factor
    R^{1/2} once and reuses them on every draw.  Small negative eigenvalues
    from quadrature are clamped at zero; an eigenvalue below -1e-8 * trace
    violates the PSD contract.
    """
    corr = _as_correlation(corr)
    root, Uh = corr._rayleigh_factor
    noise = complex_gaussian(corr.num_antennas, stream)
    return root @ (Uh @ noise)
