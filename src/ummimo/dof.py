"""Spatial degrees-of-freedom formulas, effective rank, and deployment arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import SpatialCorrelation, _as_correlation
from .errors import ContractError, DomainError, check_finite_nonnegative, check_finite_positive
from .fields import speed_of_light

__all__ = [
    "DofReport",
    "Dof2d",
    "dof_1d",
    "dof_2d",
    "effective_rank",
    "dof_report",
    "bbu_rate",
    "active_rf_chains",
]


def dof_1d(length: float, wavelength: float) -> float:
    """Spatial DoF 2 L / lambda observable on a line segment of length L; both
    must be finite and positive."""
    check_finite_positive(length=length, wavelength=wavelength)
    return 2.0 * length / wavelength


class Dof2d(NamedTuple):
    eta: float        # pi Lx Ly / lambda^2
    separable: float  # 4 Lx Ly / lambda^2, the per-axis over-count
    ratio: float      # pi / 4


def dof_2d(length_x: float, length_y: float, wavelength: float) -> Dof2d:
    """Spatial DoF pi Lx Ly / lambda^2 of a rectangular aperture.

    Also returns the separable per-axis product 4 Lx Ly / lambda^2, which
    over-counts by the square-to-disk area ratio 4/pi.  pi Lx Ly / lambda^2
    is the large-aperture eigen count; a finite aperture's 0.99-capture rank
    exceeds it by an edge term that shrinks relative to the aperture (Landau's
    eigenvalue theorem): 220 against 201 for a 16x16 lambda/2 UPA.  The
    lengths must be finite and >= 0, the wavelength finite and positive.
    """
    check_finite_nonnegative(length_x=length_x, length_y=length_y)
    check_finite_positive(wavelength=wavelength)
    area = length_x * length_y / wavelength ** 2
    return Dof2d(np.pi * area, 4.0 * area, np.pi / 4.0)


def effective_rank(spectrum, capture_fraction: float = 0.99) -> int:
    """Smallest k whose top-k eigenvalues capture the configured trace
    fraction; a NaN or inf eigenvalue is a DomainError."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.size == 0:
        raise ContractError("spectrum must be nonempty")
    if not np.all(np.isfinite(spectrum)):
        raise DomainError(f"spectrum must be finite, got {spectrum}")
    if np.any(spectrum < 0):
        raise ContractError("spectrum must be nonnegative")
    if not 0.0 < capture_fraction <= 1.0:
        raise DomainError("capture_fraction must be in (0, 1]")
    s = np.sort(spectrum)[::-1]
    cum = np.cumsum(s)
    return int(np.searchsorted(cum, capture_fraction * cum[-1] - 1e-15 * cum[-1]) + 1)


@dataclass(frozen=True, eq=False)
class DofReport:
    """Eigen-spectrum summary of a spatial correlation matrix, with the
    effective rank at the default 0.99 trace capture of effective_rank."""

    eta: float                 # DoF formula value for the underlying aperture
    eigen_spectrum: np.ndarray  # descending, normalized to max = 1
    effective_rank: int


def dof_report(corr: SpatialCorrelation | np.ndarray, eta: float) -> DofReport:
    """Summarize a correlation against a DoF formula prediction.

    The spectrum is SpatialCorrelation.spectrum, a bare matrix wrapped as the
    MMSE functions and sample_rayleigh wrap one: for the isotropic
    correlation of a builder array it comes from quarter-size parity blocks
    of the lag table, and the M x M matrix is never formed.  Any other, a
    bare matrix too, reads the eigenvalues of its one eig, which its later
    draws reuse; a bare R must be finite (DomainError) and Hermitian
    (ContractError).  Eigenvalues are clipped at 0 and normalized to max 1.
    """
    w = np.clip(_as_correlation(corr).spectrum, 0.0, None)
    rank = effective_rank(w)
    top = w[0] if w[0] > 0 else 1.0
    return DofReport(eta, w / top, rank)


def bbu_rate(area: float, bandwidth: float, bits_per_sample: float,
             carrier_hz: float) -> float:
    """Baseband aggregation rate A B b f_c^2 pi / c^2 in bit/s.

    The minimum fronthaul rate when one sample per spatial DoF per Nyquist
    interval is forwarded from an aperture of the given area.  Every argument
    must be finite and nonnegative.
    """
    check_finite_nonnegative(area=area, bandwidth=bandwidth, bits_per_sample=bits_per_sample,
                             carrier_hz=carrier_hz)
    return area * bandwidth * bits_per_sample * carrier_hz ** 2 * np.pi / speed_of_light ** 2


def active_rf_chains(area: float, active_fraction: float, chain_density: float) -> float:
    """RF chains A tau mu forwarded to the baseband unit at a time instant;
    area and chain density finite and nonnegative, tau in [0, 1]."""
    if not 0.0 <= active_fraction <= 1.0:
        raise DomainError("active_fraction must lie in [0, 1]")
    check_finite_nonnegative(area=area, chain_density=chain_density)
    return area * active_fraction * chain_density
