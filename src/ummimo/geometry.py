"""Antenna array construction and near-/far-field boundary distances."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError

__all__ = [
    "ArrayGeometry",
    "Lattice",
    "RegionBounds",
    "build_upa",
    "build_ula",
    "region_bounds",
    "fraunhofer_square",
]


# elements closer than this many wavelengths are refused as coincident
_MIN_SEPARATION = 1e-6


def _has_close_pair(pos: np.ndarray, tol: float) -> bool:
    """Whether two rows of pos lie closer than tol, by a sort-and-sweep.

    The rows are sorted along the axis of largest spread, and lag j = 1, 2,
    ... measures the pairs j rows apart whose gap along that axis is below
    tol.  A close pair's gap bounds the gap of every pair at a shorter lag
    between its rows, so the sweep can stop at the first lag where no gap is
    below tol.
    """
    axis = int(np.argmax(pos.max(axis=0) - pos.min(axis=0)))
    pos = pos[np.argsort(pos[:, axis], kind="stable")]
    x = pos[:, axis]
    for j in range(1, len(pos)):
        near = np.flatnonzero(x[j:] - x[:-j] < tol)
        if not near.size:
            return False
        if np.any(np.sum((pos[near + j] - pos[near]) ** 2, axis=1) < tol ** 2):
            return True
    return False


class Lattice(NamedTuple):
    """Grid layout of a builder array: n_x by n_y elements at spacings dx, dy
    (meters).  Element m sits at grid index (m // n_y, m % n_y)."""

    n_x: int
    n_y: int
    dx: float
    dy: float


def _gather(T: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Block-Toeplitz R or Z, a new array: [m, n] = T[l_x + n_x - 1, l_y + n_y - 1] at
    the index lag (l_x, l_y), grid index of m minus that of n (see Lattice)."""
    n_x, n_y = lattice.n_x, lattice.n_y
    ix, iy = np.divmod(np.arange(n_x * n_y), n_y)
    k = ix * (2 * n_y - 1) + iy
    return T.ravel()[np.subtract.outer(k, k) + (n_x - 1) * (2 * n_y - 1) + n_y - 1]


def _lattice_axes(geom: ArrayGeometry):
    """The per-axis coordinates of a builder array whose element (i, j) sits
    exactly, bit for bit, at (x_i, y_j, z): x as (n_x, 1), y as (1, n_y) and
    z as (1, 1), so that an offset taken per axis broadcasts to the
    (n_x, n_y) grid in element order (see Lattice).  None for an array
    without a lattice record or one whose positions only match it to within
    the lattice check's tolerance."""
    if geom.lattice is None:
        return None
    pos, n_y = geom.positions, geom.lattice.n_y
    xs, ys = pos[::n_y, 0], pos[:n_y, 1]
    ix, iy = np.divmod(np.arange(len(pos)), n_y)
    if not np.array_equal(pos, np.stack([xs[ix], ys[iy], np.full(len(pos), pos[0, 2])], 1)):
        return None
    return xs[:, None], ys[None, :], pos[:1, 2:]


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Element positions (meters) and wavelength.

    Builders place arrays in the xy-plane centered at the origin and record
    their lattice, so the aperture size D counts one spacing-sized cell per
    element (a 100 x 50 grid at 0.01 m spacing spans 1 m x 0.5 m).  For
    caller-supplied position lists without a lattice, D falls back to the
    bounding-box diagonal of the positions.  Two elements closer than 1e-6
    wavelengths are refused as coincident: a lattice by its spacings, caller
    positions by a sort-and-sweep along their widest axis.
    """

    positions: np.ndarray  # (M, 3)
    wavelength: float
    lattice: Lattice | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ContractError(f"positions must be (M, 3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ContractError("element positions must be finite")
        if not (math.isfinite(self.wavelength) and self.wavelength > 0):
            raise ContractError(f"wavelength must be finite and positive, got {self.wavelength}")
        tol = _MIN_SEPARATION * self.wavelength
        close = ContractError("element positions must be pairwise distinct: two lie closer "
                              f"than {_MIN_SEPARATION:g} wavelengths")
        if self.lattice is None:
            if _has_close_pair(pos, tol):
                raise close
        else:
            try:
                n_x, n_y, dx, dy = self.lattice
                lattice = Lattice(operator.index(n_x), operator.index(n_y), float(dx), float(dy))
            except (TypeError, ValueError):
                raise ContractError("lattice must be (n_x, n_y, dx, dy) with integer counts") from None
            object.__setattr__(self, "lattice", lattice)
            n_x, n_y, dx, dy = lattice
            if n_x * n_y != pos.shape[0]:
                raise ContractError("lattice does not match the element positions")
            ix, iy = np.divmod(np.arange(pos.shape[0]), n_y)
            offsets = np.stack([ix * dx, iy * dy, np.zeros(len(ix))], axis=1)
            scale = max(float(np.abs(pos).max()), self.wavelength)
            if np.abs(pos - pos[0] - offsets).max() > 1e-9 * scale:
                raise ContractError("lattice does not match the element positions")
            # the closest elements of a lattice are neighbours along one axis
            if (n_x > 1 and abs(dx) < tol) or (n_y > 1 and abs(dy) < tol):
                raise close
        object.__setattr__(self, "positions", pos)

    @property
    def num_elements(self) -> int:
        return self.positions.shape[0]

    @property
    def aperture(self) -> float:
        """Largest array dimension D (the diagonal), meters."""
        if self.lattice is not None:
            n_x, n_y, dx, dy = self.lattice
            return float(np.hypot(n_x * dx if n_x > 1 else 0.0, n_y * dy if n_y > 1 else 0.0))
        span = self.positions.max(axis=0) - self.positions.min(axis=0)
        return float(np.linalg.norm(span))


@dataclass(frozen=True)
class RegionBounds:
    """Field-region boundary distances for an aperture of size D."""

    d_reactive: float    # 0.62 sqrt(D^3 / lambda)
    d_power: float       # 2 D, inside which power varies noticeably over the array
    d_fraunhofer: float  # 2 D^2 / lambda
    aperture: float      # D


def build_upa(n_x: int, n_y: int, dx: float, dy: float, wavelength: float) -> ArrayGeometry:
    """Uniform planar array in the xy-plane, centered at the origin.

    Element (n, m) sits at ((n - (N_x+1)/2) dx, (m - (N_y+1)/2) dy, 0) for
    1-based n, m.  A ULA is the n_y = 1 case.
    """
    if n_x < 1 or n_y < 1:
        raise ContractError("element counts must be >= 1")
    if not (0 < dx < math.inf and 0 < dy < math.inf):
        raise ContractError(f"spacings must be finite and positive, got {dx}, {dy}")
    xs = (np.arange(1, n_x + 1) - (n_x + 1) / 2) * dx
    ys = (np.arange(1, n_y + 1) - (n_y + 1) / 2) * dy
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pos = np.stack([X.ravel(), Y.ravel(), np.zeros(n_x * n_y)], axis=1)
    return ArrayGeometry(pos, wavelength, Lattice(n_x, n_y, dx, dy))


def build_ula(n: int, spacing: float, wavelength: float) -> ArrayGeometry:
    """Uniform linear array along x, centered at the origin."""
    return build_upa(n, 1, spacing, spacing, wavelength)


def region_bounds(geom: ArrayGeometry) -> RegionBounds:
    """Reactive, power-variation, and Fraunhofer boundaries of the array.

    For a single element D = 0 and all bounds are 0.  The identities
    d_F = 2 D^2 / lambda, d_B = 2 D and d_F / d_B = D / lambda hold exactly.
    """
    D = geom.aperture
    lam = geom.wavelength
    return RegionBounds(
        d_reactive=0.62 * np.sqrt(D ** 3 / lam),
        d_power=2.0 * D,
        d_fraunhofer=2.0 * D ** 2 / lam,
        aperture=D,
    )


def fraunhofer_square(n: int, spacing: float, wavelength: float) -> float:
    """Fraunhofer distance 4 N^2 Delta^2 / lambda of an N x N square array.

    Equals 2 D^2 / lambda with D = sqrt(2) N Delta, the diagonal of the
    square aperture spanned by N antennas at the given spacing.
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    if not (0 < spacing < math.inf and 0 < wavelength < math.inf):
        raise ContractError("spacing and wavelength must be finite and positive")
    return 4.0 * n ** 2 * spacing ** 2 / wavelength
