"""Special functions, quadrature grids, linear-algebra contracts, and seeded RNG streams.

Everything downstream (channel statistics, beam geometry, estimators, circuit
models) builds on the primitives in this module, so their inputs are checked
on every call:

- hermitian_eig: A is finite (DomainError) and Hermitian within
  1e-10 ||A||_F (ContractError);
- svd: A is finite (DomainError);
- fresnel_cs: x is finite (DomainError); scipy.special.fresnel is imported
  on first use.

The random streams are bitwise reproducible.  How closely a decomposition
reconstructs its input is left to LAPACK and checked by the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, Philox, SeedSequence

from .errors import ContractError, DomainError

__all__ = [
    "QuadratureGrid",
    "RngStream",
    "fresnel_cs",
    "sinc",
    "hermitian_eig",
    "svd",
    "complex_gaussian",
    "hemisphere_grid",
    "sphere_grid",
    "unit_directions",
]


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor product quadrature over (azimuth, elevation) direction angles.

    The weights carry the cos(elevation) solid-angle Jacobian, so for any
    function ``f(az, el)`` the sum ``(f(azimuth, elevation) * weights).sum()``
    approximates the solid-angle integral of f over the covered region.
    Integrating the constant 1 over the front hemisphere returns 2*pi.
    """

    azimuth: np.ndarray    # flat array, radians
    elevation: np.ndarray  # flat array, radians
    weights: np.ndarray    # flat array, strictly positive, includes cos(el)

    def __post_init__(self):
        if not (len(self.azimuth) == len(self.elevation) == len(self.weights)):
            raise ContractError("grid arrays must have equal length")
        if np.any(self.weights <= 0):
            raise ContractError("quadrature weights must be strictly positive")

    @property
    def size(self) -> int:
        return len(self.weights)

    def integrate(self, values: np.ndarray) -> complex | float:
        if len(values) != self.size:
            raise ContractError("sample count does not match grid size")
        return (values * self.weights).sum()


def unit_directions(azimuth, elevation) -> np.ndarray:
    """Unit propagation directions u(az, el), shape (..., 3).

    Convention: azimuth measured from the array normal (+z) in the xz
    plane, elevation toward +y, so a planar array in the xy-plane sees
    u = (sin az cos el, sin el, cos az cos el).
    """
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    return np.stack([np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=-1)


@lru_cache(maxsize=16)
def _gauss_legendre(n: int):
    """Read-only (nodes, weights) of the n-node Gauss-Legendre rule on
    [-1, 1], computed once per node count and shared by the grids and the
    one-dimensional integrals built on it."""
    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


@lru_cache(maxsize=16)
def _grid_nodes(n_az: int, n_el: int, az_half: float):
    """Flat read-only (azimuth, elevation, weights) of the Gauss-Legendre
    grid over az in [-az_half, az_half], el in [-pi/2, pi/2], computed once
    per size from the per-axis rules of _gauss_legendre and shared by every
    grid of that size."""
    xa, wa = _gauss_legendre(n_az)
    xe, we = _gauss_legendre(n_el)
    AZ, EL = np.meshgrid(xa * az_half, xe * (np.pi / 2), indexing="ij")
    W = np.outer(wa, we) * (az_half * (np.pi / 2)) * np.cos(EL)
    nodes = AZ.ravel(), EL.ravel(), W.ravel()
    for a in nodes:
        a.flags.writeable = False
    return nodes


def hemisphere_grid(n_azimuth: int = 180, n_elevation: int = 90) -> QuadratureGrid:
    """Gauss-Legendre grid over the front hemisphere az, el in [-pi/2, pi/2];
    nodes and weights come from the builder sphere_grid shares, cached per
    size and read-only."""
    return QuadratureGrid(*_grid_nodes(n_azimuth, n_elevation, np.pi / 2))


def sphere_grid(n_azimuth: int = 360, n_elevation: int = 90) -> QuadratureGrid:
    """Gauss-Legendre grid over the full sphere, az in [-pi, pi]; nodes and
    weights come from the builder hemisphere_grid shares, cached per size and
    read-only."""
    return QuadratureGrid(*_grid_nodes(n_azimuth, n_elevation, np.pi))


# ---------------------------------------------------------------------------
# Seeded counter-based random streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """Counter-based (Philox) random stream keyed by (seed, stream id).

    generator() keys Philox with (seed, stream), so identical pairs reproduce
    identical draw sequences.  split(child) keeps the seed and derives the
    child's stream id from (this stream id, child), both mod 2^64, as
    SeedSequence([stream, child]).generate_state(1, uint64)[0]: a 64-bit
    hash, so children of distinct parents or distinct children of one parent
    get distinct keys barring a 2^-64 collision, and a tree of streams needs
    no coordination between workers.
    """

    seed: int
    stream: int = 0

    def generator(self) -> Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return Generator(Philox(key=key))

    def split(self, child: int) -> "RngStream":
        words = [self.stream & 0xFFFFFFFFFFFFFFFF, child & 0xFFFFFFFFFFFFFFFF]
        return RngStream(self.seed, int(SeedSequence(words).generate_state(1, np.uint64)[0]))


def complex_gaussian(shape, stream: RngStream) -> np.ndarray:
    """I.i.d. CN(0, 1) draws of the given shape (an int n gives n draws);
    (g[0] + j g[1]) / sqrt(2) of one standard_normal((2, *shape)) block, so
    deterministic for a fixed stream.  g[0] and g[1] are written into the
    real and imaginary views of one complex array, scaled in place by
    fl(1/sqrt(2)): numpy divides a complex by a real by that multiply, so
    these are the bits of the quotient, with no complex temporaries."""
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if any(n < 0 for n in shape):
        raise DomainError(f"shape must be nonnegative, got {shape}")
    g = stream.generator().standard_normal((2, *shape))
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = g
    z *= 1.0 / np.sqrt(2.0)
    return z


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def fresnel_cs(x: float) -> tuple[float, float]:
    """Fresnel integrals C(x) = int_0^x cos(pi t^2/2) dt and S(x) likewise.

    A checked wrapper over scipy.special.fresnel, which returns (S, C); this
    returns (C, S).  Both are odd in x.  scipy.special is imported on the
    first call, so importing the package loads numpy only.
    """
    if not math.isfinite(x):
        raise DomainError(f"fresnel_cs requires finite x, got {x}")
    from scipy.special import fresnel
    s, c = fresnel(x)
    return float(c), float(s)


def sinc(x) -> np.ndarray | float:
    """Normalized sinc sin(pi x)/(pi x) with sinc(0) = 1 exactly."""
    return np.sinc(x)


# ---------------------------------------------------------------------------
# Linear-algebra contracts (vetted dense routines behind checked interfaces)
# ---------------------------------------------------------------------------

def hermitian_eig(A: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with A = U diag(w) U^H and columns of
    U orthonormal.  Raises DomainError if A holds NaN or inf, ContractError
    if it deviates from Hermitian by more than 1e-10 * ||A||.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {A.shape}")
    _check_hermitian(A, "matrix")
    w, U = np.linalg.eigh(0.5 * (A + A.conj().T))
    return w[::-1], U[:, ::-1]


def _check_hermitian(A: np.ndarray, name: str) -> None:
    """DomainError naming A unless it is finite, ContractError unless
    ||A - A^H|| <= 1e-10 ||A||, Frobenius."""
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{name} must be finite: it holds NaN or inf")
    scale = np.linalg.norm(A)
    if scale > 0 and np.linalg.norm(A - A.conj().T) > 1e-10 * scale:
        raise ContractError(f"{name} is not Hermitian within tolerance")


def svd(A: np.ndarray):
    """Singular value decomposition A = U diag(s) V^H, s descending."""
    A = np.asarray(A)
    if not np.all(np.isfinite(A)):
        raise DomainError("svd requires finite entries")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    return s, U, Vh.conj().T
