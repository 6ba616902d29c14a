"""Line-of-sight and correlated-Rayleigh channel generation.

Phasor convention is e^{+j omega t}, as in the fields module: a path of
length d carries the phase e^{-j kappa d}.  The circuit module's impedances
use e^{-j omega t}, so their phases are the conjugates of this convention's.

Spatial correlation follows the geometric model R = beta * integral of
f(az, el) s(az, el) s(az, el)^H over the front hemisphere, with f a density
per steradian and s the far-field array response.  correlation_matrix uses
the structure it is given:

* the profile that isotropic_profile() builds, on an array in one plane
  z = const, has the exact closed form beta * sinc(2 |p_m - p_n| / lambda):
  the hemisphere average equals the full-sphere Clarke correlation by up/down
  symmetry, so no quadrature runs;
* any other profile is integrated on a Gauss-Legendre grid that resolves the
  aperture.

On a builder array (one with a Lattice) R[m, n] depends only on the index
lag, so either way one (2 N_x - 1) x (2 N_y - 1) lag table is filled, and R
is gathered from it only when it is read; arrays built from caller positions
form the pairwise closed form or the dense sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError, SingularityError
from .geometry import ArrayGeometry, Lattice, _gather, _lattice_axes
from .numerics import (QuadratureGrid, RngStream, _check_hermitian, _gauss_legendre,
                       complex_gaussian, hemisphere_grid, hermitian_eig, sinc,
                       unit_directions)

__all__ = [
    "ScatteringProfile",
    "SpatialCorrelation",
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
    front hemisphere (the profiles built here to within 1e-12).
    """

    beta: float
    density: Callable[[np.ndarray, np.ndarray], np.ndarray]


class SpatialCorrelation:
    """Hermitian PSD spatial correlation matrix R with its average gain beta.

    SpatialCorrelation(R, beta) keeps a read-only copy of a formed R, checked
    once here: one square M x M matrix, M >= 1 (else ContractError naming its
    shape), finite (DomainError) and Hermitian within 1e-10 ||R||_F
    (ContractError).  correlation_matrix on a builder array keeps the
    (2 N_x - 1) x (2 N_y - 1) lag table T and the lattice instead, and
    gathers R[m, n] = T at the index lag of elements m and n on the first
    read of R; num_antennas and, for a real table even in each axis,
    spectrum never read it.  R is read-only, so every later caller can share it.
    """

    def __init__(self, R: np.ndarray, beta: float):
        R = np.array(R)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] < 1:
            raise ContractError("R must be a square M x M matrix with M >= 1, "
                                f"got shape {R.shape}")
        _check_hermitian(R, "R")
        R.flags.writeable = False
        self._R, self._lags, self.beta = R, None, beta

    @classmethod
    def _from_lags(cls, T: np.ndarray, lattice: Lattice, beta: float) -> SpatialCorrelation:
        """The correlation of a builder array with lattice `lattice`, from its
        lag table T (geometry._gather); R, exactly Hermitian, is gathered on first read."""
        T.flags.writeable = False
        corr = cls.__new__(cls)
        corr._R, corr._lags, corr.beta = None, (T, lattice), beta
        return corr

    @property
    def R(self) -> np.ndarray:
        if self._R is None:
            self._R = _gather(*self._lags)
            self._R.flags.writeable = False
        return self._R

    @property
    def num_antennas(self) -> int:
        if self._lags is not None:
            return self._lags[1].n_x * self._lags[1].n_y
        return self.R.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of R, descending and read-only, computed once.

        A lag table that is exactly real and even in each axis (the isotropic
        closed form: hypot(-a, b) == hypot(a, b) bit for bit) makes R commute
        with the reflection of either lattice axis, so the spectrum is that of
        the parity blocks gathered from T, about M/4 on a side, split once more
        on a square lattice with dx == dy (see _parity_spectrum); R is never
        formed.  Any other correlation reads the eigenvalues of its one eig.
        """
        T = None if self._lags is None else _real_even(self._lags[0])
        if T is None:
            return self.eig[0]
        w = _parity_spectrum(T, self._lags[1])
        w.flags.writeable = False
        return w

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues descending, eigenvectors) of R, from one hermitian_eig.

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


def _real_even(T: np.ndarray) -> np.ndarray | None:
    """The real part of a lag table that is exactly real and even in each
    axis, T[-l_x, l_y] == T[l_x, l_y] == T[l_x, -l_y]; None for any other."""
    if np.any(T.imag):
        return None
    T = T.real
    return T if np.array_equal(T, T[::-1]) and np.array_equal(T, T[:, ::-1]) else None


def _fold(T: np.ndarray, n: int, s: int) -> np.ndarray:
    """The parity-s block (s = 1 even, -1 odd) of one lattice axis of n
    elements, gathered along the first axis of T, which holds the lags
    1 - n .. n - 1 and is even in them: shape (h, h) + T.shape[1:].

    The even vectors are (e_a + e_{n-1-a}) / sqrt 2 for a < n // 2, plus the
    middle element e_{n // 2} for odd n; the odd ones take a minus sign.  So
    B[a, b] = T[a - b] + s T[a + b - n + 1], except that the middle row and
    column of an even block hold sqrt 2 T[a - n // 2] and its corner T[0],
    so a single element (n = 1) is its own even block, T[0].  For one axis
    this is Cantoni and Butler's split of a centrosymmetric matrix (Linear
    Algebra Appl. 13, 1976) into A + B and A - B.
    """
    h = (n + (s > 0)) // 2
    a = np.arange(h)
    direct = T[np.subtract.outer(a, a) + n - 1]
    B = direct + s * T[np.add.outer(a, a)]
    if n % 2 and s > 0:
        m = h - 1
        B[:m, m] = np.sqrt(2.0) * direct[:m, m]
        B[m, :m] = np.sqrt(2.0) * direct[m, :m]
        B[m, m] = direct[m, m]
    return B


def _parity_spectrum(T: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Eigenvalues, descending, of the R gathered from a real lag table T
    even in each axis, from its parity blocks: even or odd under the
    reflection of the x axis, by even or odd under that of the y axis
    (an axis of one element has only the even one).  The block of parities
    (s_x, s_y) has entries B[(a, c), (b, d)] = T(a - b, c - d)
    + s_x T(a + b - N_x + 1, c - d) + s_y T(a - b, c + d - N_y + 1)
    + s_x s_y T(a + b - N_x + 1, c + d - N_y + 1), the x fold taken first
    (see _fold).

    A square lattice with T == T.T exactly (dx == dy) also commutes with the
    axis swap (a, c) -> (c, a), which maps block (1, -1) onto (-1, 1), so one
    spectrum serves both, and splits blocks (1, 1) and (-1, -1) in two (see
    _swap_split); that moves the spectrum by rounding only."""
    n_x, n_y = lattice.n_x, lattice.n_y
    swap = n_x == n_y > 1 and np.array_equal(T, T.T)
    w = {}
    for s_x in (1, -1)[:min(n_x, 2)]:
        U = np.moveaxis(_fold(T, n_x, s_x), 2, 0)  # (2 N_y - 1, h_x, h_x)
        for s_y in (1, -1)[:min(n_y, 2)]:
            if swap and (s_x, s_y) == (-1, 1):
                w[s_x, s_y] = w[1, -1]
                continue
            V = _fold(U, n_y, s_y)  # (h_y, h_y, h_x, h_x)
            h = V.shape[0] * V.shape[2]
            B = V.transpose(2, 0, 3, 1).reshape(h, h)
            blocks = _swap_split(B, V.shape[0]) if swap and s_x == s_y else (B,)
            w[s_x, s_y] = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
    return np.sort(np.concatenate(list(w.values())))[::-1]


def _swap_split(B: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of B (side h^2, index a h + c, commuting with (a, c) -> (c, a))
    on the bases e_(a,a) and (e_(a,c) + e_(c,a)) / sqrt 2, and (e_(a,c) -
    e_(c,a)) / sqrt 2, for a < c: gathered as k_p k_q (B[p, q] + B[p, swap q]),
    k = 1 / sqrt 2 where a = c and 1 elsewhere, and B[p, q] - B[p, swap q]."""
    a, c = np.triu_indices(h)
    p, q = a * h + c, c * h + a
    k = np.where(a == c, np.sqrt(0.5), 1.0)
    sym = k[:, None] * (B[np.ix_(p, p)] + B[np.ix_(p, q)]) * k
    off = a < c
    p, q = p[off], q[off]
    return sym, B[np.ix_(p, p)] - B[np.ix_(p, q)]


def _as_correlation(corr: SpatialCorrelation | np.ndarray) -> SpatialCorrelation:
    """A SpatialCorrelation as it is; a bare matrix R wrapped, with the checks
    of SpatialCorrelation(R, beta), at the average gain trace(R) / M."""
    if isinstance(corr, SpatialCorrelation):
        return corr
    corr = SpatialCorrelation(corr, 0.0)
    corr.beta = float(np.trace(corr.R).real) / corr.num_antennas  # of the checked copy
    return corr


def _isotropic_density(az, el) -> np.ndarray:
    """1/(2 pi) per steradian.  correlation_matrix recognises the isotropic
    profile by the identity of this function."""
    return np.full_like(np.asarray(az, dtype=float), 1.0 / (2.0 * np.pi))


def isotropic_profile(beta: float = 1.0) -> ScatteringProfile:
    """Uniform density 1/(2 pi) per steradian over the front hemisphere."""
    return ScatteringProfile(beta=beta, density=_isotropic_density)


def gaussian_cluster_profile(centers, std: float, beta: float = 1.0,
                             weights=None) -> ScatteringProfile:
    """Mixture of truncated bivariate Gaussians in (azimuth, elevation).

    Each cluster is isotropic in the two angle coordinates with the given
    angular standard deviation (radians), truncated to the front hemisphere
    and renormalized so the mixture integrates to 1.  A cluster's mass is
    separable: its azimuth factor is exact by erf and its elevation factor
    comes from one cached 64-node Gauss-Legendre rule (see _cluster_mass), so
    no two-dimensional grid is built and the density integrates to 1 within
    1e-12 at any std.  A non-finite std, centre or weight raises DomainError.
    """
    if not math.isfinite(std):
        raise DomainError(f"angular std must be finite, got {std!r}")
    if std <= 0:
        raise ContractError("angular std must be positive")
    centers = [(float(a), float(e)) for (a, e) in centers]
    if not all(math.isfinite(a) and math.isfinite(e) for a, e in centers):
        raise DomainError(f"cluster centers must be finite, got {centers}")
    for a, e in centers:
        if abs(a) > np.pi / 2 or abs(e) > np.pi / 2:
            raise ContractError("cluster centers must lie in the front hemisphere")
    if weights is None:
        weights = np.full(len(centers), 1.0 / len(centers))
    else:
        weights = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(weights)):
            raise DomainError(f"cluster weights must be finite, got {weights}")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ContractError("cluster weights must sum to 1")

    def unnormalized(az, el):
        az = np.asarray(az, dtype=float)
        el = np.asarray(el, dtype=float)
        out = np.zeros_like(az)
        for w, (ca, ce) in zip(weights, centers):
            out += w * np.exp(-((az - ca) ** 2 + (el - ce) ** 2) / (2.0 * std ** 2))
        return out

    norm = sum(w * _cluster_mass(ca, ce, std) for w, (ca, ce) in zip(weights, centers))
    return ScatteringProfile(beta=beta, density=lambda az, el: unnormalized(az, el) / norm)


# the elevation factor of a cluster's mass: a Gauss-Legendre rule of
# _CLUSTER_NODES nodes on the window of _CLUSTER_WINDOW standard deviations
# either side of the centre, clipped to the hemisphere.  Against mpmath, for
# std from 0.1 to 90 degrees and centres from the horizon to the poles, the
# factor is within 1.1e-14 (3.6e-15 off the poles); the Gaussian beyond 9 std
# is below 3e-18 of the mass.
_CLUSTER_NODES = 64
_CLUSTER_WINDOW = 9.0


def _cluster_mass(ca: float, ce: float, std: float) -> float:
    """Solid-angle integral of exp(-((az - ca)^2 + (el - ce)^2) / (2 std^2))
    over the front hemisphere, as the product of its azimuth factor, exact by
    erf, and its elevation factor, the integral against cos(el) on one
    Gauss-Legendre rule."""
    half, s = np.pi / 2, std * math.sqrt(2.0)
    azimuth = std * math.sqrt(np.pi / 2) * (math.erf((half - ca) / s) + math.erf((half + ca) / s))
    lo = max(ce - _CLUSTER_WINDOW * std, -half)
    hi = min(ce + _CLUSTER_WINDOW * std, half)
    x, w = _gauss_legendre(_CLUSTER_NODES)
    el = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    elevation = 0.5 * (hi - lo) * float(w @ (np.exp(-(el - ce) ** 2 / (2.0 * std ** 2))
                                              * np.cos(el)))
    return azimuth * elevation


def steering_matrix(geom: ArrayGeometry, azimuth: np.ndarray,
                    elevation: np.ndarray) -> np.ndarray:
    """Array responses for many directions at once, shape (Q, M)."""
    u = unit_directions(azimuth, elevation)
    kappa = 2.0 * np.pi / geom.wavelength
    S = -1j * kappa * (u @ geom.positions.T)
    np.exp(S, out=S)
    return S


def _is_planar_in_z(geom: ArrayGeometry) -> bool:
    zs = geom.positions[:, 2]
    return bool(np.ptp(zs) <= 1e-12 * max(1.0, np.abs(zs).max()))


def _plane_z(geom: ArrayGeometry) -> float:
    if not _is_planar_in_z(geom):
        raise DomainError("geometry is not planar in z; broadside distance undefined")
    return float(geom.positions[:, 2].mean())


def los_channel(geom: ArrayGeometry, tx, mode: str = "exact",
                amplitude: str = "common") -> np.ndarray:
    """Line-of-sight channel vector from a point transmitter.

    mode "exact" uses spherical-wave distances in the phase; "fresnel" uses
    the paraxial expansion z + ((tx_x - p_x)^2 + (tx_y - p_y)^2) / (2 z)
    about the array's broadside axis.  amplitude "common" applies the single
    coefficient lambda / (4 pi z) with z the broadside (normal
    component) distance of the transmitter; "per-element" uses each exact
    distance instead (for asymptotic studies where power variation matters).
    A (3,) tx gives the (M,) channel, a (K, 3) batch the (M, K) matrix of them;
    every coordinate must be finite.

    Squared distances sum (dx^2 + dy^2) + dz^2, in np.linalg.norm's order.
    On a builder array whose positions are exactly per-axis coordinates
    (geometry._lattice_axes) each offset is squared per axis, as (K, n_x, 1),
    (K, 1, n_y) and (K, 1, 1) tables, and only their sum is formed at full
    size.  Any other array takes the pairwise offsets, as (K, M, 1) tables.
    """
    if mode not in ("exact", "fresnel"):
        raise DomainError(f"unknown mode {mode!r}")
    if amplitude not in ("common", "per-element"):
        raise DomainError(f"unknown amplitude convention {amplitude!r}")
    tx = np.asarray(tx, dtype=float)
    if tx.shape[-1:] != (3,) or tx.ndim > 2:
        raise ContractError(f"tx must be (3,) or (K, 3), got shape {tx.shape}")
    if not np.all(np.isfinite(tx)):
        raise DomainError("tx must be finite: a transmitter position holds NaN or inf")
    t = np.atleast_2d(tx)  # (K, 3) against the (M, 3) elements
    lam = geom.wavelength
    axes = _lattice_axes(geom) or [geom.positions[:, a, None] for a in range(3)]
    dx2, dy2, dz2 = (np.subtract(t[:, a, None, None], c) for a, c in enumerate(axes))
    for d in (dx2, dy2, dz2):
        d *= d
    trans2 = np.add(dx2, dy2, out=dx2 if dy2.shape[2] == 1 else None)  # dx^2 + dy^2
    dist = np.add(trans2, dz2, out=dz2 if dz2.shape == trans2.shape else None)
    dist = np.sqrt(dist, out=dist)
    if np.any(dist == 0):
        raise SingularityError("transmitter coincides with an array element")

    z = np.abs(t[:, 2, None, None] - _plane_z(geom))  # (K, 1, 1)
    if mode == "fresnel":
        if np.any(z <= 0):
            raise DomainError("fresnel mode requires the transmitter off the array plane")
        path = trans2
        path /= 2.0 * z
        path += z
    else:
        path = dist

    if amplitude == "common" and np.any(z <= 0):
        raise DomainError("common amplitude requires the transmitter off the array plane")
    r = z if amplitude == "common" else dist
    h = -2j * np.pi / lam * path  # the phase, then the wave, then times the amplitude
    np.exp(h, out=h)
    h *= lam / (4.0 * np.pi * r)
    h = h.reshape(len(t), geom.num_elements)
    return h.T if tx.ndim == 2 else h[0]


# Gauss-Legendre nodes per axis that resolve R for an aperture spanning
# kappa * D_max radians of phase: kappa * D_max + _NODES_MIN.
# In a convergence study (Gaussian clusters of 10 and 20 degrees and the
# isotropic density, ULAs and UPAs with kappa * D_max from 16 to 399, against
# 600- and 700-node references) 1e-12 relative needed at most kappa * D_max + 18
# nodes per axis, and 49 for the smallest array, where the 10-degree clusters
# rather than the aperture set the count; 40 leaves a margin over 18.  The
# default grid never goes below 180 x 90; see test_channel.TestGridResolution.
_NODES_MIN = 40
# complex entries of one quadrature chunk of the dense caller-position sum:
# memory is O(M^2 + chunk)
_CHUNK_ENTRIES = 1 << 18
# complex entries of the lag table's one phase buffer, N_x x nodes: small
# enough to stay in L2 across the chunks that reuse it
_LAG_CHUNK_ENTRIES = 1 << 14


def _nodes_needed(geom: ArrayGeometry) -> int:
    """Nodes per axis for the aperture, from kappa * D_max, with D_max the
    bounding-box diagonal: the largest separation of a lattice, an upper
    bound on it otherwise."""
    d_max = float(np.linalg.norm(np.ptp(geom.positions, axis=0)))
    return int(np.ceil(2.0 * np.pi * d_max / geom.wavelength)) + _NODES_MIN


def _chunks(size: int, step: int):
    return (slice(s, s + step) for s in range(0, size, step))


def _lag_table(geom: ArrayGeometry, grid: QuadratureGrid, g: np.ndarray) -> np.ndarray:
    """T[l_x + N_x - 1, l_y + N_y - 1] = R between elements at index lag
    (l_x, l_y) of a builder array, shape (2 N_x - 1, 2 N_y - 1), with
    g = f * w * beta at the grid nodes.

    T = sum_q g_q A_q^T B_q with A_q = z_q^{l_x}, z_q = exp(-j kappa u_x dx),
    which varies with the node, and B_q = exp(-j kappa u_y l_y dy), where
    u_y = sin(el) depends on the elevation alone.  So g A is summed over the
    nodes of each elevation ring (found by sorting, whatever the node order
    of the grid), in node chunks, and multiplied once by B at the distinct
    elevations.  Each chunk fills g z^{l_x} by block doubling, rows
    [k, 2k) = rows [0, k) * z^k with z^k squared from z, in one N_x x chunk
    buffer reused across the chunks: one exp per node instead of one per
    node and lag, at about log2(N_x) roundings per entry.  Only the
    half-plane l_x >= 0 is built; T[-l] = conj T[l] gives the rest, so R
    gathered from T is exactly Hermitian.
    """
    n_x, n_y, dx, dy = geom.lattice
    kappa = 2.0 * np.pi / geom.wavelength
    ly = np.arange(n_y) * dy
    order = np.argsort(grid.elevation, kind="stable")
    az, el, g = grid.azimuth[order], grid.elevation[order], g[order]
    first = np.concatenate([[True], el[1:] != el[:-1]])  # each ring's first node
    ring = np.cumsum(first) - 1
    rings = np.zeros((n_x, int(first.sum())), dtype=complex)  # g A summed per ring
    step = max(1, _LAG_CHUNK_ENTRIES // n_x)
    buf = np.empty((n_x, min(step, grid.size)), dtype=complex)
    for s in _chunks(grid.size, step):
        # (l_x, node) layout: the ring sums run along contiguous memory
        z = np.exp(-1j * kappa * dx * (np.sin(az[s]) * np.cos(el[s])))
        gA = buf[:, :z.size]
        gA[0] = g[s]
        k = 1
        while k < n_x:
            np.multiply(gA[:min(k, n_x - k)], z, out=gA[k:2 * k])
            k *= 2
            if k < n_x:
                z *= z
        starts = np.flatnonzero(np.r_[True, first[s][1:]])  # ring boundaries in the chunk
        rings[:, ring[s][starts]] += np.add.reduceat(gA, starts, axis=1)
    B = np.exp(-1j * kappa * np.outer(np.sin(el[first]), ly))  # l_y >= 0; conj for l_y < 0
    half = rings @ np.concatenate([B[:, :0:-1].conj(), B], axis=1)
    # the l_x = 0 row from its l_y >= 0 half, with a real centre
    half[0, :n_y - 1] = half[0, :n_y - 1:-1].conj()
    half[0, n_y - 1] = half[0, n_y - 1].real
    return np.concatenate([half[:0:-1, ::-1].conj(), half])


def correlation_matrix(geom: ArrayGeometry, profile: ScatteringProfile,
                       grid: QuadratureGrid | None = None) -> SpatialCorrelation:
    """Spatial correlation matrix of the angular scattering model.

    The profile must integrate to 1 on the grid (contract check at 1e-3; a
    NaN integral fails it); trace(R) then equals M beta to the same accuracy.  Which path runs:

    * the profile of isotropic_profile() on an array in one plane z = const:
      the exact closed form beta * sinc(2 |p_m - p_n| / lambda).  A builder
      array fills its lag table T[l] = beta * sinc(2 hypot(l_x dx, l_y dy) /
      lambda); caller positions take it pairwise.  The grid (default
      hemisphere_grid(), on which the density 1/(2 pi) integrates to 1
      within 1e-12) only serves the normalisation check, which a grid the
      caller passes must pass too.
    * any other profile or array: quadrature beta * sum_q f_q w_q s_q s_q^H,
      accumulated over node chunks.  A builder array fills its lag table
      (see _lag_table: f w beta A summed per elevation ring, then one product
      with the elevation factor B); an array from caller positions forms the
      dense sum and is symmetrised.  With
      grid=None the grid has n nodes per axis, n from kappa * D_max (D_max
      the largest element separation), and never fewer than 180 x 90; a
      caller's grid with fewer than n distinct azimuth or elevation nodes
      raises ContractError.

    On a builder array the result keeps the lag table and gathers R from it
    on first access (see SpatialCorrelation), so a caller that needs only the
    spectrum never forms the M x M matrix.  R is complex and read-only, so
    the operators estimators prepare from it cannot go stale, and exactly
    Hermitian on the closed-form and lag-table paths.  The isotropic lag
    table of a builder array is real and even in each axis, because
    hypot(-a, b) == hypot(a, b) bit for bit, so its R commutes with the
    reflection of either lattice axis (and is exactly centrosymmetric,
    R[::-1, ::-1] == R); SpatialCorrelation.spectrum splits it into parity
    blocks, and a square one with dx == dy further by the axis swap.
    """
    closed_form = profile.density is _isotropic_density and _is_planar_in_z(geom)
    if grid is None:
        n = 0 if closed_form else _nodes_needed(geom)
        grid = hemisphere_grid(max(180, n), max(90, n))
    elif not closed_form:
        n = _nodes_needed(geom)
        n_az, n_el = np.unique(grid.azimuth).size, np.unique(grid.elevation).size
        if min(n_az, n_el) < n:
            raise ContractError(f"a grid of {n_az} x {n_el} nodes is too coarse for this "
                                f"aperture, which needs {n} nodes per axis")
    f = profile.density(grid.azimuth, grid.elevation)  # evaluated once, for both uses
    total = float(np.real(grid.integrate(f)))
    if not abs(total - 1.0) <= 1e-3:  # so that a NaN total fails too
        raise ContractError(
            f"scattering density integrates to {total:.6f} on this grid, not 1"
        )
    beta = profile.beta
    if closed_form and geom.lattice is not None:
        n_x, n_y, dx, dy = geom.lattice
        lags = np.hypot.outer(np.arange(1 - n_x, n_x) * dx, np.arange(1 - n_y, n_y) * dy)
        T = (beta * sinc(2.0 * lags / geom.wavelength)).astype(complex)
        return SpatialCorrelation._from_lags(T, geom.lattice, beta)
    if closed_form:
        x, y = geom.positions[:, 0], geom.positions[:, 1]
        d = np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y))
        R = beta * sinc(2.0 * d / geom.wavelength) + 0j
    else:
        g = f * grid.weights * beta
        if geom.lattice is not None:
            return SpatialCorrelation._from_lags(_lag_table(geom, grid, g), geom.lattice, beta)
        m = geom.num_elements
        R = np.zeros((m, m), dtype=complex)
        for s in _chunks(grid.size, max(1, _CHUNK_ENTRIES // m)):
            S = steering_matrix(geom, grid.azimuth[s], grid.elevation[s])
            R += (S.T * g[s]) @ S.conj()
        R = 0.5 * (R + R.conj().T)
    return SpatialCorrelation(R, beta)


def sample_rayleigh(corr: SpatialCorrelation | np.ndarray, stream: RngStream,
                    size: int | None = None) -> np.ndarray:
    """Draw h = R^{1/2} w, w ~ CN(0, I), via the eigendecomposition of R.

    size=None gives one (M,) draw; an int size gives an (M, size) batch of
    independent columns, from the one block complex_gaussian((M, size),
    stream).  A SpatialCorrelation computes the eigendecomposition and the
    factor R^{1/2} once and reuses them on every draw.  Small negative
    eigenvalues from quadrature are clamped at zero; one below -1e-8 * trace
    violates the PSD contract, and a NaN or inf in R raises DomainError."""
    corr = _as_correlation(corr)
    root, Uh = corr._rayleigh_factor
    m = corr.num_antennas
    noise = complex_gaussian(m if size is None else (m, size), stream)
    return root @ (Uh @ noise)
