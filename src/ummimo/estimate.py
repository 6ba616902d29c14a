"""Pilot-based channel estimation: LS, MMSE with water-filling pilot design,
reduced-subspace LS, and orthogonal matching pursuit over a far-field
dictionary."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (ConfigError, ContractError, DomainError, check_finite_nonnegative,
                     check_finite_positive)
from .geometry import ArrayGeometry
from .numerics import RngStream, complex_gaussian, svd
from .channel import (SpatialCorrelation, _as_correlation, correlation_matrix,
                      isotropic_profile, sample_rayleigh, steering_matrix)
from .dof import effective_rank
from .mux import waterfill_powers

__all__ = [
    "PilotMatrix",
    "Dictionary",
    "EstimatorResult",
    "orthogonal_pilot",
    "received_pilot",
    "ls_estimate",
    "mmse_estimate",
    "mmse_pilot_design",
    "rsls_estimate",
    "rsls_pilot",
    "isotropic_subspace",
    "build_ff_dictionary",
    "omp_estimate",
    "nmse_sweep",
]

_PINV_RTOL = 1e-10  # singular values below this times the largest are zero
_GRAM_ORTHOGONALITY = 1e-12  # largest normalised Gram off-diagonal _pinv treats as zero
_SUBSPACE_CAPTURE = 0.9999  # trace fraction isotropic_subspace keeps
_OMP_BLOCK_ENTRIES = 1 << 19  # columns x atoms of one OMP correlation block
_SENSING_BLOCK_COLUMNS = 256  # atoms per block of the OMP sensing product, a multiple of 64
_QR_REFIT_MARGIN = 1e-6  # largest condition bound x lstsq cut-off an OMP refit solves by QR


@dataclass(frozen=True, eq=False)
class PilotMatrix:
    """Pilot sequence matrix (tau_p x M), pilot power, and noise power.

    The average pilot power is normalized to one: trace(phi^H phi) = tau_p >= 1
    (ContractError); power must be finite and positive, noise_power finite and
    nonnegative (DomainError).  phi is a read-only copy of the caller's matrix.
    A pilot made by `_leading` keeps the pilot whose leading rows it took as
    its basis, and a basis keeps the OMP sensing matrix of one dictionary.
    """

    phi: np.ndarray
    power: float
    noise_power: float
    _basis: PilotMatrix | None = field(default=None, init=False, repr=False)
    _sensing_slot: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        phi = np.array(self.phi, dtype=complex)
        if phi.ndim != 2 or len(phi) < 1:
            raise ContractError(f"pilot matrix must be 2-D with tau_p >= 1 rows, got {phi.shape}")
        tau = phi.shape[0]
        energy = float(np.sum(np.abs(phi) ** 2))
        if not abs(energy - tau) <= 1e-8 * tau:  # a NaN energy fails too
            raise ContractError(
                f"trace(phi^H phi) = {energy:.9g}, expected tau_p = {tau}"
            )
        check_finite_positive(power=self.power)
        check_finite_nonnegative(noise_power=self.noise_power)
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def tau(self) -> int:
        return self.phi.shape[0]

    def _leading(self, tau: int) -> PilotMatrix:
        """The pilot of the leading tau rows of this one, 1 <= tau <= self.tau
        (else ContractError), at the same powers and with this pilot as its
        basis, whose OMP sensing matrix then serves it (see _omp_operator)."""
        if not 1 <= tau <= self.tau:
            raise ContractError(f"tau_p >= 1 and <= {self.tau} basis rows, got {tau}")
        child = PilotMatrix(self.phi[:tau], self.power, self.noise_power)
        object.__setattr__(child, "_basis", self)
        return child

    @property
    def num_antennas(self) -> int:
        return self.phi.shape[1]


def _freeze(*arrays):
    """Make arrays read-only, as arrays shared with later calls must be."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _unitary(m: int, stream: RngStream | None) -> np.ndarray:
    """The m x m unitary of orthogonal_pilot: the DFT without a stream, else
    Q^H from the QR of a complex Gaussian m x m drawn from the stream."""
    if stream is None:
        n = np.arange(m)
        return np.exp(-2j * np.pi * np.outer(n, n) / m) / np.sqrt(m)
    g = stream.generator()
    G = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    return np.linalg.qr(G)[0].conj().T


# ((m, stream), the read-only unitary _unitary gave for it): the last one only
_last_unitary: tuple = (None, None)


def orthogonal_pilot(m: int, tau: int, power: float, noise_power: float,
                     stream: RngStream | None = None) -> PilotMatrix:
    """Pilot with orthonormal rows (unitary when tau = m): row i is row
    i mod m of the m x m unitary F, the DFT without a stream, else Q^H from
    the QR of a seeded complex Gaussian m x m.  So the pilots of one stream
    are nested: the leading tau rows of F.  Householder QR forms Q's first
    tau columns from the first tau columns of the Gaussian alone, so those
    rows are Q^H of the thin QR of those columns, bit for bit where LAPACK
    factors unblocked (checked for m <= 64) and to rounding otherwise.

    F depends on (m, stream) alone, and the last F is kept, read-only: calls
    in a row with one (m, stream), as sweeps sharing a pilot stream make,
    draw and factor it once and get the same bits."""
    global _last_unitary
    if m < 1:
        raise ContractError(f"m must be >= 1, got {m}")
    key, F = _last_unitary
    if key != (m, stream):
        F = _freeze(_unitary(m, stream))[0]
        _last_unitary = (m, stream), F
    return PilotMatrix(F[np.arange(tau) % m], power, noise_power)


def received_pilot(pilot: PilotMatrix, h: np.ndarray, stream: RngStream) -> np.ndarray:
    """y = sqrt(p) phi h + n with n ~ CN(0, sigma^2 I), for one channel h (M,)
    or a batch (M, T); the noise is one complex_gaussian((tau_p, T)) block.
    A NaN or infinite entry of h is a DomainError."""
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (1, 2) or h.shape[0] != pilot.num_antennas:
        raise ContractError(f"channel has shape {h.shape}, pilot expects "
                            f"({pilot.num_antennas},) or ({pilot.num_antennas}, T)")
    if not np.all(np.isfinite(h)):
        raise DomainError("h must be finite: it holds NaN or inf")
    noise = np.sqrt(pilot.noise_power) * complex_gaussian((pilot.tau, *h.shape[1:]), stream)
    return np.sqrt(pilot.power) * (pilot.phi @ h) + noise


def _orthogonal_gram_pinv(A: np.ndarray) -> np.ndarray | None:
    """A^H D^-1 when A's rows are orthogonal, D^-1 A^H when its columns are
    (the smaller side's Gram G = A A^H or A^H A is then D = diag(G)), or None.

    Orthogonal means every normalised off-diagonal |G_ij| / sqrt(G_ii G_jj)
    is at most _GRAM_ORTHOGONALITY; and every G_ii must exceed _PINV_RTOL^2
    max G_ii (and the smallest normal float), so the SVD would cut no
    singular value sqrt(G_ii) and warn of nothing.  Both tests fail on a NaN
    or inf in G, so a non-finite A, or one whose Gram overflows, gives None.
    """
    rows = A.shape[0] <= A.shape[1]
    Ac = np.conjugate(A)  # a new array even for a real A, which A.conj() returns itself
    with np.errstate(over="ignore", invalid="ignore"):
        G = A @ Ac.T if rows else Ac.T @ A
    d = G.diagonal().real
    if not (d.size and d.min() > max(_PINV_RTOL ** 2 * d.max(), np.finfo(float).tiny)):
        return None
    off = np.abs(G)
    np.fill_diagonal(off, 0.0)
    s = np.sqrt(d)
    if not np.all(off <= _GRAM_ORTHOGONALITY * np.outer(s, s)):
        return None
    Ac /= d[:, None] if rows else d
    return Ac.T


def _pinv(A: np.ndarray) -> np.ndarray:
    """A^+; a RuntimeWarning at the caller of the estimator that called _pinv
    when A has at least as many rows as columns but the SVD cuts its rank.

    A with orthogonal rows or columns, as every pilot the sweeps design gives
    (nested unitary rows, a diagonal water-filled MMSE system, RS-LS's
    sqrt(tau_p / r) S), takes the closed form of _orthogonal_gram_pinv, equal
    to pinv(A) to rounding.  Every other A takes one numerics.svd by the steps
    of numpy's pinv at rcond=_PINV_RTOL: A^+ @ b is then bit for bit
    pinv(A) @ b, and a non-finite A raises DomainError.
    """
    P = _orthogonal_gram_pinv(A)
    if P is not None:
        return P
    s, U, V = svd(A.conj())  # numpy's pinv decomposes conj(A)
    large = s > _PINV_RTOL * s[0]
    if A.shape[0] >= A.shape[1] and not large.all():
        warnings.warn(f"rank-deficient {A.shape[0]} x {A.shape[1]} system (rank "
                      f"{int(large.sum())}); using pseudo-inverse", RuntimeWarning,
                      stacklevel=3)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return V.conj() @ (s_inv[:, None] * U.T)


def ls_estimate(y: np.ndarray, pilot: PilotMatrix) -> np.ndarray:
    """Least-squares estimate: the minimizer of ||y - sqrt(p) phi h||^2.

    phi^+ y / sqrt(p) with phi^+ from _pinv, which coincides with phi^{-1} y /
    sqrt(p) for square invertible pilots and extends to tau_p < M (then only
    the row space of phi is estimated).  A rank-deficient pilot with
    tau_p >= M degrades to the pseudo-inverse with a warning, on every call.

    y is one received pilot (tau_p,) or a batch (tau_p, T) with one pilot
    per column; the estimate is then (M,) or (M, T).  The map is linear, so
    a batch gives the column-wise estimates, and a NaN or inf in y passes
    through into the estimate unchecked.
    """
    return _pinv(pilot.phi) @ y / np.sqrt(pilot.power)


def mmse_estimate(y: np.ndarray, pilot: PilotMatrix,
                  corr: SpatialCorrelation | np.ndarray):
    """MMSE estimate and its analytic mean squared error.

    hhat = W y with W = sqrt(p) R phi^H A^{-1}, A = p phi R phi^H + sigma^2 I;
    MSE = tr(R) - sqrt(p) tr(W phi R), the trace summed elementwise from the
    tau_p x M phi R.  Returns (estimate, analytic_mse).
    Since A and R are Hermitian, W = (A^+ sqrt(p) phi R)^H, formed on every
    call with A^+ from _pinv, which warns at this function's caller when A
    is rank-deficient (sigma^2 = 0 and a singular phi R phi^H).

    y is (tau_p,) or a batch (tau_p, T), one received pilot per column; the
    estimate is then (M,) or (M, T), and the analytic MSE, which depends on
    the pilot alone, is the same either way; y = I gives W.  A NaN or inf in
    y passes through into the estimate unchecked.
    """
    R = _as_correlation(corr).R
    p, phi = pilot.power, pilot.phi
    phiR = phi @ R
    A = p * (phiR @ phi.conj().T) + pilot.noise_power * np.eye(pilot.tau)
    W = (_pinv(A) @ (np.sqrt(p) * phiR)).conj().T
    # tr(W phi R) as the O(M tau) sum of W^T * (phi R), not an M x M product
    mse = float(np.trace(R).real - np.sqrt(p) * (W.T * phiR).sum().real)
    return W @ y, mse


def mmse_pilot_design(corr: SpatialCorrelation | np.ndarray, power: float,
                      noise_power: float, tau: int) -> PilotMatrix:
    """MSE-optimal pilot phi = D U^H with water-filling power allocation.

    U holds the eigenvectors of R (eigenvalues descending); the tau_p
    strongest directions receive the powers mux.waterfill_powers assigns to
    the gains p lambda_m / sigma^2 under the budget tau_p.  At zero noise
    every direction with energy has infinite gain and an equal share.
    """
    corr = _as_correlation(corr)
    if tau > corr.num_antennas:
        raise ContractError("tau_p must not exceed the antenna count")
    w, U = corr.eig
    lam = np.clip(w[:tau], 0.0, None)
    if np.all(lam <= 0):
        raise ContractError("correlation matrix has no energy to sound")
    if noise_power > 0:
        gains = power * lam / noise_power
    else:
        gains = np.where(lam > 0, np.inf, 0.0)
    d = np.sqrt(waterfill_powers(gains, tau))
    phi = d[:, None] * U[:, :tau].conj().T
    return PilotMatrix(phi, power, noise_power)


def rsls_estimate(y: np.ndarray, pilot: PilotMatrix, subspace: np.ndarray) -> np.ndarray:
    """Reduced-subspace LS: least squares restricted to span(subspace).

    subspace is M x r with orthonormal columns and tau_p >= r.  The estimate
    is U (phi U)^+ y / sqrt(p) with (phi U)^+ from _pinv: LS with phi U for
    phi, so a rank-deficient phi U warns.  Noise in the orthogonal complement
    is removed entirely; the estimate always lies in the subspace.  y is
    (tau_p,) or a batch (tau_p, T), one received pilot per column; the
    estimate is then (M,) or (M, T).  A NaN or inf in y passes through into
    the estimate unchecked.
    """
    U = np.asarray(subspace, dtype=complex)
    r = U.shape[1]
    if np.linalg.norm(U.conj().T @ U - np.eye(r)) > 1e-8 * np.sqrt(r):
        raise ContractError("subspace columns must be orthonormal")
    if pilot.tau < r:
        raise ContractError(f"tau_p = {pilot.tau} < subspace dimension {r}")
    return U @ (_pinv(pilot.phi @ U) @ y) / np.sqrt(pilot.power)


def rsls_pilot(subspace: np.ndarray, tau: int, power: float,
               noise_power: float) -> PilotMatrix:
    """MSE-optimal RS-LS pilot sqrt(tau_p / r) S U^H.

    S is the tau_p x r identity extension; any S with orthonormal columns
    yields the same MSE.
    """
    U = np.asarray(subspace, dtype=complex)
    r = U.shape[1]
    if tau < r:
        raise ContractError(f"tau_p = {tau} < subspace dimension {r}")
    phi = np.sqrt(tau / r) * (np.eye(tau, r, dtype=complex) @ U.conj().T)
    return PilotMatrix(phi, power, noise_power)


def isotropic_subspace(geom: ArrayGeometry) -> np.ndarray:
    """Eigenvectors of the isotropic correlation matrix capturing 0.9999 of
    its trace: the array-dependent worst-case channel subspace."""
    w, U = correlation_matrix(geom, isotropic_profile()).eig
    r = effective_rank(np.clip(w, 0.0, None), _SUBSPACE_CAPTURE)
    return U[:, :r]


# ---------------------------------------------------------------------------
# Compressed sensing over a far-field dictionary
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dictionary:
    """Far-field atoms on a direction-cosine lattice, kept as per-axis tables.

    Atom k is Ex[:, i_k] * Ey[:, j_k], one multiply per entry, where Ex and
    Ey (M x (2n + 1)) hold the per-element phases of the 2n + 1 lattice lines
    of each axis and index (K, 2) holds (i_k, j_k) in 0 .. 2n.  grid (K, 2) is
    derived from index as (index - n) / n, the (Psi, Omega) = (sin az cos el,
    sin el) pair per atom.  Every atom has norm sqrt(M).  No M x K atom
    matrix is stored: `columns` gathers the atoms a caller needs, and `atoms`
    forms all of them, read-only, each time it is read.  Every table is a
    read-only copy of the caller's array (grid is read-only too), so the
    atoms cannot change, which lets a basis pilot keep the sensing matrix it
    forms from them (see _omp_operator).
    """

    Ex: np.ndarray  # (M, 2n + 1)
    Ey: np.ndarray  # (M, 2n + 1)
    index: np.ndarray  # (K, 2) columns of Ex and Ey per atom

    def __post_init__(self):
        for name in ("Ex", "Ey", "index"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name)))[0])
        n = self.Ex.shape[1] // 2
        object.__setattr__(self, "grid", _freeze((self.index - n) / float(n))[0])

    @property
    def num_atoms(self) -> int:
        return len(self.index)

    @property
    def num_antennas(self) -> int:
        return len(self.Ex)

    def columns(self, idx) -> np.ndarray:
        """The atoms at idx, (M, *shape of idx): Ex[:, i] * Ey[:, j] for each
        (i, j) = index[idx], the same bits as a gather from `atoms`."""
        out = self.Ex[:, self.index[idx, 0]]
        out *= self.Ey[:, self.index[idx, 1]]
        return out

    @property
    def atoms(self) -> np.ndarray:
        """All M x K atoms, formed read-only on each read; no library path
        reads them."""
        return _freeze(self.columns(slice(None)))[0]


def build_ff_dictionary(geom: ArrayGeometry, density: int) -> Dictionary:
    """Uniform direction-cosine dictionary at the sampling period 1/density.

    The atoms sit at Psi, Omega = k/n for integers |k| <= n = density, kept
    where Psi^2 + Omega^2 <= 1 (closed disk, evaluated in exact integer
    arithmetic), so the lattice is symmetric and holds the broadside atom.
    At density 40 this closed-disk convention yields 5025 atoms; the open
    disk yields 5013 and dropping the +-1 endpoints 5021.  A density that is
    not an integer >= 1 raises DomainError.  Atom (i, j) is Ex[:, i] * Ey[:, j],
    the product of per-axis phase tables exp(-j kappa x i/n) and
    exp(-j kappa y j/n) over the 2n + 1 lattice lines; only those tables and
    the lattice indices i + n, j + n are formed (Dictionary.grid reads Psi,
    Omega back from them), O(M n + K) work and memory, and no M x K atoms.
    """
    try:
        n = operator.index(density)
    except TypeError:
        raise DomainError(f"density must be an integer, got {density!r}") from None
    if n < 1:
        raise DomainError(f"density must be >= 1, got {n}")
    idx = np.arange(-n, n + 1)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    keep = I * I + J * J <= n * n
    index = np.stack([I[keep], J[keep]], axis=1)
    # M (2n + 1) exps per axis instead of one per element and atom
    kappa = 2.0 * np.pi / geom.wavelength
    Ex, Ey = (np.exp(-1j * kappa * np.outer(geom.positions[:, axis], idx / float(n)))
              for axis in (0, 1))
    return Dictionary(Ex, Ey, index + n)


def _sparse_sampler(geom, dictionary, sparsity, on_grid, angle_limit):
    """M x trials channels from one generator, each the sum of `sparsity`
    equally-strong paths, E||h||^2 = M.  On the grid, each channel's paths
    are distinct atoms within the angle limit, gathered by
    Dictionary.columns; off it, steering vectors at uniform angles.  Fewer
    atoms within the limit than paths on the grid is a ConfigError."""
    grid = dictionary.grid
    lim = np.sin(angle_limit)
    ok = np.where((np.abs(grid[:, 0]) <= lim) & (np.abs(grid[:, 1]) <= lim))[0]
    if on_grid and ok.size < sparsity:
        density = dictionary.Ex.shape[1] // 2
        raise ConfigError(f"paths = {sparsity} on-grid paths need as many distinct atoms "
                          f"within the angle limit, but grid_density = {density} puts "
                          f"{ok.size} there")

    def sampler(stream: RngStream, trials: int) -> np.ndarray:
        g = stream.generator()
        gains = g.standard_normal((trials, sparsity)) + 1j * g.standard_normal((trials, sparsity))
        gains /= np.sqrt(2.0 * sparsity)
        if on_grid:
            # the `sparsity` smallest of uniform keys: a subset without replacement
            pick = np.argpartition(g.random((trials, ok.size)), sparsity - 1, axis=1)
            steer = dictionary.columns(ok[pick[:, :sparsity]])
        else:
            az, el = g.uniform(-angle_limit, angle_limit, (2, trials * sparsity))
            steer = steering_matrix(geom, az, el).T.reshape(-1, trials, sparsity)
        return np.einsum("mts,ts->mt", steer, gains)

    return sampler


def _sensing(pilot: PilotMatrix, dictionary: Dictionary) -> np.ndarray:
    """sqrt(p) phi atoms: one tau_p x K output, filled in blocks of
    _SENSING_BLOCK_COLUMNS atoms, each gathered by Dictionary.columns, then
    scaled in place.  No M x K atom matrix is formed: a block's two M x 256
    temporaries are a tenth of the M x M basis's sensing matrix at fig11's
    K = 5025, at any M.  Blocks are counted in columns, not entries, because
    each block's product packs all of phi again: at M = 1024, 64-column
    blocks took 500 ms against 420 ms for 256 columns (2-core Xeon, OpenBLAS
    at 2 threads).

    The blocks give the bits of the one dense product phi @ atoms (checked at
    8 x 8, 16 x 12 and 32 x 32 arrays, with one and two BLAS threads): each
    starts at a multiple of 64 columns, which keeps the kernel's grouping of
    columns, and the last block takes a lone last column, which numpy would
    hand to gemv."""
    K = dictionary.num_atoms
    A = np.empty((pilot.tau, K), dtype=complex)
    edges = [*range(0, max(K - 1, 1), _SENSING_BLOCK_COLUMNS), K]
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(pilot.phi, dictionary.columns(slice(lo, hi)), out=A[:, lo:hi])
    A *= np.sqrt(pilot.power)
    return A


def _omp_operator(pilot: PilotMatrix, dictionary: Dictionary):
    """The sensing matrix sqrt(p) phi atoms and its column norms.  A pilot
    with a basis (see PilotMatrix._leading) takes the leading rows of its
    basis's sensing matrix, of the basis's rows only: a Dictionary's tables
    are read-only, so its atoms cannot change, and the basis keeps that
    matrix, read-only, in one slot beside the last dictionary it served.
    Row i of a matrix product depends on row i of phi alone, and BLAS gives
    the same bits (checked at fig11's 64 x 5025 shapes, and past M rows)."""
    basis = pilot._basis
    if basis is None:
        A = _sensing(pilot, dictionary)
    else:
        slot = basis._sensing_slot
        if slot is None or slot[0] is not dictionary:
            slot = (dictionary, _freeze(_sensing(basis, dictionary))[0])
            object.__setattr__(basis, "_sensing_slot", slot)
        A = slot[1][:pilot.tau]
    # np.linalg.norm(A, axis=0) sums |a|^2 row after row; so does this loop,
    # bit for bit, without two tau_p x K temporaries
    norms = np.zeros(A.shape[1])
    for row in A:
        norms += (row.conj() * row).real
    norms = np.sqrt(norms)
    norms[norms == 0] = 1.0
    return A, norms


def _refit(As: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (n, k, 1) of each of the n stacked (tau_p, k)
    matrices As, k <= tau_p, against its column y (n, tau_p, 1), as
    lstsq(rcond=None) would give them: its cut-off is max(tau_p, k) eps
    times the largest singular value.

    One batched QR, As = Q R, gives R^-1 Q^H y wherever ||R||_F ||R^-1||_F,
    a bound on the condition number, is at most _QR_REFIT_MARGIN / rcond, so
    that no singular value can fall below the cut-off.  Any other matrix,
    one with near-parallel columns, takes numpy's stacked pinv at that
    cut-off, bit for bit; an exactly singular R sends the whole stack there.
    """
    rcond = max(As.shape[1:]) * np.finfo(float).eps
    Q, R = np.linalg.qr(As)
    try:
        X = np.linalg.inv(R)  # R's zero subdiagonal: LU without a row swap
    except np.linalg.LinAlgError:  # a zero on R's diagonal
        X = np.full_like(R, np.nan)
    with np.errstate(invalid="ignore", over="ignore"):
        # squared Frobenius norms of R and R^-1, stacked
        kappa2 = (np.einsum("nij,nij->n", R.conj(), R).real
                  * np.einsum("nij,nij->n", X.conj(), X).real)
        c = X @ (Q.conj().transpose(0, 2, 1) @ y)
    unsure = ~(kappa2 * rcond ** 2 <= _QR_REFIT_MARGIN ** 2)  # a NaN bound is unsure too
    if unsure.any():
        c[unsure] = np.linalg.pinv(As[unsure], rcond=rcond) @ y[unsure]
    return c


def _omp_block(A: np.ndarray, norms: np.ndarray, Y: np.ndarray, sparsity: int):
    """The greedy loop on all columns of Y (tau_p x T) at once: selections
    (T, sparsity) and the coefficients (T, sparsity) of the last refit."""
    T = Y.shape[1]
    selected = np.zeros((T, sparsity), dtype=np.intp)
    Yt = Y.T
    residual = Yt
    # one T x K product and one magnitude buffer serve every iteration:
    # fresh multi-MiB temporaries per iteration cost their page faults each time
    product = np.empty((T, A.shape[1]), dtype=complex)
    magnitude = np.empty((T, A.shape[1]))
    for k in range(sparsity):
        # |r^H a_j| / ||a_j|| for every column r and atom j; the conjugate
        # of the residual block, never of the tau_p x K sensing matrix
        corr = np.abs(np.matmul(residual.conj(), A, out=product), out=magnitude)
        corr /= norms
        corr[np.arange(T)[:, None], selected[:, :k]] = -1.0
        selected[:, k] = np.argmax(corr, axis=1)  # the lowest index wins ties
        As = A[:, selected[:, :k + 1]].transpose(1, 0, 2)  # (T, tau_p, k + 1)
        c = _refit(As, Yt[:, :, None])
        residual = Yt - (As @ c)[..., 0]
    return selected, c[..., 0]


def omp_estimate(y: np.ndarray, pilot: PilotMatrix, dictionary: Dictionary,
                 sparsity: int):
    """Orthogonal matching pursuit against sqrt(p) phi * atoms.

    Greedily selects atoms by maximal normalized residual correlation
    (lowest index wins ties), refits jointly by least squares after each
    selection, and synthesizes the M-vector estimate.  Runs exactly
    `sparsity` iterations.  Returns (estimate, selected_indices).

    y is (tau_p,) or a batch (tau_p, T) with one received pilot per column.
    The sensing matrix and its column norms are formed on the call, a
    _leading pilot's as rows of its basis's (see _omp_operator), and the
    estimates from the selected atoms alone (Dictionary.columns).  One greedy
    loop serves a block of columns: each iteration forms every column's
    correlations in one matrix product and refits every column by one
    batched QR (see _refit).  A batch returns the (M, T) estimates and a
    list of T selections, equal to T separate calls up to float rounding.
    Blocks hold at most _OMP_BLOCK_ENTRIES columns x atoms.  A NaN or inf in
    y is not checked: it passes through into that column's estimate, whose
    selections are then arbitrary.
    """
    if sparsity < 1:
        raise ContractError("sparsity must be >= 1")
    if sparsity > dictionary.num_atoms:
        raise ContractError("sparsity exceeds the dictionary size")
    if pilot.tau < sparsity:
        raise ContractError("tau_p must be >= the sparsity level")
    A, norms = _omp_operator(pilot, dictionary)
    y = np.asarray(y, dtype=complex)
    Y = y.reshape(len(y), -1)
    estimates = np.empty((dictionary.num_antennas, Y.shape[1]), dtype=complex)
    selections: list[list[int]] = []
    step = max(1, _OMP_BLOCK_ENTRIES // dictionary.num_atoms)
    for s in range(0, Y.shape[1], step):
        selected, coef = _omp_block(A, norms, Y[:, s:s + step], sparsity)
        estimates[:, s:s + step] = np.einsum("mtk,tk->mt", dictionary.columns(selected), coef)
        selections.extend(selected.tolist())
    if y.ndim == 1:
        return estimates[:, 0], selections[0]
    return estimates, selections


# ---------------------------------------------------------------------------
# Monte-Carlo NMSE sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorResult:
    """Aggregate NMSE of one estimator at one pilot length."""

    estimator: str
    tau: int
    nmse: float
    stderr: float
    trials: int


_ESTIMATORS = ("ls", "mmse", "rs-ls", "omp")


def nmse_sweep(estimator: str, tau_values, *, power: float, noise_power: float,
               trials: int, stream: RngStream,
               corr: SpatialCorrelation | None = None,
               subspace: np.ndarray | None = None,
               dictionary: Dictionary | None = None,
               sparsity: int | None = None,
               sampler: Callable[[RngStream, int], np.ndarray] | None = None,
               trace_r: float | None = None,
               pilot_stream: RngStream | None = None) -> list[EstimatorResult]:
    """Monte-Carlo NMSE (MSE / tr(R)) of one estimator across pilot lengths.

    The channels are drawn by `sampler(stream, trials)`, which returns an
    M x trials batch (default: correlated Rayleigh from `corr`); pilots are
    the estimator's own design (water-filling for MMSE, optimal subspace
    pilots for RS-LS, orthonormal rows otherwise).  The orthonormal pilots
    are the leading rows (see PilotMatrix._leading) of one basis per sweep,
    orthogonal_pilot(M, widest tau_p) from pilot_stream (one unitary for
    sweeps in a row that share the stream), so OMP forms one sensing matrix
    of the widest tau_p rows per sweep.  Deterministic for a fixed master
    stream: sweep point i draws its channels from stream.split(i).split(0)
    and its tau_p x trials pilot noise from stream.split(i).split(1), each
    as one block, and the estimator then runs once on the whole batch, so
    its pilot checks run once per sweep point.  Memory is O(M * trials).
    """
    if estimator not in _ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}; expected one of {_ESTIMATORS}")
    if estimator == "mmse" and corr is None:
        raise ConfigError("mmse needs corr")
    if estimator == "rs-ls" and subspace is None:
        raise ConfigError("rs-ls needs a subspace")
    if estimator == "omp" and (dictionary is None or sparsity is None):
        raise ConfigError("omp needs a dictionary and sparsity")
    if corr is None and (sampler is None or trace_r is None):
        raise ConfigError("need corr, or an explicit sampler with trace_r")
    if trials < 2:
        raise ConfigError(f"trials must be at least 2 for a standard error, got {trials}")

    if sampler is None:
        sampler = lambda s, n: sample_rayleigh(corr, s, n)
    if trace_r is None:
        trace_r = float(np.trace(corr.R).real)

    results = []
    basis = None
    taus = [int(tau) for tau in tau_values]
    for i, tau in enumerate(taus):
        point = stream.split(i)
        H = sampler(point.split(0), trials)
        if estimator == "mmse":
            pilot = mmse_pilot_design(corr, power, noise_power, tau)
        elif estimator == "rs-ls":
            pilot = rsls_pilot(subspace, tau, power, noise_power)
        else:
            if basis is None:
                basis = orthogonal_pilot(H.shape[0], max(taus), power, noise_power, pilot_stream)
            pilot = basis._leading(tau)
        Y = received_pilot(pilot, H, point.split(1))
        if estimator == "ls":
            Hh = ls_estimate(Y, pilot)
        elif estimator == "mmse":
            Hh, _ = mmse_estimate(Y, pilot, corr)
        elif estimator == "rs-ls":
            Hh = rsls_estimate(Y, pilot, subspace)
        else:
            Hh, _ = omp_estimate(Y, pilot, dictionary, sparsity)
        errs = np.linalg.norm(Hh - H, axis=0) ** 2
        nmse = errs.mean() / trace_r
        stderr = errs.std(ddof=1) / np.sqrt(trials) / trace_r
        results.append(EstimatorResult(estimator, tau, float(nmse), float(stderr), trials))
    return results
