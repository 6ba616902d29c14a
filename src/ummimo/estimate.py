"""Pilot-based channel estimation: LS, MMSE with water-filling pilot design,
reduced-subspace LS, and orthogonal matching pursuit over a far-field
dictionary."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .geometry import ArrayGeometry
from .numerics import RngStream, complex_gaussian, svd
from .channel import (SpatialCorrelation, _as_correlation, correlation_matrix,
                      isotropic_profile, sample_rayleigh)
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
_SUBSPACE_CAPTURE = 0.9999  # trace fraction isotropic_subspace keeps


@dataclass(frozen=True)
class PilotMatrix:
    """Pilot sequence matrix (tau_p x M), pilot power, and noise power.

    The average pilot power is normalized to one: trace(phi^H phi) = tau_p.
    """

    phi: np.ndarray
    power: float
    noise_power: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.ndim != 2:
            raise ContractError("pilot matrix must be 2-D")
        tau = phi.shape[0]
        energy = float(np.sum(np.abs(phi) ** 2))
        if not abs(energy - tau) <= 1e-8 * max(tau, 1):  # a NaN energy fails too
            raise ContractError(
                f"trace(phi^H phi) = {energy:.9g}, expected tau_p = {tau}"
            )
        if not (self.power > 0 and self.noise_power >= 0):
            raise ContractError("power must be > 0 and noise_power >= 0")
        object.__setattr__(self, "phi", phi)

    @property
    def tau(self) -> int:
        return self.phi.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.phi.shape[1]


def orthogonal_pilot(m: int, tau: int, power: float, noise_power: float,
                     stream: RngStream | None = None) -> PilotMatrix:
    """Pilot with orthonormal rows (unitary when tau = m): row i is row
    i mod len(F) of F, the m DFT rows without a stream, else Q^H from the thin
    QR of the first min(tau, m) columns of a seeded complex Gaussian m x m."""
    if tau < 1 or m < 1:
        raise ContractError("tau and m must be >= 1")
    if stream is None:
        n = np.arange(m)
        F = np.exp(-2j * np.pi * np.outer(n, n) / m) / np.sqrt(m)
    else:
        g = stream.generator()
        G = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
        F = np.linalg.qr(G[:, :min(tau, m)])[0].conj().T
    return PilotMatrix(F[np.arange(tau) % len(F)], power, noise_power)


def received_pilot(pilot: PilotMatrix, h: np.ndarray, stream: RngStream) -> np.ndarray:
    """y = sqrt(p) phi h + n with n ~ CN(0, sigma^2 I), for one channel h (M,)
    or a batch (M, T); the noise is one complex_gaussian((tau_p, T)) block."""
    h = np.asarray(h, dtype=complex)
    if h.ndim not in (1, 2) or h.shape[0] != pilot.num_antennas:
        raise ContractError(f"channel has shape {h.shape}, pilot expects "
                            f"({pilot.num_antennas},) or ({pilot.num_antennas}, T)")
    noise = np.sqrt(pilot.noise_power) * complex_gaussian((pilot.tau, *h.shape[1:]), stream)
    return np.sqrt(pilot.power) * (pilot.phi @ h) + noise


def _pinv_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^+ b, A^+ from one numerics.svd by the steps of numpy's pinv at
    rcond=_PINV_RTOL (so bit for bit its result).  Warns, at the caller of the
    public estimator, when A has at least as many rows as columns but loses
    rank."""
    s, U, V = svd(A.conj())  # numpy's pinv decomposes conj(A)
    large = s > _PINV_RTOL * s[0]
    if A.shape[0] >= A.shape[1] and not large.all():
        warnings.warn(f"rank-deficient {A.shape[0]} x {A.shape[1]} system (rank "
                      f"{int(large.sum())}); using pseudo-inverse",
                      RuntimeWarning, stacklevel=3)
    s_inv = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return (V.conj() @ (s_inv[:, None] * U.T)) @ b


def ls_estimate(y: np.ndarray, pilot: PilotMatrix) -> np.ndarray:
    """Least-squares estimate: the minimizer of ||y - sqrt(p) phi h||^2.

    phi^+ y / sqrt(p) by _pinv_solve, which coincides with phi^{-1} y /
    sqrt(p) for square invertible pilots and extends to tau_p < M (then only
    the row space of phi is estimated).  A rank-deficient pilot with
    tau_p >= M degrades to the pseudo-inverse with a warning.

    y is one received pilot (tau_p,) or a batch (tau_p, T) with one pilot
    per column; the estimate is then (M,) or (M, T).  The map is linear, so
    a batch gives the column-wise estimates and checks the pilot once.
    """
    return _pinv_solve(pilot.phi, y) / np.sqrt(pilot.power)


def mmse_estimate(y: np.ndarray, pilot: PilotMatrix,
                  corr: SpatialCorrelation | np.ndarray):
    """MMSE estimate and its analytic mean squared error.

    hhat = W y with W = sqrt(p) R phi^H A^{-1}, A = p phi R phi^H + sigma^2 I;
    MSE = tr(R) - sqrt(p) tr(W phi R).  Returns (estimate, analytic_mse).
    Since A and R are Hermitian, W = (A^+ sqrt(p) phi R)^H with A^+ from
    _pinv_solve, which warns when A is rank-deficient (sigma^2 = 0 and a
    singular phi R phi^H).

    y is (tau_p,) or a batch (tau_p, T), one received pilot per column; the
    estimate is then (M,) or (M, T), and the analytic MSE, which depends on
    the pilot alone, is the same either way.
    """
    R = _as_correlation(corr).R
    p, phi = pilot.power, pilot.phi
    A = p * (phi @ R @ phi.conj().T) + pilot.noise_power * np.eye(pilot.tau)
    W = _pinv_solve(A, np.sqrt(p) * (phi @ R)).conj().T
    mse = float(np.trace(R).real - np.sqrt(p) * np.trace(W @ phi @ R).real)
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
    is U (phi U)^+ y / sqrt(p) by _pinv_solve: LS with phi U for phi, so a
    rank-deficient phi U warns.  Noise in the orthogonal complement is removed
    entirely; the estimate always lies in the subspace.  y is (tau_p,) or a
    batch (tau_p, T), one received pilot per column; the estimate is then (M,)
    or (M, T).
    """
    U = np.asarray(subspace, dtype=complex)
    r = U.shape[1]
    if np.linalg.norm(U.conj().T @ U - np.eye(r)) > 1e-8 * np.sqrt(r):
        raise ContractError("subspace columns must be orthonormal")
    if pilot.tau < r:
        raise ContractError(f"tau_p = {pilot.tau} < subspace dimension {r}")
    return U @ _pinv_solve(pilot.phi @ U, y) / np.sqrt(pilot.power)


def rsls_pilot(subspace: np.ndarray, tau: int, power: float, noise_power: float,
               mixing: np.ndarray | None = None) -> PilotMatrix:
    """MSE-optimal RS-LS pilot sqrt(tau_p / r) S U^H.

    S is any tau_p x r matrix with orthonormal columns; the default extends
    the identity.  Any valid choice yields the same MSE.
    """
    U = np.asarray(subspace, dtype=complex)
    m, r = U.shape
    if tau < r:
        raise ContractError(f"tau_p = {tau} < subspace dimension {r}")
    if mixing is None:
        S = np.eye(tau, r, dtype=complex)
    else:
        S = np.asarray(mixing, dtype=complex)
        if S.shape != (tau, r):
            raise ContractError(f"mixing must be ({tau}, {r})")
        if np.linalg.norm(S.conj().T @ S - np.eye(r)) > 1e-8 * np.sqrt(r):
            raise ContractError("mixing columns must be orthonormal")
    phi = np.sqrt(tau / r) * (S @ U.conj().T)
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

@dataclass(frozen=True)
class Dictionary:
    """Far-field atoms (M x K) on a direction-cosine lattice.

    grid holds the (Psi, Omega) = (sin az cos el, sin el) pair per atom; all
    pairs satisfy Psi^2 + Omega^2 <= 1 and every atom has norm sqrt(M).
    """

    atoms: np.ndarray
    grid: np.ndarray  # (K, 2)

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[1]


def build_ff_dictionary(geom: ArrayGeometry, density: int) -> Dictionary:
    """Uniform direction-cosine dictionary at the sampling period 1/density.

    The atoms sit at Psi, Omega = k/n for integers |k| <= n = density, kept
    where Psi^2 + Omega^2 <= 1 (closed disk, evaluated in exact integer
    arithmetic), so the lattice is symmetric and holds the broadside atom.
    At density 40 this closed-disk convention yields 5025 atoms; the open
    disk yields 5013 and dropping the +-1 endpoints 5021.  A density that is
    not an integer >= 1 raises DomainError.
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
    psi = I[keep] / float(n)
    omega = J[keep] / float(n)
    x, y = geom.positions[:, 0], geom.positions[:, 1]
    kappa = 2.0 * np.pi / geom.wavelength
    atoms = np.exp(-1j * kappa * (x[:, None] * psi[None, :] + y[:, None] * omega[None, :]))
    return Dictionary(atoms, np.stack([psi, omega], axis=1))


def omp_estimate(y: np.ndarray, pilot: PilotMatrix, dictionary: Dictionary,
                 sparsity: int, residual_threshold: float | None = None):
    """Orthogonal matching pursuit against sqrt(p) phi * atoms.

    Greedily selects atoms by maximal normalized residual correlation
    (lowest index wins ties), refits jointly by least squares after each
    selection, and synthesizes the M-vector estimate.  Runs exactly
    `sparsity` iterations unless residual_threshold stops it early.
    Returns (estimate, selected_indices).

    y is (tau_p,) or a batch (tau_p, T) with one received pilot per column.
    The sensing matrix and its column norms are formed once per call; the
    greedy loop and residual_threshold then act on each column alone, so a
    batch returns the (M, T) estimates and a list of T selections, equal to
    T separate calls.
    """
    if sparsity < 1:
        raise ContractError("sparsity must be >= 1")
    if sparsity > dictionary.num_atoms:
        raise ContractError("sparsity exceeds the dictionary size")
    if pilot.tau < sparsity:
        raise ContractError("tau_p must be >= the sparsity level")
    y = np.asarray(y, dtype=complex)
    A = np.sqrt(pilot.power) * (pilot.phi @ dictionary.atoms)
    Ah = A.conj().T
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    columns = np.ascontiguousarray(y.reshape(len(y), -1).T)
    estimates = np.empty((dictionary.atoms.shape[0], len(columns)), dtype=complex)
    selections: list[list[int]] = []
    for t, yt in enumerate(columns):
        selected: list[int] = []
        residual = yt
        coef = np.zeros(0, dtype=complex)
        for _ in range(sparsity):
            corr = np.abs(Ah @ residual) / norms
            if selected:
                corr[selected] = -1.0
            selected.append(int(np.argmax(corr)))  # argmax takes the lowest index on ties
            As = A[:, selected]
            coef, *_ = np.linalg.lstsq(As, yt, rcond=None)
            residual = yt - As @ coef
            if residual_threshold is not None and np.linalg.norm(residual) <= residual_threshold:
                break
        estimates[:, t] = dictionary.atoms[:, selected] @ coef
        selections.append(selected)
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
    pilots for RS-LS, orthonormal rows otherwise).  Deterministic for a fixed
    master stream: sweep point i draws its channels from
    stream.split(i).split(0) and its tau_p x trials pilot noise from
    stream.split(i).split(1), each as one block, and the estimator then runs
    once on the whole batch, so its pilot checks run once per sweep point.
    Memory is O(M * trials).
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
    for i, tau in enumerate(tau_values):
        tau = int(tau)
        point = stream.split(i)
        H = sampler(point.split(0), trials)
        if estimator == "mmse":
            pilot = mmse_pilot_design(corr, power, noise_power, tau)
        elif estimator == "rs-ls":
            pilot = rsls_pilot(subspace, tau, power, noise_power)
        else:
            pilot = orthogonal_pilot(H.shape[0], tau, power, noise_power, pilot_stream)
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
