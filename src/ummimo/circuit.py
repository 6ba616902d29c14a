"""Impedance-based physically consistent MIMO channel layer.

Mutual impedances of incremental z-oriented dipoles are the z-z entry of the
dipole Green function of the fields module (fields._green), in the
e^{-j omega t} convention of the impedance analysis: outgoing waves carry
e^{+j kappa r}, the conjugate of the channel and field layers' e^{-j kappa r}
(the real part is convention independent).  The end-to-end voltage channel,
transmit power, and receiver noise covariance follow the unilateral
multiport model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SingularityError
from .fields import _green, _out, epsilon_0, speed_of_light
from .geometry import ArrayGeometry, _gather, _lattice_axes
from .numerics import QuadratureGrid

__all__ = [
    "ImpedanceSet",
    "LnaParams",
    "mutual_impedance_z_dipoles",
    "self_resistance",
    "array_impedance",
    "impedance_set",
    "end_to_end_channel",
    "tx_power",
    "noise_covariance",
    "radiation_matrix",
]

Boltzmann = 1.380649e-23  # J/K, exact in SI


def _psd_within(A: np.ndarray, rtol: float) -> bool:
    """Whether the Hermitian A has min eig(A) >= -rtol ||A||_F, up to rounding
    at the threshold, from one Cholesky factorisation of A + max(rtol
    ||A||_F, 1e-300) I: it exists exactly when every eigenvalue of A exceeds
    minus that shift.  A zero A passes; a NaN entry fails."""
    shift = max(rtol * np.linalg.norm(A), 1e-300)
    try:
        np.linalg.cholesky(A + shift * np.eye(A.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class ImpedanceSet:
    """Partitioned impedance blocks of a unilateral tx/rx antenna system.

    Z_T and Z_R are complex symmetric (reciprocity: non-conjugate transpose
    symmetry) with positive-semidefinite real parts, min eig(Re Z) >= -1e-8
    ||Re Z||_F, checked by one Cholesky factorisation (see _psd_within); Z_RT
    couples transmit currents to receive open-circuit voltages.
    """

    Z_T: np.ndarray
    Z_R: np.ndarray
    Z_RT: np.ndarray
    R0: float  # generator reference resistance, ohms

    def __post_init__(self):
        for name in ("Z_T", "Z_R"):
            Z = np.asarray(getattr(self, name), dtype=complex)
            scale = max(np.linalg.norm(Z), 1e-300)
            if np.linalg.norm(Z - Z.T) > 1e-8 * scale:
                raise ContractError(f"{name} must be symmetric (reciprocity)")
            if not _psd_within(0.5 * np.real(Z + Z.conj().T), 1e-8):
                raise ContractError(f"Re({name}) must be positive semidefinite")
            object.__setattr__(self, name, Z)
        Z_RT = np.asarray(self.Z_RT, dtype=complex)
        if Z_RT.shape != (self.Z_R.shape[0], self.Z_T.shape[0]):
            raise ContractError("Z_RT must be M x N")
        if self.R0 <= 0:
            raise ContractError("R0 must be positive")
        object.__setattr__(self, "Z_RT", Z_RT)


@dataclass(frozen=True)
class LnaParams:
    """Equivalent input noise parameters of the receive amplifiers."""

    R_v: float = 5.0       # voltage-noise resistance, ohms
    G_i: float = 2e-3      # current-noise conductance, siemens
    beta: float = 0.0      # voltage/current noise correlation (real)
    temperature: float = 290.0  # kelvin

    def __post_init__(self):
        if self.R_v < 0 or self.G_i < 0:
            raise ContractError("R_v and G_i must be nonnegative")
        if self.temperature <= 0:
            raise ContractError("temperature must be positive")


def _impedance(axes, wavelength: float, length: float) -> complex | np.ndarray:
    """The z-dipole mutual impedance, L0^2 / (j omega eps0) times the z-z
    entry of fields._green, for separations given per axis: three arrays of
    one shape (its temporaries worked in place), or one vector's components.
    r^2 sums (dx^2 + dy^2) + dz^2, as np.linalg.norm does, and s1 = 1 - cos^2,
    s3 = 1 - 3 cos^2 with cos^2 = (dz / r)^2, so p and -p agree bit for bit."""
    dx, dy, dz = axes
    r = dx * dx
    r += dy * dy
    r += dz * dz
    r = np.sqrt(r, out=_out(r))
    if np.any(r == 0.0):
        raise SingularityError("zero separation; use self_resistance for Re Z(0)")
    cos2 = dz / r
    cos2 **= 2
    s1 = 1.0 - cos2
    cos2 *= 3.0
    s3 = np.subtract(1.0, cos2, out=_out(cos2))
    kappa = 2.0 * np.pi / wavelength
    omega = kappa * speed_of_light
    return length ** 2 / (1j * omega * epsilon_0) * _green(r, s1, s3, kappa)


def mutual_impedance_z_dipoles(p, wavelength: float, length: float) -> complex | np.ndarray:
    """Mutual impedance of two z-oriented incremental electric dipoles.

    Z(p) = (L0^2 / (j omega eps0)) [d^2/dz^2 + kappa^2] e^{j kappa |p|}/(4 pi |p|),
    evaluated analytically.  Even in p, azimuthally symmetric about z, finite
    for every |p| > 0, and decaying as 1/|p| in the radiation zone.

    p is one separation vector or a (..., 3) array of them; the result is a
    complex scalar or an array of shape p.shape[:-1].  Any zero separation
    raises SingularityError.
    """
    p = np.asarray(p, dtype=float)
    return _impedance((p[..., 0], p[..., 1], p[..., 2]), wavelength, length)


def self_resistance(length: float, wavelength: float) -> float:
    """Radiation resistance Re Z(0) = L0^2 kappa^3 / (6 pi omega eps0) of an
    incremental z-dipole.

    The closed form is the half-residue (propagating plane-wave) part of the
    wavenumber-disk integral; it equals the classical (2 pi / 3) Z0 (L0 /
    lambda)^2.  Valid for dipoles short compared to the wavelength.
    """
    if not 0 < length < wavelength:
        raise ContractError("incremental dipole requires 0 < length < wavelength")
    kappa = 2.0 * np.pi / wavelength
    omega = kappa * speed_of_light
    return length ** 2 * kappa ** 3 / (6.0 * np.pi * omega * epsilon_0)


def array_impedance(geom: ArrayGeometry, length: float,
                    self_reactance: float = 0.0) -> np.ndarray:
    """Impedance matrix of one z-dipole array, such as Z_T of impedance_set.

    Off-diagonal entries are mutual impedances of the element pairs, diagonal
    entries self_resistance(length) + j self_reactance (the point-dipole
    self-reactance diverges, so a finite model value must be chosen
    explicitly); Z equals Z.T exactly.  On a builder array whose separation
    along each axis depends only on the index lag, bit for bit (z constant,
    spacings such as lambda/2 at lambda = 0.5 m), Z is block Toeplitz:
    _impedance runs once per lag (|l_x|, |l_y|), spread by geometry._gather.
    Any other array evaluates its upper triangle and mirrors it.
    """
    pos, lam = geom.positions, geom.wavelength
    diagonal = self_resistance(length, lam) + 1j * self_reactance
    n = len(pos)
    seps = _lattice_separations(geom)
    if seps is not None:
        # Z(p) depends on p only through p_x^2, p_y^2 and p_z^2
        (n_x, n_y), table = map(len, seps), np.empty(n, dtype=complex)
        table[0] = diagonal
        table[1:] = _impedance([a.ravel()[1:] for a in np.meshgrid(*seps, indexing="ij")]
                               + [np.zeros(n - 1)], lam, length)
        table = table.reshape(n_x, n_y)[np.ix_(*(abs(np.arange(1 - k, k)) for k in (n_x, n_y)))]
        return _gather(table, geom.lattice)
    # the upper triangle, mirrored: Z(p_j - p_i) == Z(p_i - p_j) bit for
    # bit, because p_j - p_i == -(p_i - p_j) exactly
    i, j = np.triu_indices(n, 1)
    upper = _impedance([pos[i, a] - pos[j, a] for a in range(3)], lam, length)
    Z = np.empty((n, n), dtype=complex)
    Z[i, j] = upper
    Z[j, i] = upper
    Z[np.diag_indices(n)] = diagonal
    return Z


def _lattice_separations(geom: ArrayGeometry):
    """The per-axis separations |c_l - c_0| of a builder array, when its
    positions are exactly per-axis coordinates (geometry._lattice_axes, so z
    is constant) and each element pair is separated by exactly these at its
    index lags; None otherwise."""
    axes = _lattice_axes(geom)
    if axes is None:
        return None
    xs, ys = axes[0].ravel(), axes[1].ravel()
    D = [np.abs(np.subtract.outer(c, c)) for c in (xs, ys)]  # Toeplitz if its diagonals are
    return [d[:, 0] for d in D] if all(np.array_equal(d[1:, 1:], d[:-1, :-1]) for d in D) else None


def impedance_set(tx: ArrayGeometry, rx: ArrayGeometry, length: float,
                  R0: float = 50.0, self_reactance: float = 0.0) -> ImpedanceSet:
    """Impedance blocks for z-dipole arrays under the unilateral approximation.

    Z_T and Z_R are each array's array_impedance; Z_RT holds the mutual
    impedances across the arrays, which must share no element position.
    """
    lam = tx.wavelength
    if abs(rx.wavelength - lam) > 1e-12 * lam:
        raise ContractError("tx and rx geometries must share the wavelength")
    try:
        Z_RT = _impedance([np.subtract.outer(rx.positions[:, a], tx.positions[:, a])
                           for a in range(3)], lam, length)
    except SingularityError:
        raise ContractError("coincident elements across arrays") from None
    return ImpedanceSet(array_impedance(tx, length, self_reactance),
                        array_impedance(rx, length, self_reactance), Z_RT, R0)


def end_to_end_channel(imp: ImpedanceSet) -> np.ndarray:
    """Voltage-transfer matrix H = Z_RT (Z_T + R0 I)^{-1}; linear in Z_RT."""
    n = imp.Z_T.shape[0]
    A = imp.Z_T + imp.R0 * np.eye(n)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e14:
        raise ContractError("Z_T + R0 I is numerically singular")
    return np.linalg.solve(A.T, imp.Z_RT.T).T


def tx_power(currents: np.ndarray, Z_T: np.ndarray) -> float:
    """Time-average radiated power (1/2) I^H Re(Z_T) I with open receive ports.

    The quadratic form includes mutual-resistance coupling; summing squared
    current magnitudes against the diagonal alone is wrong whenever the
    off-diagonal resistances are non-negligible.
    """
    I = np.asarray(currents, dtype=complex)
    Z = np.asarray(Z_T, dtype=complex)
    if Z.shape != (I.size, I.size):
        raise ContractError("current vector and Z_T dimensions disagree")
    re = 0.5 * np.real(Z + Z.conj().T)
    return float(0.5 * np.real(I.conj() @ (re @ I)))


def noise_covariance(Z_R: np.ndarray, lna: LnaParams) -> np.ndarray:
    """Receiver noise covariance (V^2/Hz):

    R_n = 4 k_B T [ Re((1 + beta) Z_R) + R_v I + G_i Z_R Z_R^H ].

    Hermitian by construction (symmetrized exactly); parameters producing a
    matrix with an eigenvalue below -1e-12 ||R_n||_F violate the contract
    (checked as in ImpedanceSet).
    """
    Z = np.asarray(Z_R, dtype=complex)
    m = Z.shape[0]
    re = 0.5 * np.real((1.0 + lna.beta) * (Z + Z.conj().T))
    Rn = re + lna.R_v * np.eye(m) + lna.G_i * (Z @ Z.conj().T)
    Rn = 0.5 * (Rn + Rn.conj().T)
    Rn *= 4.0 * Boltzmann * lna.temperature
    if not _psd_within(Rn, 1e-12):
        raise ContractError(
            f"noise covariance not PSD (min eigenvalue {np.linalg.eigvalsh(Rn).min():.3e}); "
            f"check beta={lna.beta} against Re(Z_R)"
        )
    return Rn


def radiation_matrix(pattern_samples: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Pattern-coupling (radiation) matrix B = integral of s s^H over the sphere.

    pattern_samples holds the per-port pattern values, one row per port and
    one column per grid node; the grid must cover the full sphere (total
    weight 4 pi).  B is Hermitian PSD; for lossless arrays its eigenvalues
    lie in [0, 1] after the scattering normalization B = I - S S^H.
    """
    S = np.atleast_2d(np.asarray(pattern_samples, dtype=complex))
    if S.shape[1] != grid.size:
        raise ContractError("pattern samples do not match the grid size")
    total = float(grid.weights.sum())
    if abs(total - 4.0 * np.pi) > 1e-6 * 4.0 * np.pi:
        raise ContractError("grid must cover the full sphere for the radiation matrix")
    B = (S * grid.weights) @ S.conj().T
    return 0.5 * (B + B.conj().T)
