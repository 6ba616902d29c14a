"""Uplink multi-user SIMO spectral efficiency with LMMSE combining, and
single-user MIMO capacity with water-filling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, check_finite_positive

__all__ = [
    "UplinkScenario",
    "lmmse_combiners",
    "uplink_se",
    "uplink_se_bound",
    "su_capacity",
    "parallel_capacity",
    "waterfill_powers",
    "optimal_spacing",
]


@dataclass(frozen=True, eq=False)
class UplinkScenario:
    """Per-UE channels (columns of H), transmit powers, and noise power.

    H, powers and noise power must be finite (DomainError), powers and noise
    power nonnegative (ContractError); zero is allowed.
    """

    H: np.ndarray        # (M, K) complex
    powers: np.ndarray   # (K,) watts
    noise_power: float   # watts

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        p = np.asarray(self.powers, dtype=float)
        if H.ndim != 2 or H.shape[1] < 1:
            raise ContractError("H must be an M x K matrix with K >= 1")
        if p.shape != (H.shape[1],):
            raise ContractError("powers must have one entry per UE")
        if not np.all(np.isfinite(H)):
            raise DomainError("H must be finite")
        if not (np.all(np.isfinite(p)) and np.isfinite(self.noise_power)):
            raise DomainError(f"powers and noise power must be finite, got powers {p} "
                              f"and noise power {self.noise_power!r}")
        if np.any(p < 0) or self.noise_power < 0:
            raise ContractError("powers and noise power must be nonnegative")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "powers", p)

    @property
    def num_ues(self) -> int:
        return self.H.shape[1]


def _check_noise(scenario: UplinkScenario) -> None:
    if scenario.noise_power <= 0:
        raise DomainError("noise power must be positive")


def lmmse_combiners(scenario: UplinkScenario) -> np.ndarray:
    """All K LMMSE combiners (H P H^H + sigma^2 I)^{-1} H P as columns; column
    k is UE k's SE-maximizing combiner
    p_k (sum_i p_i h_i h_i^H + sigma^2 I)^{-1} h_k.

    Computed by the push-through identity as H (P H^H H + sigma^2 I)^{-1} P:
    one K x K solve after the K x K Gram matrix H^H H, so the cost is
    O(M K^2 + K^3) instead of the O(M^3) of the M x M system.  A zero-power
    UE gets the zero combiner.
    """
    _check_noise(scenario)
    H, p = scenario.H, scenario.powers
    K = scenario.num_ues
    A = p[:, None] * (H.conj().T @ H) + scenario.noise_power * np.eye(K)
    return H @ np.linalg.solve(A, np.diag(p))


def uplink_se(scenario: UplinkScenario, combiners: np.ndarray) -> np.ndarray:
    """Per-UE spectral efficiency log2(1 + SINR_k), interference as noise.

    combiners holds v_k as columns; SINR_k = p_k |v_k^H h_k|^2 /
    (sum_{i != k} p_i |v_k^H h_i|^2 + sigma^2 ||v_k||^2), the interference
    summed term by term, so it keeps its digits at large SINR.  A zero-power
    UE has SE 0 whatever its combiner (lmmse_combiners gives it the zero
    vector); a zero combiner for a UE with positive power is rejected.
    """
    V = np.asarray(combiners, dtype=complex)
    H, p, s2 = scenario.H, scenario.powers, scenario.noise_power
    if V.shape != H.shape:
        raise ContractError("combiners must match the channel matrix shape")
    norms = np.linalg.norm(V, axis=0)
    if np.any((norms == 0) & (p > 0)):
        raise ContractError("zero combiner vector for a UE with positive power")
    cross = np.abs(V.conj().T @ H) ** 2 * p  # (k, i): p_i |v_k^H h_i|^2
    signal = np.diag(cross).copy()
    np.fill_diagonal(cross, 0.0)  # interference: the sum over i != k, no cancellation
    sinr = np.divide(signal, cross.sum(axis=1) + s2 * norms ** 2,
                     out=np.zeros_like(signal), where=p > 0)
    return np.log2(1.0 + sinr)


def uplink_se_bound(scenario: UplinkScenario) -> np.ndarray:
    """Per-UE SE under LMMSE combining, the maximum over all combiners, as a
    (K,) array.

    By the MMSE identity 1 + SINR_k = 1 / MMSE_k, SE_k = -log2([(I + P^1/2
    H^H H P^1/2 / sigma^2)^{-1}]_kk): one K x K inverse gives all K, in
    O(M K^2 + K^3), with no M x K combiners.  It equals uplink_se(scenario,
    lmmse_combiners(scenario)) to rounding, at high SNR too (both within
    1e-13 bit/s/Hz of a 40-digit value at 24 bit/s/Hz).  A zero-power UE has
    SE exactly 0.
    """
    _check_noise(scenario)
    p = scenario.powers
    Hp = scenario.H * np.sqrt(p / scenario.noise_power)
    mmse = np.real(np.diagonal(np.linalg.inv(Hp.conj().T @ Hp + np.eye(scenario.num_ues))))
    return np.where(p > 0, np.log2(1.0 / mmse), 0.0)


def waterfill_powers(gains: np.ndarray, total_power: float) -> np.ndarray:
    """Water-filling allocation maximizing sum log2(1 + p_i g_i), sum p_i = total.

    gains are channel power gains per layer (mu_i^2 / sigma^2) along the last
    axis of a (..., L) array, each row filled on its own; an infinite gain is
    admitted, a NaN one is not.  Exact sort-based water levels, no
    iteration: one sort and one cumulative sum serve every row.
    """
    g = np.asarray(gains, dtype=float)
    check_finite_positive(total_power=total_power)
    if g.ndim < 1:
        raise ContractError("gains must have a layer axis")
    if np.isnan(g).any():
        raise DomainError("gains must not be NaN")
    if g.size == 0:
        return np.zeros_like(g)
    # floors 1/g, sorted: the strongest layer first; an idle layer (g <= 0)
    # floors at inf
    floors = np.divide(1.0, g, out=np.full_like(g, np.inf), where=g > 0)
    inv = np.sort(floors, axis=-1)
    levels = (total_power + np.cumsum(inv, axis=-1)) / np.arange(1, g.shape[-1] + 1)
    # the k strongest layers hold water when the k-th level reaches the k-th
    # floor; the largest such k of the active layers sets the level, which
    # lies at or below every floor past the k-th
    fits = (levels >= inv) & (inv < np.inf)
    k = g.shape[-1] - np.argmax(fits[..., ::-1], axis=-1, keepdims=True)
    level = np.where(fits.any(axis=-1, keepdims=True),
                     np.take_along_axis(levels, k - 1, axis=-1), 0.0)
    return np.clip(level - floors, 0.0, None)


def parallel_capacity(gains: np.ndarray, total_power: float,
                      allocation: str = "waterfilling"):
    """Capacity sum log2(1 + p_i g_i) of parallel Gaussian layers with power
    gains g_i >= 0 under the budget sum p_i = total_power.

    allocation "waterfilling" maximizes over the power split; "equal" puts
    total_power / L on each of the L layers.  All-zero gains have capacity
    0.  gains of shape (..., L) give the (...) array of capacities, each
    computed as for its own row, the whole stack water-filled at once; a
    1-d gains gives the float.  A NaN or negative gain raises DomainError
    under either allocation; +inf is admitted.
    """
    if allocation not in ("waterfilling", "equal"):
        raise DomainError(f"unknown allocation {allocation!r}")
    check_finite_positive(total_power=total_power)
    g = np.asarray(gains, dtype=float)
    if g.ndim < 1:
        raise ContractError("gains must have a layer axis")
    if not np.all(g >= 0):  # a NaN gain fails too
        raise DomainError(f"gains must be >= 0 and not NaN, got {g}")
    if allocation == "equal":
        p = np.full_like(g, total_power) / g.shape[-1]
    else:
        p = waterfill_powers(g, total_power)
    caps = np.sum(np.log2(1.0 + p * g), axis=-1)
    return float(caps) if g.ndim == 1 else caps


def su_capacity(H: np.ndarray, total_power: float, noise_power: float,
                allocation: str = "waterfilling"):
    """Single-user MIMO capacity sum log2(1 + p_i mu_i^2 / sigma^2).

    The parallel_capacity of the power gains mu_i^2 / sigma^2 of H's
    singular values mu_i.  A zero channel has capacity 0.  H may be a
    (..., M, N) stack: one batched SVD, and the (...) array of capacities,
    each equal bit for bit to su_capacity of its own matrix; an M x N H
    gives the float.  total_power and noise_power must be finite and
    positive, and H finite (DomainError).
    """
    check_finite_positive(total_power=total_power, noise_power=noise_power)
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2:
        raise ContractError(f"H must be an M x N matrix or a stack of them, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise DomainError("H must be finite")
    s = np.linalg.svd(H, compute_uv=False)
    return parallel_capacity(s ** 2 / noise_power, total_power, allocation)


def optimal_spacing(wavelength: float, distance: float, m: int,
                    rx_spacing: float) -> float:
    """Transmit spacing lambda d / (M Delta_r) equalizing the LoS singular values.

    Derived under the joint Fresnel (paraxial) channel model for two parallel
    M-element ULAs at range d; the exact spherical model deviates when the
    resulting aperture is comparable to d.  wavelength, distance and
    rx_spacing must be finite and positive, and m >= 1.
    """
    check_finite_positive(wavelength=wavelength, distance=distance, rx_spacing=rx_spacing)
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m!r}")
    return wavelength * distance / (m * rx_spacing)
