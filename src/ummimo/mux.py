"""Uplink multi-user SIMO spectral efficiency with LMMSE combining, and
single-user MIMO capacity with water-filling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "UplinkScenario",
    "lmmse_combiner",
    "lmmse_combiners",
    "uplink_se",
    "uplink_se_bound",
    "su_capacity",
    "waterfill_powers",
    "optimal_spacing",
]


@dataclass(frozen=True)
class UplinkScenario:
    """Per-UE channels (columns of H), transmit powers, and noise power."""

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
        if np.any(p < 0) or self.noise_power < 0:
            raise ContractError("powers and noise power must be nonnegative")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "powers", p)

    @property
    def num_ues(self) -> int:
        return self.H.shape[1]


def _gram(scenario: UplinkScenario) -> np.ndarray:
    H, p = scenario.H, scenario.powers
    M = H.shape[0]
    return (H * p) @ H.conj().T + scenario.noise_power * np.eye(M)


def lmmse_combiner(scenario: UplinkScenario, k: int) -> np.ndarray:
    """SE-maximizing combiner p_k (sum_i p_i h_i h_i^H + sigma^2 I)^{-1} h_k."""
    if not 0 <= k < scenario.num_ues:
        raise ContractError(f"UE index {k} out of range")
    if scenario.noise_power <= 0:
        raise DomainError("noise power must be positive")
    return scenario.powers[k] * np.linalg.solve(_gram(scenario), scenario.H[:, k])


def lmmse_combiners(scenario: UplinkScenario) -> np.ndarray:
    """All K LMMSE combiners as columns (one linear solve)."""
    if scenario.noise_power <= 0:
        raise DomainError("noise power must be positive")
    return np.linalg.solve(_gram(scenario), scenario.H * scenario.powers)


def uplink_se(scenario: UplinkScenario, combiners: np.ndarray) -> np.ndarray:
    """Per-UE spectral efficiency log2(1 + SINR_k), interference as noise.

    combiners holds v_k as columns; SINR_k = p_k |v_k^H h_k|^2 /
    (sum_{i != k} p_i |v_k^H h_i|^2 + sigma^2 ||v_k||^2).
    """
    V = np.asarray(combiners, dtype=complex)
    H, p, s2 = scenario.H, scenario.powers, scenario.noise_power
    if V.shape != H.shape:
        raise ContractError("combiners must match the channel matrix shape")
    if np.any(np.linalg.norm(V, axis=0) == 0):
        raise ContractError("zero combiner vector")
    cross = np.abs(V.conj().T @ H) ** 2  # (k, i): |v_k^H h_i|^2
    signal = p * np.diag(cross)
    interference = cross @ p - signal
    noise = s2 * np.linalg.norm(V, axis=0) ** 2
    return np.log2(1.0 + signal / (interference + noise))


def uplink_se_bound(scenario: UplinkScenario, k: int) -> float:
    """Closed-form SE upper bound achieved by the LMMSE combiner."""
    H, p, s2 = scenario.H, scenario.powers, scenario.noise_power
    M = H.shape[0]
    others = np.delete(np.arange(scenario.num_ues), k)
    B = (H[:, others] * p[others]) @ H[:, others].conj().T + s2 * np.eye(M)
    hk = H[:, k]
    return float(np.log2(1.0 + p[k] * np.real(hk.conj() @ np.linalg.solve(B, hk))))


def waterfill_powers(gains: np.ndarray, total_power: float) -> np.ndarray:
    """Water-filling allocation maximizing sum log2(1 + p_i g_i), sum p_i = total.

    gains are channel power gains per layer (mu_i^2 / sigma^2).  Exact
    sort-based water level, no iteration.
    """
    g = np.asarray(gains, dtype=float)
    if total_power <= 0:
        raise DomainError("total power must be positive")
    p = np.zeros_like(g)
    active = np.where(g > 0)[0]
    if active.size == 0:
        return p
    ga = g[active]
    order = np.argsort(-ga)
    inv = 1.0 / ga[order]
    for k in range(active.size, 0, -1):
        level = (total_power + inv[:k].sum()) / k
        if level >= inv[k - 1]:
            break
    alloc = np.clip(level - inv[:k], 0.0, None)
    p[active[order[:k]]] = alloc
    return p


def su_capacity(H: np.ndarray, total_power: float, noise_power: float,
                allocation: str = "waterfilling") -> float:
    """Single-user MIMO capacity sum log2(1 + p_i mu_i^2 / sigma^2).

    allocation "waterfilling" maximizes over the power split; "equal" puts
    total_power / M_min on each of the M_min layers.  A zero channel has
    capacity 0.
    """
    if allocation not in ("waterfilling", "equal"):
        raise DomainError(f"unknown allocation {allocation!r}")
    if total_power <= 0:
        raise DomainError("total power must be positive")
    s = np.linalg.svd(np.asarray(H, dtype=complex), compute_uv=False)
    gains = s ** 2 / noise_power
    if np.all(gains == 0):
        return 0.0
    if allocation == "equal":
        p = np.full(len(gains), total_power / len(gains))
    else:
        p = waterfill_powers(gains, total_power)
    return float(np.sum(np.log2(1.0 + p * gains)))


def optimal_spacing(wavelength: float, distance: float, m: int,
                    rx_spacing: float) -> float:
    """Transmit spacing lambda d / (M Delta_r) equalizing the LoS singular values.

    Derived under the joint Fresnel (paraxial) channel model for two parallel
    M-element ULAs at range d; the exact spherical model deviates when the
    resulting aperture is comparable to d.
    """
    if wavelength <= 0 or distance <= 0 or m < 1 or rx_spacing <= 0:
        raise DomainError("arguments must be positive")
    return wavelength * distance / (m * rx_spacing)
