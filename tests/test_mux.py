import numpy as np
import pytest

from ummimo.errors import ContractError, DomainError
from ummimo.channel import los_channel
from ummimo.geometry import build_ula, build_upa
from ummimo.mux import (UplinkScenario, lmmse_combiners, optimal_spacing,
                        parallel_capacity, su_capacity, uplink_se, uplink_se_bound,
                        waterfill_powers)

LAM = 0.01


def _random_scenario(m, k, seed, sigma2=0.1):
    rng = np.random.default_rng(seed)
    H = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
    powers = rng.uniform(0.5, 2.0, k)
    return UplinkScenario(H, powers, sigma2)


class TestUplinkScenario:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_noise_power_rejected(self, bad):
        # NaN passes `noise_power < 0` and would give NaN spectral efficiencies
        with pytest.raises(DomainError, match="must be finite"):
            UplinkScenario(np.eye(4, 2), [1.0, 1.0], bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_ue_power_rejected(self, bad):
        # a NaN power would give one NaN and one zero SE
        with pytest.raises(DomainError, match="must be finite"):
            UplinkScenario(np.eye(4, 2), [1.0, bad], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_channel_rejected(self, bad):
        # a NaN in H would give NaN combiners from lmmse_combiners
        H = np.eye(4, 2, dtype=complex)
        H[1, 0] = bad
        with pytest.raises(DomainError, match="^H must be finite"):
            UplinkScenario(H, [1.0, 1.0], 1.0)


class TestLmmseCombiner:
    def test_single_ue_matched_filter(self):
        scen = _random_scenario(8, 1, 0)
        v = lmmse_combiners(scen)[:, 0]
        h = scen.H[:, 0]
        assert abs(abs(v.conj() @ h) - np.linalg.norm(v) * np.linalg.norm(h)) \
            < 1e-9 * np.linalg.norm(v) * np.linalg.norm(h)

    def test_orthogonal_ues_whitening(self):
        m = 8
        H = np.zeros((m, 2), dtype=complex)
        H[0, 0] = 1.0
        H[1, 1] = 1.0
        for sigma2, tol in ((1e-2, 2e-2), (1e-6, 2e-6)):
            scen = UplinkScenario(H, np.ones(2), sigma2)
            v0 = lmmse_combiners(scen)[:, 0]
            leak = abs(v0.conj() @ H[:, 1]) / (np.linalg.norm(v0) * 1.0)
            assert leak < tol

    def test_beats_maximum_ratio(self):
        for seed in range(100):
            scen = _random_scenario(12, 4, seed)
            se_lmmse = uplink_se(scen, lmmse_combiners(scen)).sum()
            se_mr = uplink_se(scen, scen.H).sum()
            assert se_lmmse >= se_mr - 1e-9

    @pytest.mark.parametrize("m, k, zero_ue", [(512, 8, None), (6, 10, None),
                                               (512, 8, 3), (6, 10, 7)])
    def test_equals_dense_solve(self, m, k, zero_ue):
        # (H P H^H + sigma^2 I)^{-1} H P, solved as the M x M system
        scen = _random_scenario(m, k, 20 + m + k)
        if zero_ue is not None:
            powers = scen.powers.copy()
            powers[zero_ue] = 0.0
            scen = UplinkScenario(scen.H, powers, scen.noise_power)
        H, p = scen.H, scen.powers
        dense = np.linalg.solve((H * p) @ H.conj().T + scen.noise_power * np.eye(m), H * p)
        V = lmmse_combiners(scen)
        assert np.linalg.norm(V - dense) <= 1e-10 * np.linalg.norm(dense)
        if zero_ue is not None:
            assert np.all(V[:, zero_ue] == 0)

    def test_nonpositive_noise_rejected(self):
        scen = _random_scenario(4, 2, 1, sigma2=0.0)
        with pytest.raises(DomainError):
            lmmse_combiners(scen)


class TestUplinkSe:
    def test_single_ue_closed_form(self):
        scen = _random_scenario(8, 1, 2, sigma2=0.3)
        se = uplink_se(scen, scen.H)  # v = h, no interference
        p, h = scen.powers[0], scen.H[:, 0]
        expected = np.log2(1 + p * np.linalg.norm(h) ** 2 / 0.3)
        assert abs(se[0] - expected) < 1e-12

    def test_lmmse_achieves_bound(self):
        scen = _random_scenario(10, 4, 3)
        se = uplink_se(scen, lmmse_combiners(scen))
        bound = uplink_se_bound(scen)
        assert bound.shape == (4,)
        assert np.all(np.abs(se - bound) < 1e-9)

    @pytest.mark.parametrize("k", [10, 100])
    def test_bound_equals_lmmse_se_on_fig4_drops(self, k):
        # fig4-mu's drops: its 32 x 16 lambda/2 array, UEs at 3-60 m within
        # +-60 degrees, and its powers; one K x K inverse against the M x K
        # combiners
        geom = build_upa(32, 16, LAM / 2, LAM / 2, LAM)
        g = np.random.default_rng(k)
        phis, dists = g.uniform(-np.pi / 3, np.pi / 3, k), g.uniform(3.0, 60.0, k)
        tx = np.stack([np.sin(phis) * dists, np.zeros(k), np.cos(phis) * dists], axis=1)
        scen = UplinkScenario(los_channel(geom, tx), np.full(k, 1e-2), 1e-9)
        se = uplink_se(scen, lmmse_combiners(scen))
        assert np.max(np.abs(uplink_se_bound(scen) - se)) <= 1e-12

    def test_bound_against_extended_precision_at_high_snr(self):
        # at 24 bit/s/Hz both routes stay within 1e-13 bit/s/Hz of a 40-digit
        # oracle of the MMSE identity: the identity is 3.6e-15 off, and the
        # combiners' interference, summed over i != k with no cancellation, 0
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        scen = _random_scenario(32, 4, 21, sigma2=1e-6)
        Hp = scen.H * np.sqrt(scen.powers / scen.noise_power)
        A = mp.matrix([[complex(v) for v in row] for row in Hp])
        G = A.H * A + mp.eye(4)
        inv = G ** -1
        oracle = np.array([float(-mp.log(mp.re(inv[k, k]), 2)) for k in range(4)])
        bound = uplink_se_bound(scen)
        assert oracle.min() > 20.0
        assert np.max(np.abs(bound - oracle)) <= 1e-13
        assert np.max(np.abs(uplink_se(scen, lmmse_combiners(scen)) - oracle)) <= 1e-13

    def test_bound_with_zero_power_ue(self):
        # a zero-power UE gets the zero LMMSE combiner and has SE 0
        scen = _random_scenario(10, 4, 13)
        powers = scen.powers.copy()
        powers[2] = 0.0
        scen = UplinkScenario(scen.H, powers, scen.noise_power)
        se = uplink_se(scen, lmmse_combiners(scen))
        bound = uplink_se_bound(scen)
        assert np.allclose(bound, se, rtol=1e-12, atol=1e-12)
        assert bound[2] == 0.0 and se[2] == 0.0

    def test_zero_power_ue_has_zero_se_whatever_its_combiner(self):
        scen = _random_scenario(10, 4, 14)
        powers = scen.powers.copy()
        powers[1] = 0.0
        scen = UplinkScenario(scen.H, powers, scen.noise_power)
        V = lmmse_combiners(scen)
        for v in (np.zeros(10), scen.H[:, 1], scen.H[:, 3]):
            V[:, 1] = v
            se = uplink_se(scen, V)
            assert se[1] == 0.0 and np.all(se[[0, 2, 3]] > 0)

    def test_zero_combiner_with_positive_power_rejected(self):
        scen = _random_scenario(10, 4, 15)
        V = lmmse_combiners(scen)
        V[:, 3] = 0.0
        with pytest.raises(ContractError, match="zero combiner"):
            uplink_se(scen, V)

    def test_bound_nonpositive_noise_rejected(self):
        with pytest.raises(DomainError):
            uplink_se_bound(_random_scenario(4, 2, 1, sigma2=0.0))

    def test_mismatched_combiners_lose(self):
        # far-field-approximated combiners applied to the true near-field
        # channels never beat the matched LMMSE combiners
        geom = build_ula(64, LAM / 2, LAM)
        rng = np.random.default_rng(7)
        for drop in range(10):
            K = 6
            H = np.zeros((64, K), dtype=complex)
            Hff = np.zeros_like(H)
            for k in range(K):
                phi = rng.uniform(-np.pi / 3, np.pi / 3)
                r = rng.uniform(0.2, 2.0)
                t = np.array([np.sin(phi) * r, 0.0, np.cos(phi) * r])
                H[:, k] = los_channel(geom, t, "exact")
                u = t / np.linalg.norm(t)
                amp = LAM / (4 * np.pi * t[2])
                plane = np.exp(-2j * np.pi / LAM * (r - geom.positions @ u))
                Hff[:, k] = amp * plane
            powers = np.ones(K)
            scen = UplinkScenario(H, powers, 1e-8)
            scen_ff = UplinkScenario(Hff, powers, 1e-8)
            se_exact = uplink_se(scen, lmmse_combiners(scen)).sum()
            se_mismatch = uplink_se(scen, lmmse_combiners(scen_ff)).sum()
            assert se_exact >= se_mismatch - 1e-9

    def test_relabeling_invariance(self):
        scen = _random_scenario(8, 5, 4)
        perm = np.array([2, 0, 4, 1, 3])
        scen_p = UplinkScenario(scen.H[:, perm], scen.powers[perm], scen.noise_power)
        se = uplink_se(scen, lmmse_combiners(scen))
        se_p = uplink_se(scen_p, lmmse_combiners(scen_p))
        assert abs(se.sum() - se_p.sum()) < 1e-9
        assert np.allclose(np.sort(se), np.sort(se_p), atol=1e-9)

    def test_adding_interferers_never_helps(self):
        scen_full = _random_scenario(10, 6, 5)
        for k_sub in (2, 4, 6):
            scen = UplinkScenario(scen_full.H[:, :k_sub], scen_full.powers[:k_sub],
                                  scen_full.noise_power)
            se = uplink_se(scen, lmmse_combiners(scen))
            if k_sub > 2:
                assert np.all(se[:2] <= prev2 + 1e-9)
            prev2 = se[:2]

    def test_zero_combiner_rejected(self):
        scen = _random_scenario(4, 2, 6)
        V = scen.H.copy()
        V[:, 0] = 0
        with pytest.raises(ContractError):
            uplink_se(scen, V)


class TestSuCapacity:
    def test_rank_one(self):
        h = np.array([[1.0 + 1j], [2.0 - 1j]])
        c = su_capacity(h, 4.0, 0.5)
        mu2 = np.linalg.norm(h) ** 2
        assert abs(c - np.log2(1 + 4.0 * mu2 / 0.5)) < 1e-12

    def test_ideal_equal_singular_values(self):
        # M_min log2(1 + SNR M_r M_t / M_min^2) for the ideal channel
        m, beta = 8, 0.7
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m)
        H = np.sqrt(beta) * F  # entries |H|^2 = beta, all singular values equal
        p, sigma2 = 3.0, 0.4
        snr = p * beta / sigma2
        expected = m * np.log2(1 + snr * m * m / m ** 2)
        assert abs(su_capacity(H, p, sigma2, "equal") - expected) < 1e-9
        assert abs(su_capacity(H, p, sigma2, "waterfilling") - expected) < 1e-9

    def test_waterfilling_dominates_equal(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            H = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            wf = su_capacity(H, 2.0, 1.0, "waterfilling")
            eq = su_capacity(H, 2.0, 1.0, "equal")
            assert wf >= eq - 1e-9

    def test_zero_channel(self):
        assert su_capacity(np.zeros((3, 3)), 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_channel_rejected(self, bad):
        # named before the SVD, which would raise numpy's LinAlgError on a NaN
        H = np.eye(3, dtype=complex)
        H[0, 1] = bad
        with pytest.raises(DomainError, match="H must be finite"):
            su_capacity(H, 1.0, 1.0)
        with pytest.raises(DomainError, match="H must be finite"):
            su_capacity(np.stack([np.eye(3), H]), 1.0, 1.0)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5))
                            + 1j * rng.standard_normal((5, 5)))
        assert abs(su_capacity(H, 2.0, 0.7) - su_capacity(Q @ H, 2.0, 0.7)) < 1e-9

    @pytest.mark.parametrize("allocation", ["waterfilling", "equal"])
    def test_stack_equals_per_matrix_calls_bit_for_bit(self, allocation):
        rng = np.random.default_rng(10)
        H = rng.standard_normal((2, 3, 5, 4)) + 1j * rng.standard_normal((2, 3, 5, 4))
        H[1, 2] = 0.0  # a zero channel inside the stack has capacity 0
        got = su_capacity(H, 2.0, 0.7, allocation)
        assert got.shape == (2, 3) and got[1, 2] == 0.0
        want = [[su_capacity(H[i, j], 2.0, 0.7, allocation) for j in range(3)]
                for i in range(2)]
        assert np.array_equal(got, want)
        assert type(su_capacity(H[0, 0], 2.0, 0.7, allocation)) is float

    def test_parallel_capacity_is_su_capacity_of_the_gains(self):
        rng = np.random.default_rng(11)
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        s = np.linalg.svd(H, compute_uv=False)
        assert parallel_capacity(s ** 2 / 0.3, 5.0) == su_capacity(H, 5.0, 0.3)
        assert parallel_capacity(np.zeros(3), 1.0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_powers_rejected(self, bad):
        H = np.eye(3)
        with pytest.raises(DomainError, match="total_power must be finite"):
            su_capacity(H, bad, 1.0)
        with pytest.raises(DomainError, match="noise_power must be finite"):
            su_capacity(H, 1.0, bad)
        with pytest.raises(DomainError, match="total_power must be finite"):
            waterfill_powers(np.array([1.0, 0.5]), bad)

    def test_nan_gain_rejected(self):
        # a NaN gain would fail `g > 0` and be read as an idle layer
        with pytest.raises(DomainError, match="NaN"):
            waterfill_powers(np.array([1.0, np.nan]), 1.0)

    @pytest.mark.parametrize("allocation", ["equal", "waterfilling"])
    @pytest.mark.parametrize("gains", [[-1.0, 1.0], [-3.0, 1.0], [np.nan, 1.0], [1.0, -1e-300]],
                             ids=["minus-1", "minus-3", "nan", "tiny-negative"])
    def test_parallel_capacity_rejects_negative_and_nan_gains(self, gains, allocation):
        # "equal" gave -0.415 bit/s/Hz for [-1, 1] and NaN for [-3, 1];
        # "waterfilling" idled a negative layer
        with pytest.raises(DomainError, match="^gains must be >= 0 and not NaN"):
            parallel_capacity(np.array(gains), 1.0, allocation)

    @pytest.mark.parametrize("allocation", ["equal", "waterfilling"])
    def test_parallel_capacity_admits_infinite_and_zero_gains(self, allocation):
        assert parallel_capacity(np.array([np.inf, 1.0]), 1.0, allocation) == np.inf
        assert parallel_capacity(np.array([0.0, -0.0, 3.0]), 2.0, allocation) > 0

    def test_waterfill_budget(self):
        g = np.array([3.0, 1.0, 0.2, 0.0])
        p = waterfill_powers(g, 5.0)
        assert abs(p.sum() - 5.0) < 1e-12
        assert p[3] == 0.0
        assert np.all(np.diff(p[:3]) <= 1e-12)


def _waterfill_row(g, total_power):
    """Reference: one row's water level by a descending search over the count
    k of active layers, the strongest first."""
    p = np.zeros_like(g)
    active = np.where(g > 0)[0]
    if active.size == 0:
        return p
    order = np.argsort(-g[active])
    inv = 1.0 / g[active][order]
    for k in range(active.size, 0, -1):
        level = (total_power + inv[:k].sum()) / k
        if level >= inv[k - 1]:
            break
    p[active[order[:k]]] = np.clip(level - inv[:k], 0.0, None)
    return p


class TestWaterfillStack:
    """waterfill_powers and parallel_capacity on a (..., L) stack at once,
    against a per-row loop of the descending search."""

    @staticmethod
    def _stack():
        g = np.random.default_rng(12)
        rows = [g.exponential(size=40) * 10.0 ** g.uniform(-2, 2, size=40) for _ in range(5)]
        rows += [np.zeros(40),  # no layer active
                 np.r_[np.inf, np.inf, 3.0, 0.5, np.zeros(36)],  # zero noise beside finite gains
                 np.r_[np.full(3, np.inf), np.zeros(37)],
                 np.r_[np.full(20, 2.0), np.full(20, 0.7)],  # tied gains
                 np.r_[5.0, 1e-6, 0.0, 5.0, np.full(36, 1e-3)],  # tied, tiny and idle layers
                 np.r_[1.0, np.zeros(39)],
                 np.full(40, 0.3)]
        return np.array(rows)

    @staticmethod
    def _level(g, p):
        """Each row's water level p_i + 1/g_i over its filled layers (0 if none):
        the scale of the rounding in level - 1/g_i."""
        floors = np.divide(1.0, g, out=np.zeros_like(g), where=g > 0)
        return np.max(np.where(p > 0, p + floors, 0.0), axis=-1)

    @pytest.mark.parametrize("total_power", [1e-3, 1.0, 8.0, 1e4])
    def test_stack_equals_row_loop(self, total_power):
        G = self._stack()
        got = waterfill_powers(G, total_power)
        want = np.array([_waterfill_row(row, total_power) for row in G])
        assert got.shape == G.shape
        assert np.all(np.abs(got - want) <= 1e-14 * self._level(G, want)[:, None])
        assert np.all(got[G <= 0] == 0) and not got[5].any()
        # a 3-d stack and a 1-d row give the same rows
        assert np.array_equal(waterfill_powers(G.reshape(3, 4, 40), total_power),
                              got.reshape(3, 4, 40))
        assert np.array_equal(waterfill_powers(G[0], total_power), got[0])

    @pytest.mark.parametrize("allocation", ["waterfilling", "equal"])
    def test_capacity_stack_equals_row_loop(self, allocation):
        G = self._stack()
        G = G[np.isfinite(G).all(axis=1)]  # an infinite gain has infinite capacity
        caps = parallel_capacity(G, 2.0, allocation)
        for row, cap in zip(G, caps):
            p = (_waterfill_row(row, 2.0) if allocation == "waterfilling"
                 else np.full(len(row), 2.0 / len(row)))
            want = 0.0 if not row.any() else np.sum(np.log2(1.0 + p * row))
            # powers within 1e-14 of the level move log2(1 + p g) by at most
            # g 1e-14 level / ln 2 per layer
            bound = 1e-14 * (self._level(row, p) * row.sum() / np.log(2) + want)
            assert abs(cap - want) <= bound
            assert cap == parallel_capacity(row, 2.0, allocation)

    def test_nan_in_stack_rejected(self):
        G = np.ones((3, 4))
        G[2, 1] = np.nan
        with pytest.raises(DomainError, match="NaN"):
            waterfill_powers(G, 1.0)
        with pytest.raises(DomainError, match="NaN"):
            parallel_capacity(G, 1.0)

    def test_empty_layers(self):
        assert waterfill_powers(np.zeros((2, 0)), 1.0).shape == (2, 0)
        assert parallel_capacity(np.zeros(0), 1.0) == 0.0
        with pytest.raises(ContractError):
            waterfill_powers(np.float64(1.0), 1.0)


class TestOptimalSpacing:
    def test_reference_value(self):
        assert abs(optimal_spacing(0.01, 50.0, 16, 0.005) - 6.25) < 1e-12

    def test_halving(self):
        a = optimal_spacing(0.01, 50.0, 16, 0.005)
        b = optimal_spacing(0.01, 50.0, 16, 0.01)
        assert abs(a - 2 * b) < 1e-12

    def test_fresnel_channel_equal_singular_values(self):
        # at the returned spacing the paraxial-model LoS matrix is an ideal
        # DFT-like channel: all 16 singular values equal within 5%
        lam, d, m = 0.01, 50.0, 16
        dr = lam / 2
        dt = optimal_spacing(lam, d, m, dr)
        rx = build_ula(m, dr, lam)
        H = np.zeros((m, m), dtype=complex)
        xt = (np.arange(m) - (m - 1) / 2) * dt
        for n in range(m):
            H[:, n] = los_channel(rx, np.array([xt[n], 0.0, d]), "fresnel")
        s = np.linalg.svd(H, compute_uv=False)
        assert s.min() / s.max() > 0.95

    def test_bad_arguments_rejected(self):
        with pytest.raises(DomainError):
            optimal_spacing(0.0, 1.0, 4, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_arguments_rejected(self, bad):
        with pytest.raises(DomainError, match="wavelength must be finite"):
            optimal_spacing(bad, 50.0, 16, 0.005)
        with pytest.raises(DomainError, match="distance must be finite"):
            optimal_spacing(0.01, bad, 16, 0.005)
        with pytest.raises(DomainError, match="rx_spacing must be finite"):
            optimal_spacing(0.01, 50.0, 16, bad)
