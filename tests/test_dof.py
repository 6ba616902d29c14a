import tracemalloc

import numpy as np
import pytest

from ummimo import channel
from ummimo.errors import ContractError, DomainError
from ummimo.channel import (SpatialCorrelation, correlation_matrix, gaussian_cluster_profile,
                            isotropic_profile)
from ummimo.dof import (active_rf_chains, bbu_rate, dof_1d, dof_2d, dof_report,
                        effective_rank)
from ummimo.geometry import build_ula, build_upa

LAM = 0.01


class TestFormulas:
    def test_half_wavelength_ula(self):
        m = 64
        assert dof_1d(m * LAM / 2, LAM) == m

    def test_quarter_wavelength_ula(self):
        assert dof_1d(16 * LAM, LAM) == 32  # 64 elements at lambda/4

    def test_wavelength_scaling(self):
        assert dof_1d(1.0, 2 * LAM) == dof_1d(1.0, LAM) / 2

    def test_2d_ratio(self):
        res = dof_2d(0.3, 0.2, LAM)
        assert abs(res.eta / res.separable - np.pi / 4) < 1e-12
        assert abs(res.ratio - np.pi / 4) < 1e-15

    def test_2d_reference(self):
        res = dof_2d(8 * LAM, 8 * LAM, LAM)
        assert abs(res.eta - 64 * np.pi) < 1e-9  # 201.06

    def test_zero_area(self):
        assert dof_2d(0.0, 1.0, LAM).eta == 0.0
        assert dof_2d(0.0, 0.0, LAM).separable == 0.0

    @pytest.mark.parametrize("length, lam", [(np.nan, LAM), (np.inf, LAM), (1.0, np.nan),
                                             (1.0, np.inf), (0.0, LAM), (-1.0, LAM),
                                             (1.0, 0.0)])
    def test_1d_nonfinite_or_nonpositive_rejected(self, length, lam):
        with pytest.raises(DomainError, match="must be finite and positive"):
            dof_1d(length, lam)

    @pytest.mark.parametrize("lx, ly, lam", [(1.0, np.nan, LAM), (np.nan, 1.0, LAM),
                                             (np.inf, 1.0, LAM), (1.0, np.inf, LAM),
                                             (-1.0, 1.0, LAM), (1.0, 1.0, np.nan),
                                             (1.0, 1.0, np.inf), (1.0, 1.0, 0.0)])
    def test_2d_nonfinite_or_negative_rejected(self, lx, ly, lam):
        with pytest.raises(DomainError, match="must be finite and"):
            dof_2d(lx, ly, lam)


class TestEffectiveRank:
    def test_uniform_mass(self):
        assert effective_rank(np.ones(100), 0.99) == 99

    def test_rank_one(self):
        assert effective_rank([5.0, 0.0, 0.0], 0.99) == 1

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            effective_rank([])

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            effective_rank([1.0, -0.1])

    @pytest.mark.parametrize("spectrum", [[np.inf, 1.0], [1.0, np.nan], [-np.inf, 1.0]],
                             ids=["inf", "nan", "minus-inf"])
    def test_nonfinite_rejected(self, spectrum):
        # [inf, 1] gave rank 3 of 2 eigenvalues, [1, nan] rank 1 and a warning
        with pytest.raises(DomainError, match="^spectrum must be finite"):
            effective_rank(spectrum)

    def test_bad_fraction_rejected(self):
        with pytest.raises(DomainError):
            effective_rank([1.0], 0.0)


class TestEigenCounts:
    @pytest.mark.parametrize("frac,target", [(0.5, 64), (0.25, 32), (1 / 6, 64 / 3)])
    def test_ula_dof_counts(self, frac, target):
        geom = build_ula(64, frac * LAM, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        report = dof_report(corr.R, dof_1d(64 * frac * LAM, LAM))
        assert abs(report.effective_rank - target) <= 2

    def test_translation_invariance(self):
        # formulas depend on extents only, so a shifted ULA has the same counts
        geom = build_ula(32, LAM / 4, LAM)
        from ummimo.geometry import ArrayGeometry
        shifted = ArrayGeometry(geom.positions + np.array([0.3, -0.2, 0.0]), LAM)
        r1 = correlation_matrix(geom, isotropic_profile()).R
        r2 = correlation_matrix(shifted, isotropic_profile()).R
        w1 = np.linalg.eigvalsh(r1)
        w2 = np.linalg.eigvalsh(r2)
        assert np.allclose(w1, w2, atol=1e-9)

    def test_rank_tracks_dof_formula_within_ten_percent(self):
        cases = []
        for frac in (0.5, 0.25, 1 / 6):
            geom = build_ula(64, frac * LAM, LAM)
            eta = min(64, dof_1d(64 * frac * LAM, LAM))
            cases.append((geom, eta))
        geom = build_upa(16, 16, LAM / 2, LAM / 2, LAM)
        cases.append((geom, min(256, dof_2d(8 * LAM, 8 * LAM, LAM).eta)))
        for geom, eta in cases:
            corr = correlation_matrix(geom, isotropic_profile())
            rank = dof_report(corr.R, eta).effective_rank
            assert abs(rank - eta) <= 0.10 * eta


class TestDofReport:
    def test_real_valued_complex_matrix_same_spectrum(self):
        # the isotropic closed form is complex with a zero imaginary part;
        # its spectrum equals the complex Hermitian solver's
        R = correlation_matrix(build_upa(8, 8, LAM / 2, LAM / 2, LAM), isotropic_profile()).R
        assert np.iscomplexobj(R) and not np.any(R.imag)
        report = dof_report(R, 1.0)
        w = np.clip(np.linalg.eigvalsh(R)[::-1], 0.0, None)
        assert np.allclose(report.eigen_spectrum, w / w[0], rtol=0.0, atol=1e-13)
        assert report.effective_rank == effective_rank(w)

    def test_complex_hermitian_spectrum(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        R = A @ A.conj().T
        w = np.linalg.eigvalsh(R)[::-1]
        assert np.allclose(dof_report(R, 1.0).eigen_spectrum, w / w[0], rtol=0.0, atol=1e-13)


class TestFullSpectrumContracts:
    """eigh reads one triangle, so a bare R is checked when it is wrapped."""

    @staticmethod
    def _upa_r():
        return correlation_matrix(build_upa(4, 4, LAM / 4, LAM / 4, LAM),
                                  isotropic_profile()).R.copy()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entry_rejected(self, bad):
        R = self._upa_r()
        R[0, 1] = bad
        with pytest.raises(DomainError, match="R must be finite"):
            dof_report(R, 1.0)
        with pytest.raises(DomainError, match="R must be finite"):
            SpatialCorrelation(R, 1.0).spectrum

    def test_non_hermitian_rejected(self):
        R = self._upa_r()
        R[0, 1] += 1e-3
        with pytest.raises(ContractError, match="R is not Hermitian"):
            dof_report(R, 1.0)
        with pytest.raises(ContractError, match="R is not Hermitian"):
            dof_report(R.real, 1.0)

    def test_hermitian_within_tolerance_accepted(self):
        # hermitian_eig's tolerance, 1e-10 ||R||_F, admits rounding-level skew
        R = self._upa_r()
        R[0, 1] += 1e-12 * np.linalg.norm(R)
        assert dof_report(R, 1.0).eigen_spectrum.shape == (16,)


def _full(R):
    """The full solver's normalized spectrum."""
    w = np.clip(np.linalg.eigvalsh(R)[::-1], 0.0, None)
    return w / w[0]


def _eig_normalized(corr):
    """dof_report's normalized spectrum from the eigenvalues of corr.eig."""
    w = np.clip(corr.eig[0], 0.0, None)
    return w / w[0]


def _near_eigvalsh(w, R):
    return np.max(np.abs(w - np.linalg.eigvalsh(R)[::-1])) <= 1e-13 * np.abs(w).max()


class TestCentrosymmetricSplit:
    """The spectrum of a builder array's isotropic correlation from the four
    parity blocks of its lag table (each lattice axis folded into halves by
    its reflection), against one eigvalsh of R; everything else reads the
    eigenvalues of its one eig."""

    @pytest.mark.parametrize("shape, fx, fy", [
        ((5, 5), 1 / 2, 1 / 2), ((8, 7), 1 / 3, 1 / 2), ((16, 16), 1 / 2, 1 / 2),
        ((20, 1), 1 / 4, 1 / 4), ((7, 9), 0.3, 0.45), ((1, 9), 0.4, 0.4), ((6, 1), 0.7, 0.7),
        ((1, 1), 0.5, 0.5), ((2, 3), 0.35, 0.6), ((9, 9), 1 / 4, 1 / 4), ((12, 12), 0.3, 0.3),
        ((2, 2), 0.4, 0.4), ((3, 3), 0.45, 0.45)],
        ids=["5x5", "8x7", "16x16", "ula20", "7x9", "1x9", "6x1", "1x1", "2x3", "9x9", "12x12",
             "2x2", "3x3"])
    def test_half_blocks_equal_full_solver(self, shape, fx, fy):
        corr = correlation_matrix(build_upa(*shape, fx * LAM, fy * LAM, LAM),
                                  isotropic_profile(1.7))
        w = corr.spectrum
        assert corr._R is None  # the blocks come from the lag table alone
        assert not w.flags.writeable and corr.spectrum is w
        assert np.all(np.diff(w) <= 0)
        full = np.linalg.eigvalsh(corr.R.real)[::-1]
        assert np.max(np.abs(w - full)) <= 1e-13 * full[0]
        report = dof_report(corr, 1.0)
        assert np.max(np.abs(report.eigen_spectrum - _full(corr.R))) < 1e-13
        assert report.effective_rank == dof_report(corr.R, 1.0).effective_rank

    @pytest.mark.parametrize("n", [20, 21])
    def test_one_axis_fold_is_the_centrosymmetric_half_split(self, n):
        # one lattice axis: the even and odd blocks are A + B (bordered by
        # the middle row for odd M) and A - B of R's half blocks, bit for bit
        corr = correlation_matrix(build_ula(n, LAM / 4, LAM), isotropic_profile())
        R, h = corr.R.real, n // 2
        A, B = R[:h, :h], R[:h, :n - h - 1:-1]
        even = A + B
        if n % 2:
            c = np.sqrt(2.0) * R[:h, h:h + 1]
            even = np.block([[even, c], [c.T, R[h:h + 1, h:h + 1]]])
        halves = np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(A - B)])
        assert np.array_equal(corr.spectrum, np.sort(halves)[::-1])

    @pytest.mark.parametrize("shape, fx, fy, splits", [
        ((6, 6), 1 / 2, 1 / 2, 2), ((7, 7), 1 / 3, 1 / 3, 2), ((6, 5), 1 / 2, 1 / 2, 0),
        ((6, 6), 1 / 2, 1 / 3, 0), ((1, 1), 1 / 2, 1 / 2, 0)],
        ids=["6x6", "7x7", "6x5", "6x6-dx-ne-dy", "1x1"])
    def test_axis_swap_split_only_on_a_symmetric_square(self, shape, fx, fy, splits,
                                                        monkeypatch):
        # a square lattice with dx == dy has T == T.T, and each of its blocks
        # (1, 1) and (-1, -1) splits once more under the axis swap; a
        # non-square lattice, or dx != dy, keeps the four parity blocks
        calls = []
        split = channel._swap_split
        monkeypatch.setattr(channel, "_swap_split",
                            lambda B, h: calls.append(h) or split(B, h))
        corr = correlation_matrix(build_upa(*shape, fx * LAM, fy * LAM, LAM), isotropic_profile())
        w = corr.spectrum
        assert len(calls) == splits
        full = np.linalg.eigvalsh(corr.R.real)[::-1]
        assert w.shape == full.shape and np.max(np.abs(w - full)) <= 1e-13 * full[0]

    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_swap_split_blocks_are_the_block_spectrum(self, h):
        # a random symmetric B that commutes with (a, c) -> (c, a): the
        # symmetric and antisymmetric blocks hold its h^2 eigenvalues
        rng = np.random.default_rng(h)
        swap = np.arange(h * h).reshape(h, h).T.ravel()
        A = rng.standard_normal((h * h, h * h))
        B = A + A.T
        B = B + B[np.ix_(swap, swap)]
        sym, anti = channel._swap_split(B, h)
        assert sym.shape == (h * (h + 1) // 2,) * 2 and anti.shape == (h * (h - 1) // 2,) * 2
        got = np.sort(np.concatenate([np.linalg.eigvalsh(sym), np.linalg.eigvalsh(anti)]))
        want = np.linalg.eigvalsh(B)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    def test_quadrature_lag_table_uses_full_solver(self):
        # a clustered profile's lag table is complex: the eigenvalues of its eig
        profile = gaussian_cluster_profile([(0.3, 0.1), (-0.5, 0.2)], np.deg2rad(12))
        corr = correlation_matrix(build_upa(6, 5, LAM / 2, LAM / 3, LAM), profile)
        assert corr.spectrum is corr.eig[0] and _near_eigvalsh(corr.spectrum, corr.R)
        assert np.array_equal(dof_report(corr, 1.0).eigen_spectrum, _eig_normalized(corr))

    def test_general_symmetric_matrix_uses_full_solver(self):
        # a bare matrix, and a SpatialCorrelation wrapping one, have no lag table
        rng = np.random.default_rng(5)
        A = rng.standard_normal((9, 9))
        R = A @ A.T
        assert not np.array_equal(R, R[::-1, ::-1])
        corr = SpatialCorrelation(R, 1.0)
        assert np.array_equal(dof_report(R, 1.0).eigen_spectrum, _eig_normalized(corr))
        assert corr.spectrum is corr.eig[0] and _near_eigvalsh(corr.spectrum, R)

    def test_one_ulp_off_centrosymmetric_uses_full_solver(self):
        R = correlation_matrix(build_upa(4, 3, LAM / 2, LAM / 2, LAM), isotropic_profile()).R
        R = R.real.copy()
        R[0, 1] = R[1, 0] = np.nextafter(R[0, 1], 1.0)
        assert not np.array_equal(R, R[::-1, ::-1])
        corr = SpatialCorrelation(R, 1.0)
        assert np.array_equal(dof_report(R, 1.0).eigen_spectrum, _eig_normalized(corr))
        assert _near_eigvalsh(corr.spectrum, R)

    def test_num_antennas_does_not_gather(self):
        corr = correlation_matrix(build_upa(6, 4, LAM / 2, LAM / 2, LAM), isotropic_profile())
        assert corr.num_antennas == 24 and corr._R is None
        R = corr.R
        assert R.shape == (24, 24) and not R.flags.writeable and corr.R is R


class TestSpectrumMemory:
    def test_dof_report_never_forms_r(self):
        # 32 x 32 lambda/2 UPA: a quarter of R's 16 M^2 bytes bounds the
        # peak of building the correlation and its report
        geom = build_upa(32, 32, LAM / 2, LAM / 2, LAM)
        m = geom.num_elements
        tracemalloc.start()
        try:
            corr = correlation_matrix(geom, isotropic_profile())
            dof_report(corr, dof_2d(16 * LAM, 16 * LAM, LAM).eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 16 / 4
        assert corr._R is None

    def test_reference_array_spectrum_sums_to_trace(self):
        # the paper's 100 x 50 lambda-spaced array, M = 5000: the trace of R
        # is M beta, its diagonal being beta
        beta = 2.5
        corr = correlation_matrix(build_upa(100, 50, LAM, LAM, LAM), isotropic_profile(beta))
        w = corr.spectrum
        assert w.shape == (5000,)
        assert abs(w.sum() - 5000 * beta) <= 1e-9 * 5000 * beta
        assert corr._R is None


class TestDeploymentArithmetic:
    def test_bbu_reference_rates(self):
        r1 = bbu_rate(10.0, 1e8, 16, 3e9)
        assert abs(r1 - 5e12) < 0.02 * 5e12
        r2 = bbu_rate(10.0, 1e9, 16, 3e10)
        assert abs(r2 - 5e15) < 0.02 * 5e15
        assert abs(r2 - 1000 * r1) < 1e-3 * r2

    def test_bbu_zero_area(self):
        assert bbu_rate(0.0, 1e8, 16, 3e9) == 0.0

    def test_four_panel_example(self):
        # 4 panels of unit area, 2 chains each, half active -> 4 chains
        area_p, m_p = 1.0, 2
        mu = m_p / area_p
        assert active_rf_chains(4 * area_p, 0.5, mu) == 4.0

    def test_fraction_limits(self):
        assert active_rf_chains(7.0, 0.0, 3.0) == 0.0
        assert active_rf_chains(7.0, 1.0, 3.0) == 21.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(DomainError):
            active_rf_chains(1.0, 1.5, 1.0)

    def test_fraction_upper_bound_is_one(self):
        assert active_rf_chains(7.0, 1.0, 3.0) == 21.0
        with pytest.raises(DomainError, match="active_fraction"):
            active_rf_chains(7.0, np.nextafter(1.0, 2.0), 3.0)

    @pytest.mark.parametrize("args", [(np.nan, 0.5, 1.0), (1.0, 0.5, np.nan), (np.inf, 0.5, 1.0),
                                      (1.0, 0.5, np.inf), (-1.0, 0.5, 1.0), (1.0, np.nan, 1.0)])
    def test_active_chains_nonfinite_or_negative_rejected(self, args):
        with pytest.raises(DomainError):
            active_rf_chains(*args)

    @pytest.mark.parametrize("args", [(np.nan, 1e8, 16, 3e9), (10.0, np.nan, 16, 3e9),
                                      (10.0, 1e8, np.nan, 3e9), (10.0, 1e8, 16, np.nan),
                                      (np.inf, 1e8, 16, 3e9), (10.0, 1e8, 16, np.inf),
                                      (10.0, -1e8, 16, 3e9)])
    def test_bbu_nonfinite_or_negative_rejected(self, args):
        with pytest.raises(DomainError, match="must be finite and nonnegative"):
            bbu_rate(*args)

    def test_zero_arguments_stay_legal(self):
        assert bbu_rate(10.0, 0.0, 0.0, 0.0) == 0.0
        assert active_rf_chains(0.0, 0.5, 0.0) == 0.0
