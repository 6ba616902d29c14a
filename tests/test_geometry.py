import numpy as np
import pytest

from ummimo.channel import correlation_matrix, gaussian_cluster_profile
from ummimo.errors import ContractError
from ummimo.geometry import (ArrayGeometry, Lattice, build_ula, build_upa,
                             fraunhofer_square, region_bounds, _has_close_pair)


class TestBuildUpa:
    def test_single_element_at_origin(self):
        geom = build_upa(1, 1, 0.005, 0.005, 0.01)
        assert geom.num_elements == 1
        assert np.array_equal(geom.positions, np.zeros((1, 3)))

    def test_two_element_centering(self):
        lam = 1.0
        geom = build_upa(2, 1, lam / 2, lam / 2, lam)
        assert np.allclose(sorted(geom.positions[:, 0]), [-lam / 4, lam / 4], rtol=1e-15, atol=0.0)

    def test_reference_array_aperture(self):
        # 100 x 50 grid at 0.01 m spacing spans 1 m x 0.5 m
        geom = build_upa(100, 50, 0.01, 0.01, 0.01)
        assert abs(geom.aperture - np.hypot(1.0, 0.5)) < 1e-12
        assert abs(region_bounds(geom).d_power - 2.24) < 0.01

    def test_centroid_at_origin(self):
        geom = build_upa(5, 3, 0.1, 0.2, 1.0)
        assert np.allclose(geom.positions.mean(axis=0), 0.0, atol=1e-15)

    def test_zero_counts_rejected(self):
        with pytest.raises(ContractError):
            build_upa(0, 1, 0.1, 0.1, 1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_wavelength_rejected(self, lam):
        with pytest.raises(ContractError, match="wavelength"):
            build_upa(2, 2, 0.1, 0.1, lam)

    @pytest.mark.parametrize("dx, dy", [(np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1)])
    def test_nonfinite_spacing_rejected(self, dx, dy):
        with pytest.raises(ContractError, match="spacings"):
            build_upa(2, 2, dx, dy, 1.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf])
    def test_ula_nonfinite_spacing_rejected(self, spacing):
        with pytest.raises(ContractError, match="spacings"):
            build_ula(4, spacing, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_position_rejected(self, bad):
        pos = build_upa(2, 2, 0.1, 0.1, 1.0).positions.copy()
        pos[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            ArrayGeometry(pos, 1.0)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ContractError):
            ArrayGeometry(np.zeros((2, 3)), 1.0)

    def test_permuted_duplicate_rejected(self):
        pos = build_upa(4, 3, 0.1, 0.2, 1.0).positions
        rows = np.random.default_rng(0).permutation(np.vstack([pos, pos[7]]))
        with pytest.raises(ContractError, match="distinct"):
            ArrayGeometry(rows, 1.0)

    def test_signed_zero_duplicate_rejected(self):
        pos = np.array([[0.0, 0.1, 0.0], [0.3, 0.0, 0.0], [-0.0, 0.1, -0.0]])
        with pytest.raises(ContractError, match="distinct"):
            ArrayGeometry(pos, 1.0)

    def test_near_coincident_builder_rejected(self):
        # spacing 1e-10 wavelengths: the lattice check refuses it
        with pytest.raises(ContractError, match="distinct"):
            build_ula(4, 1e-12, 0.01)
        with pytest.raises(ContractError, match="distinct"):
            build_upa(3, 2, 0.005, 1e-9, 0.01)
        assert build_upa(3, 2, 0.005, 2e-8, 0.01).num_elements == 6

    def test_near_coincident_positions_rejected(self):
        # a permuted UPA plus one element 1e-12 m (1e-10 wavelengths) off another
        lam = 0.01
        pos = build_upa(6, 5, lam / 2, lam / 3, lam).positions
        extra = pos[11] + [1e-12, -1e-12, 0.0]
        rows = np.random.default_rng(4).permutation(np.vstack([pos, extra]))
        with pytest.raises(ContractError, match="distinct"):
            ArrayGeometry(rows, lam)
        # 2e-6 wavelengths apart, out of the plane, is far enough
        ok = np.vstack([pos, pos[11] + [0.0, 0.0, 2e-8]])
        assert ArrayGeometry(ok, lam).num_elements == 31

    def test_reference_array_builds(self):
        geom = build_upa(100, 50, 0.01, 0.01, 0.01)
        assert geom.num_elements == 5000
        assert geom.lattice == Lattice(100, 50, 0.01, 0.01)

    def test_lattice_must_match_positions(self):
        geom = build_upa(4, 3, 0.1, 0.2, 1.0)
        with pytest.raises(ContractError, match="lattice"):
            ArrayGeometry(geom.positions, 1.0, Lattice(3, 4, 0.1, 0.2))
        with pytest.raises(ContractError, match="lattice"):
            ArrayGeometry(geom.positions, 1.0, Lattice(4, 3, 0.2, 0.1))
        shifted = ArrayGeometry(geom.positions + [1.0, -2.0, 0.5], 1.0, geom.lattice)
        assert shifted.aperture == geom.aperture

    def test_plain_tuple_lattice_becomes_record(self):
        geom = build_upa(4, 3, 0.1, 0.2, 1.0)
        plain = ArrayGeometry(geom.positions, 1.0, (np.int64(4), 3, 0.1, 0.2))
        assert isinstance(plain.lattice, Lattice) and plain.lattice == geom.lattice
        prof = gaussian_cluster_profile([(0.2, -0.1)], 0.3)
        assert np.array_equal(correlation_matrix(plain, prof).R,
                              correlation_matrix(geom, prof).R)

    @pytest.mark.parametrize("lattice", [(4, 3, 0.1), (4.0, 3, 0.1, 0.2), (4, 3, "a", 0.2)])
    def test_malformed_lattice_rejected(self, lattice):
        pos = build_upa(4, 3, 0.1, 0.2, 1.0).positions
        with pytest.raises(ContractError, match="lattice"):
            ArrayGeometry(pos, 1.0, lattice)


def _brute_close_pair(pos, tol):
    """Whether any two rows of pos lie closer than tol, over all pairs."""
    i, j = np.triu_indices(len(pos), 1)
    return bool(np.any(np.sum((pos[i] - pos[j]) ** 2, axis=1) < tol ** 2))


class TestClosePair:
    """The sort-and-sweep coincidence check against every pair."""

    LAM = 0.01
    TOL = 1e-6 * LAM

    def _clouds(self):
        rng = np.random.default_rng(25)
        for _ in range(400):
            m = int(rng.integers(1, 40))
            pos = rng.uniform(-1.0, 1.0, (m, 3)) * 10.0 ** rng.uniform(-8, -1)
            if rng.random() < 0.4:  # one axis collapsed, as for a planar array
                pos[:, rng.integers(3)] = 0.0
            if m > 1 and rng.random() < 0.5:  # a pair planted 3e-7 wavelengths apart
                a, b = rng.choice(m, 2, replace=False)
                step = rng.standard_normal(3)
                pos[b] = pos[a] + 3e-7 * self.LAM * step / np.linalg.norm(step)
            yield pos

    def test_random_clouds_agree_with_brute_force(self):
        verdicts = [(_has_close_pair(pos, self.TOL), _brute_close_pair(pos, self.TOL))
                    for pos in self._clouds()]
        assert all(got == want for got, want in verdicts)
        assert 50 < sum(want for _, want in verdicts) < 350  # both answers occur

    def test_signed_zeros(self):
        pos = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, self.LAM, 0.0]])
        assert _has_close_pair(pos, self.TOL) and _brute_close_pair(pos, self.TOL)
        assert not _has_close_pair(pos[1:], self.TOL)

    def test_ula_along_y(self):
        ys = (np.arange(256) - 127.5) * self.LAM / 2
        pos = np.stack([np.zeros(256), ys, np.zeros(256)], axis=1)
        assert not _has_close_pair(pos, self.TOL)
        planted = np.vstack([pos, pos[100] + [3e-7 * self.LAM, 0.0, 0.0]])
        assert _has_close_pair(planted, self.TOL)
        assert _brute_close_pair(planted, self.TOL)

    def test_one_and_two_elements(self):
        one = np.array([[0.3, -0.2, 0.1]])
        assert not _has_close_pair(one, self.TOL)
        for gap, close in ((3e-7 * self.LAM, True), (2e-6 * self.LAM, False)):
            two = np.array([[0.3, -0.2, 0.1], [0.3, -0.2, 0.1 + gap]])
            assert _has_close_pair(two, self.TOL) == close == _brute_close_pair(two, self.TOL)


class TestRegionBounds:
    def test_reference_fraunhofer(self):
        geom = build_upa(100, 50, 0.01, 0.01, 0.01)
        b = region_bounds(geom)
        assert abs(b.d_fraunhofer - 250.0) < 1e-9
        assert abs(b.d_power - 2 * np.hypot(1.0, 0.5)) < 1e-12

    def test_single_antenna_degenerate(self):
        b = region_bounds(build_upa(1, 1, 0.1, 0.1, 1.0))
        assert b.aperture == 0.0
        assert b.d_reactive == 0.0 and b.d_power == 0.0 and b.d_fraunhofer == 0.0

    def test_boundary_identities(self):
        geom = build_upa(16, 16, 0.005, 0.005, 0.01)
        b = region_bounds(geom)
        D, lam = b.aperture, geom.wavelength
        assert abs(b.d_fraunhofer - 2 * D ** 2 / lam) < 1e-12
        assert abs(b.d_fraunhofer / b.d_power - D / lam) < 1e-9
        assert abs(b.d_reactive - 0.62 * np.sqrt(D ** 3 / lam)) < 1e-12
        assert b.d_reactive < b.d_fraunhofer  # D > lambda here


class TestFraunhoferSquare:
    def test_unit_case(self):
        assert fraunhofer_square(1, 0.5, 1.0) == 1.0

    def test_reference_value(self):
        # direct evaluation, cross-checked against 2 D^2 / lambda with
        # D = sqrt(2) N Delta: both give 100 m for this configuration
        n, d, lam = 100, 0.005, 0.01
        expected = 2 * (np.sqrt(2) * n * d) ** 2 / lam
        val = fraunhofer_square(n, d, lam)
        assert abs(val - 100.0) < 1e-9
        assert abs(val - expected) < 1e-9 * expected

    @pytest.mark.parametrize("spacing, lam", [(np.nan, 0.01), (0.005, np.nan),
                                              (np.inf, 0.01), (0.005, np.inf)])
    def test_nonfinite_rejected(self, spacing, lam):
        with pytest.raises(ContractError, match="finite"):
            fraunhofer_square(8, spacing, lam)

    def test_quadratic_scaling(self):
        assert fraunhofer_square(64, 0.01, 0.02) * 4 == fraunhofer_square(128, 0.01, 0.02)

    def test_matches_region_bounds_for_square(self):
        n, lam = 32, 0.01
        geom = build_upa(n, n, lam / 2, lam / 2, lam)
        b = region_bounds(geom)
        val = fraunhofer_square(n, lam / 2, lam)
        assert abs(val - b.d_fraunhofer) < 1e-9 * val
