import math
import re

import numpy as np
import pytest

from ummimo import channel, numerics
from ummimo.errors import ContractError, DomainError, SingularityError
from ummimo.channel import (SpatialCorrelation, correlation_matrix, gaussian_cluster_profile,
                            isotropic_profile, los_channel, sample_rayleigh,
                            steering_matrix)
from ummimo.geometry import ArrayGeometry, _lattice_axes, build_ula, build_upa, region_bounds
from ummimo.numerics import QuadratureGrid, RngStream, complex_gaussian, hemisphere_grid

LAM = 0.01


class TestArrayResponse:
    def test_broadside_all_ones(self):
        geom = build_upa(4, 3, LAM / 2, LAM / 2, LAM)
        s = steering_matrix(geom, [0.0], [0.0])[0]
        assert np.allclose(s, 1.0, atol=1e-14)

    def test_endfire_phase_difference(self):
        geom = build_ula(2, LAM / 2, LAM)
        s = steering_matrix(geom, [np.pi / 2], [0.0])[0]
        dphi = np.angle(s[1] / s[0])
        assert abs(abs(dphi) - np.pi) < 1e-12

    def test_unit_modulus_norm(self):
        geom = build_upa(5, 5, LAM / 3, LAM / 3, LAM)
        rng = np.random.default_rng(0)
        for _ in range(20):
            az = rng.uniform(-np.pi / 2, np.pi / 2)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            s = steering_matrix(geom, [az], [el])[0]
            assert abs(np.linalg.norm(s) ** 2 - geom.num_elements) < 1e-9


class TestLosChannel:
    def test_common_magnitudes(self):
        geom = build_upa(8, 8, LAM / 2, LAM / 2, LAM)
        tx = np.array([0.3, -0.1, 2.0])
        h = los_channel(geom, tx, "exact")
        amp = LAM / (4 * np.pi * 2.0)
        assert np.allclose(np.abs(h), amp, rtol=1e-12, atol=0.0)

    def test_single_antenna_phase(self):
        geom = build_upa(1, 1, LAM, LAM, LAM)
        z = 1.2345
        h = los_channel(geom, np.array([0, 0, z]), "exact")
        expected = -2 * np.pi * z / LAM
        assert abs(np.angle(h[0] * np.exp(-1j * expected))) < 1e-9

    def test_fresnel_matches_exact_beyond_fraunhofer(self):
        geom = build_upa(16, 16, LAM / 2, LAM / 2, LAM)
        d_f = region_bounds(geom).d_fraunhofer
        for z in [d_f, 2 * d_f, 10 * d_f]:
            tx = np.array([0.0, 0.0, z])
            he = los_channel(geom, tx, "exact")
            hf = los_channel(geom, tx, "fresnel")
            dphi = np.angle(he / hf)
            assert np.max(np.abs(dphi)) < np.pi / 8

    def test_per_element_amplitude(self):
        geom = build_ula(4, LAM / 2, LAM)
        tx = np.array([0.05, 0.0, 0.3])
        h = los_channel(geom, tx, "exact", amplitude="per-element")
        d = np.linalg.norm(tx[None, :] - geom.positions, axis=1)
        assert np.allclose(np.abs(h), LAM / (4 * np.pi * d), rtol=1e-12, atol=0.0)

    def test_coincident_transmitter_rejected(self):
        geom = build_ula(4, LAM / 2, LAM)
        with pytest.raises(SingularityError):
            los_channel(geom, geom.positions[1], "exact")
        tx = np.array([[0.1, 0.0, 1.0], geom.positions[2]])
        with pytest.raises(SingularityError):
            los_channel(geom, tx, "exact")

    @pytest.mark.parametrize("mode", ["exact", "fresnel"])
    @pytest.mark.parametrize("amplitude", ["common", "per-element"])
    def test_batch_equals_columnwise_calls(self, mode, amplitude):
        geom = build_upa(6, 4, LAM / 2, LAM / 3, LAM)
        rng = np.random.default_rng(8)
        tx = np.column_stack([rng.uniform(-0.5, 0.5, (5, 2)), rng.uniform(0.2, 3.0, 5)])
        H = los_channel(geom, tx, mode, amplitude)
        assert H.shape == (geom.num_elements, 5)
        for k in range(5):
            assert np.array_equal(H[:, k], los_channel(geom, tx[k], mode, amplitude))

    def test_bad_transmitter_shape_rejected(self):
        geom = build_ula(4, LAM / 2, LAM)
        for tx in (np.zeros(2), np.ones((2, 2)), np.ones((2, 2, 3))):
            with pytest.raises(ContractError):
                los_channel(geom, tx)

    @pytest.mark.parametrize("mode", ["exact", "fresnel"])
    def test_non_finite_transmitter_rejected(self, mode):
        geom = build_ula(4, LAM / 2, LAM)
        for tx in ([np.nan, 0.0, 1.0], [[0.1, 0.0, 1.0], [0.0, np.inf, 2.0]]):
            with pytest.raises(DomainError, match="tx must be finite"):
                los_channel(geom, tx, mode)


def _reference_los(geom, tx, mode, amplitude):
    """los_channel as the (K, M, 3) formula that the per-axis one replaced."""
    t = np.atleast_2d(np.asarray(tx, dtype=float))[:, None, :]
    lam, pos = geom.wavelength, geom.positions
    dist = np.linalg.norm(t - pos, axis=-1)
    z = np.abs(t[..., 2] - geom.positions[:, 2].mean())
    if mode == "fresnel":
        trans2 = (t[..., 0] - pos[:, 0]) ** 2 + (t[..., 1] - pos[:, 1]) ** 2
        path = z + trans2 / (2.0 * z)
    else:
        path = dist
    r = z if amplitude == "common" else dist
    h = lam / (4.0 * np.pi * r) * np.exp(-2j * np.pi / lam * path)
    return h.T if np.ndim(tx) == 2 else h[0]


class TestPerAxisBitIdentity:
    @pytest.mark.parametrize("mode", ["exact", "fresnel"])
    @pytest.mark.parametrize("amplitude", ["common", "per-element"])
    def test_los_channel(self, mode, amplitude):
        rng = np.random.default_rng(41)
        tilted = rng.uniform(-0.05, 0.05, (9, 3)) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.02]
        for geom in (build_upa(32, 16, LAM / 2, LAM / 2, LAM), build_ula(7, LAM / 3, LAM),
                     ArrayGeometry(tilted, LAM)):
            batch = np.column_stack([rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(0.5, 5.0, 40)])
            for tx in (batch[0], batch):
                got = los_channel(geom, tx, mode, amplitude)
                assert np.array_equal(got, _reference_los(geom, tx, mode, amplitude))
                assert got.shape == (geom.num_elements,) + batch.shape[:tx.ndim - 1]

    def test_steering_matrix(self):
        rng = np.random.default_rng(42)
        geom = build_upa(8, 6, LAM / 2, LAM / 3, LAM)
        az, el = rng.uniform(-1.5, 1.5, 300), rng.uniform(-1.5, 1.5, 300)
        kappa = 2.0 * np.pi / LAM
        u = np.stack([np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=-1)
        want = np.exp(-1j * kappa * (u @ geom.positions.T))
        assert np.array_equal(steering_matrix(geom, az, el), want)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _exp_sizes(monkeypatch):
    """The size of every array np.exp is given while the test runs."""
    sizes, exp = [], np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    return sizes


class TestLatticeColumnSymmetry:
    """steering_matrix and los_channel on a lattice against the same
    positions without a lattice record, bit for bit, where the computed
    phases repeat along each lattice column (directions on the horizon) or
    mirror within it (sources on y = 0), and where they do not.  Both
    functions take one path; the test ids still name the per-column and
    per-pair exponentials and the fallback they once had."""

    GEOMS = [build_upa(32, 16, LAM / 2, LAM / 2, LAM), build_upa(6, 5, LAM / 2, LAM / 3, LAM),
             build_upa(1, 6, LAM / 2, LAM / 4, LAM)]
    IDS = ["32x16", "6x5", "1x6"]

    @pytest.mark.parametrize("geom", GEOMS, ids=IDS)
    def test_horizon_steering_one_exp_per_column(self, geom):
        rng = np.random.default_rng(51)
        az, el = rng.uniform(-1.2, 1.2, 25), np.zeros(25)
        plain = ArrayGeometry(geom.positions, LAM)
        general = steering_matrix(plain, az, el)
        assert np.array_equal(_bits(steering_matrix(geom, az, el)), _bits(general))
        assert np.array_equal(_bits(steering_matrix(geom, az[3], 0.0)), _bits(general[3]))

    def test_elevated_direction_falls_back(self, monkeypatch):
        geom = self.GEOMS[0]
        az, el = np.linspace(-1.0, 1.0, 9), np.zeros(9)
        el[4] = 0.2
        general = steering_matrix(ArrayGeometry(geom.positions, LAM), az, el)
        sizes = _exp_sizes(monkeypatch)
        assert np.array_equal(_bits(steering_matrix(geom, az, el)), _bits(general))
        assert sizes == [9 * geom.num_elements]

    @pytest.mark.parametrize("geom", GEOMS, ids=IDS)
    @pytest.mark.parametrize("mode", ["exact", "fresnel"])
    @pytest.mark.parametrize("amplitude", ["common", "per-element"])
    def test_los_on_y_zero_one_exp_per_mirrored_pair(self, geom, mode, amplitude):
        # the per-axis tables of the lattice against the pairwise ones of the
        # same positions, with every source on y = 0 and with one off it
        rng = np.random.default_rng(52)
        phis, dists = rng.uniform(-1.0, 1.0, 12), rng.uniform(0.5, 5.0, 12)
        on = np.stack([np.sin(phis) * dists, np.zeros(12), np.cos(phis) * dists], axis=1)
        off = on.copy()
        off[4, 1] = 2e-3
        plain = ArrayGeometry(geom.positions, LAM)
        for tx in (on, off):
            general = los_channel(plain, tx, mode, amplitude)
            got = los_channel(geom, tx, mode, amplitude)
            assert got.shape == general.shape and np.array_equal(_bits(got), _bits(general))
            assert np.array_equal(_bits(los_channel(geom, tx[4], mode, amplitude)),
                                  _bits(los_channel(plain, tx[4], mode, amplitude)))

    def test_lattice_axes_only_for_exact_positions(self):
        geom = self.GEOMS[1]
        axes = _lattice_axes(geom)
        assert [a.shape for a in axes] == [(6, 1), (1, 5), (1, 1)]
        grid = np.broadcast_arrays(*axes)
        assert np.array_equal(np.stack(grid, axis=-1).reshape(-1, 3), geom.positions)
        shifted = ArrayGeometry(geom.positions + [0.3, -0.1, 2.0], LAM, geom.lattice)
        assert _lattice_axes(shifted)[2].item() == 2.0
        nudged = geom.positions.copy()
        nudged[7, 0] += 1e-15
        assert _lattice_axes(ArrayGeometry(nudged, LAM, geom.lattice)) is None
        assert _lattice_axes(ArrayGeometry(geom.positions, LAM)) is None

    def test_no_directions_or_sources(self):
        geom = self.GEOMS[1]
        assert steering_matrix(geom, np.zeros(0), np.zeros(0)).shape == (0, 30)
        assert los_channel(geom, np.zeros((0, 3))).shape == (30, 0)

    def test_los_source_off_y_zero_falls_back(self, monkeypatch):
        geom = self.GEOMS[0]
        tx = np.array([[0.3, 0.0, 2.0], [-0.2, 0.0, 3.0], [0.1, 1e-3, 4.0]])
        general = los_channel(ArrayGeometry(geom.positions, LAM), tx)
        sizes = _exp_sizes(monkeypatch)
        assert np.array_equal(_bits(los_channel(geom, tx)), _bits(general))
        assert sizes == [3 * geom.num_elements]


class TestCorrelationMatrix:
    def test_clarke_sinc_oracle(self):
        # closed-form full-sphere Clarke correlation; hemisphere average of a
        # coplanar array matches it by up/down symmetry
        geom = build_ula(8, 0.3 * LAM, LAM)
        corr = correlation_matrix(geom, isotropic_profile(beta=2.0))
        d = np.linalg.norm(geom.positions[:, None] - geom.positions[None, :], axis=-1)
        clarke = 2.0 * np.sinc(2 * d / LAM)
        assert np.max(np.abs(corr.R - clarke)) < 1e-12

    def test_half_wavelength_ula_identity(self):
        geom = build_ula(16, LAM / 2, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        w = np.linalg.eigvalsh(corr.R)
        assert np.max(np.abs(w - 1.0)) < 1e-12  # R = I: all eigenvalues equal

    def test_trace_is_m_beta(self):
        geom = build_upa(6, 4, LAM / 3, LAM / 3, LAM)
        beta = 1.7
        corr = correlation_matrix(geom, isotropic_profile(beta))
        m = geom.num_elements
        assert abs(np.trace(corr.R).real - m * beta) < 1e-3 * m * beta

    def test_psd(self):
        geom = build_upa(5, 5, LAM / 4, LAM / 4, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        w = np.linalg.eigvalsh(corr.R)
        assert w.min() >= -1e-8 * np.trace(corr.R).real

    def test_permutation_equivariance(self):
        geom = build_ula(6, 0.4 * LAM, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        perm = np.array([3, 1, 5, 0, 4, 2])
        from ummimo.geometry import ArrayGeometry
        geom_p = ArrayGeometry(geom.positions[perm], LAM)
        corr_p = correlation_matrix(geom_p, isotropic_profile())
        assert np.allclose(corr_p.R, corr.R[np.ix_(perm, perm)], atol=1e-12)

    def test_unnormalized_profile_rejected(self):
        from ummimo.channel import ScatteringProfile
        bad = ScatteringProfile(1.0, lambda az, el: np.full_like(np.asarray(az), 1.0))
        geom = build_ula(2, LAM / 2, LAM)
        with pytest.raises(ContractError):
            correlation_matrix(geom, bad)

    def test_nan_density_rejected(self):
        # a NaN integral fails the normalisation check instead of passing it
        from ummimo.channel import ScatteringProfile
        nan = ScatteringProfile(1.0, lambda az, el: np.full_like(np.asarray(az), np.nan))
        for geom in (build_ula(2, LAM / 2, LAM), ArrayGeometry(build_ula(2, LAM / 2, LAM).positions, LAM)):
            with pytest.raises(ContractError, match="integrates to nan"):
                correlation_matrix(geom, nan)

    def test_isotropic_density_integrates_to_one_on_default_grid(self):
        # the default grid's normalisation check holds far inside its 1e-3
        grid = hemisphere_grid()
        total = grid.integrate(isotropic_profile().density(grid.azimuth, grid.elevation))
        assert abs(total - 1.0) <= 1e-12

    def test_isotropic_caller_grid_still_checked(self):
        # the full sphere doubles the hemisphere density's integral
        from ummimo.numerics import sphere_grid
        geom = build_ula(4, LAM / 2, LAM)
        with pytest.raises(ContractError, match="integrates to 2"):
            correlation_matrix(geom, isotropic_profile(), sphere_grid())
        R = correlation_matrix(geom, isotropic_profile(), hemisphere_grid()).R
        assert np.array_equal(R, correlation_matrix(geom, isotropic_profile()).R)


def _sinc_oracle(geom, beta):
    d = np.linalg.norm(geom.positions[:, None] - geom.positions[None, :], axis=-1)
    return beta * np.sinc(2 * d / geom.wavelength)


def _random_clusters(rng):
    k = int(rng.integers(1, 4))
    centers = np.column_stack([rng.uniform(-1.2, 1.2, k), rng.uniform(-0.8, 0.8, k)])
    return gaussian_cluster_profile(centers, np.deg2rad(rng.uniform(5.0, 30.0)),
                                    beta=rng.uniform(0.5, 3.0),
                                    weights=rng.dirichlet(np.ones(k)))


def test_correlation_matrix_read_only_on_every_path():
    geom = build_upa(4, 3, LAM / 2, LAM / 3, LAM)
    cluster = gaussian_cluster_profile([(0.2, 0.1)], np.deg2rad(20))
    for g, profile in ((geom, isotropic_profile()), (geom, cluster),
                       (ArrayGeometry(geom.positions, LAM), cluster)):
        R = correlation_matrix(g, profile).R
        assert not R.flags.writeable
        with pytest.raises(ValueError):
            R[0, 0] = 0.0


class TestIsotropicClosedForm:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_sinc(self, seed):
        # ULAs and UPAs with random element counts and spacings, apertures
        # up to 128 wavelengths, beta != 1; builder and caller-position arrays
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.005, 0.5)
        n_x = int(rng.integers(2, 200 if seed % 2 else 30))
        n_y = 1 if seed % 2 else int(rng.integers(2, 12))
        span = rng.uniform(0.5, 128.0) * lam  # largest element separation
        theta = rng.uniform(0.1, 1.4) if n_y > 1 else 0.0
        dx = span * np.cos(theta) / (n_x - 1)
        dy = span * np.sin(theta) / (n_y - 1) if n_y > 1 else dx
        beta = rng.uniform(0.2, 5.0)
        geom = build_upa(n_x, n_y, dx, dy, lam)
        R = correlation_matrix(geom, isotropic_profile(beta)).R
        assert np.max(np.abs(R - _sinc_oracle(geom, beta))) < 1e-12 * beta
        # gathered from one lag table: reversing the element order negates
        # every lag, so R is exactly centrosymmetric
        assert np.array_equal(R, R[::-1, ::-1])
        perm = rng.permutation(geom.num_elements)
        loose = ArrayGeometry(geom.positions[perm] + rng.normal(size=3) * [lam, lam, 0.0], lam)
        R_loose = correlation_matrix(loose, isotropic_profile(beta)).R
        assert np.max(np.abs(R_loose - _sinc_oracle(loose, beta))) < 1e-12 * beta

    def test_non_coplanar_array_uses_quadrature(self):
        # elements off one plane z = const: the hemisphere average is not
        # Clarke's, so the quadrature sum runs
        rng = np.random.default_rng(3)
        geom = ArrayGeometry(rng.uniform(-LAM, LAM, (6, 3)), LAM)
        R = correlation_matrix(geom, isotropic_profile()).R
        grid = hemisphere_grid(180, 90)
        S = steering_matrix(geom, grid.azimuth, grid.elevation)
        ref = (S.T * (grid.weights / (2 * np.pi))) @ S.conj()
        assert np.max(np.abs(R - ref)) < 1e-12
        assert np.max(np.abs(R - _sinc_oracle(geom, 1.0))) > 1e-3

    def test_mislabelled_density_is_integrated(self):
        # the closed form is chosen by the identity of the density function
        from ummimo.channel import ScatteringProfile
        cluster = gaussian_cluster_profile([(0.3, 0.1)], 0.3)
        prof = ScatteringProfile(1.0, cluster.density)
        geom = build_ula(8, LAM / 2, LAM)
        R = correlation_matrix(geom, prof).R
        assert np.array_equal(R, correlation_matrix(geom, cluster).R)
        assert np.max(np.abs(R - _sinc_oracle(geom, 1.0))) > 1e-2


class TestLagTable:
    @pytest.mark.parametrize("n_x, n_y, fx, fy", [
        (8, 8, 0.25, 0.25), (5, 3, 0.3, 0.7), (7, 1, 0.5, 0.5), (1, 9, 0.4, 0.4),
        (9, 4, 0.55, 0.2), (33, 1, 0.5, 0.5), (6, 5, 1.0, 0.35)])
    def test_equals_dense_path(self, n_x, n_y, fx, fy):
        rng = np.random.default_rng(n_x * 100 + n_y)
        geom = build_upa(n_x, n_y, fx * LAM, fy * LAM, LAM)
        dense = ArrayGeometry(geom.positions, LAM)
        assert geom.lattice is not None and dense.lattice is None
        for _ in range(2):
            profile = _random_clusters(rng)
            R, R_dense = (correlation_matrix(g, profile).R for g in (geom, dense))
            assert np.max(np.abs(R - R_dense)) < 1e-12 * np.max(np.abs(R_dense))

    @pytest.mark.parametrize("n_x, n_y, fx, fy", [(8, 8, 0.25, 0.25), (6, 5, 1.0, 0.35)])
    def test_rings_found_in_any_node_order(self, n_x, n_y, fx, fy, monkeypatch):
        # the same nodes shuffled: the per-elevation-ring sums must not
        # depend on the grid listing each ring's nodes together, nor on node
        # chunks splitting a ring
        monkeypatch.setattr(channel, "_LAG_CHUNK_ENTRIES", 1000)
        rng = np.random.default_rng(n_x * 10 + n_y)
        geom = build_upa(n_x, n_y, fx * LAM, fy * LAM, LAM)
        n = max(90, channel._nodes_needed(geom))
        grid = hemisphere_grid(n, n)
        perm = rng.permutation(grid.size)
        shuffled = QuadratureGrid(grid.azimuth[perm], grid.elevation[perm], grid.weights[perm])
        profile = _random_clusters(rng)
        R = correlation_matrix(geom, profile, shuffled).R
        R_dense = correlation_matrix(ArrayGeometry(geom.positions, LAM), profile, grid).R
        assert np.max(np.abs(R - R_dense)) < 1e-12 * np.max(np.abs(R_dense))
        assert np.array_equal(R, R.conj().T)

    @pytest.mark.parametrize("n_x, n_y, frac", [(8, 8, 0.25), (16, 8, 0.5), (64, 1, 0.5)])
    def test_phase_recurrence_equals_direct_exp_sum(self, n_x, n_y, frac):
        # oracle: T[l] = sum_q g_q exp(-j kappa (u_x l_x dx + u_y l_y dy)),
        # one exp per node and lag, against the block-doubled powers of
        # exp(-j kappa u_x dx) summed per elevation ring
        geom = build_upa(n_x, n_y, frac * LAM, frac * LAM, LAM)
        profile = gaussian_cluster_profile(
            [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], np.deg2rad(10.0))
        n = channel._nodes_needed(geom)
        grid = hemisphere_grid(max(180, n), max(90, n))
        g = profile.density(grid.azimuth, grid.elevation) * grid.weights
        T = channel._lag_table(geom, grid, g)
        kappa = 2.0 * np.pi / LAM
        ux = np.sin(grid.azimuth) * np.cos(grid.elevation)
        uy = np.sin(grid.elevation)
        ly = np.arange(1 - n_y, n_y) * geom.lattice.dy
        direct = np.array([
            g @ np.exp(-1j * kappa * (np.outer(ux, l_x * geom.lattice.dx) + np.outer(uy, ly)))
            for l_x in range(1 - n_x, n_x)])
        assert np.max(np.abs(T - direct)) <= 1e-14 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n_x, n_y", [(8, 8), (5, 3), (12, 1), (1, 6)])
    def test_exactly_hermitian_with_trace_m_beta(self, n_x, n_y):
        profile = _random_clusters(np.random.default_rng(n_x + 10 * n_y))
        geom = build_upa(n_x, n_y, 0.3 * LAM, 0.45 * LAM, LAM)
        R = correlation_matrix(geom, profile).R
        m = geom.num_elements
        assert np.array_equal(R, R.conj().T)
        assert abs(np.trace(R).real - m * profile.beta) < 1e-3 * m * profile.beta


class TestGridResolution:
    @pytest.mark.parametrize("n_x, n_y, frac", [(8, 8, 0.25), (64, 1, 0.5), (12, 12, 1.0)])
    def test_doubling_default_grid_changes_little(self, n_x, n_y, frac):
        geom = build_upa(n_x, n_y, frac * LAM, frac * LAM, LAM)
        profile = gaussian_cluster_profile(
            [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], np.deg2rad(10.0))
        n = channel._nodes_needed(geom)
        R = correlation_matrix(geom, profile).R
        R2 = correlation_matrix(geom, profile, hemisphere_grid(2 * max(180, n),
                                                              2 * max(90, n))).R
        assert np.max(np.abs(R - R2)) < 1e-10 * np.max(np.abs(R2))

    def test_default_grid_grows_with_aperture(self):
        assert channel._nodes_needed(build_upa(8, 8, LAM / 4, LAM / 4, LAM)) < 90
        assert channel._nodes_needed(build_ula(64, LAM / 2, LAM)) > 180

    def test_too_coarse_grid_rejected(self):
        geom = build_ula(64, LAM / 2, LAM)
        profile = gaussian_cluster_profile([(0.0, 0.0)], np.deg2rad(20.0))
        with pytest.raises(ContractError, match="too coarse"):
            correlation_matrix(geom, profile, hemisphere_grid(180, 90))
        n = channel._nodes_needed(geom)
        correlation_matrix(geom, profile, hemisphere_grid(n, n))


class TestClusterProfile:
    def test_three_cluster_normalization(self):
        profile = gaussian_cluster_profile(
            [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], np.deg2rad(10))
        grid = hemisphere_grid()
        mass = grid.integrate(profile.density(grid.azimuth, grid.elevation))
        assert abs(mass - 1.0) < 1e-4

    def test_narrow_cluster_near_rank_one(self):
        geom = build_ula(8, LAM / 2, LAM)
        std = np.deg2rad(1.0)
        profile = gaussian_cluster_profile([(0.25, 0.0)], std)
        corr = correlation_matrix(geom, profile, hemisphere_grid(360, 180))
        w = np.linalg.eigvalsh(corr.R)[::-1]
        assert w[0] / np.sum(w) > 0.98  # essentially beta * s s^H
        s = steering_matrix(geom, [0.25], [0.0])[0]
        top = np.linalg.eigh(corr.R)[1][:, -1]
        overlap = abs(top.conj() @ s) / (np.linalg.norm(s))
        assert overlap > 0.99

    def test_symmetric_pair_gives_real_correlation(self):
        geom = build_ula(8, LAM / 2, LAM)
        profile = gaussian_cluster_profile([(0.5, 0.0), (-0.5, 0.0)], np.deg2rad(10))
        corr = correlation_matrix(geom, profile)
        assert np.max(np.abs(corr.R.imag)) < 1e-10  # even density in azimuth

    @pytest.mark.parametrize("std_deg", [0.5, 1.0, 2.0, 10.0, 40.0])
    @pytest.mark.parametrize("centers", [
        [(0.0, 0.0), (np.pi / 4, 0.0), (-np.pi / 4, 0.0)], [(1.4, 1.2)]],
        ids=["horizon", "corner"])
    def test_density_integrates_to_one(self, centers, std_deg):
        # oracle: the density itself, summed on tensor Gauss-Legendre rules
        # from mpmath over panels cut at every centre and at +-9 std of it, so
        # each panel holds a smooth piece of at most 9 std of any cluster
        mpmath = pytest.importorskip("mpmath")
        from mpmath.calculus.quadrature import GaussLegendre
        nodes = GaussLegendre(mpmath.mp).calc_nodes(6, 80)  # 96 nodes
        x = np.array([float(a) for a, _ in nodes])
        w = np.array([float(b) for _, b in nodes])
        std = np.deg2rad(std_deg)
        profile = gaussian_cluster_profile(centers, std)

        def panels(cs):
            cuts = {-np.pi / 2, np.pi / 2}
            for c in cs:
                cuts |= {c, c - 9.0 * std, c + 9.0 * std}
            cuts = sorted(c for c in cuts if abs(c) <= np.pi / 2)
            return [(0.5 * (hi + lo) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w)
                    for lo, hi in zip(cuts[:-1], cuts[1:])]

        terms = []
        for az, w_az in panels([c[0] for c in centers]):
            for el, w_el in panels([c[1] for c in centers]):
                AZ, EL = np.meshgrid(az, el, indexing="ij")
                terms.append(profile.density(AZ, EL) * np.cos(EL) * np.outer(w_az, w_el))
        total = math.fsum(np.concatenate([t.ravel() for t in terms]))
        assert abs(total - 1.0) <= 1e-12

    def test_normalisation_builds_no_grid(self, monkeypatch):
        # the mass is separable: one cached 64-node rule, no 2-D grid
        calls = []
        monkeypatch.setattr(numerics, "leggauss",
                            lambda n: calls.append(n) or np.polynomial.legendre.leggauss(n))
        numerics._gauss_legendre.cache_clear()
        grids = numerics._grid_nodes.cache_info().misses
        gaussian_cluster_profile([(0.0, 0.0), (0.3, -0.2)], np.deg2rad(5.0))
        assert numerics._grid_nodes.cache_info().misses == grids
        assert calls == [channel._CLUSTER_NODES]

    def test_invalid_std_rejected(self):
        with pytest.raises(ContractError):
            gaussian_cluster_profile([(0.0, 0.0)], 0.0)

    def test_center_outside_hemisphere_rejected(self):
        with pytest.raises(ContractError):
            gaussian_cluster_profile([(2.0, 0.0)], 0.1)

    @pytest.mark.parametrize("std", [np.nan, np.inf, -np.inf])
    def test_nonfinite_std_rejected(self, std):
        with pytest.raises(DomainError, match="std must be finite"):
            gaussian_cluster_profile([(0.0, 0.0)], std)

    @pytest.mark.parametrize("center", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
    def test_nonfinite_center_rejected(self, center):
        with pytest.raises(DomainError, match="centers must be finite"):
            gaussian_cluster_profile([(0.1, 0.0), center], 0.1)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, weight):
        with pytest.raises(DomainError, match="weights must be finite"):
            gaussian_cluster_profile([(0.1, 0.0), (-0.1, 0.0)], 0.1, weights=[weight, 0.5])


class TestSampleRayleigh:
    def test_zero_correlation(self):
        h = sample_rayleigh(np.zeros((4, 4)), RngStream(0))
        assert np.all(h == 0)

    def test_identity_whitening(self):
        n_trials, m = 4000, 6
        H = sample_rayleigh(np.eye(m), RngStream(9), n_trials)
        assert np.max(np.abs(np.mean(np.abs(H) ** 2, axis=1) - 1.0)) < 0.1

    def test_sample_covariance_matches(self):
        geom = build_ula(6, LAM / 3, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        trials = 10 ** 5
        H = sample_rayleigh(corr, RngStream(123), trials)
        acc = H @ H.conj().T / trials
        rel = np.linalg.norm(acc - corr.R) / np.linalg.norm(corr.R)
        assert rel < 0.05

    def test_batch_sample_covariance_matches(self):
        # one (M, T) batch: for circular Gaussian h, var(h_m conj(h_n)) =
        # R_mm R_nn, so each entry of the sample covariance has standard
        # error sqrt(R_mm R_nn / T) = beta / sqrt(T); 5 of them bound all 36
        geom = build_ula(6, LAM / 3, LAM)
        corr = correlation_matrix(geom, isotropic_profile())
        trials = 20000
        H = sample_rayleigh(corr, RngStream(124), trials)
        assert H.shape == (6, trials)
        S = H @ H.conj().T / trials
        assert np.max(np.abs(S - corr.R)) < 5 * corr.beta / np.sqrt(trials)

    def test_batch_is_one_block(self):
        # the batch factors one complex_gaussian((M, T)) block, and size=None
        # draws the (M,) block of the same stream
        corr = correlation_matrix(build_ula(5, LAM / 2, LAM), isotropic_profile())
        root, Uh = corr._rayleigh_factor
        s = RngStream(3, 4)
        assert np.array_equal(sample_rayleigh(corr, s, 7),
                              root @ (Uh @ complex_gaussian((5, 7), s)))
        assert np.array_equal(sample_rayleigh(corr, s),
                              root @ (Uh @ complex_gaussian(5, s)))

    def test_indefinite_rejected(self):
        R = np.diag([1.0, -0.5])
        with pytest.raises(ContractError):
            sample_rayleigh(R, RngStream(0))

    def test_non_hermitian_rejected(self):
        R = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ContractError):
            sample_rayleigh(R, RngStream(0))

    def test_nonfinite_bare_matrix_rejected(self):
        # one NaN would otherwise reach eigh, which fails to converge
        for bad in (np.nan, np.inf):
            R = np.eye(3)
            R[0, 1] = bad
            with pytest.raises(DomainError, match="R must be finite"):
                sample_rayleigh(R, RngStream(0))

    def test_eigendecomposition_cached(self):
        corr = correlation_matrix(build_ula(6, LAM / 2, LAM), isotropic_profile())
        w, U = corr.eig
        assert corr.eig is corr.eig
        assert not (w.flags.writeable or U.flags.writeable)
        assert np.all(np.diff(w) <= 0)
        assert np.allclose((U * w) @ U.conj().T, corr.R, atol=1e-12)
        # the Rayleigh factor R^{1/2} = U sqrt(w) and U^H are built once too
        root, Uh = corr._rayleigh_factor
        assert corr._rayleigh_factor is corr._rayleigh_factor
        assert not (root.flags.writeable or Uh.flags.writeable)
        assert np.array_equal(Uh, U.conj().T)
        assert np.allclose(root @ root.conj().T, corr.R, atol=1e-12)
        # a bare matrix draws the same channel as its SpatialCorrelation
        assert np.array_equal(sample_rayleigh(corr, RngStream(5)),
                              sample_rayleigh(corr.R, RngStream(5)))


class TestBareCorrelationShape:
    """A bare R must be one square matrix: every consumer that wraps it
    raises ContractError naming its shape, before numpy's own errors."""

    @staticmethod
    def _consumers():
        from ummimo.dof import dof_report
        from ummimo.estimate import mmse_estimate, mmse_pilot_design, orthogonal_pilot
        pilot = orthogonal_pilot(3, 3, 1.0, 0.1)
        return {
            "dof_report": lambda R: dof_report(R, 1.0),
            "sample_rayleigh": lambda R: sample_rayleigh(R, RngStream(0)),
            "mmse_estimate": lambda R: mmse_estimate(np.ones(3), pilot, R),
            "mmse_pilot_design": lambda R: mmse_pilot_design(R, 1.0, 0.1, 2),
        }

    @pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 3, 3), (0, 0), ()])
    def test_wrong_shape_rejected(self, shape):
        R = np.ones(shape)
        for consume in self._consumers().values():
            with pytest.raises(ContractError, match=f"got shape {re.escape(str(shape))}$"):
                consume(R)

    def test_square_matrix_accepted(self):
        R = np.eye(3) + 0.1
        for consume in self._consumers().values():
            consume(R)

    def test_non_hermitian_rejected(self):
        # R = I with R[0, 1] = 0.5: mmse_estimate returned an MSE of 0.343
        # from it without a check
        R = np.eye(3)
        R[0, 1] = 0.5
        for consume in self._consumers().values():
            with pytest.raises(ContractError, match="^R is not Hermitian"):
                consume(R)


class TestFormedCorrelation:
    """SpatialCorrelation(R, beta) checks a formed R once and keeps a
    read-only copy of it; its spectrum is the eigenvalues of its one eig."""

    def test_wrong_shape_names_it(self):
        with pytest.raises(ContractError, match=re.escape("got shape (3,)")):
            SpatialCorrelation(np.ones(3), 1.0)

    def test_nonfinite_and_non_hermitian_rejected(self):
        R = np.eye(3)
        R[0, 1] = np.nan
        with pytest.raises(DomainError, match="^R must be finite"):
            SpatialCorrelation(R, 1.0)
        R[0, 1] = 0.5
        with pytest.raises(ContractError, match="^R is not Hermitian"):
            SpatialCorrelation(R, 1.0)

    def test_caller_array_changed_in_place_reaches_nothing(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        R = A @ A.conj().T
        corr = SpatialCorrelation(R, 1.0)
        kept, spectrum = corr.R.copy(), corr.spectrum.copy()
        R[:] = np.eye(5)
        assert np.array_equal(corr.R, kept) and not corr.R.flags.writeable
        assert np.array_equal(corr.spectrum, spectrum)
        w, U = corr.eig
        assert np.allclose((U * w) @ U.conj().T, kept, rtol=0.0, atol=1e-12 * np.abs(kept).max())

    def test_one_eigh_serves_the_report_and_the_draws(self, monkeypatch):
        # one clustered correlation: its report and its draws decompose R once
        from ummimo.dof import dof_report
        profile = gaussian_cluster_profile([(0.3, 0.1)], np.deg2rad(10))
        corr = correlation_matrix(build_upa(4, 4, LAM / 4, LAM / 4, LAM), profile)
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append("eigh") or eigh(*a, **k))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *a, **k: calls.append("eigvalsh") or eigvalsh(*a, **k))
        dof_report(corr, 1.0)
        sample_rayleigh(corr, RngStream(3), 4)
        assert calls == ["eigh"]
