import numpy as np
import pytest

from ummimo.errors import ContractError, DomainError
from ummimo.numerics import (QuadratureGrid, RngStream, complex_gaussian,
                             fresnel_cs, hemisphere_grid, hermitian_eig, sinc,
                             sphere_grid, svd)


class TestFresnel:
    def test_zero(self):
        assert fresnel_cs(0.0) == (0.0, 0.0)

    def test_asymptote(self):
        c, s = fresnel_cs(20.0)
        assert abs(c - 0.5) < 0.02
        assert abs(s - 0.5) < 0.02

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.118, 2.0, 3.7, 8.0, 20.0])
    def test_against_series_oracle(self, x):
        # mpmath's arbitrary-precision series is independent of scipy's
        # rational approximations behind fresnel_cs
        mp = pytest.importorskip("mpmath")
        c_ref, s_ref = float(mp.fresnelc(x)), float(mp.fresnels(x))
        c, s = fresnel_cs(x)
        assert abs(c - c_ref) <= 1e-10
        assert abs(s - s_ref) <= 1e-10

    def test_odd_extension(self):
        c, s = fresnel_cs(-1.3)
        cp, sp_ = fresnel_cs(1.3)
        assert c == -cp and s == -sp_

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            fresnel_cs(float("nan"))
        with pytest.raises(DomainError):
            fresnel_cs(float("inf"))


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_half_power_point(self):
        assert abs(sinc(0.443) ** 2 - 0.5) < 0.005

    def test_integer_zero(self):
        assert abs(sinc(1.0)) < 1e-15


class TestHermitianEig:
    def test_identity(self):
        w, U = hermitian_eig(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_rank_one(self):
        v = np.array([1.0, 1j, -1.0, -1j])  # norm 2
        w, U = hermitian_eig(np.outer(v, v.conj()))
        assert abs(w[0] - 4.0) < 1e-12
        assert np.all(np.abs(w[1:]) < 1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        A = A + A.conj().T
        w, U = hermitian_eig(A)
        assert np.all(np.diff(w) <= 1e-12)
        resid = np.linalg.norm((U * w) @ U.conj().T - A)
        assert resid <= 1e-8 * np.linalg.norm(A)

    def test_non_hermitian_rejected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ContractError):
            hermitian_eig(A)

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        A = B @ B.conj().T
        w, _ = hermitian_eig(A)
        assert w.min() >= -1e-10 * np.linalg.norm(A)


class TestSvd:
    def test_zero_matrix(self):
        s, U, V = svd(np.zeros((3, 5)))
        assert np.all(s == 0)

    def test_unitary(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        s, _, _ = svd(Q)
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        s, U, V = svd(A)
        resid = np.linalg.norm((U * s) @ V.conj().T - A)
        assert resid <= 1e-8 * np.linalg.norm(A)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            svd(np.array([[np.inf, 0.0]]))


class TestRng:
    def test_determinism(self):
        s = RngStream(seed=42, stream=7)
        a = complex_gaussian(100, s)
        b = complex_gaussian(100, s)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = complex_gaussian(100, RngStream(42, 0))
        b = complex_gaussian(100, RngStream(42, 1))
        assert not np.allclose(a, b)

    def test_moments(self):
        # Monte-Carlo bound 3/sqrt(N) on the mean, matching variance check
        z = complex_gaussian(10 ** 5, RngStream(1, 0))
        assert abs(z.mean()) < 0.02
        assert abs(z.real.var() - 0.5) < 0.02
        assert abs(z.imag.var() - 0.5) < 0.02
        assert abs((np.abs(z) ** 2).mean() - 1.0) < 0.02

    def test_empty(self):
        assert complex_gaussian(0, RngStream(0)).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            complex_gaussian(-1, RngStream(0))
        with pytest.raises(DomainError):
            complex_gaussian((3, -2), RngStream(0))

    def test_int_count_is_one_standard_normal_block(self):
        s = RngStream(11, 4)
        g = s.generator().standard_normal((2, 37))
        assert np.array_equal(complex_gaussian(37, s), (g[0] + 1j * g[1]) / np.sqrt(2))

    @pytest.mark.parametrize("shape", [37, (5, 3), (64, 1000), (2, 3, 4), (4, 0)])
    def test_bits_of_the_quotient(self, shape):
        # in-place assembly and the multiply by fl(1/sqrt(2)) give the bits of
        # (g[0] + j g[1]) / sqrt(2), signed zeros and all
        s = RngStream(12, 5)
        g = s.generator().standard_normal((2, *np.atleast_1d(shape)))
        want = (g[0] + 1j * g[1]) / np.sqrt(2.0)
        z = complex_gaussian(shape, s)
        assert z.shape == want.shape and z.tobytes() == want.tobytes()

    def test_shape_is_one_standard_normal_block(self):
        s = RngStream(11, 4)
        g = s.generator().standard_normal((2, 5, 3))
        z = complex_gaussian((5, 3), s)
        assert z.shape == (5, 3)
        assert np.array_equal(z, (g[0] + 1j * g[1]) / np.sqrt(2))


class TestRngSplit:
    def test_known_answer(self):
        # the documented rule: the child id is the first 64-bit word of
        # SeedSequence([parent id, child]), ids taken mod 2^64
        for parent, child in ((0, 0), (5, 3), (2 ** 63 + 7, 12), (-1, 4)):
            words = [parent % 2 ** 64, child]
            want = int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])
            assert RngStream(17, parent).split(child) == RngStream(17, want)

    def test_child_depends_on_parent(self):
        assert RngStream(1, 5).split(3) != RngStream(1, 9).split(3)
        a = complex_gaussian(50, RngStream(1, 5).split(3))
        b = complex_gaussian(50, RngStream(1, 9).split(3))
        assert not np.any(a == b)

    def test_children_of_one_parent_differ(self):
        ids = {RngStream(1, 5).split(c).stream for c in range(1000)}
        assert len(ids) == 1000

    def test_seed_is_kept_and_generator_unchanged(self):
        child = RngStream(8, 2).split(6)
        assert child.seed == 8
        key = np.array([8, child.stream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
        assert np.array_equal(child.generator().standard_normal(4), want)


class TestGrids:
    def test_hemisphere_measure(self):
        grid = hemisphere_grid()
        assert abs(grid.weights.sum() - 2 * np.pi) < 1e-10

    @pytest.mark.parametrize("make", [hemisphere_grid, sphere_grid])
    def test_hemisphere_nodes_cached_read_only(self, make):
        a, b = make(), make()
        assert a.weights is b.weights and a.azimuth is b.azimuth
        for arr in (a.azimuth, a.elevation, a.weights):
            assert not arr.flags.writeable

    def test_sphere_measure(self):
        grid = sphere_grid()
        assert abs(grid.weights.sum() - 4 * np.pi) < 1e-10

    def test_normalized_density_integrates_to_one(self):
        grid = hemisphere_grid()
        vals = np.cos(grid.elevation) / (np.pi ** 2 / 2)  # analytic integral 1
        # integral of cos(el)*cos(el) d el over [-pi/2,pi/2] = pi/2; times pi az
        assert abs(grid.integrate(vals) - 1.0) < 1e-6

    def test_positive_weights_enforced(self):
        with pytest.raises(ContractError):
            QuadratureGrid(np.zeros(2), np.zeros(2), np.array([1.0, -1.0]))
