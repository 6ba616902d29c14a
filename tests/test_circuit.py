import numpy as np
import pytest
from scipy.constants import Boltzmann, epsilon_0, speed_of_light
from scipy.integrate import quad

from ummimo.errors import ContractError, SingularityError
from ummimo import circuit
from ummimo.circuit import (ImpedanceSet, LnaParams, array_impedance, end_to_end_channel,
                            impedance_set, mutual_impedance_z_dipoles,
                            noise_covariance, radiation_matrix, self_resistance,
                            tx_power)
from ummimo.channel import los_channel
from ummimo.geometry import ArrayGeometry, build_ula, build_upa
from ummimo.numerics import sphere_grid

LAM = 0.5
L0 = 0.01 * LAM
KAPPA = 2 * np.pi / LAM
OMEGA = KAPPA * speed_of_light


def _fd_oracle(p, wavelength, prefactor, step_frac=1e-6):
    """High-precision central difference of [d2/dz2 + k^2] e^{jkr}/(4 pi r)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    kap = mp.mpf(2) * mp.pi / mp.mpf(wavelength)
    h = mp.mpf(wavelength) * mp.mpf(step_frac)
    x, y, z = (mp.mpf(float(v)) for v in p)

    def g(zz):
        r = mp.sqrt(x * x + y * y + zz * zz)
        return mp.exp(1j * kap * r) / (4 * mp.pi * r)

    operator = (g(z + h) - 2 * g(z) + g(z - h)) / h ** 2 + kap ** 2 * g(z)
    return complex(mp.mpc(prefactor) * operator)


def _reference_z(p, wavelength, scale):
    """scale / (j omega eps0) times the bracket, as the (..., 3) formula that
    the per-axis kernel replaced: np.linalg.norm over the last axis, then the
    bracket term by term."""
    kappa = 2.0 * np.pi / wavelength
    omega = kappa * speed_of_light
    r = np.linalg.norm(p, axis=-1)
    cos2 = (p[..., 2] / r) ** 2
    sin2 = 1.0 - cos2
    bracket = np.exp(1j * kappa * r) / (4.0 * np.pi) * (
        kappa ** 2 * sin2 / r + (1j * kappa / r ** 2 - 1.0 / r ** 3) * (1.0 - 3.0 * cos2))
    return scale / (1j * omega * epsilon_0) * bracket


def _reference_set(tx, rx, length, self_reactance=0.0):
    """The three blocks from (N, N, 3) and (M, N, 3) separation arrays."""
    lam = tx.wavelength

    def self_block(pos):
        sep = pos[:, None] - pos[None]
        diag = np.arange(len(pos))
        sep[diag, diag] = 1.0
        Z = _reference_z(sep, lam, length ** 2)
        Z[diag, diag] = self_resistance(length, lam) + 1j * self_reactance
        return Z

    return (self_block(tx.positions), self_block(rx.positions),
            _reference_z(rx.positions[:, None] - tx.positions[None], lam, length ** 2))


def _tilted_pair():
    tx = build_upa(4, 3, LAM / 2, LAM / 3, LAM)
    c, s = np.cos(0.4), np.sin(0.4)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return tx, ArrayGeometry(tx.positions @ tilt.T + np.array([0.3, 0.2, 0.4]) * LAM, LAM)


class TestPerAxisKernelBitIdentity:
    """The per-axis bracket, evaluated in place, against the (..., 3)
    formula it replaced, bit for bit."""

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (7, 3), (4, 5, 3), (40, 40, 3)])
    def test_mutual_impedances(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        p = rng.uniform(-3 * LAM, 3 * LAM, shape)
        got = mutual_impedance_z_dipoles(p, LAM, L0)
        assert np.array_equal(got, _reference_z(p, LAM, L0 ** 2))
        assert np.shape(got) == shape[:-1]

    def test_single_vectors_keep_scalar_arithmetic(self):
        # one vector is computed with numpy's scalar rules, as before; they
        # differ from the array loops in about a third of these cases
        rng = np.random.default_rng(31)
        for p in [[LAM / 2, 0.0, 0.0], *rng.uniform(-3 * LAM, 3 * LAM, (200, 3))]:
            p = np.asarray(p)
            got = mutual_impedance_z_dipoles(p, LAM, L0)
            assert got == _reference_z(p, LAM, L0 ** 2) and np.ndim(got) == 0

    def test_ula_blocks(self):
        tx = build_ula(64, LAM / 2, LAM)
        rx = ArrayGeometry(tx.positions + np.array([0.7, 0.0, 100.0]) * LAM, LAM)
        imp = impedance_set(tx, rx, L0)
        for got, want in zip((imp.Z_T, imp.Z_R, imp.Z_RT), _reference_set(tx, rx, L0)):
            assert np.array_equal(got, want)
        assert np.array_equal(imp.Z_T, imp.Z_T.T) and np.array_equal(imp.Z_R, imp.Z_R.T)

    def test_upa_blocks_with_self_reactance(self):
        tx, rx = _tilted_pair()
        imp = impedance_set(tx, rx, L0, self_reactance=7.5)
        for got, want in zip((imp.Z_T, imp.Z_R, imp.Z_RT),
                             _reference_set(tx, rx, L0, self_reactance=7.5)):
            assert np.array_equal(got, want)

    def test_caller_position_blocks(self):
        rng = np.random.default_rng(32)
        tx = ArrayGeometry(rng.uniform(-2 * LAM, 2 * LAM, (9, 3)), LAM)
        rx = ArrayGeometry(rng.uniform(-2 * LAM, 2 * LAM, (5, 3)) + [0.0, 0.0, 6 * LAM], LAM)
        imp = impedance_set(tx, rx, L0)
        for got, want in zip((imp.Z_T, imp.Z_R, imp.Z_RT), _reference_set(tx, rx, L0)):
            assert np.array_equal(got, want)


class TestArrayImpedance:
    """One array's own impedance matrix: on a lattice whose per-axis
    separations depend only on the index lag, bit for bit, one _impedance
    per lag, gathered; the same positions without their lattice record take
    the mirrored upper triangle, which the gather must equal bit for bit."""

    @staticmethod
    def _evaluations(monkeypatch):
        sizes, impedance = [], circuit._impedance

        def counted(axes, *args):
            sizes.append(np.size(axes[0]))
            return impedance(axes, *args)

        monkeypatch.setattr(circuit, "_impedance", counted)
        return sizes

    @pytest.mark.parametrize("shape, dx, dy", [
        ((256, 1), LAM / 2, LAM / 2), ((4, 3), LAM / 2, LAM / 3), ((5, 5), 0.1, 0.1),
        ((1, 1), 0.2, 0.2), ((1, 6), LAM / 2, LAM / 4)],
        ids=["bench-ula", "4x3", "5x5", "1x1", "1x6"])
    def test_toeplitz_lattice_one_evaluation_per_lag(self, shape, dx, dy, monkeypatch):
        geom = build_upa(*shape, dx, dy, LAM)
        n = geom.num_elements
        general = array_impedance(ArrayGeometry(geom.positions, LAM), L0, 7.5)
        sizes = self._evaluations(monkeypatch)
        Z = array_impedance(geom, L0, 7.5)
        assert sizes == [n - 1]
        assert np.array_equal(Z.view(np.uint64), general.view(np.uint64))
        assert Z.flags.c_contiguous and Z.flags.writeable and np.array_equal(Z, Z.T)
        far = ArrayGeometry(geom.positions + [0.0, 0.0, 10 * LAM], LAM)
        assert np.array_equal(Z, _reference_set(geom, far, L0, 7.5)[0])

    def test_inexact_lags_fall_back(self, monkeypatch):
        # 0.03 m is not a binary fraction: |x_i - x_j| at one lag differs by
        # an ulp between pairs, so the triangle path runs
        geom = build_ula(64, 0.03, LAM)
        general = array_impedance(ArrayGeometry(geom.positions, LAM), L0)
        sizes = self._evaluations(monkeypatch)
        Z = array_impedance(geom, L0)
        assert sizes == [64 * 63 // 2]
        assert np.array_equal(Z.view(np.uint64), general.view(np.uint64))

    def test_impedance_set_blocks_are_array_impedances(self):
        tx, rx = _tilted_pair()
        imp = impedance_set(tx, rx, L0, self_reactance=2.0)
        assert np.array_equal(imp.Z_T, array_impedance(tx, L0, 2.0))
        assert np.array_equal(imp.Z_R, array_impedance(rx, L0, 2.0))


def _indefinite_by(c, rtol):
    """A real symmetric 4 x 4 matrix whose smallest eigenvalue is -c rtol
    ||A||_F (eigenvalues 1, 2, 3 and that one, rotated)."""
    w = np.array([1.0, 2.0, 3.0, 0.0])
    w[3] = -c * rtol * np.linalg.norm(w[:3]) / np.sqrt(1.0 - (c * rtol) ** 2)
    Q = np.linalg.qr(np.random.default_rng(33).standard_normal((4, 4)))[0]
    A = (Q * w) @ Q.T
    return 0.5 * (A + A.T)


class TestPsdContracts:
    """Both PSD contracts at their tolerances: min eig >= -1e-8 ||Re Z||_F
    for ImpedanceSet and >= -1e-12 ||R_n||_F for noise_covariance."""

    def test_impedance_set_threshold(self):
        for c, ok in ((0.5, True), (0.99, True), (1.01, False), (2.0, False)):
            Z = _indefinite_by(c, 1e-8) + 1j * np.eye(4)
            if ok:
                ImpedanceSet(Z, np.eye(2), np.zeros((2, 4)), 50.0)
            else:
                with pytest.raises(ContractError, match="positive semidefinite"):
                    ImpedanceSet(Z, np.eye(2), np.zeros((2, 4)), 50.0)

    def test_impedance_set_zero_real_part_passes(self):
        imp = ImpedanceSet(1j * np.eye(3), np.zeros((2, 2)), np.zeros((2, 3)), 50.0)
        assert not np.any(imp.Z_R)

    def test_noise_covariance_threshold(self):
        # no LNA noise: R_n = 4 k_B T Re(Z_R), so its spectrum is Re(Z_R)'s
        lna = LnaParams(R_v=0.0, G_i=0.0, beta=0.0)
        for c, ok in ((0.5, True), (2.0, False)):
            Z = _indefinite_by(c, 1e-12)
            if ok:
                noise_covariance(Z, lna)
            else:
                with pytest.raises(ContractError, match="not PSD"):
                    noise_covariance(Z, lna)

    def test_noise_covariance_zero_passes(self):
        Rn = noise_covariance(np.zeros((3, 3)), LnaParams(R_v=0.0, G_i=0.0))
        assert not np.any(Rn)


class TestMutualImpedance:
    def test_even_in_separation(self):
        p = np.array([0.3 * LAM, -0.2 * LAM, 0.7 * LAM])
        assert mutual_impedance_z_dipoles(p, LAM, L0) \
            == mutual_impedance_z_dipoles(-p, LAM, L0)

    def test_radiation_zone_decay(self):
        # |Z| ~ 1/r: log-log slope -1 +- 0.02 beyond 100 wavelengths
        rs = np.geomspace(100 * LAM, 10000 * LAM, 12)
        vals = [abs(mutual_impedance_z_dipoles([r, 0, 0], LAM, L0)) for r in rs]
        slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
        assert abs(slope + 1.0) < 0.02

    @pytest.mark.parametrize("p", [
        (0.5 * LAM, 0.0, 0.0),
        (0.3 * LAM, 0.2 * LAM, 0.7 * LAM),
        (0.0, 0.0, 2.0 * LAM),
    ])
    def test_against_finite_difference_oracle(self, p):
        pref = L0 ** 2 / (1j * OMEGA * epsilon_0)
        ref = _fd_oracle(p, LAM, pref)
        val = mutual_impedance_z_dipoles(np.array(p), LAM, L0)
        assert abs(val - ref) < 1e-6 * abs(ref)

    def test_azimuthal_symmetry(self):
        # depends only on |p| and the polar angle of p about z
        rho, z = 0.4 * LAM, 0.9 * LAM
        vals = [mutual_impedance_z_dipoles(
            [rho * np.cos(a), rho * np.sin(a), z], LAM, L0)
            for a in (0.0, 0.7, 2.1, -1.3)]
        assert np.allclose(vals, vals[0], rtol=1e-12, atol=0.0)

    def test_zero_separation_rejected(self):
        with pytest.raises(SingularityError):
            mutual_impedance_z_dipoles(np.zeros(3), LAM, L0)

    def test_broadcast_over_separation_stack(self):
        rng = np.random.default_rng(11)
        seps = rng.uniform(-2 * LAM, 2 * LAM, (4, 5, 3))
        Z = mutual_impedance_z_dipoles(seps, LAM, L0)
        assert Z.shape == (4, 5)
        loop = np.array([[mutual_impedance_z_dipoles(seps[i, j], LAM, L0)
                          for j in range(5)] for i in range(4)])
        assert np.all(np.abs(Z - loop) <= 1e-14 * np.abs(loop))

    def test_single_vector_returns_scalar(self):
        z = mutual_impedance_z_dipoles([0.3 * LAM, 0.1 * LAM, 0.2 * LAM], LAM, L0)
        assert np.ndim(z) == 0 and np.iscomplexobj(z)

    def test_zero_row_in_stack_rejected(self):
        seps = np.random.default_rng(12).uniform(-LAM, LAM, (4, 5, 3))
        seps[2, 3] = 0.0
        with pytest.raises(SingularityError):
            mutual_impedance_z_dipoles(seps, LAM, L0)


class TestSelfResistance:
    def test_against_wavenumber_disk_integral(self):
        # direct quadrature of the propagating half-residue disk integral in
        # polar form; the (kappa - kr)^{-1/2} endpoint weight is handed to
        # quadpack so the rule converges cleanly
        val, err = quad(lambda kr: kr ** 3 / np.sqrt(KAPPA + kr), 0.0, KAPPA,
                        weight="alg", wvar=(0.0, -0.5), epsabs=1e-13, epsrel=1e-10)
        numeric = L0 ** 2 / (4 * np.pi * OMEGA * epsilon_0) * val
        analytic = self_resistance(L0, LAM)
        assert abs(analytic - numeric) < 1e-6 * analytic

    def test_classical_form(self):
        z0 = np.sqrt(4e-7 * np.pi / epsilon_0)  # free-space impedance
        expected = 2 * np.pi / 3 * z0 * (L0 / LAM) ** 2
        assert abs(self_resistance(L0, LAM) - expected) < 1e-9 * expected

    def test_quadratic_length_scaling(self):
        assert abs(self_resistance(2 * L0, LAM) - 4 * self_resistance(L0, LAM)) \
            < 1e-12 * self_resistance(L0, LAM)

    def test_small_separation_limit_of_mutual(self):
        # Re Z(p) -> Re Z(0) as |p| -> 0 (Richardson extrapolated within 1%)
        target = self_resistance(L0, LAM)
        rs = np.array([1e-3, 5e-4, 2.5e-4]) * LAM
        vals = np.array([mutual_impedance_z_dipoles([r, 0, 0], LAM, L0).real
                         for r in rs])
        assert abs(vals[-1] - target) < 0.01 * target


class TestImpedanceSet:
    def test_single_pair_inverse_distance(self):
        tx = build_ula(1, LAM / 2, LAM)
        rx = ArrayGeometry(np.array([[0.0, 0.0, 100 * LAM]]), LAM)
        imp = impedance_set(tx, rx, L0)
        expected = abs(mutual_impedance_z_dipoles([0, 0, 100 * LAM], LAM, L0))
        assert abs(abs(imp.Z_RT[0, 0]) - expected) < 1e-12 * expected

    def test_symmetry_and_psd(self):
        tx = build_ula(16, LAM / 2, LAM)
        rx = ArrayGeometry(build_ula(4, LAM / 2, LAM).positions
                           + np.array([0, 0, 50 * LAM]), LAM)
        imp = impedance_set(tx, rx, L0)
        assert np.linalg.norm(imp.Z_T - imp.Z_T.T) < 1e-12 * np.linalg.norm(imp.Z_T)
        re = 0.5 * np.real(imp.Z_T + imp.Z_T.conj().T)
        assert np.linalg.eigvalsh(re).min() >= -1e-8 * np.trace(re).real

    def test_rigid_translation_invariance(self):
        tx = build_ula(3, LAM / 2, LAM)
        rx = ArrayGeometry(build_ula(2, LAM / 2, LAM).positions
                           + np.array([0, 0, 20 * LAM]), LAM)
        shift = np.array([1.3, -0.4, 2.2])
        tx2 = ArrayGeometry(tx.positions + shift, LAM)
        rx2 = ArrayGeometry(rx.positions + shift, LAM)
        a = impedance_set(tx, rx, L0)
        b = impedance_set(tx2, rx2, L0)
        assert np.allclose(a.Z_T, b.Z_T, rtol=1e-12, atol=0.0)
        assert np.allclose(a.Z_RT, b.Z_RT, rtol=1e-12, atol=0.0)

    def test_blocks_equal_per_pair_loop(self):
        # a tilted, shifted rx so that cos^2 of the separations is neither 0 nor 1
        tx = build_upa(4, 3, LAM / 2, LAM / 3, LAM)
        c, s = np.cos(0.4), np.sin(0.4)
        tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        rx = ArrayGeometry(tx.positions @ tilt.T + np.array([0.3, 0.2, 0.4]) * LAM, LAM)
        x_self = 7.5
        imp = impedance_set(tx, rx, L0, self_reactance=x_self)

        def loop(pos_a, pos_b, same):
            Z = np.empty((len(pos_a), len(pos_b)), dtype=complex)
            for i in range(len(pos_a)):
                for j in range(len(pos_b)):
                    Z[i, j] = (self_resistance(L0, LAM) + 1j * x_self if same and i == j
                               else mutual_impedance_z_dipoles(pos_a[i] - pos_b[j], LAM, L0))
            return Z

        for got, want in ((imp.Z_T, loop(tx.positions, tx.positions, True)),
                          (imp.Z_R, loop(rx.positions, rx.positions, True)),
                          (imp.Z_RT, loop(rx.positions, tx.positions, False))):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_coincident_elements_across_arrays_rejected(self):
        tx = build_ula(4, LAM / 2, LAM)
        rx = ArrayGeometry(np.array([[0.0, 0.0, 10 * LAM], tx.positions[2]]), LAM)
        with pytest.raises(ContractError, match="coincident"):
            impedance_set(tx, rx, L0)

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ContractError):
            ImpedanceSet(np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2),
                         np.eye(2), 50.0)


class TestEndToEndChannel:
    def test_matched_diagonal(self):
        r0 = 50.0
        Z_T = r0 * np.eye(3)
        Z_RT = np.arange(6, dtype=complex).reshape(2, 3)
        imp = ImpedanceSet(Z_T, 40.0 * np.eye(2), Z_RT, r0)
        assert np.allclose(end_to_end_channel(imp), Z_RT / (2 * r0), rtol=1e-15, atol=0.0)

    def test_scalar_case(self):
        z_t, z_rt, r0 = 30.0 + 10.0j, 2.0 - 1.0j, 50.0
        imp = ImpedanceSet(np.array([[z_t]]), np.array([[25.0]]),
                           np.array([[z_rt]]), r0)
        h = end_to_end_channel(imp)[0, 0]
        assert abs(h - z_rt / (z_t + r0)) < 1e-14

    def test_linearity_in_coupling_block(self):
        tx = build_ula(4, LAM / 2, LAM)
        rx = ArrayGeometry(build_ula(2, LAM / 2, LAM).positions
                           + np.array([0, 0, 30 * LAM]), LAM)
        imp = impedance_set(tx, rx, L0)
        H1 = end_to_end_channel(imp)
        imp2 = ImpedanceSet(imp.Z_T, imp.Z_R, 2.5 * imp.Z_RT, imp.R0)
        assert np.allclose(end_to_end_channel(imp2), 2.5 * H1, rtol=1e-12, atol=0.0)

    def test_mutual_coupling_observable(self):
        # the same Z_RT produces a different H when tx coupling is ignored
        tx = build_ula(8, LAM / 8, LAM)
        rx = ArrayGeometry(build_ula(2, LAM / 2, LAM).positions
                           + np.array([0, 0, 30 * LAM]), LAM)
        imp = impedance_set(tx, rx, L0)
        H_coupled = end_to_end_channel(imp)
        z_diag = np.diag(np.diag(imp.Z_T))
        H_plain = end_to_end_channel(ImpedanceSet(z_diag, imp.Z_R, imp.Z_RT, imp.R0))
        assert np.linalg.norm(H_coupled - H_plain) > 1e-3 * np.linalg.norm(H_plain)


class TestTxPower:
    def test_zero_current(self):
        assert tx_power(np.zeros(3), np.eye(3) * 70) == 0.0

    def test_single_antenna(self):
        z = np.array([[73.0 + 42.5j]])
        I = np.array([2.0 * np.exp(0.3j)])
        assert abs(tx_power(I, z) - 0.5 * 4.0 * 73.0) < 1e-12

    def test_coupled_pair_exceeds_diagonal_prediction(self):
        # in-phase lambda/8-spaced dipoles with positive mutual resistance
        z12 = mutual_impedance_z_dipoles([LAM / 8, 0, 0], LAM, L0)
        assert z12.real > 0
        r_self = self_resistance(L0, LAM)
        Z_T = np.array([[r_self, z12], [z12, r_self]])
        I = np.array([1.0, 1.0])
        coupled = tx_power(I, Z_T)
        diagonal_only = 0.5 * (abs(I[0]) ** 2 + abs(I[1]) ** 2) * r_self
        assert coupled > diagonal_only * 1.5


class TestPowerBalance:
    def test_tx_power_equals_far_field_poynting_integral(self):
        # the circuit layer's (1/2) I^H Re(Z_T) I against the field layer's
        # r^2 / (2 eta0) times the integral of |E|^2 over the sphere; the
        # residue is the 1/(kappa r)^2 near-field terms at r = 2000 lambda
        from ummimo.fields import DipoleSegment, array_field
        from ummimo.numerics import unit_directions
        geom = build_ula(4, LAM / 4, LAM)
        rng = np.random.default_rng(11)
        I = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        power = tx_power(I, array_impedance(geom, L0))
        segs = [DipoleSegment(p, np.array([0.0, 0.0, 1.0])) for p in geom.positions]
        mats = [np.outer([0.0, 0.0, L0], e) for e in np.eye(4)]
        r = 2000 * LAM
        grid = sphere_grid(32, 16)
        e2 = [np.sum(np.abs(array_field(segs, mats, I, r * u, LAM).E) ** 2)
              for u in unit_directions(grid.azimuth, grid.elevation)]
        eta0 = 1.0 / (epsilon_0 * speed_of_light)
        flux = r ** 2 / (2 * eta0) * grid.integrate(np.array(e2))
        assert abs(flux - power) < 1e-7 * power


class TestCrossLayerOracles:
    """The circuit layer's impedances against the channel and field layers:
    one Green function, so amplitude, phase, pattern and the conjugation
    between the e^{-j omega t} impedances and the e^{+j omega t} channel and
    fields must all agree."""

    @pytest.mark.parametrize("R", [100, 1000, 10000])
    def test_z_rt_against_los_channel_at_the_near_field_rate(self, R):
        # far zone: Z_RT = conj(j eta0 kappa L0^2 sin^2(theta) / lambda g),
        # g = lambda e^{-j kappa r} / (4 pi r); the dropped near-field terms
        # are (1 - 3 cos^2) / (sin^2 kappa r) of it, 0.92 / (kappa r) here
        tx = build_ula(16, LAM / 2, LAM)
        offset = np.array([0.0, R, 0.2 * R]) * LAM
        rx = ArrayGeometry(build_ula(4, LAM / 2, LAM).positions + offset, LAM)
        sep = rx.positions[:, None] - tx.positions[None]
        sin2 = 1.0 - (sep[..., 2] / np.linalg.norm(sep, axis=-1)) ** 2
        g = np.stack([los_channel(rx, p, "exact", "per-element") for p in tx.positions], axis=1)
        eta0 = 1.0 / (epsilon_0 * speed_of_light)
        want = np.conj(1j * eta0 * KAPPA * L0 ** 2 * sin2 / LAM * g)
        err = np.linalg.norm(impedance_set(tx, rx, L0).Z_RT - want) / np.linalg.norm(want)
        cos2 = 0.2 ** 2 / (1 + 0.2 ** 2)
        rate = (1 - 3 * cos2) / (1 - cos2)
        assert abs(err * KAPPA * np.linalg.norm(offset) / rate - 1) < 1e-3

    def test_re_z_t_is_the_radiation_matrix_of_the_array_field(self):
        # Re Z_T = (r^2 / eta0) B, B the radiation matrix of the ports' far
        # fields (the elevation component, the only one that radiates); the
        # residue is the 1/(kappa r)^2 near-field terms at r = 2000 lambda
        from ummimo.fields import DipoleSegment, array_field
        from ummimo.numerics import unit_directions
        geom = build_ula(4, LAM / 4, LAM)
        segs = [DipoleSegment(p, np.array([0.0, 0.0, 1.0])) for p in geom.positions]
        mats = [np.outer([0.0, 0.0, L0], e) for e in np.eye(4)]
        r = 2000 * LAM
        grid = sphere_grid(64, 32)
        points = r * unit_directions(grid.azimuth, grid.elevation)
        S = [[array_field(segs, mats, e, p, LAM).E[1] for p in points] for e in np.eye(4)]
        eta0 = 1.0 / (epsilon_0 * speed_of_light)
        got = r ** 2 / eta0 * radiation_matrix(np.array(S), grid)
        re_zt = array_impedance(geom, L0).real
        assert np.linalg.norm(got - re_zt) <= 2 / (KAPPA * r) ** 2 * np.linalg.norm(re_zt)


class TestNoiseCovariance:
    def test_johnson_noise_white(self):
        r = 50.0
        lna = LnaParams(R_v=0.0, G_i=0.0, beta=0.0, temperature=290.0)
        Rn = noise_covariance(r * np.eye(4), lna)
        # entries are about 8e-19, so the absolute tolerance must be zero
        assert np.allclose(Rn, 4 * Boltzmann * 290.0 * r * np.eye(4), rtol=1e-12, atol=0.0)

    def test_voltage_noise_dominated(self):
        lna = LnaParams(R_v=1e6, G_i=0.0, beta=0.0)
        Z = np.array([[50.0, 5.0], [5.0, 50.0]])
        Rn = noise_covariance(Z, lna)
        off = abs(Rn[0, 1]) / abs(Rn[0, 0])
        assert off < 1e-4  # essentially diagonal

    def test_current_noise_dominated(self):
        lna = LnaParams(R_v=0.0, G_i=1e9, beta=0.0)
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Z = 0.5 * (Z + Z.T)  # symmetric, possibly indefinite real part
        Z = Z + 10 * np.eye(3)
        Rn = noise_covariance(Z, lna)
        target = 4 * Boltzmann * 290.0 * 1e9 * (Z @ Z.conj().T)
        assert np.linalg.norm(Rn - target) < 1e-9 * np.linalg.norm(target)

    def test_non_psd_parameters_rejected(self):
        # strongly negative correlation with no LNA noise floor drives the
        # covariance indefinite; the contract error names the culprit
        lna = LnaParams(R_v=0.0, G_i=0.0, beta=-5.0)
        with pytest.raises(ContractError, match="beta"):
            noise_covariance(50.0 * np.eye(3), lna)

    def test_psd_for_random_passive_impedances(self):
        rng = np.random.default_rng(6)
        lna = LnaParams()
        for _ in range(100):
            m = 5
            B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            re = B @ B.conj().T / m          # PSD real part
            re = 0.5 * (re + re.conj().T).real
            im = rng.standard_normal((m, m))
            im = 0.5 * (im + im.T)           # symmetric reactance
            Z = re + 1j * im
            Rn = noise_covariance(Z, lna)
            assert np.linalg.eigvalsh(Rn).min() >= -1e-12 * np.linalg.norm(Rn)
            assert np.linalg.norm(Rn - Rn.conj().T) == 0.0


class TestRadiationMatrix:
    def test_isotropic_unit_pattern(self):
        grid = sphere_grid(64, 32)
        samples = np.ones((1, grid.size))
        B = radiation_matrix(samples, grid)
        assert abs(B[0, 0] - 4 * np.pi) < 1e-9

    def test_orthogonal_patterns_diagonal(self):
        grid = sphere_grid(64, 32)
        # spherical-harmonic-like orthogonal patterns on the sphere
        s1 = np.ones(grid.size)
        s2 = np.sqrt(3) * np.sin(grid.elevation)
        B = radiation_matrix(np.vstack([s1, s2]), grid)
        assert abs(B[0, 1]) < 1e-9
        assert abs(B[0, 0] - 4 * np.pi) < 1e-9
        assert abs(B[1, 1] - 4 * np.pi) < 1e-6

    def test_lossless_scattering_normalization(self):
        # reciprocal lossless S = U diag(e^{j a}) (I - Lam)^{1/2} U^T gives
        # B = I - S S^H with eigenvalues Lam in [0, 1]
        rng = np.random.default_rng(7)
        m = 4
        Q, _ = np.linalg.qr(rng.standard_normal((m, m))
                            + 1j * rng.standard_normal((m, m)))
        lam_b = rng.uniform(0.05, 0.95, m)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        S = (Q * phases) @ np.diag(np.sqrt(1 - lam_b)) @ Q.T
        B = np.eye(m) - S @ S.conj().T
        w = np.linalg.eigvalsh(B)
        assert w.min() >= -1e-12
        assert w.max() <= 1.0 + 1e-12
        # synthetic embedded patterns whose Gram integral reproduces B:
        # root @ (orthonormal sphere basis) where the basis is the l <= 1
        # real spherical harmonics
        grid = sphere_grid(48, 24)
        el, az = grid.elevation, grid.azimuth
        Y = np.vstack([
            np.full(grid.size, 1 / np.sqrt(4 * np.pi)),
            np.sqrt(3 / (4 * np.pi)) * np.sin(el),
            np.sqrt(3 / (4 * np.pi)) * np.cos(el) * np.cos(az),
            np.sqrt(3 / (4 * np.pi)) * np.cos(el) * np.sin(az),
        ])
        root = np.linalg.cholesky(B + 1e-12 * np.eye(m))
        B2 = radiation_matrix(root @ Y, grid)
        assert np.allclose(B2, B, atol=1e-8)

    def test_partial_grid_rejected(self):
        from ummimo.numerics import hemisphere_grid
        grid = hemisphere_grid(16, 8)
        with pytest.raises(ContractError):
            radiation_matrix(np.ones((1, grid.size)), grid)

    def test_sample_mismatch_rejected(self):
        grid = sphere_grid(16, 8)
        with pytest.raises(ContractError):
            radiation_matrix(np.ones((1, grid.size + 1)), grid)
