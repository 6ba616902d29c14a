import numpy as np
import pytest

from ummimo.errors import DomainError, SingularityError
# the package's SI constants (CODATA 2022 epsilon_0 on every scipy release;
# tests/test_api.py checks them against scipy.constants)
from ummimo.fields import (DipoleSegment, aperture_gain, aperture_gain_subdivided,
                           array_field, dipole_field, edge_phase_and_power, epsilon_0,
                           isotropic_area, near_field_factor, speed_of_light,
                           _amplitudes, _basis_matrix, _cell_rule, _folded_rule)

LAM = 0.01


class TestNearFieldFactor:
    def test_two_wavelengths(self):
        # exact value 1 - (4 pi)^-2 + (4 pi)^-4 = 0.9937..., i.e. 0.99 at the
        # two-decimal precision of the reference claim
        val = near_field_factor(2 * LAM, LAM)
        q = 4 * np.pi
        assert abs(val - (1 - q ** -2 + q ** -4)) < 1e-14
        assert round(val, 2) == 0.99

    def test_far_limit(self):
        assert abs(near_field_factor(1e6 * LAM, LAM) - 1.0) < 1e-10

    def test_unit_argument(self):
        z = LAM / (2 * np.pi)  # 2 pi z / lambda = 1
        assert abs(near_field_factor(z, LAM) - 1.0) < 1e-12

    def test_monotone_approach(self):
        f = np.array([near_field_factor(z, LAM)
                      for z in np.linspace(2 * LAM, 50 * LAM, 50)])
        assert np.all(np.abs(f - 1.0) <= 0.01)
        assert np.all(np.diff(f) > 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            near_field_factor(0.0, LAM)

    @pytest.mark.parametrize("lam", [-LAM, 0.0, np.nan, np.inf])
    def test_bad_wavelength_rejected(self, lam):
        with pytest.raises(DomainError, match="wavelength"):
            near_field_factor(2 * LAM, lam)

    @pytest.mark.parametrize("z", [np.nan, np.inf])
    def test_nonfinite_distance_rejected(self, z):
        # NaN passes a `z <= 0` test, and inf read as the far-field limit 1
        with pytest.raises(DomainError, match="z must be finite"):
            near_field_factor(z, LAM)


    def test_array_equals_scalar_calls_bit_for_bit(self):
        zs = np.linspace(0.5, 20.0, 2001) * LAM
        got = near_field_factor(zs, LAM)
        assert got.shape == zs.shape
        assert np.array_equal(got, [near_field_factor(z, LAM) for z in zs])
        assert type(near_field_factor(zs[7], LAM)) is float
        # any shape, element by element
        grid = zs[:12].reshape(3, 4)
        assert np.array_equal(near_field_factor(grid, LAM), got[:12].reshape(3, 4))

    @pytest.mark.parametrize("z", [np.nan, np.inf, 0.0, -LAM])
    def test_array_with_one_bad_distance_rejected(self, z):
        zs = np.linspace(1.0, 5.0, 9) * LAM
        zs[4] = z
        with pytest.raises(DomainError, match="z must be finite and positive"):
            near_field_factor(zs, LAM)


class TestEdgePhaseAndPower:
    @staticmethod
    def _exact(z, D):
        delta = np.hypot(z, D / 2) - z
        return 2 * np.pi / LAM * delta, z ** 2 / (z + delta) ** 2

    def test_fraunhofer_phase(self):
        # pi/8 at the Fraunhofer distance is the rounded value of the
        # exact path-difference phase
        D = 0.5
        d_f = 2 * D ** 2 / LAM
        phase, ratio = edge_phase_and_power(d_f, D, LAM)
        want_phase, want_ratio = self._exact(d_f, D)
        assert abs(phase - want_phase) <= 1e-12 * want_phase
        assert abs(ratio - want_ratio) <= 1e-12 * want_ratio
        assert round(phase, 3) == round(np.pi / 8, 3)

    def test_power_at_2d(self):
        # 0.94 at z = 2D is the rounded value of z^2 / (z + Delta)^2
        D = 0.5
        phase, ratio = edge_phase_and_power(2 * D, D, LAM)
        want_phase, want_ratio = self._exact(2 * D, D)
        assert abs(phase - want_phase) <= 1e-12 * want_phase
        assert abs(ratio - want_ratio) <= 1e-12 * want_ratio
        assert round(ratio, 2) == 0.94

    def test_far_limit(self):
        phase, ratio = edge_phase_and_power(1e9, 0.5, LAM)
        assert abs(phase) < 1e-6
        assert abs(ratio - 1.0) < 1e-9

    def test_regime_guard(self):
        with pytest.raises(DomainError):
            edge_phase_and_power(0.2, 0.5, LAM)


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_arguments_rejected(self, bad):
        # NaN passes `z <= D/2`, so each argument has its own gate
        with pytest.raises(DomainError, match="^z must be finite"):
            edge_phase_and_power(bad, 0.5, LAM)
        with pytest.raises(DomainError, match="^D must be finite"):
            edge_phase_and_power(1.0, bad, LAM)
        with pytest.raises(DomainError, match="wavelength must be finite"):
            edge_phase_and_power(1.0, 0.5, bad)


def test_isotropic_area_is_lambda_squared_over_four_pi():
    for lam in (LAM, 0.5, 3.0):
        assert abs(isotropic_area(lam) - lam ** 2 / (4 * np.pi)) <= 1e-15 * lam ** 2


@pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -LAM])
def test_isotropic_area_rejects_bad_wavelength(lam):
    with pytest.raises(DomainError, match="wavelength must be finite"):
        isotropic_area(lam)


def _gain_by_cells(a, b, n_x, n_y, z, lam, refine=1):
    """Per-cell loop oracle: each cell integrated on its own composite
    8-point Gauss-Legendre rule with refine x max(2, ceil(width / (lam/2)))
    panels per axis."""
    xg, wg = np.polynomial.legendre.leggauss(8)

    def rule(lo, hi):
        e = np.linspace(lo, hi, refine * max(2, int(np.ceil((hi - lo) / (lam / 2)))) + 1)
        nodes = np.concatenate([(e[k] + e[k + 1]) / 2 + (e[k + 1] - e[k]) / 2 * xg
                                for k in range(len(e) - 1)])
        return nodes, np.concatenate([(e[k + 1] - e[k]) / 2 * wg for k in range(len(e) - 1)])

    total = 0.0
    for i in range(n_x):
        xs, wx = rule(-a / 2 + i * a / n_x, -a / 2 + (i + 1) * a / n_x)
        for j in range(n_y):
            ys, wy = rule(-b / 2 + j * b / n_y, -b / 2 + (j + 1) * b / n_y)
            r = np.sqrt(xs[:, None] ** 2 + ys[None, :] ** 2 + z ** 2)
            total += abs(wx @ np.exp(-2j * np.pi / lam * r) @ wy) ** 2
    return total / (isotropic_area(lam) * (a / n_x) * (b / n_y))


class TestApertureGain:
    @pytest.mark.parametrize("n_cells", [1, 4, 5])
    def test_folded_rule_cached_read_only(self, n_cells):
        # one rule per (length, cells, wavelength), shared read-only, with
        # the cells and weights of _cell_rule
        blocks = _folded_rule(5 * LAM, n_cells, LAM)
        assert _folded_rule(5 * LAM, n_cells, LAM) is blocks
        xs, ws = _cell_rule(5 * LAM, n_cells, LAM)
        half = n_cells // 2
        if half:
            assert np.array_equal(blocks[0][0], xs[n_cells - half:])
            assert np.array_equal(blocks[0][1], ws[n_cells - half:])
        for nodes, weights, _ in blocks:
            assert not nodes.flags.writeable and not weights.flags.writeable

    def test_near_field_loss(self):
        a = b = 5 * LAM
        ratio = aperture_gain(a, b, 8 * LAM, LAM) / (a * b / isotropic_area(LAM))
        assert abs(ratio - 0.35) < 0.02

    def test_far_field_gain_is_four_pi_area_over_lambda_squared(self):
        # a 3 x 2 wavelength aperture 1000 Fraunhofer distances away: the
        # phase is flat to 1e-4 rad, so the gain is 4 pi a b / lambda^2
        a, b = 3 * LAM, 2 * LAM
        z = 1000 * 2 * (a ** 2 + b ** 2) / LAM
        want = 4 * np.pi * a * b / LAM ** 2
        assert abs(aperture_gain(a, b, z, LAM) - want) <= 1e-7 * want

    def test_far_field_recovery(self):
        a = b = 5 * LAM
        d_f = 2 * (a ** 2 + b ** 2) / LAM
        ratio = aperture_gain(a, b, 10 * d_f, LAM) / (a * b / isotropic_area(LAM))
        assert ratio >= 0.99

    def test_subdivision_recovers_gain(self):
        a = b = 5 * LAM
        ratio = aperture_gain_subdivided(a, b, 10, 10, 8 * LAM, LAM) \
            / (a * b / isotropic_area(LAM))
        assert ratio >= 0.95

    @pytest.mark.parametrize("a, b, z", [(-LAM, LAM, LAM), (LAM, 0.0, LAM),
                                         (LAM, LAM, 0.0), (LAM, LAM, -LAM)])
    def test_subdivided_rejects_nonpositive_sizes(self, a, b, z):
        with pytest.raises(DomainError):
            aperture_gain_subdivided(a, b, 2, 2, z, LAM)
        with pytest.raises(DomainError):
            aperture_gain(a, b, z, LAM)

    @pytest.mark.parametrize("a, b, z", [(np.nan, LAM, LAM), (LAM, np.nan, LAM),
                                         (LAM, LAM, np.nan), (np.inf, LAM, LAM),
                                         (LAM, LAM, np.inf)])
    def test_nonfinite_sizes_rejected(self, a, b, z):
        with pytest.raises(DomainError, match="must be finite"):
            aperture_gain_subdivided(a, b, 2, 2, z, LAM)
        with pytest.raises(DomainError, match="must be finite"):
            aperture_gain(a, b, z, LAM)

    @pytest.mark.parametrize("lam", [-LAM, 0.0, np.nan, np.inf])
    def test_bad_wavelength_rejected(self, lam):
        with pytest.raises(DomainError, match="wavelength"):
            aperture_gain_subdivided(5 * LAM, 5 * LAM, 2, 2, 8 * LAM, lam)
        with pytest.raises(DomainError, match="wavelength"):
            aperture_gain(5 * LAM, 5 * LAM, 8 * LAM, lam)

    @pytest.mark.parametrize("z_lam", [0.5, 8.0, 1000.0])
    def test_full_is_the_one_cell_case(self, z_lam):
        a, b = 7.3 * LAM, 4.1 * LAM
        assert aperture_gain(a, b, z_lam * LAM, LAM) == \
            aperture_gain_subdivided(a, b, 1, 1, z_lam * LAM, LAM)

    @pytest.mark.parametrize("a_lam, b_lam, n_x, n_y", [
        (7.3, 4.1, 3, 5), (5.0, 5.0, 16, 16),
        # odd and degenerate layouts of the mirror fold, a != b
        (7.3, 4.1, 1, 1), (4.1, 7.3, 3, 3), (6.2, 3.4, 5, 2), (2.9, 8.6, 1, 7)])
    @pytest.mark.parametrize("z_lam", [0.5, 8.0])
    def test_matches_per_cell_loop(self, a_lam, b_lam, n_x, n_y, z_lam):
        a, b, z = a_lam * LAM, b_lam * LAM, z_lam * LAM
        want = _gain_by_cells(a, b, n_x, n_y, z, LAM)
        assert abs(aperture_gain_subdivided(a, b, n_x, n_y, z, LAM) - want) <= 1e-12 * want

    @pytest.mark.parametrize("a_lam, b_lam, n_x, n_y", [(5.0, 5.0, 1, 1), (20.0, 10.0, 1, 1),
                                                       (7.3, 4.1, 3, 5)])
    @pytest.mark.parametrize("z_lam", [0.5, 2.0, 64.0])
    def test_error_below_1e4_against_refined_rule(self, a_lam, b_lam, n_x, n_y, z_lam):
        a, b, z = a_lam * LAM, b_lam * LAM, z_lam * LAM
        want = _gain_by_cells(a, b, n_x, n_y, z, LAM, refine=4)
        assert abs(aperture_gain_subdivided(a, b, n_x, n_y, z, LAM) - want) < 1e-4 * want

    def test_no_super_aperture_gain(self):
        a = b = 5 * LAM
        gmax = a * b / isotropic_area(LAM)
        for z in [3 * LAM, 8 * LAM, 30 * LAM, 300 * LAM, 3e4 * LAM]:
            assert aperture_gain(a, b, z, LAM) <= gmax * (1 + 1e-3)


class TestDipoleField:
    def test_radial_amplitude_lacks_radiation_term(self):
        rs = np.array([10.0, 100.0, 1000.0]) * LAM
        vals = np.array([abs(_amplitudes(r, LAM)[0]) * r for r in rs])
        assert vals[-1] < vals[0] / 50  # decays like 1/r -> 0

    def test_angular_amplitude_radiation_limit(self):
        kappa = 2 * np.pi / LAM
        omega = kappa * speed_of_light
        target = kappa ** 2 / (omega * epsilon_0 * 4 * np.pi)
        r = 1e5 * LAM
        assert abs(abs(_amplitudes(r, LAM)[1]) * r - target) < 1e-4 * target

    def test_closed_form_against_symbolic_oracle(self):
        # independent route: dyadic Green function (kappa^2 I + grad grad^T)
        # applied symbolically to the spherical wave, e^{-j kappa r} phasors
        sp = pytest.importorskip("sympy")
        kap = 2 * np.pi / LAM
        omega = kap * speed_of_light
        r0 = 10.0 / kap  # kappa r = 10
        phi0 = 0.3
        p = np.array([r0 * np.cos(phi0), r0 * np.sin(phi0), 0.0])
        m = np.array([0.0, 0.0, 1.0])
        sample = dipole_field(DipoleSegment(np.zeros(3), m), p, LAM)
        e_cart = _basis_matrix(p) @ sample.E

        x, y, z = sp.symbols("x y z", real=True)
        k = sp.Symbol("k", positive=True)
        r = sp.sqrt(x ** 2 + y ** 2 + z ** 2)
        g = sp.exp(-sp.I * k * r) / (4 * sp.pi * r)
        ops = [sp.diff(g, x, z), sp.diff(g, y, z), sp.diff(g, z, z) + k ** 2 * g]
        subs = {x: p[0], y: p[1], z: p[2], k: kap}
        ref = np.array([complex(sp.N(o.subs(subs), 30)) for o in ops])
        ref = ref / (1j * omega * epsilon_0)
        assert np.linalg.norm(e_cart - ref) < 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("theta_deg", [30.0, 60.0, 90.0])
    def test_far_zone_power_pattern(self, theta_deg):
        # power of a z-moment dipole goes as sin^2(polar angle) at kappa r = 1e3
        kappa = 2 * np.pi / LAM
        r = 1e3 / kappa
        seg = DipoleSegment(np.zeros(3), np.array([0, 0, 1.0]))
        theta = np.deg2rad(theta_deg)
        p = np.array([r * np.sin(theta), 0.0, r * np.cos(theta)])
        p_eq = np.array([r, 0.0, 0.0])
        ratio = (np.linalg.norm(dipole_field(seg, p, LAM).E) ** 2
                 / np.linalg.norm(dipole_field(seg, p_eq, LAM).E) ** 2)
        assert abs(ratio - np.sin(theta) ** 2) < 0.01

    def test_singularity_rejected(self):
        seg = DipoleSegment(np.zeros(3), np.array([0, 0, 1.0]))
        with pytest.raises(SingularityError):
            dipole_field(seg, np.zeros(3), LAM)


class TestArrayField:
    def _one_segment(self):
        return DipoleSegment(np.array([0.1, -0.2, 0.05]), np.array([0, 0, 1.0]))

    def test_single_segment_matches_translated_dipole(self):
        # dipole_field is the one-segment array_field, bit for bit
        seg = DipoleSegment(np.array([0.1, -0.2, 0.05]), np.array([0.3j, -1.0, 0.5 + 2j]))
        for p in (np.array([1.0, 2.0, 3.0]), np.array([0.1, -0.2, 4.0]), seg.position + LAM):
            want = array_field([seg], [np.eye(3)], seg.moment, p, LAM).E
            got = dipole_field(seg, p, LAM).E
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_off_origin_segment_in_basis_at_p(self):
        # a z-dipole away from the origin has an azimuthal component in the
        # spherical basis at p, though none in the basis at p - position
        lam = 0.5
        seg = self._one_segment()
        p = np.array([1.0, 2.0, 3.0])
        e = dipole_field(seg, p, lam).E
        assert abs(e[2] - (-1.9012129 - 3.12590686j)) < 1e-7
        # the same components from the Cartesian closed form and the
        # spherical unit vectors at p written out from its angles
        rel = p - seg.position
        r = np.linalg.norm(rel)
        u = rel / r
        a_rad, a_ang = _amplitudes(r, lam)
        e_cart = a_ang * seg.moment + (a_rad - a_ang) * (u @ seg.moment) * u
        phi, el = np.arctan2(p[1], p[0]), np.arctan2(p[2], np.hypot(p[0], p[1]))
        basis = np.array([[np.cos(el) * np.cos(phi), np.cos(el) * np.sin(phi), np.sin(el)],
                          [-np.sin(el) * np.cos(phi), -np.sin(el) * np.sin(phi), np.cos(el)],
                          [-np.sin(phi), np.cos(phi), 0.0]])
        assert np.linalg.norm(e - basis @ e_cart) <= 1e-13 * np.linalg.norm(e)

    def test_equals_per_segment_loop(self):
        # the loop the vectorised form replaced: each segment's field in its
        # own spherical basis, T = basis(rel)^T scaled by (a_rad, a_ang,
        # a_ang) per row, rotated to Cartesian and summed
        rng = np.random.default_rng(7)
        segs = [DipoleSegment(q, np.zeros(3)) for q in rng.uniform(-LAM, LAM, (5, 3))]
        mats = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        x = np.array([0.3 - 1.1j, 0.8j])

        def segment_cart(rel, m):
            a_rad, a_ang = _amplitudes(np.linalg.norm(rel), LAM)
            basis = _basis_matrix(rel)
            return basis @ ((basis.T * np.array([[a_rad], [a_ang], [a_ang]])) @ m)

        for p in rng.uniform(-3 * LAM, 3 * LAM, (4, 3)):
            e_cart = sum(segment_cart(p - seg.position, M @ x)
                         for seg, M in zip(segs, mats))
            got = _basis_matrix(p) @ array_field(segs, list(mats), x, p, LAM).E
            assert np.linalg.norm(got - e_cart) <= 1e-13 * np.linalg.norm(e_cart)

    def test_linearity(self):
        segs = [DipoleSegment(np.array([0.0, 0.0, 0.0]), np.array([0, 0, 1.0])),
                DipoleSegment(np.array([0.02, 0.0, 0.0]), np.array([0, 0, 1.0]))]
        mats = [np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
                np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])]
        p = np.array([0.5, 0.3, 0.8])
        x1 = np.array([1.0 + 0.5j, 0.0])
        x2 = np.array([0.0, -0.7j])
        e1 = array_field(segs, mats, x1, p, LAM).E
        e2 = array_field(segs, mats, x2, p, LAM).E
        e12 = array_field(segs, mats, x1 + x2, p, LAM).E
        assert np.linalg.norm(e12 - (e1 + e2)) < 1e-12 * np.linalg.norm(e12)

    def test_mirror_symmetric_pair_doubles_broadside(self):
        # far point along +y: broadside to the x-axis pair and in the dipoles'
        # equatorial plane, so the equal-path contributions add coherently
        d = 0.02
        segs = [DipoleSegment(np.array([d, 0, 0]), np.array([0, 0, 1.0])),
                DipoleSegment(np.array([-d, 0, 0]), np.array([0, 0, 1.0]))]
        mat = np.array([[0.0], [0.0], [1.0]])
        p = np.array([0.0, 1e4 * d, 0.0])
        both = array_field(segs, [mat, mat], np.array([1.0]), p, LAM).E
        one = array_field(segs[:1], [mat], np.array([1.0]), p, LAM).E
        assert abs(np.linalg.norm(both) - 2 * np.linalg.norm(one)) \
            < 1e-6 * np.linalg.norm(both)

    def test_zero_excitation_zero_field(self):
        segs = [self._one_segment()]
        mat = np.array([[0.0], [0.0], [1.0]])
        e = array_field(segs, [mat], np.array([0.0]), np.array([1.0, 1.0, 1.0]), LAM).E
        assert np.all(e == 0)

    def test_observation_on_segment_rejected(self):
        seg = self._one_segment()
        with pytest.raises(SingularityError):
            array_field([seg], [np.array([[0.0], [0.0], [1.0]])], np.array([1.0]),
                        seg.position, LAM)

    def test_observation_at_origin_rejected(self):
        # the spherical basis the field is reported in is undefined there
        with pytest.raises(SingularityError, match="origin"):
            dipole_field(self._one_segment(), np.zeros(3), LAM)
