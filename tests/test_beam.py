import numpy as np
import pytest

from ummimo.errors import ContractError, DomainError
from ummimo.beam import (angular_taper, array_gain, beamdepth_3db, beamwidth_3db,
                         depth_gain, focus_phases, _depth_profile)
from ummimo.geometry import build_upa, fraunhofer_square

LAM = 0.01

# depth-gain series about x = 0: A(x) = 1 + c2 x^2 + c4 x^4 + c6 x^6 + O(x^8)
A_SERIES = (1.0, -0.4386490844928604, 0.08933461611583998, -0.01107570291036017)


class TestFocusAndGain:
    def test_focused_gain_is_m(self):
        geom = build_upa(12, 12, LAM / 2, LAM / 2, LAM)
        rx = np.array([0.02, -0.01, 0.5])
        phases = focus_phases(geom, rx)
        assert phases.shape == (geom.num_elements,)
        g = array_gain(geom, phases, rx)
        m = geom.num_elements
        assert abs(g - m) < 1e-9 * m

    def test_far_focus_matches_plane_wave_phases(self):
        n = 16
        geom = build_upa(n, n, LAM / 2, LAM / 2, LAM)
        d_f = fraunhofer_square(n, LAM / 2, LAM)
        point = np.array([0.0, 0.0, 100 * d_f])
        phases = focus_phases(geom, point)
        # at broadside the plane-wave steering phases are constant; the
        # quadratic residue across the array must be tiny this far out
        resid = phases - phases.mean()
        assert np.ptp(resid) < 0.01

    def test_single_antenna_gain_one(self):
        geom = build_upa(1, 1, LAM, LAM, LAM)
        phases = focus_phases(geom, np.array([0, 0, 1.0]))
        assert abs(array_gain(geom, phases, np.array([0.3, 0.4, 2.0])) - 1.0) < 1e-12

    def test_random_phases_average_unity(self):
        geom = build_upa(8, 8, LAM / 2, LAM / 2, LAM)  # M = 64
        rx = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(11)
        gains = [array_gain(geom, rng.uniform(0, 2 * np.pi, geom.num_elements), rx)
                 for _ in range(1000)]
        assert abs(np.mean(gains) - 1.0) < 0.2

    def test_gain_bounded_by_m(self):
        geom = build_upa(6, 6, LAM / 2, LAM / 2, LAM)
        rng = np.random.default_rng(12)
        for _ in range(50):
            phases = rng.uniform(0, 2 * np.pi, 36)
            rx = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2)])
            assert array_gain(geom, phases, rx) <= 36 + 1e-9


class TestAngularTaper:
    def test_boresight(self):
        assert angular_taper(10, LAM / 2, LAM, 0.0) == 100

    def test_half_power_angle(self):
        n = 32
        phi = np.arcsin(0.443 * LAM / (n * LAM / 2))
        val = angular_taper(n, LAM / 2, LAM, phi)
        assert abs(val - n * n / 2) < 0.01 * n * n / 2

    def test_null_at_adjacent_antenna(self):
        n = 32
        phi = np.arcsin(LAM / (n * LAM / 2))
        assert angular_taper(n, LAM / 2, LAM, phi) < 1e-20 * n * n


    def test_array_equals_scalar_calls_bit_for_bit(self):
        phis = np.linspace(-0.1, 0.1, 2001)
        got = angular_taper(64, LAM / 2, LAM, phis)
        assert got.shape == phis.shape
        assert np.array_equal(got, [angular_taper(64, LAM / 2, LAM, p) for p in phis])
        assert type(angular_taper(64, LAM / 2, LAM, phis[3])) is float
        grid = phis[:10].reshape(2, 5)
        assert np.array_equal(angular_taper(64, LAM / 2, LAM, grid), got[:10].reshape(2, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_with_one_nonfinite_angle_rejected(self, bad):
        phis = np.linspace(-0.1, 0.1, 11)
        phis[5] = bad
        with pytest.raises(DomainError, match="phi must be finite"):
            angular_taper(8, LAM / 2, LAM, phis)


class TestBeamwidth:
    def test_half_wavelength_form(self):
        for n in [8, 64, 256]:
            assert abs(beamwidth_3db(n, LAM / 2, LAM) - 1.772 / n) < 1e-12

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_against_numeric_half_power_search(self, n):
        spacing = LAM / 2
        m = n * n
        lo, hi = 0.0, np.arcsin(LAM / (n * spacing))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if angular_taper(n, spacing, LAM, mid) > m / 2:
                lo = mid
            else:
                hi = mid
        numeric = lo + hi  # full width = 2x half-power angle
        assert abs(numeric - beamwidth_3db(n, spacing, LAM)) < 0.05 * numeric

    def test_homogeneity(self):
        assert abs(beamwidth_3db(10, LAM, LAM) * 0.5
                   - beamwidth_3db(20, LAM, LAM)) < 1e-15

    def test_tiny_array_rejected(self):
        with pytest.raises(DomainError):
            beamwidth_3db(1, 0.1 * LAM, LAM)

    def test_guard_boundary_at_0443_wavelengths(self):
        # an aperture n * spacing of exactly 0.443 lambda is refused, one ulp
        # more is not
        with pytest.raises(DomainError, match="too small"):
            beamwidth_3db(1, 0.443 * LAM, LAM)
        above = np.nextafter(0.443 * LAM, 1.0)
        assert beamwidth_3db(1, above, LAM) == 0.886 * LAM / above


class TestDepthGain:
    def test_unity_at_focus(self):
        assert depth_gain(3.0, 3.0, 100.0) == 1.0

    def test_half_power_point(self):
        assert abs(_depth_profile(1.25) - 0.5) < 0.005

    def test_swap_symmetry(self):
        d_f = 409.6
        assert depth_gain(5.0, 9.0, d_f) == depth_gain(9.0, 5.0, d_f)

    def test_series_matches_integral_branch(self):
        # the direct Fresnel formula agrees with the series about x = 0
        c0, c2, c4, c6 = A_SERIES
        for x in [1e-8, 5e-4, 9e-4, 1.1e-3, 2e-3]:
            series = c0 + c2 * x ** 2 + c4 * x ** 4 + c6 * x ** 6
            assert abs(_depth_profile(x) - series) < 1e-9
        assert _depth_profile(0.0) == 1.0

    @pytest.mark.parametrize("x", [901.0, 1e4, 1e6])
    def test_tail_against_mpmath(self, x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            t = mp.sqrt(x)
            ref = float(((mp.fresnelc(t) ** 2 + mp.fresnels(t) ** 2) / x) ** 2)
        assert abs(_depth_profile(x) - ref) <= 1e-12 * ref

    def test_unimodal_with_peak_at_focus(self):
        d_f = 500.0
        focus = 20.0
        zs = np.linspace(1.0, 200.0, 400)
        gains = np.array([depth_gain(focus, z, d_f) for z in zs])
        assert np.all(gains <= 1.0 + 1e-12)
        peak = zs[np.argmax(gains)]
        assert abs(peak - focus) < zs[1] - zs[0] + 1e-9


class TestBeamdepth:
    def test_far_focus_infinite(self):
        d_f = 1000.0
        for f in [d_f / 10, d_f / 5, d_f, 10 * d_f]:
            interval = beamdepth_3db(f, d_f)
            assert np.isinf(interval.depth)
            assert np.isinf(interval.z_far)
            assert interval.z_near > 0

    def test_twentieth_fraunhofer(self):
        d_f = 4096 * LAM
        interval = beamdepth_3db(d_f / 20, d_f)
        assert abs(interval.depth - d_f / 15) < 1e-9 * d_f

    @pytest.mark.parametrize("ratio", [1 / 20, 1 / 15])
    def test_against_numeric_search(self, ratio):
        d_f = 4096 * LAM
        focus = ratio * d_f
        interval = beamdepth_3db(focus, d_f)

        def gain(z):
            return depth_gain(focus, z, d_f)

        def bisect(lo, hi):
            # keeps the bracket around the 0.5 crossing whichever side rises
            g_lo = gain(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (gain(mid) - 0.5) * (g_lo - 0.5) > 0:
                    lo = mid
                    g_lo = gain(lo)
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        near = bisect(1e-6 * focus, focus)
        hi = focus
        while gain(hi) > 0.5:
            hi *= 1.5
        far = bisect(focus, hi)
        numeric = far - near
        assert abs(numeric - interval.depth) < 0.02 * numeric
        assert abs(near - interval.z_near) < 0.02 * interval.z_near
        assert abs(far - interval.z_far) < 0.02 * interval.z_far

    def test_vanishing_focus(self):
        d_f = 1000.0
        assert beamdepth_3db(1e-9 * d_f, d_f).depth < 1e-6

    def test_near_endpoint_converges_to_tenth_fraunhofer(self):
        d_f = 1000.0
        assert abs(beamdepth_3db(1e9 * d_f, d_f).z_near - d_f / 10) < 1e-6 * d_f

    def test_endpoints_half_power_on_exact_array(self):
        # 64 x 64 half-wavelength array: the analytic endpoints must sit at
        # half gain of the exact spherical-wave array factor
        n = 64
        geom = build_upa(n, n, LAM / 2, LAM / 2, LAM)
        d_f = fraunhofer_square(n, LAM / 2, LAM)
        focus = d_f / 20
        phases = focus_phases(geom, np.array([0.0, 0.0, focus]))
        m = geom.num_elements
        interval = beamdepth_3db(focus, d_f)
        for z in (interval.z_near, interval.z_far):
            g = array_gain(geom, phases, np.array([0.0, 0.0, z])) / m
            assert abs(g - 0.5) < 0.01


class TestNonFiniteRefused:
    """NaN passes every comparison with 0, so each argument has its own gate
    and the DomainError names it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_beamdepth_arguments(self, bad):
        with pytest.raises(DomainError, match="focus must be finite"):
            beamdepth_3db(bad, 40.96)
        with pytest.raises(DomainError, match="d_fraunhofer must be finite"):
            beamdepth_3db(1.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_depth_gain_arguments(self, bad):
        with pytest.raises(DomainError, match="^z must be finite"):
            depth_gain(1.0, bad, 40.96)
        with pytest.raises(DomainError, match="focus must be finite"):
            depth_gain(bad, 1.0, 40.96)
        with pytest.raises(DomainError, match="d_fraunhofer must be finite"):
            depth_gain(1.0, 2.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_beamwidth_and_taper_arguments(self, bad):
        with pytest.raises(DomainError, match="wavelength must be finite"):
            beamwidth_3db(8, 0.005, bad)
        with pytest.raises(DomainError, match="spacing must be finite"):
            beamwidth_3db(8, bad, 0.01)
        with pytest.raises(DomainError, match="phi must be finite"):
            angular_taper(8, 0.005, 0.01, bad)
        with pytest.raises(DomainError, match="wavelength must be finite"):
            angular_taper(8, 0.005, bad, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_focus_and_receive_points(self, bad):
        geom = build_upa(4, 4, LAM / 2, LAM / 2, LAM)
        with pytest.raises(DomainError, match="focus point must be finite"):
            focus_phases(geom, [0.0, bad, 1.0])
        phases = focus_phases(geom, [0.0, 0.0, 1.0])
        with pytest.raises(DomainError, match="receive point must be finite"):
            array_gain(geom, phases, [bad, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_phases(self, bad):
        geom = build_upa(4, 4, LAM / 2, LAM / 2, LAM)
        phases = focus_phases(geom, [0.0, 0.0, 1.0])
        phases[5] = bad
        with pytest.raises(DomainError, match="phases must be finite"):
            array_gain(geom, phases, [0.0, 0.0, 2.0])

    def test_points_must_be_three_vectors(self):
        geom = build_upa(4, 4, LAM / 2, LAM / 2, LAM)
        with pytest.raises(ContractError, match="focus point must be a"):
            focus_phases(geom, [[0.0, 0.0, 1.0]])
        phases = focus_phases(geom, [0.0, 0.0, 1.0])
        with pytest.raises(ContractError, match="receive point must be a"):
            array_gain(geom, phases, [0.0, 1.0])

    def test_phases_must_match_the_array(self):
        geom = build_upa(4, 4, LAM / 2, LAM / 2, LAM)
        phases = focus_phases(geom, [0.0, 0.0, 1.0])
        for bad in (phases[:-1], phases[:, None], np.append(phases, 0.0), phases[0]):
            with pytest.raises(ContractError, match=r"phases must have shape \(16,\)"):
                array_gain(geom, bad, [0.0, 0.0, 2.0])
