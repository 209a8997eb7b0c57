import cmath
import math

import numpy as np
import pytest

from wrightlens import (
    ClassParams,
    ConsistencyError,
    GridSpec,
    LaurentSeries,
    ParameterError,
    SchwarzFunction,
    SeriesDivisionError,
    WrightParams,
    a_of_t,
    apply_operator,
    bound_sequence_closed,
    caratheodory_series,
    convolution_kernel,
    convolution_scan,
    convex_predicate,
    membership_check,
    phi_values,
    polar_grid,
    schwarz_generate,
    starlike_predicate,
    sufficiency_predicate,
    tau_transform,
)

from param_grids import class_grid, full_grid

CP = ClassParams(0.0, 0.0, 2.0)
WP = WrightParams(0.0, 1.0)
POLE = LaurentSeries(1.0)

# boundary Schwarz functions like w(z) = z have coefficient mass exactly 1;
# the admissibility test is strict, so fixtures approach the boundary
NEAR_ONE = 1.0 - 1e-12


class TestSchwarzFunction:
    def test_mass_strictly_below_one(self):
        with pytest.raises(ParameterError):
            SchwarzFunction([1.0])
        with pytest.raises(ParameterError):
            SchwarzFunction([0.5, 0.5])
        SchwarzFunction([0.5, 0.49])

    def test_monomial(self):
        w = SchwarzFunction.monomial(0.5, 2)
        assert w(0.3) == pytest.approx(0.5 * 0.09)
        assert w.coeffs.tolist() == [0j, 0.5 + 0j]

    def test_zero_function_allowed(self):
        w = SchwarzFunction([0.0])
        assert w(0.7) == 0.0

    def test_taylor_padding(self):
        w = SchwarzFunction([0.1, 0.2])
        assert w.taylor(4).tolist() == [0j, 0.1 + 0j, 0.2 + 0j, 0j, 0j]


class TestTauTransform:
    def test_bare_pole_gives_one(self):
        for cp, wp in full_grid():
            tau = tau_transform(POLE, cp, wp, 0.3 + 0.2j)
            assert tau == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_through_generator(self):
        # w must have no linear term for the transform to reproduce it
        w = SchwarzFunction.monomial(0.5, 2)
        f = schwarz_generate(CP, WP, w, 80)
        got = tau_transform(f, CP, WP, 0.3)
        want = (1 + 0.045) / (1 - 0.045)
        assert got == pytest.approx(want, abs=1e-8)

    def test_round_trip_on_grid_with_lam(self):
        w = SchwarzFunction([0.0, 0.3, 0.0, 0.1])
        cp = ClassParams(-0.6, 0.2, 1.1)
        f = schwarz_generate(cp, WP, w, 90)
        pts = polar_grid(GridSpec())
        got = tau_transform(f, cp, WP, pts)
        wz = w(pts)
        want = (1 + wz) / (1 - wz)
        assert float(np.max(np.abs(got - want))) < 1e-8

    def test_normalization_near_origin(self):
        rng = np.random.default_rng(5)
        for cp in list(class_grid())[::4]:
            coeffs = 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            f = LaurentSeries(1.0, coeffs)
            tau = tau_transform(f, cp, WP, 1e-4)
            assert abs(tau - 1.0) < 1e-3


class TestMembershipCheck:
    def test_bare_pole_is_member(self):
        report = membership_check(POLE, CP, WP)
        assert report.verdict == "member"
        assert report.min_re_tau == pytest.approx(1.0, abs=1e-12)

    def test_large_coefficient_rejected(self):
        report = membership_check(LaurentSeries(1.0, [100.0]), CP, WP)
        assert report.verdict == "not_member"
        assert report.min_re_tau < -1e-9

    def test_generated_function_is_member(self):
        w = SchwarzFunction([0.0, 0.35, 0.05])
        f = schwarz_generate(CP, WP, w, 90)
        report = membership_check(f, CP, WP)
        assert report.verdict == "member"

    def test_grid_spec_recorded(self):
        grid = GridSpec(radii=8, angles=32)
        report = membership_check(POLE, CP, WP, grid)
        assert report.grid_spec == grid

    def test_inconclusive_band(self):
        # a minimum inside (-tol, tol] is neither certified nor refuted
        w = SchwarzFunction([0.0, 0.35, 0.05])
        f = schwarz_generate(CP, WP, w, 60)
        baseline = membership_check(f, CP, WP)
        assert baseline.verdict == "member"
        wide = membership_check(f, CP, WP, tol=2 * baseline.min_re_tau)
        assert wide.verdict == "inconclusive"


class TestRatioTarget:
    def test_origin_value_forced(self):
        w = SchwarzFunction([0.4])
        for cp in class_grid():
            got = a_of_t(cp, w, 0.0)
            want = -1.0 / (1.0 - 2.0 * cp.lam)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_hand_value(self):
        # theta=0, lam=0, gamma=2, w(t)=t, t=0.5: 2 - 3*(1.5/0.5) = -7
        w = SchwarzFunction([NEAR_ONE])
        got = a_of_t(CP, w, 0.5)
        assert got == pytest.approx(-7.0, abs=1e-9)

    def test_degenerate_w_is_constant(self):
        w = SchwarzFunction([0.0])
        cp = ClassParams(0.3, 0.25, 2.0)
        for t in (0.0, 0.3, 0.5j):
            assert a_of_t(cp, w, t) == pytest.approx(-2.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ParameterError):
            a_of_t(CP, SchwarzFunction([0.1]), 1.0)

    def test_integrand_regularity(self):
        # [(1-lam) A / (1 - lam A) + 1] -> 0 as t -> 0
        for w in (SchwarzFunction([0.4]), SchwarzFunction([0.0, 0.3]),
                  SchwarzFunction.monomial(0.2, 3)):
            for cp in (CP, ClassParams(0.6, 0.2, 5.0), ClassParams(-1.2, 0.45, 1.1)):
                for k in range(8):
                    t = 1e-6 * cmath.exp(2j * math.pi * k / 8)
                    a = a_of_t(cp, w, t)
                    val = (1 - cp.lam) * a / (1 - cp.lam * a) + 1.0
                    assert abs(val) < 1e-4


class TestSchwarzGenerate:
    def test_zero_w_gives_bare_pole_exactly(self):
        f = schwarz_generate(CP, WP, SchwarzFunction([0.0]), 8)
        assert np.all(f.coeffs == 0)

    def test_small_c_vanishes_linearly(self):
        for c in (1e-2, 1e-4):
            f = schwarz_generate(CP, WP, SchwarzFunction([c]), 4)
            assert np.max(np.abs(f.coeffs)) <= 10.0 * c

    def test_extremal_first_coefficient(self):
        # w(z) ~ z attains the first bound: |a_1| = A_1 = 3
        f = schwarz_generate(CP, WP, SchwarzFunction([NEAR_ONE]), 6)
        assert abs(f.coeffs[0]) == pytest.approx(3.0, abs=1e-9)
        bound = bound_sequence_closed(CP, WP, 1).values[0]
        assert abs(f.coeffs[0]) == pytest.approx(bound, abs=1e-9)

    def test_first_coefficient_is_quadratic_in_c(self):
        # h_1 = g_2/2 makes a_1 = -Lambda * c^2 at theta=0, lam=0, gamma=2
        for c in (0.999, 0.5, 0.25):
            f = schwarz_generate(CP, WP, SchwarzFunction([c]), 2)
            assert f.coeffs[0] == pytest.approx(-3.0 * c * c, rel=1e-11)

    def test_bounds_hold_at_lam_zero(self):
        w = SchwarzFunction([0.0, 0.25, 0.15])
        for theta in (0.0, 0.6, -1.2):
            cp = ClassParams(theta, 0.0, 2.0)
            f = schwarz_generate(cp, WP, w, 15)
            seq = bound_sequence_closed(cp, WP, 15).values
            assert np.all(np.abs(f.coeffs) <= seq * (1 + 1e-9))

    def test_pole_propagates(self):
        from wrightlens import PoleError

        with pytest.raises(PoleError):
            schwarz_generate(CP, WrightParams(-0.5, 0.5), SchwarzFunction([0.1]), 3)


class TestConvolutionKernel:
    def test_hand_principal_and_tail(self):
        kernel = convolution_kernel(CP, WP, -1.0, 3)
        assert kernel.principal == pytest.approx(-6.0, abs=1e-12)
        assert kernel.coeffs[0] == pytest.approx(-2.0, abs=1e-12)

    def test_eta_validation(self):
        with pytest.raises(ParameterError):
            convolution_kernel(CP, WP, 1.0, 3)
        with pytest.raises(ParameterError):
            convolution_kernel(CP, WP, 0.5, 3)

    def test_tail_formula(self):
        cp = ClassParams(0.6, 0.2, 5.0)
        eta = cmath.exp(2j * math.pi / 3)
        kernel = convolution_kernel(cp, WP, eta, 5)
        ph = phi_values(WP, 5)
        one_m2 = 1 - 2 * cp.lam
        c_eta = (
            -cp.gamma * math.cos(cp.theta) * one_m2 * (1 - eta)
            + 1j * math.sin(cp.theta) * (1 - eta)
            + (1 + eta) * math.cos(cp.theta) * (1 + cp.gamma * one_m2)
        )
        for n in range(1, 6):
            want = one_m2 * (1 - eta) * n * ph[n - 1] + cmath.exp(
                -1j * cp.theta
            ) * c_eta * (1 - cp.lam + cp.lam * n) * ph[n - 1]
            assert kernel.coeffs[n - 1] == pytest.approx(want, rel=1e-12)


class TestConvolutionScan:
    def test_bare_pole_min_modulus(self):
        scan = convolution_scan(POLE, CP, WP, eta_count=8)
        eta_minus_one = [s for s in scan.per_eta if abs(s.eta + 1) < 1e-12]
        assert len(eta_minus_one) == 1
        assert eta_minus_one[0].min_modulus == pytest.approx(6.0 / 0.95, abs=1e-9)
        assert not scan.vanishes
        assert scan.min_modulus >= 6.0
        # with an empty tail the minimum is |principal| / r_max at every eta
        for s in scan.per_eta:
            principal = convolution_kernel(CP, WP, s.eta, 1).principal
            assert s.min_modulus == pytest.approx(abs(principal) / 0.95, rel=1e-12)

    def test_refinement_non_increasing(self):
        coarse = convolution_scan(POLE, CP, WP, eta_count=8)
        fine = convolution_scan(POLE, CP, WP, eta_count=64)
        assert fine.min_modulus <= coarse.min_modulus + 1e-15

    def test_near_zero_detected_for_violating_function(self):
        # place a true zero of f * K on a grid point: with kernel principal
        # -6 and tail weight -2 at eta=-1, f * K vanishes at z^2 = -3/c;
        # choosing c from a grid radius makes the hit (nearly) exact
        r = float(np.abs(polar_grid(GridSpec()))[64])  # second radius ring
        c = 3.0 / (r * r)
        f = LaurentSeries(1.0, [c])
        scan = convolution_scan(f, CP, WP, eta_count=8)
        assert scan.vanishes
        assert scan.min_modulus < 1e-9
        # cross-check: the same function fails membership outright
        assert membership_check(f, CP, WP).verdict == "not_member"

    def test_eta_count_floor(self):
        with pytest.raises(ParameterError):
            convolution_scan(POLE, CP, WP, eta_count=4)


class TestSufficiency:
    def test_bare_pole_lambda_zero(self):
        report = sufficiency_predicate(POLE, CP, WP)
        assert report.max_offset < 1e-12
        assert report.holds

    def test_bare_pole_lambda_quarter(self):
        cp = ClassParams(0.0, 0.25, 2.0)
        report = sufficiency_predicate(POLE, cp, WP)
        assert report.max_offset == pytest.approx(1.0, abs=1e-12)
        assert report.threshold == pytest.approx(3.0)
        assert report.holds

    def test_threshold_can_fail(self):
        # (1+gamma)cos(theta) < 1 while the offset stays 1
        cp = ClassParams(1.2, 0.25, 1.5)
        report = sufficiency_predicate(POLE, cp, WP)
        assert report.threshold < 1.0
        assert not report.holds


class TestGeneratorConsistencyGuard:
    def test_healthy_inputs_pass_guard(self):
        # g_0 = -1 is recomputed internally; valid parameters never trip it
        w = SchwarzFunction([0.0, 0.45])
        for cp, wp in list(full_grid())[::7]:
            f = schwarz_generate(cp, wp, w, 10)
            assert f.truncation == 10

    def test_consistency_error_type_exists(self):
        assert issubclass(ConsistencyError, ArithmeticError)


class TestZeroDenominatorGuard:
    """H = 1/z - 4z vanishes exactly at z = 0.5, a grid point when r_max = 0.5.

    phi_1 = 1 for each Wright pair below, so the operator image is exact.
    """

    GRID = GridSpec(r_max=0.5)

    @pytest.fixture(params=[(0.0, 1.0), (1.0, 1.0), (0.5, 1.5)])
    def case(self, request):
        wp = WrightParams(*request.param)
        return LaurentSeries(1.0, [-4.0 / phi_values(wp, 1)[0]]), wp

    def test_grid_holds_the_zero(self, case):
        f, wp = case
        assert 0.5 in polar_grid(self.GRID)
        assert apply_operator(wp, f).coeffs[0] == -4.0

    @pytest.mark.parametrize("scalar", [True, False])
    def test_tau_transform(self, case, scalar):
        f, wp = case
        z = 0.5 if scalar else polar_grid(self.GRID)
        with pytest.raises(SeriesDivisionError) as excinfo:
            tau_transform(f, CP, wp, z)
        assert excinfo.value.at == 0.5

    def test_sufficiency_predicate(self, case):
        f, wp = case
        with pytest.raises(SeriesDivisionError) as excinfo:
            sufficiency_predicate(f, CP, wp, self.GRID)
        assert excinfo.value.at == 0.5

    def test_membership_check_inconclusive(self, case):
        f, wp = case
        report = membership_check(f, CP, wp, self.GRID)
        assert report.verdict == "inconclusive"
        assert report.argmin_z == 0.5
        assert math.isnan(report.min_re_tau)
        assert "vanishes" in report.diagnostic

    def test_starlike_predicate(self, case):
        f, wp = case
        with pytest.raises(SeriesDivisionError) as excinfo:
            starlike_predicate(apply_operator(wp, f), 0.0, 0.5)
        assert excinfo.value.at == 0.5

    def test_convex_predicate(self):
        # h' = -1/z^2 + 4 vanishes at z = 0.5
        with pytest.raises(SeriesDivisionError) as excinfo:
            convex_predicate(LaurentSeries(1.0, [4.0]), 0.0, 0.5)
        assert excinfo.value.at == 0.5
