import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    coefficient_bound_check,
    convolution_kernel,
    convolution_scan,
    convex_predicate,
    evaluate,
    hadamard,
    lambda_mix,
    membership_check,
    phi_values,
    polar_grid,
    schwarz_generate,
    series_identity_oracle,
    starlike_predicate,
    sufficiency_predicate,
    tau_transform,
)

from wrightlens import laurent, membership

import oracles
from param_grids import WRIGHT_PAIRS, class_grid, full_grid

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

    @pytest.mark.parametrize("tol", [-10.0, -math.inf, math.inf, math.nan])
    def test_invalid_tol_rejected(self, tol):
        # min Re tau is about -5.40: a tol of -10 once made this a member
        f = LaurentSeries(1.0, [0.75])
        cp = ClassParams(0.0, 0.2, 2.0)
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            membership_check(f, cp, WP, tol=tol)
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            convolution_scan(f, cp, WP, tol=tol)

    @pytest.mark.parametrize(
        "cp,wp,grid",
        [
            (CP, WP, GridSpec()),
            (CP, WP, GridSpec(radii=32, angles=128)),
            (ClassParams(0.3, 0.1, 3.0), WP, GridSpec()),
            (ClassParams(0.6, 0.2, 2.0), WrightParams(1.0, 1.0), GridSpec(angles=96)),
        ],
    )
    def test_even_tau_reports_first_of_symmetric_pair(self, cp, wp, grid):
        # w = 0.4 z^2 makes tau and R even, so the values at z and -z (the
        # grid point A/2 angles on) tie; the first of the two is reported
        f = schwarz_generate(cp, wp, SchwarzFunction([0.0, 0.4]), 30)
        report = membership_check(f, cp, wp, grid)
        suff = sufficiency_predicate(f, cp, wp, grid)
        pts = polar_grid(grid)
        for z in (report.argmin_z, suff.argmax_z):
            k = int(np.flatnonzero(pts == z)[0]) % grid.angles
            assert k < grid.angles // 2
        partner = np.real(tau_transform(f, cp, wp, -report.argmin_z))
        assert partner == pytest.approx(report.min_re_tau, rel=1e-12)


class TestRatioTarget:
    def test_origin_value_forced(self):
        w = SchwarzFunction([0.4])
        for cp in class_grid():
            got = a_of_t(cp, w, 0.0)
            want = -1.0 / (1.0 - 2.0 * cp.lam)
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("gamma", [2.0, 1e16, 1e300])
    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.45])
    @pytest.mark.parametrize("theta", [0.0, -1.2])
    def test_origin_value_is_exact_for_any_gamma(self, theta, lam, gamma):
        # R1 is carried, not recovered from two gamma-sized numbers
        cp = ClassParams(theta, lam, gamma)
        r1, beta = membership._class_map(cp)
        assert r1 == -1.0 / (1.0 - 2.0 * lam)
        assert cmath.isfinite(beta)
        assert a_of_t(cp, SchwarzFunction([0.0, 0.5]), 0.0) == r1

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
    POLE_CP = ClassParams(0.0, 0.45, 5.0)

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

    @pytest.mark.xfail(
        strict=True,
        reason="the h recursion's rounding is multiplied by 1/phi_n = n!: "
        "|a_41| is about 5.8e10 and |a_57| about 3.2e29 where both are 0",
    )
    def test_high_orders_of_a_polynomial_member(self):
        # (0, 0, 2) with w = 0.1 z^2 gives z H = (1 - 0.1 z^2)^3 exactly, and
        # phi_n = 1/n! at (alpha, beta) = (0, 1): a_1, a_3, a_5 = -0.3, 0.18,
        # -0.12 and every other a_n is 0
        f = schwarz_generate(CP, WP, SchwarzFunction([0.0, 0.1]), 57)
        want = np.zeros(57)
        want[[0, 2, 4]] = [-0.3, 0.18, -0.12]
        exact = oracles.monomial_member_h(0.0, 2.0, 0.1, 2, 57)
        factorials = np.array([math.factorial(n) for n in range(1, 58)], dtype=float)
        np.testing.assert_allclose(factorials * exact, want, rtol=1e-15, atol=0.0)
        assert np.max(np.abs(f.coeffs - want)) <= 1e-9 * 0.3

    def test_divisions_take_short_denominators(self, monkeypatch):
        # G = P(w)/Q(w) with P and Q of len(w.coeffs) + 1 terms: no division
        # may see the full-length 1 - lam A series
        w = SchwarzFunction([0.0, 0.2 + 0.1j, -0.05j])
        divide, lengths = membership._series_divide, []
        monkeypatch.setattr(
            membership,
            "_series_divide",
            lambda num, den: lengths.append(len(den)) or divide(num, den),
        )
        for lam in (0.0, 0.2):
            lengths.clear()
            schwarz_generate(ClassParams(0.6, lam, 2.0), WP, w, 40)
            assert lengths and max(lengths) <= len(w.coeffs) + 1, (lam, lengths)

    def test_zero_of_q_inside_the_disk_raises(self):
        # Q(w) = 5.5 + 8 w vanishes at w* = -0.6875, which w = -0.9 z^2 takes
        # at z = +-0.874; G, and with it the series, has a pole there
        w = SchwarzFunction([0.0, -0.9])
        with pytest.raises(SeriesDivisionError) as excinfo:
            schwarz_generate(self.POLE_CP, WP, w, 40)
        at = excinfo.value.at
        assert abs(at - 0.8740073734751259) <= 1e-12
        assert abs(1.0 - self.POLE_CP.lam * a_of_t(self.POLE_CP, w, at)) <= 1e-12

    @pytest.mark.parametrize(
        "coeffs, raises",
        [
            ([0.0, -0.6874], False),  # sum |c_k| < |w*|: w never reaches w*
            ([0.0, 0.6876j], True),  # w = w* at |z| = 0.99993
            ([0.0, 0.5, -0.3], False),  # sum |c_k| > |w*|, roots at |z| = 1.03
            ([0.0, 0.0, 0.0, 0.7], True),  # w = w* at |z| = 0.9955
        ],
    )
    def test_zero_of_q_is_located_exactly(self, coeffs, raises):
        w = SchwarzFunction(coeffs)
        if raises:
            with pytest.raises(SeriesDivisionError):
                schwarz_generate(self.POLE_CP, WP, w, 40)
        else:
            assert schwarz_generate(self.POLE_CP, WP, w, 40).truncation == 40

    @pytest.mark.parametrize("cp", [cp for cp in class_grid() if cp.lam == 0.0])
    def test_lam_zero_never_raises(self, cp):
        # at lam = 0, Q = 1 - w, and |w| < 1 on the disk
        for w in (
            SchwarzFunction([NEAR_ONE]),
            SchwarzFunction([0.0, -NEAR_ONE]),
            SchwarzFunction([0.0, 0.5j, -0.4999]),
            SchwarzFunction.monomial(1j * NEAR_ONE, 5),
        ):
            assert schwarz_generate(cp, WP, w, 30).truncation == 30

    @pytest.mark.parametrize(
        "theta,gamma", [(0.6, 3.16e6), (-1.2, 1e7), (1.2, 1e14), (0.0, 1e16)]
    )
    def test_large_gamma_members(self, theta, gamma):
        # these once failed the g_0 = -1 check: R1 came out of gamma-sized terms
        cp, w = ClassParams(theta, 0.0, gamma), SchwarzFunction([0.0, 0.5])
        f = schwarz_generate(cp, WP, w, 8)
        assert coefficient_bound_check(f, cp, WP).all_satisfied
        res = series_identity_oracle(f, caratheodory_series(w, 9), cp, WP)
        h = phi_values(WP, 8) * f.coeffs
        assert res.max_abs() <= 1e-13 * np.max(np.abs(h))

    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_gamma_past_the_double_range_raises_overflow(self, lam):
        cp = ClassParams(0.0, lam, 1e308)
        with pytest.raises(OverflowError, match=r"2 beta - R1 = \(-inf"):
            schwarz_generate(cp, WP, SchwarzFunction([0.0, 0.5]), 5)

    def test_pole_propagates(self):
        from wrightlens import PoleError

        with pytest.raises(PoleError):
            schwarz_generate(CP, WrightParams(-0.5, 0.5), SchwarzFunction([0.1]), 3)

    @pytest.mark.parametrize("pair", WRIGHT_PAIRS)
    def test_past_cap_errors(self, pair):
        cp, wp = ClassParams(0.6, 0.2, 2.0), WrightParams(*pair)
        cap = ORDER_CAP[pair]
        for n in (cap, cap + 1, 200):
            with pytest.raises(OverflowError) as excinfo:
                schwarz_generate(cp, wp, GRID_SCHWARZ, n)
            assert str(excinfo.value) == f"a_{cap} exceeds the floating-point range"


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

    @pytest.mark.parametrize("theta", [0.0, 0.6])
    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.45])
    def test_product_reads_tau(self, lam, theta):
        # f * K(eta) = e^{-i theta} c_plus mix(H) [(1+eta) - (1-eta) tau]
        cp, wp = ClassParams(theta, lam, 2.0), WrightParams(0.5, 1.5)
        f = schwarz_generate(cp, wp, SchwarzFunction([0.0, 0.2, 0.1]), 20)
        pts = polar_grid(GridSpec(radii=8, angles=32))
        mix = evaluate(lambda_mix(apply_operator(wp, f), lam), pts)
        tau = tau_transform(f, cp, wp, pts)
        c_plus = math.cos(theta) * (1 + cp.gamma * (1 - 2 * lam))
        for eta in (-1.0, 1j, cmath.exp(2.5j)):
            kernel = convolution_kernel(cp, wp, eta, f.truncation)
            got = evaluate(hadamard(f, kernel), pts)
            want = cmath.exp(-1j * theta) * c_plus * mix * ((1 + eta) - (1 - eta) * tau)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))

    def test_product_vanishes_where_tau_crosses_the_imaginary_axis(self):
        # bisect Re tau along the ray through a negative grid minimum: at the
        # crossing z0, eta0 = (tau0 - 1)/(tau0 + 1) lies on the unit circle
        cp, wp = ClassParams(0.6, 0.45, 2.0), WrightParams(0.5, 1.5)
        member = schwarz_generate(cp, wp, SchwarzFunction([0.0, 0.2, 0.1]), 20)
        coeffs = member.coeffs.copy()
        coeffs[1] = 1.5 * bound_sequence_closed(cp, wp, 2).values[1]
        f = LaurentSeries(1.0, coeffs)
        report = membership_check(f, cp, wp)
        assert report.verdict == "not_member"
        ray = report.argmin_z / abs(report.argmin_z)
        lo, hi = 0.05, abs(report.argmin_z)
        assert tau_transform(f, cp, wp, lo * ray).real > 0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if tau_transform(f, cp, wp, mid * ray).real > 0:
                lo = mid
            else:
                hi = mid
        z0 = lo * ray
        tau0 = tau_transform(f, cp, wp, z0)
        eta0 = (tau0 - 1) / (tau0 + 1)
        assert abs(abs(eta0) - 1) <= 1e-12
        kernel = convolution_kernel(cp, wp, eta0 / abs(eta0), f.truncation)
        assert abs(evaluate(hadamard(f, kernel), z0)) <= 1e-12


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


class TestConvolutionScanBruteForce:
    """The scan against one kernel, Hadamard product and evaluation per eta."""

    CP = ClassParams(0.6, 0.2, 5.0)
    GRID = GridSpec(radii=8, angles=32)

    def _function(self, name):
        if name == "pole":
            return POLE
        member = schwarz_generate(self.CP, WP, SchwarzFunction([0.0, 0.2, 0.1]), 20)
        if name == "member":
            return member
        coeffs = member.coeffs.copy()
        coeffs[1] = 2.0 * bound_sequence_closed(self.CP, WP, 2).values[1] * 1j
        return LaurentSeries(1.0, coeffs)

    @pytest.mark.parametrize("name", ["member", "violator", "pole"])
    @pytest.mark.parametrize("eta_count", [8, 9, 64])
    def test_matches_per_eta_evaluation(self, name, eta_count):
        f = self._function(name)
        n = max(f.truncation, 1)
        pts = polar_grid(self.GRID)
        scan = convolution_scan(f, self.CP, WP, eta_count=eta_count, grid=self.GRID)

        etas = [cmath.exp(2j * math.pi * j / eta_count) for j in range(1, eta_count)]
        assert [s.eta for s in scan.per_eta] == etas
        assert 1.0 not in etas

        # f * K(eta) = x + eta y: x and y from the kernels at eta = -1 and i
        minus_one, at_i = (
            evaluate(hadamard(f, convolution_kernel(self.CP, WP, eta, n)), pts)
            for eta in (-1.0, 1j)
        )
        y = (at_i - minus_one) / (1 + 1j)
        x = minus_one + y
        tol = 1e-12 * float(np.max(np.abs(x) + np.abs(y)))
        for s in scan.per_eta:
            kernel = convolution_kernel(self.CP, WP, s.eta, n)
            mods = np.abs(evaluate(hadamard(f, kernel), pts))
            assert abs(s.min_modulus - float(mods.min())) <= tol
            # ties between grid points may resolve either way
            at = int(np.flatnonzero(pts == s.argmin_z)[0])
            assert abs(float(mods[at]) - s.min_modulus) <= tol
        assert scan.min_modulus == min(s.min_modulus for s in scan.per_eta)

    def test_phi_values_calls_do_not_grow_with_eta_count(self, monkeypatch):
        # the scan reaches phi through laurent.apply_operator
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return phi_values(*args, **kwargs)

        for module in (laurent, membership):
            monkeypatch.setattr(module, "phi_values", counted)
        f = self._function("member")
        counts = []
        for eta_count in (8, 128):
            calls.clear()
            convolution_scan(f, self.CP, WP, eta_count=eta_count, grid=self.GRID)
            counts.append(len(calls))
        assert 1 <= counts[0] == counts[1] <= 2


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

    def test_membership_check(self, case):
        f, wp = case
        with pytest.raises(SeriesDivisionError) as excinfo:
            membership_check(f, CP, wp, self.GRID)
        assert excinfo.value.at == 0.5

    def test_membership_check_rejects_invalid_tol(self, case):
        f, wp = case
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            membership_check(f, CP, wp, self.GRID, tol=-1.0)

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


GRID_CHECKS = {
    "membership_check": lambda f: membership_check(f, CP, WP),
    "sufficiency_predicate": lambda f: sufficiency_predicate(f, CP, WP),
    "convolution_scan": lambda f: convolution_scan(f, CP, WP),
    "starlike_predicate": lambda f: starlike_predicate(f, 0.0, 0.95),
    "convex_predicate": lambda f: convex_predicate(f, 0.0, 0.95),
}


class TestGridValuesPastTheDoubleRange:
    """A coefficient near the top of the double range: each grid check either
    keeps a finite report or raises OverflowError naming itself, and no numpy
    RuntimeWarning escapes.  phi_1 = 1 at (0, 1), so H = f."""

    @pytest.mark.parametrize("name", GRID_CHECKS)
    def test_complex_coefficient_overflows_every_check(self, name):
        # the inverse FFT of a ring overflows before any division
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=f"^{name}: a grid value exceeds"):
                GRID_CHECKS[name](LaurentSeries(1.0, [1e308 + 1e308j]))

    def test_real_coefficient_overflows_only_the_scan(self):
        # R and tau stay finite; X + eta Y of the scan does not
        f = LaurentSeries(1.0, [1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^convolution_scan: "):
                convolution_scan(f, CP, WP)
            report = membership_check(f, CP, WP)
            suff = sufficiency_predicate(f, CP, WP)
        assert report.verdict == "member"
        assert math.isfinite(report.min_re_tau)
        assert math.isfinite(suff.max_offset) and suff.holds


@pytest.mark.parametrize(
    "check",
    [
        lambda f, grid: membership_check(f, CP, WP, grid),
        lambda f, grid: sufficiency_predicate(f, CP, WP, grid),
        lambda f, grid: convolution_scan(f, CP, WP, eta_count=8, grid=grid),
    ],
    ids=["membership_check", "sufficiency_predicate", "convolution_scan"],
)
def test_each_grid_check_evaluates_the_grid_once(monkeypatch, check):
    calls = []
    evaluate_grid = laurent._grid_values

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate_grid(*args, **kwargs)

    for module in (laurent, membership):
        monkeypatch.setattr(module, "_grid_values", counted)
    f = schwarz_generate(CP, WP, SchwarzFunction([0.0, 0.3]), 20)
    check(f, GridSpec(radii=8, angles=32))
    assert len(calls) == 1


def test_grid_consumers_do_not_call_evaluate(monkeypatch):
    import wrightlens

    def refuse(*args, **kwargs):
        raise AssertionError("grid consumers evaluate ring by ring")

    for module in (wrightlens.laurent, wrightlens.membership, wrightlens.radii):
        monkeypatch.setattr(module, "evaluate", refuse, raising=False)
    f = schwarz_generate(CP, WP, SchwarzFunction([0.0, 0.3]), 20)
    grid = GridSpec(radii=8, angles=32)
    assert membership_check(f, CP, WP, grid).verdict == "member"
    sufficiency_predicate(f, CP, WP, grid)
    assert not convolution_scan(f, CP, WP, eta_count=8, grid=grid).vanishes
    h = apply_operator(WP, f)
    starlike_predicate(h, 0.0, 0.3, grid)
    convex_predicate(h, 0.0, 0.3, grid)


# First order whose a_n leaves the double range, the same for every class tuple.
ORDER_CAP = {(0.0, 1.0): 171, (1.0, 1.0): 99, (0.5, 1.5): 129}
GRID_SCHWARZ = SchwarzFunction([0.0, 0.2 + 0.1j, -0.05j])

@st.composite
def division_inputs(draw):
    n = draw(st.integers(1, 200))
    m = draw(st.one_of(st.just(n), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def complexes(size, low, high):
        return rng.uniform(low, high, size) * np.exp(2j * np.pi * rng.random(size))

    # moduli of num spread over nine decades up to 1e3; |den_k| <= 1 beside
    # |den_0| >= 0.5 keeps every root of den at |z| >= 1/3, so 200 quotient
    # terms stay far inside the double range
    num = 10.0 ** rng.uniform(-6.0, 3.0, n) * complexes(n, 1.0, 1.0)
    return num, np.concatenate((complexes(1, 0.5, 4.0), complexes(m - 1, 0.0, 1.0)))


class TestSeriesDivide:
    @settings(max_examples=40, deadline=None)
    @given(division_inputs())
    def test_backward_error(self, inputs):
        # backward error: out * den reproduces num row by row to a few
        # rounding errors of the row's terms; the residual is formed in
        # extended precision so that its own rounding stays far below that
        num, den = inputs
        out = membership._series_divide(num, den)
        n = len(num)
        wide = np.convolve(out.astype(np.clongdouble), den.astype(np.clongdouble))
        residual = np.abs(wide[:n] - num)
        scale = np.abs(num) + np.convolve(np.abs(out), np.abs(den))[:n]
        assert np.all(residual <= 4 * (len(den) + 1) * np.finfo(float).eps * scale)


class TestCaratheodorySeries:
    """The series tau = (1 + w)/(1 - w) of a Schwarz function w."""

    @pytest.mark.parametrize("n_max", [0, 1, 7, 60, 200])
    @pytest.mark.parametrize(
        "coeffs", [[0.3 - 0.2j], [0.0, 0.25, 0.15], [0.1j, -0.2, 0.05 + 0.3j]]
    )
    def test_caratheodory_series(self, coeffs, n_max):
        got = caratheodory_series(SchwarzFunction(coeffs), n_max).coeffs
        want = oracles.caratheodory_tau(coeffs, n_max)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("c, power", [(0.3, 2), (-0.4 + 0.2j, 3), (0.9j, 1)])
    def test_caratheodory_oracle_matches_closed_form(self, c, power):
        # w = c z^k gives tau = 1 + 2 sum_{j>=1} c^j z^{jk}
        got = oracles.caratheodory_tau([0.0] * (power - 1) + [c], 30)
        want = np.zeros(31, dtype=complex)
        want[0] = 1.0
        for j in range(1, 30 // power + 1):
            want[j * power] = 2 * c**j
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.fixture(scope="class")
def grid_reference():
    """40-digit h_1 .. h_{cap-1} for GRID_SCHWARZ at every class tuple; h does
    not depend on the Wright pair, which only sets the cap."""
    n = max(ORDER_CAP.values()) - 1
    return {
        cp: oracles.generator_h(cp.theta, cp.lam, cp.gamma, GRID_SCHWARZ.coeffs, n)
        for cp in class_grid()
    }


class TestGeneratorOracle:
    @pytest.mark.parametrize("order", ["1", "2", "40", "cap-1"])
    def test_schwarz_generate_over_grid(self, order, grid_reference):
        # compared in the h domain: where the true h_n is 0, a_n = h_n/phi_n
        # is rounding noise times 1/phi_n (the strict xfail above)
        for cp, wp in full_grid():
            n = ORDER_CAP[wp.alpha, wp.beta] - 1 if order == "cap-1" else int(order)
            got = schwarz_generate(cp, wp, GRID_SCHWARZ, n).coeffs * phi_values(wp, n)
            ref = grid_reference[cp][:n]
            scale = np.maximum.accumulate(np.abs(ref))
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), (cp, wp, n)

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    @pytest.mark.parametrize("c, power", [(0.3, 2), (-0.4 + 0.2j, 3)])
    def test_oracle_matches_exact_members(self, theta, c, power):
        # at lam = 0, w = c z^k generates z H = (1 - c z^k)^nu exactly
        coeffs = [0.0] * (power - 1) + [c]
        got = oracles.generator_h(theta, 0.0, 2.0, coeffs, 30)
        want = oracles.monomial_member_h(theta, 2.0, c, power, 30)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
