import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrightlens import (
    CoefficientFileError,
    EvalDomainError,
    GridSpec,
    LaurentSeries,
    ParameterError,
    SeriesDivisionError,
    TaylorSeries,
    WrightParams,
    apply_operator,
    evaluate,
    hadamard,
    lambda_mix,
    polar_grid,
    read_coefficient_csv,
    wright_kernel,
    write_coefficient_csv,
    z_derivative,
)
from wrightlens import laurent

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestLaurentSeries:
    def test_truncation_zero_allowed(self):
        pole = LaurentSeries(1.0)
        assert pole.truncation == 0
        assert pole.coefficient(3) == 0j

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            LaurentSeries(1.0, [math.nan])
        with pytest.raises(ParameterError):
            LaurentSeries(math.inf, [1.0])

    def test_coeffs_read_only(self):
        f = LaurentSeries(1.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_coefficient_accessor(self):
        f = LaurentSeries(2.0, [1.0, 3.0 + 1j])
        assert f.coefficient(2) == 3.0 + 1j
        with pytest.raises(ParameterError):
            f.coefficient(0)

    def test_taylor_needs_constant_term(self):
        with pytest.raises(ParameterError):
            TaylorSeries([])
        assert TaylorSeries([1.0]).coeffs[0] == 1.0


class TestHadamard:
    def test_componentwise(self):
        f = LaurentSeries(1.0, [1.0])
        g = LaurentSeries(1.0, [2.0])
        out = hadamard(f, g)
        assert out.principal == 1.0
        assert out.coeffs.tolist() == [2.0]

    def test_with_bare_pole(self):
        g = LaurentSeries(3.0, [1.0, 2.0])
        out = hadamard(LaurentSeries(1.0), g)
        assert out.principal == 3.0
        assert out.truncation == 0

    def test_all_ones_is_identity(self):
        g = LaurentSeries(1.0, [2.0 + 1j, -0.5, 3.0])
        ones = LaurentSeries(1.0, [1.0, 1.0, 1.0])
        out = hadamard(ones, g)
        assert np.array_equal(out.coeffs, g.coeffs)
        assert out.principal == g.principal

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists, coeff_lists)
    def test_commutative(self, a, b):
        n = min(len(a), len(b))
        f, g = LaurentSeries(1.0, a), LaurentSeries(1.0, b)
        assert np.array_equal(hadamard(f, g).coeffs, hadamard(g, f).coeffs[:n])

    # dyadic-exact coefficients: bitwise associativity cannot hold for
    # arbitrary floats (intermediate rounding differs), but every product
    # below is exactly representable
    dyadic = st.integers(min_value=-8, max_value=8).map(lambda k: k / 2.0)
    dyadic_lists = st.lists(
        st.tuples(dyadic, dyadic).map(lambda t: complex(*t)), min_size=1, max_size=6
    )

    @settings(max_examples=60, deadline=None)
    @given(dyadic_lists, dyadic_lists, dyadic_lists)
    def test_associative_on_equal_truncations(self, a, b, c):
        n = min(len(a), len(b), len(c))
        f = LaurentSeries(1.0, a[:n])
        g = LaurentSeries(1.0, b[:n])
        h = LaurentSeries(1.0, c[:n])
        left = hadamard(hadamard(f, g), h)
        right = hadamard(f, hadamard(g, h))
        assert np.array_equal(left.coeffs, right.coeffs)


class TestOperator:
    def test_bare_pole_passthrough(self):
        out = apply_operator(WrightParams(0.0, 1.0), LaurentSeries(1.0))
        assert out.principal == 1.0
        assert out.truncation == 0

    def test_factorial_weights(self):
        f = LaurentSeries(1.0, [1.0, 1.0])
        out = apply_operator(WrightParams(0.0, 1.0), f)
        assert out.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert out.coeffs[1] == pytest.approx(0.5, rel=1e-12)

    def test_squared_factorial_weights(self):
        f = LaurentSeries(1.0, [0.0, 1.0])
        out = apply_operator(WrightParams(1.0, 1.0), f)
        assert out.coeffs[1] == pytest.approx(0.25, rel=1e-12)

    def test_equals_kernel_hadamard(self):
        rng = np.random.default_rng(7)
        for alpha, beta in ((0.0, 1.0), (1.0, 1.0), (0.5, 1.5)):
            wp = WrightParams(alpha, beta)
            coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            f = LaurentSeries(1.0, coeffs)
            direct = apply_operator(wp, f)
            via_kernel = hadamard(wright_kernel(wp, 9), f)
            assert np.array_equal(direct.coeffs, via_kernel.coeffs)
            assert direct.principal == via_kernel.principal


class TestZDerivative:
    def test_hand_values(self):
        assert z_derivative(LaurentSeries(1.0)).principal == -1.0
        out = z_derivative(LaurentSeries(1.0, [1.0]))
        assert out.principal == -1.0 and out.coeffs[0] == 1.0
        out = z_derivative(LaurentSeries(1.0, [0.0, 3.0]))
        assert out.coeffs[1] == 6.0

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(10):
            coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f = LaurentSeries(1.0, coeffs)
            z = 0.3 + 0.25j
            numeric = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h) * z
            exact = evaluate(z_derivative(f), z)
            assert abs(numeric - exact) < 1e-6


class TestLambdaMix:
    def test_lambda_zero_is_identity(self):
        f = LaurentSeries(1.0, [2.0, 3.0])
        out = lambda_mix(f, 0.0)
        assert out.principal == f.principal
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_principal_scaling(self):
        assert lambda_mix(LaurentSeries(1.0), 0.25).principal == 0.5

    def test_tail_weights(self):
        out = lambda_mix(LaurentSeries(1.0, [0.0, 1.0]), 0.25)
        assert out.coeffs[1] == pytest.approx(1.25, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
    def test_principal_is_one_minus_two_lambda(self, lam):
        assert lambda_mix(LaurentSeries(1.0), lam).principal == 1.0 - 2.0 * lam

    def test_domain(self):
        with pytest.raises(ParameterError):
            lambda_mix(LaurentSeries(1.0), 0.5)
        with pytest.raises(ParameterError):
            lambda_mix(LaurentSeries(1.0), -0.1)


class TestEvaluate:
    def test_hand_values(self):
        assert evaluate(LaurentSeries(1.0), 0.5) == pytest.approx(2.0)
        assert evaluate(LaurentSeries(1.0, [1.0]), 0.5) == pytest.approx(2.5)
        got = evaluate(LaurentSeries(1.0, [1.0, 1.0]), 0.5j)
        assert got == pytest.approx(-0.25 - 1.5j)

    def test_domain_errors(self):
        f = LaurentSeries(1.0, [1.0])
        for z in (0.0, 1.0, 1.2, -1.0):
            with pytest.raises(EvalDomainError):
                evaluate(f, z)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = LaurentSeries(1.0, coeffs)
        pts = 0.1 + 0.7 * rng.random(20) * np.exp(2j * np.pi * rng.random(20))
        pts = pts / np.maximum(1.0, np.abs(pts) / 0.9)
        batch = evaluate(f, pts)
        for z, got in zip(pts, batch):
            assert got == pytest.approx(evaluate(f, complex(z)))

    def test_array_domain_error_reports_point(self):
        f = LaurentSeries(1.0, [1.0])
        with pytest.raises(EvalDomainError):
            evaluate(f, np.array([0.5, 1.5]))


class TestGrid:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(radii=4)
        with pytest.raises(ParameterError):
            GridSpec(angles=16)
        with pytest.raises(ParameterError):
            GridSpec(r_max=0.99)

    def test_polar_grid_shape_and_range(self):
        spec = GridSpec()
        pts = polar_grid(spec)
        assert pts.shape == (16 * 64,)
        mags = np.abs(pts)
        assert mags.min() == pytest.approx(0.05, rel=1e-12)
        assert mags.max() == pytest.approx(0.95, rel=1e-12)

    def test_polar_grid_rescale(self):
        pts = polar_grid(GridSpec(), r_max=0.5)
        assert np.abs(pts).max() == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("r_max", [None, 0.5, np.float64(0.37)])
    def test_radii_memo_is_geomspace_read_only(self, r_max):
        spec = GridSpec(radii=12, angles=32, r_min=0.1, r_max=0.9)
        hi = spec.r_max if r_max is None else r_max
        radii = laurent._grid_radii(spec, r_max)
        assert np.array_equal(radii, np.geomspace(spec.r_min * (hi / spec.r_max), hi, 12))
        assert laurent._grid_radii(GridSpec(12, 32, 0.1, 0.9), r_max) is radii
        with pytest.raises(ValueError):
            radii[0] = 0.0


def grid_reference(f, spec, r_max=None):
    """f at r * e^{2 pi i k/A} with exact roots of unity, by 30-digit Horner,
    and the scale |principal|/r + sum |a_n| r^n of each value."""
    values, scales = [], []
    coeffs = [mpmath.mpc(c) for c in f.coeffs[::-1]]
    with mpmath.workdps(30):
        for r in laurent._grid_radii(spec, r_max):
            r = mpmath.mpf(r)
            scale = abs(f.principal) / r + sum(
                abs(c) * r**n for n, c in enumerate(f.coeffs.tolist(), 1)
            )
            for k in range(spec.angles):
                z = r * mpmath.expjpi(mpmath.mpf(2 * k) / spec.angles)
                tail = mpmath.mpc(0)
                for c in coeffs:
                    tail = (tail + c) * z
                values.append(complex(f.principal / z + tail))
                scales.append(float(scale))
    return np.array(values), np.array(scales)


class TestGridValues:
    """The per-ring FFT route against mpmath at the exact roots of unity.

    polar_grid's points are those roots rounded, and an ulp in z moves a
    long series by more than the route's own error, so the reference is
    not evaluate() at polar_grid's points.
    """

    @pytest.mark.parametrize(
        "principal,n,angles,r_max",
        [
            (1.0, 20, 32, None),  # N < A
            (1.0, 300, 64, None),  # N >= A: terms fold modulo A
            (1.0, 0, 32, None),  # the bare pole
            (-0.7 + 2j, 10, 32, None),
            (1.0, 40, 48, 0.5),
        ],
        ids=["short", "folded", "bare-pole", "principal", "r-max"],
    )
    def test_matches_mpmath_at_exact_roots(self, principal, n, angles, r_max):
        rng = np.random.default_rng(n + angles)
        f = LaurentSeries(principal, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        spec = GridSpec(radii=8, angles=angles)
        pts, (got,) = laurent._grid_values([f], spec, r_max)
        assert np.array_equal(pts, polar_grid(spec, r_max))
        want, scale = grid_reference(f, spec, r_max)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_series_of_different_lengths_together(self):
        rng = np.random.default_rng(9)
        spec = GridSpec(radii=8, angles=32)
        series = [LaurentSeries(0.5j, rng.standard_normal(n)) for n in (3, 70, 0)]
        _, together = laurent._grid_values(series, spec)
        for f, values in zip(series, together):
            assert np.array_equal(values, laurent._grid_values([f], spec)[1][0])

    def test_ratio_zero_guard_reports_grid_point(self):
        # 1/z - 4z vanishes at z = 0.5, the last radius of the rescaled grid
        spec = GridSpec()
        with pytest.raises(SeriesDivisionError) as excinfo:
            laurent._grid_ratio(LaurentSeries(1.0), LaurentSeries(1.0, [-4.0]), spec, 0.5)
        assert excinfo.value.at == 0.5
        assert excinfo.value.at in polar_grid(spec, 0.5)


class TestFirstTied:
    def test_nonnegative_values_keep_the_relative_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            values = rng.choice([0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, 2.0], size=12)
            low = float(values.min())
            want = int(np.argmax(values <= low * (1.0 + laurent._TIE_RTOL)))
            assert laurent._first_tied(values, low) == want

    def test_negative_minimum_and_maximum(self):
        values = np.array([-1.0 + 1e-11, -1.0 + 1e-13, -1.0, -1.0 + 1e-13])
        assert laurent._first_tied(values, -1.0) == 1
        # a maximum: pass both negated
        values = np.array([-2.0, -1.0 - 1e-13, -1.0, -3.0])
        assert laurent._first_tied(-values, 1.0) == 1
        mods = np.array([3.0, 5.0 - 1e-13, 5.0])
        assert laurent._first_tied(-mods, -5.0) == 1


class TestCoefficientCsv:
    def test_round_trip(self, tmp_path):
        f = LaurentSeries(1.0, [1.5 - 2j, 0.0, 3.25])
        path = tmp_path / "coeffs.csv"
        with open(path, "w") as handle:
            write_coefficient_csv(handle, f, "demo")
        back = read_coefficient_csv(path)
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_empty_file_is_bare_pole(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,re,im\n")
        f = read_coefficient_csv(path)
        assert f.truncation == 0 and f.principal == 1.0

    def test_sparse_indices_pad_with_zeros(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("n,re,im\n3,1.0,0.0\n")
        f = read_coefficient_csv(path)
        assert f.truncation == 3
        assert f.coeffs.tolist() == [0j, 0j, 1.0 + 0j]

    @pytest.mark.parametrize(
        "content,line",
        [
            ("x,y\n1,2\n", 1),
            ("n,re,im\nfoo,1.0,0.0\n", 2),
            ("n,re,im\n0,1.0,0.0\n", 2),
            ("n,re,im\n1,1.0,0.0\n1,2.0,0.0\n", 3),
            ("n,re,im\n1,1.0\n", 2),
        ],
    )
    def test_malformed_reports_line(self, tmp_path, content, line):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(CoefficientFileError) as excinfo:
            read_coefficient_csv(path)
        assert excinfo.value.line == line

    def test_missing_file(self, tmp_path):
        with pytest.raises(CoefficientFileError):
            read_coefficient_csv(tmp_path / "nope.csv")
