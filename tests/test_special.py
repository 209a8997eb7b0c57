import cmath
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrightlens import (
    ConvergenceError,
    ParameterError,
    PoleError,
    WrightParams,
    phi_values,
    wright_eval,
)
from wrightlens.special import _coefficient_table, _log_inverse_phi, _signed_lgamma

from param_grids import WRIGHT_PAIRS

# alpha*n + beta = 0 at n = 100: a pole inside the 128-entry table
POLE_AT_100 = WrightParams(-0.01, 1.0)


def kahan_series_oracle(alpha, beta, z, terms=200):
    """Direct compensated summation with stdlib lgamma; independent path."""
    total = 0.0 + 0j
    comp = 0.0 + 0j
    for n in range(1, terms + 1):
        term = (z ** n) * math.exp(-(math.lgamma(alpha * n + beta) + math.lgamma(n + 1)))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def route(x):
    """(sign, log|Gamma(x)|) of one argument from the package's log-gamma route."""
    sign, log_abs = _signed_lgamma(np.array([float(x)]))
    return float(sign[0]), float(log_abs[0])


def route_gamma(x):
    """Gamma(x) as sign * exp(log|Gamma(x)|) from the route."""
    sign, log_abs = route(x)
    return sign * math.exp(log_abs)


class TestGamma:
    """The one log-gamma route behind every phi_n, against independent gammas."""

    def test_known_values(self):
        assert route_gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert route_gamma(5.0) == pytest.approx(24.0, rel=1e-12)
        assert route_gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-12)

    def test_matches_stdlib_on_contract_range(self):
        # independent oracle: math.gamma, here over the route's vector form
        xs = np.linspace(0.1, 50.0, 997)
        sign, log_abs = _signed_lgamma(xs)
        got = sign * np.exp(log_abs)
        assert got == pytest.approx([math.gamma(x) for x in xs.tolist()], rel=1e-12)

    def test_reflection_region(self):
        for x in (-0.5, -1.5, -2.3, -7.7, -19.25, -0.1, 0.3, 0.49):
            assert route_gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -3.0 + 1e-13, 2e-13 - 2.0])
    def test_pole_errors(self, x):
        # a pole gets sign 0, so its phi_n is 0; the readers raise PoleError
        assert route(x) == (0.0, math.inf)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.1, max_value=40.0))
    def test_recurrence_identity(self, x):
        assert route_gamma(x + 1.0) == pytest.approx(x * route_gamma(x), rel=1e-12)

    def test_signed_lgamma_matches_mpmath(self):
        # independent oracle: 40-digit mpmath, since the route is math.lgamma
        with mpmath.workdps(40):
            for x in np.geomspace(0.1, 120.0, 500):
                sign, log_abs = route(x)
                assert sign == 1.0
                want = float(mpmath.loggamma(float(x)))
                assert log_abs == pytest.approx(want, abs=1e-11, rel=1e-13)

    def test_signed_lgamma_negative_sign(self):
        # Gamma alternates sign between consecutive negative integers
        assert route(-0.5)[0] == -1.0
        assert route(-1.5)[0] == 1.0
        assert route(-2.5)[0] == -1.0

    def test_large_argument_overflow(self):
        # Gamma(172) is past the double range, its logarithm is not
        log_abs = route(172.0)[1]
        assert log_abs == pytest.approx(math.lgamma(172.0), rel=1e-15)
        assert log_abs > math.log(sys.float_info.max)

    @pytest.mark.parametrize("x", [1e306, 1e308])
    def test_overflow_past_the_log_range(self, x):
        # log|Gamma(x)| itself leaves the double range here, so phi_n is 0
        assert route(x) == (1.0, math.inf)

    @pytest.mark.parametrize("x", [-170.5, -171.7, -200.5, -1000.5])
    def test_far_negative_arguments_underflow(self, x):
        # Gamma(x) here is tiny, subnormal or a signed zero: never an overflow
        got, want = route_gamma(x), math.gamma(x)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestWrightParams:
    def test_domain(self):
        with pytest.raises(ParameterError):
            WrightParams(-1.0, 1.0)
        with pytest.raises(ParameterError):
            WrightParams(0.0, 0.0)
        with pytest.raises(ParameterError):
            WrightParams(math.nan, 1.0)

    def test_pole_index_rejection(self):
        # alpha*n + beta = 0 at n = 1
        with pytest.raises(PoleError):
            phi_values(WrightParams(-0.5, 0.5), 5)
        phi_values(WrightParams(-0.5, 0.75), 5)  # clean


class TestPhi:
    def test_hand_values(self):
        assert phi_values(WrightParams(0.0, 1.0), 2)[1] == pytest.approx(0.5, rel=1e-12)
        assert phi_values(WrightParams(1.0, 1.0), 2)[1] == pytest.approx(0.25, rel=1e-12)
        # Gamma(0.5*3 + 1.5) = Gamma(3) = 2, so 1/(2 * 6)
        assert phi_values(WrightParams(0.5, 1.5), 3)[2] == pytest.approx(
            1.0 / 12.0, rel=1e-12
        )

    @pytest.mark.parametrize("alpha,beta", WRIGHT_PAIRS + ((-0.3, 0.75), (2.0, 0.25)))
    def test_inverse_identity(self, alpha, beta):
        # phi * Gamma * n! == 1, with the Gamma and factorial from stdlib
        values = phi_values(WrightParams(alpha, beta), 30)
        for n in range(1, 31):
            value = values[n - 1] * math.gamma(alpha * n + beta) * math.factorial(n)
            assert value == pytest.approx(1.0, rel=1e-12)

    def test_pole_error(self):
        # the table holds the pole as phi_n = 0; the reader that reaches it raises
        wp = WrightParams(-0.5, 0.5)
        sign, _, values = _coefficient_table(wp, 64)
        assert (sign[0], values[0]) == (0.0, 0.0)
        with pytest.raises(PoleError, match=r"at n=\[1\] for"):
            phi_values(wp, 1)

    def test_bad_index(self):
        wp = WrightParams(0.0, 1.0)
        assert phi_values(wp, 0).size == 0
        with pytest.raises(ParameterError, match="n_max must be >= 0"):
            phi_values(wp, -1)

    @pytest.mark.filterwarnings("error")
    def test_argument_past_the_double_range_gives_zero(self):
        # alpha*n + beta is inf from n = 2 on, and phi_1 underflows
        wp = WrightParams(1.7e308, 1.0)
        assert phi_values(wp, 5).tolist() == [0.0] * 5
        assert wright_eval(wp, 0.5) == (0j, 1, math.inf)


class TestCoefficientTable:
    """phi_values reads prefixes of one memoised table per (alpha, beta)."""

    @pytest.mark.parametrize("alpha,beta", WRIGHT_PAIRS + ((-0.01, 1.0),))
    def test_prefix_is_bit_equal_to_one_route_call(self, alpha, beta):
        wp = WrightParams(alpha, beta)
        for n_max in range(0, 301):
            sign, log_inv = _log_inverse_phi(wp, np.arange(1.0, n_max + 1))
            if not sign.all():
                poles = (np.flatnonzero(sign == 0.0) + 1).tolist()
                with pytest.raises(PoleError, match=re.escape(f"at n={poles} for")):
                    phi_values(wp, n_max)
                continue
            want = sign * np.exp(-log_inv)
            assert phi_values(wp, n_max).tobytes() == want.tobytes(), n_max

    def test_pole_past_n_max_is_not_reached(self):
        assert np.all(phi_values(POLE_AT_100, 99) > 0.0)
        with pytest.raises(PoleError, match=r"at n=\[100\] for"):
            phi_values(POLE_AT_100, 100)
        with pytest.raises(PoleError, match=r"at n=\[100\] for"):
            phi_values(POLE_AT_100, 128)

    def test_read_only_and_shared(self):
        wp = WrightParams(0.5, 1.5)
        values = phi_values(wp, 40)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0
        assert np.shares_memory(values, phi_values(wp, 60))


# Arguments on [0.1, 50] and in the reflection region, away from the poles.
ORACLE_XS = [float(x) for x in np.linspace(0.1, 50.0, 250)] + [
    k + f for k in range(-10, 1) for f in (0.03, 0.25, 0.5, 0.77, 0.97) if k + f < 0.5
]


class TestMpmathOracle:
    """40-digit mpmath references, an implementation independent of ours."""

    @pytest.fixture(autouse=True)
    def _precision(self):
        with mpmath.workdps(40):
            yield

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 1.0), (1.0, 1.0), (0.5, 1.5), (-0.9, 0.05), (-0.5, 0.75),
         (2.0, 0.1), (0.3, 0.01)],
    )
    def test_phi_values(self, alpha, beta):
        got = phi_values(WrightParams(alpha, beta), 400)
        checked = 0
        for n in range(1, 401):
            want = mpmath.rgamma(mpmath.mpf(alpha) * n + beta) / mpmath.factorial(n)
            if not np.finfo(float).tiny <= abs(want) <= np.finfo(float).max:
                continue  # the reference is not a normal double
            rel = float(abs((got[n - 1] - want) / want))
            assert rel <= (3.5e-14 if n <= 20 else 1e-12), (n, rel)
            checked += 1
        assert checked >= 60

    def test_gamma(self):
        for x in ORACLE_XS:
            want = mpmath.gamma(x)
            assert float(abs((route_gamma(x) - want) / want)) <= 1e-12, x

    def test_signed_lgamma(self):
        for x in ORACLE_XS:
            want = mpmath.gamma(x)
            sign, log_abs = route(x)
            assert sign == mpmath.sign(want), x
            want_log = mpmath.log(abs(want))
            assert float(abs(log_abs - want_log)) <= 1e-12 * max(1.0, abs(want_log)), x


def termwise_wright(wp, z):
    """wright_eval's sum, each phi_n read at its own order n so that a pole
    past the stopping index is never read: (value, terms, cancellation), or
    None past 500 terms."""
    total, mass, z_pow = 0j, 0.0, 1.0 + 0j
    for n in range(1, 501):
        z_pow *= z
        term = float(phi_values(wp, n)[n - 1]) * z_pow
        total += term
        mass += abs(term)
        if abs(term) <= 1e-16 * (1.0 + abs(total)):
            return total, n, mass / abs(total) if total else math.inf
    return None


class TestWrightEval:
    @pytest.mark.parametrize(
        "alpha,beta,z",
        [(a, b, x) for a, b in WRIGHT_PAIRS for x in (0.25, 0.5, 1.0, 2.0)]
        + [(0.0, 1.0, 1.5 * cmath.exp(0.4j * math.pi)), (0.0, 1.0, 1e-8),
           (0.5, 1.5, 0.1), (0.5, 1.5, 1.5), (-0.5, 6.0, 0.01),
           (-0.5, 0.75, 10.0), (0.0, 1.0, 60.0)],
    )
    def test_table_sum_is_bit_equal_to_the_termwise_sum(self, alpha, beta, z):
        # (0, 1) at z = 60 takes 134 terms, so the 65-500 block is read
        result = wright_eval(WrightParams(alpha, beta), z)
        assert tuple(result) == termwise_wright(WrightParams(alpha, beta), complex(z))

    def test_zero_argument(self):
        result = wright_eval(WrightParams(0.3, 2.0), 0.0)
        assert result.value == 0j
        assert result.terms == 0

    def test_exponential_reduction(self):
        # alpha = 0, beta = 1 collapses the series to exp(z) - 1 termwise
        result = wright_eval(WrightParams(0.0, 1.0), 1.0)
        assert result.value.real == pytest.approx(math.e - 1.0, rel=1e-12)
        assert result.terms < 40

    def test_exponential_reduction_complex_samples(self):
        wp = WrightParams(0.0, 1.0)
        for r in (0.5, 1.0, 1.5, 2.0):
            for k in range(5):
                z = r * cmath.exp(2j * math.pi * k / 5)
                got = wright_eval(wp, z).value
                want = cmath.exp(z) - 1.0
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_bessel_like_value(self):
        # frozen from kahan_series_oracle(1, 1, 1.0); equals I_0(2) - 1
        result = wright_eval(WrightParams(1.0, 1.0), 1.0)
        assert result.value.real == pytest.approx(1.2795853023360675, rel=1e-12)
        assert result.value.imag == 0.0

    @pytest.mark.parametrize("alpha,beta", WRIGHT_PAIRS)
    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0])
    def test_matches_kahan_oracle(self, alpha, beta, x):
        got = wright_eval(WrightParams(alpha, beta), x).value
        want = kahan_series_oracle(alpha, beta, x)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_real_positive_for_positive_arguments(self):
        wp = WrightParams(0.5, 1.5)
        for x in (0.1, 0.5, 1.5):
            value = wright_eval(wp, x).value
            assert value.imag == 0.0
            assert value.real > 0.0

    def test_term_count_reported(self):
        small = wright_eval(WrightParams(0.0, 1.0), 1e-8)
        assert small.terms <= 2

    def test_pole_index_only_fails_when_reached(self):
        # alpha*n + beta = 0 at n = 12: a small argument stops before it
        wp = WrightParams(-0.5, 6.0)
        assert wright_eval(wp, 0.01).terms == 7
        with pytest.raises(PoleError, match=r"n=\[?12\b"):
            wright_eval(wp, 5.0)

    def test_non_convergence(self):
        with pytest.raises(ConvergenceError):
            wright_eval(WrightParams(0.0, 1.0), 300.0)

    def test_cancellation_flags_an_inaccurate_sum(self):
        # terms of both signs, the largest near 1e9, cancel to a sum near
        # -0.46: the ratio reports the loss of most significant digits
        result = wright_eval(WrightParams(-0.5, 0.75), 10.0)
        assert result.cancellation > 1e8
        with mpmath.workdps(50):
            want = complex(mpmath.nsum(
                lambda n: mpmath.mpf(10) ** n * mpmath.rgamma(-0.5 * n + 0.75)
                / mpmath.factorial(n),
                [1, mpmath.inf],
            ))
        assert abs(result.value - want) / abs(want) == pytest.approx(3.62e-4, rel=0.05)

    def test_cancellation_is_one_for_positive_terms(self):
        assert wright_eval(WrightParams(0.0, 1.0), 1.0).cancellation == pytest.approx(
            1.0, rel=1e-15
        )

    def test_cancellation_at_zero(self):
        assert wright_eval(WrightParams(0.3, 2.0), 0.0).cancellation == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            wright_eval(WrightParams(0.0, 1.0), complex(math.inf, 0.0))
