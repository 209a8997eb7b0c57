import math

import numpy as np
import pytest

from wrightlens import (
    ClassParams,
    LaurentSeries,
    ParameterError,
    SchwarzFunction,
    WrightParams,
    bound_sequence_closed,
    bound_sequence_recursive,
    caratheodory_series,
    coefficient_bound_check,
    extraction_residuals,
    operator_weights,
    phi_values,
    schwarz_generate,
    series_identity_oracle,
)
from wrightlens import BoundSequence, bounds
from wrightlens.laurent import TaylorSeries
from wrightlens.special import _log_inverse_phi, _pole_error

from param_grids import full_grid

CP = ClassParams(0.0, 0.0, 2.0)
WP = WrightParams(0.0, 1.0)


def naive_recursion(cp, wp, n_max):
    """Fresh textbook implementation: double loop, stdlib lgamma for phi."""
    big_l = math.cos(cp.theta) * (1 + cp.gamma * (1 - 2 * cp.lam))
    lam = cp.lam
    ph = [
        math.exp(-(math.lgamma(wp.alpha * n + wp.beta) + math.lgamma(n + 1)))
        for n in range(1, n_max + 1)
    ]
    values = [(1 - 2 * lam) * big_l / ((1 - lam) * ph[0])]
    for n in range(1, n_max):
        bracket = 1 - 2 * lam
        for k in range(1, n + 1):
            bracket += ph[k - 1] * (1 - lam + k * lam) * values[k - 1]
        values.append(2 * big_l * bracket / ((n + 2) * (1 - lam) * ph[n]))
    return values


class TestClassParams:
    def test_domain(self):
        with pytest.raises(ParameterError):
            ClassParams(math.pi / 2, 0.0, 2.0)
        with pytest.raises(ParameterError):
            ClassParams(0.0, 0.5, 2.0)
        with pytest.raises(ParameterError):
            ClassParams(0.0, 0.6, 2.0)
        with pytest.raises(ParameterError):
            ClassParams(0.0, 0.0, 1.0)

    def test_relaxed_gamma(self):
        cp = ClassParams(0.0, 0.0, 0.5, relaxed=True)
        assert cp.Lambda == pytest.approx(1.5)
        with pytest.raises(ParameterError):
            ClassParams(0.0, 0.0, 0.0, relaxed=True)

    def test_lambda_shorthand(self):
        cp = ClassParams(0.6, 0.2, 5.0)
        assert cp.Lambda == pytest.approx(math.cos(0.6) * (1 + 5.0 * 0.6), rel=1e-15)
        for cp2, _ in full_grid():
            assert cp2.Lambda > 0.0


class TestBoundSequences:
    def test_hand_values_recursive(self):
        values = bound_sequence_recursive(CP, WP, 3).values
        assert values[0] == pytest.approx(3.0, rel=1e-12)
        assert values[1] == pytest.approx(16.0, rel=1e-12)
        assert values[2] == pytest.approx(108.0, rel=1e-12)

    def test_hand_values_closed(self):
        values = bound_sequence_closed(CP, WP, 3).values
        assert values[0] == pytest.approx(3.0, rel=1e-12)
        assert values[1] == pytest.approx(16.0, rel=1e-12)
        assert values[2] == pytest.approx(108.0, rel=1e-12)

    def test_matches_naive_recursion_oracle(self):
        for cp, wp in ((CP, WP), (ClassParams(0.6, 0.2, 5.0), WrightParams(0.5, 1.5))):
            got = bound_sequence_recursive(cp, wp, 12).values
            want = naive_recursion(cp, wp, 12)
            np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_recursive_and_closed_agree_on_grid(self):
        for cp, wp in full_grid():
            rec = bound_sequence_recursive(cp, wp, 25).values
            clo = bound_sequence_closed(cp, wp, 25).values
            rel = np.abs(rec - clo) / np.maximum(np.abs(rec), np.abs(clo))
            assert float(rel.max()) < 1e-9

    def test_ratio_identity(self):
        for cp, wp in ((CP, WP), (ClassParams(-1.2, 0.45, 1.1), WrightParams(1.0, 1.0))):
            values = bound_sequence_closed(cp, wp, 20).values
            ph = phi_values(wp, 20)
            lam, big_l = cp.lam, cp.Lambda
            for n in range(1, 20):
                lhs = values[n] / values[n - 1]
                rhs = (
                    ((n + 1) * (1 - lam) + 2 * (1 - lam + n * lam) * big_l)
                    / ((n + 2) * (1 - lam))
                    * ph[n - 1]
                    / ph[n]
                )
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positive_everywhere(self):
        for cp, wp in full_grid():
            assert np.all(bound_sequence_closed(cp, wp, 25).values > 0.0)

    def test_log_space_path_agrees(self):
        cp, wp = ClassParams(0.6, 0.2, 5.0), WrightParams(0.5, 1.5)
        linear = bound_sequence_closed(cp, wp, 50).values
        logged = bound_sequence_closed(cp, wp, 60).values[:50]
        np.testing.assert_allclose(logged, linear, rtol=1e-12)

    def test_overflow_reported(self):
        cp, wp = ClassParams(0.0, 0.45, 5.0), WrightParams(1.0, 1.0)
        with pytest.raises(OverflowError):
            bound_sequence_closed(cp, wp, 200)

    @pytest.mark.parametrize(
        "wp",
        [WrightParams(0.0, 1.0), WrightParams(1.0, 1.0), WrightParams(0.5, 1.5),
         WrightParams(-0.01, 1.0), WrightParams(-0.5, 6.0)],
    )
    def test_table_route_is_bit_equal_to_one_route_call(self, wp):
        def one_call(cp, wp, n_max):
            n = np.arange(1.0, n_max + 1)
            sign, log_inv = _log_inverse_phi(wp, n)
            if not sign.all():
                raise _pole_error(wp, n[sign == 0.0])
            with np.errstate(over="ignore"):
                values = sign * np.exp(np.log(operator_weights(cp, wp, n_max)) + log_inv)
            return BoundSequence(values, cp, wp, "closed")

        def outcome(build, cp, n_max):
            try:
                return build(cp, wp, n_max).values.tobytes()
            except (ArithmeticError, ParameterError) as exc:
                return type(exc), str(exc)

        for cp in (CP, ClassParams(0.0, 0.45, 5.0), ClassParams(0.6, 0.2, 5.0)):
            for n_max in (1, 11, 64, 99, 100, 129, 200, 300):
                assert outcome(bound_sequence_closed, cp, n_max) == outcome(
                    one_call, cp, n_max
                ), (cp, n_max)

    def test_bad_n_max(self):
        with pytest.raises(ParameterError):
            bound_sequence_recursive(CP, WP, 0)


class TestOperatorWeights:
    def test_matches_phi_times_bound(self):
        for cp, wp in full_grid():
            weights = operator_weights(cp, wp, 25)
            direct = phi_values(wp, 25) * bound_sequence_closed(cp, wp, 25).values
            np.testing.assert_allclose(weights, direct, rtol=1e-12)

    def test_matches_sequential_recursion(self):
        # the step-by-step recursion the running product replaced
        def sequential(cp, n_max):
            lam, big_l = cp.lam, cp.Lambda
            weights = np.empty(n_max)
            weights[0] = big_l * (1.0 - 2.0 * lam) / (1.0 - lam)
            for n in range(1, n_max):
                factor = (
                    (n + 1) * (1.0 - lam) + 2.0 * (1.0 - lam + n * lam) * big_l
                ) / (n + 2)
                weights[n] = weights[n - 1] * factor / (1.0 - lam)
            return weights

        for cp, wp in full_grid():
            want = sequential(cp, 400)
            got = operator_weights(cp, wp, 400)
            assert got[0] == want[0]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            for n_max in (1, 2, 37):
                np.testing.assert_array_equal(operator_weights(cp, wp, n_max), got[:n_max])

    def test_no_gamma_needed(self):
        # the cancellation form works even where phi_n alone would hit a pole
        cp = ClassParams(0.0, 0.0, 2.0)
        weights = operator_weights(cp, WrightParams(0.0, 1.0), 5)
        assert np.all(np.isfinite(weights))

    def test_returns_read_only_array(self):
        weights = operator_weights(CP, WP, 10)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_repeated_call_does_not_recompute(self):
        # wp divides out of the product, so it is not part of the key
        bounds._weight_product.cache_clear()
        first = operator_weights(CP, WP, 30)
        again = operator_weights(CP, WrightParams(1.0, 1.0), 30)
        info = bounds._weight_product.cache_info()
        assert again is first
        assert (info.hits, info.misses) == (1, 1)
        assert operator_weights(CP, WP, 31)[:30].tolist() == first.tolist()
        assert bounds._weight_product.cache_info().misses == 2

    def test_matches_uncached_running_product(self):
        def running_product(cp, n_max):
            lam, big_l = cp.lam, cp.Lambda
            n = np.arange(1, n_max)
            steps = np.empty(n_max)
            steps[0] = big_l * (1.0 - 2.0 * lam) / (1.0 - lam)
            factor = ((n + 1) * (1.0 - lam) + 2.0 * (1.0 - lam + n * lam) * big_l) / (n + 2)
            steps[1:] = factor / (1.0 - lam)
            with np.errstate(over="ignore"):
                return np.multiply.accumulate(steps)

        bounds._weight_product.cache_clear()
        for cp, wp in full_grid():
            for n_max in (1, 2, 50, 600):
                # twice: the memoised copy must equal a fresh computation
                for _ in range(2):
                    np.testing.assert_array_equal(
                        operator_weights(cp, wp, n_max), running_product(cp, n_max)
                    )


class TestCoefficientBoundCheck:
    def test_bare_pole_passes_everywhere(self):
        pole = LaurentSeries(1.0)
        for cp, wp in full_grid():
            assert coefficient_bound_check(pole, cp, wp).all_satisfied

    def test_violation_detected(self):
        report = coefficient_bound_check(LaurentSeries(1.0, [4.0]), CP, WP)
        assert not report.all_satisfied
        assert report.records[0].n == 1
        assert not report.records[0].satisfied

    def test_boundary_equality_satisfied(self):
        report = coefficient_bound_check(LaurentSeries(1.0, [3.0]), CP, WP)
        assert report.all_satisfied
        assert report.records[0].abs_coefficient == pytest.approx(3.0)

    def test_requires_unit_principal(self):
        with pytest.raises(ParameterError):
            coefficient_bound_check(LaurentSeries(2.0, [1.0]), CP, WP)


class TestSeriesIdentityOracle:
    def test_bare_pole_with_unit_tau(self):
        tau = TaylorSeries(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        res = series_identity_oracle(LaurentSeries(1.0, [0.0, 0.0]), tau, CP, WP)
        assert res.powers[0] == -1
        assert res.max_abs() < 1e-14

    def test_unrelated_pair_has_residuals(self):
        tau = TaylorSeries(np.array([1.0, 0.5, 0.5, 0.5, 0.5], dtype=complex))
        f = LaurentSeries(1.0, [2.0, -1.0, 0.5])
        res = series_identity_oracle(f, tau, CP, WP)
        assert res.max_abs() > 1e-3

    def test_generated_pair_satisfies_relation(self):
        # no linear term, so the z^0 balance holds and all powers match
        w = SchwarzFunction([0.0, 0.4])
        for cp in (CP, ClassParams(0.6, 0.2, 5.0)):
            f = schwarz_generate(cp, WP, w, 18)
            tau = caratheodory_series(w, 20)
            res = series_identity_oracle(f, tau, cp, WP)
            assert res.max_abs() < 1e-10

    def test_linear_term_breaks_power_zero_only(self):
        # a linear Schwarz term forces tau_1 != 0, which no pole-plus-tail
        # series can balance at power z^0; the defect equals Lambda * tau_1
        w = SchwarzFunction([0.5])
        f = schwarz_generate(CP, WP, w, 18)
        tau = caratheodory_series(w, 20)
        res = series_identity_oracle(f, tau, CP, WP)
        by_power = dict(zip(res.powers.tolist(), res.residuals))
        assert abs(by_power[0]) == pytest.approx(CP.Lambda * 1.0, rel=1e-12)
        others = [v for p, v in by_power.items() if p != 0]
        assert max(abs(v) for v in others) < 1e-10

    def test_tau_normalization_enforced(self):
        tau = TaylorSeries(np.array([2.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ParameterError):
            series_identity_oracle(LaurentSeries(1.0, [1.0]), tau, CP, WP)


class TestExtractionResiduals:
    def test_phase_consistent_variant_holds(self):
        w = SchwarzFunction([0.0, 0.3, 0.1])
        cp = ClassParams(0.6, 0.2, 2.0)
        f = schwarz_generate(cp, WP, w, 14)
        tau = caratheodory_series(w, 16)
        first, phased, unphased = extraction_residuals(f, tau, cp, WP)
        assert abs(first) < 1e-10
        assert float(np.max(np.abs(unphased))) < 1e-10
        # the variant with the extra bracket phase fails against the same
        # data whenever theta != 0
        assert float(np.max(np.abs(phased))) > 1e-6

    def test_variants_coincide_at_theta_zero(self):
        w = SchwarzFunction([0.0, 0.3])
        f = schwarz_generate(CP, WP, w, 10)
        tau = caratheodory_series(w, 12)
        _, phased, unphased = extraction_residuals(f, tau, CP, WP)
        np.testing.assert_allclose(np.abs(phased), np.abs(unphased), atol=1e-15)
