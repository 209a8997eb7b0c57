import math
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrightlens import (
    ClassParams,
    ConvergenceError,
    LaurentSeries,
    ParameterError,
    RadiusQuery,
    RadiusResult,
    TruncationWarning,
    WrightParams,
    constraint_sum,
    convex_predicate,
    extremal_curve,
    GridSpec,
    operator_weights,
    polar_grid,
    single_weight_query,
    solve_radius,
    starlike_predicate,
)

from wrightlens import radii
from param_grids import class_grid

CP = ClassParams(0.0, 0.0, 2.0)
WP = WrightParams(0.0, 1.0)
CLASS_GRID = tuple(class_grid())


class TestConstraintSum:
    def test_single_weight_starlike(self):
        q = single_weight_query("starlike", 0.0, 1)
        assert constraint_sum(q, 0.4) == pytest.approx(3 * 0.4**2, rel=1e-15)

    def test_single_weight_convex(self):
        q = single_weight_query("convex", 0.0, 2)
        assert constraint_sum(q, 0.3) == pytest.approx(8 * 0.3**3, rel=1e-15)

    def test_zero_radius(self):
        q = single_weight_query("starlike", 0.0, 1)
        assert constraint_sum(q, 0.0) == 0.0

    def test_monotone_in_r(self):
        q = RadiusQuery(0.2, "convex", np.array([0.5, 0.0, 1.5]))
        values = [constraint_sum(q, r) for r in np.linspace(0.0, 0.99, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        q = single_weight_query("starlike", 0.0, 1)
        with pytest.raises(ParameterError):
            constraint_sum(q, 1.0)

    def test_matches_direct_formula_bit_for_bit(self):
        # the product order (m*w)*r**(n+1) and numpy's pairwise sum fix every
        # comparison of S with 1 in the certificate, and with it the radii
        rng = np.random.default_rng(5)
        for kind in ("starlike", "convex"):
            for n_max in (1, 7, 150, 400):
                rho = float(rng.uniform(0.0, 1.0))
                w = rng.uniform(0.0, 2.0, n_max)
                q = RadiusQuery(rho, kind, w)
                n = np.arange(1, n_max + 1, dtype=float)
                m = (n + 2.0 - rho) / (1.0 - rho)
                if kind == "convex":
                    m = n * m
                for r in (0.0, 0.1, 0.5, 0.93):
                    assert constraint_sum(q, r) == float(np.sum(m * w * r ** (n + 1)))

    def test_overflowing_term_names_its_index(self):
        # m_2 * weight_2 = 7 * 1e308 leaves the double range; weight_1 does not
        q = RadiusQuery(0.5, "convex", np.array([1.0, 1e308, 1e308]))
        with pytest.raises(OverflowError, match="n=2"):
            constraint_sum(q, 0.5)
        with pytest.raises(OverflowError, match="n=2"):
            solve_radius(q)

    def test_overflowing_sum_is_silent_inf(self):
        # every term is finite, their sum is not: a correct S > 1, no warning
        q = RadiusQuery(0.0, "starlike", np.full(50, 3e306))
        assert constraint_sum(q, 0.999) == math.inf
        result = solve_radius(q)
        assert constraint_sum(q, result.radius) <= 1.0


class TestRadiusQuery:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RadiusQuery(1.0, "starlike", np.array([1.0]))
        with pytest.raises(ParameterError):
            RadiusQuery(0.0, "round", np.array([1.0]))
        with pytest.raises(ParameterError):
            RadiusQuery(0.0, "starlike", np.array([-1.0]))
        with pytest.raises(ParameterError):
            RadiusQuery(0.0, "starlike", np.array([1.0]), tol=0.0)


class TestSolveRadius:
    def test_single_weight_starlike_rho_zero(self):
        result = solve_radius(single_weight_query("starlike", 0.0, 1))
        assert result.radius == pytest.approx(1 / math.sqrt(3), abs=2e-9)
        assert result.bracket[1] - result.bracket[0] <= 1e-9
        assert abs(result.residual - 1.0) <= 1e-8

    def test_single_weight_convex_rho_zero(self):
        result = solve_radius(single_weight_query("convex", 0.0, 2))
        assert result.radius == pytest.approx(0.5, abs=2e-9)

    def test_single_weight_starlike_rho_half(self):
        result = solve_radius(single_weight_query("starlike", 0.5, 1))
        assert result.radius == pytest.approx(math.sqrt(0.2), abs=2e-9)

    def test_inequality_holds_at_returned_radius(self):
        for kind in ("starlike", "convex"):
            q = RadiusQuery(0.1, kind, np.array([2.0, 0.5, 0.25]))
            result = solve_radius(q)
            assert constraint_sum(q, result.radius) <= 1.0

    def test_closed_form_agreement(self):
        for kind in ("starlike", "convex"):
            for n in (1, 2, 3, 5):
                for rho in (0.0, 0.3, 0.7):
                    q = single_weight_query(kind, rho, n)
                    got = solve_radius(q).radius
                    want = extremal_curve(kind, [rho], n)[0, 1]
                    assert got == pytest.approx(want, abs=2e-9)

    def test_monotone_in_rho(self):
        radii = [
            solve_radius(single_weight_query("starlike", rho, 1)).radius
            for rho in (0.0, 0.2, 0.4, 0.6, 0.8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))

    def test_monotone_in_weights(self):
        small = solve_radius(RadiusQuery(0.0, "starlike", np.array([1.0, 0.5])))
        large = solve_radius(RadiusQuery(0.0, "starlike", np.array([2.0, 0.5])))
        assert large.radius <= small.radius

    def test_unconstrained_flag(self):
        result = solve_radius(RadiusQuery(0.0, "starlike", np.array([1e-12])))
        assert result.unconstrained
        assert result.radius == pytest.approx(1.0, abs=2e-9)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            solve_radius(RadiusQuery(0.0, "starlike", np.array([0.0, 0.0])))

    def test_tiny_tol_rejected(self):
        with pytest.raises(ParameterError):
            solve_radius(RadiusQuery(0.0, "starlike", np.array([1.0]), tol=1e-15))

    def test_tiny_tol_rejected_by_single_weight_query(self):
        with pytest.raises(ParameterError, match="tol must be at least 1e-12"):
            solve_radius(single_weight_query("starlike", 0.0, 1, tol=1e-15))

    @pytest.mark.parametrize("tol", [math.inf, 2.0, 0.5])
    def test_tol_past_the_bracket_rejected(self, tol):
        with pytest.raises(ParameterError, match="finite and below 0.5"):
            solve_radius(RadiusQuery(0.0, "starlike", np.array([1.0]), tol=tol))

    def test_huge_weights_do_not_break_bracketing(self):
        # terms near the double range: the Halley steps run on the scaled
        # terms c r0**e, each at most 1
        q = RadiusQuery(0.0, "starlike", np.full(50, 1e305))
        result = solve_radius(q)
        assert 0.0 <= result.radius < 1.0
        assert constraint_sum(q, result.radius) <= 1.0
        q2 = RadiusQuery(0.0, "starlike", np.array([1e20]))
        result2 = solve_radius(q2)
        assert result2.radius == pytest.approx(math.sqrt(1.0 / 3e20), rel=1e-5)

    def test_truncation_warning_fires(self):
        model = lambda k: np.ones(k)
        q = RadiusQuery(0.0, "starlike", model(2), 1e-9, weight_model=model)
        with pytest.warns(TruncationWarning):
            result = solve_radius(q)
        assert result.truncation_used == 4

    def test_converged_model_is_silent(self):
        model = lambda k: operator_weights(CP, WP, k)
        q = RadiusQuery(0.0, "starlike", model(40), 1e-9, weight_model=model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            result = solve_radius(q)
        assert result.truncation_used == 80

    @staticmethod
    def _solved_sizes(q):
        sizes = []
        solve = radii._solve

        def counted(c, e, total, tol):
            sizes.append(len(c))
            return solve(c, e, total, tol)

        with mock.patch.object(radii, "_solve", counted):
            solve_radius(q)
        return sizes

    def test_converged_model_solves_once(self):
        model = lambda k: operator_weights(CP, WP, k)
        q = RadiusQuery(0.3, "convex", model(40), 1e-9, weight_model=model)
        assert self._solved_sizes(q) == [80]

    def test_unconverged_model_solves_twice(self):
        q = RadiusQuery(0.0, "starlike", np.ones(2), 1e-9, weight_model=np.ones)
        with pytest.warns(TruncationWarning):
            assert self._solved_sizes(q) == [4, 2]

    @pytest.mark.parametrize(
        "doubled,message",
        [
            (lambda k: np.r_[np.ones(k - 1), -1.0], "weights must be nonnegative numbers"),
            (lambda k: np.r_[np.ones(k - 1), math.nan], "weights must be nonnegative numbers"),
            (lambda k: np.ones((k, 2)), "weights must be a non-empty vector"),
            (lambda k: np.zeros(0), "weights must be a non-empty vector"),
            (lambda k: np.ones(3), "weight_model must return 4 weights, got 3"),
        ],
    )
    def test_invalid_model_weights_rejected(self, doubled, message):
        # the model is only asked for the doubled truncation
        q = RadiusQuery(0.0, "starlike", np.ones(2), weight_model=doubled)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            solve_radius(q)

    def test_overflowing_weight_model_names_its_index(self):
        # doubling the truncation runs these class weights past the double
        # range; the first overflowing term is m_574 * w_574
        cp = ClassParams(0.0, 0.45, 5.0)
        model = lambda k: operator_weights(cp, WP, k)
        q = RadiusQuery(0.0, "starlike", model(300), weight_model=model)
        with pytest.raises(OverflowError, match="n=574"):
            solve_radius(q)

    def test_steps_count_halley_steps(self):
        # S <= 1 at the start r0 = 1 - 1e-9: no step, one check at the edge
        assert solve_radius(RadiusQuery(0.0, "starlike", np.array([1e-12]))).steps == 0
        # the start c^(-1/e) of a single term is its root: no Halley step
        assert solve_radius(single_weight_query("starlike", 0.0, 1)).steps == 0
        q = RadiusQuery(0.3, "convex", operator_weights(CP, WP, 150))
        assert 2 <= solve_radius(q).steps <= 6

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_term_matches_the_closed_form(self, kind, rho, n):
        # the radius is the lower end of the certified bracket r(1 -+ 1e-11)
        # around the root, so at most 2e-11 of it below
        got = solve_radius(single_weight_query(kind, rho, n)).radius
        want = extremal_curve(kind, [rho], n)[0, 1]
        assert got <= want * (1.0 + 1e-15)
        assert got == pytest.approx(want, rel=3e-11, abs=0.0)

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_single_term_takes_no_halley_step(self, kind, n):
        # the start is returned before b e, b e^2 and any dot are formed
        calls = []
        dot = np.dot

        def counted(*args):
            calls.append(args)
            return dot(*args)

        with mock.patch.object(radii.np, "dot", counted):
            result = solve_radius(single_weight_query(kind, 0.4, n))
        assert calls == []
        assert result.steps == 0
        assert not result.unconstrained

    def test_convex_radius_at_most_starlike(self):
        weights = operator_weights(CP, WP, 25)
        star = solve_radius(RadiusQuery(0.0, "starlike", weights)).radius
        conv = solve_radius(RadiusQuery(0.0, "convex", weights)).radius
        assert conv <= star


_EDGE = 1.0 - 1e-9
# Float error of S, relative to the root, that the comparisons of S with 1
# at the edge can make: S within 1e-13 of its exact sum, and
# d log S / d log r >= 2
_EDGE_SLACK = 1e-12


def _solved_weights(q: RadiusQuery) -> np.ndarray:
    return q.weights if q.weight_model is None else q.weight_model(2 * q.n_max)


def _exact_root(kind: str, rho: float, weights, start: float):
    """Root of sum c_n r^(n+1) = 1 over the solver's float terms c_n, summed
    exactly at 50 digits, by Newton on log S against log r; inf when that
    sum is at most 1 at the edge.

    log S is convex and increasing in log r, so Newton reaches the root from
    any start: from below its first step lands above the root, and from
    above it falls to the root.  Terms under 1e-70 at ``reach`` are dropped,
    which moves S by less than 1e-66 up to there: first with reach
    1.01 * start, then, for a root past that, with reach the edge.
    """
    with np.errstate(over="ignore", divide="ignore"):
        c, e, _ = radii._terms(kind, rho, np.asarray(weights, dtype=float))
        log_c = np.log10(c)
    with mp.workdps(50):

        def terms_at(reach):
            keep = np.flatnonzero(log_c + e * math.log10(reach) > -70.0)
            return [(mp.mpf(float(c[i])), int(e[i])) for i in keep]

        near = min(1.01 * start, _EDGE)
        if near < _EDGE and (terms := terms_at(near)):
            root = _newton(terms, mp.mpf(start))
            if root <= near:
                return root
        terms = terms_at(_EDGE)
        if _exact_sums(terms, mp.mpf(_EDGE))[0] <= 1:
            return mp.inf
        return _newton(terms, mp.mpf(_EDGE))


def _exact_sums(terms, r):
    """(S, r S') at r over (c_n, e_n) terms with increasing e_n."""
    s = slope = mp.mpf(0)
    p, last = mp.mpf(1), 0
    for cn, en in terms:
        p *= r if en == last + 1 else r ** (en - last)
        last = en
        term = cn * p
        s += term
        slope += en * term
    return s, slope


def _newton(terms, start):
    # near the root a step leaves an error of about step^2 Var(e) / (2 mean e)
    # in log r, under 1e-31 for a step under 1e-20 and exponents up to 1e4
    t = mp.log(start)
    for _ in range(200):
        s, slope = _exact_sums(terms, mp.exp(t))
        step = mp.log(s) * s / slope
        t -= step
        if abs(step) < 1e-20:
            return mp.exp(t)
    raise AssertionError("Newton did not converge")


def _outcome(q: RadiusQuery):
    """(result, warnings) of solve_radius, or the OverflowError's text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve_radius(q)
        except OverflowError as exc:
            return str(exc), caught
    return result, caught


def _check_oracle(q: RadiusQuery, result: RadiusResult):
    """radius <= root <= bracket_hi for the exact root of the returned terms,
    at most 2e-11 of it below; up to the float error of S at the edge when
    the result is unconstrained or its bracket ends there.  Returns that
    root."""
    lo, hi = result.bracket
    assert result.radius == lo <= hi
    assert hi - lo <= q.tol
    assert result.truncation_used == len(_solved_weights(q))
    root = _exact_root(q.kind, q.rho, _solved_weights(q), max(hi, 1e-300))
    if result.unconstrained:
        assert root >= _EDGE * (1.0 - _EDGE_SLACK)
        assert lo == hi == _EDGE
        return root
    if hi < _EDGE:
        assert lo <= root <= hi
        assert root - lo <= 2.1e-11 * root
        assert result.residual < 1.0
    else:
        assert lo * (1.0 - _EDGE_SLACK) <= root <= hi * (1.0 + _EDGE_SLACK)
        assert root - lo <= q.tol + _EDGE_SLACK * root
        assert result.residual <= 1.0
    return root


@st.composite
def radius_queries(draw):
    n_max = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(("starlike", "convex")))
    rho = draw(st.floats(0.0, 1.0, exclude_max=True))
    tol = 10.0 ** draw(st.floats(-12.0, -3.0))
    source = draw(st.sampled_from(("dense", "sparse", "single", "class")))
    if source == "class":
        cp = draw(st.sampled_from(CLASS_GRID))
        model = lambda k: operator_weights(cp, WP, k)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        scale = 10.0 ** draw(st.floats(-14.0, 6.0))

        def model(k):
            # fresh generators per call, so model(k) is a prefix of model(2k)
            draws = np.random.default_rng(seed).uniform(0.0, 1.0, k)
            w = scale * draws / np.arange(1, k + 1) ** 2
            if source != "dense":
                picks = np.random.default_rng(seed + 1).random(k)
                keep = picks < (0.1 if source == "sparse" else 0.0)
                keep[min(k, n_max) - 1] = True
                w = np.where(keep, w + scale, 0.0)
            return w

    weights = model(n_max)
    with_model = draw(st.booleans())
    return RadiusQuery(rho, kind, weights, tol, weight_model=model if with_model else None)


@st.composite
def modelled_queries(draw):
    """Queries with a weight model, converged or not.  "shrinking" does not
    extend its own vectors: its weights halve when the truncation doubles,
    so the doubled radius can lie above the one at n_max as well as below.
    """
    n_max = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("starlike", "convex")))
    rho = draw(st.floats(0.0, 1.0, exclude_max=True))
    tol = 10.0 ** draw(st.floats(-12.0, -3.0))
    source = draw(st.sampled_from(("ones", "class", "sparse", "shrinking")))
    if source == "ones":
        model = np.ones
    elif source == "class":
        cp = draw(st.sampled_from(CLASS_GRID))
        model = lambda k: operator_weights(cp, WP, k)
    else:
        model = _seeded_model(source, draw(st.integers(0, 2**32 - 1)), n_max)
    return RadiusQuery(rho, kind, model(n_max), tol, weight_model=model)


def _seeded_model(source: str, seed: int, n_max: int):
    """The "sparse" or "shrinking" weight model of :func:`modelled_queries`."""

    def model(k):
        draws = np.random.default_rng(seed).uniform(0.0, 1.0, k)
        if source == "shrinking":
            return draws * (n_max / k)
        keep = np.random.default_rng(seed + 1).random(k) < 0.1
        keep[min(k, n_max) - 1] = True
        return np.where(keep, draws, 0.0)

    return model


# weight 0.27349717 at n_max 1: S stays below 1 up to the edge, the doubled
# truncation's root is 0.99874
_SHRINKING_47846 = _seeded_model("shrinking", 47846, 1)


# (kind, n) with m_n(0) a power of two: starlike m_n = n + 2, convex n(n + 2)
_DYADIC_TERMS = (("starlike", 2), ("starlike", 6), ("starlike", 30), ("convex", 2))


@st.composite
def wide_radius_queries(draw):
    tol = 10.0 ** draw(st.floats(-12.0, -3.0))
    source = draw(st.sampled_from(("dyadic", "decaying", "geometric")))
    if source == "dyadic":
        # one term c r^e with c = 2^(p e) exactly: S(2^-p) = 1 exactly, and the
        # root is a float a midpoint can land on
        kind, n = draw(st.sampled_from(_DYADIC_TERMS))
        p = draw(st.integers(1, 12))
        m = n + 2 if kind == "starlike" else n * (n + 2)
        weights = np.zeros(n)
        weights[-1] = 2.0 ** (p * (n + 1)) / m
        return RadiusQuery(0.0, kind, weights, tol)
    n_max = draw(st.integers(1, 10_000))
    kind = draw(st.sampled_from(("starlike", "convex")))
    rho = draw(st.floats(0.0, 1.0, exclude_max=True))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    n = np.arange(1, n_max + 1, dtype=float)
    if source == "decaying":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = scale * rng.uniform(0.0, 1.0, n_max) / n ** rng.uniform(0.0, 3.0)
    else:
        # growth like the class weights': near the root r ~ x many terms are
        # comparable; the growth stops at 1e200 so that most weights stay finite
        x = draw(st.floats(0.3, 0.999))
        with np.errstate(over="ignore"):
            weights = scale * x ** -np.minimum(n, 200.0 / -math.log10(x))
    return RadiusQuery(rho, kind, weights, tol)


def _overflows(q: RadiusQuery, message: str) -> bool:
    n = np.arange(1, len(_solved_weights(q)) + 1)
    with np.errstate(over="ignore"):
        c = radii._multipliers(q.kind, q.rho, n) * _solved_weights(q)
    return message.endswith(f"n={int(np.flatnonzero(np.isinf(c))[0]) + 1}")


class TestRootOracle:
    """Every result against an exact root of its own float terms."""

    @staticmethod
    def _meets_the_oracle(q):
        result, _ = _outcome(q)
        if isinstance(result, str):
            assert _overflows(q, result)
        else:
            _check_oracle(q, result)

    @settings(max_examples=300, deadline=None)
    @given(radius_queries())
    def test_meets_the_oracle(self, q):
        self._meets_the_oracle(q)

    @settings(max_examples=200, deadline=None)
    @given(wide_radius_queries())
    def test_meets_the_oracle_wide(self, q):
        self._meets_the_oracle(q)

    @settings(max_examples=300, deadline=None)
    @given(modelled_queries())
    @example(RadiusQuery(
        0.0, "starlike", _SHRINKING_47846(1), 1e-3, weight_model=_SHRINKING_47846
    ))
    def test_truncation_warnings_match_the_oracle(self, q):
        # each radius lies at most tol (plus float slack) below its root, or
        # is the edge when the root lies past it (RadiusResult), so the 10*tol
        # rule is decided by the two roots, capped at the edge, up to about 2*tol
        result, caught = _outcome(q)
        if isinstance(result, str):
            assert _overflows(q, result)
            return
        refined = min(_check_oracle(q, result), _EDGE)
        base = min(_exact_root(q.kind, q.rho, q.weights, result.bracket[1]), _EDGE)
        moved = float(abs(base - refined))
        warned = [str(w.message) for w in caught if w.category is TruncationWarning]
        margin = 2.0 * q.tol + 1e-11
        if moved > 10.0 * q.tol + margin:
            assert len(warned) == 1
            assert f"to {result.radius!r} (n_max={2 * q.n_max})" in warned[0]
        elif moved < 10.0 * q.tol - margin:
            assert warned == []
        assert [w for w in caught if w.category is not TruncationWarning] == []


class TestCertifiedWindow:
    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_class_weight_query_evaluates_s_at_most_8_times(self, kind):
        # once at the start, once per Halley step, twice for the certificate
        cp = ClassParams(0.6, 0.2, 2.0)
        q = RadiusQuery(0.3, kind, operator_weights(cp, WrightParams(1.0, 1.0), 150))
        calls = []
        sum_at = radii._sum_at

        def counted(c, e, r):
            calls.append(r)
            return sum_at(c, e, r)

        with mock.patch.object(radii, "_sum_at", counted):
            result, _ = _outcome(q)
        assert calls == list(result.bracket)
        assert 1 + result.steps + len(calls) <= 8
        _check_oracle(q, result)

    def test_window_brackets_the_root(self):
        q = RadiusQuery(0.0, "starlike", operator_weights(CP, WP, 150))
        result, _ = _outcome(q)
        a, b = result.bracket
        assert 0.0 < a < b < _EDGE
        assert b - a <= 2.1e-11 * a
        assert constraint_sum(q, a) < 1.0 < constraint_sum(q, b)
        assert constraint_sum(q, a) == result.residual

    def test_overflowing_sum_is_certified(self):
        # every term is finite but their sum is not; the underflow error
        # bound sum(c) * 2**-1074 is then summed from the scaled terms
        q = RadiusQuery(0.0, "starlike", np.full(50, 3e306))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = _outcome(q)
        assert not result.unconstrained and result.bracket[1] < _EDGE
        assert result.steps == 0
        # the first term 9e306 r^2 alone reaches 1 at r = 1e-153 / 3
        root = _check_oracle(q, result)
        assert float(root) == pytest.approx(1e-153 / 3.0, rel=1e-15)


class TestCertificateLimits:
    """Queries at the limits of the certificate: a tol below the window, a
    root at or past the edge, a certificate that never holds.  No numpy
    warning leaks (the overflowing sum is in TestCertifiedWindow)."""

    @staticmethod
    def _solve(q):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result, caught = _outcome(q)
        _check_oracle(q, result)
        return result, caught

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    def test_tol_below_the_window_width(self, kind):
        # the bracket narrows to 0.9 tol, about 2e-12 of r, and still certifies
        for q in (single_weight_query(kind, 0.3, 2, tol=1e-12),
                  RadiusQuery(0.3, kind, operator_weights(CP, WP, 150), tol=1e-12)):
            result, _ = self._solve(q)
            assert result.bracket[1] < _EDGE
            assert result.bracket[1] - result.bracket[0] <= 1e-12

    def test_unconstrained(self):
        result, _ = self._solve(RadiusQuery(0.0, "starlike", np.array([1e-12])))
        assert result.unconstrained
        assert result.residual == pytest.approx(3e-12 * _EDGE**2, rel=1e-12)

    def test_root_next_to_the_edge(self):
        # 3 w r^2 = 1 at r = (1 - 1e-9)(1 - 1e-13): the bracket r -+ 0.45 tol
        # would pass the edge, so it ends there, with S(edge) > 1 in floats
        root = _EDGE * (1.0 - 1e-13)
        q = RadiusQuery(0.0, "starlike", np.array([1.0 / (3.0 * root * root)]), tol=1e-12)
        result, _ = self._solve(q)
        assert not result.unconstrained
        assert result.bracket[1] == _EDGE
        assert result.steps == 0
        assert constraint_sum(q, result.radius) < 1.0 < constraint_sum(q, _EDGE)

    def test_failed_certificate_takes_another_step(self):
        # the first certificate is refused: one more Halley step, from S at
        # the iterate, and the next certificate holds
        q = RadiusQuery(0.3, "convex", operator_weights(CP, WP, 150))
        separates, tried = radii._separates, []

        def once(*args):
            tried.append(args)
            return separates(*args) if len(tried) > 1 else None

        with mock.patch.object(radii, "_separates", once):
            result, _ = self._solve(q)
        assert len(tried) == 2
        assert result.steps == solve_radius(q).steps + 1
        assert result.bracket[1] < _EDGE

    @pytest.mark.parametrize("with_model", [False, True])
    def test_certificate_that_always_fails(self, with_model):
        # the Halley steps go on to the cap, and the solve then gives up; with
        # a model the doubled solve raises before the check at n_max runs
        model = lambda k: operator_weights(CP, WP, k)
        q = RadiusQuery(0.3, "convex", model(40), 1e-9,
                        weight_model=model if with_model else None)
        sizes = []

        def never(c, e, total, a, b):
            sizes.append(len(c))

        with mock.patch.object(radii, "_separates", never), pytest.raises(
            ConvergenceError, match=f"after {radii._ROOT_CAP} Halley steps"
        ):
            solve_radius(q)
        assert len(sizes) > 1
        assert set(sizes) == {80 if with_model else 40}


class TestExtremalCurve:
    def test_figure_values(self):
        star = extremal_curve("starlike", [0.0], 1)
        assert star[0, 1] == pytest.approx(1 / math.sqrt(3), rel=1e-15)
        conv = extremal_curve("convex", [0.0], 2)
        assert conv[0, 1] == pytest.approx(0.5, rel=1e-15)

    def test_closed_forms(self):
        rho = np.linspace(0.0, 0.98, 40)
        star = extremal_curve("starlike", rho, 1)
        np.testing.assert_allclose(star[:, 1], np.sqrt((1 - rho) / (3 - rho)), rtol=1e-14)
        conv = extremal_curve("convex", rho, 2)
        np.testing.assert_allclose(
            conv[:, 1], ((1 - rho) / (8 - 2 * rho)) ** (1 / 3), rtol=1e-14
        )

    def test_shrinks_to_zero(self):
        tail = extremal_curve("starlike", [1 - 1e-9], 1)[0, 1]
        assert tail < 1e-4

    def test_rho_domain(self):
        with pytest.raises(ParameterError):
            extremal_curve("starlike", [1.0], 1)
        with pytest.raises(ParameterError, match=r"^rho samples must lie in \[0, 1\)$"):
            extremal_curve("starlike", [0.2, math.nan], 1)
        with pytest.raises(ParameterError, match="^rho samples must be a number or a vector$"):
            extremal_curve("convex", [[0.0, 0.5]], 2)


class TestPredicates:
    def test_bare_pole_always_holds(self):
        pole = LaurentSeries(1.0)
        for rho in (0.0, 0.5, 0.9):
            assert starlike_predicate(pole, rho, 0.9).holds
            assert convex_predicate(pole, rho, 0.9).holds

    def test_pole_plus_z_fails_at_nine_tenths(self):
        # brute-force oracle: |z h'/h + 1| = |2 z^2 / (1 + z^2)| on the grid;
        # the maximum sits near the imaginary axis where z^2 is negative real
        h = LaurentSeries(1.0, [1.0])
        report = starlike_predicate(h, 0.0, 0.9)
        pts = polar_grid(GridSpec(), r_max=0.9)
        oracle = np.abs(2 * pts**2 / (1 + pts**2))
        assert report.max_modulus == pytest.approx(float(np.max(oracle)), rel=1e-12)
        assert not report.holds
        assert report.witness is not None
        assert abs(abs(report.witness) - 0.9) < 1e-12
        assert (report.witness**2).real < 0.0
        # z and -z tie (h is odd); the first tied grid point is reported
        assert report.witness == pts[np.argmax(oracle >= oracle.max() * (1 - 1e-12))]
        # the defining real-part condition still holds: the modulus test is
        # sufficient, not necessary
        assert report.defining_holds
        assert report.defining_min == pytest.approx(
            float(np.min(1 - np.real(2 * pts**2 / (1 + pts**2)))), rel=1e-12
        )

    def test_pole_plus_z_holds_at_solved_radius(self):
        h = LaurentSeries(1.0, [1.0])
        radius = solve_radius(single_weight_query("starlike", 0.0, 1)).radius
        assert starlike_predicate(h, 0.0, radius - 1e-8).holds

    def test_convex_square_term_at_solved_radius(self):
        h = LaurentSeries(1.0, [0.0, 1.0])
        radius = solve_radius(single_weight_query("convex", 0.0, 2)).radius
        assert convex_predicate(h, 0.0, radius - 1e-7).holds

    def test_high_order_fails(self):
        h = LaurentSeries(1.0, [1.0])
        assert not starlike_predicate(h, 0.999, 0.5).holds
        assert not convex_predicate(h, 0.999, 0.5).holds

    def test_extremal_model_consistency(self):
        weights = operator_weights(CP, WP, 25)
        h = LaurentSeries(1.0, weights.astype(complex))
        q = RadiusQuery(0.0, "starlike", weights, 1e-9)
        result = solve_radius(q)
        assert starlike_predicate(h, 0.0, result.radius - 1e-8).holds
        assert constraint_sum(q, result.radius + 0.05) > 1.0

    def test_predicate_domain(self):
        h = LaurentSeries(1.0)
        with pytest.raises(ParameterError):
            starlike_predicate(h, 0.0, 1.0)
        with pytest.raises(ParameterError):
            convex_predicate(h, 1.0, 0.5)
