"""Radii of starlikeness and convexity via one-sided coefficient sums.

For nonnegative weights v_n (typically phi_n * A_n, or phi_n * |a_n| for a
concrete function) the constraint

    S(r) = sum_n m_n(rho) * v_n * r^{n+1} <= 1,
    m_n = (n+2-rho)/(1-rho)            for starlikeness of order rho,
    m_n = n*(n+2-rho)/(1-rho)          for convexity of order rho,

is sufficient for the respective geometric property on |z| < r.  S is
strictly increasing in r, so the supremum of the feasible set is either the
whole punctured disk or the unique root of S(r) = 1.

Halley steps on log S against log r (about 3.5 for class weights, none for a
single term) estimate the root r, until two evaluations of S certify that
the exact sum of the float terms lies below 1 at r(1 - 1e-11) and above 1 at
r(1 + 1e-11); the solver returns that bracket, its lower end as the radius.
A query so evaluates S once at the start, once per Halley step and twice for
the certificate.  A bracket that reaches the edge 1 - 1e-9 ends there, and
one more evaluation of S at the edge either stands in for its upper end or,
at most 1, finds no root inside the disk.

With a weight model the query is solved at twice the truncation, and the
solve at the given truncation runs only when two more evaluations of S cannot
certify that its radius lies within the warning threshold of the doubled one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError, TruncationWarning
from .laurent import (
    GridSpec, LaurentSeries, _first_tied, _grid_ratio, _in_range, z_derivative
)

__all__ = [
    "RadiusQuery",
    "RadiusResult",
    "constraint_sum",
    "solve_radius",
    "extremal_curve",
    "single_weight_query",
    "PredicateReport",
    "starlike_predicate",
    "convex_predicate",
]

KINDS = ("starlike", "convex")

_EDGE = 1.0 - 1e-9
_MIN_TOL = 1e-12
_MAX_TOL = 0.5
# Relative error bound of _sum_at, half-width of the certified bracket, and
# the root iteration's start test, stop size and cap (see _separates and
# _solve).  A Halley step of at most _ROOT_STOP in log r leaves an error of
# order its cube, far inside the bracket.
_KAPPA = 1e-13
_WINDOW = 1e-11
_START_TOL = 1e-14
_ROOT_STOP = 1e-5
_ROOT_CAP = 50


def _multipliers(kind: str, rho: float, n: np.ndarray) -> np.ndarray:
    m = (n + 2.0 - rho) / (1.0 - rho)
    return n * m if kind == "convex" else m


def _checked_weights(weights) -> np.ndarray:
    arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("weights must be a non-empty vector")
    # one pass; a nan minimum fails the comparison
    if not np.minimum.reduce(arr) >= 0.0:
        raise ParameterError("weights must be nonnegative numbers")
    return arr


@dataclass(frozen=True, eq=False)
class RadiusQuery:
    """One radius problem: order rho, property kind, and the weight vector.

    ``weights[n-1]`` multiplies r^{n+1}.  When ``weight_model`` is given it
    must return the first k weights for any k; the solver uses it to re-solve
    at twice the truncation and flag unconverged tails; its weights pass the
    same checks as ``weights`` and must number k.  ``tol`` must lie in
    [1e-12, 0.5).  An infinite weight (one past the double range) is
    reported by the solver as :class:`OverflowError` naming its index.
    """

    rho: float
    kind: str
    weights: np.ndarray
    tol: float = 1e-9
    weight_model: Callable[[int], np.ndarray] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (0.0 <= self.rho < 1.0):
            raise ParameterError(f"rho must lie in [0, 1), got {self.rho!r}")
        if not self.tol > 0.0:
            raise ParameterError(f"tol must be positive, got {self.tol!r}")
        if self.tol < _MIN_TOL:
            raise ParameterError(f"tol must be at least {_MIN_TOL}, got {self.tol!r}")
        if not self.tol < _MAX_TOL:
            # from 0.5 on a tol bounds neither a radius nor the 10 tol warning
            raise ParameterError(
                f"tol must be finite and below {_MAX_TOL}, got {self.tol!r}"
            )
        arr = _checked_weights(np.array(self.weights, dtype=float))
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def n_max(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class RadiusResult:
    """Solved radius with its bracket, truncation, and constraint residual.

    ``bracket`` holds the root of S(r) = 1 for the exact sum of the float
    terms and is at most tol wide: r(1 -+ 1e-11), or r -+ 0.45 tol, around
    the root estimate r.  An upper end that would pass the edge 1 - 1e-9 is
    the edge, where only the float S exceeds 1.  ``radius`` is its lower end
    and ``residual`` the S there.  ``unconstrained`` marks the case where the
    float S never exceeds 1 inside the disk; the radius and both ends are
    then pinned at the edge.  ``steps`` counts the Halley steps; when the
    first certificate holds S is evaluated at most ``steps + 3`` times, or
    ``steps + 4`` for a bracket that ends at the edge.
    """

    radius: float
    bracket: tuple[float, float]
    truncation_used: int
    residual: float
    unconstrained: bool = False
    steps: int = 0


@lru_cache(maxsize=64)
def _indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, e) = (1, ..., size) and n + 1 as read-only floats, shared per size."""
    n = np.arange(1, size + 1, dtype=float)
    e = n + 1
    n.setflags(write=False)
    e.setflags(write=False)
    return n, e


def _terms(
    kind: str, rho: float, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """(c, e, total) with S(r) = sum c * r**e: c_n = m_n(rho) * v_n,
    e_n = n + 1 and total = sum(c), which is positive when any weight is.

    Callers run this and every helper below under one
    ``np.errstate(over="ignore", divide="ignore")``.  A c_n past the double
    range raises :class:`OverflowError` naming the first such n: with
    c_n = inf, S(r) turns nan once r**e_n underflows, which a comparison
    with 1 reads as S <= 1.  The sum of finite terms overflowing to inf is a
    correct S > 1.  Every c_n is nonnegative, so only an infinite total needs
    the elementwise scan.
    """
    n, e = _indices(len(weights))
    c = _multipliers(kind, rho, n) * weights
    total = float(np.add.reduce(c))
    if not math.isfinite(total) and not np.isfinite(c).all():
        bad = int(np.flatnonzero(~np.isfinite(c))[0]) + 1
        raise OverflowError(
            f"constraint term m_n * weight_n exceeds the floating-point range "
            f"at n={bad}"
        )
    return c, e, total


def _sum_at(c: np.ndarray, e: np.ndarray, r: float) -> float:
    return float(np.add.reduce(c * r**e))


def _separates(
    c: np.ndarray, e: np.ndarray, total: float, a: float, b: float
) -> float | None:
    """_sum_at(a) when it and _sum_at(b) certify that the exact sum of the
    terms is below 1 at a and above 1 at b; None otherwise.  At b = _EDGE the
    float comparison _sum_at(b) > 1 stands in for the upper end.

    _sum_at is within _KAPPA * max(S, 1) + t of the exact sum of its terms,
    with room to spare: every term is nonnegative, pow and the product add an
    ulp or two per term, numpy's pairwise sum adds O(u log n) of S (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 4.2),
    and powers that underflow add at most t = sum(c) * 2**-1074: under 1e-15,
    inside _KAPPA, while total = sum(c) is finite, else summed from the
    scaled terms.  The exact S is increasing, so _sum_at(a) <= 1 - 3 kappa - t
    keeps it below 1 - 2 kappa, and _sum_at below 1, at every r <= a;
    _sum_at(b) >= 1 + 3 kappa + t keeps both above 1 at every r >= b.  The
    root of the exact sum then lies in (a, b).
    """
    if not 0.0 < a < b <= _EDGE:
        return None
    margin = 3.0 * _KAPPA
    if not math.isfinite(total):
        margin += float(np.add.reduce(c * 2.0**-1074))
    s_a = _sum_at(c, e, a)
    if s_a <= 1.0 - margin:
        s_b = _sum_at(c, e, b)
        if s_b >= 1.0 + margin or (b == _EDGE and s_b > 1.0):
            return s_a
    return None


def constraint_sum(q: RadiusQuery, r: float) -> float:
    """S(r) for 0 <= r < 1; strictly increasing when any weight is positive."""
    if not (0.0 <= r < 1.0):
        raise ParameterError(f"r must lie in [0, 1), got {r!r}")
    with np.errstate(over="ignore", divide="ignore"):
        c, e, _ = _terms(q.kind, q.rho, q.weights)
        return _sum_at(c, e, r)


def _solve(c: np.ndarray, e: np.ndarray, total: float, tol: float) -> RadiusResult:
    """Root of S(r) = sum c * r**e = 1 for the terms of :func:`_terms`, under
    the same ``np.errstate``: Halley steps on log S against log r until
    :func:`_separates` certifies the bracket r -+ h around the iterate r,
    h = _WINDOW * r or 0.45 tol (b - a <= tol after rounding), tried at r0
    when S(r0) <= 1 or |log S(r0)| <= _START_TOL (a single term) and after
    each step of at most _ROOT_STOP.  An upper end past _EDGE is _EDGE,
    where a float S <= 1 means unconstrained.

    At r0 = min(c_n^(-1/e_n), _EDGE) every term is at most 1 (a zero c_n
    gives an infinite candidate, which the minimum skips).  With b = c r0**e
    and r = r0 x, S = sum b x**e; the iterate x stays at most 1, so no term
    exceeds 1 and nothing overflows, and from S(r0) <= 1 no step moves x.
    log S is convex in log r with slope at least 2, so from r0 the Newton
    step, at most |log S| / 2, never passes the root; Halley's correction
    1 - f f''/(2 f'^2) is used only while it is at least 1/2, which keeps a
    step within |log S| and S above 1/S(r0) > 0.
    """
    r0 = min(float(np.minimum.reduce(c ** (-1.0 / e))), _EDGE)
    b = c * r0**e
    w, s = b, float(np.add.reduce(b))  # the terms b x**e and their sum at x = 1
    x, steps = 1.0, 0
    settled = s <= 1.0 or abs(math.log(s)) <= _START_TOL
    while True:
        if settled:
            r = r0 * x
            h = min(_WINDOW * r, 0.45 * tol)
            lo, hi = r - h, min(r + h, _EDGE)
            if hi == _EDGE and (s_edge := _sum_at(c, e, _EDGE)) <= 1.0:
                return RadiusResult(_EDGE, (_EDGE, _EDGE), len(c), s_edge, True, steps)
            s_lo = _separates(c, e, total, lo, hi)
            if s_lo is not None:
                return RadiusResult(lo, (lo, hi), len(c), s_lo, False, steps)
        if steps == _ROOT_CAP:
            raise ConvergenceError(f"no certified radius after {steps} Halley steps")
        if s is None:
            w = b * x**e
            s = float(np.add.reduce(w))
        if steps == 0:
            e2 = e * e
        steps += 1
        f = math.log(s)
        d1 = float(np.dot(w, e)) / s
        d2 = float(np.dot(w, e2)) / s
        step = f / d1
        halley = 1.0 - f * (d2 - d1 * d1) / (2.0 * d1 * d1)
        if halley >= 0.5:
            step /= halley
        x = min(x * math.exp(-step), 1.0)
        settled, s = abs(step) <= _ROOT_STOP, None


def solve_radius(q: RadiusQuery) -> RadiusResult:
    """Radius where the coefficient-sum condition holds, up to tol below the
    root of S = 1 (see :class:`RadiusResult`).

    With a ``weight_model`` the problem is re-solved at twice the truncation;
    the two radii disagreeing by more than 10*tol raises a
    :class:`TruncationWarning` carrying both values, and the doubled
    (conservative) solution is returned.

    The solve at n_max runs only when the warning could fire.  With r the
    doubled radius, when :func:`_separates` certifies the n_max sum at
    r - 8*tol and r + 8*tol, the float S of that sum is at most 1 left of
    the interval and above 1 right of it, so that solve would return a
    radius within 9*tol of r.
    """
    with np.errstate(over="ignore", divide="ignore"):
        # before the model is called: an overflowing term at n_max raises first
        c, e, total = _terms(q.kind, q.rho, q.weights)
        if not total > 0.0:
            raise ParameterError("at least one weight must be positive")
        if q.weight_model is None:
            return _solve(c, e, total, q.tol)
    # outside the errstate: the model's own floating-point warnings stay its own
    doubled = _checked_weights(q.weight_model(2 * q.n_max))
    if len(doubled) != 2 * q.n_max:
        raise ParameterError(
            f"weight_model must return {2 * q.n_max} weights, got {len(doubled)}"
        )
    with np.errstate(over="ignore", divide="ignore"):
        refined = _solve(*_terms(q.kind, q.rho, doubled), q.tol)
        r, margin = refined.radius, 8.0 * q.tol
        if _separates(c, e, total, r - margin, r + margin) is not None:
            return refined
        base = _solve(c, e, total, q.tol)
    if abs(refined.radius - base.radius) > 10.0 * q.tol:
        warnings.warn(
            TruncationWarning(
                f"radius moved from {base.radius!r} (n_max={q.n_max}) to "
                f"{refined.radius!r} (n_max={len(doubled)}) when the "
                "truncation doubled; increase n_max"
            ),
            stacklevel=2,
        )
    return refined


def single_weight_query(
    kind: str, rho: float, dominant_n: int, tol: float = 1e-9
) -> RadiusQuery:
    """Query for the single-dominant-term model: weight 1 at index dominant_n."""
    if dominant_n < 1:
        raise ParameterError(f"dominant_n must be >= 1, got {dominant_n!r}")
    weights = np.zeros(dominant_n)
    weights[-1] = 1.0
    return RadiusQuery(rho, kind, weights, tol)


def extremal_curve(kind: str, rho_samples, dominant_n: int) -> np.ndarray:
    """Closed-form (rho, r) pairs for the single-dominant-term model.

    r(rho) = m_n(rho) ** (-1/(n+1)); for dominant_n = 1 (starlike) this is
    sqrt((1-rho)/(3-rho)) and for dominant_n = 2 (convex) the cube root of
    (1-rho)/(8-2*rho).
    """
    if kind not in KINDS:
        raise ParameterError(f"kind must be one of {KINDS}, got {kind!r}")
    if dominant_n < 1:
        raise ParameterError(f"dominant_n must be >= 1, got {dominant_n!r}")
    rho = np.asarray(rho_samples, dtype=float)
    if rho.ndim > 1:
        raise ParameterError("rho samples must be a number or a vector")
    # a nan fails both comparisons
    if not np.all((rho >= 0.0) & (rho < 1.0)):
        raise ParameterError("rho samples must lie in [0, 1)")
    m = _multipliers(kind, rho, np.float64(dominant_n))
    return np.column_stack([rho, m ** (-1.0 / (dominant_n + 1))])


@dataclass(frozen=True)
class PredicateReport:
    """Grid evaluation of a sufficient condition and the defining condition.

    ``holds`` refers to the one-sided modulus test; ``witness`` is the worst
    sampled point when it fails.  Each witness is the first grid point tied
    with its extremum.  The defining condition (a strict real-part
    inequality) is reported alongside because the modulus test is sufficient
    but not necessary.
    """

    kind: str
    rho: float
    radius: float
    holds: bool
    max_modulus: float
    threshold: float
    witness: complex | None
    defining_min: float
    defining_holds: bool
    defining_witness: complex


def _predicate_report(kind, rho, r, pts, q) -> PredicateReport:
    mods = np.abs(q)
    highest = float(mods.max())
    threshold = 1.0 - rho
    holds = highest <= threshold
    defining = 1.0 - np.real(q)
    lowest = float(defining.min())
    return PredicateReport(
        kind, rho, r, holds, highest, threshold,
        None if holds else complex(pts[_first_tied(-mods, -highest)]),
        lowest, lowest > rho, complex(pts[_first_tied(defining, lowest)]),
    )


def _check_predicate_args(rho: float, r: float) -> None:
    if not (0.0 <= rho < 1.0):
        raise ParameterError(f"rho must lie in [0, 1), got {rho!r}")
    if not (0.0 < r < 1.0):
        raise ParameterError(f"r must lie in (0, 1), got {r!r}")


def starlike_predicate(
    h: LaurentSeries, rho: float, r: float, grid: GridSpec = GridSpec()
) -> PredicateReport:
    """Check |z h'(z)/h(z) + 1| <= 1 - rho on a polar grid of radius <= r.

    Also evaluates the defining condition -Re(z h'/h) > rho at the same
    points.  A zero of h on the grid raises :class:`SeriesDivisionError`, a
    value past the double range :class:`OverflowError`.
    """
    _check_predicate_args(rho, r)
    with _in_range("starlike_predicate"):
        pts, ratio = _grid_ratio(z_derivative(h), h, grid, r)
        return _predicate_report("starlike", rho, r, pts, ratio + 1.0)


def convex_predicate(
    h: LaurentSeries, rho: float, r: float, grid: GridSpec = GridSpec()
) -> PredicateReport:
    """Check |z h''(z)/h'(z) + 2| <= 1 - rho on a polar grid of radius <= r.

    Uses z h'' + 2 h' = sum n(n+1) a_n z^{n-1}: the pole contributions cancel
    exactly, so with numerator and denominator both multiplied by z the
    numerator is the series sum n(n+1) a_n z^n.  A zero of h' on the grid
    raises :class:`SeriesDivisionError`, a value past the double range
    :class:`OverflowError`.
    """
    _check_predicate_args(rho, r)
    n = np.arange(1, h.truncation + 1)
    # z (z h'' + 2 h') / (z h') IS the quantity z h''/h' + 2; no further shift.
    with _in_range("convex_predicate"):
        numer = LaurentSeries(0.0, n * (n + 1) * h.coeffs)
        pts, q = _grid_ratio(numer, z_derivative(h), grid, r)
        return _predicate_report("convex", rho, r, pts, q)
