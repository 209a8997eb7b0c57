"""Radii of starlikeness and convexity via one-sided coefficient sums.

For nonnegative weights v_n (typically phi_n * A_n, or phi_n * |a_n| for a
concrete function) the constraint

    S(r) = sum_n m_n(rho) * v_n * r^{n+1} <= 1,
    m_n = (n+2-rho)/(1-rho)            for starlikeness of order rho,
    m_n = n*(n+2-rho)/(1-rho)          for convexity of order rho,

is sufficient for the respective geometric property on |z| < r.  S is
strictly increasing in r, so the supremum of the feasible set is either the
whole punctured disk or the unique root of S(r) = 1; the solver bisects for
that root and returns the conservative lower bracket end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParameterError, TruncationWarning
from .laurent import GridSpec, LaurentSeries, evaluate_ratio, polar_grid, z_derivative

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
_MAX_BISECT = 400


def _multipliers(kind: str, rho: float, n: np.ndarray) -> np.ndarray:
    m = (n + 2.0 - rho) / (1.0 - rho)
    return n * m if kind == "convex" else m


@dataclass(frozen=True, eq=False)
class RadiusQuery:
    """One radius problem: order rho, property kind, and the weight vector.

    ``weights[n-1]`` multiplies r^{n+1}.  When ``weight_model`` is given it
    must return the first k weights for any k; the solver uses it to re-solve
    at twice the truncation and flag unconverged tails.
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
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("weights must be a non-empty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ParameterError("weights must be finite and nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def n_max(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class RadiusResult:
    """Solved radius with its bracket, truncation, and constraint residual.

    ``unconstrained`` marks the case where the constraint never reaches 1
    inside the disk; the radius is then pinned just below 1.
    """

    radius: float
    bracket: tuple[float, float]
    truncation_used: int
    residual: float
    unconstrained: bool = False


def constraint_sum(q: RadiusQuery, r: float) -> float:
    """S(r) for 0 <= r < 1; strictly increasing when any weight is positive."""
    if not (0.0 <= r < 1.0):
        raise ParameterError(f"r must lie in [0, 1), got {r!r}")
    n = np.arange(1, q.n_max + 1, dtype=float)
    return float(np.sum(_multipliers(q.kind, q.rho, n) * q.weights * r ** (n + 1)))


def _bisect(q: RadiusQuery) -> RadiusResult:
    s_edge = constraint_sum(q, _EDGE)
    if s_edge <= 1.0:
        return RadiusResult(_EDGE, (_EDGE, _EDGE), q.n_max, s_edge, True)
    lo, hi = 0.0, _EDGE
    s_lo = 0.0
    for _ in range(_MAX_BISECT):
        # math.inf from overflowing weights compares as > 1, which steers the
        # bracket downward; no special casing needed.
        if hi - lo <= q.tol and abs(s_lo - 1.0) <= 10.0 * q.tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        s_mid = constraint_sum(q, mid)
        if s_mid > 1.0:
            hi = mid
        else:
            lo, s_lo = mid, s_mid
    return RadiusResult(lo, (lo, hi), q.n_max, s_lo, False)


def solve_radius(q: RadiusQuery) -> RadiusResult:
    """Largest grid-certifiable radius: the inequality holds at the output.

    With a ``weight_model`` the problem is re-solved at twice the truncation;
    the two radii disagreeing by more than 10*tol raises a
    :class:`TruncationWarning` carrying both values, and the doubled
    (conservative) solution is returned.
    """
    if q.tol < _MIN_TOL:
        raise ParameterError(f"tol must be at least {_MIN_TOL}, got {q.tol!r}")
    if not np.any(q.weights > 0.0):
        raise ParameterError("at least one weight must be positive")
    base = _bisect(q)
    if q.weight_model is None:
        return base
    doubled = RadiusQuery(
        q.rho, q.kind, np.asarray(q.weight_model(2 * q.n_max), dtype=float), q.tol
    )
    refined = _bisect(doubled)
    if abs(refined.radius - base.radius) > 10.0 * q.tol:
        warnings.warn(
            TruncationWarning(
                f"radius moved from {base.radius!r} (n_max={q.n_max}) to "
                f"{refined.radius!r} (n_max={doubled.n_max}) when the "
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
    if np.any((rho < 0.0) | (rho >= 1.0)):
        raise ParameterError("rho samples must lie in [0, 1)")
    m = _multipliers(kind, rho, np.float64(dominant_n))
    return np.column_stack([rho, m ** (-1.0 / (dominant_n + 1))])


@dataclass(frozen=True)
class PredicateReport:
    """Grid evaluation of a sufficient condition and the defining condition.

    ``holds`` refers to the one-sided modulus test; ``witness`` is the worst
    sampled point when it fails.  The defining condition (a strict real-part
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
    i = int(np.argmax(mods))
    threshold = 1.0 - rho
    holds = bool(mods[i] <= threshold)
    defining = 1.0 - np.real(q)
    j = int(np.argmin(defining))
    return PredicateReport(
        kind, rho, r, holds, float(mods[i]), threshold,
        None if holds else complex(pts[i]),
        float(defining[j]), bool(defining[j] > rho), complex(pts[j]),
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
    points.  A zero of h on the grid raises :class:`SeriesDivisionError`.
    """
    _check_predicate_args(rho, r)
    pts = polar_grid(grid, r_max=r)
    q = evaluate_ratio(z_derivative(h), h, pts) + 1.0
    return _predicate_report("starlike", rho, r, pts, q)


def convex_predicate(
    h: LaurentSeries, rho: float, r: float, grid: GridSpec = GridSpec()
) -> PredicateReport:
    """Check |z h''(z)/h'(z) + 2| <= 1 - rho on a polar grid of radius <= r.

    Uses z h'' + 2 h' = sum n(n+1) a_n z^{n-1}: the pole contributions cancel
    exactly, so with numerator and denominator both multiplied by z the
    numerator is the series sum n(n+1) a_n z^n.  A zero of h' on the grid
    raises :class:`SeriesDivisionError`.
    """
    _check_predicate_args(rho, r)
    pts = polar_grid(grid, r_max=r)
    n = np.arange(1, h.truncation + 1)
    numer = LaurentSeries(0.0, n * (n + 1) * h.coeffs)
    # z (z h'' + 2 h') / (z h') IS the quantity z h''/h' + 2; no further shift.
    q = evaluate_ratio(numer, z_derivative(h), pts)
    return _predicate_report("convex", rho, r, pts, q)
