"""Membership machinery for the operator-defined function class.

A series f with unit principal part belongs to the class exactly when the
normalized transform tau(z) built from the ratio

    R(z) = z H'(z) / [(1-lam) H(z) + lam z H'(z)],    H = operator image of f,

has positive real part on the punctured disk, where R = R1 + beta (tau - 1)
with R1 = -1/(1-2 lam), R's value at 0, and beta = -e^{-i theta} L/(1-2 lam),
L = ``ClassParams.Lambda``.  So tau(0) = 1, and tau = (1+w)/(1-w) for a
Schwarz function w.  Every use of this class map reads :func:`_class_map`,
which carries R1 exactly: gamma enters through beta alone.  This module
provides the transform, grid-based membership verdicts, the Schwarz-driven
generator that inverts the construction, the convolution kernel whose
non-vanishing characterizes membership, and the sufficiency threshold test.

One structural point drives several APIs here: expanding the defining
relation in powers of z forces the z^1 coefficient of tau to vanish, so only
Schwarz functions with w'(0) = 0 can be reproduced exactly by a series with
no constant term.  The class is therefore parametrised by the Schwarz
functions with w'(0) = 0, and the CLI's ``generate`` and
``verify-identities`` accept only those.  :func:`schwarz_generate` itself
still accepts a linear term and solves the coefficient relations from power
z^1 upward, but its result is then not a member, and round trips through tau
are only exact on the w'(0) = 0 family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError, SeriesDivisionError
from .bounds import ClassParams
from .laurent import (
    GridSpec,
    LaurentSeries,
    TaylorSeries,
    _as_coeff_array,
    _divide,
    _first_tied,
    _grid_ratio,
    _grid_values,
    _in_range,
    apply_operator,
    evaluate,
    lambda_mix,
    wright_kernel,
    z_derivative,
)
from .special import WrightParams, phi_values

__all__ = [
    "SchwarzFunction",
    "MembershipReport",
    "ConvolutionScanReport",
    "EtaScan",
    "SufficiencyReport",
    "tau_transform",
    "membership_check",
    "a_of_t",
    "schwarz_generate",
    "caratheodory_series",
    "convolution_kernel",
    "convolution_scan",
    "sufficiency_predicate",
]

_MEMBERSHIP_TOL = 1e-9
_ETA_TOL = 1e-12
_G0_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SchwarzFunction:
    """Polynomial w(z) = sum_{k>=1} c_k z^k with w(0) = 0 and |w| < 1.

    Admissibility uses the conservative sufficient test sum |c_k| < 1
    (strict), which bounds |w| on the closed disk.  A monomial c * z**k is
    the ``monomial`` classmethod; ``coeffs`` always starts at the z^1 term.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        if arr.size < 1:
            raise ParameterError("Schwarz coefficients must be a non-empty vector")
        if float(np.sum(np.abs(arr))) >= 1.0:
            raise ParameterError(
                "sum |c_k| must stay strictly below 1 to keep |w| < 1, got "
                f"{float(np.sum(np.abs(arr)))!r}"
            )
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def monomial(cls, c: complex, power: int) -> "SchwarzFunction":
        if power < 1:
            raise ParameterError(f"monomial power must be >= 1, got {power!r}")
        arr = np.zeros(power, dtype=complex)
        arr[power - 1] = c
        return cls(arr)

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=complex)
        out = z_arr * np.polyval(self.coeffs[::-1], z_arr)
        return complex(out) if z_arr.ndim == 0 else out


def _finite(name: str, value: complex) -> complex:
    """``value``, or OverflowError naming it: Python scalars raise no numpy flag."""
    if not cmath.isfinite(value):
        raise OverflowError(f"{name} = {value!r} exceeds the floating-point range")
    return value


def _class_map(cp: ClassParams) -> tuple[float, complex]:
    """(R1, beta) of the class map R = R1 + beta (tau - 1)."""
    s = 1.0 - 2.0 * cp.lam
    return -1.0 / s, _finite("beta", -cmath.exp(-1j * cp.theta) * cp.Lambda / s)


def _ratio_parts(
    f: LaurentSeries, cp: ClassParams, wp: WrightParams
) -> tuple[LaurentSeries, LaurentSeries]:
    """R's numerator and denominator: the z-derivative and the lambda mix of
    the operator image H."""
    h = apply_operator(wp, f)
    return z_derivative(h), lambda_mix(h, cp.lam)


def _tau_of_ratio(cp: ClassParams, ratio):
    r1, beta = _class_map(cp)
    return 1.0 + (ratio - r1) / beta


@_in_range("tau_transform")
def tau_transform(f: LaurentSeries, cp: ClassParams, wp: WrightParams, z):
    """tau(z) = 1 + (R(z) - R1)/beta for scalar or array z.

    R is the ratio of the z-derivative to the lambda mix of the operator
    image; a vanishing mix denominator raises :class:`SeriesDivisionError`
    carrying the offending point.
    """
    num, den = _ratio_parts(f, cp, wp)
    return _tau_of_ratio(cp, _divide(evaluate(num, z), evaluate(den, z), z))


def _grid_parts(
    f: LaurentSeries, cp: ClassParams, wp: WrightParams, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(polar_grid(grid), zH' there, mix(H) there)``, ring by ring (see
    ``laurent._grid_values``): the scan and the CLI's ``member`` read it."""
    pts, (num, den) = _grid_values(_ratio_parts(f, cp, wp), grid)
    return pts, num, den


@dataclass(frozen=True)
class MembershipReport:
    """Grid-certified verdict: about the sampled grid, not all of the disk."""

    min_re_tau: float
    argmin_z: complex
    grid_spec: GridSpec
    verdict: str  # "member" | "not_member" | "inconclusive"


@_in_range("membership_check")
def membership_check(
    f: LaurentSeries,
    cp: ClassParams,
    wp: WrightParams,
    grid: GridSpec = GridSpec(),
    tol: float = _MEMBERSHIP_TOL,
) -> MembershipReport:
    """Minimize Re tau over the polar grid and classify the sign.

    ``member`` needs the minimum above +tol, ``not_member`` below -tol, and
    anything between is inconclusive.  The reported point is the first grid
    point tied with the minimum, as in :func:`convolution_scan`.  tol must be
    finite and nonnegative.  A zero of mix(H) on the grid raises
    :class:`SeriesDivisionError`, a value past the double range OverflowError.
    """
    _check_tol(tol)
    pts, ratio = _grid_ratio(*_ratio_parts(f, cp, wp), grid)
    return _membership_report(pts, _tau_of_ratio(cp, ratio), grid, tol)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be finite and nonnegative, got {tol!r}")


def _membership_report(
    pts: np.ndarray, tau: np.ndarray, grid: GridSpec, tol: float
) -> MembershipReport:
    """The :func:`membership_check` verdict on tau sampled at ``pts``."""
    re = np.real(tau)
    lowest = float(re.min())
    if lowest > tol:
        verdict = "member"
    elif lowest < -tol:
        verdict = "not_member"
    else:
        verdict = "inconclusive"
    return MembershipReport(
        lowest, complex(pts[_first_tied(re, lowest)]), grid, verdict
    )


@_in_range("a_of_t")
def a_of_t(cp: ClassParams, w: SchwarzFunction, t):
    """Ratio target A(t) induced by the Schwarz parametrization.

    A is the class map at tau = (1+w)/(1-w): A(t) = R1 + beta 2w(t)/(1-w(t)),
    so A(0) = R1 = -1/(1-2 lam), the value R takes at the origin.
    """
    t_arr = np.asarray(t, dtype=complex)
    if np.any(np.abs(t_arr) >= 1.0):
        raise ParameterError("A(t) is defined for |t| < 1")
    r1, beta = _class_map(cp)
    wt = np.asarray(w(t_arr))  # numpy arithmetic, so an overflow raises
    out = r1 + beta * (2.0 * wt / (1.0 - wt))
    return complex(out) if t_arr.ndim == 0 else out


def caratheodory_series(w: SchwarzFunction, n_max: int) -> TaylorSeries:
    """Taylor coefficients of (1 + w)/(1 - w) through order n_max.

    With inv = (1-w)^{-1} the product telescopes: tau_0 = 1 and
    tau_n = 2 * inv_n for n >= 1.
    """
    one = np.zeros(n_max + 1, dtype=complex)
    one[0] = 1.0
    # 1 - w has len(w.coeffs) + 1 terms; passing only those keeps this O(n*m)
    inv = _series_divide(one, np.concatenate(([1.0], -w.coeffs)))
    tau = 2.0 * inv
    tau[0] = 1.0
    return TaylorSeries(tau)


def _series_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Power-series quotient; den[0] must be nonzero.

    Row n is out_n = (num_n - sum_{k>=1} den_k out_{n-k}) / den_0 on Python
    ``complex``, so a quotient of n terms by a den of m terms costs O(n*m):
    callers pass only the terms of den that can be nonzero (1 - w in
    :func:`caratheodory_series`, Q(w) in :func:`schwarz_generate`).
    """
    lead = complex(den[0])
    if lead == 0.0:
        raise SeriesDivisionError("series division by a series vanishing at 0")
    tail = den[1:].tolist()
    done: list[complex] = []
    for acc in num.tolist():
        for d, o in zip(tail, reversed(done)):
            acc -= d * o
        done.append(acc / lead)
    return np.array(done, dtype=complex)


def schwarz_generate(
    cp: ClassParams, wp: WrightParams, w: SchwarzFunction, n_max: int
) -> LaurentSeries:
    """Build the series whose ratio target is A(z) for the given w.

    Writing H(z) = 1/z + sum h_n z^n and G = (1-lam) A / (1 - lam A), the
    relation z H'(z) = G(z) H(z) matched at powers z^1, z^2, ... gives

        h_n = [ g_{n+1} + sum_{k=1}^{n-1} g_{n-k} h_k ] / (n + 1),

    and f recovers its coefficients by dividing out the kernel: a_n =
    h_n / phi_n.  An a_n outside the double range (phi_n underflows past the
    order cap) raises :class:`OverflowError` naming the first such index.

    A = [R1 + d w]/(1-w) with d = 2 beta - R1 (:func:`a_of_t`), so G is a
    Moebius function of w: G = P(w)/Q(w) with

        P = (1-lam) (R1 + d w),   Q = q0 + q1 w,  q0 = 1 - lam R1,  q1 = -(1 + lam d).

    g_0 = (1-lam) R1/q0 = -1 holds to rounding and is re-checked (a mismatch
    raises :class:`ConsistencyError`); a d past the double range raises
    :class:`OverflowError`.

    G is analytic in the disk exactly when Q(w(z)) has no zero there, that
    is when w(z) never takes the value w* = -q0/q1.  Since |w| < sum |c_k|
    on the disk, |w*| >= sum |c_k| settles it (always so at lam = 0, where
    w* = 1); otherwise a root of w(z) - w* inside the disk raises
    :class:`SeriesDivisionError` at the root nearest the origin.

    P and Q have len(w.coeffs) + 1 terms, so g is one O(n*m)
    :func:`_series_divide` call, and the O(n^2) h recursion is the main
    cost.  phi is computed first: a phi_j that underflowed to 0 makes a_j
    non-finite, so the recursion stops at order j and the error names the
    same index as a run through n_max would.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max!r}")
    phi = phi_values(wp, n_max)
    zero = np.flatnonzero(phi == 0.0)
    n_stop = int(zero[0]) + 1 if zero.size else n_max
    r1, beta = _class_map(cp)
    d = _finite("2 beta - R1", 2.0 * beta - r1)  # then q1 and P are finite too
    q0, q1 = 1.0 - cp.lam * r1, -(1.0 + cp.lam * d)
    if abs(q0) < abs(q1) * float(np.sum(np.abs(w.coeffs))):
        w_star = -q0 / q1
        roots = np.roots(np.concatenate((w.coeffs[::-1], [-w_star])))
        inside = [complex(z) for z in roots if abs(z) < 1.0]
        if inside:
            at = min(inside, key=lambda z: (round(abs(z), 12), -z.real, -z.imag))
            raise SeriesDivisionError(
                f"1 - lam*A(z) vanishes at z={at!r}, where w(z) = {w_star!r}", at=at
            )
    p = (1.0 - cp.lam) * np.concatenate(([r1], d * w.coeffs))
    q = np.concatenate(([q0], q1 * w.coeffs))
    num = np.zeros(n_stop + 2, dtype=complex)
    num[: p.size] = p[: num.size]
    g = _series_divide(num, q)
    if abs(g[0] + 1.0) > _G0_TOL:
        raise ConsistencyError(
            f"forced normalization g_0 = -1 failed (got {g[0]!r}); "
            "the ratio target series is inconsistent"
        )
    g = g.tolist()
    h: list[complex] = []  # h[k - 1] holds h_k
    for n in range(1, n_stop + 1):
        acc = g[n + 1]
        for gk, hk in zip(g[n - 1 : 0 : -1], h):
            acc += gk * hk
        h.append(acc / (n + 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coeffs = np.array(h, dtype=complex) / phi[:n_stop]
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise OverflowError(f"a_{bad[0] + 1} exceeds the floating-point range")
    return LaurentSeries(1.0, coeffs)


def _kernel_weights(cp: ClassParams) -> tuple[float, complex, float, complex]:
    """(u0, v0, u1, v1) with f * K(eta) = (u0 + eta u1) zH' + (v0 + eta v1)
    mix(H); through the class map that is
    (1-2 lam) beta mix(H) [(1-eta) tau - (1+eta)]."""
    r1, beta = _class_map(cp)
    s = 1.0 - 2.0 * cp.lam
    return s, -s * r1, -s, -s * _finite("2 beta - R1", 2.0 * beta - r1)


@_in_range("convolution_kernel")
def convolution_kernel(
    cp: ClassParams, wp: WrightParams, eta: complex, n_max: int
) -> LaurentSeries:
    """Kernel whose coefficientwise product with f must avoid zero.

    K = (u0 + eta u1) z k' + (v0 + eta v1) mix(k), with k the Wright kernel,
    z k' = -1/z + sum n phi_n z^n, mix(k) = (1-2 lam)/z + sum (1-lam+lam n)
    phi_n z^n and the weights of :func:`_kernel_weights`, so that

        f * K(eta) = e^{-i theta} L mix(H) [(1+eta) - (1-eta) tau],

    zero where tau = (1+eta)/(1-eta).

    eta must sit on the unit circle and differ from 1.
    """
    eta = complex(eta)
    if abs(abs(eta) - 1.0) > _ETA_TOL:
        raise ParameterError(f"|eta| must equal 1 within {_ETA_TOL}, got {eta!r}")
    if abs(eta - 1.0) <= _ETA_TOL:
        raise ParameterError("eta = 1 is excluded")
    u0, v0, u1, v1 = _kernel_weights(cp)
    u, v = u0 + eta * u1, v0 + eta * v1
    k = wright_kernel(wp, n_max)
    d, m = z_derivative(k), lambda_mix(k, cp.lam)
    return LaurentSeries(u * d.principal + v * m.principal, u * d.coeffs + v * m.coeffs)


@dataclass(frozen=True)
class EtaScan:
    eta: complex
    min_modulus: float
    argmin_z: complex


@dataclass(frozen=True)
class ConvolutionScanReport:
    per_eta: tuple[EtaScan, ...]
    min_modulus: float
    argmin_eta: complex
    argmin_z: complex
    vanishes: bool


@_in_range("convolution_scan")
def convolution_scan(
    f: LaurentSeries,
    cp: ClassParams,
    wp: WrightParams,
    eta_count: int = 16,
    grid: GridSpec = GridSpec(),
    tol: float = _MEMBERSHIP_TOL,
) -> ConvolutionScanReport:
    """Minimum modulus of f * K(eta) over the grid, per eta and overall.

    eta runs over the eta_count-th roots of unity with eta = 1 dropped, so
    counts that divide each other give nested grids.  A minimum below tol
    certifies f is outside the class; tol must be finite and nonnegative.

    f * K(eta) = X + eta * Y, where X and Y combine zH' and mix(H) (see
    :func:`_kernel_weights`) from the one grid evaluation of :func:`_grid_parts`,
    with no division; each eta then costs one O(points) pass over |X + eta Y|.
    Moduli within a relative _TIE_RTOL of a minimum count as tied (for an
    odd f, z and -z agree to rounding): the first tied grid point and the
    first tied eta are reported, so the report does not hang on the order
    of the floating-point operations.
    """
    return _scan_report(_grid_parts(f, cp, wp, grid), cp, eta_count, tol)


def _scan_report(
    parts: tuple[np.ndarray, ...], cp: ClassParams, eta_count: int, tol: float
) -> ConvolutionScanReport:
    """The :func:`convolution_scan` report on :func:`_grid_parts`' arrays."""
    pts, num, den = parts
    if eta_count < 8:
        raise ParameterError(f"eta_count must be >= 8, got {eta_count!r}")
    _check_tol(tol)
    u0, v0, u1, v1 = _kernel_weights(cp)
    x, y = u0 * num + v0 * den, u1 * num + v1 * den
    scans = []
    for j in range(1, eta_count):
        eta = cmath.exp(2j * math.pi * j / eta_count)
        mods = np.abs(x + eta * y)
        low = float(mods.min())
        scans.append(EtaScan(eta, low, complex(pts[_first_tied(mods, low)])))
    low = min(s.min_modulus for s in scans)
    best = scans[_first_tied(np.array([s.min_modulus for s in scans]), low)]
    return ConvolutionScanReport(tuple(scans), low, best.eta, best.argmin_z, low < tol)


@dataclass(frozen=True)
class SufficiencyReport:
    max_offset: float
    threshold: float
    holds: bool
    argmax_z: complex


@_in_range("sufficiency_predicate")
def sufficiency_predicate(
    f: LaurentSeries,
    cp: ClassParams,
    wp: WrightParams,
    grid: GridSpec = GridSpec(),
) -> SufficiencyReport:
    """Grid maximum of |R(z) + 1| against the threshold (1+gamma) cos(theta).

    Staying at or below the threshold on the whole punctured disk is
    sufficient for membership; the grid version witnesses only the sampled
    points, and reports the first grid point tied with the maximum.
    """
    return _sufficiency_report(*_grid_ratio(*_ratio_parts(f, cp, wp), grid), cp)


def _sufficiency_report(
    pts: np.ndarray, ratio: np.ndarray, cp: ClassParams
) -> SufficiencyReport:
    """The :func:`sufficiency_predicate` report on R sampled at ``pts``."""
    offsets = np.abs(ratio + 1.0)
    highest = float(offsets.max())
    threshold = (1.0 + cp.gamma) * math.cos(cp.theta)
    return SufficiencyReport(
        highest, threshold, highest <= threshold,
        complex(pts[_first_tied(-offsets, -highest)]),
    )

