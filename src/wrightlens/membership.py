"""Membership machinery for the operator-defined function class.

A series f with unit principal part belongs to the class exactly when the
normalized transform tau(z) built from the ratio

    R(z) = z H'(z) / [(1-lam) H(z) + lam z H'(z)],    H = operator image of f,

has positive real part on the punctured disk.  tau(0) = 1 is forced, so tau
is a Caratheodory function and can be parametrized by a Schwarz function w
through tau = (1+w)/(1-w).  This module provides the transform, grid-based
membership verdicts, the Schwarz-driven generator that inverts the
construction, the convolution kernel whose non-vanishing characterizes
membership, and the sufficiency threshold test.

One structural point drives several APIs here: expanding the defining
relation in powers of z forces the z^1 coefficient of tau to vanish, so only
Schwarz functions with w'(0) = 0 can be reproduced exactly by a series with
no constant term.  The generator still accepts a linear term -- it solves
the coefficient relations from power z^1 upward, which is what the extremal
first-coefficient construction needs -- but round trips through tau are only
exact on the w'(0) = 0 family.
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
    apply_operator,
    evaluate,
    evaluate_ratio,
    hadamard,
    lambda_mix,
    polar_grid,
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
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("Schwarz coefficients must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("Schwarz coefficients must be finite")
        if float(np.sum(np.abs(arr))) >= 1.0:
            raise ParameterError(
                "sum |c_k| must stay strictly below 1 to keep |w| < 1, got "
                f"{float(np.sum(np.abs(arr)))!r}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def monomial(cls, c: complex, power: int) -> "SchwarzFunction":
        if power < 1:
            raise ParameterError(f"monomial power must be >= 1, got {power!r}")
        arr = np.zeros(power, dtype=complex)
        arr[power - 1] = c
        return cls(arr)

    @property
    def mass(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=complex)
        out = z_arr * np.polyval(self.coeffs[::-1], z_arr)
        return complex(out) if z_arr.ndim == 0 else out

    def taylor(self, n_max: int) -> np.ndarray:
        """Coefficients w_0 .. w_n_max (w_0 = 0) padded or truncated."""
        out = np.zeros(n_max + 1, dtype=complex)
        m = min(len(self.coeffs), n_max)
        out[1 : m + 1] = self.coeffs[:m]
        return out


def _tau_constants(cp: ClassParams) -> tuple[complex, float, float]:
    """(numerator shift, denominator, 1-2*lam) for the tau normalization."""
    one_m2 = 1.0 - 2.0 * cp.lam
    shift = -cp.gamma * math.cos(cp.theta) + 1j * math.sin(cp.theta) / one_m2
    denom = -math.cos(cp.theta) * (1.0 / one_m2 + cp.gamma)
    return shift, denom, one_m2


def _ratio(f: LaurentSeries, cp: ClassParams, wp: WrightParams, z):
    """R(z): the z-derivative over the lambda mix of the operator image H."""
    h = apply_operator(wp, f)
    return evaluate_ratio(z_derivative(h), lambda_mix(h, cp.lam), z)


def tau_transform(f: LaurentSeries, cp: ClassParams, wp: WrightParams, z):
    """tau(z) = [e^{i theta} R(z) + shift] / denom for scalar or array z.

    R is the ratio of the z-derivative to the lambda mix of the operator
    image; a vanishing mix denominator raises :class:`SeriesDivisionError`
    carrying the offending point.
    """
    shift, denom, _ = _tau_constants(cp)
    return (cmath.exp(1j * cp.theta) * _ratio(f, cp, wp, z) + shift) / denom


@dataclass(frozen=True)
class MembershipReport:
    """Grid-certified verdict: about the sampled grid, not all of the disk."""

    min_re_tau: float
    argmin_z: complex
    grid_spec: GridSpec
    verdict: str  # "member" | "not_member" | "inconclusive"
    diagnostic: str | None = None


def membership_check(
    f: LaurentSeries,
    cp: ClassParams,
    wp: WrightParams,
    grid: GridSpec = GridSpec(),
    tol: float = _MEMBERSHIP_TOL,
) -> MembershipReport:
    """Minimize Re tau over the polar grid and classify the sign.

    ``member`` needs the minimum above +tol, ``not_member`` below -tol;
    anything inside the band -- or a division failure -- is inconclusive.
    """
    pts = polar_grid(grid)
    try:
        values = tau_transform(f, cp, wp, pts)
    except SeriesDivisionError as exc:
        return MembershipReport(
            math.nan, exc.at, grid, "inconclusive", diagnostic=str(exc)
        )
    re = np.real(values)
    idx = int(np.argmin(re))
    lowest = float(re[idx])
    if lowest > tol:
        verdict = "member"
    elif lowest < -tol:
        verdict = "not_member"
    else:
        verdict = "inconclusive"
    return MembershipReport(lowest, complex(pts[idx]), grid, verdict)


def a_of_t(cp: ClassParams, w: SchwarzFunction, t):
    """Ratio target A(t) induced by the Schwarz parametrization.

    A(t) = e^{-i theta} [gamma cos(theta) - i sin(theta)/(1-2 lam)]
         - e^{-i theta} cos(theta) (1/(1-2 lam) + gamma) (1+w(t))/(1-w(t)),

    which satisfies A(0) = -1/(1-2 lam) -- the value forced by the behavior
    of z H'(z)/H(z) at the origin.
    """
    t_arr = np.asarray(t, dtype=complex)
    if np.any(np.abs(t_arr) >= 1.0):
        raise ParameterError("A(t) is defined for |t| < 1")
    shift, denom, _ = _tau_constants(cp)
    wt = w(t_arr)
    tau = (1.0 + wt) / (1.0 - wt)
    phase = cmath.exp(-1j * cp.theta)
    out = phase * (-shift) + phase * denom * tau
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


def _ratio_target_series(cp: ClassParams, w: SchwarzFunction, n_max: int) -> np.ndarray:
    """Taylor coefficients of A(z) through order n_max (affine in tau)."""
    tau = caratheodory_series(w, n_max).coeffs
    shift, denom, _ = _tau_constants(cp)
    phase = cmath.exp(-1j * cp.theta)
    a = phase * denom * tau
    a[0] += phase * (-shift)
    return a


def _series_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Power-series quotient; den[0] must be nonzero."""
    if abs(den[0]) == 0.0:
        raise SeriesDivisionError("series division by a series vanishing at 0")
    out = np.zeros(len(num), dtype=complex)
    for n in range(len(num)):
        acc = num[n]
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        out[n] = acc / den[0]
    return out


def schwarz_generate(
    cp: ClassParams, wp: WrightParams, w: SchwarzFunction, n_max: int
) -> LaurentSeries:
    """Build the series whose ratio target is A(z) for the given w.

    Writing H(z) = 1/z + sum h_n z^n and G = (1-lam) A / (1 - lam A), the
    relation z H'(z) = G(z) H(z) matched at powers z^1, z^2, ... gives

        h_n = [ g_{n+1} + sum_{k=1}^{n-1} g_{n-k} h_k ] / (n + 1),

    and f recovers its coefficients by dividing out the kernel: a_n =
    h_n / phi_n.  g_0 = -1 is forced by construction and is re-checked; a
    mismatch raises :class:`ConsistencyError`.  When lam > 0 the divisor
    1 - lam A(z) is screened for zeros on a coarse sample grid first.  An
    a_n outside the double range (phi_n underflows past the order cap)
    raises :class:`OverflowError` naming the first such index.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max!r}")
    wp.check_indices(n_max)
    a = _ratio_target_series(cp, w, n_max + 1)
    if cp.lam == 0.0:
        g = a
    else:
        sample = polar_grid(GridSpec(radii=8, angles=32, r_min=0.05, r_max=0.95))
        div = 1.0 - cp.lam * a_of_t(cp, w, sample)
        worst = float(np.min(np.abs(div)))
        if worst < 1e-9:
            bad = complex(sample[int(np.argmin(np.abs(div)))])
            raise SeriesDivisionError(
                f"1 - lam*A(z) vanishes near z={bad!r} (|value| = {worst:.3e})",
                at=bad,
            )
        den = -cp.lam * a
        den[0] = 1.0 - cp.lam * a[0]
        g = _series_divide((1.0 - cp.lam) * a, den)
    if abs(g[0] + 1.0) > _G0_TOL:
        raise ConsistencyError(
            f"forced normalization g_0 = -1 failed (got {g[0]!r}); "
            "the ratio target series is inconsistent"
        )
    h = np.zeros(n_max + 1, dtype=complex)  # h[0] unused; 1-based below
    for n in range(1, n_max + 1):
        acc = g[n + 1]
        for k in range(1, n):
            acc += g[n - k] * h[k]
        h[n] = acc / (n + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        coeffs = h[1:] / phi_values(wp, n_max)
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise OverflowError(f"a_{bad[0] + 1} exceeds the floating-point range")
    return LaurentSeries(1.0, coeffs)


def convolution_kernel(
    cp: ClassParams, wp: WrightParams, eta: complex, n_max: int
) -> LaurentSeries:
    """Kernel whose coefficientwise product with f must avoid zero.

    K(z) = (1-2 lam)(1-eta) * (-1/z + sum n phi_n z^n)
         + e^{-i theta} C(eta) * (1/z + sum (1-lam+lam n) phi_n z^n),

    C(eta) = -gamma cos(theta)(1-2 lam)(1-eta) + i sin(theta)(1-eta)
           + (1+eta) cos(theta)(1 + gamma(1-2 lam)).

    eta must sit on the unit circle and differ from 1.
    """
    eta = complex(eta)
    if abs(abs(eta) - 1.0) > _ETA_TOL:
        raise ParameterError(f"|eta| must equal 1 within {_ETA_TOL}, got {eta!r}")
    if abs(eta - 1.0) <= _ETA_TOL:
        raise ParameterError("eta = 1 is excluded")
    theta, lam, gam = cp.theta, cp.lam, cp.gamma
    one_m2 = 1.0 - 2.0 * lam
    c_eta = (
        -gam * math.cos(theta) * one_m2 * (1.0 - eta)
        + 1j * math.sin(theta) * (1.0 - eta)
        + (1.0 + eta) * math.cos(theta) * (1.0 + gam * one_m2)
    )
    phase = cmath.exp(-1j * theta)
    ph = phi_values(wp, n_max)
    n = np.arange(1, n_max + 1)
    principal = one_m2 * (1.0 - eta) * (-1.0) + phase * c_eta
    coeffs = one_m2 * (1.0 - eta) * n * ph + phase * c_eta * (1.0 - lam + lam * n) * ph
    return LaurentSeries(principal, coeffs)


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
    certifies f is outside the class.
    """
    if eta_count < 8:
        raise ParameterError(f"eta_count must be >= 8, got {eta_count!r}")
    pts = polar_grid(grid)
    scans = []
    for j in range(1, eta_count):
        eta = cmath.exp(2j * math.pi * j / eta_count)
        kernel = convolution_kernel(cp, wp, eta, max(f.truncation, 1))
        conv = hadamard(f, kernel)
        mods = np.abs(evaluate(conv, pts))
        idx = int(np.argmin(mods))
        scans.append(EtaScan(eta, float(mods[idx]), complex(pts[idx])))
    best = min(scans, key=lambda s: s.min_modulus)
    return ConvolutionScanReport(
        tuple(scans), best.min_modulus, best.eta, best.argmin_z,
        best.min_modulus < tol,
    )


@dataclass(frozen=True)
class SufficiencyReport:
    max_offset: float
    threshold: float
    holds: bool
    argmax_z: complex


def sufficiency_predicate(
    f: LaurentSeries,
    cp: ClassParams,
    wp: WrightParams,
    grid: GridSpec = GridSpec(),
) -> SufficiencyReport:
    """Grid maximum of |R(z) + 1| against the threshold (1+gamma) cos(theta).

    Staying at or below the threshold on the whole punctured disk is
    sufficient for membership; the grid version witnesses only the sampled
    points.
    """
    pts = polar_grid(grid)
    offsets = np.abs(_ratio(f, cp, wp, pts) + 1.0)
    idx = int(np.argmax(offsets))
    threshold = (1.0 + cp.gamma) * math.cos(cp.theta)
    return SufficiencyReport(
        float(offsets[idx]), threshold, bool(offsets[idx] <= threshold),
        complex(pts[idx]),
    )

