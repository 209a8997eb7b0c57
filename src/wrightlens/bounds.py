"""Coefficient-bound sequence A_n in recursive and closed-product form.

Both constructions share the shorthand

    L = cos(theta) * (1 + gamma*(1 - 2*lam)) > 0,

and are tied together by the ratio

    A_{n+1}/A_n = [(n+1)(1-lam) + 2(1-lam+n*lam) L] / [(n+2)(1-lam)]
                  * phi_n / phi_{n+1}.

The two routes agreeing to rounding is what makes the sequence trustworthy;
the test suite exercises exactly that equivalence.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import ParameterError
from .laurent import LaurentSeries, TaylorSeries, _in_range, apply_operator, lambda_mix
from .special import WrightParams, _pole_error, _table, phi_values

__all__ = [
    "ClassParams",
    "BoundSequence",
    "bound_sequence_recursive",
    "bound_sequence_closed",
    "operator_weights",
    "coefficient_bound_check",
    "BoundCheckRecord",
    "BoundCheckReport",
    "series_identity_oracle",
    "IdentityResiduals",
    "extraction_residuals",
]

# Boundary slack when flagging |a_n| <= A_n: extremal inputs sit exactly on
# the bound, so equality up to rounding counts as satisfied.
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ClassParams:
    """Class parameters (theta, lam, gamma).

    theta is an angle with |theta| < pi/2 so cos(theta) > 0; lam lies in
    [0, 1/2) so 1 - 2*lam > 0; gamma > 1 as the class demands.  Setting
    ``relaxed=True`` admits gamma in (0, 1] for exploration -- the derived
    positive constant L survives there.
    """

    theta: float
    lam: float
    gamma: float
    relaxed: bool = False

    def __post_init__(self):
        for name in ("theta", "lam", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if not abs(self.theta) < math.pi / 2:
            raise ParameterError(f"|theta| must be below pi/2, got {self.theta!r}")
        if not (0.0 <= self.lam < 0.5):
            raise ParameterError(f"lam must lie in [0, 1/2), got {self.lam!r}")
        if self.relaxed:
            if self.gamma <= 0.0:
                raise ParameterError(
                    f"relaxed gamma must be positive, got {self.gamma!r}"
                )
        elif self.gamma <= 1.0:
            raise ParameterError(
                f"gamma must exceed 1 (pass relaxed=True for (0, 1]), "
                f"got {self.gamma!r}"
            )

    @property
    def Lambda(self) -> float:
        """cos(theta) * (1 + gamma*(1 - 2*lam)); positive on the valid domain."""
        return math.cos(self.theta) * (1.0 + self.gamma * (1.0 - 2.0 * self.lam))


@dataclass(frozen=True, eq=False)
class BoundSequence:
    """Values A_1 .. A_N with the parameters and construction method used."""

    values: np.ndarray
    params: ClassParams
    wright: WrightParams
    method: Literal["recursive", "closed"]

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0]) + 1
            raise OverflowError(f"A_{bad} exceeds the floating-point range")
        if np.any(arr <= 0.0):
            bad = int(np.flatnonzero(arr <= 0.0)[0]) + 1
            raise ParameterError(
                f"A_{bad} is not positive; the kernel coefficient changes sign "
                "for these (alpha, beta), outside the bound sequence's domain"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def bound_sequence_recursive(
    cp: ClassParams, wp: WrightParams, n_max: int
) -> BoundSequence:
    """A_1 from the first relation, then the defining recursion.

    The bracketed partial sum is accumulated once, so the whole sequence
    costs O(n_max) beyond the phi evaluations.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max!r}")
    ph = phi_values(wp, n_max)
    lam, big_l = cp.lam, cp.Lambda
    values = np.empty(n_max)
    # Values past the double range turn inf/nan; BoundSequence reports them.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values[0] = (1.0 - 2.0 * lam) * big_l / ((1.0 - lam) * ph[0])
        running = 1.0 - 2.0 * lam
        for n in range(1, n_max):
            running += ph[n - 1] * (1.0 - lam + n * lam) * values[n - 1]
            values[n] = 2.0 * big_l * running / ((n + 2) * (1.0 - lam) * ph[n])
    return BoundSequence(values, cp, wp, "recursive")


def bound_sequence_closed(
    cp: ClassParams, wp: WrightParams, n_max: int
) -> BoundSequence:
    """A_n = w_n / phi_n with w_n = phi_n A_n the product of :func:`operator_weights`.

    The quotient is formed in log space with the sign of the gamma factor
    carried,

        log A_n = log w_n + log|Gamma(alpha*n + beta) n!|,

    the second term read from the memoised table behind :func:`phi_values`,
    so nothing overflows before A_n itself does; that raises
    :class:`OverflowError` naming the first such index.  Pole indices raise
    :class:`PoleError`.
    """
    weights = operator_weights(cp, wp, n_max)
    sign, log_inv, _ = (a[:n_max] for a in _table(wp, n_max))
    if not sign.all():
        raise _pole_error(wp, np.flatnonzero(sign == 0.0) + 1)
    # A_n past the double range turns inf; BoundSequence names the first.
    with np.errstate(over="ignore"):
        values = sign * np.exp(np.log(weights) + log_inv)
    return BoundSequence(values, cp, wp, "closed")


def operator_weights(cp: ClassParams, wp: WrightParams, n_max: int) -> np.ndarray:
    """phi_n * A_n for n = 1..n_max in the cancellation form.

    The kernel coefficient divides out of the closed product, leaving

        w_1 = L(1-2*lam)/(1-lam),   w_{n+1} = w_n * factor_n / (1-lam),

    which grows at most geometrically and never touches a gamma evaluation.
    The product is one running product over [w_1, factor_n/(1-lam)], so the
    values agree with the step-by-step recursion to rounding.  Entries past
    the double range are inf, without a warning; :class:`BoundSequence` and
    the radius solver name the first such index.

    The result depends on (lam, L, n_max) only (wp divides out) and is
    memoised on them, so the array is read-only and shared between calls.
    """
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max!r}")
    return _weight_product(float(cp.lam), float(cp.Lambda), operator.index(n_max))


@lru_cache(maxsize=64)
def _weight_product(lam: float, big_l: float, n_max: int) -> np.ndarray:
    n = np.arange(1, n_max)
    steps = np.empty(n_max)
    steps[0] = big_l * (1.0 - 2.0 * lam) / (1.0 - lam)
    with np.errstate(over="ignore"):
        factor = ((n + 1) * (1.0 - lam) + 2.0 * (1.0 - lam + n * lam) * big_l) / (n + 2)
        steps[1:] = factor / (1.0 - lam)
        weights = np.multiply.accumulate(steps)
    weights.setflags(write=False)
    return weights


@dataclass(frozen=True)
class BoundCheckRecord:
    n: int
    abs_coefficient: float
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class BoundCheckReport:
    records: tuple[BoundCheckRecord, ...]
    all_satisfied: bool


@_in_range("coefficient_bound_check")
def coefficient_bound_check(
    f: LaurentSeries, cp: ClassParams, wp: WrightParams
) -> BoundCheckReport:
    """Compare |a_n| against A_n for every stored coefficient of f.

    Any violated bound certifies that f is outside the class for these
    parameters.  The flag allows relative slack 1e-9 so extremal inputs
    sitting exactly on the bound count as satisfied.
    """
    if f.principal != 1:
        raise ParameterError(
            f"bound check expects a principal part of 1, got {f.principal!r}"
        )
    if f.truncation == 0:
        return BoundCheckReport((), True)
    bound = bound_sequence_closed(cp, wp, f.truncation).values
    # hypot, as the scalar abs: the vector np.abs can differ by an ulp
    abs_a = np.hypot(f.coeffs.real, f.coeffs.imag)
    within = abs_a <= bound * (1.0 + _BOUND_SLACK)
    records = map(
        BoundCheckRecord, range(1, f.truncation + 1),
        abs_a.tolist(), bound.tolist(), within.tolist(),
    )
    return BoundCheckReport(tuple(records), bool(within.all()))


@dataclass(frozen=True, eq=False)
class IdentityResiduals:
    """Per-power residuals of the defining series relation.

    ``powers[j]`` is the power of z whose coefficient residual (left side
    minus right side) is ``residuals[j]``; powers run from -1 upward.
    """

    powers: np.ndarray
    residuals: np.ndarray

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0


@_in_range("series_identity_oracle")
def series_identity_oracle(
    f: LaurentSeries, tau: TaylorSeries, cp: ClassParams, wp: WrightParams
) -> IdentityResiduals:
    """Residuals of the defining relation for a candidate pair (f, tau).

    Both sides are expanded by direct coefficientwise (Cauchy) products:

        e^{i theta} z H'(z)  vs  [(1-lam) H + lam z H'] * B(z),
        B(z) = -e^{i theta}/(1-2*lam) - L/(1-2*lam) * (tau(z) - 1),

    with H the operator image of f.  A pair satisfying the relation gives
    residuals at rounding level; an unrelated pair generically does not.
    This route is independent of the per-coefficient extraction identities,
    so it can arbitrate them.
    """
    if f.principal != 1:
        raise ParameterError("oracle expects a principal part of 1")
    if abs(tau.coeffs[0] - 1.0) > 1e-12:
        raise ParameterError(
            f"tau must be normalized to tau(0) = 1, got {tau.coeffs[0]!r}"
        )
    theta, lam, big_l = cp.theta, cp.lam, cp.Lambda
    phase = cmath.exp(1j * theta)
    one_m2 = 1.0 - 2.0 * lam

    h = apply_operator(wp, f)
    d = lambda_mix(h, lam)

    # B_0 collapses to -e^{i theta}/(1-2 lam) because the constant parts of
    # the bracket cancel exactly; keep the cancellation explicit.
    b = np.empty(len(tau.coeffs), dtype=complex)
    b[0] = -phase / one_m2
    b[1:] = -(big_l / one_m2) * tau.coeffs[1:]

    # Both sides as coefficient vectors over the powers -1, 0, 1, ..., so
    # z H' is a scaling and the right side one Cauchy product.  The right
    # side at z^n needs B_{n+1}; cap the comparison there.
    n_top = min(f.truncation, len(b) - 2)
    powers = np.arange(-1, n_top + 1)
    h_full, d_full = (np.concatenate(([s.principal, 0.0], s.coeffs)) for s in (h, d))
    rhs = np.convolve(d_full, b)[: n_top + 2]
    if not np.all(np.isfinite(rhs)):  # np.convolve sets no floating-point flag
        raise FloatingPointError("overflow encountered in convolve")
    residuals = phase * powers * h_full[: n_top + 2] - rhs
    return IdentityResiduals(powers, residuals)


@_in_range("extraction_residuals")
def extraction_residuals(
    f: LaurentSeries, tau: TaylorSeries, cp: ClassParams, wp: WrightParams
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Residuals of the per-coefficient extraction identities.

    Returns ``(first, phased, unphased)``:

    * ``first``: residual of 2 e^{i theta}(1-lam) phi_1 a_1 + L(1-2 lam) tau_2,
    * ``phased[n-2]``: for n >= 2, the identity variant with an extra
      e^{-i theta} phase on the bracket side,
    * ``unphased[n-2]``: the same identity with the bracket side carrying no
      phase, which is what the direct series expansion produces.

    The two variants coincide at theta = 0; the oracle arbitrates between
    them away from it.
    """
    theta, lam, big_l = cp.theta, cp.lam, cp.Lambda
    phase = cmath.exp(1j * theta)
    n_top = min(f.truncation, len(tau.coeffs) - 2)
    if n_top < 1:
        raise ParameterError("need tau through index n+1 and at least a_1")
    ph = phi_values(wp, n_top)
    first = (
        2.0 * phase * (1.0 - lam) * ph[0] * f.coeffs[0]
        + big_l * (1.0 - 2.0 * lam) * tau.coeffs[2]
    )
    # bracket_n = (1-2 lam) tau_{n+1} + sum_{k=1}^{n-1} u_k tau_{n-k}
    u = ph * (1.0 - lam + np.arange(1, n_top + 1) * lam) * f.coeffs[:n_top]
    cauchy = np.convolve(u, tau.coeffs[1:])[: n_top - 1]
    if not np.all(np.isfinite(cauchy)):  # as in series_identity_oracle
        raise FloatingPointError("overflow encountered in convolve")
    bracket = (1.0 - 2.0 * lam) * tau.coeffs[3 : n_top + 2] + cauchy
    lhs = phase * np.arange(3, n_top + 2) * (1.0 - lam) * ph[1:] * f.coeffs[1:n_top]
    phased = lhs + big_l * bracket / phase
    unphased = lhs + big_l * bracket
    return first, phased, unphased
