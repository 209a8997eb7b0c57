"""The kernel coefficients phi_n and the factorially-damped series they feed.

The operator kernel used throughout the package is built from coefficients

    phi_n(alpha, beta) = 1 / (Gamma(alpha*n + beta) * n!),    n >= 1,

and the associated entire series sum_{n>=1} phi_n * z**n.  Note the sum
starts at the linear term; there is no constant term.

Every gamma value comes in log space from the standard library's
math.lgamma, with the sign of Gamma(x) for x < 0 from the parity of
floor(x); phi_n is then sign * exp(-log|Gamma(alpha*n + beta) n!|), built
once per (alpha, beta) into a memoised table that every reader shares.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ParameterError, PoleError

__all__ = [
    "WrightParams",
    "WrightEval",
    "phi_values",
    "wright_eval",
]

_POLE_TOL = 1e-12

_TERM_TOL = 1e-16
_MAX_TERMS = 500
_MIN_TABLE = 64


def _near_pole(x: np.ndarray) -> np.ndarray:
    k = np.rint(x)
    with np.errstate(invalid="ignore"):  # inf - inf at an overflowed argument
        return (k <= 0.0) & (np.abs(x - k) <= _POLE_TOL)


def _signed_lgamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (sign, log|Gamma(x)|) over a 1-d array, from math.lgamma.

    For x < 0 the sign follows the parity of floor(x).  Pole entries get
    (0, inf), so sign * exp(-log) is 0 there; callers decide.  An argument
    whose log-gamma overflows, or that is itself inf, gets log inf."""
    log_abs = np.empty_like(x)
    for i, v in enumerate(x.tolist()):
        try:
            log_abs[i] = math.lgamma(v)
        except (OverflowError, ValueError):  # ValueError: an exact pole
            log_abs[i] = math.inf
    sign = np.ones_like(x)
    negative = x < 0.0
    sign[negative] = 1.0 - 2.0 * (np.floor(x[negative]) % 2.0)
    pole = _near_pole(x)
    sign[pole], log_abs[pole] = 0.0, np.inf
    return sign, log_abs


def _log_inverse_phi(params: WrightParams, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sign, log|Gamma(alpha*n + beta) n!|) over float indices n >= 1.

    Both gamma factors come from one route call; a pole index gets sign 0."""
    with np.errstate(over="ignore"):  # an alpha*n + beta past the double range
        x = np.concatenate((params.alpha * n + params.beta, n + 1.0))
    sign, log_abs = _signed_lgamma(x)
    return sign[: n.size], log_abs[: n.size] + log_abs[n.size :]


def _pole_error(params: WrightParams, bad) -> PoleError:
    return PoleError(
        f"alpha*n + beta hits a gamma pole (tolerance {_POLE_TOL}) at "
        f"n={[int(n) for n in bad]} for alpha={params.alpha!r}, beta={params.beta!r}"
    )


@dataclass(frozen=True)
class WrightParams:
    """Kernel parameters (alpha, beta) with alpha > -1 and beta > 0.

    Gamma arguments alpha*n + beta may still hit poles for particular
    indices; :func:`phi_values` and :func:`wright_eval` raise
    :class:`PoleError` when they reach one.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError("alpha and beta must be finite")
        if self.alpha <= -1.0:
            raise ParameterError(f"alpha must exceed -1, got {self.alpha!r}")
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be positive, got {self.beta!r}")


@lru_cache(maxsize=64)
def _coefficient_table(params: WrightParams, size: int) -> tuple[np.ndarray, ...]:
    """Read-only (sign, log|Gamma(alpha*n + beta) n!|, phi_n) for n = 1..size.

    One log-space route call; the route is elementwise, so a prefix of the
    table is bit-identical to a shorter call.  A pole index has sign 0 and
    phi 0, and only the readers that reach it raise."""
    sign, log_inv = _log_inverse_phi(params, np.arange(1.0, size + 1))
    values = sign * np.exp(-log_inv)
    for arr in (sign, log_inv, values):
        arr.setflags(write=False)
    return sign, log_inv, values


def _table(params: WrightParams, n_max: int) -> tuple[np.ndarray, ...]:
    """The memoised table of :func:`_coefficient_table` covering n = 1..n_max.

    Its size is the smallest power of two >= max(64, n_max), so every order
    in one band (1-64, 65-128, 129-256, ...) shares one table."""
    size = max(_MIN_TABLE, 1 << (operator.index(n_max) - 1).bit_length())
    return _coefficient_table(params, size)


def phi_values(params: WrightParams, n_max: int) -> np.ndarray:
    """Coefficients phi_1 .. phi_n_max, a prefix of the pair's memoised table.

    The array is read-only and shared between calls: copy it before writing
    into it.  Past the order where phi_n leaves the double range the values
    underflow to 0."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max!r}")
    sign, _, values = (a[:n_max] for a in _table(params, n_max))
    if not sign.all():
        raise _pole_error(params, np.flatnonzero(sign == 0.0) + 1)
    return values


class WrightEval(NamedTuple):
    value: complex
    terms: int
    # sum |t_n| / |sum t_n|: about 1 without cancellation, and roughly the
    # factor by which rounding error is amplified in the returned value
    cancellation: float = 1.0


def wright_eval(params: WrightParams, z: complex) -> WrightEval:
    """Sum the series sum_{n>=1} z**n / (Gamma(alpha*n + beta) n!).

    Terms are added until one falls below 1e-16 * (1 + |partial sum|), with
    a hard cap of 500 terms; the achieved term count is returned alongside
    the value, with the cancellation ratio sum |t_n| / |sum t_n| (inf for
    an exactly zero sum, 1.0 at z = 0).  Exceeding the cap, or overflowing
    mid-sum, raises :class:`ConvergenceError`; reaching a pole index raises
    :class:`PoleError`.  The coefficients come from the pair's memoised
    table.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"z must be finite, got {z!r}")
    if z == 0:
        return WrightEval(0j, 0)
    total = 0j
    mass = 0.0
    z_pow = 1.0 + 0j
    sign, _, values = (a[:_MAX_TERMS] for a in _table(params, _MAX_TERMS))
    for n, (s, c) in enumerate(zip(sign.tolist(), values.tolist()), 1):
        if not s:
            raise _pole_error(params, [n])
        z_pow *= z
        term = c * z_pow
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise ConvergenceError(
                f"series term overflowed at n={n} for z={z!r}; "
                "argument is outside the supported range"
            )
        size = abs(term)
        total += term
        mass += size
        if size <= _TERM_TOL * (1.0 + abs(total)):
            return WrightEval(total, n, mass / abs(total) if total else math.inf)
    raise ConvergenceError(
        f"series did not meet the stopping rule within {_MAX_TERMS} terms for z={z!r}"
    )
