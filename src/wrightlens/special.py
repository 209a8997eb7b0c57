"""Real-argument gamma function and the factorially-damped series it feeds.

The operator kernel used throughout the package is built from coefficients

    phi_n(alpha, beta) = 1 / (Gamma(alpha*n + beta) * n!),    n >= 1,

and the associated entire series sum_{n>=1} phi_n * z**n.  Note the sum
starts at the linear term; there is no constant term.
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
    "gamma",
    "signed_lgamma",
    "phi",
    "phi_values",
    "wright_eval",
]

# Lanczos approximation, g = 7 with 9 coefficients.  In log space, with the
# reflection formula, this holds ~1e-13 relative error over the range the
# package uses; the contract only promises 1e-12 on [0.1, 50].
_LANCZOS_G = 7.0
_LANCZOS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_LANCZOS_SHIFT = np.arange(1.0, len(_LANCZOS))[:, None]

_SQRT_TWO_PI = 2.5066282746310002
_POLE_TOL = 1e-12

_TERM_TOL = 1e-16
_MAX_TERMS = 500
_MIN_TABLE = 64


def _near_pole(x: np.ndarray) -> np.ndarray:
    k = np.rint(x)
    return (k <= 0.0) & (np.abs(x - k) <= _POLE_TOL)


def _signed_lgamma(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (sign, log|Gamma(x)|) over a finite 1-d array.

    Pole entries get (0, inf), so sign * exp(-log) is 0 there; callers decide."""
    reflect = x < 0.5
    z = x - 1.0
    z[reflect] = -x[reflect]  # Lanczos at 1 - x for the reflected entries
    t = z + (_LANCZOS_G + 0.5)
    series = _LANCZOS[0] + (_LANCZOS[1:, None] / (z + _LANCZOS_SHIFT)).sum(axis=0)
    sign = np.ones_like(z)
    with np.errstate(over="ignore", divide="ignore"):
        log_abs = np.log(_SQRT_TWO_PI * series) + (z + 0.5) * np.log(t) - t
        if reflect.any():
            # Gamma(x) Gamma(1-x) = pi / sin(pi x).  sin is reduced against
            # the nearest integer before multiplying by pi so it stays
            # relatively accurate close to its zeros.
            r = x[reflect]
            k = np.rint(r)
            s = np.sin(np.pi * (r - k)) * np.where(k % 2.0, -1.0, 1.0)
            sign[reflect] = np.sign(s)
            log_abs[reflect] = np.log(np.pi / np.abs(s)) - log_abs[reflect]
            pole = _near_pole(x)
            sign[pole], log_abs[pole] = 0.0, np.inf
    return sign, log_abs


def _log_inverse_phi(params: WrightParams, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sign, log|Gamma(alpha*n + beta) n!|) over float indices n >= 1.

    Both gamma factors come from one route call; a pole index gets sign 0."""
    x = np.concatenate((params.alpha * n + params.beta, n + 1.0))
    sign, log_abs = _signed_lgamma(x)
    return sign[: n.size], log_abs[: n.size] + log_abs[n.size :]


def _pole_error(params: WrightParams, bad) -> PoleError:
    return PoleError(
        f"alpha*n + beta hits a gamma pole (tolerance {_POLE_TOL}) at "
        f"n={[int(n) for n in bad]} for alpha={params.alpha!r}, beta={params.beta!r}"
    )


def signed_lgamma(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) as floats; x within 1e-12 of a pole raises PoleError."""
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"gamma argument must be finite, got {x!r}")
    sign, log_abs = _signed_lgamma(np.array([x]))
    if not sign[0]:
        raise PoleError(f"gamma pole at x={x!r}")
    return float(sign[0]), float(log_abs[0])


def gamma(x: float) -> float:
    """Gamma(x) for real x, as sign * exp(log|Gamma(x)|) from :func:`signed_lgamma`.

    Relative error <= 1e-12 on [0.1, 50].  Arguments within 1e-12 of a
    non-positive integer raise :class:`PoleError`, and x above about 171.6
    :class:`OverflowError`; below -171.6 Gamma(x) underflows towards zero.
    """
    sign, log_abs = signed_lgamma(x)
    return sign * math.exp(log_abs)


@dataclass(frozen=True)
class WrightParams:
    """Kernel parameters (alpha, beta) with alpha > -1 and beta > 0.

    Gamma arguments alpha*n + beta may still hit poles for particular
    indices; :func:`phi`, :func:`phi_values` and :func:`wright_eval` raise
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


def _phi(params: WrightParams, n: np.ndarray) -> np.ndarray:
    sign, log_inv = _log_inverse_phi(params, n)
    if not sign.all():
        raise _pole_error(params, n[sign == 0.0])
    return sign * np.exp(-log_inv)


def phi(params: WrightParams, n: int) -> float:
    """Kernel coefficient 1 / (Gamma(alpha*n + beta) * n!).

    Formed as sign * exp(-log|Gamma(alpha*n + beta) n!|), like
    :func:`phi_values`, so no intermediate overflows for indices whose
    coefficient is representable.
    """
    if n < 1:
        raise ParameterError(f"coefficient index must be >= 1, got {n!r}")
    return float(_phi(params, np.array([float(n)]))[0])


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
    table in two blocks, 1-64 and 65-500; only a longer sum reads the second.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"z must be finite, got {z!r}")
    if z == 0:
        return WrightEval(0j, 0)
    total = 0j
    mass = 0.0
    z_pow = 1.0 + 0j
    n = 0
    for stop in (_MIN_TABLE, _MAX_TERMS):
        sign, _, values = _table(params, stop)
        for s, c in zip(sign[n:stop].tolist(), values[n:stop].tolist()):
            n += 1
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
