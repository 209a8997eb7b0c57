"""Arithmetic on truncated series of the shape principal/z + sum a_n z^n.

Every function of interest here lives on the punctured unit disk and has a
simple pole at the origin; the tail coefficients are stored densely.  Binary
operations truncate to the shorter operand: coefficients beyond a series'
truncation are unknown, not zero.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    CoefficientFileError,
    EvalDomainError,
    ParameterError,
    SeriesDivisionError,
)
from .special import WrightParams, phi_values

__all__ = [
    "LaurentSeries",
    "TaylorSeries",
    "GridSpec",
    "hadamard",
    "wright_kernel",
    "apply_operator",
    "z_derivative",
    "lambda_mix",
    "evaluate",
    "polar_grid",
    "read_coefficient_csv",
    "write_coefficient_csv",
]


def _as_coeff_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ParameterError("coefficients must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParameterError("coefficients must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """principal/z + sum_{n=1}^{N} coeffs[n-1] * z**n, N = truncation.

    A truncation of zero (empty tail) represents the bare pole term, e.g.
    the function 1/z itself.  Instances are immutable.
    """

    principal: complex
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        p = complex(self.principal)
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise ParameterError("principal part must be finite")
        object.__setattr__(self, "principal", p)
        object.__setattr__(self, "coeffs", _as_coeff_array(self.coeffs))

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> complex:
        """Tail coefficient a_n (1-based); zero beyond the truncation."""
        if n < 1:
            raise ParameterError(f"coefficient index must be >= 1, got {n!r}")
        return complex(self.coeffs[n - 1]) if n <= self.truncation else 0j


@dataclass(frozen=True, eq=False)
class TaylorSeries:
    """sum_{n=0}^{N} coeffs[n] * z**n; holds analytic factors and products."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        if arr.size < 1:
            raise ParameterError("a Taylor series needs at least the constant term")
        object.__setattr__(self, "coeffs", arr)


def hadamard(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Coefficientwise product; truncation is the shorter of the two.

    The product is decomposed into real/imaginary parts so the result is
    bitwise symmetric in its operands; numpy's fused complex multiply is
    not, and exact commutativity is part of this operation's contract.
    """
    n = min(f.truncation, g.truncation)
    a, b = f.coeffs[:n], g.coeffs[:n]
    real = a.real * b.real - a.imag * b.imag
    imag = a.real * b.imag + a.imag * b.real
    p, q = complex(f.principal), complex(g.principal)
    principal = complex(
        p.real * q.real - p.imag * q.imag, p.real * q.imag + p.imag * q.real
    )
    return LaurentSeries(principal, real + 1j * imag)


def wright_kernel(params: WrightParams, n_max: int) -> LaurentSeries:
    """The kernel series 1/z + sum phi_n z^n truncated at n_max."""
    return LaurentSeries(1.0, phi_values(params, n_max).astype(complex))


def apply_operator(params: WrightParams, f: LaurentSeries) -> LaurentSeries:
    """Multiply tail coefficient n by phi_n(alpha, beta); principal unchanged."""
    return LaurentSeries(
        f.principal, f.coeffs * phi_values(params, f.truncation)
    )


def z_derivative(f: LaurentSeries) -> LaurentSeries:
    """z * f'(z): principal negated, tail coefficient n scaled by n."""
    n = np.arange(1, f.truncation + 1)
    return LaurentSeries(-f.principal, f.coeffs * n)


def lambda_mix(f: LaurentSeries, lam: float) -> LaurentSeries:
    """(1-lam)*f + lam * z f'(z) for 0 <= lam < 1/2.

    The principal part becomes (1-2*lam) * principal and tail coefficient n
    picks up the factor (1 - lam + n*lam).
    """
    if not (0.0 <= lam < 0.5):
        raise ParameterError(f"lam must lie in [0, 1/2), got {lam!r}")
    n = np.arange(1, f.truncation + 1)
    return LaurentSeries(
        (1.0 - 2.0 * lam) * f.principal, f.coeffs * (1.0 - lam + n * lam)
    )


def evaluate(f: LaurentSeries, z):
    """Evaluate at z with 0 < |z| < 1; Horner tail plus principal/z.

    Accepts a scalar or an ndarray of points and returns the same shape.
    """
    z_arr = np.asarray(z, dtype=complex)
    mag = np.abs(z_arr)
    if np.any(mag == 0.0) or np.any(mag >= 1.0) or not np.all(np.isfinite(z_arr)):
        bad = z_arr if z_arr.ndim == 0 else z_arr[(mag == 0.0) | ~(mag < 1.0)][0]
        raise EvalDomainError(
            f"evaluation point must satisfy 0 < |z| < 1, got z={complex(bad)!r}"
        )
    if f.truncation:
        tail = z_arr * np.polyval(f.coeffs[::-1], z_arr)
    else:
        tail = np.zeros_like(z_arr)
    out = f.principal / z_arr + tail
    return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def _divide(top, bottom, z):
    """top / bottom, or :class:`SeriesDivisionError` at the first z where
    ``bottom`` is exactly zero."""
    zero = np.asarray(bottom) == 0
    if np.any(zero):
        bad = complex(np.asarray(z, dtype=complex)[zero].ravel()[0])
        raise SeriesDivisionError(f"denominator vanishes at z={bad!r}", at=bad)
    return top / bottom


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling grid: log-spaced radii crossed with uniform angles."""

    radii: int = 16
    angles: int = 64
    r_min: float = 0.05
    r_max: float = 0.95

    def __post_init__(self):
        if self.radii < 8:
            raise ParameterError(f"need at least 8 radii, got {self.radii!r}")
        if self.angles < 32:
            raise ParameterError(f"need at least 32 angles, got {self.angles!r}")
        if not (0.0 < self.r_min < self.r_max <= 0.95):
            raise ParameterError(
                f"radii must satisfy 0 < r_min < r_max <= 0.95, got "
                f"[{self.r_min!r}, {self.r_max!r}]"
            )


def _grid_radii(spec: GridSpec, r_max: float | None) -> np.ndarray:
    return _ring_radii(spec, spec.r_max if r_max is None else float(r_max))


@lru_cache(maxsize=64)
def _ring_radii(spec: GridSpec, hi: float) -> np.ndarray:
    """The ring radii, read-only: grid checks share one array per key."""
    lo = spec.r_min * (hi / spec.r_max)
    radii = np.geomspace(lo, hi, spec.radii)
    radii.setflags(write=False)
    return radii


def _ring_points(radii: np.ndarray, angles: int) -> np.ndarray:
    return np.outer(radii, np.exp(2j * np.pi * np.arange(angles) / angles)).ravel()


def polar_grid(spec: GridSpec, r_max: float | None = None) -> np.ndarray:
    """Flattened complex sample points; optionally rescaled to end at r_max."""
    return _ring_points(_grid_radii(spec, r_max), spec.angles)


def _grid_values(
    series: Sequence[LaurentSeries], spec: GridSpec, r_max: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(polar_grid(spec, r_max), values)``; ``values[j]`` is ``series[j]``
    at those points, in the same flattened order.

    On the ring |z| = r with w = e^{2 pi i/A}, A = spec.angles, the samples
    f(r w^k) = sum_n a_n r^n w^{(n mod A) k} + (principal/r) w^{(A-1) k} are
    one discrete Fourier sum, so the terms a_n r^n are folded modulo A and
    each ring costs one inverse FFT: O(R A log A) for the grid instead of
    Horner's O(R A n).  Folding runs A coefficients at a time, so memory
    stays O(R A) per series for any truncation.  The values are those at the
    exact roots of unity; the returned points are their rounding.
    """
    radii = _grid_radii(spec, r_max)
    a = spec.angles
    # terms[j, n] = a_n of series j (a_0 = 0, and zero past its truncation)
    terms = np.zeros((len(series), 1 + max(f.truncation for f in series)), complex)
    bins = np.zeros((len(series), len(radii), a), dtype=complex)
    for j, f in enumerate(series):
        terms[j, 1 : 1 + f.truncation] = f.coeffs
        bins[j, :, a - 1] = f.principal / radii
    for start in range(0, terms.shape[1], a):
        chunk = terms[:, start : start + a]
        powers = radii[:, None] ** np.arange(start, start + chunk.shape[1])
        bins[:, :, : chunk.shape[1]] += chunk[:, None, :] * powers
    values = np.fft.ifft(bins, axis=-1, norm="forward").reshape(len(series), -1)
    return _ring_points(radii, a), values


def _grid_ratio(
    num: LaurentSeries, den: LaurentSeries, spec: GridSpec, r_max: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(polar_grid(spec, r_max), num / den there)`` with :func:`_divide`'s
    zero guard: the one division of every grid check, each of which runs it
    inside :func:`_in_range`."""
    pts, (top, bottom) = _grid_values((num, den), spec, r_max)
    return pts, _divide(top, bottom, pts)


@contextmanager
def _in_range(check: str):
    """Run a grid check's arithmetic with numpy's floating-point faults raised:
    a value leaving the double range ends ``check`` with :class:`OverflowError`
    naming it, not with a report built on inf or nan and a ``RuntimeWarning``."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise OverflowError(
            f"{check}: a grid value exceeds the floating-point range ({exc})"
        ) from None


# Grid values within this relative distance of an extremum count as tied.
_TIE_RTOL = 1e-12


def _first_tied(values: np.ndarray, low: float) -> int:
    """Index of the first value within a relative _TIE_RTOL of the minimum.

    For a maximum pass both negated: ``_first_tied(-values, -high)``.
    """
    return int(np.argmax(values <= low * (1.0 + math.copysign(_TIE_RTOL, low))))


# The largest index a coefficient or weight file may use (it sizes the table),
# and the bound of the CLI's --n-max.
_MAX_INDEX = 10_000


def _read_indexed_csv(path, header: tuple[str, ...]) -> np.ndarray:
    """Read rows ``n,v_1,..,v_k`` under exactly the k+1 column ``header``.

    The table has shape (max n, k) and row n, 1 <= n <= ``_MAX_INDEX``,
    fills table row n-1; indices may appear in any order and absent ones
    are zero.  Lines starting with ``#`` are ignored.  Malformed content, a
    non-finite value included, raises :class:`CoefficientFileError` with
    the offending line.
    """
    name = ",".join(header)
    entries: dict[int, list[float]] = {}
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise CoefficientFileError(f"cannot read {path}: {exc}") from exc
    with handle:
        saw_header = False
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if not saw_header:
                if [c.strip().lower() for c in row] != list(header):
                    raise CoefficientFileError(
                        f"line {line_no}: expected header '{name}'", line=line_no
                    )
                saw_header = True
                continue
            if len(row) != len(header):
                raise CoefficientFileError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}",
                    line=line_no,
                )
            try:
                n = int(row[0])
                values = [float(v) for v in row[1:]]
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"values must be finite, got {row[1:]}")
            except ValueError as exc:
                raise CoefficientFileError(
                    f"line {line_no}: {exc}", line=line_no
                ) from exc
            if n < 1 or n > _MAX_INDEX or n in entries:
                problem = ("is below 1" if n < 1 else "is a duplicate" if n in entries
                           else f"is above {_MAX_INDEX}")
                raise CoefficientFileError(
                    f"line {line_no}: index {n} {problem}", line=line_no
                )
            entries[n] = values
        if not saw_header:
            raise CoefficientFileError(f"file has no '{name}' header line")
    table = np.zeros((max(entries, default=0), len(header) - 1))
    for n, values in entries.items():
        table[n - 1] = values
    return table


def read_coefficient_csv(path) -> LaurentSeries:
    """Read an ``n,re,im`` file (see :func:`_read_indexed_csv`); principal 1."""
    table = _read_indexed_csv(path, ("n", "re", "im"))
    # each C-ordered (re, im) row is one complex value
    return LaurentSeries(1.0, table.view(complex)[:, 0])


def _fmt(x) -> str:
    """A float by ``repr``, a complex as two fields, real and imaginary."""
    if isinstance(x, complex):
        return f"{float(x.real)!r},{float(x.imag)!r}"
    return repr(float(x)) if isinstance(x, float) else str(x)


def _table_lines(params: str, header: str, rows):
    """The lines of one CSV table: ``# params:``, the header, one per row.

    A row is a tuple of fields (:func:`_fmt`) or a string, written as
    a ``#`` line.  Rows are read only as the lines are.
    """
    yield f"# params: {params}\n"
    yield f"{header}\n"
    for row in rows:
        if isinstance(row, str):
            yield f"# {row}\n"
        else:
            yield ",".join(map(_fmt, row)) + "\n"


def write_coefficient_csv(stream, f: LaurentSeries, params_comment: str) -> None:
    """Write the tail of ``f`` in the ``n,re,im`` format with a # params line."""
    rows = enumerate(f.coeffs.tolist(), start=1)
    stream.writelines(_table_lines(params_comment, "n,re,im", rows))
