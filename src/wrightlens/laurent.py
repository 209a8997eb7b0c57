"""Arithmetic on truncated series of the shape principal/z + sum a_n z^n.

Every function of interest here lives on the punctured unit disk and has a
simple pole at the origin; the tail coefficients are stored densely.  Binary
operations truncate to the shorter operand: coefficients beyond a series'
truncation are unknown, not zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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
    "evaluate_ratio",
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


def evaluate_ratio(num: LaurentSeries, den: LaurentSeries, z):
    """num(z) / den(z) for a scalar or an ndarray of points, as :func:`evaluate`.

    A denominator that vanishes at a point raises
    :class:`SeriesDivisionError` carrying the first such point.
    """
    top, bottom = evaluate(num, z), evaluate(den, z)
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


def polar_grid(spec: GridSpec, r_max: float | None = None) -> np.ndarray:
    """Flattened complex sample points; optionally rescaled to end at r_max."""
    hi = spec.r_max if r_max is None else r_max
    lo = spec.r_min * (hi / spec.r_max)
    radii = np.geomspace(lo, hi, spec.radii)
    angles = np.exp(2j * np.pi * np.arange(spec.angles) / spec.angles)
    return np.outer(radii, angles).ravel()


def _read_indexed_csv(path, header: tuple[str, ...]) -> np.ndarray:
    """Read rows ``n,v_1,..,v_k`` under a k+1 column ``header`` into a table.

    The table has shape (max n, k) and row n >= 1 fills table row n-1;
    indices may appear in any order and absent ones are zero.  Lines
    starting with ``#`` are ignored.  Malformed content raises
    :class:`CoefficientFileError` with the offending line.
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
                if [c.strip().lower() for c in row[: len(header)]] != list(header):
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
            except ValueError as exc:
                raise CoefficientFileError(
                    f"line {line_no}: {exc}", line=line_no
                ) from exc
            if n < 1 or n in entries:
                problem = "is below 1" if n < 1 else "is a duplicate"
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


def write_coefficient_csv(stream, f: LaurentSeries, params_comment: str) -> None:
    """Write the tail of ``f`` in the ``n,re,im`` format with a # params line."""
    stream.write(f"# params: {params_comment}\n")
    stream.write("n,re,im\n")
    for n in range(1, f.truncation + 1):
        a = complex(f.coeffs[n - 1])
        stream.write(f"{n},{a.real!r},{a.imag!r}\n")
