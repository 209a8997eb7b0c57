"""Command-line surface: every computation as a reproducible subcommand.

All tabular output is CSV with a leading ``# params:`` comment echoing the
full configuration, so identical flags produce byte-identical output.

Each ``cmd_*`` computes its whole result, then returns its exit code and an
ordered list of ``(destination, lines)``: stdout, stderr or an ``--out`` path.
``_write`` opens every path before it writes a line, so a command that exits
2, 3 or 5 leaves stdout empty and writes no ``--out`` file.

Exit codes: 0 success, 1 stdout closed before the output was complete,
2 parameter error or unwritable ``--out``, 3 numerical failure, 4 truncation
warning under --strict, 5 malformed input file.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import ExitStack
from functools import partial
from itertools import chain

import numpy as np

from . import bounds as bounds_mod
from . import membership as member_mod
from . import radii as radii_mod
from .errors import (
    CoefficientFileError, EvalDomainError, ParameterError, TruncationWarning
)
from .laurent import (
    _MAX_INDEX, GridSpec, _divide, _fmt, _in_range, _read_indexed_csv, _table_lines,
    read_coefficient_csv,
)
from .special import WrightParams, phi_values, wright_eval

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_PARAMETER = 2
EXIT_NUMERICAL = 3
EXIT_TRUNCATION = 4
EXIT_INPUT = 5

SEED_ENV = "WRIGHTLENS_SEED"

# Where an output goes when it is not an --out path.
_STDOUT, _STDERR = 1, 2

# Upper bounds on the size flags, checked before any subcommand allocates.
_SIZE_LIMITS = {
    "n_max": ("--n-max", _MAX_INDEX),
    "steps": ("--steps", 10_000),
    "eta_count": ("--eta-count", 4_096),
    "grid_radii": ("--grid-radii", 1_024),
    "grid_angles": ("--grid-angles", 4_096),
    "random": ("--random", 10_000),
    "extremal_n": ("--extremal-n", 10_000),
}


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (imaginary unit i or j, either part optional)."""
    try:
        return complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ParameterError(f"cannot parse complex number from {text!r}") from None


def parse_schwarz(text: str) -> member_mod.SchwarzFunction:
    """A Schwarz function of the class: its linear coefficient c1 must be 0."""
    coeffs = [parse_complex(tok) for tok in text.split(",") if tok.strip()]
    if not coeffs:
        raise ParameterError("--schwarz needs at least one coefficient")
    if coeffs[0] != 0:
        raise ParameterError(
            "--schwarz must start with c1 = 0: the class is parametrised by "
            f"Schwarz functions with w'(0) = 0, got c1={coeffs[0]!r}"
        )
    return member_mod.SchwarzFunction(np.array(coeffs, dtype=complex))


def get_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _check_size_limits(args) -> None:
    for dest, (flag, limit) in _SIZE_LIMITS.items():
        value = getattr(args, dest, None)
        if value is not None and value > limit:
            raise ParameterError(f"{flag} must be <= {limit}, got {value!r}")


def _operator_fields(args) -> str:
    """The class and kernel parameters as ``# params:`` fields."""
    return (
        f"theta={_fmt(args.theta)} lam={_fmt(args.lam)} gamma={_fmt(args.gamma)} "
        f"alpha={_fmt(args.alpha)} beta={_fmt(args.beta)}"
    )


def _class_params(args) -> bounds_mod.ClassParams:
    return bounds_mod.ClassParams(args.theta, args.lam, args.gamma, args.relaxed)


def _wright_params(args) -> WrightParams:
    return WrightParams(args.alpha, args.beta)


def _grid(args) -> GridSpec:
    return GridSpec(args.grid_radii, args.grid_angles, args.min_radius, args.max_radius)


def _add_wright_args(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)


def _add_class_args(p):
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument(
        "--relaxed", action="store_true", help="accept gamma in (0, 1] as well"
    )


def _add_grid_args(p):
    p.add_argument("--grid-radii", type=int, default=16)
    p.add_argument("--grid-angles", type=int, default=64)
    p.add_argument("--min-radius", type=float, default=0.05)
    p.add_argument("--max-radius", type=float, default=0.95)


def cmd_wright(args):
    z = parse_complex(args.z)
    result = wright_eval(_wright_params(args), z)
    return EXIT_OK, [(_STDOUT, _table_lines(
        f"alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} z={z!r}",
        "re,im,terms_used", [(result.value, result.terms)],
    ))]


def cmd_phi_table(args):
    values = phi_values(_wright_params(args), args.n_max)
    return EXIT_OK, [(_STDOUT, _table_lines(
        f"alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} n_max={args.n_max}",
        "n,phi", enumerate(values, start=1),
    ))]


def cmd_bounds(args):
    cp = _class_params(args)
    wp = _wright_params(args)
    rec = bounds_mod.bound_sequence_recursive(cp, wp, args.n_max)
    clo = bounds_mod.bound_sequence_closed(cp, wp, args.n_max)
    pairs = zip(rec.values.tolist(), clo.values.tolist())
    rows = ((n, a, b, abs(a - b) / max(abs(a), abs(b)))
            for n, (a, b) in enumerate(pairs, start=1))
    return EXIT_OK, [(_STDOUT, _table_lines(
        f"{_operator_fields(args)} n_max={args.n_max} relaxed={args.relaxed}",
        "n,A_n_recursive,A_n_closed,rel_diff", rows,
    ))]


def _radius_queries(args, kind: str):
    """(rho -> query, source description); source priority: extremal, file, class.

    The weight source is resolved once, so a curve reuses it for every rho.
    """
    if args.extremal_n is not None:
        k = args.extremal_n
        query = partial(radii_mod.single_weight_query, kind, dominant_n=k, tol=args.tol)
        return query, f"extremal_n={k}"
    if args.weights is not None:
        w = _read_indexed_csv(args.weights, ("n", "weight"))[:, 0]
        if not w.size:
            raise CoefficientFileError("weight file lists no weights")
        query = partial(radii_mod.RadiusQuery, kind=kind, weights=w, tol=args.tol)
        return query, f"weights={args.weights}"
    if args.theta is None or args.lam is None or args.gamma is None:
        raise ParameterError(
            "radius needs --extremal-n, --weights, or full class parameters "
            "(--theta --lam --gamma --alpha --beta)"
        )
    if args.alpha is None or args.beta is None:
        raise ParameterError("class-parameter weights need --alpha and --beta")
    cp = bounds_mod.ClassParams(args.theta, args.lam, args.gamma)
    model = partial(bounds_mod.operator_weights, cp, _wright_params(args))
    query = partial(
        radii_mod.RadiusQuery, kind=kind, weights=model(args.n_max), tol=args.tol,
        weight_model=model,
    )
    return query, "class_params"


def cmd_radius(args):
    kind = {"star": "starlike", "convex": "convex"}[args.kind]
    if args.curve and args.steps < 1:
        raise ParameterError(f"--steps must be >= 1, got {args.steps!r}")
    query, source = _radius_queries(args, kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        if args.curve:
            rows = []
            for rho in np.arange(args.steps) / args.steps:
                q = query(float(rho))
                rows.append((float(rho), radii_mod.solve_radius(q).radius))
            table = _table_lines(
                f"kind={args.kind} curve=True steps={args.steps} "
                f"source={source} n_max={q.n_max} tol={_fmt(args.tol)}",
                "rho,radius", rows,
            )
        else:
            q = query(args.rho)
            result = radii_mod.solve_radius(q)
            table = _table_lines(
                f"kind={args.kind} rho={_fmt(args.rho)} source={source} "
                f"n_max={q.n_max} tol={_fmt(args.tol)}",
                "radius,bracket_lo,bracket_hi,n_max_used",
                [(result.radius, *result.bracket, result.truncation_used)],
            )
    hit = any(issubclass(w.category, TruncationWarning) for w in caught)
    return EXIT_TRUNCATION if hit and args.strict else EXIT_OK, [
        (_STDOUT, table), (_STDERR, [f"warning: {w.message}\n" for w in caught])]


def cmd_member(args):
    cp = _class_params(args)
    wp = _wright_params(args)
    grid = _grid(args)
    f = read_coefficient_csv(args.coeffs)
    param_line = (
        f"{_operator_fields(args)} coeffs={args.coeffs} "
        f"grid={grid.radii}x{grid.angles}x{_fmt(grid.r_max)} tol={_fmt(args.tol)}"
    )

    check = bounds_mod.coefficient_bound_check(f, cp, wp)
    member_mod._check_tol(args.tol)
    # one grid evaluation for every check; a vanishing denominator or a value
    # past the double range raises here, before any output
    with _in_range("member"):
        pts, num, den = member_mod._grid_parts(f, cp, wp, grid)
        ratio = _divide(num, den, pts)
        tau = member_mod._tau_of_ratio(cp, ratio)
        report = member_mod._membership_report(pts, tau, grid, args.tol)
        suff = member_mod._sufficiency_report(pts, ratio, cp)
        scan = (member_mod._scan_report((pts, num, den), cp, args.eta_count, args.tol)
                if args.scan else None)
    verdict = report.verdict if check.all_satisfied else "not_member"

    lines = [
        f"# params: {param_line}",
        f"# bounds: all_satisfied={check.all_satisfied} checked={len(check.records)}",
        f"# sufficiency: max_offset={_fmt(suff.max_offset)} "
        f"threshold={_fmt(suff.threshold)} holds={suff.holds}",
        f"# membership: grid_verdict={report.verdict} "
        f"min_re_tau={_fmt(report.min_re_tau)} argmin_z={report.argmin_z!r}",
    ]
    if args.scan:
        lines.append(
            f"# scan: min_modulus={_fmt(scan.min_modulus)} "
            f"argmin_eta={scan.argmin_eta!r} argmin_z={scan.argmin_z!r} "
            f"vanishes={scan.vanishes}"
        )
        if scan.vanishes:
            verdict = "not_member"
    lines.append(f"# verdict: {verdict}")
    rows = chain(
        zip(pts, np.real(tau)),
        [f"summary: verdict={verdict} min_re_tau={_fmt(report.min_re_tau)}"],
    )
    return EXIT_OK, [
        (_STDOUT, [line + "\n" for line in lines]),
        (args.out or _STDOUT, _table_lines(param_line, "z_re,z_im,re_tau", rows)),
    ]


def cmd_generate(args):
    cp = _class_params(args)
    wp = _wright_params(args)
    w = parse_schwarz(args.schwarz)
    f = member_mod.schwarz_generate(cp, wp, w, args.n_max)
    check = bounds_mod.coefficient_bound_check(f, cp, wp)
    param_line = f"{_operator_fields(args)} schwarz={args.schwarz} n_max={args.n_max}"
    rows = chain(
        ((r.n, r.abs_coefficient, r.bound, r.satisfied) for r in check.records),
        [f"bounds: all_satisfied={check.all_satisfied}"],
    )
    return EXIT_OK, [
        (args.out or _STDOUT,
         _table_lines(param_line, "n,re,im", enumerate(f.coeffs.tolist(), start=1))),
        (_STDOUT, _table_lines(param_line, "n,abs_a,bound,within", rows)),
    ]


def cmd_verify_identities(args):
    if args.n_max < 1:
        raise ParameterError(f"--n-max must be >= 1, got {args.n_max!r}")
    if args.random < 0:
        raise ParameterError(f"--random must be >= 0, got {args.random!r}")
    cp = _class_params(args)
    wp = _wright_params(args)
    if args.schwarz is None and not args.random:
        raise ParameterError("verify-identities needs --schwarz or --random")
    functions = []
    if args.schwarz is not None:
        # keep the label a single CSV field
        functions.append((args.schwarz.replace(",", ";"), parse_schwarz(args.schwarz)))
    if args.random:
        rng = np.random.default_rng(get_seed())
        for i in range(args.random):
            degree = int(rng.integers(2, 4))
            raw = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
            raw *= rng.uniform(0.05, 0.4) / np.sum(np.abs(raw))
            # from z^2 up: w'(0) = 0, as for every Schwarz function of the class
            w = member_mod.SchwarzFunction(np.r_[0j, raw])
            functions.append((f"random_{i}", w))
    results = []
    for label, w in functions:
        f = member_mod.schwarz_generate(cp, wp, w, args.n_max)
        tau = member_mod.caratheodory_series(w, args.n_max + 1)
        results.append((label, bounds_mod.series_identity_oracle(f, tau, cp, wp),
                        bounds_mod.extraction_residuals(f, tau, cp, wp)))

    def rows():
        for label, res, (first, phased, unphased) in results:
            for power, value in zip(res.powers, res.residuals):
                yield label, int(power), abs(value)
            yield (
                f"extraction[{label}]: first={float(abs(first))!r} "
                f"phased_max={float(np.max(np.abs(phased))) if phased.size else 0.0!r} "
                f"unphased_max="
                f"{float(np.max(np.abs(unphased))) if unphased.size else 0.0!r}"
            )

    return EXIT_OK, [(_STDOUT, _table_lines(
        f"{_operator_fields(args)} n_max={args.n_max} seed={get_seed()}",
        "schwarz,power,residual_abs", rows(),
    ))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrightlens",
        description=(
            "Numerics for a meromorphic operator class: kernel evaluation, "
            "coefficient bounds, membership tests, and radii of "
            "starlikeness/convexity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wright", help="evaluate the kernel series at a point")
    _add_wright_args(p)
    p.add_argument("--z", required=True, help="complex point, e.g. 0.5+0.1i")
    p.set_defaults(func=cmd_wright)

    p = sub.add_parser("phi-table", help="tabulate the kernel coefficients")
    _add_wright_args(p)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(func=cmd_phi_table)

    p = sub.add_parser("bounds", help="coefficient-bound table, both methods")
    _add_class_args(p)
    _add_wright_args(p)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("radius", help="solve a starlikeness/convexity radius")
    p.add_argument("kind", choices=("star", "convex"))
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--extremal-n", type=int, default=None)
    p.add_argument("--weights", default=None, help="CSV file with header n,weight")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--curve", action="store_true", help="sweep rho and emit CSV")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument(
        "--strict", action="store_true",
        help="exit 4 if doubling the truncation moves the radius",
    )
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("member", help="membership verdict for a coefficient file")
    _add_class_args(p)
    _add_wright_args(p)
    p.add_argument("--coeffs", required=True, help="CSV file with header n,re,im")
    _add_grid_args(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--scan", action="store_true", help="run the convolution scan")
    p.add_argument("--eta-count", type=int, default=16)
    p.add_argument("--out", default=None, help="write the grid CSV here")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("generate", help="build a member from a Schwarz function")
    _add_class_args(p)
    _add_wright_args(p)
    p.add_argument(
        "--schwarz", required=True,
        help="comma-separated coefficients c1,c2,... with c1 = 0 and sum|c_k| < 1",
    )
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--out", default=None, help="write the coefficient CSV here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "verify-identities",
        help="residuals of the defining relation and extraction identities",
    )
    _add_class_args(p)
    _add_wright_args(p)
    p.add_argument("--schwarz", default=None)
    p.add_argument("--random", type=int, default=0, metavar="COUNT")
    p.add_argument("--n-max", type=int, default=24)
    p.set_defaults(func=cmd_verify_identities)

    return parser


def _write(outputs) -> None:
    """Write each output's lines in order, every ``--out`` file opened first;
    ``sys.stdout``/``sys.stderr`` are read only now, so redirections hold."""
    with ExitStack() as stack:
        streams = {_STDOUT: sys.stdout, _STDERR: sys.stderr}
        for dest, _ in outputs:
            if dest not in streams:
                try:
                    streams[dest] = stack.enter_context(open(dest, "w"))
                except OSError as exc:
                    message = f"cannot write {dest}: {exc.strerror}"
                    raise ParameterError(message) from None
        for dest, lines in outputs:
            streams[dest].writelines(lines)


def _run(args) -> int:
    try:
        _check_size_limits(args)
        # a floating-point fault that no layer handles is a numerical failure
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            code, outputs = args.func(args)
            _write(outputs)
        return code
    except (
        ParameterError, CoefficientFileError, ArithmeticError, EvalDomainError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CoefficientFileError):
            return EXIT_INPUT
        return EXIT_PARAMETER if isinstance(exc, ParameterError) else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        # a reader that went away (``| head``) surfaces here, not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' recipe: send what is still buffered to devnull so
        # that the flush at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
