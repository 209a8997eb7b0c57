"""Command-line surface: every computation as a reproducible subcommand.

All tabular output is CSV with a leading ``# params:`` comment echoing the
full configuration, so identical flags produce byte-identical output.

Exit codes: 0 success, 2 parameter error, 3 numerical failure, 4 truncation
warning under --strict, 5 malformed input file.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from functools import partial

import numpy as np

from . import bounds as bounds_mod
from . import membership as member_mod
from . import radii as radii_mod
from .errors import (
    CoefficientFileError,
    EvalDomainError,
    ParameterError,
    SeriesDivisionError,
    TruncationWarning,
)
from .laurent import (
    GridSpec,
    _read_indexed_csv,
    polar_grid,
    read_coefficient_csv,
    write_coefficient_csv,
)
from .special import WrightParams, phi_values, wright_eval

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_NUMERICAL = 3
EXIT_TRUNCATION = 4
EXIT_INPUT = 5

SEED_ENV = "WRIGHTLENS_SEED"


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' (imaginary unit i or j, either part optional)."""
    try:
        return complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ParameterError(f"cannot parse complex number from {text!r}") from None


def parse_schwarz(text: str) -> member_mod.SchwarzFunction:
    coeffs = [parse_complex(tok) for tok in text.split(",") if tok.strip()]
    if not coeffs:
        raise ParameterError("--schwarz needs at least one coefficient")
    return member_mod.SchwarzFunction(np.array(coeffs, dtype=complex))


def get_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _class_params(args) -> bounds_mod.ClassParams:
    return bounds_mod.ClassParams(
        args.theta, args.lam, args.gamma, relaxed=getattr(args, "relaxed", False)
    )


def _wright_params(args) -> WrightParams:
    return WrightParams(args.alpha, args.beta)


def _grid(args) -> GridSpec:
    return GridSpec(args.grid_radii, args.grid_angles, args.min_radius, args.max_radius)


def _add_wright_args(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)


def _add_class_args(p, relaxed=False):
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    if relaxed:
        p.add_argument(
            "--relaxed", action="store_true",
            help="accept gamma in (0, 1] as well",
        )


def _add_grid_args(p):
    p.add_argument("--grid-radii", type=int, default=16)
    p.add_argument("--grid-angles", type=int, default=64)
    p.add_argument("--min-radius", type=float, default=0.05)
    p.add_argument("--max-radius", type=float, default=0.95)


def cmd_wright(args) -> int:
    params = _wright_params(args)
    z = parse_complex(args.z)
    result = wright_eval(params, z)
    print(f"# params: alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} z={z!r}")
    print("re,im,terms_used")
    print(f"{result.value.real!r},{result.value.imag!r},{result.terms}")
    return EXIT_OK


def cmd_phi_table(args) -> int:
    params = WrightParams.for_indices(args.alpha, args.beta, args.n_max)
    values = phi_values(params, args.n_max)
    print(
        f"# params: alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} "
        f"n_max={args.n_max}"
    )
    print("n,phi")
    for n, v in enumerate(values, start=1):
        print(f"{n},{float(v)!r}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    cp = _class_params(args)
    wp = _wright_params(args)
    rec = bounds_mod.bound_sequence_recursive(cp, wp, args.n_max)
    clo = bounds_mod.bound_sequence_closed(cp, wp, args.n_max)
    print(
        f"# params: theta={_fmt(args.theta)} lam={_fmt(args.lam)} "
        f"gamma={_fmt(args.gamma)} alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} "
        f"n_max={args.n_max} relaxed={args.relaxed}"
    )
    print("n,A_n_recursive,A_n_closed,rel_diff")
    for n in range(1, args.n_max + 1):
        a, b = float(rec.values[n - 1]), float(clo.values[n - 1])
        rel = abs(a - b) / max(abs(a), abs(b))
        print(f"{n},{a!r},{b!r},{rel!r}")
    return EXIT_OK


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
    model = lambda k: bounds_mod.operator_weights(cp, _wright_params(args), k)
    query = partial(
        radii_mod.RadiusQuery, kind=kind, weights=model(args.n_max), tol=args.tol,
        weight_model=model,
    )
    return query, "class_params"


def cmd_radius(args) -> int:
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
            print(
                f"# params: kind={args.kind} curve=True steps={args.steps} "
                f"source={source} n_max={q.n_max} tol={_fmt(args.tol)}"
            )
            print("rho,radius")
            for rho, radius in rows:
                print(f"{rho!r},{radius!r}")
        else:
            q = query(args.rho)
            result = radii_mod.solve_radius(q)
            print(
                f"# params: kind={args.kind} rho={_fmt(args.rho)} source={source} "
                f"n_max={q.n_max} tol={_fmt(args.tol)}"
            )
            print("radius,bracket_lo,bracket_hi,n_max_used")
            print(
                f"{result.radius!r},{result.bracket[0]!r},{result.bracket[1]!r},"
                f"{result.truncation_used}"
            )
        truncation_hit = any(
            issubclass(w.category, TruncationWarning) for w in caught
        )
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    if truncation_hit and args.strict:
        return EXIT_TRUNCATION
    return EXIT_OK


def cmd_member(args) -> int:
    cp = _class_params(args)
    wp = _wright_params(args)
    grid = _grid(args)
    f = read_coefficient_csv(args.coeffs)
    param_line = (
        f"theta={_fmt(args.theta)} lam={_fmt(args.lam)} gamma={_fmt(args.gamma)} "
        f"alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} coeffs={args.coeffs} "
        f"grid={grid.radii}x{grid.angles}x{_fmt(grid.r_max)} tol={_fmt(args.tol)}"
    )

    check = bounds_mod.coefficient_bound_check(f, cp, wp)
    report = member_mod.membership_check(f, cp, wp, grid, tol=args.tol)
    suff = member_mod.sufficiency_predicate(f, cp, wp, grid)
    verdict = report.verdict
    if not check.all_satisfied:
        verdict = "not_member"

    lines = [f"# params: {param_line}"]
    lines.append(
        f"# bounds: all_satisfied={check.all_satisfied} checked={len(check.records)}"
    )
    lines.append(
        f"# sufficiency: max_offset={_fmt(suff.max_offset)} "
        f"threshold={_fmt(suff.threshold)} holds={suff.holds}"
    )
    lines.append(
        f"# membership: grid_verdict={report.verdict} "
        f"min_re_tau={_fmt(report.min_re_tau)} "
        f"argmin_z={report.argmin_z!r}"
        + (f" diagnostic={report.diagnostic}" if report.diagnostic else "")
    )
    if args.scan:
        scan = member_mod.convolution_scan(
            f, cp, wp, eta_count=args.eta_count, grid=grid, tol=args.tol
        )
        lines.append(
            f"# scan: min_modulus={_fmt(scan.min_modulus)} "
            f"argmin_eta={scan.argmin_eta!r} argmin_z={scan.argmin_z!r} "
            f"vanishes={scan.vanishes}"
        )
        if scan.vanishes:
            verdict = "not_member"
    lines.append(f"# verdict: {verdict}")
    for line in lines:
        print(line)

    pts = polar_grid(grid)
    try:
        tau = member_mod.tau_transform(f, cp, wp, pts)
        re_tau = np.real(tau)
    except SeriesDivisionError:
        re_tau = None
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write(f"# params: {param_line}\n")
        out.write("z_re,z_im,re_tau\n")
        if re_tau is not None:
            for z, value in zip(pts, re_tau):
                out.write(f"{float(z.real)!r},{float(z.imag)!r},{float(value)!r}\n")
        out.write(
            f"# summary: verdict={verdict} min_re_tau={_fmt(report.min_re_tau)}\n"
        )
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_generate(args) -> int:
    cp = _class_params(args)
    wp = _wright_params(args)
    w = parse_schwarz(args.schwarz)
    f = member_mod.schwarz_generate(cp, wp, w, args.n_max)
    check = bounds_mod.coefficient_bound_check(f, cp, wp)
    param_line = (
        f"theta={_fmt(args.theta)} lam={_fmt(args.lam)} gamma={_fmt(args.gamma)} "
        f"alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} schwarz={args.schwarz} "
        f"n_max={args.n_max}"
    )
    if args.out:
        with open(args.out, "w") as handle:
            write_coefficient_csv(handle, f, param_line)
    else:
        write_coefficient_csv(sys.stdout, f, param_line)
    print(f"# params: {param_line}")
    print("n,abs_a,bound,within")
    for record in check.records:
        print(
            f"{record.n},{record.abs_coefficient!r},{record.bound!r},"
            f"{record.satisfied}"
        )
    print(f"# bounds: all_satisfied={check.all_satisfied}")
    return EXIT_OK


def cmd_verify_identities(args) -> int:
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
            functions.append((f"random_{i}", member_mod.SchwarzFunction(raw)))
    print(
        f"# params: theta={_fmt(args.theta)} lam={_fmt(args.lam)} "
        f"gamma={_fmt(args.gamma)} alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} "
        f"n_max={args.n_max} seed={get_seed()}"
    )
    print("schwarz,power,residual_abs")
    for label, w in functions:
        f = member_mod.schwarz_generate(cp, wp, w, args.n_max)
        tau = member_mod.caratheodory_series(w, args.n_max + 1)
        res = bounds_mod.series_identity_oracle(f, tau, cp, wp)
        for power, value in zip(res.powers, res.residuals):
            print(f"{label},{int(power)},{float(abs(value))!r}")
        first, phased, unphased = bounds_mod.extraction_residuals(f, tau, cp, wp)
        print(
            f"# extraction[{label}]: first={float(abs(first))!r} "
            f"phased_max={float(np.max(np.abs(phased))) if phased.size else 0.0!r} "
            f"unphased_max="
            f"{float(np.max(np.abs(unphased))) if unphased.size else 0.0!r}"
        )
    return EXIT_OK


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
    _add_class_args(p, relaxed=True)
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
    _add_class_args(p, relaxed=True)
    _add_wright_args(p)
    p.add_argument("--coeffs", required=True, help="CSV file with header n,re,im")
    _add_grid_args(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--scan", action="store_true", help="run the convolution scan")
    p.add_argument("--eta-count", type=int, default=16)
    p.add_argument("--out", default=None, help="write the grid CSV here")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("generate", help="build a member from a Schwarz function")
    _add_class_args(p, relaxed=True)
    _add_wright_args(p)
    p.add_argument(
        "--schwarz", required=True,
        help="comma-separated coefficients c1,c2,... with sum|c_k| < 1",
    )
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--out", default=None, help="write the coefficient CSV here")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "verify-identities",
        help="residuals of the defining relation and extraction identities",
    )
    _add_class_args(p, relaxed=True)
    _add_wright_args(p)
    p.add_argument("--schwarz", default=None)
    p.add_argument("--random", type=int, default=0, metavar="COUNT")
    p.add_argument("--n-max", type=int, default=24)
    p.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoefficientFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (ArithmeticError, EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
