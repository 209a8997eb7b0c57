"""The untimed side of a job: prepared inputs, references and checks.

References are computed with mpmath at 40 digits, independently of the
package's own routes: phi_n from mpmath's reciprocal gamma, A_n from the
defining recursion, class weights as phi_n * A_n, radii by a Newton step on
S(r) = 1, extremal radii from the closed form.  The certify reference is
the exact minimum over |eta| = 1, which the kernel's affinity in eta gives
from two kernel evaluations.

``check_*`` returns ``(errors, wrong)``: the relative errors against the
references, by name, and a description of the first wrong answer or None.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np
from mpmath import mp

import jobs
from wrightlens import cli, laurent, membership, special

mp.dps = 40

# Past-cap values leave the double range: phi_n underflows and A_n
# overflows.  Comparisons are made where the reference is a normal double.
DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max

TOL_PHI = 1e-10
TOL_BOUND = 1e-9
TOL_RESIDUAL = 1e-10
TOL_RADIUS = 1e-7
TOL_CURVE = 1e-12
BOUND_SLACK = 1e-9  # the package's documented slack on |a_n| <= A_n

# Radii checked against the mpmath root in each class-weight job.
RADII_SAMPLES = 5


def _rel(values, ref) -> float:
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values - ref) / np.abs(ref)))


class References:
    """mpmath references, cached per parameter tuple for the whole run."""

    def __init__(self):
        self._phi = {}
        self._bounds = {}
        self._phi_err = {}

    def phi(self, pair, n_max: int) -> list:
        key = tuple(pair)
        have = self._phi.setdefault(key, [])
        alpha, beta = (mp.mpf(x) for x in key)
        for n in range(len(have) + 1, n_max + 1):
            have.append(mp.rgamma(alpha * n + beta) / mp.factorial(n))
        return have[:n_max]

    def phi_float(self, pair, n_max: int) -> np.ndarray:
        return np.array([float(x) for x in self.phi(pair, n_max)])

    def bounds(self, cp: dict, pair, n_max: int) -> list:
        """A_1 .. A_n_max from the defining recursion

        A_m = 2 L [(1-2 lam) + sum_{k<m} phi_k (1-lam+k lam) A_k]
              / ((m+1)(1-lam) phi_m),   A_1 = (1-2 lam) L / ((1-lam) phi_1).
        """
        key = (cp["theta"], cp["lam"], cp["gamma"], tuple(pair))
        have = self._bounds.setdefault(key, [])
        if len(have) < n_max:
            phi = self.phi(pair, n_max)
            theta, lam, gamma = (mp.mpf(cp[k]) for k in ("theta", "lam", "gamma"))
            big_l = mp.cos(theta) * (1 + gamma * (1 - 2 * lam))
            have.clear()
            have.append((1 - 2 * lam) * big_l / ((1 - lam) * phi[0]))
            running = 1 - 2 * lam
            for m in range(2, n_max + 1):
                k = m - 1
                running += phi[k - 1] * (1 - lam + k * lam) * have[k - 1]
                have.append(2 * big_l * running / ((m + 1) * (1 - lam) * phi[m - 1]))
        return have[:n_max]

    def bounds_float(self, cp, pair, n_max) -> np.ndarray:
        return np.array([float(x) if x < DBL_MAX else math.inf
                         for x in self.bounds(cp, pair, n_max)])

    def phi_error(self, pair, n_max: int) -> float:
        """The package's phi_values against mpmath, once per (pair, n_max)."""
        key = (tuple(pair), n_max)
        if key not in self._phi_err:
            ref = self.phi_float(pair, n_max)
            got = special.phi_values(special.WrightParams(*pair), n_max)
            normal = np.abs(ref) >= DBL_MIN
            self._phi_err[key] = _rel(got[normal], ref[normal])
        return self._phi_err[key]


def prepare(workload: str, job: dict, refs: References) -> dict:
    """Complete a job's inputs where that needs the package or a reference."""
    if workload != "certify":
        return job
    cp, wp = jobs.params(job)
    w = membership.SchwarzFunction(jobs.as_complex(job["schwarz"]))
    n = jobs.CERTIFY_ORDER
    coeffs = membership.schwarz_generate(cp, wp, w, n).coeffs.copy()
    if job["kind"] == "not_member":
        # |a_k| <= A_k is necessary for membership; 1.5 A_k certifies the
        # function is outside the class.
        k = job["violate_index"]
        a_k = float(refs.bounds(job["cp"], job["wp"], k)[k - 1])
        coeffs[k - 1] = 1.5 * a_k * np.exp(1j * job["violate_phase"])
    f = laurent.LaurentSeries(1.0, coeffs)
    pts = laurent.polar_grid(laurent.GridSpec(*jobs.CERTIFY_GRID))

    def conv(eta):
        kernel = membership.convolution_kernel(cp, wp, eta, n)
        return laurent.evaluate(laurent.hadamard(f, kernel), pts)

    # (f * K(eta))(z) = X(z) + eta Y(z), so min over |eta| = 1 is ||X| - |Y||,
    # at eta* = -X conj(Y) / (|X||Y|).  eta = 1 is excluded from the scan's
    # domain; when eta* = 1 the infimum is approached but not attained, and
    # the reference is still that infimum.
    at_minus_one, at_i = conv(-1.0), conv(1j)
    y = (at_i - at_minus_one) / (1j + 1.0)
    x = at_minus_one + y
    gap = np.abs(np.abs(x) - np.abs(y))
    idx = int(np.argmin(gap))
    xy = abs(x[idx]) * abs(y[idx])
    eta_star = -x[idx] * np.conj(y[idx]) / xy if xy > 0 else -1.0
    return dict(
        job,
        coeffs=[[float(c.real), float(c.imag)] for c in coeffs],
        exact_min=float(gap[idx]),
        exact_min_at_excluded_eta=bool(abs(eta_star - 1.0) < 1e-9),
    )


def check_verify(job, out, refs: References):
    n, pair = job["n"], job["wp"]
    lam = job["cp"]["lam"]
    phi = refs.phi_float(pair, n)
    a_ref = refs.bounds_float(job["cp"], pair, n)
    a = out["f"].coeffs
    h_scale = float(np.max(np.abs(a * phi)))
    big_l = math.cos(job["cp"]["theta"]) * (1 + job["cp"]["gamma"] * (1 - 2 * lam))
    first, _, unphased = out["extraction"]
    records = out["check"].records
    closed = np.array([r.bound for r in records])
    recursive = out["recursive"].values
    errors = {
        "phi": refs.phi_error(pair, n),
        "A_recursive": _rel(recursive, a_ref),
        "A_closed": _rel(closed, a_ref),
        "A_recursive_vs_closed": float(np.max(
            np.abs(recursive - closed) / np.maximum(np.abs(recursive), np.abs(closed)))),
        "oracle": out["oracle"].max_abs() / h_scale,
        "extraction": max(abs(first), float(np.max(np.abs(unphased), initial=0.0)))
        / (h_scale * (n + 2) * (1 + big_l)),
    }
    tolerances = {"phi": TOL_PHI, "oracle": TOL_RESIDUAL, "extraction": TOL_RESIDUAL}
    for name, value in errors.items():
        if value > tolerances.get(name, TOL_BOUND):
            return errors, f"{name} error {value:.3e}"
    abs_a = np.abs(a)
    if any(abs(r.abs_coefficient - abs_a[r.n - 1]) > 1e-15 * abs_a[r.n - 1] for r in records):
        return errors, "bound check reports a wrong |a_n|"
    flags = [r.satisfied for r in records]
    if flags != [bool(x <= b * (1 + BOUND_SLACK)) for x, b in zip(abs_a, closed)]:
        return errors, "bound check flags disagree with |a_n| <= A_n"
    if out["check"].all_satisfied != all(flags):
        return errors, "all_satisfied disagrees with the records"
    if lam == 0.0 and not out["check"].all_satisfied:
        return errors, "generated member violates a coefficient bound"
    return errors, None


def check_certify(job, out, refs: References):
    label = job["kind"]
    report, suff, scan = out["membership"], out["sufficiency"], out["scan"]
    exact = job["exact_min"]
    errors = {"scan_min_vs_exact": (scan.min_modulus - exact) / exact if exact > 0 else 0.0}
    cp = job["cp"]
    threshold = (1.0 + cp["gamma"]) * math.cos(cp["theta"])
    if report.verdict != label:
        return errors, f"membership verdict {report.verdict}, label {label}"
    if suff.holds and label != "member":
        return errors, "sufficiency holds for a non-member"
    if abs(suff.threshold - threshold) > 1e-15 * threshold:
        return errors, "sufficiency threshold is not (1+gamma) cos(theta)"
    if scan.vanishes and label == "member":
        return errors, "convolution scan vanishes for a member"
    if scan.min_modulus < exact * (1 - 1e-9) - 1e-12:
        return errors, "scan minimum lies below the exact minimum over |eta| = 1"
    return errors, None


def _newton_root(coeffs: list, r: float):
    """One Newton step on S(r) = sum c_n r^(n+1) = 1, in mpmath."""
    r = mp.mpf(r)
    s = ds = mp.mpf(0)
    for n in range(len(coeffs), 0, -1):
        s = s * r + coeffs[n - 1]
        ds = ds * r + (n + 1) * coeffs[n - 1]
    s, ds = s * r * r, ds * r
    return r - (s - 1) / ds


def _multipliers(kind, rho, n):
    m = (n + 2 - rho) / (1 - rho)
    return n * m if kind == "convex" else m


def check_radii(job, out, refs: References):
    kind = job["radius_kind"]
    rhos = jobs.radii_rhos()
    if not out["predicate"].holds:
        return {}, "predicate fails inside the solved radius"
    k = mp.mpf(job["dominant_n"])
    ref = np.array([float(_multipliers(kind, mp.mpf(rho), k) ** (-1 / (k + 1))) for rho in rhos])
    errors = {
        "extremal_radius": _rel([r.radius for r in out["extremal"]], ref),
        "extremal_curve": _rel(out["curve"][:, 1], ref),
    }
    if errors["extremal_radius"] > TOL_RADIUS or errors["extremal_curve"] > TOL_CURVE:
        return errors, f"extremal radii off the closed form ({errors})"
    radius = np.array([r.radius for r in out["results"]])
    n_max = 2 * job["n_max"]
    phi = refs.phi(job["wp"], n_max)
    weights = [p * a for p, a in zip(phi, refs.bounds(job["cp"], job["wp"], n_max))]
    weights_f = np.array([float(x) for x in weights])
    errors["weights"] = _rel(out["weights"], weights_f)
    if any(r.truncation_used != n_max for r in out["results"]):
        return errors, "radius not solved at the doubled truncation"
    # Every radius: S(r) <= 1 at the returned radius and > 1 a little above.
    n = np.arange(1, n_max + 1, dtype=float)
    for rho, r in zip(rhos, radius):
        c = _multipliers(kind, rho, n) * weights_f
        if float(np.sum(c * r ** (n + 1))) > 1 + 1e-12:
            return errors, f"S(r) > 1 at the returned radius (rho={rho})"
        above = min(r + TOL_RADIUS, 1 - 1e-12)
        if above < 1 - 1e-9 and float(np.sum(c * above ** (n + 1))) <= 1:
            return errors, f"radius more than {TOL_RADIUS} below the root (rho={rho})"
    worst = 0.0
    for j in range(RADII_SAMPLES):
        i = (job["predicate_step"] + j * jobs.RADII_STEPS // RADII_SAMPLES) % jobs.RADII_STEPS
        rho = mp.mpf(float(rhos[i]))
        coeffs = [_multipliers(kind, rho, m + 1) * w for m, w in enumerate(weights)]
        root = _newton_root(coeffs, radius[i])
        worst = max(worst, float(abs(radius[i] - root) / root))
    errors["radius"] = worst
    if max(errors.values()) > TOL_RADIUS:
        return errors, f"radii off the mpmath root ({errors})"
    return errors, None


def run_inprocess(job, tmp: Path):
    """``cli.main`` on the job's argv in this process: (code, stdout, seconds).

    RuntimeWarnings are recorded rather than printed; the list is returned.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("WRIGHTLENS_SEED")
    os.environ["WRIGHTLENS_SEED"] = job["env_seed"]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            code = cli.main(jobs.cli_argv(job, tmp))
            seconds = time.perf_counter() - start
    finally:
        if saved is None:
            del os.environ["WRIGHTLENS_SEED"]
        else:
            os.environ["WRIGHTLENS_SEED"] = saved
    leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue().encode(), seconds, leaked


def _csv_rows(text: str) -> list[list[str]]:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def check_cli(job, proc, refs: References, inprocess):
    """Compare the subprocess with in-process ``cli.main`` and check content."""
    code, stdout, _, _ = inprocess
    if stdout != proc.stdout:
        return {}, "subprocess stdout differs from in-process cli.main"
    if code != proc.returncode:
        return {}, f"exit code {proc.returncode} differs from in-process {code}"
    if job["expect"] != 0 or proc.returncode != 0:
        return {}, None
    argv, text = job["argv"], stdout.decode()
    value = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    errors = {}
    if job["kind"] == "phi-table":
        pair = (float(value["--alpha"]), float(value["--beta"]))
        got = np.array([float(r[1]) for r in _csv_rows(text)])
        ref = refs.phi_float(pair, len(got))
        normal = np.abs(ref) >= DBL_MIN
        errors["phi"] = _rel(got[normal], ref[normal])
        if errors["phi"] > TOL_PHI:
            return errors, f"phi-table off mpmath by {errors['phi']:.3e}"
    elif job["kind"] == "bounds":
        cp = {k: float(value["--" + k]) for k in ("theta", "lam", "gamma")}
        pair = (float(value["--alpha"]), float(value["--beta"]))
        rows = np.array([[float(x) for x in r] for r in _csv_rows(text)])
        ref = refs.bounds_float(cp, pair, len(rows))
        errors["A"] = max(_rel(rows[:, 1], ref), _rel(rows[:, 2], ref))
        if errors["A"] > TOL_BOUND or np.max(rows[:, 3]) > TOL_BOUND:
            return errors, "bounds table off the reference"
    elif job["kind"] == "member" and float(value["--lam"]) == 0.0:
        if "# verdict: member" not in text:
            return errors, "generated member not reported as a member"
    elif job["kind"] == "radius" and "--extremal-n" in value:
        k = mp.mpf(value["--extremal-n"])
        kind = "convex" if argv[1] == "convex" else "starlike"
        rows = [(float(a), float(b)) for a, b in _csv_rows(text)]
        ref = [float(_multipliers(kind, mp.mpf(rho), k) ** (-1 / (k + 1))) for rho, _ in rows]
        errors["radius"] = _rel([r for _, r in rows], ref)
        if len(rows) != jobs.RADII_STEPS or errors["radius"] > TOL_RADIUS:
            return errors, "radius curve off the closed form"
    return errors, None


CHECKS = {"verify": check_verify, "certify": check_certify, "radii": check_radii}
