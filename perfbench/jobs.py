"""Workload inputs and the timed job bodies.

Inputs are plain JSON-able dicts drawn from ``numpy.random.default_rng``
seeded with ``(seed, workload, block)``, so a seed fixes every input no
matter how many blocks a run gets through.  A block is one stratum of the
workload's input mix: every block holds the same combination of job kinds,
so runs that stop at a block boundary always measure the same mix.

This module imports only numpy and wrightlens, because ``first_job.py``
loads it in a fresh interpreter to time set-up.  Library calls go through
module attributes (``membership.schwarz_generate``) so the tracer's wrappers
see them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from wrightlens import bounds, laurent, membership, radii, special

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The test-suite parameter grid (tests/param_grids.py), copied so that the
# benchmark's inputs stay fixed when the tests change.
THETAS = (0.0, 0.6, -0.6, 1.2, -1.2)
LAMS = (0.0, 0.2, 0.45)
GAMMAS = (1.1, 2.0, 5.0)
WRIGHT_PAIRS = ((0.0, 1.0), (1.0, 1.0), (0.5, 1.5))

# Orders per pair, drawn uniformly so job costs spread without gaps (a gap
# at a percentile makes it jump between runs).  40..85 lies inside the order
# cap for every grid tuple; the high range lies inside it for (0, 1) and past
# it for (1, 1) and (0.5, 1.5) on every tuple, so the share of past-cap jobs
# is fixed by the block layout, not by the draw.
VERIFY_LOW = (40, 85)
VERIFY_HIGH = {(0.0, 1.0): (86, 136), (1.0, 1.0): (101, 140), (0.5, 1.5): (130, 140)}

CERTIFY_PAIR = (0.5, 1.5)
CERTIFY_ORDER = 60
CERTIFY_GRID = (32, 128)
CERTIFY_ETAS = 64

RADII_STEPS = 50
RADII_N_MAX = (50, 100)

# Past this order every grid tuple overflows A_n and underflows phi_n.
CLI_PAST_CAP = 200

WORKLOAD_IDS = {"verify": 1, "certify": 2, "radii": 3, "cli": 4}


def block_rng(workload: str, seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], block])


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _class(rng, lam=None) -> dict:
    return {
        "theta": _pick(rng, THETAS),
        "lam": _pick(rng, LAMS) if lam is None else lam,
        "gamma": _pick(rng, GAMMAS),
    }


def _schwarz(rng) -> list:
    """Random Schwarz polynomial with no linear term, as [re, im] pairs.

    w'(0) = 0 is the family that round-trips exactly through the generator;
    the mass bound matches the acceptance tests.
    """
    m = int(rng.integers(1, 4))
    raw = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    raw *= rng.uniform(0.05, 0.35) / np.sum(np.abs(raw))
    return [[0.0, 0.0]] + [[float(c.real), float(c.imag)] for c in raw]


def _stratified(rng, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal slices, in random order.

    Stratifying keeps the cost mix of every block, and so the percentiles,
    close to the same from seed to seed.
    """
    slots = (rng.permutation(k) + rng.uniform(size=k)) / k
    return [lo + int(x * (hi + 1 - lo)) for x in slots]


def as_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def make_block(workload: str, seed: int, block: int) -> list[dict]:
    rng = block_rng(workload, seed, block)
    jobs = BLOCK_MAKERS[workload](rng)
    order = rng.permutation(len(jobs)) if workload != "cli" else range(len(jobs))
    return [dict(jobs[i], block=block) for i in order]


def _verify_block(rng) -> list[dict]:
    jobs = []
    for pair in WRIGHT_PAIRS:
        low = _stratified(rng, *VERIFY_LOW, 2 * len(LAMS))
        high = _stratified(rng, *VERIFY_HIGH[pair], len(LAMS))
        for i, lam in enumerate(LAMS):
            for level, n in (("low", low[2 * i]), ("low", low[2 * i + 1]), ("high", high[i])):
                jobs.append({
                    "kind": f"a{pair[0]:g}b{pair[1]:g}-{level}",
                    "cp": _class(rng, lam),
                    "wp": list(pair),
                    "n": n,
                    "schwarz": _schwarz(rng),
                })
    return jobs


def _certify_block(rng) -> list[dict]:
    # Coefficients are filled in by reference.prepare(): members come from
    # schwarz_generate, non-members break a coefficient bound.
    return [
        {
            "kind": label,
            "cp": _class(rng),
            "wp": list(CERTIFY_PAIR),
            "schwarz": _schwarz(rng),
            "violate_index": int(rng.integers(1, 4)),
            "violate_phase": float(rng.uniform(0.0, 2.0 * np.pi)),
        }
        for label in ("member", "not_member", "member", "not_member")
    ]


def _radii_block(rng) -> list[dict]:
    # Each job does both curve sources, so job costs are unimodal and the
    # median sits in the middle of them rather than at the edge of a mode.
    n_max = iter(_stratified(rng, *RADII_N_MAX, 2 * len(radii.KINDS)))
    return [
        {
            "kind": kind,
            "radius_kind": kind,
            "cp": _class(rng),
            "wp": list(_pick(rng, WRIGHT_PAIRS)),
            "n_max": next(n_max),
            "dominant_n": int(rng.integers(1, 4)),
            "predicate_step": int(rng.integers(RADII_STEPS)),
        }
        for kind in radii.KINDS
        for _ in range(2)
    ]


def _fmt_complex(c: complex) -> str:
    return f"{c.real:.6f}{c.imag:+.6f}i"


def _cli_block(rng) -> list[dict]:
    """The README's golden invocations, plus three runs past the order cap.

    ``expect`` is the documented exit code: 0, or 3 (numerical failure)
    past the cap.  generate writes the coefficient file that member reads.
    """

    def class_args(cp, wp):
        return [
            "--theta", repr(cp["theta"]), "--lam", repr(cp["lam"]),
            "--gamma", repr(cp["gamma"]), "--alpha", repr(wp[0]), "--beta", repr(wp[1]),
        ]

    def schwarz_arg():
        return ",".join(_fmt_complex(c) for c in as_complex(_schwarz(rng)))

    wp = list(_pick(rng, WRIGHT_PAIRS))
    cp = _class(rng)
    member_cp = _class(rng)
    kind = _pick(rng, ("star", "convex"))
    if rng.integers(2):
        radius_source = ["--extremal-n", str(int(rng.integers(1, 4)))]
    else:
        radius_source = class_args(_class(rng), wp) + ["--n-max", "50"]
    n_small = int(rng.integers(20, 61))
    jobs = [
        ("phi-table", ["phi-table", "--alpha", repr(wp[0]), "--beta", repr(wp[1]),
                       "--n-max", str(n_small)], 0),
        ("bounds", ["bounds"] + class_args(cp, wp) + ["--n-max", str(n_small)], 0),
        ("generate", ["generate"] + class_args(member_cp, wp)
         + ["--schwarz", schwarz_arg(), "--n-max", "60", "--out", "{tmp}/coeffs.csv"], 0),
        ("member", ["member"] + class_args(member_cp, wp)
         + ["--coeffs", "{tmp}/coeffs.csv", "--scan", "--out", "{tmp}/grid.csv"], 0),
        ("radius", ["radius", kind, "--curve", "--steps", "50"] + radius_source, 0),
        ("verify-identities", ["verify-identities"] + class_args(cp, wp)
         + ["--random", str(int(rng.integers(2, 5))), "--n-max", str(int(rng.integers(24, 41)))], 0),
        ("bounds-past-cap", ["bounds"] + class_args(cp, wp)
         + ["--n-max", str(CLI_PAST_CAP)], 3),
        ("generate-past-cap", ["generate"] + class_args(cp, wp)
         + ["--schwarz", schwarz_arg(), "--n-max", str(CLI_PAST_CAP),
            "--out", "{tmp}/past_cap.csv"], 3),
        ("verify-past-cap", ["verify-identities"] + class_args(cp, wp)
         + ["--schwarz", schwarz_arg(), "--n-max", str(CLI_PAST_CAP)], 3),
    ]
    env_seed = str(int(rng.integers(2**31)))
    return [
        {"kind": name, "argv": argv, "expect": expect, "env_seed": env_seed}
        for name, argv, expect in jobs
    ]


BLOCK_MAKERS = {
    "verify": _verify_block,
    "certify": _certify_block,
    "radii": _radii_block,
    "cli": _cli_block,
}


def params(job):
    cp = bounds.ClassParams(job["cp"]["theta"], job["cp"]["lam"], job["cp"]["gamma"])
    return cp, special.WrightParams(*job["wp"])


def _run_verify(job):
    cp, wp = params(job)
    n = job["n"]
    w = membership.SchwarzFunction(as_complex(job["schwarz"]))
    f = membership.schwarz_generate(cp, wp, w, n)
    tau = membership.caratheodory_series(w, n + 1)
    return {
        "f": f,
        "oracle": bounds.series_identity_oracle(f, tau, cp, wp),
        "extraction": bounds.extraction_residuals(f, tau, cp, wp),
        "check": bounds.coefficient_bound_check(f, cp, wp),
        "recursive": bounds.bound_sequence_recursive(cp, wp, n),
    }


def _run_certify(job):
    cp, wp = params(job)
    f = laurent.LaurentSeries(1.0, as_complex(job["coeffs"]))
    grid = laurent.GridSpec(*CERTIFY_GRID)
    return {
        "membership": membership.membership_check(f, cp, wp, grid),
        "sufficiency": membership.sufficiency_predicate(f, cp, wp, grid),
        "scan": membership.convolution_scan(f, cp, wp, eta_count=CERTIFY_ETAS, grid=grid),
    }


def radii_rhos() -> np.ndarray:
    """The rho samples of ``wrightlens radius --curve --steps 50``."""
    return np.arange(RADII_STEPS) / RADII_STEPS


def _run_radii(job):
    kind = job["radius_kind"]
    rhos = radii_rhos()
    k = job["dominant_n"]
    extremal = [radii.solve_radius(radii.single_weight_query(kind, float(rho), k))
                for rho in rhos]
    curve = radii.extremal_curve(kind, rhos, k)
    cp, wp = params(job)

    def model(m):
        return bounds.operator_weights(cp, wp, m)

    # One query per rho, as ``radius --curve`` builds them.
    results = [
        radii.solve_radius(
            radii.RadiusQuery(float(rho), kind, model(job["n_max"]), weight_model=model)
        )
        for rho in rhos
    ]
    weights = model(2 * job["n_max"])
    # The coefficient-sum condition at radius r is sufficient for the
    # predicate on |z| <= r, so it must hold just inside the solved radius.
    step = job["predicate_step"]
    predicate = radii.starlike_predicate if kind == "starlike" else radii.convex_predicate
    return {
        "extremal": extremal,
        "curve": curve,
        "results": results,
        "weights": weights,
        "predicate": predicate(laurent.LaurentSeries(1.0, weights), float(rhos[step]),
                               results[step].radius * (1.0 - 1e-6)),
    }


def cli_env(job) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["WRIGHTLENS_SEED"] = job["env_seed"]
    return env


def cli_argv(job, tmp: Path) -> list[str]:
    return [a.replace("{tmp}", str(tmp)) for a in job["argv"]]


def run_cli_process(job, tmp: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "wrightlens.cli"] + cli_argv(job, tmp),
        env=cli_env(job), capture_output=True, cwd=ROOT, timeout=120,
    )


RUNNERS = {"verify": _run_verify, "certify": _run_certify, "radii": _run_radii}


def run_job(workload: str, job: dict, tmp: Path):
    """The timed body of one job: only calls into wrightlens (or its CLI)."""
    if workload == "cli":
        return run_cli_process(job, tmp)
    return RUNNERS[workload](job)
