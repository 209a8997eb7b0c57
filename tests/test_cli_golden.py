"""Golden CLI outputs: stdout and exit code for a fixed set of invocations.

Each golden file ``tests/golden/<name>.txt`` holds the exit code on its
first line (``exit=N``) followed by the captured stdout verbatim.  The
comparison keeps every non-numeric token exact, compares numbers to a
relative 1e-12, and compares rounding-level columns (identity residuals,
closed/recursive differences, extraction maxima) to an absolute 1e-12.

Regenerate the files with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff; the files describe the CLI contract, so a change in
them is a change in behaviour.
"""

import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

import pytest

from wrightlens.cli import main

GOLDEN = Path(__file__).parent / "golden"

CLASS = ["--theta", "0", "--lam", "0", "--gamma", "2", "--alpha", "0", "--beta", "1"]
CLASS_ROTATED = ["--theta", "0.6", "--lam", "0.2", "--gamma", "2",
                 "--alpha", "0", "--beta", "1"]

WEIGHTS_CSV = "# moduli phi_n |a_n|\nn,weight\n1,0.8\n3,0.25\n2,0.5\n5,0.05\n"

# (name, argv, WRIGHTLENS_SEED or None).  Cases run in order inside one
# working directory: ``generate`` writes the coefficient file ``member`` reads.
CASES = [
    ("wright", ["wright", "--alpha", "0", "--beta", "1", "--z", "1+0i"], None),
    ("phi_table", ["phi-table", "--alpha", "0.5", "--beta", "1.5", "--n-max", "20"],
     None),
    ("bounds", ["bounds", *CLASS, "--n-max", "10"], None),
    ("radius_star", ["radius", "star", "--rho", "0", "--extremal-n", "1"], None),
    ("radius_star_curve",
     ["radius", "star", "--curve", "--steps", "50", "--extremal-n", "1"], None),
    ("radius_convex_curve",
     ["radius", "convex", "--curve", "--steps", "50", "--extremal-n", "2"], None),
    ("radius_class_strict",
     ["radius", "star", "--rho", "0", "--theta", "0", "--lam", "0.2", "--gamma", "2",
      "--alpha", "0", "--beta", "1", "--n-max", "50", "--strict"], None),
    ("generate",
     ["generate", *CLASS, "--schwarz", "0,0.4", "--n-max", "30", "--out", "coeffs.csv"],
     None),
    ("member",
     ["member", *CLASS, "--coeffs", "coeffs.csv", "--scan", "--out", "grid.csv"], None),
    ("verify_identities",
     ["verify-identities", *CLASS_ROTATED, "--schwarz", "0,0.4", "--n-max", "24"],
     None),
    ("bounds_n60",
     ["bounds", "--theta", "0.6", "--lam", "0.2", "--gamma", "5", "--alpha", "0.5",
      "--beta", "1.5", "--n-max", "60"], None),
    ("radius_weights_curve",
     ["radius", "convex", "--curve", "--steps", "50", "--weights", "weights.csv"],
     None),
    ("verify_random",
     ["verify-identities", *CLASS_ROTATED, "--random", "3", "--n-max", "16"], "7"),
    # an asymmetric Schwarz polynomial leaves no z <-> -z ties in the scan;
    # its real coefficients still tie z and conj(z) in Re tau, and the
    # membership line reports the first of the two
    ("generate_asymmetric",
     ["generate", *CLASS_ROTATED, "--schwarz", "0,0.2,0.1", "--n-max", "40",
      "--out", "asymmetric.csv"], None),
    ("member_scan_certify_grid",
     ["member", *CLASS_ROTATED, "--coeffs", "asymmetric.csv", "--scan",
      "--eta-count", "64", "--grid-radii", "32", "--grid-angles", "128",
      "--out", "grid_scan.csv"], None),
]

# Columns and keys whose values sit at rounding level: compared absolutely.
ABSOLUTE_KEYS = {"rel_diff", "residual_abs", "first", "phased_max", "unphased_max"}
REL_TOL = 1e-12
ABS_TOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _run_cases(workdir: Path) -> dict[str, tuple[int, str]]:
    (workdir / "weights.csv").write_text(WEIGHTS_CSV)
    results = {}
    old_cwd, old_seed = os.getcwd(), os.environ.get("WRIGHTLENS_SEED")
    try:
        os.chdir(workdir)
        for name, argv, seed in CASES:
            if seed is None:
                os.environ.pop("WRIGHTLENS_SEED", None)
            else:
                os.environ["WRIGHTLENS_SEED"] = seed
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            results[name] = (code, out.getvalue())
    finally:
        os.chdir(old_cwd)
        if old_seed is None:
            os.environ.pop("WRIGHTLENS_SEED", None)
        else:
            os.environ["WRIGHTLENS_SEED"] = old_seed
    return results


def _read_golden(name: str) -> tuple[int, str]:
    text = (GOLDEN / f"{name}.txt").read_text()
    first, _, stdout = text.partition("\n")
    return int(first.removeprefix("exit=")), stdout


def _split(text: str) -> tuple[str, list[float]]:
    """Skeleton with every number replaced by ``#``, and the numbers."""
    numbers = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), numbers


def _compare_value(where: str, key: str, want: str, got: str) -> None:
    want_skel, want_nums = _split(want)
    got_skel, got_nums = _split(got)
    assert got_skel == want_skel, f"{where}: {got!r} != {want!r}"
    for a, b in zip(want_nums, got_nums):
        if a == b:
            continue
        if math.isnan(a) or math.isinf(a):
            assert repr(a) == repr(b), f"{where}: {key} {b!r} != {a!r}"
        elif key in ABSOLUTE_KEYS:
            assert abs(a - b) <= ABS_TOL, f"{where}: {key} {b!r} != {a!r}"
        else:
            assert abs(a - b) <= REL_TOL * max(abs(a), abs(b)), (
                f"{where}: {key} {b!r} != {a!r} (relative {REL_TOL})"
            )


def compare_output(name: str, want: str, got: str) -> None:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    assert len(got_lines) == len(want_lines), f"{name}: line count differs"
    header: list[str] = []
    after_params = False
    for line_no, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        where = f"{name}:{line_no}"
        if w.startswith("#"):
            w_tokens, g_tokens = w.split(" "), g.split(" ")
            assert len(g_tokens) == len(w_tokens), f"{where}: {g!r} != {w!r}"
            for wt, gt in zip(w_tokens, g_tokens):
                _compare_value(where, wt.partition("=")[0], wt, gt)
            after_params = w.startswith("# params:")
            continue
        w_fields, g_fields = w.split(","), g.split(",")
        assert len(g_fields) == len(w_fields), f"{where}: {g!r} != {w!r}"
        if after_params:
            header = w_fields
            assert g == w, f"{where}: header {g!r} != {w!r}"
        else:
            for key, wf, gf in zip(header, w_fields, g_fields):
                _compare_value(where, key, wf, gf)
        after_params = False


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_golden_output(outputs, name):
    want_code, want_out = _read_golden(name)
    code, out = outputs[name]
    assert code == want_code
    compare_output(name, want_out, out)


def test_comparison_tolerances():
    compare_output("t", "# params: x=0.1\nn,rel_diff\n1,0.0\n",
                   "# params: x=0.1\nn,rel_diff\n1,5e-13\n")
    compare_output("t", "# params: x=0.1\nn,A\n1,3.0000000000000\n",
                   "# params: x=0.1\nn,A\n1,3.000000000001\n")
    for got in ("# params: x=0.1\nn,A\n1,3.00000001\n",
                "# params: y=0.1\nn,A\n1,3.0\n",
                "# params: x=0.1\nn,A\n1,-3.0\n"):
        with pytest.raises(AssertionError):
            compare_output("t", "# params: x=0.1\nn,A\n1,3.0\n", got)


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (code, out) in _run_cases(Path(tmp)).items():
            (GOLDEN / f"{name}.txt").write_text(f"exit={code}\n{out}")


if __name__ == "__main__":
    sys.exit(regenerate())
