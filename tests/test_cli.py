import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrightlens.cli import main, parse_complex
from wrightlens import ParameterError, WrightParams, phi_values, read_coefficient_csv
from param_grids import class_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [
        line for line in text.splitlines() if line and not line.startswith("#")
    ][1:]  # drop the header row


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1+0i", 1 + 0j),
            ("0.5", 0.5 + 0j),
            ("-0.3-0.2i", -0.3 - 0.2j),
            ("2i", 2j),
            ("1+0j", 1 + 0j),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_complex(text) == value

    def test_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_complex("one")


class TestWrightCommand:
    def test_exponential_value(self, capsys):
        code, out, _ = run(capsys, "wright", "--alpha", "0", "--beta", "1", "--z", "1+0i")
        assert code == 0
        re, im, terms = data_rows(out)[0].split(",")
        assert float(re) == pytest.approx(math.e - 1, rel=1e-12)
        assert float(im) == 0.0
        assert int(terms) > 0

    def test_squared_factorial_value(self, capsys):
        code, out, _ = run(capsys, "wright", "--alpha", "1", "--beta", "1", "--z", "1")
        assert code == 0
        assert float(data_rows(out)[0].split(",")[0]) == pytest.approx(
            1.2795853023360675, rel=1e-10
        )

    def test_invalid_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, "wright", "--alpha", "-2", "--beta", "1", "--z", "0.5")
        assert code == 2
        assert "alpha" in err

    def test_numerical_failure_exits_3(self, capsys):
        code, _, _ = run(capsys, "wright", "--alpha", "0", "--beta", "1", "--z", "300")
        assert code == 3


class TestPhiTable:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "phi-table", "--alpha", "0", "--beta", "1", "--n-max", "4")
        assert code == 0
        values = [float(r.split(",")[1]) for r in data_rows(out)]
        assert values == pytest.approx([1.0, 0.5, 1 / 6, 1 / 24], rel=1e-12)

    def test_pole_index_exits_2(self, capsys):
        code, out, err = run(
            capsys, "phi-table", "--alpha", "-0.5", "--beta", "0.5", "--n-max", "5"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: alpha*n + beta hits a gamma pole (tolerance 1e-12) at "
            "n=[1, 3, 5] for alpha=-0.5, beta=0.5\n"
        )

    def test_argument_past_the_double_range_prints_zeros_quietly(self):
        # alpha*n + beta overflows from n = 2 on; it once printed nan and
        # leaked RuntimeWarnings
        argv = ["phi-table", "--alpha", "1.7e308", "--beta", "1", "--n-max", "5"]
        with spawn(argv, subprocess.PIPE) as proc:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""
        assert [r.split(",")[1] for r in data_rows(out.decode())] == ["0.0"] * 5


class TestBoundsCommand:
    def test_hand_table(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--theta", "0", "--lam", "0", "--gamma", "2",
            "--alpha", "0", "--beta", "1", "--n-max", "3",
        )
        assert code == 0
        # every CSV opens with a comment echoing the full configuration
        assert out.startswith("# params: ")
        rows = [r.split(",") for r in data_rows(out)]
        for row, expected in zip(rows, (3.0, 16.0, 108.0)):
            assert float(row[1]) == pytest.approx(expected, rel=1e-9)
            assert float(row[2]) == pytest.approx(expected, rel=1e-9)
            assert float(row[3]) < 1e-9

    def test_argument_past_the_double_range_exits_3_quietly(self):
        argv = ["bounds", "--theta", "0", "--lam", "0.2", "--gamma", "2",
                "--alpha", "1.7e308", "--beta", "1", "--n-max", "5"]
        with spawn(argv, subprocess.PIPE) as proc:
            out, err = proc.communicate(timeout=120)
        assert proc.returncode == 3
        assert out == b""
        assert err.decode().startswith("error: ") and err.count(b"\n") == 1

    def test_lambda_out_of_range_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "bounds", "--theta", "0", "--lam", "0.6", "--gamma", "2",
            "--alpha", "0", "--beta", "1",
        )
        assert code == 2

    def test_gamma_boundary_needs_relaxed(self, capsys):
        args = ["bounds", "--theta", "0", "--lam", "0", "--gamma", "1.0",
                "--alpha", "0", "--beta", "1", "--n-max", "2"]
        code, _, _ = run(capsys, *args)
        assert code == 2
        code, _, _ = run(capsys, *args, "--relaxed")
        assert code == 0

    def test_deterministic_output(self, capsys):
        args = ["bounds", "--theta", "0.6", "--lam", "0.2", "--gamma", "5",
                "--alpha", "0.5", "--beta", "1.5", "--n-max", "10"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestRadiusCommand:
    def test_example_star(self, capsys):
        code, out, _ = run(capsys, "radius", "star", "--rho", "0", "--extremal-n", "1")
        assert code == 0
        radius = float(data_rows(out)[0].split(",")[0])
        assert radius == pytest.approx(0.577350, abs=1e-6)

    def test_example_convex(self, capsys):
        code, out, _ = run(capsys, "radius", "convex", "--rho", "0", "--extremal-n", "2")
        assert code == 0
        radius = float(data_rows(out)[0].split(",")[0])
        assert radius == pytest.approx(0.5, abs=1e-6)

    def test_curve_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "radius", "star", "--curve", "--steps", "50", "--extremal-n", "1"
        )
        assert code == 0
        for row in data_rows(out):
            rho, radius = (float(x) for x in row.split(","))
            assert radius == pytest.approx(
                math.sqrt((1 - rho) / (3 - rho)), abs=1e-6
            )

    def test_weights_file_source(self, capsys, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("n,weight\n1,1.0\n")
        code, out, _ = run(capsys, "radius", "star", "--rho", "0", "--weights", str(path))
        assert code == 0
        assert float(data_rows(out)[0].split(",")[0]) == pytest.approx(
            1 / math.sqrt(3), abs=1e-6
        )

    def test_class_params_source(self, capsys):
        code, out, _ = run(
            capsys, "radius", "star", "--rho", "0", "--theta", "0", "--lam", "0",
            "--gamma", "2", "--alpha", "0", "--beta", "1", "--n-max", "40",
        )
        assert code == 0
        assert 0.0 < float(data_rows(out)[0].split(",")[0]) < 1.0

    def test_strict_escalates_truncation(self, capsys):
        code, _, err = run(
            capsys, "radius", "star", "--rho", "0", "--theta", "0", "--lam", "0.45",
            "--gamma", "5", "--alpha", "0", "--beta", "1", "--n-max", "2", "--strict",
        )
        assert code == 4
        assert "truncation" in err or "moved" in err

    def test_strict_fallback_reports_the_base_radius(self, capsys):
        # the base solve runs only when the warning can fire; its radius is
        # part of the message.  Each radius lies at most 2e-11 (relative)
        # below the 50-digit root of its own float terms (n_max 20 and 10).
        code, out, err = run(
            capsys, "radius", "star", "--rho", "0", "--theta", "0", "--lam", "0.45",
            "--gamma", "5", "--alpha", "0", "--beta", "1", "--n-max", "10", "--strict",
        )
        assert code == 4
        assert data_rows(out) == [
            "0.2816940493649412,0.2816940493649412,0.281694049370575,20"
        ]
        assert err == (
            "warning: radius moved from 0.3078326000198923 (n_max=10) to "
            "0.2816940493649412 (n_max=20) when the truncation doubled; "
            "increase n_max\n"
        )
        for radius, root in ((0.2816940493649412, 0.28169404936775811653),
                             (0.3078326000198923, 0.30783260002297062516)):
            assert 0.0 < root - radius <= 2e-11 * root

    def test_strict_silent_when_converged(self, capsys):
        code, out, _ = run(
            capsys, "radius", "star", "--rho", "0", "--theta", "0", "--lam", "0",
            "--gamma", "2", "--alpha", "0", "--beta", "1", "--n-max", "40", "--strict",
        )
        assert code == 0
        assert out.startswith("# params: ")

    @pytest.mark.parametrize(
        "content,line",
        [
            ("n,weight\n1,1.0,2.0\n", 2),
            ("n,weight\n1\n", 2),
            ("n,weight\n0,1.0\n", 2),
            ("# moduli\nn,weight\n2,0.5\n2,0.5\n", 4),
            ("n,weight\n1,abc\n", 2),
            ("n,weight\n1,0.5\n2,nan\n", 3),
            ("# moduli\nn,weight,extra\n1,0.5,0\n", 2),
        ],
    )
    def test_malformed_weights_file_exits_5(self, capsys, tmp_path, content, line):
        path = tmp_path / "weights.csv"
        path.write_text(content)
        code, _, err = run(capsys, "radius", "star", "--weights", str(path))
        assert code == 5
        assert f"line {line}" in err

    @pytest.mark.parametrize("curve", [[], ["--curve", "--steps", "3"]], ids=["rho", "curve"])
    def test_overflowing_terms_exit_3(self, capsys, tmp_path, curve):
        # m_n * weight_n = inf once gave inf * 0 = nan after r**(n+1)
        # underflowed, and the bisection returned a wrong radius with exit 0
        path = tmp_path / "weights.csv"
        path.write_text("n,weight\n1,1e308\n2,1e308\n3,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(
                capsys, "radius", "convex", "--rho", "0.5", "--weights", str(path), *curve
            )
        assert code == 3
        assert out == ""
        assert "exceeds the floating-point range at n=1" in err
        assert "encountered" not in err and "warning" not in err

    def test_uncertified_root_exits_3(self, capsys, monkeypatch):
        # a certificate that never holds ends the Halley steps at their cap
        from wrightlens import radii

        monkeypatch.setattr(radii, "_separates", lambda *args: None)
        code, out, err = run(capsys, "radius", "star", "--rho", "0", "--extremal-n", "3")
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            f"error: no certified radius after {radii._ROOT_CAP} Halley steps"
        ]

    def test_weights_file_without_weights_exits_5(self, capsys, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("n,weight\n")
        code, _, err = run(capsys, "radius", "star", "--curve", "--weights", str(path))
        assert code == 5
        assert "lists no weights" in err

    def test_missing_source_exits_2(self, capsys):
        code, _, _ = run(capsys, "radius", "star", "--rho", "0")
        assert code == 2

    TOL_ERRORS = {
        "1e-13": "tol must be at least 1e-12",
        **dict.fromkeys(("0", "-1", "nan"), "tol must be positive"),
        **dict.fromkeys(("0.5", "inf", "2"), "tol must be finite and below 0.5"),
    }

    @pytest.mark.parametrize("tol", TOL_ERRORS)
    def test_tol_past_the_bracket_exits_2(self, capsys, tol):
        # a tol of 0.5 or more once stopped the bisection before its first
        # halving and printed the bracket [0, 1 - 1e-9] as a radius of 0.0
        # with exit 0
        for source in (
            ["--extremal-n", "1"],
            ["--theta", "0", "--lam", "0.2", "--gamma", "2", "--alpha", "0", "--beta", "1"],
        ):
            code, out, err = run(capsys, "radius", "star", "--rho", "0", "--tol", tol, *source)
            assert code == 2
            assert out == ""
            assert self.TOL_ERRORS[tol] in err

    RADIUS_SOURCES = st.one_of(
        st.integers(1, 40).map(lambda k: ["--extremal-n", str(k)]),
        st.tuples(st.sampled_from(tuple(class_grid())), st.integers(1, 60)).map(
            lambda drawn: [
                "--theta", repr(drawn[0].theta), "--lam", repr(drawn[0].lam),
                "--gamma", repr(drawn[0].gamma), "--alpha", "0", "--beta", "1",
                "--n-max", str(drawn[1]),
            ]
        ),
    )

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(("star", "convex")),
        rho=st.floats(0.0, 1.0, exclude_max=True),
        tol=st.one_of(
            st.floats(1e-12, 0.5, exclude_max=True),
            st.floats(-12.0, -0.31).map(lambda u: max(10.0**u, 1e-12)),
        ),
        source=RADIUS_SOURCES,
    )
    def test_any_rho_and_tol_give_a_bracket_within_tol(self, kind, rho, tol, source):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["radius", kind, "--rho", repr(rho), "--tol", repr(tol), *source])
        assert code == 0, err.getvalue()
        radius, lo, hi, _ = (float(x) for x in data_rows(out.getvalue())[0].split(","))
        assert radius == lo <= hi
        assert hi - lo <= tol
        assert "Traceback" not in err.getvalue()

    def test_curve_builds_class_weights_once_per_truncation(self, capsys, monkeypatch):
        from functools import lru_cache

        import wrightlens

        # a fresh memo over the uncached product, so earlier tests' entries
        # do not hide the builds
        sizes = []
        product = wrightlens.bounds._weight_product.__wrapped__

        def counted(lam, big_l, k):
            sizes.append(k)
            return product(lam, big_l, k)

        monkeypatch.setattr(wrightlens.bounds, "_weight_product", lru_cache(maxsize=64)(counted))
        code, out, _ = run(
            capsys, "radius", "star", "--curve", "--steps", "5", "--theta", "0",
            "--lam", "0", "--gamma", "2", "--alpha", "0", "--beta", "1", "--n-max", "20",
        )
        assert code == 0
        assert len(data_rows(out)) == 5
        assert sorted(sizes) == [20, 40]


class TestMemberCommand:
    CLASS_ARGS = ["--theta", "0", "--lam", "0", "--gamma", "2",
                  "--alpha", "0", "--beta", "1"]

    def test_bare_pole_is_member(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,re,im\n")
        code, out, _ = run(capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path))
        assert code == 0
        assert "# verdict: member" in out
        assert "min_re_tau=1.0" in out

    def test_bound_violation_not_member(self, capsys, tmp_path):
        path = tmp_path / "violate.csv"
        path.write_text("n,re,im\n1,4.0,0.0\n")
        code, out, _ = run(capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path))
        assert code == 0
        assert "# verdict: not_member" in out
        assert "all_satisfied=False" in out

    def test_scan_flag(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,re,im\n")
        code, out, _ = run(
            capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path), "--scan",
            "--eta-count", "8",
        )
        assert code == 0
        assert "# scan:" in out
        assert "vanishes=False" in out

    def test_scan_evaluates_the_grid_once(self, capsys, tmp_path, monkeypatch):
        # bounds, sufficiency, membership, scan and grid CSV share one pass
        from wrightlens import laurent, membership

        calls = []
        evaluate_grid = laurent._grid_values

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate_grid(*args, **kwargs)

        for module in (laurent, membership):
            monkeypatch.setattr(module, "_grid_values", counted)
        path = tmp_path / "coeffs.csv"
        path.write_text("n,re,im\n1,0.2,0.1\n2,0.0,0.05\n")
        code, out, _ = run(
            capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path), "--scan",
            "--out", str(tmp_path / "grid.csv"),
        )
        assert code == 0
        assert "# scan:" in out
        assert len(calls) == 1

    def test_grid_csv_written(self, capsys, tmp_path):
        coeffs = tmp_path / "empty.csv"
        coeffs.write_text("n,re,im\n")
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "member", *self.CLASS_ARGS, "--coeffs", str(coeffs),
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "z_re,z_im,re_tau"
        assert lines[-1].startswith("# summary:")
        assert len(lines) == 2 + 16 * 64 + 1

    def test_grid_csv_minimum_is_the_reported_minimum(self, capsys, tmp_path):
        coeffs = tmp_path / "coeffs.csv"
        rotated = ["--theta", "0.6", "--lam", "0.2", "--gamma", "2",
                   "--alpha", "0.5", "--beta", "1.5"]
        assert run(capsys, "generate", *rotated, "--schwarz", "0,0.2,0.1",
                   "--n-max", "40", "--out", str(coeffs))[0] == 0
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "member", *rotated, "--coeffs", str(coeffs),
                           "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        csv_min = min(float(row.split(",")[2]) for row in data_rows(text))
        summary = text.splitlines()[-1].split("min_re_tau=")[1]
        reported = out.split("min_re_tau=")[1].split()[0]
        assert repr(csv_min) == summary == reported

    def test_unreadable_file_exits_5(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "member", *self.CLASS_ARGS, "--coeffs", str(tmp_path / "nope.csv")
        )
        assert code == 5

    def test_malformed_file_exits_5_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,re,im\n1,xyz,0.0\n")
        code, _, err = run(capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path))
        assert code == 5
        assert "line 2" in err

    def test_header_with_extra_column_exits_5(self, capsys, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("n,re,im,extra\n1,0.1,0.0,7\n")
        code, _, err = run(capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path))
        assert code == 5
        assert "line 1" in err
        assert "n,re,im" in err

    def test_non_finite_value_exits_5_with_line(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("n,re,im\n2,0.5,0.0\n1,inf,0\n")
        code, _, err = run(capsys, "member", *self.CLASS_ARGS, "--coeffs", str(path))
        assert code == 5
        assert "line 3" in err
        assert "finite" in err

    @pytest.mark.parametrize("scan", [[], ["--scan"]])
    def test_vanishing_denominator_exits_3_before_output(self, capsys, tmp_path, scan):
        # phi_1 a_1 = -4 puts a zero of the lambda mix 1/z - 4z at z = 0.5,
        # the outermost grid ring
        coeffs = tmp_path / "zero.csv"
        coeffs.write_text("n,re,im\n1,-4,0\n")
        out_path = tmp_path / "grid.csv"
        code, out, err = run(
            capsys, "member", *self.CLASS_ARGS, "--coeffs", str(coeffs),
            "--max-radius", "0.5", *scan, "--out", str(out_path),
        )
        assert code == 3
        assert out == ""
        assert err == "error: denominator vanishes at z=(0.5+0j)\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("scan", [[], ["--scan"]])
    @pytest.mark.parametrize("tol", ["-10", "nan", "inf", "-inf"])
    def test_invalid_tol_exits_2_before_output(self, capsys, tmp_path, tol, scan):
        # min Re tau is -5.40 here; a tol of -10 once certified it a member
        coeffs = tmp_path / "coeffs.csv"
        coeffs.write_text("n,re,im\n1,0.75,0\n")
        out_path = tmp_path / "grid.csv"
        code, out, err = run(
            capsys, "member", "--theta", "0", "--lam", "0.2", "--gamma", "2",
            "--alpha", "0", "--beta", "1", "--coeffs", str(coeffs), f"--tol={tol}",
            *scan, "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: tol must be finite and nonnegative, got {float(tol)!r}\n"
        assert not out_path.exists()


class TestGenerateCommand:
    CLASS_ARGS = ["--theta", "0", "--lam", "0", "--gamma", "2",
                  "--alpha", "0", "--beta", "1"]

    def test_zero_schwarz_gives_zero_coefficients(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        code, out, _ = run(
            capsys, "generate", *self.CLASS_ARGS, "--schwarz", "0",
            "--n-max", "5", "--out", str(out_path),
        )
        assert code == 0
        f = read_coefficient_csv(out_path)
        assert np.all(f.coeffs == 0)

    def test_boundary_mass_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", *self.CLASS_ARGS, "--schwarz", "0,1.0")
        assert code == 2
        assert "sum |c_k| must stay strictly below 1" in err

    @pytest.mark.parametrize("command", ["generate", "verify-identities"])
    def test_linear_term_exits_2_before_output(self, capsys, command):
        code, out, err = run(capsys, command, *self.CLASS_ARGS, "--schwarz", "0.9")
        assert code == 2
        assert out == ""
        assert err == (
            "error: --schwarz must start with c1 = 0: the class is parametrised "
            "by Schwarz functions with w'(0) = 0, got c1=(0.9+0j)\n"
        )

    def test_pole_index_exits_2(self, capsys):
        code, out, err = run(
            capsys, "generate", *self.CLASS_ARGS[:6], "--alpha", "-0.5", "--beta", "6",
            "--schwarz", "0,0.4", "--n-max", "30",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: alpha*n + beta hits a gamma pole (tolerance 1e-12) at "
            "n=[12, 14, 16, 18, 20, 22, 24, 26, 28, 30] for alpha=-0.5, beta=6.0\n"
        )

    def test_zero_of_q_inside_the_disk_exits_3_before_output(self, capsys):
        # 1 - lam A vanishes at z = 0.874; this once printed all_satisfied=True
        code, out, err = run(
            capsys, "generate", "--theta", "0", "--lam", "0.45", "--gamma", "5",
            "--alpha", "0", "--beta", "1", "--schwarz", "0,-0.9", "--n-max", "40",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: 1 - lam*A(z) vanishes at z=(0.87400737")

    def test_near_extremal_first_coefficient(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        code, out, _ = run(
            capsys, "generate", *self.CLASS_ARGS, "--schwarz", "0,0.999",
            "--n-max", "4", "--out", str(out_path),
        )
        assert code == 0
        first_row = data_rows(out)[0].split(",")
        # inside the class (w'(0) = 0) a_1 is linear in c_2:
        # |a_1| = 3 * 0.999, approaching the bound 3
        assert float(first_row[1]) == pytest.approx(3 * 0.999, rel=1e-9)
        assert float(first_row[1]) < float(first_row[2])
        assert "all_satisfied=True" in out

    def test_comparison_against_file(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        run(
            capsys, "generate", *self.CLASS_ARGS, "--schwarz", "0,0.4",
            "--n-max", "12", "--out", str(out_path),
        )
        f = read_coefficient_csv(out_path)
        assert f.truncation == 12


class TestVerifyIdentities:
    CLASS_ARGS = ["--theta", "0.6", "--lam", "0.2", "--gamma", "2",
                  "--alpha", "0", "--beta", "1"]

    def test_quadratic_schwarz_residuals_small(self, capsys):
        code, out, _ = run(
            capsys, "verify-identities", *self.CLASS_ARGS, "--schwarz", "0,0.4",
            "--n-max", "12",
        )
        assert code == 0
        residuals = [float(r.split(",")[2]) for r in data_rows(out) if "," in r]
        assert max(residuals) < 1e-10
        assert "unphased_max" in out

    def test_seed_env_var_reproducibility(self, capsys, monkeypatch):
        args = ["verify-identities", *self.CLASS_ARGS, "--random", "3", "--n-max", "8"]
        monkeypatch.setenv("WRIGHTLENS_SEED", "42")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        monkeypatch.setenv("WRIGHTLENS_SEED", "43")
        _, third, _ = run(capsys, *args)
        assert third != first

    def test_needs_a_source(self, capsys):
        code, _, _ = run(capsys, "verify-identities", *self.CLASS_ARGS)
        assert code == 2

    def test_random_draws_stay_in_the_class(self, capsys):
        # every draw has w'(0) = 0, so the defining relation holds to rounding
        code, out, _ = run(
            capsys, "verify-identities", *self.CLASS_ARGS, "--random", "5",
            "--n-max", "16",
        )
        assert code == 0
        residuals = [float(r.split(",")[2]) for r in data_rows(out) if "," in r]
        assert len(residuals) == 5 * 18
        assert max(residuals) < 1e-12

    def test_n_max_below_one_exits_2_before_output(self, capsys):
        code, out, err = run(
            capsys, "verify-identities", *self.CLASS_ARGS, "--random", "2",
            "--n-max", "0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-max must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [["--theta", "0", "--lam", "0.2", "--gamma", "1e308", "--alpha", "0",
          "--beta", "1", "--schwarz", "0,0.5", "--n-max", "5"],
         [*CLASS_ARGS[:6], "--alpha", "1", "--beta", "1", "--random", "2",
          "--n-max", "200"]],
        ids=["past-the-double-range", "random-past-the-order-cap"],
    )
    def test_numerical_failure_exits_3_before_output(self, capsys, argv):
        # every member is generated before the first line is printed
        code, out, err = run(capsys, "verify-identities", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def spawn(argv, stdout):
    """The CLI in a fresh interpreter, with stderr piped."""
    import wrightlens

    env = dict(os.environ)
    # stdout block-buffered, as it is for a pipe by default
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(wrightlens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "wrightlens.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


class TestClosedStdout:
    ARGV = ["verify-identities", "--theta", "0", "--lam", "0", "--gamma", "2",
            "--alpha", "0", "--beta", "1", "--n-max", "40"]

    def test_reader_closing_after_the_first_line_exits_1_quietly(self):
        # well past the pipe's buffer, so the writer is still writing when
        # the reader goes away
        proc = spawn(self.ARGV + ["--random", "200"], subprocess.PIPE)
        with proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert first.startswith(b"# params:")
        assert err == b""
        assert code == 1

    def test_reader_gone_before_the_final_flush_exits_1_quietly(self):
        # a short output stays buffered until the end; with the read end
        # closed before the start, only that last flush meets the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = spawn(self.ARGV + ["--random", "4"], write_end)
        finally:
            os.close(write_end)
        with proc:
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert err == b""
        assert code == 1


class TestPastOrderCap:
    """Orders whose a_n or A_n leave the double range fail as numerical errors."""

    @pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 1), (0.5, 1.5)])
    @pytest.mark.parametrize(
        "command",
        [["bounds"], ["generate", "--schwarz", "0,0.4"],
         ["verify-identities", "--schwarz", "0,0.4"]],
        ids=["bounds", "generate", "verify-identities"],
    )
    def test_exits_3_without_runtime_warning(self, capsys, command, alpha, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(
                capsys, *command, "--theta", "0.6", "--lam", "0.2", "--gamma", "2",
                "--alpha", str(alpha), "--beta", str(beta), "--n-max", "200",
            )
        assert code == 3
        assert "exceeds the floating-point range" in err

    @pytest.mark.parametrize(
        "alpha,beta,index", [(1, 1, 99), (0.5, 1.5, 129), (0, 1, 171)]
    )
    @pytest.mark.parametrize("command", ["generate", "verify-identities"])
    def test_generator_names_the_first_order_past_the_cap(
        self, capsys, command, alpha, beta, index
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(
                capsys, command, "--schwarz", "0,0.4",
                "--theta", "0.6", "--lam", "0.2", "--gamma", "2",
                "--alpha", str(alpha), "--beta", str(beta), "--n-max", "200",
            )
        assert code == 3
        assert err == f"error: a_{index} exceeds the floating-point range\n"


class TestLargeGamma:
    """R1 = -1/(1-2 lam) stays exact however large gamma is; a gamma that
    takes the generator's constants past the double range exits 3."""

    SCHWARZ = ["--alpha", "0", "--beta", "1", "--schwarz", "0,0.5"]

    @pytest.mark.parametrize(
        "theta,gamma", [("0.6", "3.16e6"), ("1.2", "1e14"), ("0", "1e16")]
    )
    def test_members_generate_and_meet_the_oracle(self, capsys, tmp_path, theta, gamma):
        # these exited 3: "forced normalization g_0 = -1 failed"
        argv = ["--theta", theta, "--lam", "0", "--gamma", gamma, *self.SCHWARZ,
                "--n-max", "8"]
        path = tmp_path / "coeffs.csv"
        code, out, err = run(capsys, "generate", *argv, "--out", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("# bounds: all_satisfied=True\n")
        h = phi_values(WrightParams(0, 1), 8) * read_coefficient_csv(path).coeffs
        code, out, err = run(capsys, "verify-identities", *argv)
        assert (code, err) == (0, "")
        residuals = [float(r.split(",")[2]) for r in data_rows(out) if "," in r]
        assert max(residuals) <= 1e-13 * np.max(np.abs(h))

    @pytest.mark.parametrize(
        "argv",
        [["generate", "--lam", "0.2", *SCHWARZ, "--n-max", "5"],
         ["generate", "--lam", "0", *SCHWARZ, "--n-max", "5"],
         ["verify-identities", "--lam", "0.2", *SCHWARZ, "--n-max", "5"],
         ["radius", "star", "--lam", "0", "--alpha", "0", "--beta", "1",
          "--n-max", "5"]],
        ids=["generate-lam-0.2", "generate-lam-0", "verify-identities", "radius"],
    )
    def test_past_the_double_range_exits_3_quietly(self, argv):
        # an uncaught LinAlgError and leaked RuntimeWarnings once ended these
        with spawn([*argv, "--theta", "0", "--gamma", "1e308"], subprocess.PIPE) as proc:
            err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode == 3
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSizeLimits:
    """Oversized size flags exit 2, naming flag and bound, before any work."""

    CLASS_ARGS = ["--theta", "0", "--lam", "0", "--gamma", "2",
                  "--alpha", "0", "--beta", "1"]
    HUGE = str(10**12)

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        import wrightlens

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for module in (wrightlens.cli, wrightlens.special, wrightlens.laurent,
                       wrightlens.bounds, wrightlens.membership, wrightlens.radii):
            for name in ("phi_values", "polar_grid", "_grid_values", "solve_radius",
                         "SchwarzFunction"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize(
        "argv,flag,limit",
        [
            (["phi-table", "--alpha", "0", "--beta", "1", "--n-max", HUGE],
             "--n-max", 10_000),
            (["bounds", *CLASS_ARGS, "--n-max", HUGE], "--n-max", 10_000),
            (["generate", *CLASS_ARGS, "--schwarz", "0,0.4", "--n-max", HUGE],
             "--n-max", 10_000),
            (["verify-identities", *CLASS_ARGS, "--random", "2", "--n-max", HUGE],
             "--n-max", 10_000),
            (["verify-identities", *CLASS_ARGS, "--random", HUGE], "--random", 10_000),
            (["radius", "star", *CLASS_ARGS, "--n-max", HUGE], "--n-max", 10_000),
            (["radius", "star", "--curve", "--extremal-n", "1", "--steps", HUGE],
             "--steps", 10_000),
            (["radius", "star", "--rho", "0", "--extremal-n", HUGE],
             "--extremal-n", 10_000),
            (["member", *CLASS_ARGS, "--coeffs", "missing.csv", "--scan",
              "--eta-count", HUGE], "--eta-count", 4_096),
            (["member", *CLASS_ARGS, "--coeffs", "missing.csv", "--grid-radii", HUGE],
             "--grid-radii", 1_024),
            (["member", *CLASS_ARGS, "--coeffs", "missing.csv", "--grid-angles", HUGE],
             "--grid-angles", 4_096),
        ],
        ids=["phi-table", "bounds", "generate", "verify-identities",
             "verify-identities-random", "radius",
             "radius-steps", "radius-extremal-n", "member-eta-count", "member-grid-radii",
             "member-grid-angles"],
    )
    def test_oversized_flag_exits_2(self, capsys, argv, flag, limit):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be <= {limit}, got {10**12}\n"

    def test_negative_random_count_exits_2(self, capsys):
        code, out, err = run(capsys, "verify-identities", *self.CLASS_ARGS,
                             "--random", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --random must be >= 0, got -1\n"
