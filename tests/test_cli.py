import math
import warnings

import numpy as np
import pytest

from wrightlens.cli import main, parse_complex
from wrightlens import ParameterError, read_coefficient_csv


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
        ],
    )
    def test_malformed_weights_file_exits_5(self, capsys, tmp_path, content, line):
        path = tmp_path / "weights.csv"
        path.write_text(content)
        code, _, err = run(capsys, "radius", "star", "--weights", str(path))
        assert code == 5
        assert f"line {line}" in err

    def test_weights_file_without_weights_exits_5(self, capsys, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("n,weight\n")
        code, _, err = run(capsys, "radius", "star", "--curve", "--weights", str(path))
        assert code == 5
        assert "lists no weights" in err

    def test_missing_source_exits_2(self, capsys):
        code, _, _ = run(capsys, "radius", "star", "--rho", "0")
        assert code == 2


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
        code, _, _ = run(capsys, "generate", *self.CLASS_ARGS, "--schwarz", "1.0")
        assert code == 2

    def test_near_extremal_first_coefficient(self, capsys, tmp_path):
        out_path = tmp_path / "coeffs.csv"
        code, out, _ = run(
            capsys, "generate", *self.CLASS_ARGS, "--schwarz", "0.999",
            "--n-max", "4", "--out", str(out_path),
        )
        assert code == 0
        first_row = data_rows(out)[0].split(",")
        # the coefficient relations make a_1 quadratic in the leading
        # Schwarz coefficient: |a_1| = 3 * 0.999**2, approaching the bound 3
        assert float(first_row[1]) == pytest.approx(3 * 0.999**2, rel=1e-9)
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
