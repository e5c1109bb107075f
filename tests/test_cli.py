import csv
import io
import json
import math
import re

import pytest

from selberg3 import cli, trace_formula
from selberg3.cli import _divisor_rows, _render_csv_rows, main
from selberg3.trace_formula import SpectralSideInputs
from selberg3.transform import QuadratureError
from selberg3.zeta import spectral_divisor

pytestmark = pytest.mark.filterwarnings(
    "ignore:nce class without axis norm")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_sections(text):
    """CSV output: a main block, then '# name' headed blocks."""
    sections, name, lines = {}, "main", []
    for line in text.splitlines():
        if line.startswith("# "):
            sections[name] = list(csv.DictReader(lines))
            name, lines = line[2:], []
        elif line:
            lines.append(line)
    sections[name] = list(csv.DictReader(lines))
    return sections


def rows_of(text):
    return parse_sections(text)["main"]


PICARD_SMALL = ("--group", "picard", "--height", "4",
                "--norm-bound", "6", "--format", "csv")
EIS_SMALL = ("--group", "eisenstein", "--height", "4",
             "--norm-bound", "6", "--format", "csv")


# -- configuration and usage errors -----------------------------------------

class TestConfig:
    def test_file_then_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ngroup = eisenstein\nheight = 4\n"
                       "norm_bound = 6\nformat = csv\n")
        code, out, _ = run(capsys, "identity", "--config", str(cfg))
        assert code == 0
        assert rows_of(out)[0]["index"] == "3"
        code, out, _ = run(capsys, "identity", "--config", str(cfg),
                           "--group", "picard")
        assert code == 0
        assert rows_of(out)[0]["index"] == "2"

    @pytest.mark.parametrize("line", ["flavor = strange", "tol = 1e-6"],
                             ids=["flavor", "tol"])
    def test_unknown_config_key(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, "enumerate", "--config", str(cfg))
        assert code == 1
        assert line.split()[0] in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "enumerate", "--tol", "1e-6")
        assert code == 1
        assert "--tol" in err

    def test_non_numeric_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("height = tall\n")
        code, _, err = run(capsys, "enumerate", "--config", str(cfg))
        assert code == 1

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "enumerate", "--config",
                           str(tmp_path / "absent.cfg"))
        assert code == 1

    def test_unknown_group(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--group", "apollonian")
        assert code == 1

    def test_unknown_format(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--format", "xml")
        assert code == 1

    def test_nonpositive_parameter(self, capsys):
        code, _, err = run(capsys, "enumerate", "--height", "0")
        assert code == 1
        assert "height" in err


# -- enumerate ---------------------------------------------------------------

class TestEnumerate:
    def test_height_one_has_parabolic_and_elliptic(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--group", "picard",
                           "--height", "1", "--format", "csv")
        assert code == 0
        counts = {r["kind"]: int(r["count"]) for r in rows_of(out)}
        assert counts.get("parabolic", 0) >= 1
        assert counts.get("elliptic", 0) >= 1


# -- representation files ----------------------------------------------------

SIGN_CHARACTER = "modulus = 1 1\non_R = -1\non_S = -1\non_E = 1\n"


class TestRepresentationFile:
    def test_character_file(self, capsys, tmp_path):
        chr_file = tmp_path / "sign.chr"
        chr_file.write_text(SIGN_CHARACTER)
        code, out, _ = run(capsys, "identity", *PICARD_SMALL,
                           "--rep", str(chr_file))
        assert code == 0
        r = rows_of(out)[0]
        assert (r["k_infinity"], r["l_infinity"]) == ("0", "0")
        assert r["exact_zero"] == "true"

    def test_fraction_phases(self, capsys, tmp_path):
        chr_file = tmp_path / "cube.chr"
        chr_file.write_text("modulus = 1 2\non_R = 1/3\non_S = 1/3\n"
                            "on_E = 0/1\n")
        code, out, _ = run(capsys, "identity", *EIS_SMALL,
                           "--rep", str(chr_file))
        assert code == 0
        assert rows_of(out)[0]["exact_zero"] == "true"

    def test_missing_generator_value(self, capsys, tmp_path):
        chr_file = tmp_path / "bad.chr"
        chr_file.write_text("modulus = 1 1\non_R = -1\non_S = -1\n")
        code, _, err = run(capsys, "identity", "--rep", str(chr_file))
        assert code == 1
        assert "on_E" in err

    def test_bad_value(self, capsys, tmp_path):
        chr_file = tmp_path / "bad.chr"
        chr_file.write_text("modulus = 1 1\non_R = loud\non_S = 1\n"
                            "on_E = 1\n")
        assert run(capsys, "identity", "--rep", str(chr_file))[0] == 1

    def test_absent_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "identity", "--rep",
                         str(tmp_path / "nope.chr"))
        assert code == 1

    def test_nan_value_rejected(self, capsys, tmp_path):
        chr_file = tmp_path / "nan.chr"
        chr_file.write_text("modulus = 1 1\non_R = -1\non_S = -1\non_E = nan\n")
        code, _, err = run(capsys, "identity", "--group", "picard",
                           "--rep", str(chr_file))
        assert code == 1
        assert "character" in err

    def test_no_matching_character(self, capsys, tmp_path):
        chr_file = tmp_path / "bad.chr"
        chr_file.write_text("modulus = 1 1\non_R = 1j\non_S = 1\non_E = 1\n")
        code, _, err = run(capsys, "identity", "--group", "picard",
                           "--rep", str(chr_file))
        assert code == 1
        assert "character" in err


# -- lsum --------------------------------------------------------------------

class TestLsum:
    def test_dual_path(self, capsys):
        code, out, _ = run(capsys, "lsum", "--u", "1/2", "--v", "0",
                           "--tau", "i", "--x-max", "1e5", "--format", "csv")
        assert code == 0
        r = rows_of(out)[0]
        assert r["within_bound"] == "true"
        assert float(r["discrepancy"]) <= 5e-3
        assert abs(float(r["direct_re"]) - float(r["closed"])) \
            == pytest.approx(float(r["discrepancy"]), abs=1e-12)

    def test_tau_defaults_to_group(self, capsys):
        code, out, _ = run(capsys, "lsum", "--group", "eisenstein",
                           "--u", "1/3", "--v", "2/3", "--x-max", "2e4",
                           "--max-discrepancy", "0.05", "--format", "csv")
        assert code == 0
        r = rows_of(out)[0]
        assert r["tau"] == "1+omega"
        assert float(r["discrepancy"]) < 0.05

    def test_trivial_pair_reports_divergence(self, capsys):
        code, out, _ = run(capsys, "lsum", "--u", "0", "--v", "0",
                           "--tau", "i", "--format", "csv")
        assert code == 0
        r = rows_of(out)[0]
        assert r["status"] == "divergent"
        # kappa for Z[i]: gamma + L'/L(1) of the quadratic character
        assert abs(float(r["kappa"]) - 0.822825249679) <= 2e-3

    def test_malformed_u(self, capsys):
        code, _, err = run(capsys, "lsum", "--u", "abc")
        assert code == 1
        assert "rational" in err


# -- identity ----------------------------------------------------------------

class TestIdentity:
    @pytest.mark.parametrize("base", [PICARD_SMALL, EIS_SMALL])
    def test_exact_zero(self, capsys, base):
        code, out, _ = run(capsys, "identity", *base)
        assert code == 0
        r = rows_of(out)[0]
        assert r["residual"] == "0/1"
        assert r["exact_zero"] == "true"
        assert int(r["classes"]) >= 1


# -- zeta --------------------------------------------------------------------

class TestZeta:
    def test_values_and_divisor(self, capsys):
        code, out, _ = run(capsys, "zeta", *PICARD_SMALL, "--s", "2")
        assert code == 0
        sections = parse_sections(out)
        r = sections["main"][0]
        assert r["check_ok"] == "true"
        assert float(r["central_diff_rel_err"]) <= 1e-6
        assert float(r["zeta_re"]) > 0
        mero = sections["meromorphy"][0]
        assert (mero["computed"], mero["documented"]) == ("1", "1")
        assert mero["matches"] == "true"
        divisor = sections["divisor"]
        assert [d["residue_num"] for d in divisor[:4]] == ["0", "1", "0", "1"]

    def test_eisenstein_meromorphy_contrast(self, capsys):
        code, out, _ = run(capsys, "zeta", *EIS_SMALL, "--s", "2")
        assert code == 0
        sections = parse_sections(out)
        mero = sections["meromorphy"][0]
        assert (mero["computed"], mero["documented"]) == ("3", "6")
        assert mero["matches"] == "false"
        assert mero["note"]
        divisor = sections["divisor"]
        assert (divisor[1]["residue_num"], divisor[1]["residue_den"]) \
            == ("2", "3")

    def test_out_writes_report_and_divisor(self, capsys, tmp_path):
        out_path = tmp_path / "zeta.csv"
        divisor_path = tmp_path / "zeta.csv.divisor.csv"
        args = ("zeta", *PICARD_SMALL, "--s", "2", "--out", str(out_path))
        assert run(capsys, *args)[0] == 0
        report1 = out_path.read_text()
        divisor = divisor_path.read_bytes()
        assert divisor.decode().split("\n")[:4] == [
            "location_re,location_im,residue_num,residue_den,source",
            "0,0,0,1,topological",
            "-1,0,1,1,topological",
            "-2,0,0,1,topological",
        ]
        assert b"\r" not in divisor
        inline = parse_sections(report1)["divisor"]
        standalone = list(csv.DictReader(io.StringIO(divisor.decode())))
        assert inline == standalone
        assert run(capsys, *args)[0] == 0
        assert out_path.read_text() == report1  # bit-identical rerun
        assert divisor_path.read_bytes() == divisor

    def test_divisor_csv_folds_negative_zero(self):
        # the spectral pair -1 - 0j must print as "-1,0", not "-1,-0"
        recs = spectral_divisor(SpectralSideInputs(
            eigenvalue_parameters=((1.0, 1),)))
        assert math.copysign(1.0, recs[1].location.imag) == -1.0
        assert _render_csv_rows(_divisor_rows(recs)).splitlines() == [
            "location_re,location_im,residue_num,residue_den,source",
            "1,0,1,1,eigenvalue",
            "-1,0,1,1,eigenvalue",
        ]

    def test_json_and_csv_payloads_match(self, capsys):
        base = ("zeta", *PICARD_SMALL, "--s", "2")
        _, out_csv, _ = run(capsys, *base)
        code, out_json, _ = run(capsys, "zeta", "--group", "picard",
                                "--height", "4", "--norm-bound", "6",
                                "--format", "json", "--s", "2")
        assert code == 0
        sections = parse_sections(out_csv)
        payload = json.loads(out_json)
        assert payload["rows"] == sections["main"]
        assert payload["meromorphy"] == sections["meromorphy"]
        assert payload["divisor"] == sections["divisor"]

    def test_s_in_closed_half_plane_rejected(self, capsys):
        code, _, err = run(capsys, "zeta", "--s", "0.5")
        assert code == 1
        assert "exceed 1" in err

    def test_s_checked_before_group_build(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("class list built before --s was checked")

        monkeypatch.setattr(cli, "build_group_data", fail)
        code, out, err = run(capsys, "zeta", "--s", "2", "--s", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")
        assert "exceed 1" in err


# -- trace -------------------------------------------------------------------

class TestTrace:
    def test_terms_sum_and_cancellation(self, capsys):
        code, out, _ = run(capsys, "trace", *PICARD_SMALL,
                           "--s", "2", "--B", "3")
        assert code == 0
        sections = parse_sections(out)
        by_term = {r["term"]: float(r["value_re"])
                   for r in sections["main"]}
        parts = (by_term["identity"] + by_term["non_cuspidal_elliptic"]
                 + by_term["loxodromic"] + by_term["cuspidal_elliptic"]
                 + by_term["parabolic"])
        assert by_term["total"] == pytest.approx(parts, abs=1e-12)
        check = sections["logA_check"][0]
        assert check["cancel_ok"] == "true"
        assert float(check["cancellation_error"]) <= 1e-9

    def test_quadrature_error_is_numerical(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("quadrature error 1.00e-03")

        # cmd_trace looks geometric_side up when it runs
        monkeypatch.setattr(trace_formula, "geometric_side", fail)
        code, out, err = run(capsys, "trace", *PICARD_SMALL)
        assert code == 3
        assert out == ""
        assert err == "numerical error: quadrature error 1.00e-03\n"

    def test_bad_resolvent_pair(self, capsys):
        code, _, err = run(capsys, "trace", "--s", "3", "--B", "2")
        assert code == 1
        assert "resolvent" in err


# -- eisenstein-check --------------------------------------------------------

class TestEisensteinCheck:
    def test_residual_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "eisenstein-check", "--group", "picard",
                           "--height", "4", "--format", "csv")
        assert code == 0
        r = rows_of(out)[0]
        assert r["check_ok"] == "true"
        assert float(r["residual"]) <= 1e-3

    def test_nonsingular_character_rejected(self, capsys, tmp_path):
        chr_file = tmp_path / "sign.chr"
        chr_file.write_text(SIGN_CHARACTER)
        code, _, err = run(capsys, "eisenstein-check", "--group", "picard",
                           "--rep", str(chr_file))
        assert code == 2
        assert "singular" in err

    def test_half_plane_required(self, capsys):
        code, _, _ = run(capsys, "eisenstein-check", "--s", "0.5")
        assert code == 1


# -- output plumbing ---------------------------------------------------------

class TestOutput:
    def test_out_file_equals_stdout(self, capsys, tmp_path):
        args = ("enumerate", "--group", "picard", "--height", "1",
                "--format", "csv")
        _, stdout_text, _ = run(capsys, *args)
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, *args, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text

    def test_text_format_headers(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--group", "picard",
                           "--height", "1")
        assert code == 0
        assert out.startswith("== enumerate ==")

    def test_classify_sections(self, capsys):
        code, out, _ = run(capsys, "classify", *PICARD_SMALL)
        assert code == 0
        sections = parse_sections(out)
        assert {r["kind"] for r in sections["main"]} == {
            "cuspidal_elliptic", "loxodromic", "non_cuspidal_elliptic"}
        assert len(sections["loxodromic"]) >= 1
        assert re.fullmatch(r"\d+/\d+",
                            sections["non_cuspidal_elliptic"][0]["sin_sq"])
