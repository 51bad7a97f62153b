"""Command-line surface: payloads, manifests, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraczeta.cli import (
    _finite_float,
    _parse_list,
    _parse_q_grid,
    _text_table,
    main,
)
from fraczeta.errors import (
    AddressError,
    CapacityError,
    DomainError,
    FraczetaError,
    InputError,
    ParseError,
    PoleError,
    UnsupportedStructureError,
)
from fraczeta.limits import MAX_Q_POINTS, fraction_from_text
from test_cli_fuzz import MAX_ERROR_LINE


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestConstruct:
    def test_pess_depth3_csv_has_8_rows(self, capsys):
        assert main(["construct", "pess", "--depth", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and not l.startswith("#") and "," in l]
        assert len(rows) == 9  # header + 8 intervals
        # every interval has length 1/64
        for row in rows[1:]:
            _, ln, ld, rn, rd = (int(v) for v in row.split(","))
            from fractions import Fraction

            assert Fraction(rn, rd) - Fraction(ln, ld) == Fraction(1, 64)

    def test_zeros_stage5_has_32_intervals(self, capsys, zeros_path):
        payload = run_json(
            capsys, ["construct", "--zeros", str(zeros_path), "--depth", "5"]
        )
        assert payload["result"]["interval_count"] == 32
        assert len(payload["result"]["intervals"]) == 32

    def test_modq_construct(self, capsys):
        payload = run_json(
            capsys,
            ["construct", "--modq", "6", "--keep", "1,5", "--depth", "2"],
        )
        assert payload["result"]["interval_count"] == 4
        assert payload["result"]["base"] == 6

    def test_manifest_embedded(self, capsys):
        payload = run_json(capsys, ["construct", "pess", "--depth", "1"])
        manifest = payload["manifest"]
        assert manifest["command"] == "construct"
        assert manifest["tool_version"]
        assert manifest["parameters"]["depth"] == 1

    def test_capacity_exit_code(self, capsys):
        assert main(["construct", "pess", "--depth", "30"]) == CapacityError.exit_code

    def test_unknown_name_exit_code(self, capsys):
        assert main(["construct", "wat", "--depth", "2"]) == InputError.exit_code

    def test_bad_residues_exit_code(self, capsys):
        assert main(
            ["construct", "--modq", "6", "--keep", "1,9", "--depth", "2"]
        ) == InputError.exit_code

    def test_missing_file_exit_code(self, capsys):
        assert main(
            ["construct", "--zeros", "/nonexistent/zeros.txt", "--depth", "2"]
        ) == InputError.exit_code

    def test_order_standard_sorts_the_zero_file(self, capsys, tmp_path, zeros_path):
        lines = [l for l in zeros_path.read_text().splitlines() if l and not l.startswith("#")]
        unsorted = tmp_path / "unsorted.txt"
        unsorted.write_text("\n".join([lines[2], lines[0], lines[1]]) + "\n")
        ascending = tmp_path / "sorted.txt"
        ascending.write_text("\n".join(lines[:3]) + "\n")
        stages = [
            run_json(
                capsys,
                ["construct", "--zeros", str(path), "--depth", "3", "--order", "standard"],
            )["result"]
            for path in (unsorted, ascending)
        ]
        assert stages[0] == stages[1]


class TestDimension:
    def test_similarity_pess(self, capsys):
        payload = run_json(capsys, ["dimension", "pess", "--method", "similarity"])
        assert payload["result"]["value"] == pytest.approx(0.5, abs=1e-12)

    def test_similarity_mod8(self, capsys):
        payload = run_json(
            capsys,
            ["dimension", "--modq", "8", "--keep", "1,3,5,7", "--method", "similarity"],
        )
        assert payload["result"]["value"] == pytest.approx(2 / 3, abs=1e-12)

    def test_boxcount_cantor13(self, capsys):
        payload = run_json(
            capsys,
            ["dimension", "cantor13", "--method", "boxcount", "--depth", "10"],
        )
        assert payload["result"]["value"] == pytest.approx(1 / 3, abs=1e-9)
        assert payload["result"]["r_squared"] > 0.999
        assert len(payload["result"]["sample_points"]) == 10

    def test_boxcount_pess_depth_30_answers_at_aligned_scales_in_under_a_second(self, capsys):
        start = time.perf_counter()
        payload = run_json(capsys, ["dimension", "pess", "--method", "boxcount", "--depth", "30"])
        assert time.perf_counter() - start < 1.0
        points = payload["result"]["sample_points"]
        assert [p["count"] for p in points] == [2**k for k in range(1, 31)]
        assert payload["result"]["value"] == pytest.approx(0.5, abs=1e-12)

    def test_boxcount_points_csv(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        run_json(
            capsys,
            [
                "dimension", "pess", "--method", "boxcount", "--depth", "5",
                "--points-csv", str(points),
            ],
        )
        rows = [l for l in points.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "epsilon,count,log_inv_eps,log_count"
        assert rows[1].startswith("1/4,2,")
        assert len(rows) == 6


class TestZeta:
    def test_value_string_carries_full_precision(self, capsys):
        payload = run_json(
            capsys,
            ["zeta", "--s", "0.5", "--terms", "2000", "--k", "8", "--digits", "50"],
        )
        value = payload["result"]["value"]
        assert value.startswith("-1.4603545088095868128894991525152980")
        assert payload["result"]["precision_digits"] == 50

    def test_value_prints_only_certified_digits(self, capsys):
        payload = run_json(capsys, ["zeta", "--s", "2/3", "--terms", "10000", "--k", "10", "--digits", "100"])
        result = payload["result"]
        bound = mp.mpf(result["error_bound"])
        certified = int(mp.floor(-mp.log10(bound)))
        assert certified == 84
        assert len(result["value"].lstrip("-").replace(".", "")) <= certified
        with mp.workdps(120):
            ref = mp.zeta(mp.mpf(2) / 3)
            assert abs(mp.mpf(result["value"]) - ref) <= mp.mpf(10) ** (1 - certified) * abs(ref)

    def test_automatic_pair_is_recorded(self, capsys):
        payload = run_json(capsys, ["zeta", "--s", "0.5", "--digits", "100"])
        result, params = payload["result"], payload["manifest"]["parameters"]
        assert (result["terms_N"], result["correction_K"]) == (params["terms"], params["k"]) == (110, 39)
        assert len(result["value"].lstrip("-").replace(".", "")) <= 100
        with mp.workdps(120):
            ref = mp.zeta(mp.mpf(1) / 2)
            assert abs(mp.mpf(result["value"]) - ref) <= mp.mpf(10) ** -99 * abs(ref)

    def test_pole_exit_code(self, capsys):
        assert main(["zeta", "--s", "1"]) == DomainError.exit_code

    def test_negative_argument_exit_code(self, capsys):
        assert main(["zeta", "--s=-0.5"]) == DomainError.exit_code


class TestZeros:
    def test_digitize_csv(self, capsys, zeros_path):
        assert main(["zeros", "digitize", "--file", str(zeros_path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,gamma,t,a,boundary_flag"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == "0"

    def test_stats_json(self, capsys, zeros_path):
        payload = run_json(capsys, ["zeros", "stats", "--file", str(zeros_path)])
        assert payload["result"]["length"] == 100
        assert sum(payload["result"]["counts"]) == 100
        assert payload["result"]["df"] == 3

    def test_reorder_random_deterministic(self, capsys, zeros_path):
        argv = ["zeros", "reorder", "--file", str(zeros_path), "--mode", "random", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        body = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert body(first) == body(second)
        assert len(body(first)) == 100

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("14.2\noops\n")
        assert main(["zeros", "stats", "--file", str(bad)]) == ParseError.exit_code


class TestCompareCatalogConservation:
    def test_compare_trace(self, capsys):
        payload = run_json(capsys, ["compare", "--a", "pess", "--b", "cantor13"])
        assert payload["result"]["result"] == "greater"
        trace = payload["result"]["trace"]
        assert trace[0]["component"] == "alpha" and trace[0]["relation"] == "equal"
        assert trace[1]["component"] == "delta" and trace[1]["relation"] == "greater"

    def test_compare_unknown_name(self, capsys):
        assert main(["compare", "--a", "pess", "--b", "nope"]) == InputError.exit_code

    def test_catalog_json_rows(self, capsys):
        payload = run_json(capsys, ["catalog"])
        names = [row["name"] for row in payload["result"]]
        assert names == ["pess", "cantor13", "zf", "unit-interval", "cantor", "trivial-zeros"]

    def test_catalog_table_renders(self, capsys):
        assert main(["catalog", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "pess" in out and "trivial-zeros" in out and "I(M)" in out

    def test_conservation_sum_zero(self, capsys, zeros_path):
        payload = run_json(capsys, ["conservation", "--zeros", str(zeros_path)])
        result = payload["result"]
        assert result["sum_is_exact_zero"] is True
        assert result["sum"] == "0.0"
        assert "definitional" in result["caveat"]
        assert sum(result["digit_stats"]["counts"]) == 100

    def test_conservation_pair_table(self, capsys):
        assert main(["conservation", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "hausdorff dimension" in out
        assert "information measure" in out
        assert "caveat" in out

    @pytest.mark.parametrize("command", ["catalog", "conservation"])
    def test_report_values_correct_to_every_printed_digit(self, capsys, command):
        # at the old fixed N = 2000, K = 10 the 100-digit values were off by ~4e-70
        result = run_json(capsys, [command, "--digits", "100"])["result"]
        if command == "catalog":
            iotas = {row["name"]: row["iota"] for row in result}
            printed = [iotas["pess"], iotas["zf"]]
        else:
            printed = [result["iota_pess"], result["iota_zf"], result["zeta"]["value"]]
            certified = int(mp.floor(-mp.log10(mp.mpf(result["zeta"]["error_bound"]))))
            assert certified >= 100
        with mp.workdps(120):
            ref = abs(mp.zeta(mp.mpf(1) / 2))
            for text in printed:
                assert len(text.lstrip("-").replace(".", "")) <= 100
                assert abs(abs(mp.mpf(text)) - ref) <= mp.mpf(10) ** -99 * ref

    def test_axioms(self, capsys):
        payload = run_json(capsys, ["axioms"])
        statuses = {row["axiom"]: row["status"] for row in payload["result"]}
        assert statuses["A4"] == "pass"
        assert statuses["A3"] == "not-assertable"


class TestPerturbAndMultifractal:
    def test_perturb_json(self, capsys, tmp_path):
        per_trial = tmp_path / "trials.csv"
        payload = run_json(
            capsys,
            [
                "perturb", "--p", "0.75", "--depth", "10", "--trials", "100",
                "--seed", "7", "--per-trial", str(per_trial),
            ],
        )
        result = payload["result"]
        assert result["trials"] == 100
        assert 0 <= result["extinction_rate"] < 0.5
        assert abs(result["mean_dim"] - result["predicted_dim"]) < 0.05
        rows = [l for l in per_trial.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "trial,final_count,extinct,dim_estimate"
        assert len(rows) == 101

    def test_perturb_requires_one_probability_flag(self, capsys):
        assert main(["perturb", "--depth", "5", "--trials", "5", "--seed", "1"]) == InputError.exit_code

    def test_multifractal_monofractal_output(self, capsys):
        payload = run_json(
            capsys,
            [
                "multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2",
                "--q-range=-2:2:1",
            ],
        )
        points = payload["result"]
        assert [p["q"] for p in points] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        for p in points:
            assert p["alpha"] == pytest.approx(0.5, abs=1e-9)
            assert p["f"] == pytest.approx(0.5, abs=1e-9)


class TestConsoleScript:
    def test_version_runs(self):
        import shutil
        import subprocess

        exe = shutil.which("fraczeta")
        if exe is None:
            pytest.skip("console script not installed")
        res = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert res.returncode == 0
        assert "fraczeta" in res.stdout


class TestReproducibility:
    def test_numeric_payload_byte_identical(self, capsys):
        argv = ["zeta", "--s", "2/3", "--terms", "1500", "--k", "8"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert json.dumps(first["result"]) == json.dumps(second["result"])

    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACZETA_PRECISION", "25")
        payload = run_json(capsys, ["zeta", "--s", "2", "--terms", "500", "--k", "6"])
        assert payload["result"]["precision_digits"] == 25


class TestManifestPrecision:
    """The manifest records the precision the run used."""

    def test_digitize_floor_is_recorded(self, capsys, zeros_path):
        payload = run_json(
            capsys,
            ["zeros", "digitize", "--file", str(zeros_path), "--format", "json", "--digits", "20"],
        )
        assert payload["manifest"]["precision_digits"] == 40
        assert payload["result"]["precision_digits"] == 40

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "stats", "--file", "ZEROS"],
            ["construct", "--zeros", "ZEROS", "--depth", "2"],
            ["dimension", "--zeros", "ZEROS", "--method", "boxcount", "--depth", "4"],
            ["conservation", "--zeros", "ZEROS"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_every_digitizing_path_records_the_floor(self, capsys, zeros_path, argv):
        argv = [str(zeros_path) if a == "ZEROS" else a for a in argv]
        payload = run_json(capsys, [*argv, "--digits", "30"])
        assert payload["manifest"]["precision_digits"] == 40

    def test_digits_zero_is_not_an_absent_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACZETA_PRECISION", "25")
        assert main(["construct", "pess", "--depth", "1", "--digits", "0"]) == InputError.exit_code
        assert capsys.readouterr() == ("", "error: precision_digits must be >= 20, got 0\n")


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


NINES = "9" * 4000
# with the exponent, the most digits that pass the text guard; Python prints no integer of more than 4300
NINES_4299 = "9" * 4299

# (argv, environment, exit code); ZEROS stands for the shipped zero file,
# INF_ZEROS for a zero file with an 'inf' line, HUGE_ZEROS and HUGE_WEIGHTS
# for a zero file and a weight file with a '1e999999' line, NOT_UTF8 for a
# file of bytes that are not UTF-8, DIR for a directory and NO_DIR/ for a
# directory that does not exist.
EXIT_CASES = [
    (["perturb", "--bias", "x,0.5", "--depth", "5", "--trials", "5", "--seed", "1"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q", "nan"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q", "inf"], {}, InputError.exit_code),
    (["zeros", "digitize", "--file", "ZEROS", "--format", "json", "--tol", "nan"], {}, InputError.exit_code),
    (["zeros", "stats", "--file", "ZEROS", "--tol", "inf"], {}, InputError.exit_code),
    (["zeros", "stats", "--file", "INF_ZEROS"], {}, ParseError.exit_code),
    (["zeta", "--s", "abc"], {}, InputError.exit_code),
    (["zeta", "--s", "nan"], {}, InputError.exit_code),
    (["zeta", "--s", "inf"], {}, InputError.exit_code),
    (["zeta", "--s", "1/0"], {}, InputError.exit_code),
    (["construct", "pess", "--depth", "2", "--tol", "nan"], {}, InputError.exit_code),
    # 256 intervals: without the cap check the CSV path streams them and exits 0
    (["construct", "pess", "--depth", "8", "--format", "csv", "--cap", "100"], {}, CapacityError.exit_code),
    (["zeta", "--s", "2", "--terms", "50", "--k", "4"], {"FRACZETA_PRECISION": "abc"}, InputError.exit_code),
    (["construct", "--modq", "6", "--keep", "1,x", "--depth", "2"], {}, InputError.exit_code),
    (["dimension", "pess", "--method", "boxcount", "--scales", "1/0,1/2"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q", "0,1,2.5"], {}, 0),
    (["perturb", "--bias", "0.6,0.9", "--depth", "6", "--trials", "20", "--seed", "3"], {}, 0),
    (["zeros", "digitize", "--file", "ZEROS", "--format", "json", "--tol", "1e-3"], {}, 0),
    (["zeta", "--s", "2/3", "--terms", "200", "--k", "6"], {"FRACZETA_PRECISION": "25"}, 0),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q", "1e6"], {}, DomainError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q=-1e6"], {}, DomainError.exit_code),
    (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--scales", "1e-400,1/4,1/16"], {}, InputError.exit_code),
    (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--scales", "1e400,1/4,1/16"], {}, InputError.exit_code),
    # a huge decimal exponent is refused before Fraction builds the integer
    (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--scales", "1e9999999,1/4,1/16"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1e9999999,1/4", "--weights", "1/2,1/2", "--q", "1"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1e-9999999,1/2", "--q", "1"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=0:1e9999999:1"], {}, InputError.exit_code),
    (["zeta", "--s", "1e9999999"], {}, InputError.exit_code),
    (["zeta", "--s", "1e1_0000000"], {}, InputError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=1e400:1e400:1"], {}, InputError.exit_code),
    # --digits 0 is a value, not an absent flag
    (["zeta", "--s", "2", "--terms", "50", "--k", "4", "--digits", "0"], {"FRACZETA_PRECISION": "25"}, InputError.exit_code),
    # a huge exponent in a data file is refused before it is expanded
    (["zeros", "stats", "--file", "HUGE_ZEROS"], {}, ParseError.exit_code),
    (["zeros", "reorder", "--file", "ZEROS", "--mode", "external", "--weights", "HUGE_WEIGHTS"], {}, ParseError.exit_code),
    # the q grid is counted before it is built
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=0:1:1e-6"], {}, CapacityError.exit_code),
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=0:1e300:1"], {}, CapacityError.exit_code),
    (["zeta", "--s", "1e400"], {}, DomainError.exit_code),
    # zeta work is bounded in terms and in precision, perturb in trials x depth
    (["zeta", "--s", "0.5", "--terms", "100000000"], {}, CapacityError.exit_code),
    (["zeta", "--s", "0.5", "--digits", "100000000"], {}, CapacityError.exit_code),
    (["zeta", "--s", "2", "--terms", "50", "--k", "4", "--digits", "100000000"], {}, CapacityError.exit_code),
    # K grows with the precision, so 300 digits need only a few hundred terms
    (["zeta", "--s", "0.5", "--digits", "300"], {}, 0),
    (["catalog"], {"FRACZETA_PRECISION": "300"}, 0),
    (["zeros", "stats", "--file", "ZEROS", "--digits", "100000000"], {}, CapacityError.exit_code),
    (["perturb", "--p", "0.75", "--depth", "30", "--trials", "100000000", "--seed", "1"], {}, CapacityError.exit_code),
    # N = 2 at K = 30 leaves a bound above 1: no digit is certified, none is printed
    (["zeta", "--s", "0.5", "--terms", "2"], {}, InputError.exit_code),
    # survivor counts that outgrow numpy's int64 binomial draw
    (["perturb", "--p", "1", "--depth", "70", "--trials", "1", "--seed", "1"], {}, CapacityError.exit_code),
    (["perturb", "--p", "0.75", "--depth", "1000000", "--trials", "1", "--seed", "1"], {}, CapacityError.exit_code),
    # the default scales are aligned and counted in closed form: no stage interval is
    # enumerated, so 2^30, 2^20 and 2^17 intervals are no work for the cap
    (["dimension", "pess", "--method", "boxcount", "--depth", "30"], {}, 0),
    (["dimension", "pess", "--method", "boxcount", "--depth", "20"], {}, 0),
    (["dimension", "pess", "--method", "boxcount", "--depth", "17"], {}, 0),
    # an output that cannot be written is an input error naming its flag
    (["construct", "pess", "--depth", "2", "--out", "NO_DIR/x.json"], {}, InputError.exit_code),
    (["construct", "pess", "--depth", "2", "--out", "DIR"], {}, InputError.exit_code),
    (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--points-csv", "NO_DIR/p.csv"], {}, InputError.exit_code),
    (["perturb", "--p", "0.75", "--depth", "3", "--trials", "3", "--seed", "1", "--per-trial", "NO_DIR/t.csv"], {}, InputError.exit_code),
    # a data file that is not UTF-8 is a parse error naming the file
    (["zeros", "stats", "--file", "NOT_UTF8"], {}, ParseError.exit_code),
    (["zeros", "reorder", "--file", "ZEROS", "--mode", "external", "--weights", "NOT_UTF8"], {}, ParseError.exit_code),
    (["construct", "pess", "--depth", "2", "--cap", "-5"], {}, InputError.exit_code),
    # stage endpoints past MAX_STAGE_BITS are refused before the stage is counted
    (["construct", "pess", "--depth", "100000"], {}, CapacityError.exit_code),
    (["dimension", "pess", "--method", "boxcount", "--depth", str(10**30)], {}, CapacityError.exit_code),
    # trials x depth has more digits than Python prints: the cap message gives its digit count
    pytest.param(
        ["perturb", "--p", "0.5", "--depth", str(10**2200), "--trials", str(10**2200), "--seed", "1"],
        {}, CapacityError.exit_code, id="perturb --p 0.5 --depth 10**2200 --trials 10**2200 --seed 1",
    ),
    # 100-bit-per-level endpoints, but the 8 default scales are aligned: nothing is enumerated
    (["dimension", "--modq", str(10**30), "--keep", "1,3,5,7", "--method", "boxcount", "--depth", "8"], {}, 0),
    # the endpoint bits of the largest depth argparse reads have more digits than Python prints
    pytest.param(["construct", "pess", "--depth", "9" * 4300], {}, CapacityError.exit_code,
                 id="construct pess --depth 9...9 (4300 digits)"),
    # distinct scales whose log(1/eps) doubles coincide are refused before any box is counted
    (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--scales",
      "1/1000000000000000001,1/1000000000000000002,1/1000000000000000003"], {}, InputError.exit_code),
    # the work check weighs the scale's words too: 2^16 intervals x 16 scales x 69 words
    pytest.param(
        ["dimension", "pess", "--method", "boxcount", "--depth", "16", "--scales",
         ",".join(f"{10**1000 + 1}/{10**(1290 + k)}" for k in range(16))],
        {}, CapacityError.exit_code,
        id="dimension pess --method boxcount --depth 16 --scales (10**1000+1)/10**(1290+k) for k < 16",
    ),
    # non-aligned scales enumerate the stage, so the cap still refuses the deep ones:
    # 2^20 x 3 x 1 and 2^16 x 3 x 13 interval-words
    (["dimension", "pess", "--method", "boxcount", "--depth", "20", "--scales", "1/3,1/5,1/7"], {},
     CapacityError.exit_code),
    (["dimension", "--modq", str(10**30), "--keep", "1,3,5,7", "--method", "boxcount", "--depth", "8",
      "--scales", "1/3,1/5,1/7"], {}, CapacityError.exit_code),
    # a scale outside the double range is refused before the work check and any count
    pytest.param(
        ["dimension", "pess", "--method", "boxcount", "--depth", "16", "--scales",
         ",".join(f"1/{10**999 + k}" for k in range(16))],
        {}, InputError.exit_code,
        id="dimension pess --method boxcount --depth 16 --scales 1/(10**999+k) for k < 16",
    ),
    # the default scales b^-1..b^-depth leave the double range past depth 511 (b = 4) and 1023 (b = 2)
    (["dimension", "pess", "--method", "boxcount", "--depth", "600"], {}, InputError.exit_code),
    (["dimension", "--modq", "2", "--keep", "1", "--method", "boxcount", "--depth", "1030"], {},
     InputError.exit_code),
    # every command refuses a precision below limits.MIN_PRECISION_DIGITS, used or not
    (["dimension", "pess", "--digits", "-3"], {}, InputError.exit_code),
    (["construct", "pess", "--depth", "1", "--digits", "0"], {}, InputError.exit_code),
    (["zeros", "stats", "--file", "ZEROS", "--digits", "-1"], {}, InputError.exit_code),
    (["perturb", "--p", "0.75", "--depth", "3", "--trials", "2", "--seed", "1", "--digits", "19"], {},
     InputError.exit_code),
    (["construct", "pess", "--depth", "1"], {"FRACZETA_PRECISION": "5"}, InputError.exit_code),
    # a 4000-digit integer in an error is shown by its digit count
    pytest.param(["construct", "pess", "--depth", "-" + NINES], {}, InputError.exit_code,
                 id="construct pess --depth -9...9 (4000 digits)"),
    pytest.param(["construct", "pess", "--depth", "1", "--cap", "-" + NINES], {}, InputError.exit_code,
                 id="construct pess --depth 1 --cap -9...9 (4000 digits)"),
    pytest.param(["perturb", "--p", "0.5", "--depth", "-" + NINES, "--trials", "1", "--seed", "1"], {},
                 InputError.exit_code, id="perturb --p 0.5 --depth -9...9 (4000 digits) --trials 1 --seed 1"),
    pytest.param(["construct", "--modq", NINES, "--keep", "1", "--depth", "1"], {}, CapacityError.exit_code,
                 id="construct --modq 9...9 (4000 digits) --keep 1 --depth 1"),
    # a ratio or weight is checked as an exact fraction before it becomes a double, which would underflow to 0.0
    pytest.param(["dimension", "--modq", NINES, "--keep", "1"], {}, InputError.exit_code,
                 id="dimension --modq 9...9 (4000 digits) --keep 1"),
    (["multifractal", "--ratios", "1e-400,1/2", "--weights", "1/2,1/2", "--q", "1"], {}, InputError.exit_code),
    pytest.param(["multifractal", "--ratios", "1/4,1/4", "--weights", "2e-400,0." + "9" * 399 + "8", "--q=-1"], {},
                 InputError.exit_code, id="multifractal --ratios 1/4,1/4 --weights 2e-400,0.9...98 (1 - 2e-400) --q=-1"),
    # a ratio below 1 that rounds to the double 1.0 would leave every moment constant
    pytest.param(["multifractal", "--ratios", "0." + "9" * 20, "--weights", "1", "--q", "1"], {},
                 InputError.exit_code, id="multifractal --ratios 0.9...9 (20 nines) --weights 1 --q 1"),
    pytest.param(["multifractal", "--ratios", "0." + "9" * 20 + ",1/2", "--weights", "1/2,1/2", "--q", "0"], {},
                 InputError.exit_code, id="multifractal --ratios 0.9...9 (20 nines),1/2 --weights 1/2,1/2 --q 0"),
    # a fraction of more digits than Python prints is shown by its digit counts
    pytest.param(["dimension", "pess", "--method", "boxcount", "--depth", "4", f"--scales=-{NINES_4299}e1000,1/2,1/4"],
                 {}, InputError.exit_code, id="dimension pess --method boxcount --depth 4 --scales=-9...9e1000,1/2,1/4"),
    pytest.param(["zeta", f"--s=-{NINES_4299}e1000"], {}, DomainError.exit_code, id="zeta --s=-9...9e1000"),
    pytest.param(["multifractal", "--ratios", f"{NINES_4299}e1000,1/4", "--weights", "1/2,1/2", "--q", "1"], {},
                 InputError.exit_code, id="multifractal --ratios 9...9e1000,1/4 --weights 1/2,1/2 --q 1"),
    # argparse's usage errors (exit 2) show what they echo by the message rule too: digit runs
    # collapsed, long texts cut; the choices are left to the usage line above the error line
    pytest.param(["construct", f"-{NINES_4299}e1000", "--depth", "1"], {}, 2, id="construct -9...9e1000 --depth 1"),
    pytest.param(["construct", "pess", "--depth", "9" * 5000], {}, 2, id="construct pess --depth 9...9 (5000 digits)"),
    pytest.param(["construct", "pess", "--depth", "1", "--tol", "x" * 4000], {}, 2,
                 id="construct pess --depth 1 --tol x...x (4000 characters)"),
    pytest.param(["zeros", "digitize", "--file", "ZEROS", "--mode", "x" * 4000], {}, 2,
                 id="zeros digitize --file ZEROS --mode x...x (4000 characters)"),
    pytest.param(["x" * 4000], {}, 2, id="x...x (4000 characters)"),
    # a text is bounded as a template's !r prints it, escapes included
    pytest.param(["zeta", "--s", "\x01" * 4000], {}, InputError.exit_code,
                 id="zeta --s \\x01...\\x01 (4000 characters)"),
    # a --q list of no values ends as a missing one does
    (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q", ","], {}, InputError.exit_code),
    # K = 30 given at 300 digits would need about 383,000 terms
    (["zeta", "--s", "0.5", "--k", "30", "--digits", "300"], {}, CapacityError.exit_code),
    # the similarity method would drop both flags without a word
    (["dimension", "pess", "--method", "similarity", "--points-csv", "NO_DIR/p.csv"], {}, InputError.exit_code),
    (["dimension", "pess", "--scales", "1/4,1/16,1/64"], {}, InputError.exit_code),
]

# an error exit is reached within this many seconds
ERROR_BUDGET_S = 1.0


@pytest.mark.parametrize("argv,env,code", EXIT_CASES, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_exit_codes(capsys, monkeypatch, tmp_path, zeros_path, argv, env, code):
    monkeypatch.delenv("FRACZETA_PRECISION", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    files = {"ZEROS": str(zeros_path), "DIR": str(tmp_path), "NO_DIR": str(tmp_path / "missing")}
    for name, data in (
        ("INF_ZEROS", b"14.134725141734693\ninf\n"),
        ("HUGE_ZEROS", b"14.134725141734693\n1e999999\n"),
        ("HUGE_WEIGHTS", b"1 0.5\n2 1e999999\n"),
        ("NOT_UTF8", b"\xff\xfe"),
    ):
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_bytes(data)
    argv = [files.get(a, a) for a in argv]
    argv = [a.replace("NO_DIR/", files["NO_DIR"] + "/") for a in argv]
    start = time.perf_counter()
    try:
        returned = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        returned = exc.code
    assert returned == code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        if code == 2:  # argparse's usage lines, then one error line; its wording varies across Python versions
            assert err.count("error:") == 1 and ": error: " in err.splitlines()[-1], err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        line = err.splitlines()[-1]
        for name, path in sorted(files.items(), key=lambda item: -len(item[1])):
            line = line.replace(path, name)
        assert len(line) <= MAX_ERROR_LINE, line
        assert elapsed < ERROR_BUDGET_S


@pytest.mark.parametrize(
    "argv,message",
    [
        (["dimension", "pess", "--method", "boxcount", "--depth", "600"],
         "error: scale 4^-512 leaves the double range: every scale must keep 1/eps within it; "
         "without --scales the fit uses 4^-1..4^-depth, which needs 3 <= --depth <= 511\n"),
        (["dimension", "--modq", "2", "--keep", "1", "--method", "boxcount", "--depth", "1030"],
         "error: scale 2^-1024 leaves the double range: every scale must keep 1/eps within it; "
         "without --scales the fit uses 2^-1..2^-depth, which needs 3 <= --depth <= 1023\n"),
        (["dimension", "pess", "--method", "boxcount", "--depth", "2"],
         "error: need at least 3 distinct scales, got 2; "
         "without --scales the fit uses 4^-1..4^-depth, which needs 3 <= --depth <= 511\n"),
        # given scales get no note about the defaults
        (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--scales", "1/4,1/16,1e-400"],
         "error: scale 1/a 401-digit number leaves the double range: every scale must keep 1/eps within it\n"),
        (["dimension", "pess", "--method", "boxcount", "--depth", "3", "--scales", "1/4,1/16"],
         "error: need at least 3 distinct scales, got 2\n"),
    ],
    ids=["pess depth 600", "modq 2 depth 1030", "pess depth 2", "scales 1e-400", "two scales"],
)
def test_boxcount_scale_errors_name_the_scale_and_the_default_depths(capsys, argv, message):
    assert main(argv) == InputError.exit_code
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("flag,value", [("--points-csv", "p.csv"), ("--scales", "1/4,1/16,1/64")])
def test_similarity_refuses_the_boxcount_flags(capsys, monkeypatch, tmp_path, flag, value):
    monkeypatch.chdir(tmp_path)
    assert main(["dimension", "pess", flag, value]) == InputError.exit_code
    assert capsys.readouterr() == ("", f"error: {flag} needs --method boxcount; the similarity method ignores it\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["construct", "pess", "--depth", "-" + NINES], "depth must be >= 0, got a negative 4000-digit number"),
        (["construct", "pess", "--depth", "1", "--cap", "-" + NINES],
         "--cap must be >= 0, got a negative 4000-digit number"),
        (["perturb", "--p", "0.5", "--depth", "-" + NINES, "--trials", "1", "--seed", "1"],
         "depth must be >= 1, got a negative 4000-digit number"),
        (["perturb", "--p", "0.5", "--depth", "1", "--trials", "1", "--seed", "1", "--base", "-" + NINES],
         "base must be >= 2, got a negative 4000-digit number"),
        (["construct", "--modq", "-" + NINES, "--keep", "1", "--depth", "1"],
         "base must be >= 2, got a negative 4000-digit number"),
        (["construct", "--modq", NINES, "--keep", "-1", "--depth", "1"],
         "retained digit -1 at all levels not in 0..a 4000-digit number"),
        (["construct", "--modq", NINES, "--keep", "1", "--depth", "1"],
         "stage 1 of 'mod<a 4000-digit number>' has endpoints of 13288 bits, above the cap 12000"),
        (["zeta", "--s", "2", "--terms", "-" + NINES],
         "terms_N must be >= 2, got a negative 4000-digit number"),
        (["zeta", "--s", "2", "--k", NINES], "correction_K must be in 1..354, got a 4000-digit number"),
    ],
    ids=["construct depth", "construct cap", "perturb depth", "perturb base", "modq base", "modq keep",
         "modq label", "zeta terms", "zeta k"],
)
def test_errors_show_a_long_integer_by_its_digit_count(capsys, argv, message):
    assert main(argv) in (InputError.exit_code, CapacityError.exit_code)
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["construct", "--modq", "6", "--keep", "x" + NINES, "--depth", "1"], {},
         "--keep: cannot parse 'x<a 4000-digit number>'"),
        (["perturb", "--bias", "0.5,0.5," + NINES, "--depth", "3", "--trials", "1", "--seed", "1"], {},
         "--bias: cannot parse '0.5,0.5,<a 4000-digit number>'"),
        (["zeta", "--s", "x" + NINES], {}, "cannot interpret 'x<a 4000-digit number>' as a real argument"),
        (["zeta", "--s", "-" + NINES], {},
         "s = a negative 4000-digit number is out of range; evaluate via the functional equation for arguments <= 0"),
        (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=0:x" + NINES + ":1"], {},
         "--q-range: cannot parse '0:x<a 4000-digit number>:1'"),
        (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q-range=0:1:1:" + NINES], {},
         "--q-range must be START:STOP:STEP, got '0:1:1:<a 4000-digit number>'"),
        (["construct", "pess", "--depth", "1"], {"FRACZETA_PRECISION": "x" + NINES},
         "FRACZETA_PRECISION must be an integer, got 'x<a 4000-digit number>'"),
        (["construct", "x" * 4000, "--depth", "1"], {},
         f"unknown set name '{'x' * 80}... (4000 characters)'; valid names: pess, cantor13, classic-cantor, mod6, mod8"),
        (["multifractal", "--ratios", "2" + NINES + ",1/4", "--weights", "1/2,1/2", "--q", "1"], {},
         "ratio a 4001-digit number not in (0, 1]"),
        (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/" + NINES + ",1/2", "--q", "1"], {},
         "weights sum to a 4001-digit number/a 4001-digit number, expected 1"),
        (["dimension", "pess", "--method", "boxcount", "--depth", "4", f"--scales=-{NINES_4299}e1000,1/2,1/4"], {},
         "epsilon must be positive, got a negative 5299-digit number"),
        (["multifractal", "--ratios", f"{NINES_4299}e1000,1/4", "--weights", "1/2,1/2", "--q", "1"], {},
         "ratio a 5299-digit number not in (0, 1]"),
        (["dimension", "--modq", NINES, "--keep", "1"], {},
         "ratio 1/a 4000-digit number leaves the double range: it rounds to 0"),
        (["multifractal", "--ratios", "1e-400,1/2", "--weights", "1/2,1/2", "--q", "1"], {},
         "ratio 1/a 401-digit number leaves the double range: it rounds to 0"),
        (["multifractal", "--ratios", "1/4,1/4", "--weights", "2e-400,0." + "9" * 399 + "8", "--q=-1"], {},
         "weight 1/a 400-digit number leaves the double range: it rounds to 0"),
    ],
    ids=["keep", "bias", "zeta text", "zeta integer", "q-range field", "q-range parts", "precision", "set name",
         "ratio", "weight", "scale fraction", "ratio fraction", "modq ratio", "ratio underflow", "weight underflow"],
)
def test_errors_show_a_long_text_by_its_digit_runs_and_its_length(capsys, monkeypatch, argv, env, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) in (InputError.exit_code, DomainError.exit_code)
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,choices",
    [
        (["bogus"], "construct,dimension,zeta,zeros,compare,catalog,conservation,axioms,perturb,multifractal"),
        (["zeros", "digitize", "--file", "f", "--mode", "bad"], "as-is,standard,random,external"),
        (["zeros", "digitize", "--file", "f", "--mode", "x" * 4000], "as-is,standard,random,external"),
    ],
    ids=["command", "mode", "long mode"],
)
def test_a_usage_error_still_shows_every_valid_choice(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{{{choices}}}" in capsys.readouterr().err


def test_a_long_bad_line_is_cut_in_its_parse_error(capsys, tmp_path):
    bad = tmp_path / "zeros.txt"
    bad.write_text("14.134725141734693\n" + "x" * 4000 + "\n")
    assert main(["zeros", "stats", "--file", str(bad)]) == ParseError.exit_code
    line = f"error: {bad}: line 2: not a decimal number: '{'x' * 80}... (4000 characters)'\n"
    assert capsys.readouterr() == ("", line)


def test_the_label_of_a_long_modulus_stays_whole_in_the_artifact(capsys):
    payload = run_json(capsys, ["construct", "--modq", NINES, "--keep", "1", "--depth", "0"])
    assert payload["result"]["label"] == "mod" + NINES
    assert payload["result"]["base"] == int(NINES)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["construct", "pess", "--depth", "8", "--cap", "100"], CapacityError.exit_code),
        (["construct", "pess", "--depth", "8", "--format", "csv", "--cap", "100"], CapacityError.exit_code),
        (["construct", "pess", "--depth", "2", "--digits", "5"], InputError.exit_code),
        (["construct", "pess", "--depth", "2", "--format", "csv", "--digits", "5000"], CapacityError.exit_code),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_a_refused_construct_writes_no_file(capsys, tmp_path, argv, code):
    out = tmp_path / "stage.out"
    assert main([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "error,code",
    [(FraczetaError, 1), (InputError, 3), (CapacityError, 4), (DomainError, 5), (ParseError, 6),
     (PoleError, 5), (UnsupportedStructureError, 3), (AddressError, 3)],
)
def test_error_classes_carry_their_documented_exit_codes(error, code):
    assert error.exit_code == code


def test_q_grid_is_capped_by_its_point_count():
    def grid(q_range):
        return _parse_q_grid(argparse.Namespace(q=None, q_range=q_range))

    full = grid(f"0:1:1/{MAX_Q_POINTS - 1}")
    assert len(full) == MAX_Q_POINTS and full[-1] == 1.0
    assert grid("-1:1.9:0.5") == [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    with pytest.raises(CapacityError, match=f"{MAX_Q_POINTS + 1} points"):
        grid(f"0:1:1/{MAX_Q_POINTS}")


def test_closed_stdout_exits_1_without_a_traceback():
    src = Path(__file__).resolve().parents[1] / "src"
    # about 160 KB of rows, more than the pipe and the stream buffers hold
    argv = [sys.executable, "-m", "fraczeta.cli", "construct", "pess", "--depth", "12", "--format", "csv"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert proc.stdout.readline().startswith(b"# manifest: ")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


def test_cli_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-c", "import sys, fraczeta.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
    )
    assert res.stdout.strip() == "False"


# Runs one command in a fresh process and prints its exit code and every module it loaded.
_FOOTPRINT_PROBE = (
    "import contextlib, io, sys\n"
    "from fraczeta.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, *sys.modules)\n"
)
_ANALYTIC = {"mpmath", "fraczeta.zeta", "fraczeta.zeros", "fraczeta.cardinality"}
# numpy imports datetime itself, so only perturb may load it
_UNUSED = _ANALYTIC | {"datetime"}


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["construct", "pess", "--depth", "3"], _UNUSED),
        (["dimension", "pess", "--method", "similarity"], _UNUSED | {"statistics"}),
        (["dimension", "cantor13", "--method", "boxcount", "--depth", "6"], _UNUSED),
        (["multifractal", "--ratios", "1/4,1/4", "--weights", "1/2,1/2", "--q", "0,1,2"], _UNUSED | {"statistics"}),
        (["perturb", "--p", "0.75", "--depth", "6", "--trials", "5", "--seed", "7"], _ANALYTIC),
        (
            ["zeros", "reorder", "--file", "ZEROS", "--mode", "random", "--seed", "11"],
            {"mpmath", "fraczeta.cardinality", "fraczeta.zeta", "fraczeta.dimension", "fraczeta.montecarlo", "datetime"},
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_command_imports_only_what_it_runs(zeros_path, argv, unloaded):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [str(zeros_path) if a == "ZEROS" else a for a in argv]
    res = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
    )
    code, *loaded = res.stdout.split()
    assert code == "0", res.stderr
    assert unloaded.isdisjoint(loaded)


class TestParseList:
    @given(st.lists(st.integers()))
    def test_ints_round_trip(self, values):
        assert _parse_list(",".join(map(str, values)), "--x", int) == values

    @given(st.lists(st.fractions()))
    def test_fractions_round_trip(self, values):
        assert _parse_list(", ".join(map(str, values)), "--x", Fraction) == values

    @settings(max_examples=300)
    @given(st.text(), st.sampled_from([int, Fraction, _finite_float, fraction_from_text]))
    def test_text_parses_or_raises_input_error(self, text, conv):
        try:
            values = _parse_list(text, "--x", conv)
        except InputError as exc:
            assert str(exc).startswith("--x: cannot parse")
        else:
            assert len(values) <= text.count(",") + 1


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(st.lists(st.text(), min_size=cols, max_size=cols), min_size=1)
    )
)
def test_text_table_rows_share_width_and_rule_is_second(rows):
    lines = _text_table(rows)
    assert len(lines) == len(rows) + 1
    assert len({len(line) for line in lines}) == 1
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    assert lines[1] == "  ".join("-" * w for w in widths)
