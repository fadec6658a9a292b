"""Subcommand behavior, output formats, and the exit-code contract."""

import argparse
import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qhofer.cli
import qhofer.quantum_homology
import qhofer.seidel_bounds
from qhofer import LoopLengths, lengths_blowup_loop, model_blowup_cp2
from qhofer.cli import build_parser, main
from helpers import NINE_A2, count_rotation_builds


def shift_lengths(monkeypatch, plus, minus=0):
    """Make ``lengths`` read its exact one-sided lengths moved by ``plus`` and ``minus``."""
    monkeypatch.setattr(
        qhofer.seidel_bounds, "lengths_blowup_loop",
        lambda k, a2: LoopLengths(
            lengths_blowup_loop(k, a2).plus + plus, lengths_blowup_loop(k, a2).minus + minus
        ),
    )


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestProduct:
    def test_blowup_golden(self, capsys):
        code, out, _ = run(
            capsys, "product", "--model", "blowup", "--a2", "1/4", "E", "F"
        )
        assert code == 0
        assert out.strip() == "1 * p + -1 * E * e^{-1*E}"

    def test_projective_line(self, capsys):
        code, out, _ = run(capsys, "product", "--model", "cpn", "--n", "1", "x", "x")
        assert code == 0
        assert out.strip() == "1 * 1 * e^{-1*L}"

    def test_unit_factor(self, capsys):
        code, out, _ = run(
            capsys, "product", "--model", "blowup", "--a2", "1/4", "1", "E"
        )
        assert code == 0
        assert out.strip() == "1 * E"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "product", "--model", "blowup", "--a2", "1/4",
            "--format", "json", "F", "F",
        )
        assert code == 0
        assert json.loads(out)["product"] == "1 * E * e^{-1*E}"

    def test_parse_error_is_usage(self, capsys):
        code, _, err = run(
            capsys, "product", "--model", "blowup", "--a2", "1/4", "E +", "F"
        )
        assert code == 1
        assert "parse error" in err

    def test_missing_area_is_usage(self, capsys):
        code, _, err = run(capsys, "product", "E", "F")
        assert code == 1
        assert "--a2" in err


class TestPowerAndInvert:
    def test_negative_power(self, capsys):
        code, out, _ = run(
            capsys,
            "power", "--model", "blowup", "--a2", "1/4", "--k", "-4",
            "F * e^{1/2*E + 1/4*F}",
        )
        assert code == 0
        assert out.strip() == "1 * p * e^{1*F} + 1 * 1"

    def test_exact_inverse_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "invert", "--model", "blowup", "--a2", "1/4",
            "F * e^{1/2*E + 1/4*F}",
        )
        assert code == 0
        assert "1 * p * e^{1/2*E + 3/4*F}" in out
        assert "exact inverse" in out

    def test_truncated_inverse_notes_floor(self, capsys):
        code, out, _ = run(
            capsys,
            "invert", "--model", "blowup", "--a2", "1/4", "--floor", "-3",
            "--format", "json", "1 + p",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is False
        assert payload["floor"] == "-3"

    def test_positive_valuation_truncation_passes(self, capsys):
        # v(x) = 1, so the residual of the truncation reaches above the floor
        # but stays below floor + v(x), as invert promises.
        code, out, err = run(
            capsys, "invert", "--a2", "1/10", "--floor", "-3", "1 + 2 * E * e^{1*E + 1*F}"
        )
        assert code == 0, err
        assert "# inverse truncated at area -3" in out

    @pytest.mark.parametrize("x", ["1 + p", "1 + 2 * E * e^{1*E + 1*F}"])
    def test_shallow_truncation_fails_check(self, capsys, monkeypatch, x):
        invert = qhofer.quantum_homology.invert

        def shallow(model, y, floor):
            return invert(model, y, floor + 1)

        # cmd_invert imports invert from its module when it runs.
        monkeypatch.setattr(qhofer.quantum_homology, "invert", shallow)
        code, out, err = run(capsys, "invert", "--a2", "1/10", "--floor", "-3", x)
        assert code == 2 and not out
        assert "not below floor + v(x)" in err

    def test_negative_fractional_floor(self, capsys):
        # argparse reads "-1/2" after a space as an option name; "=" binds it.
        code, out, _ = run(capsys, "invert", "--a2", "1/4", "--floor=-1/2", "1 + p")
        assert code == 0
        assert out == run(capsys, "invert", "--a2", "1/4", "--floor=-0.5", "1 + p")[1]

    def test_non_invertible_is_check_failure(self, capsys):
        code, _, err = run(
            capsys,
            "invert", "--model", "cpn", "--n", "1", "x + -1 * 1 * e^{-1/2*L}",
        )
        assert code == 2
        assert "singular" in err


class TestPsi:
    def test_zero_multiple_prints_unit(self, capsys):
        code, out, _ = run(capsys, "psi", "--k", "0", "--a2", "1/4")
        assert code == 0
        m = model_blowup_cp2(Fraction(1, 4))
        assert m.element(out.splitlines()[0]) == m.unit()

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "psi", "--k", "2", "--a2", "1/4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == "3/20"
        assert payload["valuation"] == "9/20"
        assert payload["value"] == "1 * E * e^{-3/5*E + 4/5*F}"

    def test_monotone_value_fails_check(self, capsys):
        code, _, err = run(capsys, "psi", "--k", "1", "--a2", "1/3")
        assert code == 2
        assert "3a^2" in err

    def test_builds_one_model(self, capsys, monkeypatch):
        # psi and its recomposition check share one build of the area.
        counts = count_rotation_builds(monkeypatch)
        code, _, err = run(capsys, "psi", "--a2", "4/11", "--k", "3")
        assert code == 0, err
        assert counts == {"builds": 1, "inverses": 0, "signs": 0}


class TestBoundsAndGrowth:
    def test_bounds_hold(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--a2", "1/10", "--kmax", "30", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert len(payload["rows"]) == 30

    def test_bounds_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "bounds.csv"
        code, out, _ = run(
            capsys,
            "bounds", "--a2", "1/2", "--kmax", "8",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        with target.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["k", "bound"]
        assert len(rows) == 9

    def test_growth_csv_columns(self, capsys):
        code, out, _ = run(
            capsys, "growth", "--kmax", "6", "--a2", "1/5", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == [
            "k", "vQk", "vQk_dec", "vQnegk", "vQnegk_dec",
            "bound", "bound_dec", "omegaF", "omegaF_dec",
        ]

    def test_growth_csv_line_endings_are_lf(self, capsys, tmp_path):
        argv = ["growth", "--kmax", "4", "--a2", "1/4", "--format", "csv"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "\r" not in out and out.count("\n") == 5
        target = tmp_path / "growth.csv"
        code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert b"\r" not in target.read_bytes()

    def test_growth_text_summary(self, capsys):
        code, out, _ = run(capsys, "growth", "--kmax", "12", "--a2", "1/2")
        assert code == 0
        assert "bounded: True" in out

    def test_rtilde_certificate(self, capsys):
        code, out, _ = run(capsys, "rtilde", "--a2", "1/2", "--kmax", "50")
        assert code == 0
        assert "attained at k = 2" in out
        assert "1/2 (x pi)" in out

    def test_rtilde_large_kmax(self, capsys):
        code, out, _ = run(capsys, "rtilde", "--a2", "1/10", "--kmax", "100000")
        assert code == 0
        assert "[1, 100000] of v(Q^k) + v(Q^-k) = 9/10 (x pi), attained at k = 2" in out

    def test_rtilde_json(self, capsys):
        code, out, _ = run(
            capsys, "rtilde", "--a2", "3/4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_bound"] == "1/4"
        assert payload["matches_omegaF"] is True


class TestLengthsAndGeocheck:
    def test_lengths_double_loop(self, capsys):
        code, out, _ = run(capsys, "lengths", "--a2", "1/2", "--k", "2")
        assert code == 0
        assert "0.500000000000 x pi" in out

    def test_lengths_single_loop(self, capsys):
        code, out, _ = run(capsys, "lengths", "--a2", "1/2", "--k", "1")
        assert code == 0
        assert "1.000000000000 x pi" in out

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_lengths_meet_the_exact_bounds(self, capsys, k):
        for a2 in NINE_A2:
            code, _, err = run(capsys, "lengths", "--a2", str(a2), "--k", k)
            assert code == 0, err

    def test_lengths_builds_one_model_and_one_inverse(self, capsys, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        code, _, err = run(capsys, "lengths", "--a2", "1/4", "--k", "2")
        assert code == 0, err
        assert counts == {"builds": 1, "inverses": 1, "signs": 2}

    def test_lengths_side_mismatch_fails(self, capsys, monkeypatch):
        # The sum is kept, so only the one-sided equalities can see it.
        shift_lengths(monkeypatch, -Fraction(1, 1000), Fraction(1, 1000))
        code, out, err = run(capsys, "lengths", "--a2", "1/10")
        assert code == 2
        assert "x pi" in out
        assert "v(Psi(2))" in err

    @pytest.mark.parametrize("shift", [Fraction(1, 1000), Fraction(1, 10**15)])
    def test_lengths_sum_mismatch_fails_at_monotone_value(self, capsys, monkeypatch, shift):
        # 10^-15 is below the 1e-12 float check; only the exact sum sees it.
        shift_lengths(monkeypatch, shift)
        code, _, err = run(capsys, "lengths", "--a2", "1/3")
        assert code == 2
        assert "check failed: L/pi" in err

    def test_geocheck_passes_on_constant(self, capsys, tmp_path):
        grid = tmp_path / "const.csv"
        grid.write_text("1,2,3\n1,2,3\n1,2,3\n")
        code, out, _ = run(capsys, "geocheck", str(grid))
        assert code == 0
        payload = json.loads(out)
        assert payload["has_fixed_max_each_moment"] is True

    def test_geocheck_fails_on_crossing(self, capsys, tmp_path):
        grid = tmp_path / "cross.csv"
        grid.write_text("0,1\n1,0\n")
        code, _, err = run(capsys, "geocheck", str(grid))
        assert code == 2
        assert "no fixed" in err

    def test_geocheck_weights_row(self, capsys, tmp_path):
        grid = tmp_path / "weighted.csv"
        grid.write_text("weights,1,2\n0,1\n0,1\n")
        code, out, _ = run(capsys, "geocheck", str(grid), "--format", "text")
        assert code == 0
        assert "fixed max at each moment: True" in out

    def test_geocheck_missing_file_is_usage(self, capsys, tmp_path):
        code, _, err = run(capsys, "geocheck", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_geocheck_empty_cell_is_usage(self, capsys, tmp_path):
        # Skipping the empty cells would read a 2-column grid and misname witnesses.
        grid = tmp_path / "holes.csv"
        grid.write_text("1,,3\n4,,6\n")
        code, out, err = run(capsys, "geocheck", str(grid))
        assert code == 1
        assert out == ""
        assert f"{grid}: empty cell in row 1" in err

    def test_geocheck_malformed_is_usage(self, capsys, tmp_path):
        grid = tmp_path / "bad.csv"
        grid.write_text("a,b\nc,d\n")
        code, _, err = run(capsys, "geocheck", str(grid))
        assert code == 1
        assert "non-numeric" in err

    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("0,1,0\n0,nan,0\n0,1,0\n", "non-finite cell 'nan' in row 2"),
            ("0,inf,0\n0,1,0\n0,1,0\n", "non-finite cell 'inf' in row 1"),
            ("0,1,0\n-inf,1,0\n0,1,0\n", "non-finite cell '-inf' in row 2"),
            ("weights,1,inf,1\n0,1,0\n0,1,0\n", "non-finite cell 'inf' in row 1"),
        ],
        ids=["nan", "inf", "neg-inf", "inf-weight"],
    )
    def test_geocheck_non_finite_is_usage(self, capsys, tmp_path, text, refusal):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        assert run(capsys, "geocheck", str(grid)) == (1, "", f"qhofer: error: {grid}: {refusal}\n")

    @pytest.mark.parametrize(
        "text, refusal",
        [
            ("0,1\nabc,2\n", "non-numeric cell 'abc' in row 2"),
            # Read row by row: the first bad row is named, not the last.
            ("0,1\n\n2,x\n3,1_0\n", "non-numeric cell 'x' in row 3"),
            ("0,1,2\n", "need a rectangular 2d grid with at least two samples per axis"),
            ("weights,1,1\n", "need a rectangular 2d grid with at least two samples per axis"),
            ("weights,1\n0,1\n1,2\n", "weights must list one value per sample point"),
            ("weights,-1,1\n0,1\n1,2\n",
             "weights must be finite, nonnegative, with positive sum"),
        ],
        ids=["word", "first-bad-row", "one-row", "weights-only", "short-weights", "weights-sign"],
    )
    def test_geocheck_refusals_name_the_file(self, capsys, tmp_path, text, refusal):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        assert run(capsys, "geocheck", str(grid)) == (1, "", f"qhofer: error: {grid}: {refusal}\n")


# The two ways a model file is read; PATH stands for the file.
MODEL_READERS = [["model-validate", "PATH"], ["product", "--model", "PATH", "E", "F"]]


def rename_class(data: dict, old: str, new: str) -> None:
    """Rename basis class ``old`` of a model file's data, in its table too."""
    for row in data["basis"]:
        row["name"] = new if row["name"] == old else row["name"]
    for row in data["gw"]:
        row["classes"] = [new if c == old else c for c in row["classes"]]


class TestModelFiles:
    def test_export_then_validate(self, capsys, tmp_path):
        target = tmp_path / "blowup.json"
        code, _, _ = run(
            capsys,
            "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target),
        )
        assert code == 0
        code, out, _ = run(capsys, "model-validate", str(target))
        assert code == 0
        assert "valid" in out

    @pytest.mark.parametrize(
        "argv",
        [["--model", "blowup", "--a2", a2] for a2 in ("1/100", "1/3", "99/100")]
        + [["--model", "cpn", "--n", n] for n in ("1", "2", "5")],
    )
    def test_builtin_models_validate(self, capsys, tmp_path, argv):
        target = tmp_path / "model.json"
        assert run(capsys, "model-export", *argv, "--out", str(target))[0] == 0
        code, out, _ = run(capsys, "model-validate", str(target))
        assert code == 0 and "is valid" in out

    # A printed element reads back only when every name is one word of element
    # text and no two generators share a name.  Each fault is reported once.
    @pytest.mark.parametrize(
        "edit, refusal",
        [
            (lambda d: d.update(sphere_generators=["E", "E"]),
             "sphere generator 'E' is listed more than once"),
            (lambda d: d.update(sphere_generators=["E", ""]), "name '' cannot be read back"),
            (lambda d: rename_class(d, "E", "E+F"), "name 'E+F' cannot be read back"),
            (lambda d: rename_class(d, "F", " F"), "name ' F' cannot be read back"),
            (lambda d: rename_class(d, "p", "e^p"), "name 'e^p' cannot be read back"),
            (lambda d: d.update(sphere_generators=["E", "{F}"]), "name '{F}' cannot be read back"),
            (lambda d: (rename_class(d, "E", "E*"), d.update(sphere_generators=["E*", "F"])),
             "name 'E*' cannot be read back"),
        ],
        ids=["twice", "empty", "plus", "outer space", "exponential", "braces", "class and generator"],
    )
    @pytest.mark.parametrize("argv", MODEL_READERS)
    def test_names_must_read_back(self, capsys, tmp_path, edit, refusal, argv):
        target = tmp_path / "model.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/10", "--out", str(target))
        data = json.loads(target.read_text())
        edit(data)
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, *(str(target) if a == "PATH" else a for a in argv))
        assert (code, out) == (2, "")
        assert err.count(refusal) == 1 and err.count("\n") == 1

    def test_validate_rejects_broken_file(self, capsys, tmp_path):
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        data["pairing"][0][3] = "0"
        target.write_text(json.dumps(data))
        code, _, err = run(capsys, "model-validate", str(target))
        assert code == 2
        assert "invalid model" in err

    @pytest.mark.parametrize(
        "field, value",
        [("c1", [1.2, 2]), ("c1", [True, 2]), ("dim", 4.9), ("degree", 2.5)],
    )
    def test_validate_rejects_non_integral(self, capsys, tmp_path, field, value):
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        if field == "degree":
            data["basis"][1]["degree"] = value
        else:
            data[field] = value
        target.write_text(json.dumps(data))
        code, _, err = run(capsys, "model-validate", str(target))
        assert code == 2
        assert "must be integers" in err

    @pytest.mark.parametrize("field", ["pairing", "value"])
    def test_validate_rejects_bool_rationals(self, capsys, tmp_path, field):
        # JSON true is not the rational 1.
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        assert data["pairing"][0][3] == "1" and data["gw"][0]["value"] == "1"
        if field == "value":
            data["gw"][0]["value"] = True
        else:
            data["pairing"][0][3] = True
        target.write_text(json.dumps(data))
        code, _, err = run(capsys, "model-validate", str(target))
        assert code == 2
        assert "invalid model" in err

    # A rational is read as text and refuses exponent notation; an integer
    # field refuses any text before it is read.
    @pytest.mark.parametrize(
        "field, refusal", [("dim", "must be integers"), ("value", "plain decimal")]
    )
    def test_validate_rejects_exponent_notation(self, capsys, tmp_path, field, refusal):
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        if field == "value":
            data["gw"][0]["value"] = "1e999999999"
        else:
            data[field] = "1e999999999"
        target.write_text(json.dumps(data))
        code, _, err = run(capsys, "model-validate", str(target))
        assert code == 2
        assert refusal in err

    # A JSON value of the wrong type is refused, not coerced by str() or read
    # as a rational; a string where a list belongs is not read as a list of
    # characters, and a JSON object (here empty) is no list either.
    @pytest.mark.parametrize(
        "edit, refusal",
        [
            (lambda d: d.update(name=["x"]), "must be strings, not ['x']"),
            (lambda d: d["basis"][1].update(name=2), "must be strings, not 2"),
            (lambda d: d.update(sphere_generators=[1, 2]), "must be strings, not 1"),
            (lambda d: d.update(dim="4"), "must be integers, not '4'"),
            (lambda d: d["basis"][0].update(degree="0"), "must be integers, not '0'"),
            (lambda d: d.update(c1=[1, "2"]), "must be integers, not '2'"),
            (lambda d: d.update(sphere_generators="EF"), "must be JSON arrays, not 'EF'"),
            (lambda d: d.update(basis={}), "must be JSON arrays, not {}"),
            (lambda d: d.update(pairing="0001"), "must be JSON arrays, not '0001'"),
            (lambda d: d["pairing"].__setitem__(0, "0001"), "must be JSON arrays, not '0001'"),
            (lambda d: d.update(omega="13"), "must be JSON arrays, not '13'"),
            (lambda d: d.update(c1="12"), "must be JSON arrays, not '12'"),
            (lambda d: d.update(gw={}), "must be JSON arrays, not {}"),
            (lambda d: d["gw"][0].update(classes="p11"), "must be JSON arrays, not 'p11'"),
            (lambda d: d["gw"][0].update(B="00"), "must be JSON arrays, not '00'"),
            (lambda d: d.update(basis="abc"), "must be JSON arrays, not 'abc'"),
            (lambda d: d.update(gw="abc"), "must be JSON arrays, not 'abc'"),
            (lambda d: d.update(basis=[1, 2]), "entries must be JSON objects, not 1"),
            (lambda d: d.update(gw=[1]), "entries must be JSON objects, not 1"),
        ],
        ids=["name", "basis-name", "sphere-generators", "dim", "degree", "c1",
             "sphere-generators-text", "basis-object", "pairing-text", "pairing-row-text",
             "omega-text", "c1-text", "gw-object", "classes-text", "B-text",
             "basis-text", "gw-text", "basis-entry", "gw-entry"],
    )
    def test_validate_refuses_coercion(self, capsys, tmp_path, edit, refusal):
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        edit(data)
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "model-validate", str(target))
        assert code == 2 and not out
        assert "malformed model data" in err and refusal in err

    def test_validate_rejects_short_c1(self, capsys, tmp_path):
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        data["c1"] = [1]
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "model-validate", str(target))
        assert code == 2 and not out
        assert "omega and c1 must list one value per sphere generator" in err

    def test_validate_stops_at_a_wrong_rank_exponent(self, capsys, tmp_path):
        # The skipped entry is not reported again as a missing classical entry.
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        data["gw"][0]["B"] = ["0"]
        target.write_text(json.dumps(data))
        assert run(capsys, "model-validate", str(target)) == (2, "", (
            "qhofer: check failed: invalid model: "
            "table entry (p,1,1) has an exponent of rank 1, not 2\n"
        ))

    def test_validate_rejects_singular_pairing(self, capsys, tmp_path):
        # Symmetric and degree-respecting, with equal E and F rows.
        target = tmp_path / "singular.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        data["pairing"] = [
            ["0", "0", "0", "1"],
            ["0", "1", "1", "0"],
            ["0", "1", "1", "0"],
            ["1", "0", "0", "0"],
        ]
        data["gw"] = [
            {"classes": c, "B": ["0", "0"], "value": "1"}
            for c in (["p", "1", "1"], ["E", "E", "1"], ["E", "F", "1"], ["F", "F", "1"])
        ]
        target.write_text(json.dumps(data))
        code, _, err = run(capsys, "model-validate", str(target))
        assert code == 2
        assert "singular" in err

    @pytest.mark.parametrize(
        "index", [1.5, True, float("inf")], ids=["fraction", "bool", "infinity"]
    )
    def test_validate_rejects_non_integer_class_index(self, capsys, tmp_path, index):
        # Truncated, 1.5 and true would read as index 1, the class E.
        target = tmp_path / "blowup.json"
        run(capsys, "model-export", "--model", "blowup", "--a2", "1/4",
            "--out", str(target))
        data = json.loads(target.read_text())
        row = next(r for r in data["gw"] if r["classes"][0] == "E")
        row["classes"][0] = index
        target.write_text(json.dumps(data))
        code, _, err = run(capsys, "model-validate", str(target))
        assert code == 2
        assert "invalid model" in err

    @pytest.mark.parametrize(
        "content", [b"{not json", b'{"name": "\xff"}'], ids=["malformed", "not-utf8"]
    )
    @pytest.mark.parametrize("argv", MODEL_READERS)
    def test_unreadable_model_file_is_invalid(self, capsys, tmp_path, content, argv):
        target = tmp_path / "junk.json"
        target.write_bytes(content)
        code, out, err = run(capsys, *(str(target) if a == "PATH" else a for a in argv))
        assert code == 2
        assert out == ""
        assert "malformed model file" in err

    @pytest.mark.parametrize(
        "content, kind", [("[1, 2]", "list"), ('"abc"', "str"), ("null", "NoneType")],
        ids=["array", "string", "null"],
    )
    @pytest.mark.parametrize("argv", MODEL_READERS)
    def test_model_file_must_hold_an_object(self, capsys, tmp_path, content, kind, argv):
        target = tmp_path / "model.json"
        target.write_text(content)
        code, out, err = run(capsys, *(str(target) if a == "PATH" else a for a in argv))
        assert (code, out) == (2, "")
        assert err.endswith(f"malformed model data: a model is a JSON object, not {kind}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", MODEL_READERS)
    def test_directory_as_model_is_usage(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(str(tmp_path) if a == "PATH" else a for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("qhofer: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lengths", "--a2", "1/4"],
            ["bounds", "--a2", "1/4", "--kmax", "3"],
            ["model-export", "--a2", "1/4"],
        ],
    )
    def test_out_into_missing_directory_is_usage(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "gone" / "out.txt"))
        assert code == 1
        assert out == ""
        assert err.startswith("qhofer: error: ") and err.count("\n") == 1

    def test_validate_missing_file_is_usage(self, capsys, tmp_path):
        code, _, _ = run(capsys, "model-validate", str(tmp_path / "gone.json"))
        assert code == 1

    def test_exported_model_usable_by_product(self, capsys, tmp_path):
        target = tmp_path / "cp2.json"
        code, _, _ = run(
            capsys, "model-export", "--model", "cpn", "--n", "2",
            "--out", str(target),
        )
        assert code == 0
        code, out, _ = run(capsys, "product", "--model", str(target), "x", "x^2")
        assert code == 0
        assert out.strip() == "1 * 1 * e^{-1*L}"


SMALL_INPUTS = {
    "product": ["--a2", "1/4", "E", "F"],
    "power": ["--a2", "1/4", "--k", "-2", "F * e^{1/2*E + 1/4*F}"],
    "invert": ["--a2", "1/4", "--floor", "-3", "1 + p"],
    "psi": ["--a2", "1/4", "--k", "2"],
    "bounds": ["--a2", "1/4", "--kmax", "5"],
    "growth": ["--a2", "1/4", "--kmax", "5"],
    "rtilde": ["--a2", "1/4", "--kmax", "5"],
    "lengths": ["--a2", "1/4"],
    "geocheck": ["GRID"],
}


def format_choices():
    """(subcommand, format) for every subcommand that takes --format."""
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, fmt)
        for name, sub in subs.choices.items()
        for action in sub._actions
        if action.dest == "format"
        for fmt in action.choices
    ]


class TestOutputPath:
    def test_small_inputs_cover_every_formatted_subcommand(self):
        assert {name for name, _ in format_choices()} == set(SMALL_INPUTS)

    @pytest.mark.parametrize("command, fmt", format_choices())
    def test_out_file_matches_stdout(self, capsys, tmp_path, command, fmt):
        grid = tmp_path / "grid.csv"
        grid.write_text("0,1,2\n0,1,3\n0,2,3\n")
        argv = [command, "--format", fmt]
        argv += [str(grid) if a == "GRID" else a for a in SMALL_INPUTS[command]]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.endswith("\n")
        target = tmp_path / "out.txt"
        code, shown, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and shown == ""
        assert target.read_bytes() == out.encode()
        if fmt == "json":
            json.loads(out)


GROWTH_CSV = (
    "k,vQk,vQk_dec,vQnegk,vQnegk_dec,bound,bound_dec,omegaF,omegaF_dec\n"
    "1,5/16,0.3125,11/16,0.6875,1,1.0,3/4,0.75\n"
    "2,3/8,0.375,3/8,0.375,3/4,0.75,3/4,0.75\n"
    "3,11/16,0.6875,5/16,0.3125,1,1.0,3/4,0.75\n"
    "4,3/4,0.75,3/4,0.75,3/2,1.5,3/4,0.75\n"
    "5,13/16,0.8125,11/16,0.6875,3/2,1.5,3/4,0.75\n"
    "6,7/8,0.875,3/8,0.375,5/4,1.25,3/4,0.75\n"
)
CP2_MODEL = {
    "name": "cp2",
    "dim": 4,
    "sphere_generators": ["L"],
    "basis": [
        {"name": "1", "degree": 4},
        {"name": "x", "degree": 2},
        {"name": "x^2", "degree": 0},
    ],
    "pairing": [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]],
    "omega": ["1"],
    "c1": [3],
    "gw": [
        {"classes": ["1", "1", "x^2"], "B": ["0"], "value": "1"},
        {"classes": ["1", "x", "x"], "B": ["0"], "value": "1"},
        {"classes": ["x", "x^2", "x^2"], "B": ["1"], "value": "1"},
    ],
}
GRID_REPORT = {
    "label": "grid.csv",
    "window": 2,
    "has_fixed_max_each_moment": True,
    "has_fixed_min_each_moment": True,
    "max_witnesses": [2, 2],
    "min_witnesses": [0, 0],
}

CHECK_FAILURE_FILES = {
    "junk.json": "{not json\n",
    "partial.json": json.dumps({"name": "partial", "dim": 4}),
    "odd_dim.json": json.dumps({
        "name": "cp1", "dim": 3, "sphere_generators": ["L"],
        "basis": [{"name": "1", "degree": 2}, {"name": "x", "degree": 0}],
        "pairing": [["0", "1"], ["1", "0"]], "omega": ["1"], "c1": [2],
        "gw": [{"classes": ["1", "1", "x"], "B": ["0"], "value": "1"},
               {"classes": ["x", "x", "x"], "B": ["1"], "value": "1"}],
    }),
    "cross.csv": "0,1\n1,0\n",
}


class TestGoldenBytes:
    """Exact stdout, --out bytes and error lines of the cli renderers."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["growth", "--a2", "1/4", "--kmax", "6", "--format", "csv"], GROWTH_CSV),
            (["model-export", "--model", "cpn", "--n", "2"], json.dumps(CP2_MODEL, indent=2) + "\n"),
        ],
        ids=["growth-csv", "model-export"],
    )
    def test_stdout_and_out_file(self, capsys, tmp_path, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")
        target = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == expected.encode()

    def test_geocheck_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.csv").write_text("0,1,2\n0,1,3\n0,2,3\n")
        assert run(capsys, "geocheck", "grid.csv") == (0, json.dumps(GRID_REPORT, indent=2) + "\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["product", "E", "F"], "--a2 is required for the blow-up model"),
            (["product", "--model", "cpn", "E", "F"], "--n is required for the projective-space model"),
            (["model-validate", "missing.json"], "model file not found: missing.json"),
            (["product", "--model", "missing.json", "E", "F"], "model file not found: missing.json"),
            (["geocheck", "ragged.csv"], "ragged.csv: ragged rows"),
            # float() would read the cell as 10 and give a verdict on another grid.
            (["geocheck", "underscore.csv"], "underscore.csv: non-numeric cell '1_0' in row 1"),
        ],
    )
    def test_usage_error_lines(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ragged.csv").write_text("0,1,2\n0,1\n")
        (tmp_path / "underscore.csv").write_text("1_0,2\n3,4\n")
        assert run(capsys, *argv) == (1, "", f"qhofer: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["model-validate", "junk.json"],
            ["model-validate", "partial.json"],
            ["model-validate", "odd_dim.json"],
            ["psi", "--a2", "1/3", "--k", "2"],
            ["invert", "--a2", "1/4", "0"],
            ["power", "--a2", "1/4", "--k", "-3", "1 + p"],
            ["product", "--model", "junk.json", "p", "p"],
            # These two write their report before the check fails.
            ["geocheck", "cross.csv", "--out", "report.json"],
            ["lengths", "--a2", "1/10", "--out", "report.txt"],
        ],
        ids=["validate-junk", "validate-partial", "validate-odd-dim", "psi-monotone",
             "invert-zero", "power-non-unit", "product-junk-model", "geocheck", "lengths"],
    )
    def test_check_failure_lines(self, capsys, tmp_path, monkeypatch, argv):
        """Every exit-2 path prints one line, with one prefix, and no stdout."""
        monkeypatch.chdir(tmp_path)
        for name, text in CHECK_FAILURE_FILES.items():
            (tmp_path / name).write_text(text)
        if argv[0] == "lengths":
            shift_lengths(monkeypatch, -Fraction(1, 1000), Fraction(1, 1000))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("qhofer: check failed: ") and err.count("\n") == 1, err


class TestFailedChecksAfterOutput:
    """A sweep or length report is written whole, then a failed check exits 2."""

    def test_bounds_below_omega_f(self, capsys, monkeypatch):
        sweep = qhofer.seidel_bounds.two_sided_bounds
        monkeypatch.setattr(
            qhofer.seidel_bounds, "two_sided_bounds",
            lambda k_max, a2: [r._replace(bound=r.bound - (r.k == 3)) for r in sweep(k_max, a2)],
        )
        code, out, err = run(capsys, "bounds", "--a2", "1/4", "--kmax", "4")
        assert code == 2
        assert err == "qhofer: check failed: two-sided bound >= omega(F) fails at k = 3\n"
        assert out.endswith("# two-sided bound >= omega(F) = 3/4 for k >= 2: FAILS at k = [3]\n")

    def test_growth_below_omega_f(self, capsys, monkeypatch):
        table = qhofer.seidel_bounds.growth_table

        def lowered(k_max, a2):
            t = table(k_max, a2)
            return t._replace(rows=tuple(r._replace(bound=r.bound - (r.k == 3)) for r in t.rows))

        monkeypatch.setattr(qhofer.seidel_bounds, "growth_table", lowered)
        code, out, err = run(capsys, "growth", "--a2", "1/4", "--kmax", "6", "--format", "csv")
        assert code == 2
        assert err == "qhofer: check failed: two-sided bound >= omega(F) fails at k = 3\n"
        row = "3,11/16,0.6875,5/16,0.3125,"
        assert out == GROWTH_CSV.replace(row + "1,1.0,", row + "0,0.0,")

    def test_rtilde_minimum_off_omega_f(self, capsys, monkeypatch):
        certify = qhofer.seidel_bounds.r_tilde_certificate
        monkeypatch.setattr(
            qhofer.seidel_bounds, "r_tilde_certificate",
            lambda a2, k_max: certify(a2, k_max)._replace(min_bound=Fraction(1, 2)),
        )
        code, out, err = run(capsys, "rtilde", "--a2", "1/4", "--kmax", "5")
        assert code == 2
        assert err == "qhofer: check failed: sweep minimum 1/2 differs from omega(F) = 3/4\n"
        assert out == (
            "min over k in [1, 5] of v(Q^k) + v(Q^-k) = 1/2 (x pi), attained at k = 2\n"
            "omega(F) = 3/4 (x pi); matches: False\n"
        )

    def test_lengths_negative_side(self, capsys, monkeypatch):
        shift_lengths(monkeypatch, -1, 1)
        code, out, err = run(capsys, "lengths", "--a2", "1/4", "--k", "2")
        assert code == 2
        assert err == "qhofer: check failed: one-sided lengths must be nonnegative\n"
        assert out.startswith("L+ = -")

    def test_psi_recomposition_mismatch(self, capsys, monkeypatch):
        build = qhofer.seidel_bounds.psi

        def off(k, a2):
            e = build(k, a2)
            return e._replace(value=e.value + model_blowup_cp2(e.a_squared).unit())

        monkeypatch.setattr(qhofer.seidel_bounds, "psi", off)
        assert run(capsys, "psi", "--a2", "1/4", "--k", "2") == (
            2, "", "qhofer: check failed: rotation element disagrees with its recomposition\n"
        )


class TestDimensionLimit:
    @pytest.mark.parametrize(
        "argv",
        [["model-export"], ["product", "x", "x"], ["power", "--k", "2", "x"], ["invert", "x"]],
        ids=lambda argv: argv[0],
    )
    def test_n_above_100_refused_before_the_build(self, capsys, monkeypatch, argv):
        def build(n):
            raise AssertionError("model built")

        monkeypatch.setattr(qhofer.quantum_homology, "model_cpn", build)
        code, out, err = run(capsys, *argv, "--model", "cpn", "--n", "101")
        assert (code, out) == (1, "")
        assert err == "qhofer: error: --n must be at most 100, got 101\n"

    def test_n_of_100_exports(self, capsys, tmp_path):
        target = tmp_path / "cp100.json"
        assert run(capsys, "model-export", "--model", "cpn", "--n", "100", "--out", str(target))[0] == 0
        data = json.loads(target.read_text())
        assert data["name"] == "cp100" and len(data["basis"]) == 101


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_rational_flag(self, capsys):
        code, _, _ = run(capsys, "rtilde", "--a2", "zebra")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--a2", "1e999999999", "--kmax", "5"),
            ("bounds", "--a2", "1/0", "--kmax", "5"),
            ("product", "--a2", "1E-1", "E", "F"),
            ("invert", "--a2", "1/10", "--floor=-1e999999999", "1 + p"),
            ("invert", "--a2", "1/10", "--floor", "inf", "1 + p"),
        ],
    )
    def test_rational_flags_reject_exponents(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "invalid rational value" in err

    # int() would read "0_3" and a fullwidth digit as 3.
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["model-export", "--model", "cpn", "--n", "0_3"], "0_3"),
            (["power", "--a2", "1/4", "--k", "\uff13", "F"], "\uff13"),
            (["psi", "--a2", "1/4", "--k", "0_3"], "0_3"),
            (["bounds", "--a2", "1/4", "--kmax", "0_3"], "0_3"),
            (["growth", "--a2", "1/4", "--kmax", "\uff13"], "\uff13"),
            (["rtilde", "--a2", "1/4", "--kmax", "0_3"], "0_3"),
            (["lengths", "--a2", "1/4", "--k", "\uff12"], "\uff12"),
            (["geocheck", "--window", "0_2", "grid.csv"], "0_2"),
        ],
        ids=["n", "power-k", "psi-k", "bounds-kmax", "growth-kmax", "rtilde-kmax",
             "lengths-k", "window"],
    )
    def test_integer_flags_read_like_integers(self, capsys, argv, value):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"invalid integer value: '{value}'\n")

    def test_integer_flags_take_integral_rationals(self, capsys):
        want = run(capsys, "bounds", "--a2", "1/4", "--kmax", "2")
        assert want[0] == 0
        for text in ("2.0", "4/2"):
            assert run(capsys, "bounds", "--a2", "1/4", "--kmax", text) == want

    def test_rational_flags_take_decimals(self, capsys):
        code, out, _ = run(capsys, "invert", "--a2", "0.1", "--floor", "-8.0", "1 + p")
        assert code == 0
        assert out == run(capsys, "invert", "--a2", "1/10", "1 + p")[1]

    @pytest.mark.parametrize("text", ["1e3 * p", "p * e^{}", "p * e^{ }"])
    def test_malformed_element_text(self, capsys, text):
        code, out, err = run(capsys, "product", "--a2", "1/10", text, "1")
        assert code == 1 and not out
        assert "parse error" in err


SRC = Path(__file__).resolve().parent.parent / "src"
FLOAT_API = [
    "ExtremumReport", "PathLengths", "SampledPath", "fixed_extremum_check", "mean_radius_sq",
    "path_lengths", "radial_loop_path", "radial_mean",
]
# The rotation loop's exact lengths live in seidel_bounds, on the exact side.
EXACT_LENGTHS_API = ["LoopLengths", "lengths_blowup_loop", "mean_radius_sq_exact"]


def fresh(code):
    """Run ``code`` in a new interpreter; returns the JSON of its last stdout line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImports:
    """The package loads nothing outside the standard library, the float
    module loads only for geocheck and the float API, the exact
    subcommands load neither ``dataclasses`` nor ``inspect``, and ``json``
    loads only where JSON is read or written."""

    # Top-level modules outside the standard library that ``code`` imports,
    # and the class-generation modules it imports, beyond those the
    # interpreter had loaded at startup.
    OUTSIDE = (
        "import contextlib, io, json, sys\n"
        "def outside():\n"
        "    return {m.partition('.')[0] for m in sys.modules} - sys.stdlib_module_names\n"
        "startup = outside() | {'qhofer'}\n"
        "def loaded():\n"
        "    return sorted(outside() - startup)\n"
        "heavy_at_startup = {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "def heavy():\n"
        "    return sorted({'dataclasses', 'inspect'} & set(sys.modules) - heavy_at_startup)\n"
        "def forget_json():\n"
        "    for name in [m for m in sys.modules if m.partition('.')[0] == 'json']:\n"
        "        del sys.modules[name]\n"
    )

    def test_every_subcommand_stays_in_the_standard_library(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("0,1\n0,1\n")
        model = tmp_path / "model.json"
        argvs = [[name, *args] for name, args in SMALL_INPUTS.items() if name != "geocheck"]
        # json loads only for the jobs that read or write JSON.
        json_jobs = [
            ["bounds", "--a2", "1/4", "--kmax", "5", "--format", "json"],
            ["model-export", "--model", "blowup", "--a2", "1/4", "--out", str(model)],
            ["model-validate", str(model)],
        ]
        argvs += [["bounds", "--a2", "1/4", "--kmax", "5", "--format", "csv"], *json_jobs]
        argvs += [["geocheck", str(grid)]]
        seen = fresh(
            self.OUTSIDE
            + "import qhofer.cli\n"
            "seen = []\n"
            f"for argv in {argvs!r}:\n"
            "    forget_json()\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = qhofer.cli.main(argv)\n"
            "    seen.append([argv[0], code, loaded(), 'qhofer.hofer_lengths' in sys.modules,\n"
            "                 heavy(), 'json' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        exact = [[argv[0], 0, [], False, [], argv in json_jobs] for argv in argvs[:-1]]
        assert seen[:-1] == exact
        assert seen[-1][:4] == ["geocheck", 0, [], True]
        assert seen[-1][5] is True  # geocheck writes JSON by default
        (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert {row[0] for row in seen} == set(subs.choices)

    def test_float_module_stays_in_the_standard_library(self):
        seen = fresh(
            self.OUTSIDE
            + "seen = []\n"
            "import qhofer; seen.append(loaded())\n"
            f"seen.append(set({FLOAT_API!r}) <= set(dir(qhofer)))\n"
            "seen.append(hasattr(qhofer, 'no_such_name'))\n"
            "seen.append('qhofer.hofer_lengths' in sys.modules)\n"
            "import qhofer.hofer_lengths; seen.append(loaded())\n"
            "print(json.dumps(seen))\n"
        )
        assert seen == [[], True, False, False, []]

    EXACT_MODULES = ("qhofer.quantum_homology", "qhofer.seidel_bounds")

    def test_import_loads_no_submodule(self):
        code = "import json, sys, qhofer\nprint(json.dumps([m for m in sys.modules if m.startswith('qhofer.')]))"
        assert fresh(code) == []

    def test_float_and_usage_jobs_skip_the_exact_stack(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("0,1\n0,1\n")
        argvs = [
            ["geocheck", str(grid)],
            ["bounds", "--a2", "abc", "--kmax", "5"],
            ["lengths", "--a2", "1/4", "--k", "3"],
        ]
        seen = fresh(
            self.OUTSIDE
            + "import qhofer.cli\n"
            "seen = []\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            code = qhofer.cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            f"    seen.append([argv[0], code, [m for m in {self.EXACT_MODULES!r} if m in sys.modules], heavy()])\n"
            "print(json.dumps(seen))\n"
        )
        assert seen == [["geocheck", 0, [], []], ["bounds", 1, [], []], ["lengths", 1, [], []]]

    def test_every_public_name_resolves_to_its_module(self):
        import importlib

        import qhofer

        namespace: dict = {}
        exec("from qhofer import *", namespace)
        for name, module in qhofer._MODULE_OF.items():
            owner = importlib.import_module(f"qhofer.{module}")
            assert getattr(qhofer, name) is getattr(owner, name) is namespace[name]
        # The table lists every public class and function the library modules
        # define; novikov's flag readers ``rational`` and ``integer`` serve the
        # command line.
        for module in set(qhofer._MODULE_OF.values()):
            owner = importlib.import_module(f"qhofer.{module}")
            defined = {
                name for name, value in vars(owner).items()
                if not name.startswith("_") and getattr(value, "__module__", None) == owner.__name__
            }
            assert defined - {"rational", "integer"} <= set(qhofer.__all__), module

    def test_float_api_names(self):
        import qhofer
        from qhofer import SampledPath, lengths_blowup_loop, radial_mean  # noqa: F401
        from qhofer import hofer_lengths

        assert SampledPath is hofer_lengths.SampledPath
        assert set(FLOAT_API) <= set(dir(qhofer))
        for name in FLOAT_API:
            assert getattr(qhofer, name) is getattr(hofer_lengths, name)
        for name in EXACT_LENGTHS_API:
            assert getattr(qhofer, name) is getattr(qhofer.seidel_bounds, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            qhofer.no_such_name
