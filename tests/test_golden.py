"""Byte-for-byte outputs of the command line, pinned in ``tests/golden``.

Each golden file holds one run, named by its argv: the first line is
``exit N``, the rest is the run's stdout.  Runs too large to keep whole
are pinned by identity in ``tests/golden/heavy.json``: each entry holds a
run's argv, exit code, stdout byte count and stdout sha256, and one more
entry the sha256 of the float side's values (``float_items``).  After a
deliberate change of output, rewrite both with

    PYTHONPATH=src python3 tests/test_golden.py

and replay them without rewriting, on the standard library alone, with

    PYTHONPATH=src python3 tests/test_golden.py --check

which exits 1 naming the first run whose output differs.  The module
imports no pytest, so the replay runs on any interpreter the package
supports; pytest parametrizes its tests through ``pytest_generate_tests``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import sys
from itertools import chain
from pathlib import Path

from qhofer.cli import _JSON_KEYS, main
from qhofer.hofer_lengths import (
    ExtremumReport,
    fixed_extremum_check,
    mean_radius_sq,
    path_lengths,
    radial_loop_path,
    radial_mean,
)
from qhofer.seidel_bounds import (
    BoundRow,
    GrowthRow,
    GrowthSummary,
    RTildeCertificate,
    SeidelElement,
)
from helpers import Q_TEXT

GOLDEN = Path(__file__).with_name("golden")
HEAVY = GOLDEN / "heavy.json"


def golden_runs() -> list:
    runs = []
    for a2 in ("1/10", "1/3", "2/3"):
        for command in ("bounds", "growth"):
            runs += [[command, "--a2", a2, "--kmax", "12", "--format", fmt]
                     for fmt in ("text", "csv", "json")]
        runs.append(["rtilde", "--a2", a2])
        runs += [["lengths", "--a2", a2, "--k", k] for k in ("1", "2")]
        runs += [["psi", "--a2", a2, "--k", k, "--format", fmt]
                 for k in ("-2", "0", "3") for fmt in ("text", "json")]
    return runs + [
        ["product", "--model", "blowup", "--a2", "1/4", "E", "F"],
        ["power", "--model", "blowup", "--a2", "1/4", "--k", "-4", Q_TEXT],
        ["invert", "--model", "blowup", "--a2", "1/4", "--floor", "-3", "1 + p"],
        ["model-export", "--model", "blowup", "--a2", "1/4"],
        ["model-export", "--model", "cpn", "--n", "2"],
        # Read from inside tests/golden, so the report's label is the bare name.
        ["geocheck", "grid.csv", "--window", "2"],
    ]


def golden_name(argv) -> str:
    """The argv as a file name: '/' reads '-', other unsafe runs read '_'."""
    return re.sub(r"[^A-Za-z0-9.=+-]+", "_", "_".join(argv).replace("/", "-")) + ".txt"


def run_in_golden(argv) -> str:
    """The golden text of one in-process run: ``exit N`` and the run's stdout."""
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


def golden_text(argv) -> str:
    return (GOLDEN / golden_name(argv)).read_bytes().decode("utf-8")


def _json_of(text: str) -> dict:
    return json.loads(text.split("\n", 1)[1])


# Each record the command line writes whole: where its JSON object sits in
# a run's output, and the keys the handler writes before and after it.
# No golden run writes rtilde as JSON, so its object is read from a fresh run.
_WHOLE_RECORDS = {
    "BoundRow": (BoundRow, ["bounds", "--a2", "1/10", "--kmax", "12", "--format", "json"],
                 lambda d: d["rows"][0], (), ()),
    "GrowthRow": (GrowthRow, ["growth", "--a2", "1/10", "--kmax", "12", "--format", "json"],
                  lambda d: d["rows"][0], (), ()),
    "GrowthSummary": (GrowthSummary, ["growth", "--a2", "1/10", "--kmax", "12", "--format", "json"],
                      lambda d: d["summary"], (), ()),
    "RTildeCertificate": (RTildeCertificate, ["rtilde", "--a2", "1/10", "--format", "json"],
                          lambda d: d, (), ("matches_omegaF",)),
    "SeidelElement": (SeidelElement, ["psi", "--a2", "1/10", "--k", "3", "--format", "json"],
                      lambda d: d, (), ("valuation",)),
    "ExtremumReport": (ExtremumReport, ["geocheck", "grid.csv", "--window", "2"],
                       lambda d: d, ("label",), ()),
}


# The nine areas of the heavy sweeps and of the float entry.
NINE_AREAS = ("1/100", "1/10", "1/4", "2/7", "1/3", "17/50", "1/2", "2/3", "99/100")
INVERT_TEXT = "2 * p * e^{-2*E + 1*F} - 2 * E * e^{2*E} - 1/2 * 1"


def heavy_runs() -> list:
    runs = [
        ["power", "--a2", "1/10", "--k", "400", Q_TEXT],
        ["invert", "--a2", "1/10", "--floor", "-4", INVERT_TEXT],
        ["rtilde", "--a2", "1/10", "--kmax", "100000"],
    ]
    for a2 in NINE_AREAS:
        for command in ("bounds", "growth"):
            runs += [[command, "--a2", a2, "--kmax", "400", "--format", fmt]
                     for fmt in ("text", "csv", "json")]
    return runs


def heavy_entry(argv) -> dict:
    """The identity of one run: argv, exit code, stdout byte count and sha256."""
    status, out = run_in_golden(argv).split("\n", 1)
    data = out.encode("utf-8")
    return {"argv": argv, "exit": int(status.split()[1]), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def float_items(a2: str) -> list:
    """The float side at one area, as text: a float by ``float.hex``, any
    other value by ``repr``.  In order: ``mean_radius_sq(a2, 10**4)`` = c,
    the radial means of the centred profile pi (c - s) and of -pi s / 2 on
    the same grid, then every value, weight, the time step and the label of
    ``radial_loop_path(a2)``, its ``path_lengths``, and the fields of its
    ``fixed_extremum_check`` as (name, value) pairs."""
    c = mean_radius_sq(a2, 10**4)
    path = radial_loop_path(a2)
    values = [
        c,
        radial_mean(lambda s: math.pi * (c - s), a2, 10**4),
        radial_mean(lambda s: -math.pi * s / 2.0, a2, 10**4),
        *chain.from_iterable(path.values),
        *path.weights,
        path.time_step,
        path.label,
        *path_lengths(path),
        *fixed_extremum_check(path)._asdict().items(),
    ]
    return [v.hex() if isinstance(v, float) else repr(v) for v in values]


def float_entry() -> dict:
    """The float side's identity: item count and sha256 over the nine areas."""
    items = [item for a2 in NINE_AREAS for item in float_items(a2)]
    return {"areas": list(NINE_AREAS), "items": len(items),
            "sha256": hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()}


def heavy_manifest() -> dict:
    return json.loads(HEAVY.read_text(encoding="utf-8"))


# Runs that ``--check`` replays but the suite does not: the invert run alone
# takes ~1.7 s of the manifest's ~3.2 s.
CHECK_ONLY = ("invert",)


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", golden_runs(), ids=golden_name)
    if "record" in metafunc.fixturenames:
        metafunc.parametrize("record", list(_WHOLE_RECORDS))
    if "heavy" in metafunc.fixturenames:
        entries = [e for e in heavy_manifest()["runs"] if e["argv"][0] not in CHECK_ONLY]
        metafunc.parametrize("heavy", entries,
                             ids=lambda e: golden_name(e["argv"]).removesuffix(".txt"))


def test_names_are_distinct_and_every_file_is_a_run():
    names = [golden_name(argv) for argv in golden_runs()]
    assert len(set(names)) == len(names)
    assert {p.name for p in GOLDEN.glob("*.txt")} == set(names)


def test_output_matches_golden(argv):
    assert run_in_golden(argv) == golden_text(argv)


def test_records_are_written_whole(record):
    """A record's JSON object lists every field in order, under its JSON key,
    between the keys its handler adds."""
    cls, argv, locate, before, after = _WHOLE_RECORDS[record]
    text = golden_text(argv) if (GOLDEN / golden_name(argv)).exists() else run_in_golden(argv)
    keys = list(locate(_json_of(text)))
    assert keys == [*before, *(_JSON_KEYS.get(f, f) for f in cls._fields), *after]


def test_manifest_lists_every_heavy_run():
    assert [e["argv"] for e in heavy_manifest()["runs"]] == heavy_runs()


def test_heavy_output_matches_manifest(heavy):
    assert heavy_entry(heavy["argv"]) == heavy


def test_float_side_matches_manifest():
    assert float_entry() == heavy_manifest()["floats"]


def check() -> int:
    """Replay every golden run and the whole manifest; 1 and the first
    mismatch's name if one differs."""
    runs = golden_runs()
    for argv in runs:
        if run_in_golden(argv) != golden_text(argv):
            print(f"golden mismatch: {golden_name(argv)}", file=sys.stderr)
            return 1
    print(f"{len(runs)} golden runs match")
    manifest = heavy_manifest()
    if [e["argv"] for e in manifest["runs"]] != heavy_runs():
        print("heavy mismatch: the manifest lists other runs", file=sys.stderr)
        return 1
    for entry in manifest["runs"]:
        if heavy_entry(entry["argv"]) != entry:
            print(f"heavy mismatch: {shlex.join(entry['argv'])}", file=sys.stderr)
            return 1
    if float_entry() != manifest["floats"]:
        print("heavy mismatch: float side", file=sys.stderr)
        return 1
    print(f"{len(manifest['runs'])} heavy runs and the float side match")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: test_golden.py [--check]")
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    for argv in golden_runs():
        (GOLDEN / golden_name(argv)).write_bytes(run_in_golden(argv).encode("utf-8"))
    # One run a line, so a changed identity diffs as the line of its argv.
    runs = ",\n".join(json.dumps(heavy_entry(argv)) for argv in heavy_runs())
    floats = json.dumps(float_entry())
    HEAVY.write_text(f'{{"runs": [\n{runs}\n],\n"floats": {floats}}}\n', encoding="utf-8")
