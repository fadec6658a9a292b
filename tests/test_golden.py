"""Byte-for-byte outputs of the command line, pinned in ``tests/golden``.

Each golden file holds one run, named by its argv: the first line is
``exit N``, the rest is the run's stdout.  After a deliberate change of
output, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py

and replay them without rewriting, on the standard library alone, with

    PYTHONPATH=src python3 tests/test_golden.py --check

which exits 1 naming the first run whose output differs.  The module
imports no pytest, so the replay runs on any interpreter the package
supports; pytest parametrizes its tests through ``pytest_generate_tests``.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from qhofer.cli import _JSON_KEYS, main
from qhofer.hofer_lengths import ExtremumReport
from qhofer.seidel_bounds import (
    BoundRow,
    GrowthRow,
    GrowthSummary,
    RTildeCertificate,
    SeidelElement,
)
from helpers import Q_TEXT

GOLDEN = Path(__file__).with_name("golden")


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


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", golden_runs(), ids=golden_name)
    if "record" in metafunc.fixturenames:
        metafunc.parametrize("record", list(_WHOLE_RECORDS))


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


def check() -> int:
    """Replay every golden run; 1 and the first mismatch's name if one differs."""
    runs = golden_runs()
    for argv in runs:
        if run_in_golden(argv) != golden_text(argv):
            print(f"golden mismatch: {golden_name(argv)}", file=sys.stderr)
            return 1
    print(f"{len(runs)} golden runs match")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: test_golden.py [--check]")
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    for argv in golden_runs():
        (GOLDEN / golden_name(argv)).write_bytes(run_in_golden(argv).encode("utf-8"))
