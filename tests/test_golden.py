"""Byte-for-byte outputs of the command line, pinned in ``tests/golden``.

Each golden file holds one run, named by its argv: the first line is
``exit N``, the rest is the run's stdout.  After a deliberate change of
output, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from qhofer.cli import main
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


def test_names_are_distinct_and_every_file_is_a_run():
    names = [golden_name(argv) for argv in golden_runs()]
    assert len(set(names)) == len(names)
    assert {p.name for p in GOLDEN.glob("*.txt")} == set(names)


@pytest.mark.parametrize("argv", golden_runs(), ids=golden_name)
def test_output_matches_golden(argv):
    expected = (GOLDEN / golden_name(argv)).read_bytes().decode("utf-8")
    assert run_in_golden(argv) == expected


if __name__ == "__main__":
    for argv in golden_runs():
        (GOLDEN / golden_name(argv)).write_bytes(run_in_golden(argv).encode("utf-8"))
