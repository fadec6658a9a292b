"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks as C  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _shape(wl):
    return [(j.name, [a.key if isinstance(a, workloads.Ref) else a for a in j.argv], j.expect, j.k)
            for j in wl.jobs], wl.files, wl.areas, wl.cpn


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    assert _shape(workloads.build(name, 7)) == _shape(workloads.build(name, 7))
    if name != "sweep-monotone":  # its area is fixed; only formats vary
        assert any(_shape(workloads.build(name, 7)) != _shape(workloads.build(name, s)) for s in range(8, 12))


def test_cli_short_runs_enough_jobs_for_p90():
    import run

    wl = workloads.build("cli-short", 3)
    assert len(wl.jobs) * wl.min_passes >= run.P90_MIN_JOBS


def _witnesses(grid, window, pick):
    """First column attaining the row extremum on every row of each window."""
    w = min(window, len(grid))
    out = []
    for s in range(len(grid) - w + 1):
        rows = grid[s:s + w]
        hits = [j for j in range(len(grid[0])) if all(r[j] == pick(r) for r in rows)]
        out.append(hits[0] if hits else None)
    return out


@pytest.mark.parametrize("fail", [False, True])
def test_planted_grids_pass_or_fail_as_planted(fail):
    import random

    from qhofer import SampledPath, fixed_extremum_check

    rng = random.Random(5)
    work = HERE / "_out" / "test-grids"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for i in range(20):
            rows, cols, window = rng.randint(4, 30), rng.randint(3, 30), rng.choice((2, 3))
            grid, _, emax, emin = workloads.planted_grid(rng, rows, cols, window, fail)
            path = work / f"g{i}.csv"
            path.write_text(workloads.grid_csv(grid))
            # Cells are written with four decimals; compare on what was written.
            read = [[float(c) for c in line.split(",")] for line in path.read_text().split()]
            assert _witnesses(read, window, max) == emax
            assert _witnesses(read, window, min) == emin
            assert (None in emax) == fail
            report = fixed_extremum_check(SampledPath.from_csv(path), window=window)
            assert list(report.max_witnesses) == emax and list(report.min_witnesses) == emin
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_golden_tables_match_the_acceptance_tests():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    found = {t.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name) and t.id.startswith("GOLDEN")}
    assert found["GOLDEN_PRODUCTS"] == C.GOLDEN_PRODUCTS
    assert found["GOLDEN_POWERS"] == C.GOLDEN_POWERS


def test_checks_reject_wrong_answers():
    with pytest.raises(C.Mismatch):
        C.parse_element("E * e^{1/2*F} + E * e^{1/2*F}")  # repeated term
    with pytest.raises(C.Mismatch):
        C.parse_element("0 * E")
    assert C.parse_element("1 * 1") == C.UNIT == C.parse_element(C.GOLDEN[0])
    wl = workloads.build("sweep-generic", 1)
    bounds = next(j for j in wl.jobs if j.argv[0] == "bounds")
    a2 = workloads.Fraction(bounds.argv[2])
    fmt = bounds.argv[-1]
    rows = [(k, (1 - a2) if k != 5 else (1 - a2) / 2) for k in range(1, workloads.SWEEP_KMAX + 1)]
    rows[:4] = [(k, C.golden_two_sided(k, a2)) for k in range(1, 5)]
    if fmt == "json":
        out = json.dumps({"a2": str(a2), "omegaF": str(1 - a2), "all_hold": True,
                          "rows": [{"k": k, "bound": str(b)} for k, b in rows]})
    else:
        out = "k,bound,bound_dec,omegaF,omegaF_dec,holds\n" + "".join(
            f"{k},{b},0,{1 - a2},0,True\n" for k, b in rows)
    with pytest.raises(C.Mismatch, match="at k = 5"):
        bounds.check(out, {})


def test_missing_target_is_reported_absent(monkeypatch):
    import qhofer.cli  # noqa: F401

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("qhofer.novikov", "gone", "novikov.gone"),))
    import qhofer.hofer_lengths as hl
    import qhofer.quantum_homology as qh
    import qhofer.seidel_bounds as sb

    def bound():
        return qh.quantum_product, sb.power_walk, sb.valuation, vars(hl.SampledPath)["from_csv"]

    orig = bound()
    tracer = tracing.Tracer()
    patches = tracer.install()
    assert all(now is not was for now, was in zip(bound(), orig))
    tracer.uninstall(patches)
    assert bound() == orig
    assert tracer.absent == ["qhofer.novikov.gone"]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    gated = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(gated) <= 8 and set(gated) <= set(workloads.WORKLOADS)
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _last_json(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_run_emits_every_end_to_end_metric():
    result = _last_json(["--workload", "expand-full", "--seed", "2", "--seconds", "1", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6 * workloads.MIN_PASSES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_and_span():
    result = _last_json(["--workload", "cli-short", "--seed", "2", "--seconds", "1", "--trace", "1"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    record = json.loads((HERE / "_out" / "cli-short-seed2-trace1.json").read_text())
    assert record["extra"]["absent"] == []
    import gzip

    with gzip.open(HERE / "_out" / "spans-cli-short-seed2-trace1.jsonl.gz", "rt") as fh:
        spans = {json.loads(line)["name"] for line in fh}
    named = {n.rsplit(".", 1)[0] for n in _units("per_layer") if n.endswith((".self_s", ".calls"))}
    assert named <= spans


def test_refuses_to_run_without_the_program():
    bare = HERE / "_out" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=170)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
