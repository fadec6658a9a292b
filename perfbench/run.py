"""Benchmark of the ``qhofer`` command line: seeded workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-generic --seed 1 --seconds 60 --trace 0

One client runs one ``python -m qhofer.cli ...`` job at a time (a closed
loop), with ``PYTHONPATH=src`` and every ``QH*`` variable removed from the
environment.  The workload's job list is repeated while the time budget
lasts; every job's exit code and output are checked.  ``--trace 1`` instead
runs the same job lists through ``qhofer.cli.main(argv)`` in this process and
reports per-layer metrics from spans around each module's public functions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
named in BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``failed`` counts jobs whose exit code or output check was
wrong; ``correct`` is false when a job exited as expected but printed a wrong
answer.  The full record (every job, its stdout sha256, the environment) is
written under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import tracing
import workloads
from checks import Mismatch
from workloads import P90_MIN_JOBS, Ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
PROBE_SAMPLES = 5
JOB_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def scrub_environment() -> list:
    """Drop QH*/QHOFER* variables from this process (and so from every job)."""
    removed = sorted(k for k in os.environ if k.startswith("QH"))
    for key in removed:
        del os.environ[key]
    return removed


def job_environment() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, removed: list) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "removed_env": removed,
    }


def calib_s() -> float:
    """Machine-speed reference: a fixed pure-Python Fraction loop (median of 3).

    Recorded beside the metrics, never used to rescale them.
    """
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(20000):
            acc += Fraction(i % 7 + 1, i % 5 + 2)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Running jobs.
# ---------------------------------------------------------------------------


def spawn(args: list, cwd: Path) -> dict:
    """Run ``python args...`` to completion; wall time, and CPU and max-RSS via wait4."""
    with open(cwd / "_stdout", "wb") as out, open(cwd / "_stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=job_environment(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "stdout": (cwd / "_stdout").read_bytes(),
        "stderr": (cwd / "_stderr").read_bytes()[-400:],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def run_subprocess(argv: list, cwd: Path) -> dict:
    return spawn(["-m", "qhofer.cli", *argv], cwd)


def run_inprocess(main, argv: list, cwd: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the job's own crash: reported like an interpreter would
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    return {
        "exit": 0 if code is None else code,
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode()[-400:],
        "wall_s": wall,
        "cpu_s": time.process_time() - c0,
        "rss_mb": None,
    }


def _short(arg: str) -> str:
    if len(arg) <= 80:
        return arg
    return f"<{len(arg)} chars sha256:{hashlib.sha256(arg.encode()).hexdigest()[:12]}>"


def run_pass(jobs: list, execute, workdir: Path) -> list:
    """Run the job list once; check each output before the next job starts.

    Checks run between jobs and outside each job's timing, because chained
    jobs take their input from an earlier job's checked output.
    """
    state = {"workdir": workdir}
    records = []
    for job in jobs:
        argv = [state.get(a.key) if isinstance(a, Ref) else a for a in job.argv]
        rec = {"job": job.name, "argv": [_short(a) for a in argv if a is not None],
               "expect": job.expect, "k": job.k}
        if any(a is None for a in argv):
            rec.update(exit=None, problem="input missing: an earlier job failed", wrong_answer=False,
                       wall_s=None, cpu_s=None, rss_mb=None, stdout_sha256=None, stdout_bytes=0)
            records.append(rec)
            continue
        res = execute(job, argv)
        stdout = res.pop("stdout")
        stderr = res.pop("stderr")
        rec.update(res, stdout_sha256=hashlib.sha256(stdout).hexdigest(), stdout_bytes=len(stdout),
                   problem=None, wrong_answer=False)
        if res["exit"] != job.expect:
            rec["problem"] = f"exit {res['exit']}, expected {job.expect}"
            rec["stderr_tail"] = stderr.decode("utf-8", "replace")
        elif job.check is not None:
            try:
                job.check(stdout.decode("utf-8", "replace"), state)
            except Mismatch as exc:
                rec.update(problem=f"wrong output: {exc}", wrong_answer=True)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                rec.update(problem=f"unreadable output: {type(exc).__name__}: {exc}", wrong_answer=True)
        records.append(rec)
    return records


def passes_until(budget_s: float, one_pass, min_passes: int = 1):
    """Call ``one_pass`` at least ``min_passes`` times, then while another surely fits the budget."""
    results, durations = [], []
    start = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - start + max(durations) <= budget_s:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        durations.append(time.perf_counter() - t0)
    return results


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def setup_once(wl, workdir: Path) -> float:
    """One fresh interpreter that imports qhofer.cli and builds the workload's models."""
    code = (
        "import sys; from fractions import Fraction; import qhofer.cli; "
        "from qhofer import model_blowup_cp2, model_cpn; "
        "[model_blowup_cp2(Fraction(a)) for a in sys.argv[1].split(',') if a]; "
        "[model_cpn(int(n)) for n in sys.argv[2].split(',') if n]"
    )
    res = spawn(["-c", code, ",".join(map(str, wl.areas)), ",".join(map(str, wl.cpn))], workdir)
    if res["exit"] != 0:
        raise RuntimeError(f"set-up failed: {res['stderr'].decode('utf-8', 'replace')}")
    return res["wall_s"]


def median_per_job(passes: list, key: str = "wall_s") -> list:
    """Each job's median reading over the passes; jobs that never ran are left out.

    Neighbours on a shared host slow this machine at random, by up to 1.8x.
    Within a stretch of steady load the median over passes moves by ~5 %
    between runs; the best pass moves by 12-25 %, because how often a run
    catches a quiet moment is itself random.
    """
    runs = [[p[i][key] for p in passes if p[i][key] is not None] for i in range(len(passes[0]))]
    return [statistics.median(r) for r in runs if r]


def end_to_end(passes: list, setup: list) -> dict:
    med_wall, med_cpu = median_per_job(passes), median_per_job(passes, "cpu_s")
    samples = [r["wall_s"] for p in passes for r in p if r["wall_s"] is not None]
    attempted = sum(len(p) for p in passes)
    failed = sum(r["problem"] is not None for p in passes for r in p)
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= P90_MIN_JOBS else None
    per = f"median of {len(passes)} passes per job"
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        "wall_s": (sum(med_wall), "s", f"sum over {len(med_wall)} jobs, {per}"),
        "job_p50_s": (statistics.median(samples), "s", f"median over all {len(samples)} job runs"),
        "job_p90_s": (p90, "s", f"over all {len(samples)} job runs" + ("" if p90 is not None else
                                                                       f", fewer than {P90_MIN_JOBS}: not reported")),
        "cpu_s": (sum(med_cpu), "s", f"user+system summed over jobs, {per}"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p if r["rss_mb"] is not None), "MB",
                        "largest max-RSS of one job"),
        "fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} job runs failed"),
    }


def per_layer(tracer, spans_of_pass: list, traced: list, probes: dict) -> dict:
    """Per-layer metrics: self times at their best traced pass, counts per pass, probes."""
    selfs = [tracer.self_seconds(first, last) for first, last in spans_of_pass]
    out = dict(probes)
    for name in tracing.SELF_TIMED:
        out[f"{name}.self_s"] = (min(s[name] for s in selfs), "s")
    for name, unit in tracing.COUNTED.items():
        out[name] = (statistics.median_low(c[name] for _, c in traced), unit)
    out["cli.out_bytes"] = (statistics.median_low(sum(r["stdout_bytes"] for r in recs) for recs, _ in traced), "bytes")
    walked = [r for recs, _ in traced for r in recs if r["k"]]
    k_total = sum(r["k"] for r in walked)
    out["seidel_bounds.products_per_k"] = (
        sum(r.get("products", 0) for r in walked) / k_total if k_total else 0.0, "ratio")
    return out


def _best_probe(args, workdir, read_stdout=False):
    samples = []
    for _ in range(PROBE_SAMPLES):
        res = spawn(args, workdir)
        if res["exit"] != 0:
            raise RuntimeError(f"probe {args} failed: {res['stderr'].decode('utf-8', 'replace')}")
        samples.append(float(res["stdout"]) if read_stdout else res["wall_s"])
    return min(samples)


def traced_run(wl, workdir: Path, seconds: float) -> tuple:
    """Untraced and traced in-process passes, alternating; returns metrics and passes."""
    timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    probes = {
        "cli.interp_s": (_best_probe(["-c", "pass"], workdir), "s"),
        "cli.import_s": (_best_probe(["-c", timer.format("qhofer.cli")], workdir, True), "s"),
        "cli.import_numpy_s": (_best_probe(["-c", timer.format("numpy")], workdir, True), "s"),
    }
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qhofer.cli

    steps, absent = tracing.walk_steps()
    probes.update({k: (v, "ms") for k, v in steps.items()})
    tracer = tracing.Tracer()
    spans_of_pass, traced, plain = [], [], []

    def untraced_pass():
        plain.append(run_pass(wl.jobs, lambda job, argv: run_inprocess(qhofer.cli.main, argv, workdir), workdir))

    def traced_pass():
        patches = tracer.install()
        first = len(tracer.spans)
        before = tracing.Counts(tracer.counts)

        def execute(job, argv):
            tracer.job += 1
            calls = tracer.counts[tracing.PRODUCT + ".calls"]
            sid = tracer.open("cli.main")
            try:
                res = run_inprocess(qhofer.cli.main, argv, workdir)
            finally:
                tracer.close(sid)
            res["products"] = tracer.counts[tracing.PRODUCT + ".calls"] - calls
            return res

        try:
            records = run_pass(wl.jobs, execute, workdir)
        finally:
            tracer.uninstall(patches)
        spans_of_pass.append((first, len(tracer.spans)))
        delta = tracing.Counts(tracer.counts)
        delta.subtract(before)
        for key in tracing.COUNTED:  # peaks are per pass, not differences
            if key.endswith(("_peak", "_max")):
                delta[key] = tracer.counts[key]
                tracer.counts[key] = 0
        traced.append((records, delta))

    def pair(i):
        # Alternate which side runs first, so drift does not favour one.
        for side in (untraced_pass, traced_pass) if i % 2 == 0 else (traced_pass, untraced_pass):
            side()
        return i

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        passes_until(seconds - (time.perf_counter() - start), pair)
    finally:
        os.chdir(cwd)
    metrics = per_layer(tracer, spans_of_pass, traced, probes)
    untraced_wall = sum(median_per_job(plain))
    traced_wall = sum(median_per_job([p for p, _ in traced]))
    extra = {
        "tracing_overhead": traced_wall / untraced_wall - 1,
        "untraced_list_s": untraced_wall,
        "traced_list_s": traced_wall,
        "absent": tracer.absent + absent,
        "uncounted": sorted(tracer.uncounted),
        "spans": len(tracer.spans),
    }
    return metrics, [p for p, _ in traced] + plain, extra, tracer


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def benchmark_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(title, metrics, passes, extra, out_path) -> None:
    print(title)
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        note = entry[2] if len(entry) > 2 else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>12} {unit:<6} {note}")
    for key, value in extra.items():
        print(f"  {key}: {value:.4g}" if isinstance(value, float) else f"  {key}: {value}")
    failures = {}
    for p in passes:
        for r in p:
            if r["problem"]:
                failures.setdefault(r["job"], r["problem"])
    print(f"  failing jobs: {len(failures) or 'none'}")
    for job, problem in failures.items():
        print(f"    {job}: {problem}")
    print(f"  record: {out_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qhofer" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'qhofer'} is missing", file=sys.stderr)
        return 2
    removed = scrub_environment()
    wanted = benchmark_metrics("per_layer" if args.trace else "end_to_end")
    wl = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        for name, text in wl.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        env = environment(args.seed, removed)
        calib_before = calib_s()
        if args.trace:
            metrics, passes, extra, tracer = traced_run(wl, workdir, args.seconds)
            tracer.write(OUT / f"spans-{tag}.jsonl.gz")
        else:
            setup_once(wl, workdir)  # writes the bytecode caches; not timed
            setup = []

            def one_pass(i):
                # One set-up beside every pass, so set-ups see the same host as jobs.
                setup.append(setup_once(wl, workdir))
                return run_pass(wl.jobs, lambda job, a: run_subprocess(a, workdir), workdir)

            passes = passes_until(args.seconds, one_pass, wl.min_passes)
            metrics, extra = end_to_end(passes, setup), {}
        extra["env.calib_s before"] = calib_before
        extra["env.calib_s after"] = calib_s()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m for m in wanted if m not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    first = "".join(f"{r['job']}\0{r['stdout_sha256']}\n" for r in passes[0])
    extra["outputs_sha256"] = hashlib.sha256(first.encode()).hexdigest()
    out_path = OUT / f"{tag}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "extra": extra,
                   "metrics": {k: list(v) for k, v in metrics.items()}, "passes": passes}, fh, indent=1)
    shape = f"{len(passes) // 2} traced and {len(passes) // 2} untraced passes" if args.trace else f"{len(passes)} passes"
    report(f"perfbench {tag}: {shape}", metrics, passes, extra, out_path)

    records = [r for p in passes for r in p]
    result = {
        "correct": not any(r["wrong_answer"] for r in records),
        "attempted": len(records),
        "failed": sum(r["problem"] is not None for r in records),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
