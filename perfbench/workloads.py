"""Seeded job lists for the four benchmark workloads.

A workload is a list of ``qhofer`` command lines, each with the exit code the
README contract demands and a check of its output.  The seed fixes every
input: areas, output formats, element texts and CSV grids.  Sizes (kmax, the
power K, grid shapes, job counts) are constants, so seeds change the inputs
but not the amount of work, and timings from different seeds are comparable.

Why each workload exists:

* ``sweep-generic``: ``bounds``, ``growth`` and ``rtilde`` at one area with
  3a^2 < 1 and one with 3a^2 > 1 -- the certificate itself; exact products
  and valuations do nearly all the work.
* ``sweep-monotone``: the same jobs at a^2 = 1/3, where omega vanishes on many
  exponents; a valuation-only shortcut cannot shrink its strata.
* ``expand-full``: jobs that need whole elements (long powers, Psi(K), products
  of printed ~3-7k character elements); valuation shortcuts cannot apply.
* ``cli-short``: 20 short jobs of every kind plus malformed inputs;
  interpreter start, import, argparse and model build dominate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import checks as C
from checks import require

SWEEP_KMAX = 100
EXPAND_K = 100
LARGE_GRID = (400, 300)  # rows (time slices) x columns (points)
MIN_PASSES = 3  # passes per run at the least, whatever the budget
P90_MIN_JOBS = 100  # job runs a run needs before it reports job_p90_s

# Generic areas p/q with q <= 12, on each side of the monotone value 1/3.
GROWING = sorted({Fraction(p, q) for q in range(4, 13) for p in range(1, q) if 3 * p < q})
BOUNDED = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q) if 3 * p > q})

WORKLOADS = ("sweep-generic", "sweep-monotone", "expand-full", "cli-short")

EXIT_OK, EXIT_USAGE, EXIT_CHECK = 0, 1, 2


@dataclass(frozen=True)
class Ref:
    """An argument filled in at run time from an earlier job's checked output."""

    key: str


@dataclass
class Job:
    name: str
    argv: list
    expect: int = EXIT_OK
    # check(stdout, state) raises Mismatch; ``state`` carries values between
    # the jobs of one pass and holds the work directory under "workdir".
    check: Optional[Callable[[str, dict], None]] = None
    k: int = 0  # walk length certified by the job, for products_per_k


@dataclass
class Workload:
    name: str
    jobs: list
    files: dict = field(default_factory=dict)  # work-dir file name -> text
    areas: list = field(default_factory=list)  # blow-up models built at set-up
    cpn: list = field(default_factory=list)  # projective-space models built at set-up
    min_passes: int = MIN_PASSES


def build(name: str, seed: int) -> Workload:
    """The job list of ``name`` for ``seed``; identical for identical seeds."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-generic":
        return _sweep(name, rng, [rng.choice(GROWING), rng.choice(BOUNDED)])
    if name == "sweep-monotone":
        return _sweep(name, rng, [Fraction(1, 3), Fraction(1, 3)])
    if name == "expand-full":
        return _expand(rng)
    if name == "cli-short":
        return _cli_short(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def _check_bounds(a2, kmax, fmt, slot):
    def check(out, state):
        rows, of, holds = C.bound_rows(out, fmt)
        require([k for k, _ in rows] == list(range(1, kmax + 1)), "rows are not k = 1..kmax")
        require(of == 1 - a2, f"omega(F) = {of}, expected {1 - a2}")
        require(holds, "a row reports the bound failing")
        for k, b in rows:
            require(k < 2 or b >= of, f"bound {b} < omega(F) at k = {k}")
            require(k > 4 or b == C.golden_two_sided(k, a2), f"bound at k = {k} differs from the golden table")
        _agree(state, ("bounds", slot), [b for _, b in rows])

    return check


def _check_growth(a2, kmax, fmt, slot):
    def check(out, state):
        rows = C.growth_rows(out, fmt)
        require([r[0] for r in rows] == list(range(1, kmax + 1)), "rows are not k = 1..kmax")
        for k, vk, vnk, b in rows:
            require(b == vk + vnk, f"bound != v(Q^k) + v(Q^-k) at k = {k}")
            require(k < 2 or b >= 1 - a2, f"bound {b} < omega(F) at k = {k}")
            if k <= 4:
                require(vk == C.valuation(C.parse_element(C.GOLDEN[k]), a2), f"v(Q^{k}) differs from golden")
                require(vnk == C.valuation(C.parse_element(C.GOLDEN[-k]), a2), f"v(Q^-{k}) differs from golden")
        _agree(state, ("bounds", slot), [r[3] for r in rows])

    return check


def _check_rtilde(a2, fmt, slot=None):
    def check(out, state):
        low, at, of, matches = C.rtilde_result(out, fmt)
        require(of == 1 - a2, f"omega(F) = {of}, expected {1 - a2}")
        require(low == of and at == 2 and matches, f"minimum {low} at k = {at}, expected {of} at k = 2")
        if slot is not None and ("bounds", slot) in state:
            require(low == min(state[("bounds", slot)]), "minimum differs from the bounds rows")

    return check


def _agree(state, key, bounds):
    """Jobs of one slot share their exact bound column."""
    if key in state:
        require(state[key] == bounds, "bound column differs between jobs of one area")
    else:
        state[key] = bounds


def _sweep(name, rng, areas) -> Workload:
    jobs = []
    for slot, a2 in enumerate(areas):
        a = str(a2)
        fb, fg, fr = rng.choice(("csv", "json")), rng.choice(("csv", "json")), rng.choice(("text", "json"))
        k = SWEEP_KMAX
        jobs += [
            Job(f"{slot}-bounds a2={a}", ["bounds", "--a2", a, "--kmax", str(k), "--format", fb],
                check=_check_bounds(a2, k, fb, slot), k=k),
            Job(f"{slot}-growth a2={a}", ["growth", "--a2", a, "--kmax", str(k), "--format", fg],
                check=_check_growth(a2, k, fg, slot), k=k),
            Job(f"{slot}-rtilde a2={a}", ["rtilde", "--a2", a, "--kmax", str(k), "--format", fr],
                check=_check_rtilde(a2, fr, slot), k=k),
        ]
    return Workload(name, jobs, areas=sorted(set(areas)))


# ---------------------------------------------------------------------------
# Full expansions.
# ---------------------------------------------------------------------------


def _store_element(key, fmt, field_name, want=None):
    def check(out, state):
        text = C.element_output(out, fmt, field_name)
        elem = C.parse_element(text)
        C.require_degree4(elem)
        if want is not None:
            require(want in state and elem == C.parse_element(state[want]), f"result differs from {want}")
        state[key] = text

    return check


def _check_psi(a2, k, fmt, base=None):
    """Psi(k) is Q^k shifted by k delta (F - 2E); Q^k is golden or stored."""

    def check(out, state):
        text, d, v = C.psi_result(out, fmt)
        q_k = C.parse_element(state[base] if base else C.GOLDEN[k])
        want = C.shift(q_k, -2 * k * C.delta(a2), k * C.delta(a2))
        got = C.parse_element(text)
        C.require_degree4(got)
        require(got == want, f"Psi({k}) differs from Q^{k} shifted by k delta (F - 2E)")
        require(d == C.delta(a2), f"delta = {d}, expected {C.delta(a2)}")
        require(v == C.valuation(want, a2), f"v = {v}, expected {C.valuation(want, a2)}")

    return check


def _check_unit(fmt):
    def check(out, state):
        require(C.parse_element(C.element_output(out, fmt, "product")) == C.UNIT, "Q^K Q^-K is not the unit")

    return check


def _expand(rng) -> Workload:
    a2 = rng.choice(GROWING + BOUNDED)
    a, k = str(a2), EXPAND_K
    f = [rng.choice(("text", "json")) for _ in range(6)]
    model = ["--a2", a]
    jobs = [
        Job(f"power +{k}", ["power", *model, "--k", str(k), "--format", f[0], C.Q_TEXT],
            check=_store_element("X", f[0], "power")),
        Job(f"power -{k}", ["power", *model, "--k", str(-k), "--format", f[1], C.Q_TEXT],
            check=_store_element("Xi", f[1], "power")),
        Job(f"psi {k}", ["psi", "--a2", a, "--k", str(k), "--format", f[2]],
            check=_check_psi(a2, k, f[2], base="X"), k=k),
        Job(f"product Q^{k} Q^{k}", ["product", *model, "--format", f[3], Ref("X"), Ref("X")],
            check=_store_element("P", f[3], "product")),
        Job(f"product Q^{k} Q^-{k}", ["product", *model, "--format", f[4], Ref("X"), Ref("Xi")],
            check=_check_unit(f[4])),
        Job(f"product Q^{2 * k} Q^-{k}", ["product", *model, "--format", f[5], Ref("P"), Ref("Xi")],
            check=_store_element("X2", f[5], "product", want="X")),
    ]
    return Workload("expand-full", jobs, areas=[a2])


# ---------------------------------------------------------------------------
# Short command-line jobs.
# ---------------------------------------------------------------------------


def _check_element(want_text, fmt, field_name):
    want = C.parse_element(want_text)

    def check(out, state):
        got = C.parse_element(C.element_output(out, fmt, field_name))
        require(got == want, f"printed {field_name} differs from the golden value")

    return check


def _check_invert(a2, want_text, floor, fmt):
    def check(out, state):
        text, exact, floor_seen = C.invert_result(out, fmt)
        elem = C.parse_element(text)
        if want_text is not None:
            require(exact is True, "inverse of a power of Q not reported exact")
            require(elem == C.parse_element(want_text), "inverse differs from the golden Q^-k")
        else:
            require(exact is False, "truncated inverse reported exact")
            require(floor_seen is None or Fraction(str(floor_seen)) == floor, "wrong floor reported")
            require(all(a2 * e + (1 - a2) * f >= floor for (_, (e, f)) in elem), "term below the floor")

    return check


def _no_stdout(out, state):
    require(out == "", "error exit printed to stdout")


def _check_grid(expect_max, expect_min):
    def check(out, state):
        d = C.read_json(out)
        require(d["has_fixed_max_each_moment"] == all(w is not None for w in expect_max), "max verdict")
        require(d["has_fixed_min_each_moment"] == all(w is not None for w in expect_min), "min verdict")
        require(d["max_witnesses"] == expect_max, "max witnesses differ from the planted column")
        require(d["min_witnesses"] == expect_min, "min witnesses differ from the planted column")

    return check


def _check_export(path, name, basis):
    def check(out, state):
        with open(state["workdir"] / path, encoding="utf-8") as fh:
            data = json.load(fh)
        require(data.get("name") == name and len(data.get("basis", ())) == basis, "exported model differs")

    return check


def _check_validate(name, basis):
    def check(out, state):
        require(out.startswith(f"model {name!r} is valid: {basis} basis classes, "), "unexpected validate output")

    return check


def planted_grid(rng, rows, cols, window, fail):
    """Rows of floats with a planted fixed max and min, and the expected witnesses.

    Every ordinary cell lies in (-1, 1); the planted max column holds values
    above 1 and the planted min column values below -1.  A failing grid moves
    its max column at time t0, so no point is the max over windows across t0.
    """
    jm, jn, jb = rng.sample(range(cols), 3)
    t0 = rng.randrange(1, rows) if fail else rows
    grid = []
    for t in range(rows):
        row = [rng.uniform(-0.99, 0.99) for _ in range(cols)]
        row[jm if t < t0 else jb] = rng.uniform(1.1, 2.0)
        row[jn] = rng.uniform(-2.0, -1.1)
        grid.append(row)
    w = min(window, rows)
    expect_max = [jm if s + w - 1 < t0 else jb if s >= t0 else None for s in range(rows - w + 1)]
    expect_min = [jn] * (rows - w + 1)
    return grid, (jm, jn), expect_max, expect_min


def grid_csv(grid, weights=None) -> str:
    lines = [] if weights is None else ["weights," + ",".join(f"{w:.3f}" for w in weights)]
    lines += [",".join(c if isinstance(c, str) else f"{c:.4f}" for c in row) for row in grid]
    return "\n".join(lines) + "\n"


def _malformed_files(rng) -> dict:
    ragged, _, _, _ = planted_grid(rng, 5, 4, 2, False)
    cells, _, _, _ = planted_grid(rng, 5, 4, 2, False)
    cells[2][1] = "abc"
    return {
        "junk.json": "{not json\n",
        "partial.json": json.dumps({"name": "partial", "dim": 4}) + "\n",
        "odd_dim.json": json.dumps({
            "name": "cp1", "dim": 3, "sphere_generators": ["L"],
            "basis": [{"name": "1", "degree": 2}, {"name": "x", "degree": 0}],
            "pairing": [["0", "1"], ["1", "0"]], "omega": ["1"], "c1": [2],
            "gw": [{"classes": ["1", "1", "x"], "B": ["0"], "value": "1"},
                   {"classes": ["x", "x", "x"], "B": ["1"], "value": "1"}],
        }) + "\n",
        "ragged.csv": grid_csv(ragged)[:-1].rsplit(",", 1)[0] + "\n",
        "word.csv": grid_csv(cells),
    }


def _malformed_jobs(a) -> list:
    """Inputs the README contract rejects: exit 1 for usage, 2 for checks."""
    return [
        ("product dangling sign", ["product", "--a2", a, "E +", "F"], EXIT_USAGE),
        ("product unknown class", ["product", "--a2", a, "X", "F"], EXIT_USAGE),
        ("product a2 out of range", ["product", "--a2", "3/2", "E", "F"], EXIT_USAGE),
        ("bounds non-integer kmax", ["bounds", "--a2", a, "--kmax", "ten"], EXIT_USAGE),
        ("bounds bad a2", ["bounds", "--a2", "abc", "--kmax", "5"], EXIT_USAGE),
        ("lengths k=3", ["lengths", "--a2", a, "--k", "3"], EXIT_USAGE),
        ("rtilde kmax=1", ["rtilde", "--a2", a, "--kmax", "1"], EXIT_USAGE),
        ("model-validate missing file", ["model-validate", "missing.json"], EXIT_USAGE),
        ("geocheck missing file", ["geocheck", "missing.csv"], EXIT_USAGE),
        ("geocheck ragged rows", ["geocheck", "ragged.csv"], EXIT_USAGE),
        ("geocheck non-numeric cell", ["geocheck", "word.csv"], EXIT_USAGE),
        ("model-validate not JSON", ["model-validate", "junk.json"], EXIT_CHECK),
        ("model-validate missing keys", ["model-validate", "partial.json"], EXIT_CHECK),
        ("model-validate odd dimension", ["model-validate", "odd_dim.json"], EXIT_CHECK),
        ("psi monotone a2=1/3", ["psi", "--a2", "1/3", "--k", "2"], EXIT_CHECK),
        ("invert zero", ["invert", "--a2", a, "0"], EXIT_CHECK),
        ("power -3 of non-unit", ["power", "--a2", a, "--k", "-3", "1 + p"], EXIT_CHECK),
    ]


def _cli_short(rng) -> Workload:
    """One job of each kind, four malformed inputs and the two non-finite grids."""
    groups = []  # each group is a list of jobs that must run in order
    files = _malformed_files(rng)
    areas = set()

    def area():
        a2 = rng.choice(GROWING + BOUNDED)
        areas.add(a2)
        return a2

    def fmt():
        return rng.choice(("text", "json"))

    def add(*jobs):
        groups.append(list(jobs))

    x, y, want = rng.choice(C.GOLDEN_PRODUCTS)
    if rng.random() < 0.5:
        x, y = y, x
    f = fmt()
    add(Job(f"product {x} {y}", ["product", "--a2", str(area()), "--format", f, x, y],
            check=_check_element(want, f, "product")))
    i, j = rng.choice([(i, j) for i in range(-4, 6) for j in range(-4, 6) if i and j and -4 <= i + j <= 5])
    f = fmt()
    add(Job(f"product Q^{i} Q^{j}", ["product", "--a2", str(area()), "--format", f, C.GOLDEN[i], C.GOLDEN[j]],
            check=_check_element(C.GOLDEN[i + j], f, "product")))
    k, f = rng.randint(-4, 5), fmt()
    add(Job(f"power {k}", ["power", "--a2", str(area()), "--k", str(k), "--format", f, C.Q_TEXT],
            check=_check_element(C.GOLDEN[k], f, "power")))
    a2, f, k = area(), fmt(), rng.choice([k for k in range(-4, 5) if k])
    add(Job(f"invert Q^{k} floor -8", ["invert", "--a2", str(a2), "--floor", "-8", "--format", f, C.GOLDEN[k]],
            check=_check_invert(a2, C.GOLDEN[-k], Fraction(-8), f)))
    a2, f = area(), fmt()
    add(Job("invert 1 + c p floor -40",
            ["invert", "--a2", str(a2), "--floor", "-40", "--format", f, f"1 + {rng.randint(1, 5)} * p"],
            check=_check_invert(a2, None, Fraction(-40), f)))
    a2, f, k = area(), fmt(), rng.randint(1, 5)
    add(Job(f"psi {k}", ["psi", "--a2", str(a2), "--k", str(k), "--format", f], check=_check_psi(a2, k, f), k=k))
    a2, f = area(), fmt()
    add(Job("rtilde", ["rtilde", "--a2", str(a2), "--format", f], check=_check_rtilde(a2, f), k=50))
    a2, f, k = area(), fmt(), rng.choice((1, 2))
    add(Job(f"lengths {k}", ["lengths", "--a2", str(a2), "--k", str(k), "--format", f],
            check=lambda out, state: C.check_lengths(out, f, k, a2)))

    # Geocheck grids: small and large, passing and failing as planted.
    shapes = [(rng.randint(4, 24), rng.randint(3, 24)), LARGE_GRID] * 2
    for n, (rows, cols) in enumerate(shapes):
        fail, window = n >= 2, rng.choice((2, 3))
        grid, _, emax, emin = planted_grid(rng, rows, cols, window, fail)
        weights = [rng.uniform(0.5, 2.0) for _ in range(cols)] if rng.random() < 0.5 else None
        files[f"g{n}.csv"] = grid_csv(grid, weights)
        add(Job(f"geocheck {rows}x{cols} {'fails' if fail else 'passes'}",
                ["geocheck", "--window", str(window), f"g{n}.csv"],
                expect=EXIT_CHECK if fail else EXIT_OK, check=_check_grid(emax, emin)))
    # A non-finite cell is bad input (exit 1).  The program at the time this
    # benchmark was written exits 2 on the nan grid (nan makes every window
    # fail) and 0 on the inf grid (inf sits in the planted max column).
    grid, (jm, jn), _, _ = planted_grid(rng, 8, 6, 2, False)
    grid[rng.randrange(8)][next(j for j in range(6) if j not in (jm, jn))] = "nan"
    files["nan.csv"] = grid_csv(grid)
    add(Job("geocheck nan cell", ["geocheck", "nan.csv"], expect=EXIT_USAGE, check=_no_stdout))
    grid, (jm, jn), _, _ = planted_grid(rng, 8, 6, 2, False)
    grid[rng.randrange(8)][jm] = "inf"
    files["inf.csv"] = grid_csv(grid)
    add(Job("geocheck inf cell", ["geocheck", "inf.csv"], expect=EXIT_USAGE, check=_no_stdout))

    if rng.random() < 0.5:
        n = rng.randint(1, 4)
        spec, name, basis = ["--model", "cpn", "--n", str(n)], f"cp{n}", n + 1
    else:
        spec, name, basis = ["--a2", str(area())], "blowup_cp2", 4
    add(Job(f"model-export {name}", ["model-export", *spec, "--out", "model.json"],
            check=_check_export("model.json", name, basis)),
        Job(f"model-validate {name}", ["model-validate", "model.json"], check=_check_validate(name, basis)))

    for label, argv, code in rng.sample(_malformed_jobs(str(area())), 4):
        add(Job(label, argv, expect=code, check=_no_stdout))

    rng.shuffle(groups)
    jobs = [job for group in groups for job in group]
    for n, job in enumerate(jobs):
        job.name = f"{n:02d} {job.name}"
    # The one workload whose tail is a metric: enough passes for job_p90_s.
    return Workload("cli-short", jobs, files=files, areas=sorted(areas),
                    cpn=[int(spec[3])] if spec[1] == "cpn" else [], min_passes=-(-P90_MIN_JOBS // len(jobs)))
