"""Spans around the public functions of each ``qhofer`` module.

The traced run calls ``qhofer.cli.main(argv)`` in this process.  While a
traced pass runs, every target below is replaced, at each ``qhofer`` module
attribute bound to it, by a wrapper that records a span: job, name, parent
span, start and end.  Wrappers are removed between passes, so an untraced
pass in the same process measures the tracing overhead.  A target that a
later version of the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from fractions import Fraction

PRODUCT = "quantum_homology.product"

# (module, attribute, span name); "Class.method" names a classmethod.
TARGETS = (
    ("qhofer.quantum_homology", "quantum_product", PRODUCT),
    ("qhofer.quantum_homology", "power_walk", "quantum_homology.power_walk"),
    ("qhofer.quantum_homology", "model_blowup_cp2", "quantum_homology.model_build"),
    ("qhofer.quantum_homology", "model_cpn", "quantum_homology.model_build"),
    ("qhofer.quantum_homology", "model_from_dict", "quantum_homology.model_build"),
    ("qhofer.quantum_homology", "exact_inverse", "quantum_homology.exact_inverse"),
    ("qhofer.quantum_homology", "invert", "quantum_homology.invert"),
    ("qhofer.quantum_homology", "format_qh", "quantum_homology.format"),
    ("qhofer.quantum_homology", "parse_qh", "quantum_homology.parse"),
    ("qhofer.novikov", "valuation", "novikov.valuation"),
    ("qhofer.novikov", "nov_mul", "novikov.nov_mul"),
    ("qhofer.seidel_bounds", "two_sided_bounds", "seidel_bounds.two_sided_bounds"),
    ("qhofer.seidel_bounds", "growth_table", "seidel_bounds.growth_table"),
    ("qhofer.seidel_bounds", "r_tilde_certificate", "seidel_bounds.r_tilde_certificate"),
    ("qhofer.seidel_bounds", "psi", "seidel_bounds.psi"),
    ("qhofer.hofer_lengths", "SampledPath.from_csv", "hofer_lengths.from_csv"),
    ("qhofer.hofer_lengths", "fixed_extremum_check", "hofer_lengths.fixed_extremum_check"),
    ("qhofer.hofer_lengths", "path_lengths", "hofer_lengths.path_lengths"),
    ("qhofer.hofer_lengths", "lengths_blowup_loop", "hofer_lengths.lengths_blowup_loop"),
    ("qhofer.hofer_lengths", "radial_mean", "hofer_lengths.radial_mean"),
)

# Spans whose self time is reported as <name>.self_s.
SELF_TIMED = ("cli.main",) + tuple(dict.fromkeys(n for _, _, n in TARGETS if not n.endswith("power_walk")))
# Counters reported per traced pass, with their units.
COUNTED = {
    PRODUCT + ".calls": "count",
    PRODUCT + ".pairs": "count",
    PRODUCT + ".terms_out_peak": "count",
    PRODUCT + ".coeff_bits_max": "bits",
    "quantum_homology.model_build.calls": "count",
    "novikov.valuation.calls": "count",
    "novikov.nov_mul.calls": "count",
    "hofer_lengths.from_csv.cells": "count",
    "hofer_lengths.radial_mean.calls": "count",
}
WALK_STEPS = (("q", 100), ("q", 200), ("q", 400), ("qinv", 400))


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _product_counts(counts, args, result):
    x, y = args[1], args[2]
    counts[PRODUCT + ".pairs"] += len(x) * len(y)
    counts.peak(PRODUCT + ".terms_out_peak", len(result))
    counts.peak(PRODUCT + ".coeff_bits_max", max(map(_bits, result.terms.values()), default=0))


def _cells(counts, args, result):
    counts["hofer_lengths.from_csv.cells"] += int(result.values.size)


AFTER = {PRODUCT: _product_counts, "hofer_lengths.from_csv": _cells}


class Counts(Counter):
    def peak(self, key, value):
        self[key] = max(self[key], value)


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans = []  # [job, name, parent, start_ns, end_ns, bookkeeping_ns]
        self.stack = []
        self.counts = Counts()
        self.job = -1
        self.absent = []  # targets the program does not have
        self.uncounted = set()  # spans whose counts could not be read

    # -- spans ------------------------------------------------------------

    def open(self, name):
        self.counts[name + ".calls"] += 1
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.job, name, parent, time.perf_counter_ns(), 0, 0])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][4] = time.perf_counter_ns()
        self.stack.pop()

    def after(self, name, args, result):
        """Count at the span boundary; the time it takes is kept out of self times."""
        t0 = time.perf_counter_ns()
        try:
            AFTER[name](self.counts, args, result)
        except (AttributeError, IndexError, TypeError):
            self.uncounted.add(name)
        if self.stack:
            self.spans[self.stack[-1]][5] += time.perf_counter_ns() - t0

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if name in AFTER:
                tracer.after(name, args, result)
            return result

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # One span per step, so products inside a step get it as parent.
            inner = fn(*args, **kwargs)
            while True:
                sid = tracer.open(name + ".step")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                yield item

        return gen_wrapper if name.endswith("power_walk") else wrapper

    # -- installing wrappers -------------------------------------------------

    def install(self):
        """Wrap every target; returns the patches that ``uninstall`` undoes."""
        patches = []
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == "qhofer" or n.startswith("qhofer.")]
        for modname, attr, name in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = vars(owner).get(fname) if isinstance(owner, type) else None
                if not isinstance(raw, classmethod):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                setattr(owner, fname, classmethod(self.wrap(name, raw.__func__)))
                patches.append((owner, fname, raw))
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        patches.append((m, key, orig))
        return patches

    @staticmethod
    def uninstall(patches):
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)

    # -- reading the spans -----------------------------------------------

    def self_seconds(self, first, last):
        """Self time per span name over spans[first:last], in seconds."""
        child = Counter()
        for job, name, parent, t0, t1, _ in self.spans[first:last]:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for sid in range(first, last):
            job, name, parent, t0, t1, book = self.spans[sid]
            out[name] += (t1 - t0 - child[sid] - book) / 1e9
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (job, name, parent, t0, t1, book) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "job": job, "name": name, "parent": parent,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def walk_steps():
    """Milliseconds of one power_walk step at k, stepping the public API.

    Each value is the fastest of the nine steps k-4 .. k+4 at a^2 = 1/10.
    Returns ({metric: ms}, [absent names]).
    """
    try:
        from qhofer import exact_inverse, model_blowup_cp2, power_walk, q_element
    except ImportError as exc:
        return {f"quantum_homology.walk_step_ms.{lab}.k{k}": 0.0 for lab, k in WALK_STEPS}, [f"walk-step probe: {exc}"]
    model = model_blowup_cp2(Fraction(1, 10))
    q = q_element(model)
    gens = {"q": q, "qinv": exact_inverse(model, q)}
    out = {}
    for label in ("q", "qinv"):
        wanted = [k for lab, k in WALK_STEPS if lab == label]
        times = {}
        t = time.perf_counter_ns()
        for k, _ in power_walk(model, gens[label], max(wanted) + 4):
            now = time.perf_counter_ns()
            times[k] = now - t
            t = now
        for k in wanted:
            out[f"quantum_homology.walk_step_ms.{label}.k{k}"] = min(times[j] for j in range(k - 4, k + 5)) / 1e6
    return out, []
