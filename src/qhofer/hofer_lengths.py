"""Hofer length numerics: radial means, sampled paths, geodesic check.

This is the floating-point side of the package.  The blown-up projective
plane is coordinatized by s = |z1|^2 + |z2|^2 on [a^2, 1]; the pushforward of
the symplectic volume under s has density proportional to s ds, so spatial
means of radial functions reduce to one-dimensional quadrature.  One-sided
lengths of a Hamiltonian path are time integrals of (max - mean) and
(mean - min) per slice.  The geodesic criterion asks for a single sample
point that attains the spatial extremum throughout every short time window.
The rotation loops' own lengths are closed forms, computed exactly in
``seidel_bounds``.

Everything here is float arithmetic on the standard library; tests state
tolerances explicitly (1e-10 for quadrature checks, 1e-12 for closed forms).
"""

from __future__ import annotations

import csv
import math
from itertools import compress
from typing import Callable, NamedTuple, Sequence

from .novikov import RationalLike, _area_parameter, _frac, integer

# Entries float() would misread: "1_0" as 10.0, True as 1.0.
_UNREAD = (str, bytes, bytearray, bool)


def _floats(items, problem: str) -> tuple:
    """The entries of ``items`` as finite floats.  Text or a non-iterable in
    place of ``items``, or a nested entry, raises ValueError(problem); an entry
    that is text, a bool or not finite raises ValueError naming it."""
    try:
        if isinstance(items, _UNREAD):
            raise TypeError
        items = tuple(items)
        # One type test per distinct type, not per cell.
        unread = any(issubclass(kind, _UNREAD) for kind in set(map(type, items)))
        values = () if unread else tuple(map(float, items))
    except TypeError:
        raise ValueError(problem) from None
    if unread or not _all_finite(values):
        bad = next(v for v in items if isinstance(v, _UNREAD) or not (unread or math.isfinite(v)))
        raise ValueError(f"expected finite numbers, got {bad!r}")
    return values


def _all_finite(values: tuple) -> bool:
    # A finite sum has finite terms; one that overflows is checked term by term.
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _linspace(lo: float, hi: float, n: int) -> tuple:
    """n >= 2 equally spaced points lo + i * step, the last one exactly hi."""
    if n < 2:
        raise ValueError("need at least two points")
    step = (hi - lo) / (n - 1)
    return (*(lo + i * step for i in range(n - 1)), hi)


def _simpson(values: Sequence[float], step: float) -> float:
    """Composite Simpson rule, weights 1, 4, 2, ..., 2, 4, 1; values must sit
    on an odd-size uniform grid."""
    n = len(values)
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points")
    inner = ((4.0 if i % 2 else 2.0) * v for i, v in enumerate(values[1:-1], 1))
    return step / 3.0 * math.fsum((values[0], *inner, values[-1]))


def radial_mean(
    profile: Callable[[float], float], a_squared: RationalLike, quad_points: int
) -> float:
    """Mean of a radial profile H(s) over the region, radial measure with density s ds.

    ``quad_points`` counts quadrature nodes (bumped by one if even, the
    Simpson rule wants an odd grid).
    """
    a2 = float(_area_parameter(a_squared))
    quad_points = integer(quad_points)
    if quad_points < 16:
        raise ValueError("use at least 16 quadrature points")
    n = quad_points if quad_points % 2 == 1 else quad_points + 1
    s = _linspace(a2, 1.0, n)
    h = _floats(map(profile, s), "a profile maps each s to a number")
    step = (1.0 - a2) / (n - 1)
    return _simpson([v * x for v, x in zip(h, s)], step) / _simpson(s, step)


def mean_radius_sq(a_squared: RationalLike, quad_points: int = 4097) -> float:
    """Radial mean of s itself: the centering constant of the rotation loop."""
    return radial_mean(lambda s: s, a_squared, quad_points)


class PathLengths(NamedTuple):
    l_plus: float
    l_minus: float
    total: float


_SHAPE = "need a rectangular 2d grid with at least two samples per axis"


class SampledPath(
    NamedTuple("SampledPath", [("values", tuple), ("weights", tuple), ("label", str)])
):
    """Float samples H[t_i][x_j] of a Hamiltonian path on a grid.

    ``values`` is a tuple of rows, one per time slice.  ``weights`` are
    spatial quadrature weights for the per-slice mean (uniform by default).
    The path is an immutable tuple ``(values, weights, label)``, checked when
    it is built.  It runs over [0, 1], so ``time_step`` is 1 / (slices - 1).
    """

    __slots__ = ()

    def __new__(cls, values, weights=None, label="") -> "SampledPath":
        try:
            grid = tuple(_floats(row, _SHAPE) for row in values)
        except TypeError:
            raise ValueError(_SHAPE) from None
        return cls._checked(grid, weights, label)

    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _checked(cls, grid: tuple, weights, label) -> "SampledPath":
        """The checks after the cells, on rows of finite floats: shape, then weights."""
        n_x = len(grid[0]) if grid else 0
        if len(grid) < 2 or n_x < 2 or any(len(row) != n_x for row in grid):
            raise ValueError(_SHAPE)
        per_point = "weights must list one value per sample point"
        w = (1.0 / n_x,) * n_x if weights is None else _floats(weights, per_point)
        if len(w) != n_x:
            raise ValueError(per_point)
        if min(w) < 0 or math.fsum(w) <= 0:
            raise ValueError("weights must be finite, nonnegative, with positive sum")
        return tuple.__new__(cls, (grid, w, str(label)))

    @property
    def time_step(self) -> float:
        return 1 / (len(self.values) - 1)

    @classmethod
    def from_csv(cls, path) -> "SampledPath":
        """Read a grid from CSV: one row per time slice.

        An optional first row whose leading cell is the word "weights"
        supplies spatial weights in its remaining cells.  Blank lines are
        skipped; an empty cell in any other row is an error.
        """
        weights, grid = None, []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if any(map(str.strip, row)):
                    if not all(map(str.strip, row)):
                        raise ValueError(f"{path}: empty cell in row {reader.line_num}")
                    if weights is None and not grid and row[0].strip().lower() == "weights":
                        weights = _csv_row(row[1:], path, reader.line_num)
                    else:
                        grid.append(_csv_row(row, path, reader.line_num))
        if weights is None and not grid:
            raise ValueError(f"{path}: empty grid")
        if any(len(r) != len(grid[0]) for r in grid):
            raise ValueError(f"{path}: ragged rows")
        try:
            return cls._checked(tuple(grid), weights, path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _reads_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return "_" not in cell and cell.isascii()


def _csv_row(cells: list, path, line: int) -> tuple:
    """A CSV row's cells as finite floats; a bad cell raises ValueError naming it and its row."""
    text = "".join(cells)
    try:
        # float() would read "1_0" as 10 and fullwidth digits as ASCII ones.
        if "_" in text or not text.isascii():
            raise ValueError
        values = tuple(map(float, cells))
    except ValueError:
        cell = next(c for c in cells if not _reads_as_float(c))
        raise ValueError(f"{path}: non-numeric cell {cell!r} in row {line}") from None
    if not _all_finite(values):
        cell = cells[next(i for i, v in enumerate(values) if not math.isfinite(v))]
        raise ValueError(f"{path}: non-finite cell {cell!r} in row {line}")
    return values


def _trapezoid(values: Sequence[float], step: float) -> float:
    return step * math.fsum((values[0] / 2, *values[1:-1], values[-1] / 2))


def path_lengths(p: SampledPath) -> PathLengths:
    """Trapezoid-rule one-sided lengths of a sampled path."""
    total_weight = math.fsum(p.weights)
    means = [math.fsum(v * w for v, w in zip(row, p.weights)) / total_weight for row in p.values]
    l_plus = _trapezoid([max(row) - m for row, m in zip(p.values, means)], p.time_step)
    l_minus = _trapezoid([m - min(row) for row, m in zip(p.values, means)], p.time_step)
    return PathLengths(l_plus, l_minus, l_plus + l_minus)


class ExtremumReport(NamedTuple):
    """Verdict of the fixed-extremum geodesic criterion on a sampled path.

    ``max_witnesses[i]`` is a sample-point index attaining the spatial max on
    every slice of the i-th time window (None when no single point does);
    likewise for minima.
    """

    window: int
    has_fixed_max_each_moment: bool
    has_fixed_min_each_moment: bool
    max_witnesses: tuple
    min_witnesses: tuple


def _first_common(hits: list, window: int) -> tuple:
    """Per run of ``window`` consecutive sets, the least index in all of them, or None."""
    return tuple(
        min(set.intersection(*hits[s : s + window]), default=None)
        for s in range(len(hits) - window + 1)
    )


def fixed_extremum_check(p: SampledPath, window: int = 2) -> ExtremumReport:
    """Check for a fixed spatial extremum over each window of time slices.

    Windows slide one slice at a time; a window longer than the path is
    clamped to the whole path.  Extrema are compared exactly.
    """
    window = integer(window)
    if window < 1:
        raise ValueError("window must be at least 1")
    window = min(window, len(p.values))
    max_hits, min_hits = [], []
    points = range(len(p.values[0]))
    for row in p.values:
        max_hits.append(set(compress(points, map(max(row).__eq__, row))))
        min_hits.append(set(compress(points, map(min(row).__eq__, row))))
    max_witnesses = _first_common(max_hits, window)
    min_witnesses = _first_common(min_hits, window)
    return ExtremumReport(
        window=window,
        has_fixed_max_each_moment=None not in max_witnesses,
        has_fixed_min_each_moment=None not in min_witnesses,
        max_witnesses=max_witnesses,
        min_witnesses=min_witnesses,
    )


def radial_loop_path(a_squared: RationalLike, n_time: int = 16, n_space: int = 64) -> SampledPath:
    """The double-rotation Hamiltonian pi (c - s) sampled as an (autonomous) path."""
    a2 = _frac(a_squared)
    c = mean_radius_sq(a2)
    row = tuple(math.pi * (c - s) for s in _linspace(float(a2), 1.0, n_space))
    return SampledPath([row] * n_time, label=f"radial rotation loop, a^2 = {a2}")
