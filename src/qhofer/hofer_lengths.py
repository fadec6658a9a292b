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

Everything here is float arithmetic; tests state tolerances explicitly
(1e-10 for quadrature checks, 1e-12 where a closed form is known).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .novikov import RationalLike, _frac, _integer
from .quantum_homology import _area_parameter
from .seidel_bounds import lengths_blowup_loop  # noqa: F401  (perfbench's tracer looks it up here)


@dataclass(frozen=True)
class RadialHamiltonian:
    """A function of the radial coordinate s on [a^2, 1]."""

    profile: Callable[[float], float]
    a_squared: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_squared", _area_parameter(self.a_squared))

    @classmethod
    def linear(cls, c0: float, a_squared: RationalLike) -> "RadialHamiltonian":
        """The rotation-loop profile H(s) = pi (c0 - s)."""
        return cls(
            profile=lambda s: math.pi * (c0 - s),
            a_squared=_frac(a_squared),
            label=f"pi*({c0} - s)",
        )

    @classmethod
    def from_samples(
        cls, values: Sequence[float], a_squared: RationalLike
    ) -> "RadialHamiltonian":
        """Piecewise-linear profile through equally spaced samples."""
        a2 = _frac(a_squared)
        ys = np.asarray(values, dtype=float)
        if ys.ndim != 1 or ys.size < 2:
            raise ValueError("need at least two samples")
        xs = np.linspace(float(a2), 1.0, ys.size)
        return cls(
            profile=lambda s: float(np.interp(s, xs, ys)),
            a_squared=a2,
            label=f"sampled[{ys.size}]",
        )

    def sample(self, n: int) -> tuple:
        """(s grid, H values) on n equally spaced points across the domain."""
        s = np.linspace(float(self.a_squared), 1.0, n)
        return s, np.array([self.profile(x) for x in s])


def _simpson(values: np.ndarray, step: float) -> float:
    """Composite Simpson rule; values must sit on an odd-size uniform grid."""
    n = values.size
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of points")
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(step / 3.0 * np.dot(weights, values))


def radial_mean(h: RadialHamiltonian, quad_points: int) -> float:
    """Mean of H over the region, radial measure with density s ds.

    ``quad_points`` counts quadrature nodes (bumped by one if even, the
    Simpson rule wants an odd grid).
    """
    quad_points = _integer(quad_points)
    if quad_points < 16:
        raise ValueError("use at least 16 quadrature points")
    n = quad_points if quad_points % 2 == 1 else quad_points + 1
    s, values = h.sample(n)
    step = (1.0 - float(h.a_squared)) / (n - 1)
    numerator = _simpson(values * s, step)
    denominator = _simpson(s, step)
    return numerator / denominator


def mean_radius_sq(a_squared: RationalLike, quad_points: int = 4097) -> float:
    """Radial mean of s itself: the centering constant of the rotation loop."""
    h = RadialHamiltonian(profile=lambda s: s, a_squared=_frac(a_squared))
    return radial_mean(h, quad_points)


class PathLengths(NamedTuple):
    l_plus: float
    l_minus: float
    total: float


class SampledPath:
    """Float samples H[t_i][x_j] of a Hamiltonian path on a grid.

    ``weights`` are spatial quadrature weights for the per-slice mean
    (uniform by default); ``time_step`` defaults to a parametrization of the
    whole path over [0, 1].
    """

    def __init__(
        self,
        values,
        time_step: Optional[float] = None,
        weights=None,
        label: str = "",
    ) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError("need a 2d grid with at least two samples per axis")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        self.values = arr
        self.time_step = (
            1.0 / (arr.shape[0] - 1) if time_step is None else float(time_step)
        )
        if self.time_step <= 0:
            raise ValueError("time step must be positive")
        if weights is None:
            w = np.full(arr.shape[1], 1.0 / arr.shape[1])
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (arr.shape[1],):
                raise ValueError("weights must list one value per sample point")
            if not np.isfinite(w).all() or (w < 0).any() or w.sum() <= 0:
                raise ValueError("weights must be finite, nonnegative, with positive sum")
        self.weights = w
        self.label = str(label)

    @classmethod
    def from_csv(cls, path, time_step: Optional[float] = None) -> "SampledPath":
        """Read a grid from CSV: one row per time slice.

        An optional first row whose leading cell is the word "weights"
        supplies spatial weights in its remaining cells.
        """
        import csv as _csv

        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in _csv.reader(fh) if any(c.strip() for c in row)]
        if not rows:
            raise ValueError(f"{path}: empty grid")
        weights = None
        if rows and rows[0] and rows[0][0].strip().lower() == "weights":
            weights = [float(c) for c in rows[0][1:] if c.strip()]
            rows = rows[1:]
        try:
            grid = [[float(c) for c in row if c.strip()] for row in rows]
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric cell ({exc})") from exc
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError(f"{path}: ragged rows")
        return cls(grid, time_step=time_step, weights=weights, label=str(path))


def path_lengths(p: SampledPath) -> PathLengths:
    """Trapezoid-rule one-sided lengths of a sampled path."""
    mx = p.values.max(axis=1)
    mn = p.values.min(axis=1)
    mean = p.values @ p.weights / p.weights.sum()
    l_plus = float(np.trapezoid(mx - mean, dx=p.time_step))
    l_minus = float(np.trapezoid(mean - mn, dx=p.time_step))
    return PathLengths(l_plus, l_minus, l_plus + l_minus)


@dataclass(frozen=True)
class ExtremumReport:
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
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "window": self.window,
            "has_fixed_max_each_moment": self.has_fixed_max_each_moment,
            "has_fixed_min_each_moment": self.has_fixed_min_each_moment,
            "max_witnesses": list(self.max_witnesses),
            "min_witnesses": list(self.min_witnesses),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def fixed_extremum_check(
    p: SampledPath, window: int = 2, atol: float = 0.0
) -> ExtremumReport:
    """Check for a fixed spatial extremum over each window of time slices.

    Windows slide one slice at a time; a window longer than the path is
    clamped to the whole path.  ``atol`` loosens the comparison for data that
    went through lossy storage.
    """
    window = _integer(window)
    if window < 1:
        raise ValueError("window must be at least 1")
    values = p.values
    n_t = values.shape[0]
    window = min(window, n_t)
    row_max = values.max(axis=1)
    row_min = values.min(axis=1)
    max_witnesses = []
    min_witnesses = []
    for start in range(n_t - window + 1):
        block = values[start : start + window]
        hit_max = (block >= row_max[start : start + window, None] - atol).all(axis=0)
        hit_min = (block <= row_min[start : start + window, None] + atol).all(axis=0)
        idx_max = np.flatnonzero(hit_max)
        idx_min = np.flatnonzero(hit_min)
        max_witnesses.append(int(idx_max[0]) if idx_max.size else None)
        min_witnesses.append(int(idx_min[0]) if idx_min.size else None)
    return ExtremumReport(
        window=window,
        has_fixed_max_each_moment=all(w is not None for w in max_witnesses),
        has_fixed_min_each_moment=all(w is not None for w in min_witnesses),
        max_witnesses=tuple(max_witnesses),
        min_witnesses=tuple(min_witnesses),
        label=p.label,
    )


def radial_loop_path(
    a_squared: RationalLike, n_time: int = 16, n_space: int = 64
) -> SampledPath:
    """The double-rotation Hamiltonian sampled as an (autonomous) path."""
    a2 = _frac(a_squared)
    c = mean_radius_sq(a2)
    h = RadialHamiltonian.linear(c, a2)
    _, profile = h.sample(n_space)
    values = np.tile(profile, (n_time, 1))
    return SampledPath(values, label=f"radial rotation loop, a^2 = {a2}")
