"""
One-sided lengths and the geodesic criterion on sampled paths
=============================================================

Hamiltonian paths enter numerically as a (time x sample point) grid of
values.  From such a grid we compute the one-sided Hofer lengths
(time integrals of max - mean and mean - min) and run the discrete
geodesic criterion: a path is a candidate geodesic when a single sample
point attains the spatial max (and one the min) throughout every short
time window.
"""

import json
from fractions import Fraction

from qhofer import (
    SampledPath,
    fixed_extremum_check,
    path_lengths,
    radial_loop_path,
)

# An autonomous (time-independent) path: every row of the grid is the
# same radial profile, so both extrema are fixed for all time and the
# criterion passes with a single witness on each side.
loop = radial_loop_path(Fraction(1, 4), n_time=12, n_space=48)
lengths = path_lengths(loop)
print(f"radial loop: L+ = {lengths.l_plus:.6f}, L- = {lengths.l_minus:.6f}")

report = fixed_extremum_check(loop, window=3)
print(
    f"fixed max: {report.has_fixed_max_each_moment},"
    f" fixed min: {report.has_fixed_min_each_moment},"
    f" max witnesses {report.max_witnesses}, min witnesses"
    f" {report.min_witnesses}"
)
print()

# A path that swaps its extrema halfway through: the max migrates from
# the first sample point to the last, so no single witness works on the
# windows that straddle the crossing.  (An even number of time samples
# keeps the profile nonzero on every row.)
def linspace(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


profile = linspace(1.0, -1.0, 33)
grid = [[(1.0 - 2.0 * t) * x for x in profile] for t in linspace(0.0, 1.0, 8)]
crossing = SampledPath(grid, label="crossing")
report = fixed_extremum_check(crossing, window=2)
print(
    f"crossing path: fixed max = {report.has_fixed_max_each_moment},"
    f" fixed min = {report.has_fixed_min_each_moment}"
)

# Reports serialize to JSON for downstream tooling.
print(json.dumps(report._asdict(), indent=2)[:200], "...")
print()

# Grids round-trip through CSV, with an optional first row of sample
# weights.  Weights shift the spatial mean and therefore the split
# between L+ and L-, but not the total.
grid = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
plain = SampledPath(grid)
weighted = SampledPath(grid, weights=[3.0, 1.0])
for p in (plain, weighted):
    l = path_lengths(p)
    print(f"weights {p.weights}: L+ = {l.l_plus:.4f}, L- = {l.l_minus:.4f},"
          f" total = {l.total:.4f}")
