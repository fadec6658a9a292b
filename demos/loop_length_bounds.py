"""
Certifying the loop length r = pi (1 - a^2)
===========================================

The valuation of Seidel elements gives an exact lower bound for the
Hofer length of the degree-two circle loop, and the exact lengths of the
explicit Hamiltonian give a matching upper bound.  Together they pin the
length down exactly.
"""

import math
from fractions import Fraction

from qhofer import (
    growth_table,
    lengths_blowup_loop,
    omega_f,
    r_tilde_certificate,
    two_sided_bounds,
)

a2 = Fraction(1, 4)

# Lower bound: for every k, the k-fold loop satisfies
# L(k-fold loop) >= v(Q^k) + v(Q^-k), and dividing by k cannot beat the
# k = 2 value.  The minimum over k is omega(F) = 1 - a^2 (in units of pi).
print(f"two-sided valuation bounds at a^2 = {a2}:")
for k, bound in two_sided_bounds(8, a2):
    print(f"  k = {k}: v(Q^k) + v(Q^-k) = {bound}  ({float(bound):.4f} x pi)")

cert = r_tilde_certificate(a2, 50)
print(
    f"minimum over k <= 50: {cert.min_bound} x pi, attained at"
    f" k = {cert.attained_at}; equals omega(F) = {omega_f(a2)}:"
    f" {cert.matches_omega_f}"
)
print()

# Upper bound: the loop is generated by the radial Hamiltonian
# H = pi (c - s) with c the mean of s over the annulus a^2 <= s <= 1,
# so its one-sided lengths are closed forms in that mean.
loop = lengths_blowup_loop(2, a2)
print(f"exact lengths: L+ = {loop.l_plus:.10f}, L- = {loop.l_minus:.10f}")
print(f"total / pi = {loop.total / math.pi:.12f}  vs  1 - a^2 = {float(1 - a2)}")
print()

# The gap between the regimes: for 3a^2 < 1 the valuations v(Q^-k) climb
# a staircase (one period of omega(F/4 - E/2) every three steps), while
# for 3a^2 >= 1 they stay bounded.  growth_table summarizes both.
for a2 in (Fraction(1, 5), Fraction(1, 2)):
    table = growth_table(30, a2)
    s = table.summary
    print(
        f"a^2 = {a2}: bounded = {s.regime_bounded},"
        f" max v(Q^-k) = {s.qneg_max} at k = {s.qneg_argmax},"
        f" last-period slope = {s.slope_last_period}"
        f" (reference {s.slope_reference})"
    )
