"""Loop-rotation elements and certified length bounds on the blown-up plane.

The circle action rotating the blown-up projective plane acts on quantum
homology through an invertible element; writing Q = F (x) e^{E/2 + F/4}, the
k-fold rotation acts by

    Psi(k) = Q^k (x) e^{k delta (F - 2E)},
    delta  = (1 - a^2)^2 / (12 (1 + a^2)(1 - 3a^2)),

with a^2 the area of the exceptional divisor (units of pi).  The valuation of
Psi(k) is a lower bound for the positive Hofer length of every loop in its
homotopy class, and the two-sided sum v(Q^k) + v(Q^{-k}) bounds the full
length; the delta exponents cancel there, so the two-sided bound survives the
pole at 3a^2 = 1.  The sweeps over k read v(Q^{+-k}) from one source per
area, built once per process, which keeps the sign-checked max-plus systems
of Q and Q^-1; their minimum certifies omega(F) = 1 - a^2 once the
closed-form lengths of the explicit rotation Hamiltonian meet it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .novikov import CheckError, RationalLike, _area_parameter, _frac, integer
from .novikov import valuation  # noqa: F401  (perfbench's tracing test looks it up here)
from .quantum_homology import (
    ManifoldModel,
    QHElement,
    _MaxPlus,
    exact_inverse,
    model_blowup_cp2,
    power,
    power_walk,  # noqa: F401  (perfbench's tracing test looks it up here)
)


class MonotoneCaseError(CheckError):
    """Raised where the rotation constant delta has its pole, 3a^2 = 1."""


def delta_constant(a_squared: RationalLike) -> Fraction:
    """The exponent-shift constant of the rotation element."""
    a2 = _area_parameter(a_squared)
    if 3 * a2 == 1:
        raise MonotoneCaseError(
            "delta = (1-a^2)^2/(12(1+a^2)(1-3a^2)) is singular at 3a^2 = 1"
        )
    return (1 - a2) ** 2 / (12 * (1 + a2) * (1 - 3 * a2))


def q_element(model: ManifoldModel) -> QHElement:
    """The rotation generator without its delta shift: F (x) e^{E/2 + F/4}."""
    return model.basis_element("F", (Fraction(1, 2), Fraction(1, 4)))


@lru_cache(maxsize=16)
def _blowup(a2: Fraction) -> ManifoldModel:
    """The blow-up at ``a2``, built once per area and process; its callers share it."""
    return model_blowup_cp2(a2)


@lru_cache(maxsize=16)
def _rotation(a2: Fraction) -> tuple:
    """The checked max-plus systems of (Q, Q^-1) at ``a2``: built once per area and process."""
    model = _blowup(a2)
    q = q_element(model)
    return _MaxPlus(model, q), _MaxPlus(model, exact_inverse(model, q))


def _q_valuations(k_max: int, a_squared: RationalLike) -> list:
    """[v(Q^k)] and [v(Q^-k)] for k = 1..k_max, read off the source at ``a_squared``."""
    k_max = integer(k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [system.valuations(k_max) for system in _rotation(_frac(a_squared))]


def omega_f(a_squared: RationalLike) -> Fraction:
    """Area of the fiber class, 1 - a^2 in units of pi."""
    return 1 - _area_parameter(a_squared)


def mean_radius_sq_exact(a_squared: RationalLike) -> Fraction:
    """Closed form of the radial mean of s, 2(1-a^6)/(3(1-a^4))."""
    a2 = _area_parameter(a_squared)
    return 2 * (1 - a2**3) / (3 * (1 - a2**2))


class LoopLengths(NamedTuple):
    """Exact one-sided Hofer lengths ``plus``, ``minus`` of a loop, in units of pi.

    ``l_plus``, ``l_minus`` and ``total`` are the lengths as floats, pi included.
    """

    plus: Fraction
    minus: Fraction

    l_plus = property(lambda self: math.pi * float(self.plus))
    l_minus = property(lambda self: math.pi * float(self.minus))
    total = property(lambda self: math.pi * float(self.plus + self.minus))


def lengths_blowup_loop(k: int, a_squared: RationalLike) -> LoopLengths:
    """Exact lengths of the k-fold rotation loop from its explicit Hamiltonian.

    With c the radial mean of s: k = 2 uses H = pi (c - s), of mean zero,
    largest at s = a^2 and smallest at s = 1.  k = 1 uses -pi |z1|^2: its
    shell average -pi s / 2 has mean -pi c / 2, its extrema are 0 and -pi.
    """
    k, a2 = integer(k), _area_parameter(a_squared)
    c = mean_radius_sq_exact(a2)
    if k == 2:
        return LoopLengths(c - a2, 1 - c)
    if k == 1:
        return LoopLengths(c / 2, 1 - c / 2)
    raise ValueError("only the loops k = 1 and k = 2 carry explicit profiles")


class SeidelElement(NamedTuple):
    """The k-fold rotation loop's action on quantum homology of the blow-up at ``a_squared``."""

    loop_multiple: int
    a_squared: Fraction
    delta: Fraction
    value: QHElement


def psi(k: int, a_squared: RationalLike) -> SeidelElement:
    """Rotation element Psi(k) = Q^k (x) e^{k delta (F - 2E)}."""
    a2 = _frac(a_squared)
    delta = delta_constant(a2)
    model = _blowup(a2)
    shift = (Fraction(1, 2) - 2 * delta, Fraction(1, 4) + delta)
    base = model.basis_element("F", shift)
    return SeidelElement(integer(k), a2, delta, power(model, base, k))


def ell_plus_lower_bound(k: int, a_squared: RationalLike) -> Fraction:
    """Certified lower bound for the positive length of the k-fold loop.

    Returns v(Psi(k)) in units of pi; exact rational.  The shift e^{k delta
    (F - 2E)} is a monomial, so v(Psi(k)) = v(Q^k) + k delta omega(F - 2E),
    with omega(F - 2E) = 1 - 3a^2, read off the max-plus sequence of Q or
    Q^-1; Psi(0) is the unit, of valuation 0.
    """
    a2 = _frac(a_squared)
    delta = delta_constant(a2)
    k = integer(k)
    if k == 0:
        return Fraction(0)
    return _rotation(a2)[k < 0].valuations(abs(k))[-1] + k * delta * (1 - 3 * a2)


def two_sided_bound(k: int, a_squared: RationalLike) -> Fraction:
    """v(Q^k) + v(Q^{-k}): lower bound for the full length of the k-fold loop.

    The delta exponents cancel in the sum, so this stays defined at the
    monotone value 3a^2 = 1.
    """
    if integer(k) < 1:
        raise ValueError("k must be at least 1")
    return two_sided_bounds(k, a_squared)[-1].bound


class BoundRow(NamedTuple):
    k: int
    bound: Fraction


def two_sided_bounds(k_max: int, a_squared: RationalLike) -> list:
    """[BoundRow(k, two_sided_bound(k))] for k = 1..k_max, sharing work across k."""
    pos, neg = _q_valuations(k_max, a_squared)
    return [BoundRow(k, p + n) for k, (p, n) in enumerate(zip(pos, neg), 1)]


class GrowthRow(NamedTuple):
    k: int
    v_qk: Fraction
    v_qnegk: Fraction
    bound: Fraction
    psi_rate: Optional[Fraction]


class GrowthSummary(NamedTuple):
    """Companion verdicts for a growth table.

    ``qneg_bounded`` holds when no new maximum of v(Q^{-k}) appears in the
    second half of the sweep; in the growing regime 3a^2 < 1 the staircase
    rises with period 3 and ``slope_last_period`` is its final per-step rate.
    """

    omega_f: Fraction
    regime_bounded: bool
    qneg_max: Fraction
    qneg_argmax: int
    qneg_bounded: bool
    period: int
    slope_last_period: Optional[Fraction]
    slope_reference: Fraction
    psi_rate_min: Optional[Fraction]
    psi_rate_reference: Fraction


class GrowthTable(NamedTuple):
    rows: tuple
    summary: GrowthSummary


def growth_table(k_max: int, a_squared: RationalLike) -> GrowthTable:
    """Exact table of v(Q^k), v(Q^{-k}), their sum, and v(Psi(k))/k.

    The psi-rate column is None at the monotone value 3a^2 = 1, where the
    rotation element itself is out of reach; everything else survives.
    """
    pos, neg = _q_valuations(k_max, a_squared)
    a2, k_max = _frac(a_squared), len(pos)

    monotone = 3 * a2 == 1
    # v(Psi(k)) = v(Q^k) + k delta (1 - 3a^2), and delta (1 - 3a^2) is the reference rate.
    psi_rate_reference = (1 - a2) ** 2 / (12 * (1 + a2))
    rows = tuple(
        GrowthRow(k, p, n, p + n, None if monotone else p / k + psi_rate_reference)
        for k, (p, n) in enumerate(zip(pos, neg), 1)
    )

    of = omega_f(a2)
    qneg_max = max(neg)
    regime_bounded = 3 * a2 >= 1
    period = 4 if regime_bounded else 3
    summary = GrowthSummary(
        omega_f=of,
        regime_bounded=regime_bounded,
        qneg_max=qneg_max,
        qneg_argmax=neg.index(qneg_max) + 1,
        qneg_bounded=k_max < 2 or max(neg[:k_max // 2]) == qneg_max,
        period=period,
        slope_last_period=(neg[-1] - neg[-1 - period]) / period if k_max > period else None,
        slope_reference=(of / 4 - (1 - of) / 2) / 3,
        psi_rate_min=None if monotone else min(r.psi_rate for r in rows),
        psi_rate_reference=psi_rate_reference,
    )
    return GrowthTable(rows, summary)


class RTildeCertificate(NamedTuple):
    """Result of the two-sided sweep: the minimum bound and where it sits."""

    a_squared: Fraction
    k_max: int
    min_bound: Fraction
    attained_at: int
    omega_f: Fraction

    @property
    def matches_omega_f(self) -> bool:
        return self.min_bound == self.omega_f


def r_tilde_certificate(a_squared: RationalLike, k_max: int) -> RTildeCertificate:
    k_max = integer(k_max)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    a2 = _frac(a_squared)
    rows = two_sided_bounds(k_max, a2)
    min_bound = min(b for _, b in rows)
    attained_at = min(k for k, b in rows if b == min_bound)
    return RTildeCertificate(a2, k_max, min_bound, attained_at, omega_f(a2))
