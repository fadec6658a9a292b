"""Shared builders for the test suite: random elements with exact entries."""

import random
from fractions import Fraction

from qhofer import NovikovElement, QHElement, SphereClass
from qhofer.quantum_homology import _invert_rational_matrix

# The standard sweep values for the exceptional area.
NINE_A2 = [Fraction(i, 10) for i in range(1, 10)]

Q_TEXT = "F * e^{1/2*E + 1/4*F}"


def random_fraction(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.choice((1, 2, 3)))


def random_sphere_class(rng: random.Random, rank: int) -> SphereClass:
    return SphereClass(
        tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))) for _ in range(rank))
    )


def random_novikov(rng: random.Random, rank: int, max_terms: int = 3) -> NovikovElement:
    terms = [
        (random_sphere_class(rng, rank), random_fraction(rng))
        for _ in range(rng.randint(1, max_terms))
    ]
    return NovikovElement(terms)


def random_qh(rng: random.Random, model, max_terms: int = 3) -> QHElement:
    terms = [
        (
            (rng.randrange(len(model.basis)), random_sphere_class(rng, model.rank)),
            random_fraction(rng),
        )
        for _ in range(rng.randint(1, max_terms))
    ]
    return QHElement(terms)


def oracle_contract(model, x: QHElement, y: QHElement, classical: bool = False) -> QHElement:
    """Reference product: the contraction rule in Fraction/SphereClass terms.

    a_i * a_j = sum over table entries n(a_i, a_j, a_k; B) g^{kl} a_l e^{-B},
    with g the inverse pairing; the classical product keeps only B = 0.
    """
    g = _invert_rational_matrix(model.pairing)
    terms = []
    for (i, B1), c in x.terms.items():
        for (j, B2), d in y.terms.items():
            for (idx, B), value in model.gw.items():
                if classical and not B.is_zero():
                    continue
                rest = list(idx)
                if i not in rest:
                    continue
                rest.remove(i)
                if j not in rest:
                    continue
                rest.remove(j)
                k = rest[0]
                for l, g_kl in enumerate(g[k]):
                    if g_kl:
                        terms.append(((l, B1 + B2 - B), c * d * value * g_kl))
    return QHElement(terms)


def oracle_walk(model, x: QHElement, k_max: int):
    """Yield x^k for k = 1 .. k_max by repeated oracle products."""
    acc = model.unit()
    for _ in range(k_max):
        acc = oracle_contract(model, acc, x)
        yield acc
