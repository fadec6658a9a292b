"""Shared builders for the test suite: random elements with exact entries."""

import math
import random
from fractions import Fraction

from qhofer import (
    NotInvertibleError, QHElement, model_cpn, model_from_dict, model_to_dict, two_sided_bounds,
    valuation,
)
from qhofer.hofer_lengths import mean_radius_sq, radial_mean
from qhofer.quantum_homology import _MaxPlus, _invert_rational_matrix

# The standard sweep values for the exceptional area.
NINE_A2 = [Fraction(i, 10) for i in range(1, 10)]

Q_TEXT = "F * e^{1/2*E + 1/4*F}"


def count_rotation_builds(monkeypatch) -> dict:
    """Empty the blow-up and rotation caches, then count blow-up builds (through
    either module), exact inverses and sign checks."""
    import qhofer.quantum_homology as qh
    import qhofer.seidel_bounds as sb

    counts = {"builds": 0, "inverses": 0, "signs": 0}
    for key, module, name in (
        ("builds", sb, "model_blowup_cp2"),
        ("builds", qh, "model_blowup_cp2"),
        ("inverses", sb, "exact_inverse"),
        ("signs", qh, "_check_signs"),
    ):
        def counting(*args, _key=key, _fn=getattr(module, name)):
            counts[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    sb._blowup.cache_clear()
    sb._rotation.cache_clear()
    return counts


def random_fraction(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.choice((1, 2, 3)))


def class_sum(*classes) -> tuple:
    """Coordinatewise sum of exponents of one rank."""
    return tuple(map(sum, zip(*classes, strict=True)))


def class_neg(B) -> tuple:
    return tuple(-c for c in B)


def _pairing(values, B) -> Fraction:
    return sum((v * Fraction(c) for v, c in zip(values, B, strict=True)), Fraction(0))


def area(model, B) -> Fraction:
    """omega(B): the generator areas of ``model`` paired with the exponent B."""
    return _pairing(model.omega, B)


def chern(model, B) -> Fraction:
    """c1(B): the generator Chern numbers of ``model`` paired with the exponent B."""
    return _pairing(model.c1, B)


def cpn_with_line_area(n: int, line_area):
    """CP^n with omega(L) = ``line_area``, read from a model file's data."""
    data = model_to_dict(model_cpn(n))
    data["omega"] = [str(line_area)]
    return model_from_dict(data)


def random_sphere_class(rng: random.Random, rank: int) -> tuple:
    return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))) for _ in range(rank))


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
    """Reference product: the contraction rule on Fraction coefficients and exponents.

    a_i * a_j = sum over table entries n(a_i, a_j, a_k; B) g^{kl} a_l e^{-B},
    with g the inverse pairing; the classical product keeps only B = 0.
    """
    g = _invert_rational_matrix(model.pairing)
    terms = []
    for (i, B1), c in x.terms.items():
        for (j, B2), d in y.terms.items():
            for (idx, B), value in model.gw.items():
                if classical and any(B):
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
                        terms.append(((l, class_sum(B1, B2, class_neg(B))), c * d * value * g_kl))
    return QHElement(terms)


def classical_product(model, x: QHElement, y: QHElement) -> QHElement:
    """Cap product: the B = 0 stratum of the oracle's contraction."""
    return oracle_contract(model, x, y, classical=True)


def hbar(model):
    """Least positive area carried by the table, or +infinity if classical."""
    areas = [area(model, B) for (_, B) in model.gw if any(B)]
    return min(areas) if areas else math.inf


def degree(model, x: QHElement):
    """Common degree of the terms of x, None for zero; ValueError if the terms
    have several, ModelError if one names a basis index outside the model."""
    if x.is_zero():
        return None
    model._check_range(i for i, _ in x.terms)
    degrees = {model.degrees[i] + 2 * chern(model, B) for i, B in x.terms}
    if len(degrees) > 1:
        raise ValueError(f"element is not graded: degrees {sorted(degrees)}")
    return degrees.pop()


def two_sided_bound(k: int, a2) -> Fraction:
    """v(Q^k) + v(Q^-k) at area ``a2``: the last row of the sweep to k."""
    return two_sided_bounds(k, a2)[-1].bound


def tropical_valuations(model, x: QHElement, k_max: int) -> list:
    """[v(x^1), ..., v(x^k_max)] from the max-plus system of x."""
    return _MaxPlus(model, x).valuations(k_max)


def oracle_walk(model, x: QHElement, k_max: int):
    """Yield x^k for k = 1 .. k_max by repeated oracle products."""
    acc = model.unit()
    for _ in range(k_max):
        acc = oracle_contract(model, acc, x)
        yield acc


# Ring elements of the oracle are {exponent: Fraction} dicts with no zero
# coefficient.


def ring_sum(parts) -> dict:
    """Sum of ring elements."""
    out: dict = {}
    for part in parts:
        for B, q in part.items():
            out[B] = out.get(B, 0) + q
    return {B: q for B, q in out.items() if q}


def ring_product(x: dict, y: dict) -> dict:
    """Convolution: exponents add, coefficients multiply."""
    return ring_sum({class_sum(B, C): q * r} for B, q in x.items() for C, r in y.items())


def _oracle_scale(x: QHElement, lam: dict) -> QHElement:
    """A module element times a ring element, exponents adding termwise."""
    return QHElement(
        ((i, class_sum(B, C)), q * r) for (i, B), q in x.terms.items() for C, r in lam.items()
    )


def _oracle_det(matrix: list) -> dict:
    """Laplace expansion along the first row, entries ring elements."""
    if len(matrix) == 1:
        return matrix[0][0]
    return ring_sum(
        ring_product(entry, _oracle_cofactor(matrix, 0, col)) for col, entry in enumerate(matrix[0])
    )


def _oracle_cofactor(matrix: list, row: int, col: int) -> dict:
    n = len(matrix)
    minor = [[matrix[i][j] for j in range(n) if j != col] for i in range(n) if i != row]
    det = _oracle_det(minor)
    return {B: -q for B, q in det.items()} if (row + col) % 2 else det


def oracle_cramer(model, x: QHElement) -> tuple:
    """Reference Cramer step on ring-element entries: (adj / (c0 e^{B0}), g).

    det M_x = c0 e^{B0} (1 - g), with c0 e^{B0} its unique term of largest
    area, and adj the adjugate column dual to the unit.  M_x comes from
    ``oracle_contract``; determinants expand along the first row.  Raises
    NotInvertibleError with the engine's messages.
    """
    if x.is_zero():
        raise NotInvertibleError("the zero element has no inverse")
    n = len(model.basis)
    ((u, _),) = model.unit().terms
    cols = [oracle_contract(model, x, model.basis_element(j)).terms for j in range(n)]
    matrix = [[{B: q for (i, B), q in col.items() if i == k} for col in cols] for k in range(n)]
    cofactors = [_oracle_cofactor(matrix, u, k) for k in range(n)]
    det = ring_sum(ring_product(e, c) for e, c in zip(matrix[u], cofactors))
    if not det:
        raise NotInvertibleError(
            "multiplication matrix is singular; the element is a zero divisor"
        )
    top = max(area(model, B) for B in det)
    leaders = [(B, q) for B, q in det.items() if area(model, B) == top]
    if len(leaders) != 1:
        raise NotInvertibleError(
            "no leading monomial: maximal area is attained by "
            f"{len(leaders)} terms, so the geometric series cannot start"
        )
    ((B0, c0),) = leaders
    g = {class_sum(B, class_neg(B0)): -q / c0 for B, q in det.items() if B != B0}
    adj = QHElement(((k, B), q) for k, entry in enumerate(cofactors) for B, q in entry.items())
    return _oracle_scale(adj, {class_neg(B0): 1 / c0}), g


def oracle_invert(model, x: QHElement, floor: Fraction) -> QHElement:
    """Reference inverse: the Cramer column times the geometric series sum g^m.

    The series keeps the terms of area at least floor - v(column), and the
    product the terms of area at least ``floor``; with g = 0 the column is
    the exact inverse and is returned whole.
    """
    col, g = oracle_cramer(model, x)
    if not g:
        return col
    cutoff = floor - valuation(col, model.omega)
    series = term = {(Fraction(0),) * model.rank: Fraction(1)}
    while term:
        term = {B: q for B, q in ring_product(term, g).items() if area(model, B) >= cutoff}
        series = ring_sum((series, term))
    product = _oracle_scale(col, series)
    return QHElement({(i, B): q for (i, B), q in product.terms.items() if area(model, B) >= floor})


def linspace(lo: float, hi: float, n: int) -> list:
    """n equally spaced floats lo + i * step, the last one exactly hi."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def outer(a, b) -> list:
    """The grid a[i] * b[j]."""
    return [[x * y for y in b] for x in a]


def oracle_loop_lengths(k: int, a2, quad_points: int = 4097) -> tuple:
    """Reference (L+, L-) of the k-fold rotation loop by Simpson quadrature.

    k = 2 samples H = pi (c - s), c the quadrature mean of s, and takes its
    sampled extrema; k = 1 takes the shell mean -pi s / 2 of -pi |z1|^2
    against the extrema 0 and -pi.
    """
    if k == 2:
        c = mean_radius_sq(a2, quad_points)
        values = [math.pi * (c - s) for s in linspace(float(a2), 1.0, quad_points)]
        mean = radial_mean(lambda s: math.pi * (c - s), a2, quad_points)
        return max(values) - mean, mean - min(values)
    mean = radial_mean(lambda s: -math.pi * s / 2.0, a2, quad_points)
    return 0.0 - mean, mean + math.pi
