"""Table-driven small quantum homology with Novikov coefficients.

A manifold model packages an even-degree homology basis, the intersection
pairing, and a finite table of three-point genus-zero invariants n(a,b,c;B).
The B = 0 stratum of the table encodes triple intersections, and one
contraction rule turns the whole table into the quantum product: with g the
inverse pairing matrix,

    a_i * a_j = sum_{B,k,l} n(a_i, a_j, a_k; B) g^{kl} a_l (x) e^{-B}.

Elements of the module are finite sums a (x) e^B with rational exponents,
multiplied termwise through the rule above.

Inversion runs through Cramer's rule over the exponent group ring, whose
elements are module elements on the fundamental class: it acts as the
identity, so the module product multiplies them.  The multiplication-by-x
matrix M_x has a group-ring determinant; x is invertible in the area-completed
ring exactly when det M_x has a unique term of maximal area (the associated
graded ring is a domain whose units are monomials).  Cayley-Hamilton gives
det M_x and the adjugate column from the traces of the powers of M_x, which
x acting on the N basis classes yields in N^2 kernel products.  The leading
monomial is peeled off and the remainder expanded as a geometric series,
truncated at a caller-chosen valuation floor; when the series is finite the
result is the exact inverse.

Built-in models: complex projective space of any dimension, and the one-point
blow-up of the projective plane with a size-a exceptional divisor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .novikov import (
    NEG_INF,
    CheckError,
    ChernFunctional,
    OmegaFunctional,
    ParseError,
    RationalLike,
    _WORD,
    _accumulate,
    _area_parameter,
    _exponent,
    _frac,
    _parse_rational,
    _terms,
    format_exponent,
    integer,
    parse_exponent,
)


class NotInvertibleError(CheckError):
    """Raised when an element has no inverse in the completed ring."""


class ModelError(CheckError):
    """Raised when a manifold model fails its consistency checks."""


class QHElement:
    """Finite sum of basis classes tensored with exponentials, canonical form.

    Keys of the internal map are (basis index, exponent class), and the map
    never stores a zero coefficient, so equality of elements is equality of
    dictionaries.  Products need a model, so ``x * y`` raises; use
    ``quantum_product(model, x, y)``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping, Iterable[tuple]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _accumulate(
            ((integer(i), _exponent(B)), _frac(q)) for (i, B), q in items
        )

    @classmethod
    def _of(cls, terms: dict) -> "QHElement":
        """Wrap a canonical map (no zero coefficients) without copying it."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @property
    def terms(self) -> dict:
        """Copy of the coefficient map."""
        return dict(self._terms)

    def support_classes(self) -> Iterator[tuple]:
        return map(itemgetter(1), self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QHElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "QHElement") -> "QHElement":
        if not isinstance(other, QHElement):
            return NotImplemented
        return self._of(_accumulate(other._terms.items(), self._terms))

    def __neg__(self) -> "QHElement":
        return self._of({key: -q for key, q in self._terms.items()})

    def __sub__(self, other: "QHElement") -> "QHElement":
        if not isinstance(other, QHElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "QHElement":
        if isinstance(other, QHElement):
            raise TypeError(
                "element products need a model; use quantum_product(model, x, y)"
            )
        try:
            q = _frac(other)
        except TypeError:
            return NotImplemented
        return self._of({key: q * c for key, c in self._terms.items()} if q else {})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if self.is_zero():
            return "QHElement(0)"
        n = len(self._terms)
        return f"QHElement({n} term{'s' if n != 1 else ''})"


def _expect(kind, what: str, values) -> None:
    """TypeError naming the first of ``values`` that is no ``kind``; a bool is no int."""
    bad = [v for v in values if not isinstance(v, kind) or isinstance(v, bool)]
    if bad:
        raise TypeError(f"{what}, not {bad[0]!r}")


def _invert_rational_matrix(rows: Sequence[Sequence[Fraction]]) -> list:
    """Gauss-Jordan inverse of an exact rational matrix."""
    n = len(rows)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ModelError("pairing matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class ManifoldModel:
    """Homology basis, pairing, and three-point table for one manifold.

    ``basis`` is a sequence of (name, degree) pairs; ``gw`` is a sequence of
    entries (classes, B, value) with three classes given by index or name.  The
    table is stored symmetrized; entries given in several orders must agree.
    Every bad value raises ModelError: a wrong type or unreadable value as
    ``malformed model data: ...``, a broken model rule by its name.
    """

    def __init__(self, name: str, dim: int, sphere_generators: Sequence[str], basis: Sequence,
                 pairing: Sequence[Sequence[RationalLike]], omega: Sequence[RationalLike],
                 c1: Sequence[int], gw: Sequence) -> None:
        lists, array = (list, tuple), "lists must be JSON arrays"
        try:
            # Types are checked, not coerced: "EF" is no list, "4" no dimension, 7 no name.
            # Each check runs before anything reads inside the values it has passed.
            _expect(lists, array, (sphere_generators, basis, pairing, omega, c1, gw))
            _expect(lists, array, (*basis, *gw, *pairing))
            _expect(lists, array, [classes for classes, _, _ in gw])
            _expect(lists, array, [B for _, B, _ in gw])
            _expect(str, "names and sphere generators must be strings",
                    (name, *sphere_generators, *(n for n, _ in basis)))
            _expect(int, "dim, degrees and c1 must be integers", (dim, *c1, *(d for _, d in basis)))
            self.name, self.dim, self.c1 = name, dim, ChernFunctional(c1)
            self.sphere_generators = tuple(sphere_generators)
            self.basis = tuple(map(tuple, basis))
            self.basis_names = tuple(n for n, _ in self.basis)
            self.degrees = tuple(d for _, d in self.basis)
            self.pairing = tuple(tuple(map(_frac, row)) for row in pairing)
            self.omega = OmegaFunctional(omega)
            self.rank = len(self.sphere_generators)
            self._index = {n: i for i, n in enumerate(self.basis_names)}
            if len(self._index) != len(self.basis):
                raise ModelError("basis names must be distinct")
            self.gw = self._canonical_gw(gw)
            problems = validate_model(self)
        except ModelError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed model data: {exc}") from exc
        if problems:
            raise ModelError("; ".join(problems))
        self._zero_class = (Fraction(0),) * self.rank
        self._lattices: dict = {}
        self._fund = self.degrees.index(self.dim)

    # -- construction helpers -------------------------------------------

    def _canonical_gw(self, entries: Sequence) -> dict:
        table: dict = {}
        for classes, B, value in entries:
            idx = tuple(sorted(map(self._as_index, classes)))
            if len(idx) != 3:
                raise ModelError(f"{self._entry(idx)} names {len(idx)} classes, "
                                 "but each table entry takes exactly three")
            value, B = _frac(value), _exponent(B)
            if len(B) != self.rank:
                raise ModelError(f"{self._entry(idx)} has an exponent of rank {len(B)}, "
                                 f"not {self.rank}")
            if table.setdefault((idx, B), value) != value:
                raise ModelError(f"conflicting values for {self._entry(idx, B)}: "
                                 f"{table[idx, B]} and {value}")
        return {k: v for k, v in table.items() if v != 0}

    def _entry(self, idx: tuple, B: Optional[tuple] = None) -> str:
        """A table entry as reports name it: its classes, then ``B`` when given."""
        classes = ",".join(self.basis_names[i] for i in idx)
        exponent = "" if B is None else f";{format_exponent(B, self.sphere_generators)}"
        return f"table entry ({classes}{exponent})"

    @cached_property
    def _dual(self) -> list:
        """Row k of the inverse pairing as its nonzero entries (l, g^{kl})."""
        inv = _invert_rational_matrix(self.pairing)
        return [[(l, g) for l, g in enumerate(row) if g != 0] for row in inv]

    def _lattice(self, *elements: "QHElement") -> "_Lattice":
        """Tables compiled for the exponents of the table and of ``elements``."""
        self._check_range(i for x in elements for i, _ in x._terms)
        D = math.lcm(
            *(c.denominator for (_, B) in self.gw for c in B),
            *(c.denominator for x in elements for (_, B) in x._terms for c in B),
        )
        if D not in self._lattices:
            self._lattices[D] = _Lattice(self, D)
        return self._lattices[D]

    def _as_index(self, c) -> int:
        if isinstance(c, str):
            if c not in self._index:
                raise ModelError(f"unknown basis class {c!r}")
            return self._index[c]
        i = integer(c)
        self._check_range((i,))
        return i

    def _check_range(self, indices) -> None:
        for i in indices:
            if not 0 <= i < len(self.basis):
                raise ModelError(f"basis index {i} out of range")

    # -- basic queries ----------------------------------------------------

    def basis_element(self, c, B: Optional[tuple] = None) -> QHElement:
        i = self._as_index(c)
        B = self._zero_class if B is None else _exponent(B)
        if len(B) != self.rank:
            raise ValueError(f"rank mismatch: {len(B)} vs {self.rank}")
        return QHElement._of({(i, B): Fraction(1)})

    def unit(self) -> QHElement:
        """The fundamental class, the identity for both products."""
        return self.basis_element(self._fund)

    def element(self, text: str) -> QHElement:
        return parse_qh(text, self)

    def format(self, x: QHElement) -> str:
        return format_qh(x, self)

    def __repr__(self) -> str:
        return f"ManifoldModel({self.name!r}, dim={self.dim}, basis={len(self.basis)})"


def validate_model(model: ManifoldModel) -> list:
    """All consistency problems found, as human-readable strings.

    Each rule runs once over its own domain: a name, a pair of classes, a
    table entry or a table class.  Every message names the one it is about,
    and a pair whose pairing is already reported is not checked against the
    unit too.
    """
    problems = []
    n, rank, dim = len(model.basis), model.rank, model.dim
    names, degrees, pairing = model.basis_names, model.degrees, model.pairing
    generators = model.sphere_generators
    # Element text names classes and generators by these words, so printed
    # elements read back only when each is one word of the term scanner.
    problems += [f"name {name!r} cannot be read back from element text: a name is one "
                 "word, without outer space, '*', '+', '-', braces or a leading 'e^'"
                 for name in dict.fromkeys((*names, *generators)) if not re.fullmatch(_WORD, name)]
    problems += [f"sphere generator {g!r} is listed more than once"
                 for g in dict.fromkeys(generators) if generators.count(g) > 1]
    if dim <= 0 or dim % 2:
        problems.append("dimension must be a positive even integer")
    if len(model.omega.values) != rank or len(model.c1.values) != rank:
        problems.append("omega and c1 must list one value per sphere generator")
        return problems
    # A fault of shape stops the checks that would read past it.
    shape = [f"basis class {name!r} has invalid degree {d}"
             for name, d in model.basis if d < 0 or d > dim or d % 2]
    if degrees.count(dim) != 1:
        shape.append("exactly one basis class must sit in top degree")
    elif len(pairing) != n or any(len(row) != n for row in pairing):
        shape.append("pairing matrix must be square of basis size")
    if shape:
        return problems + shape
    u, entry = degrees.index(dim), model._entry
    zero = (Fraction(0),) * rank
    for i, j in combinations_with_replacement(range(n), 2):
        pair, q = f"({names[i]},{names[j]})", pairing[i][j]
        through_unit = (tuple(sorted((i, j, u))), zero)
        value = model.gw.get(through_unit, 0)
        if q != pairing[j][i]:
            problems.append(f"pairing matrix must be symmetric: {pair} is {q}, "
                            f"({names[j]},{names[i]}) is {pairing[j][i]}")
        elif q and degrees[i] + degrees[j] != dim:
            problems.append(f"pairing of {names[i]} and {names[j]} violates the degree rule")
        # The unit acts as the identity: its B = 0 entries are the pairing.
        elif q and not value:
            problems.append(f"missing classical entry for pairing {pair}")
        elif value != q:
            problems.append(f"{entry(*through_unit)} is {value}, but the pairing {pair} is {q}")
    try:
        model._dual  # the one inversion of the pairing, kept for the products
    except ModelError:
        problems.append("pairing matrix is singular")
    for idx, B in model.gw:
        if u in idx and B == zero:
            continue  # checked against the pairing above
        if u in idx:
            problems.append(f"{entry(idx, B)} goes through the unit, so B must be 0")
        if sum(degrees[i] for i in idx) != 2 * dim - 2 * model.c1(B):
            problems.append(f"{entry(idx, B)} violates the dimension rule")
    for B in dict.fromkeys(B for _, B in model.gw if B != zero and model.omega(B) <= 0):
        area = f"{format_exponent(B, model.sphere_generators)} has area {model.omega(B)}"
        problems.append(f"table class {area}, but nonzero table classes must have positive area")
    return problems


# ---------------------------------------------------------------------------
# Products and powers.
# ---------------------------------------------------------------------------


def _lattice_number(q):
    return q.numerator if q.denominator == 1 else q


class _Lattice:
    """A model's contraction tables compiled for one exponent denominator D.

    Every exponent that meets a product lies in (1/D) Z^rank, D the lcm of the
    coordinate denominators of the table and of the operands.  A term
    a_i (x) e^B becomes the int key (i, D*B_1, ..., D*B_rank), so an output
    term is one tuple sum, and its area omega(B)*D*W, W the lcm of the omega
    denominators, is an int dot product.  Coefficients stay ints while they
    are integral.  ``quantum`` maps j to i to the terms (l, -D*B, w) of
    a_i * a_j = sum w a_l e^{-B}: the table contracted with the dual pairing,
    summed over the middle index.
    """

    def __init__(self, model: ManifoldModel, D: int) -> None:
        W = math.lcm(*(v.denominator for v in model.omega.values))
        self.D = D
        self.rank = model.rank
        self.scale = D * W
        self.weights = (0,) + tuple(int(v * W) for v in model.omega.values)
        self.unit = {(model._fund,) + (0,) * model.rank: 1}
        self.quantum = self._table(model)

    def _table(self, model: ManifoldModel) -> dict:
        def terms():
            for ((i, j, k), B), value in model.gw.items():
                shift = tuple(-e for e in self._ints(B))
                for a, b, c in {(i, j, k), (i, k, j), (j, k, i)}:
                    for l, g in model._dual[c]:
                        for pair in {(a, b), (b, a)}:
                            yield (pair, l, shift), value * g

        table: dict = {}
        for ((i, j), l, shift), w in _accumulate(terms()).items():
            table.setdefault(j, {}).setdefault(i, []).append((l, shift, _lattice_number(w)))
        return table

    def _ints(self, B: tuple) -> tuple:
        """D*B, the lattice coordinates of the exponent B."""
        if len(B) != self.rank:
            raise ValueError(f"rank mismatch: {len(B)} vs {self.rank}")
        return tuple(c.numerator * (self.D // c.denominator) for c in B)

    def encode(self, x: QHElement) -> dict:
        return {
            (i, *self._ints(B)): _lattice_number(q)
            for (i, B), q in x._terms.items()
        }

    def decode(self, terms: dict) -> QHElement:
        return QHElement._of(
            {
                (i, tuple(Fraction(e, self.D) for e in B)): Fraction(q)
                for (i, *B), q in terms.items()
            }
        )

    def area(self, key: tuple) -> int:
        return sum(map(mul, self.weights, key))

    def valuation(self, terms: dict):
        if not terms:
            return NEG_INF
        return Fraction(max(map(self.area, terms)), self.scale)

    def truncate(self, terms: dict, floor: Fraction) -> dict:
        """The terms of area at least ``floor``."""
        bar = math.ceil(floor * self.scale)
        return {key: q for key, q in terms.items() if self.area(key) >= bar}

    def walk(self, x: QHElement, k_max: int) -> Iterator[dict]:
        """Lattice terms of x^k for k = 1 .. k_max."""
        step = self.encode(x)
        acc = self.unit
        for _ in range(integer(k_max)):
            acc = _contract(self.quantum, acc, step)
            yield acc


def _contract(table: dict, x: dict, y: dict) -> dict:
    """Product of two lattice elements through one compiled table."""
    if len(x) < len(y):
        x, y = y, x
    acc: dict = {}
    get = acc.get
    for (j, *e), d in y.items():
        column = table.get(j, {})
        # Added to an x key (i, e1), a shift gives the output key (l, e1 + e + b);
        # row i's shifts are built when the first x key in that row needs them.
        shifts: dict = {}
        for key, c in x.items():
            row = shifts.get(key[0])
            if row is None:
                i = key[0]
                row = shifts[i] = [
                    ((l - i, *map(add, e, b)), d * w) for l, b, w in column.get(i, ())
                ]
            for shift, dw in row:
                out = tuple(map(add, key, shift))
                acc[out] = get(out, 0) + c * dw
    return {key: c for key, c in acc.items() if c}


def quantum_product(model: ManifoldModel, x: QHElement, y: QHElement) -> QHElement:
    """Quantum product of two module elements."""
    lattice = model._lattice(x, y)
    return lattice.decode(
        _contract(lattice.quantum, lattice.encode(x), lattice.encode(y))
    )


def power(model: ManifoldModel, x: QHElement, k: int) -> QHElement:
    """k-th quantum power; negative k demands an exact finite inverse."""
    k = integer(k)
    if k < 0:
        x = exact_inverse(model, x)
        k = -k
    lattice = model._lattice(x)
    acc = lattice.unit
    for acc in lattice.walk(x, k):
        pass
    return lattice.decode(acc)


def power_walk(model: ManifoldModel, x: QHElement, k_max: int) -> Iterator[tuple]:
    """Yield (k, x^k) for k = 1 .. k_max, sharing work across steps."""
    lattice = model._lattice(x)
    for k, acc in enumerate(lattice.walk(x, k_max), 1):
        yield k, lattice.decode(acc)


def valuation_walk(model: ManifoldModel, x: QHElement, k_max: int) -> list:
    """[v(x^1), ..., v(x^k_max)], exact, from one walk that stays on the lattice."""
    lattice = model._lattice(x)
    return [lattice.valuation(acc) for acc in lattice.walk(x, k_max)]


class _MaxPlus:
    """M_x as a max-plus system: built and sign-checked once, then iterated on demand.

    A term (l, B) of x^k sums the products of entries along the walks of
    length k from the unit to basis class l through the matrix M_x, the
    exponents adding up to B.  When ``_check_signs`` passes, each walk
    contributes one term, and all walks to (l, B) carry the same sign, so no
    coefficient cancels: the support of x^k is the set of walk ends, and
    ``valuations`` reads v(x^k) as the largest total area over walks of
    length k, equal to what ``valuation_walk`` finds.  CheckError when
    either check fails.
    """

    def __init__(self, model: ManifoldModel, x: QHElement) -> None:
        lattice = model._lattice(x)
        matrix = _mult_matrix(lattice, lattice.encode(x), len(model.basis))
        _check_signs(matrix)
        # (l, j, integer area of B) for each entry c e^B of M_x in row l, column j.
        self.steps = [
            (l, j, lattice.area(key))
            for l, row in enumerate(matrix) for j, entry in enumerate(row) for key in entry
        ]
        self.n, self.unit, self.scale = len(matrix), model._fund, lattice.scale

    def valuations(self, k_max: int) -> list:
        # best[l]: the largest area of a walk of length k from the unit to l.
        best = [NEG_INF] * self.n
        best[self.unit] = 0
        out = []
        for _ in range(integer(k_max)):
            new = [NEG_INF] * self.n
            for l, j, area in self.steps:
                if best[j] + area > new[l]:
                    new[l] = best[j] + area
            best = new
            top = max(best)
            out.append(NEG_INF if top == NEG_INF else Fraction(top, self.scale))
        return out


def _check_signs(matrix: list) -> None:
    """Check that the lattice matrix ``matrix`` is monomial with a sign character.

    Every nonzero entry must be one term c e^B.  Its sign must then satisfy
    [c < 0] = s_l + s_j + b.B + t (mod 2) for the entry in row l and column j,
    with one bit s_i per basis class, one bit b_i per exponent coordinate and
    one constant bit t.  That suffices: the s of inner classes cancel in
    pairs, so a walk of length k from the unit u to (l, B) has the sign
    s_l + s_u + b.B + k t, the same for all such walks.  The system is solved
    over GF(2) by elimination on bit masks.  Raises CheckError, naming the
    check, when an entry has several terms or the system has no solution.
    """
    n = len(matrix)
    pivots: dict = {}  # leading bit -> (mask, right-hand side) of a reduced equation
    for l, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if len(entry) > 1:
                raise CheckError(
                    f"monomial check failed: entry ({l}, {j}) of the multiplication "
                    f"matrix has {len(entry)} terms, so coefficients of its powers may cancel"
                )
            for (_, *e), c in entry.items():
                mask = (1 << l) ^ (1 << j) ^ (1 << (n + len(e)))
                mask ^= sum((ei & 1) << (n + i) for i, ei in enumerate(e))
                rhs = c < 0
                while mask and mask.bit_length() - 1 in pivots:
                    pivot, pivot_rhs = pivots[mask.bit_length() - 1]
                    mask, rhs = mask ^ pivot, rhs ^ pivot_rhs
                if mask:
                    pivots[mask.bit_length() - 1] = mask, rhs
                elif rhs:
                    raise CheckError(
                        "sign check failed: the signs of the multiplication matrix "
                        "follow no character s_l + s_j + b.B + t mod 2, so coefficients "
                        "of its powers may cancel"
                    )


# ---------------------------------------------------------------------------
# Inversion.
# ---------------------------------------------------------------------------


def _mult_matrix(lattice: _Lattice, x: dict, n: int) -> list:
    """Matrix of y -> x * y on the basis, ring entries on the unit index."""
    ((u, *zero),) = lattice.unit
    matrix = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for (k, *e), q in _contract(lattice.quantum, x, {(j, *zero): 1}).items():
            matrix[k][j][(u, *e)] = q
    return matrix


def _leading_monomial(lattice: _Lattice, x: dict) -> tuple:
    """The unique maximal-area term (key, coefficient); error on a tie."""
    top = max(map(lattice.area, x))
    leaders = [key for key in x if lattice.area(key) == top]
    if len(leaders) != 1:
        raise NotInvertibleError(
            "no leading monomial: maximal area is attained by "
            f"{len(leaders)} terms, so the geometric series cannot start"
        )
    return leaders[0], x[leaders[0]]


def _cramer(model: ManifoldModel, x: QHElement) -> tuple:
    """(lattice, adj / (c0 e^{B0}), g) with det M_x = c0 e^{B0} (1 - g).

    adj = adj(M_x) 1 comes from Cayley-Hamilton.  With det(t - M_x) = t^N +
    c_1 t^{N-1} + ... + c_N, Newton's identities give k c_k = -sum_{i<=k}
    c_{k-i} p_i from the traces p_i = tr(M_x^i), and x^-1 = -sum_k c_k
    x^{N-1-k} / c_N.  c_N = (-1)^N det M_x stands for det M_x: the sign
    cancels in the quotient.  Every term of g has strictly negative area, and
    x^-1 is the second result times sum g^m.
    """
    if x.is_zero():
        raise NotInvertibleError("the zero element has no inverse")
    lattice = model._lattice(x)
    table = lattice.quantum
    step = lattice.encode(x)
    n = len(model.basis)
    ((u, *zero),) = lattice.unit
    # p[k] = tr(M_x^k), read off x acting k times on each basis class: the
    # table need not be associative, so tr(M_{x^k}) would not do.  Acting on
    # the unit, the same loop gives the powers x^0 .. x^(N-1).
    p = [{} for _ in range(n + 1)]
    powers = []
    for j in range(n):
        column = {(j, *zero): 1}
        for k in range(1, n + 1):
            if j == u:
                powers.append(column)
            column = _contract(table, column, step)
            p[k] = _accumulate((((u, *e), q) for (i, *e), q in column.items() if i == j), p[k])
    # Newton's identities; c_0 = 1, so the i = k term is p_k itself.
    c = [lattice.unit]
    for k in range(1, n + 1):
        products = (_contract(table, c[k - i], p[i]).items() for i in range(1, k))
        s = _accumulate(chain.from_iterable(products), p[k])
        c.append({key: _lattice_number(Fraction(-q) / k) for key, q in s.items()})
    det = c[n]
    if not det:
        raise NotInvertibleError(
            "multiplication matrix is singular; the element is a zero divisor"
        )
    (_, *B0), c0 = _leading_monomial(lattice, det)
    lead_inverse = {(u, *(-b for b in B0)): _lattice_number(1 / Fraction(c0))}
    # det / lead starts with the unit term, which 1 - det / lead cancels.
    det = _contract(table, det, lead_inverse)
    g = {key: -q for key, q in det.items() if key not in lattice.unit}
    # sum_k c_k x^(N-1-k), whose k = 0 term is x^(N-1).
    products = (_contract(table, c[k], powers[n - 1 - k]).items() for k in range(1, n))
    adj = _accumulate(chain.from_iterable(products), powers[n - 1])
    return lattice, _contract(table, adj, {key: -q for key, q in lead_inverse.items()}), g


def invert(
    model: ManifoldModel, x: QHElement, floor: RationalLike = Fraction(-8)
) -> QHElement:
    """Inverse of x, truncated to terms of area at least ``floor``.

    When the underlying series terminates the result is the exact inverse and
    ``quantum_product(model, x, invert(model, x))`` equals the unit.  Otherwise
    every term of the residual x * z - 1 has area below ``floor + v(x)``.
    """
    floor = _frac(floor)
    lattice, col, g = _cramer(model, x)
    if g:
        # Geometric series sum g^m, kept only deep enough that every term of
        # the final inverse with area >= floor receives all of its contributions.
        cutoff = floor - lattice.valuation(col)
        series = term = lattice.unit
        steps = 0
        while term:
            term = lattice.truncate(_contract(lattice.quantum, term, g), cutoff)
            series = _accumulate(term.items(), series)
            steps += 1
            if steps > 100_000:
                raise NotInvertibleError("series failed to reach the floor")
        col = lattice.truncate(_contract(lattice.quantum, col, series), floor)
    return lattice.decode(col)


def exact_inverse(model: ManifoldModel, x: QHElement) -> QHElement:
    """Inverse with a terminating series; error if only truncations exist.

    The units of the group ring of a torsion-free exponent group are its
    monomials, so x has a finite inverse exactly when det M_x is a monomial,
    that is when g = 0.
    """
    lattice, col, g = _cramer(model, x)
    if g:
        raise NotInvertibleError(
            "inverse exists only as an infinite series; use invert() with a floor"
        )
    return lattice.decode(col)


# ---------------------------------------------------------------------------
# Built-in models.
# ---------------------------------------------------------------------------


def model_blowup_cp2(a_squared: RationalLike) -> ManifoldModel:
    """One-point blow-up of the projective plane.

    Exponent generators are the exceptional class E and the fiber class
    F = L - E; areas are omega(E) = a^2 and omega(F) = 1 - a^2 in units of pi,
    with 0 < a^2 < 1.  Basis: the point class p, the degree-two classes E and
    F, and the fundamental class 1.
    """
    a2 = _area_parameter(a_squared)
    E = (1, 0)
    F = (0, 1)
    EF = (1, 1)
    zero = (0, 0)
    gw = [
        # Classical stratum: triple intersections against the fundamental class.
        (("p", "1", "1"), zero, 1),
        (("E", "E", "1"), zero, -1),
        (("E", "F", "1"), zero, 1),
        # Exceptional-curve stratum: signs alternate with the number of E's.
        (("E", "E", "E"), E, -1),
        (("E", "E", "F"), E, 1),
        (("E", "F", "F"), E, -1),
        (("F", "F", "F"), E, 1),
        # Fiber and section strata.
        (("p", "E", "E"), F, 1),
        (("p", "p", "F"), EF, 1),
    ]
    return ManifoldModel(
        name="blowup_cp2",
        dim=4,
        sphere_generators=("E", "F"),
        basis=(("p", 0), ("E", 2), ("F", 2), ("1", 4)),
        pairing=((0, 0, 0, 1), (0, -1, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
        omega=(a2, 1 - a2),
        c1=(1, 2),
        gw=gw,
    )


def model_cpn(n: int, line_area: RationalLike = 1) -> ManifoldModel:
    """Complex projective space of complex dimension n.

    Basis classes are the powers of the hyperplane class, x^k of degree
    2(n - k); the single exponent generator is the line class L with
    omega(L) = ``line_area`` and c1(L) = n + 1.
    """
    n = integer(n)
    if n < 1:
        raise ValueError("complex dimension must be at least 1")
    area = _frac(line_area)
    if area <= 0:
        raise ValueError("line area must be positive")
    names = ["1", "x"] + [f"x^{k}" for k in range(2, n + 1)]
    basis = [(names[k], 2 * (n - k)) for k in range(n + 1)]
    pairing = [[1 if i + j == n else 0 for j in range(n + 1)] for i in range(n + 1)]
    gw = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            # The third index is fixed by i + j + k in {n, 2n + 1}.
            for k, B in ((n - i - j, (0,)), (2 * n + 1 - i - j, (1,))):
                if j <= k <= n:
                    gw.append(((i, j, k), B, 1))
    return ManifoldModel(
        name=f"cp{n}",
        dim=2 * n,
        sphere_generators=("L",),
        basis=basis,
        pairing=pairing,
        omega=(area,),
        c1=(n + 1,),
        gw=gw,
    )


# ---------------------------------------------------------------------------
# Text form for module elements: "q * name * e^{...}" terms joined by " + ",
# sorted by basis index, then by exponent coordinates; the zero element is
# "0".  The exponential is left out when B = 0, so the unit prints as "1 * 1"
# (the fundamental class is named "1").  Parsing runs the term scanner of
# ``novikov``; it also lets a coefficient of 1 be left out, and takes factors
# in any order, except that a term's coefficient precedes its basis name.
# ---------------------------------------------------------------------------


def format_qh(x: QHElement, model: ManifoldModel) -> str:
    if x.is_zero():
        return "0"
    model._check_range(i for i, _ in x._terms)
    rows = []
    for (i, B), q in x._terms.items():
        factors = [str(q), model.basis_names[i]]
        if any(B):
            factors.append(f"e^{{{format_exponent(B, model.sphere_generators)}}}")
        rows.append(((i, B), " * ".join(factors)))
    return " + ".join(text for _, text in sorted(rows))


def parse_qh(text: str, model: ManifoldModel) -> QHElement:
    text = text.strip()
    if text == "0":
        return QHElement()
    terms = []
    for sign, factors, offset in _terms(text):
        term = " * ".join(factors)
        exponents = [f[3:-1] for f in factors if f.startswith("e^")]
        plain = [f for f in factors if not f.startswith("e^")]
        if len(exponents) > 1:
            raise ParseError(
                f"term at offset {offset} needs at most one exponential factor: {term!r}"
            )
        B = model._zero_class
        if exponents:
            B = parse_exponent(exponents[0], model.sphere_generators)
        # The last plain factor names the basis class; "1" is the unit.
        if not plain:
            raise ParseError(f"term at offset {offset} needs a basis class: {term!r}")
        name = plain.pop()
        if name not in model._index:
            raise ParseError(
                f"unknown basis class {name!r} at offset {offset}; "
                f"expected one of {list(model.basis_names)}"
            )
        if len(plain) > 1:
            raise ParseError(f"too many coefficients in term {term!r}")
        coeff = _parse_rational(plain[0], f"term at offset {offset}") if plain else Fraction(1)
        terms.append(((model._index[name], B), sign * coeff))
    return QHElement(terms)


# ---------------------------------------------------------------------------
# Model files: a flat JSON object with every rational rendered as a string.
# ---------------------------------------------------------------------------


def model_to_dict(model: ManifoldModel) -> dict:
    gw_rows = sorted(model.gw.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return {
        "name": model.name,
        "dim": model.dim,
        "sphere_generators": list(model.sphere_generators),
        "basis": [{"name": n, "degree": d} for n, d in model.basis],
        "pairing": [[str(v) for v in row] for row in model.pairing],
        "omega": [str(v) for v in model.omega.values],
        "c1": list(model.c1.values),
        "gw": [
            {
                "classes": [model.basis_names[i] for i in idx],
                "B": [str(c) for c in B],
                "value": str(value),
            }
            for (idx, B), value in gw_rows
        ],
    }


def model_from_dict(data: Mapping) -> ManifoldModel:
    """The model of a JSON object; ``ManifoldModel`` checks the values it is given."""
    try:
        if not isinstance(data, Mapping):
            raise TypeError(f"a model is a JSON object, not {type(data).__name__}")
        args = {key: data[key] for key in (
            "name", "dim", "sphere_generators", "basis", "pairing", "omega", "c1", "gw")}
        # The rows of basis and gw are objects, read by key; a basis or gw that
        # is no array goes to the constructor as it is, which refuses it.
        for key, read in (("basis", itemgetter("name", "degree")),
                          ("gw", itemgetter("classes", "B", "value"))):
            if type(args[key]) is list:
                _expect(dict, "basis and gw entries must be JSON objects", args[key])
                args[key] = list(map(read, args[key]))
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model data: {exc}") from exc
    return ManifoldModel(**args)


def load_model(path) -> ManifoldModel:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(f"malformed model file: {exc}") from exc
    return model_from_dict(data)
