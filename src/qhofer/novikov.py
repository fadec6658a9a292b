"""Exponents, areas and the term scanner of quantum-homology elements.

The coefficient ring is the rational group ring of a lattice of sphere
classes: finite sums  sum_B q_B * e^B  with rational q_B, where the exponents
B live in a fixed finite-rank rational vector space, multiplied by
convolution, e^B * e^C = e^{B+C}.  Its elements are handled as module
elements on the fundamental class (``quantum_homology.QHElement``); this
module holds the exponents and the linear functionals on them.  The area
functional induces the leading-order filtration

    v(sum q_B e^B) = max { area(B) : q_B != 0 },        v(0) = -infinity,

and every length bound produced downstream is read off from v.  Area values
are kept as exact rationals in units of pi, so comparisons never touch
floating point.  Degrees enter through a second linear functional recording
the first Chern number of each generator.

Every other module imports this one, so it also holds what they share: the
rational readers and the two error bases, ``ParseError`` and ``CheckError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

RationalLike = Union[int, str, Fraction]

#: Valuation of the zero element.
NEG_INF = float("-inf")


class ParseError(ValueError):
    """Raised when a serialized element or exponent cannot be read back."""


class CheckError(ValueError):
    """Base of every error a failed check raises: an invalid model, a
    non-invertible element, the monotone pole, a failed max-plus check and
    the command line's own checks.  The command line exits 2 on them; other
    ValueErrors are usage errors (exit 1)."""


# Fraction alone also reads exponent notation, so a short text such as
# "1e999999999" would make it build a huge integer.
_RATIONAL = re.compile(r"\s*[+-]?([0-9]+(/0*[1-9][0-9]*)?|[0-9]*\.[0-9]+|[0-9]+\.)\s*")


def rational(text: str) -> Fraction:
    """An integer, p/q or plain decimal read exactly; other text raises ValueError."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected an integer, p/q or plain decimal, got {text!r}")
    return Fraction(text)


def _frac(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, str):
        return rational(q)
    if isinstance(q, int) and not isinstance(q, bool):
        return Fraction(q)
    raise TypeError(f"expected a rational, got {type(q).__name__}")


def _area_parameter(a_squared: RationalLike) -> Fraction:
    """The exceptional area a^2 as a Fraction; ValueError unless 0 < a^2 < 1."""
    a2 = _frac(a_squared)
    if not 0 < a2 < 1:
        raise ValueError("a_squared must lie strictly between 0 and 1")
    return a2


def _accumulate(items, base=()) -> dict:
    """Copy of ``base`` plus (key, value) pairs summed per key, zero sums dropped.

    Only keys of ``items`` are hashed, so adding to a long ``base`` stays cheap.
    """
    acc = dict(base)
    for key, q in items:
        total = acc.get(key, 0) + q
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def integer(v) -> int:
    """v as an int, text read as by ``rational``; a bool or non-integral value raises."""
    q = rational(v) if isinstance(v, str) else Fraction(v)
    if q.denominator != 1 or isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    return q.numerator


class SphereClass(NamedTuple("SphereClass", [("coords", tuple)])):
    """Exact rational coordinate vector in a fixed basis of sphere classes."""

    __slots__ = ()

    def __new__(cls, coords) -> "SphereClass":
        return tuple.__new__(cls, (tuple(map(_frac, coords)),))

    # _replace builds through _make, which would skip the checks in __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def zero(cls, rank: int) -> "SphereClass":
        return cls((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "SphereClass") -> "SphereClass":
        self._check_rank(other)
        return SphereClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "SphereClass") -> "SphereClass":
        self._check_rank(other)
        return SphereClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "SphereClass":
        return SphereClass(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: RationalLike) -> "SphereClass":
        q = _frac(scalar)
        return SphereClass(tuple(q * a for a in self.coords))

    __mul__ = __rmul__

    def __radd__(self, other):
        # Returning NotImplemented would fall back to tuple concatenation.
        raise TypeError(f"cannot add a {type(other).__name__} to a SphereClass")

    def __eq__(self, other) -> bool:
        # Equal only to its own type; NotImplemented would fall back to tuple equality.
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def _check_rank(self, other: "SphereClass") -> None:
        if not isinstance(other, SphereClass):
            raise TypeError(f"expected a SphereClass, got {type(other).__name__}")
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"rank mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coords)
        return f"SphereClass(({inner}))"


def _sphere_class(B) -> SphereClass:
    return B if isinstance(B, SphereClass) else SphereClass(tuple(B))


class _LinearFunctional(NamedTuple("_LinearFunctional", [("values", tuple)])):
    """Linear functional on sphere classes, given by its generator values."""

    __slots__ = ()

    def __new__(cls, values) -> "_LinearFunctional":
        return tuple.__new__(cls, (tuple(map(cls._coerce, values)),))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __call__(self, B: SphereClass) -> Fraction:
        B = _sphere_class(B)
        if len(B.coords) != len(self.values):
            raise ValueError("class rank does not match the functional")
        return sum((v * c for v, c in zip(self.values, B.coords)), Fraction(0))

    def __add__(self, other):
        # Returning NotImplemented would fall back to tuple concatenation or repetition.
        raise TypeError(f"{type(self).__name__} takes no + or *")

    __radd__ = __mul__ = __rmul__ = __add__
    __eq__, __ne__, __hash__ = SphereClass.__eq__, SphereClass.__ne__, tuple.__hash__


class OmegaFunctional(_LinearFunctional):
    """Area functional on sphere classes; values are rationals in units of pi."""

    __slots__ = ()
    _coerce = staticmethod(_frac)


class ChernFunctional(_LinearFunctional):
    """First Chern number, extended linearly over rational exponents."""

    __slots__ = ()
    _coerce = staticmethod(integer)


def valuation(x, omega: OmegaFunctional):
    """Largest area over the support of the element x, or -infinity when x = 0."""
    if x.is_zero():
        return NEG_INF
    return max(omega(B) for B in x.support_classes())


# ---------------------------------------------------------------------------
# Text form.
#
# An exponent prints as "c1*G1 + c2*G2" against a fixed generator list, with
# zero coordinates omitted and the zero class printing as "0".  Parsing
# accepts coordinates in any order and tolerates surrounding space.  Element
# text ("q * name * e^{...}" terms) is read by the same term scanner.
# ---------------------------------------------------------------------------


# The text has four tokens: an exponential "e^{...}" with no braces inside, a
# sign, "*", and a word (a coefficient or a name), with whitespace between
# them.  Inner whitespace stays in a word, so a model file's name may hold
# spaces.  A term is signs, then factors joined by "*"; its signs multiply
# into it, and every term after the first needs at least one.
_FACTOR = r"e\^\{[^{}]*\}|(?!e\^)[^\s{}*+-]+(?:\s+[^\s{}*+-]+)*"
_TERM = re.compile(rf"([\s+-]*)((?:{_FACTOR})(?:\s*\*\s*(?:{_FACTOR}))*)\s*")


def _terms(text: str) -> list:
    """(sign, factors, offset) for each term of ``text``, factors as strings.

    A factor is a word or a whole "e^{...}"; offset is where the term's first
    factor starts.  Text the grammar does not cover raises ParseError.
    """
    terms, pos = [], 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        if m is None:
            raise ParseError(f"expected a term at offset {pos}: {text[pos:]!r}")
        if terms and not m[1].strip():
            raise ParseError(f"expected '*', '+' or '-' at offset {pos}: {text[pos:]!r}")
        terms.append(((-1) ** m[1].count("-"), re.findall(_FACTOR, m[2]), m.start(2)))
        pos = m.end()
    return terms


def _parse_rational(text: str, context: str) -> Fraction:
    try:
        return rational(text)
    except ValueError as exc:
        raise ParseError(f"bad rational {text!r} in {context}") from exc


def format_exponent(B: SphereClass, generators: Sequence[str]) -> str:
    if len(generators) != B.rank:
        raise ValueError("generator list does not match class rank")
    parts = [
        f"{c}*{g}" for c, g in zip(B.coords, generators) if c != 0
    ]
    return " + ".join(parts) if parts else "0"


def parse_exponent(text: str, generators: Sequence[str]) -> SphereClass:
    text = text.strip()
    rank = len(generators)
    if text == "0":
        return SphereClass.zero(rank)
    index = {g: i for i, g in enumerate(generators)}
    coords = [Fraction(0)] * rank
    for sign, factors, offset in _terms(text):
        *coeffs, name = factors
        if len(coeffs) > 1:
            raise ParseError(f"too many factors in exponent term at offset {offset}")
        coeff = _parse_rational(coeffs[0], f"exponent at offset {offset}") if coeffs else 1
        if name not in index:
            raise ParseError(
                f"unknown generator {name!r} at offset {offset}; expected one of {list(generators)}"
            )
        coords[index[name]] += sign * coeff
    return SphereClass(tuple(coords))
