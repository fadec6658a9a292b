"""Exact arithmetic in the rational group ring of a lattice of sphere classes.

Elements are finite sums  sum_B q_B * e^B  with rational coefficients q_B,
where the exponents B live in a fixed finite-rank rational vector space (the
group generated by the sphere classes of interest).  Multiplication is
convolution, e^B * e^C = e^{B+C}.  A linear area functional on exponents
induces the leading-order filtration

    v(sum q_B e^B) = max { area(B) : q_B != 0 },        v(0) = -infinity,

and every length bound produced downstream is read off from v.  Area values
are kept as exact rationals in units of pi, so comparisons never touch
floating point.  Degrees enter through a second linear functional recording
the first Chern number of each generator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

RationalLike = Union[int, str, Fraction]

#: Valuation of the zero element.
NEG_INF = float("-inf")


class ParseError(ValueError):
    """Raised when a serialized element or exponent cannot be read back."""


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


def _integer(v) -> int:
    """v as an int; a bool or a non-integral value raises instead of being truncated."""
    q = rational(v) if isinstance(v, str) else Fraction(v)
    if q.denominator != 1 or isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    return q.numerator


@dataclass(frozen=True)
class SphereClass:
    """Exact rational coordinate vector in a fixed basis of sphere classes."""

    coords: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(_frac(c) for c in self.coords))

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

    def _check_rank(self, other: "SphereClass") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"rank mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coords)
        return f"SphereClass(({inner}))"


def _sphere_class(B) -> SphereClass:
    return B if isinstance(B, SphereClass) else SphereClass(tuple(B))


@dataclass(frozen=True)
class _LinearFunctional:
    """Linear functional on sphere classes, given by its generator values."""

    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(self._coerce, self.values)))

    def __call__(self, B: SphereClass) -> Fraction:
        if len(B.coords) != len(self.values):
            raise ValueError("class rank does not match the functional")
        return sum((v * c for v, c in zip(self.values, B.coords)), Fraction(0))


class OmegaFunctional(_LinearFunctional):
    """Area functional on sphere classes; values are rationals in units of pi."""

    _coerce = staticmethod(_frac)


class ChernFunctional(_LinearFunctional):
    """First Chern number, extended linearly over rational exponents."""

    _coerce = staticmethod(_integer)


TermsLike = Union[Mapping, Iterable[tuple]]


class _SparseElement:
    """Finite sum of keyed exponentials with rational coefficients, canonical form.

    The shared core of ring and module elements.  The internal map never
    stores a zero coefficient, so equality of elements is equality of
    dictionaries.  A subclass says how a key is normalised (``_key``), where
    the exponent class sits in a key (``_exponent``), and what the product of
    two of its elements is (``_product``).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        key = self._key
        self._terms = _accumulate((key(k), _frac(q)) for k, q in items)

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a canonical map (no zero coefficients) without copying it."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @property
    def terms(self) -> dict:
        """Copy of the coefficient map."""
        return dict(self._terms)

    def support_classes(self) -> Iterator[SphereClass]:
        return map(self._exponent, self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._of(_accumulate(other._terms.items(), self._terms))

    def __neg__(self):
        return self._of({key: -q for key, q in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        try:
            q = _frac(other)
        except TypeError:
            return NotImplemented
        return self._of({key: q * c for key, c in self._terms.items()} if q else {})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self) -> str:
        name = type(self).__name__
        if self.is_zero():
            return f"{name}(0)"
        n = len(self._terms)
        return f"{name}({n} term{'s' if n != 1 else ''})"


class NovikovElement(_SparseElement):
    """Finite rational combination of exponentials e^B, keyed by the class B."""

    __slots__ = ()

    _key = staticmethod(_sphere_class)

    @staticmethod
    def _exponent(B: SphereClass) -> SphereClass:
        return B

    def _product(self, other: "NovikovElement") -> "NovikovElement":
        return nov_mul(self, other)

    @classmethod
    def exp(cls, B: SphereClass, coefficient: RationalLike = 1) -> "NovikovElement":
        return cls(((B, coefficient),))

    @classmethod
    def one(cls, rank: int) -> "NovikovElement":
        return cls.exp(SphereClass.zero(rank))

    def coefficient(self, B: SphereClass) -> Fraction:
        return self._terms.get(B, Fraction(0))


def nov_mul(x: NovikovElement, y: NovikovElement) -> NovikovElement:
    """Convolution product; exponents add, coefficients multiply."""
    return NovikovElement._of(
        _accumulate(
            (B + C, q * r) for B, q in x._terms.items() for C, r in y._terms.items()
        )
    )


def valuation(x, omega: OmegaFunctional):
    """Largest area over the support of x, or -infinity when x = 0.

    Works for any element exposing ``support_classes`` and ``is_zero``, so the
    same function serves ring elements and module elements downstream.
    """
    if x.is_zero():
        return NEG_INF
    return max(omega(B) for B in x.support_classes())


def truncate_below(x, omega: OmegaFunctional, floor):
    """Drop every term whose area is strictly below ``floor``; ring or module."""
    exponent = x._exponent
    return x._of({key: q for key, q in x._terms.items() if omega(exponent(key)) >= floor})


# ---------------------------------------------------------------------------
# Text form.
#
# An exponent prints as "c1*G1 + c2*G2" against a fixed generator list, with
# zero coordinates omitted and the zero class printing as "0".  A ring element
# prints as "q * e^{...}" terms joined by " + ", the zero element as "0"; a
# module element as "q * name * e^{...}" terms, through the same grammar.
# Parsing accepts coordinates in any order and tolerates surrounding space.
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


def _format_terms(x: _SparseElement, generators: Sequence[str], names=None) -> str:
    """Text of a ring element, or of a module element when ``names`` is given.

    A ring term prints as "q * e^{B}"; a module term as "q * name * e^{B}",
    with the exponential left out when B = 0.  Terms are sorted by basis
    index, then by exponent coordinates.
    """
    if x.is_zero():
        return "0"
    rows = []
    for key, q in x._terms.items():
        i, B = (0, key) if names is None else key
        factors = [str(q)] if names is None else [str(q), names[i]]
        if names is None or not B.is_zero():
            factors.append(f"e^{{{format_exponent(B, generators)}}}")
        rows.append(((i, B.coords), " * ".join(factors)))
    return " + ".join(text for _, text in sorted(rows))


def format_novikov(x: NovikovElement, generators: Sequence[str]) -> str:
    return _format_terms(x, generators)


def _parse_terms(text: str, generators: Sequence[str], names=None) -> list:
    """(key, coefficient) pairs read from element text; "0" reads as none.

    Ring terms (``names`` None) are "[q *] e^{B}", keyed by B.  Module terms
    are "[q *] name [* e^{B}]", keyed by (index of name in ``names``, B), with
    B = 0 when the exponential is left out.  Factors may come in any order,
    except that a module term's coefficient precedes its basis name.
    """
    text = text.strip()
    if text == "0":
        return []
    index = None if names is None else {n: i for i, n in enumerate(names)}
    zero = SphereClass.zero(len(generators))
    terms = []
    for sign, factors, offset in _terms(text):
        term = " * ".join(factors)
        exponents = [f[3:-1] for f in factors if f.startswith("e^")]
        plain = [f for f in factors if not f.startswith("e^")]
        if len(exponents) > 1 or (index is None and not exponents):
            need = "exactly one" if index is None else "at most one"
            raise ParseError(f"term at offset {offset} needs {need} exponential factor: {term!r}")
        B = parse_exponent(exponents[0], generators) if exponents else zero
        key = B
        if index is not None:
            # The last plain factor names the basis class; "1" is the unit.
            if not plain:
                raise ParseError(f"term at offset {offset} needs a basis class: {term!r}")
            name = plain.pop()
            if name not in index:
                raise ParseError(
                    f"unknown basis class {name!r} at offset {offset}; "
                    f"expected one of {list(names)}"
                )
            key = (index[name], B)
        if len(plain) > 1:
            raise ParseError(f"too many coefficients in term {term!r}")
        coeff = _parse_rational(plain[0], f"term at offset {offset}") if plain else Fraction(1)
        terms.append((key, sign * coeff))
    return terms


def parse_novikov(text: str, generators: Sequence[str]) -> NovikovElement:
    return NovikovElement(_parse_terms(text, generators))
