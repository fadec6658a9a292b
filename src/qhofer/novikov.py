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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

RationalLike = Union[int, str, Fraction]

#: Valuation of the zero element.
NEG_INF = float("-inf")


class ParseError(ValueError):
    """Raised when a serialized element or exponent cannot be read back."""


def _frac(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, (int, str)):
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
    """v as an int; a non-integral value raises instead of being truncated."""
    q = Fraction(v)
    if q.denominator != 1:
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


TermsLike = Union[
    Mapping[SphereClass, RationalLike],
    Iterable[tuple],
]


class NovikovElement:
    """Finite rational combination of exponentials e^B, held in canonical form.

    The internal map never stores a zero coefficient, so equality of elements
    is equality of dictionaries.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _accumulate((_sphere_class(B), _frac(q)) for B, q in items)

    @classmethod
    def exp(cls, B: SphereClass, coefficient: RationalLike = 1) -> "NovikovElement":
        return cls(((B, coefficient),))

    @classmethod
    def one(cls, rank: int) -> "NovikovElement":
        return cls.exp(SphereClass.zero(rank))

    @property
    def terms(self) -> dict:
        """Copy of the coefficient map keyed by exponent class."""
        return dict(self._terms)

    def support_classes(self) -> Iterator[SphereClass]:
        return iter(self._terms)

    def coefficient(self, B: SphereClass) -> Fraction:
        return self._terms.get(B, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        if not isinstance(other, NovikovElement):
            return NotImplemented
        out = NovikovElement()
        out._terms = _accumulate(other._terms.items(), self._terms)
        return out

    def __neg__(self) -> "NovikovElement":
        out = NovikovElement()
        out._terms = {B: -q for B, q in self._terms.items()}
        return out

    def __sub__(self, other: "NovikovElement") -> "NovikovElement":
        if not isinstance(other, NovikovElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "NovikovElement":
        if isinstance(other, NovikovElement):
            return nov_mul(self, other)
        try:
            q = _frac(other)
        except TypeError:
            return NotImplemented
        out = NovikovElement()
        if q != 0:
            out._terms = {B: q * c for B, c in self._terms.items()}
        return out

    def __rmul__(self, other) -> "NovikovElement":
        return self.__mul__(other)

    def __repr__(self) -> str:
        if self.is_zero():
            return "NovikovElement(0)"
        n = len(self._terms)
        return f"NovikovElement({n} term{'s' if n != 1 else ''})"


def nov_mul(x: NovikovElement, y: NovikovElement) -> NovikovElement:
    """Convolution product; exponents add, coefficients multiply."""
    out = NovikovElement()
    out._terms = _accumulate(
        (B + C, q * r) for B, q in x._terms.items() for C, r in y._terms.items()
    )
    return out


def valuation(x, omega: OmegaFunctional):
    """Largest area over the support of x, or -infinity when x = 0.

    Works for any element exposing ``support_classes`` and ``is_zero``, so the
    same function serves ring elements and module elements downstream.
    """
    if x.is_zero():
        return NEG_INF
    return max(omega(B) for B in x.support_classes())


def truncate_below(x: NovikovElement, omega: OmegaFunctional, floor) -> NovikovElement:
    """Drop every term whose area is strictly below ``floor``."""
    out = NovikovElement()
    out._terms = {B: q for B, q in x._terms.items() if omega(B) >= floor}
    return out


# ---------------------------------------------------------------------------
# Text form.
#
# An exponent prints as "c1*G1 + c2*G2" against a fixed generator list, with
# zero coordinates omitted and the zero class printing as "0".  An element
# prints as "q * e^{...}" terms joined by " + ", the zero element as "0".
# Parsing accepts coordinates in any order and tolerates surrounding space.
# ---------------------------------------------------------------------------


def _signed_chunks(text: str) -> list:
    """Split on top-level + and - (outside braces) into (sign, chunk, offset)."""
    chunks = []
    current: list = []
    sign = 1
    start = 0
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced braces at offset {pos}")
        if depth == 0 and ch in "+-":
            if not "".join(current).strip():
                # Sign prefix of the upcoming chunk, not a separator.
                if ch == "-":
                    sign = -sign
                continue
            chunks.append((sign, "".join(current).strip(), start))
            current = []
            sign = -1 if ch == "-" else 1
            start = pos + 1
            continue
        current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced braces")
    tail = "".join(current).strip()
    if not tail:
        raise ParseError("dangling sign or empty term")
    chunks.append((sign, tail, start))
    return chunks


def _split_factors(chunk: str) -> list:
    """Split a term on top-level '*' into stripped factor strings."""
    factors = []
    current: list = []
    depth = 0
    for ch in chunk:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and ch == "*":
            factors.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    factors.append("".join(current).strip())
    if any(not f for f in factors):
        raise ParseError(f"empty factor in term {chunk!r}")
    return factors


def _parse_rational(text: str, context: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
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
    if text in ("", "0"):
        return SphereClass.zero(rank)
    index = {g: i for i, g in enumerate(generators)}
    coords = [Fraction(0)] * rank
    for sign, chunk, offset in _signed_chunks(text):
        factors = _split_factors(chunk)
        if len(factors) == 1:
            coeff, name = Fraction(1), factors[0]
        elif len(factors) == 2:
            coeff, name = _parse_rational(factors[0], f"exponent at offset {offset}"), factors[1]
        else:
            raise ParseError(f"too many factors in exponent term {chunk!r}")
        if name not in index:
            raise ParseError(
                f"unknown generator {name!r} at offset {offset}; expected one of {list(generators)}"
            )
        coords[index[name]] += sign * coeff
    return SphereClass(tuple(coords))


def format_novikov(x: NovikovElement, generators: Sequence[str]) -> str:
    if x.is_zero():
        return "0"
    items = sorted(x._terms.items(), key=lambda kv: kv[0].coords)
    return " + ".join(
        f"{q} * e^{{{format_exponent(B, generators)}}}" for B, q in items
    )


def _parse_exp_factor(factor: str, generators: Sequence[str]):
    """Return the SphereClass for an 'e^{...}' factor, or None otherwise."""
    if not factor.startswith("e^{"):
        return None
    if not factor.endswith("}"):
        raise ParseError(f"malformed exponential {factor!r}")
    return parse_exponent(factor[3:-1], generators)


def parse_novikov(text: str, generators: Sequence[str]) -> NovikovElement:
    text = text.strip()
    if text == "0":
        return NovikovElement()
    terms = []
    for sign, chunk, offset in _signed_chunks(text):
        factors = _split_factors(chunk)
        exponents = [f for f in factors if f.startswith("e^")]
        plain = [f for f in factors if not f.startswith("e^")]
        if len(exponents) != 1:
            raise ParseError(
                f"term at offset {offset} needs exactly one exponential factor: {chunk!r}"
            )
        B = _parse_exp_factor(exponents[0], generators)
        if len(plain) == 0:
            coeff = Fraction(1)
        elif len(plain) == 1:
            coeff = _parse_rational(plain[0], f"term at offset {offset}")
        else:
            raise ParseError(f"too many coefficients in term {chunk!r}")
        terms.append((B, sign * coeff))
    return NovikovElement(terms)
