"""Exponents, areas and the term scanner of quantum-homology elements.

The coefficient ring is the rational group ring of a lattice of sphere
classes: finite sums  sum_B q_B * e^B  with rational q_B, where the exponents
B live in a fixed finite-rank rational vector space, multiplied by
convolution, e^B * e^C = e^{B+C}.  Its elements are handled as module
elements on the fundamental class (``quantum_homology.QHElement``).  An
exponent is a plain tuple of Fractions, one coordinate per sphere generator,
so len(B) is the rank; this module reads exponents given from outside, and
holds their text form and the pairing of an exponent with generator values.
Paired with the area of each generator, it gives the leading-order filtration

    v(sum q_B e^B) = max { area(B) : q_B != 0 },        v(0) = -infinity,

and every length bound produced downstream is read off from v.  Areas are
kept as exact rationals in units of pi, so comparisons never touch floating
point.  Degrees pair an exponent with the first Chern number of each
generator the same way.

Every other module imports this one, so it also holds what they share: the
rational readers and the two error bases, ``ParseError`` and ``CheckError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

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


def _exponent(B, what="an exponent") -> tuple:
    """An exponent read from outside the package: a list or tuple of rationals,
    returned as a tuple of Fractions.  Text, bytes, numbers, sets and iterators
    raise TypeError naming ``what``, so "12" is never read as the exponent (1, 2)."""
    if not isinstance(B, (list, tuple)):
        raise TypeError(f"{what} is a list or tuple of rationals, not {type(B).__name__}")
    return tuple(map(_frac, B))


def _pair(values: tuple, B) -> Fraction:
    """The linear form with generator values ``values`` (areas or Chern
    numbers) at the exponent B; ValueError when the ranks differ."""
    B = _exponent(B)
    if len(B) != len(values):
        raise ValueError(f"rank mismatch: {len(B)} vs {len(values)}")
    return sum(map(mul, values, B), Fraction(0))


def valuation(x, omega):
    """Largest area over the support of the element x, or -infinity when x = 0.

    ``omega`` lists the area of each sphere generator, as ``model.omega`` does.
    """
    omega = _exponent(omega, "omega")
    if x.is_zero():
        return NEG_INF
    return max(_pair(omega, B) for B in x.support_classes())


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
# spaces; each name of a model must be one word.  A term is signs, then
# factors joined by "*"; its signs multiply into it, and every term after the
# first needs at least one.
_WORD = r"(?!e\^)[^\s{}*+-]+(?:\s+[^\s{}*+-]+)*"
_FACTOR = r"e\^\{[^{}]*\}|" + _WORD
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


def format_exponent(B: tuple, generators: Sequence[str]) -> str:
    B = _exponent(B)
    if len(generators) != len(B):
        raise ValueError("generator list does not match class rank")
    parts = [f"{c}*{g}" for c, g in zip(B, generators) if c != 0]
    return " + ".join(parts) if parts else "0"


def parse_exponent(text: str, generators: Sequence[str]) -> tuple:
    text = text.strip()
    coords = [Fraction(0)] * len(generators)
    if text == "0":
        return tuple(coords)
    index = {g: i for i, g in enumerate(generators)}
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
    return tuple(coords)
