"""Exact group-ring arithmetic, valuations, and the text grammar."""

import random
from fractions import Fraction

import pytest

from qhofer import (
    NEG_INF,
    ChernFunctional,
    NovikovElement,
    OmegaFunctional,
    ParseError,
    QHElement,
    SphereClass,
    format_exponent,
    format_novikov,
    model_blowup_cp2,
    nov_mul,
    parse_exponent,
    parse_novikov,
    truncate_below,
    valuation,
)
from qhofer.novikov import _frac, rational
from helpers import random_novikov

GENS = ("E", "F")


def S(*coords) -> SphereClass:
    return SphereClass(tuple(coords))


class TestSphereClass:
    def test_coercion_to_fraction(self):
        b = S("1/2", 3)
        assert b.coords == (Fraction(1, 2), Fraction(3))
        assert all(isinstance(c, Fraction) for c in b.coords)

    def test_bools_are_not_rationals(self):
        # bool is an int subclass; true in a model file must not read as 1.
        for value in (True, False):
            with pytest.raises(TypeError):
                _frac(value)
        assert _frac(1) == 1 and _frac("1") == 1

    def test_vector_operations(self):
        a, b = S(1, 2), S("1/2", -1)
        assert a + b == S("3/2", 1)
        assert a - b == S("1/2", 3)
        assert -a == S(-1, -2)
        assert Fraction(1, 3) * a == S("1/3", "2/3")
        assert 2 * b == S(1, -2)

    def test_zero_and_rank(self):
        z = SphereClass.zero(2)
        assert z.is_zero() and z.rank == 2
        assert not S(0, 1).is_zero()

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            S(1, 2) + S(1, 2, 3)

    def test_hashable_by_value(self):
        assert S(1, "1/2") == S("1", Fraction(1, 2))
        assert {S(1, 0): "a"}[S(1, 0)] == "a"


class TestFunctionals:
    def test_omega_evaluates_linearly(self):
        omega = OmegaFunctional((Fraction(1, 4), Fraction(3, 4)))
        assert omega(S(1, 0)) == Fraction(1, 4)
        assert omega(S(0, 1)) == Fraction(3, 4)
        assert omega(S("1/2", "1/4")) == Fraction(5, 16)
        assert omega(S(0, 0)) == 0

    def test_chern_evaluates_linearly(self):
        c1 = ChernFunctional((1, 2))
        assert c1(S(1, 0)) == 1
        assert c1(S(0, 1)) == 2
        # The rotation shift direction F - 2E has vanishing Chern number.
        assert c1(S(-2, 1)) == 0

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            OmegaFunctional((1,))(S(1, 2))


class TestNovikovElement:
    def test_canonical_form_drops_zeros(self):
        x = NovikovElement([(S(1, 0), 2), (S(1, 0), -2), (S(0, 1), "1/2")])
        assert x.terms == {S(0, 1): Fraction(1, 2)}

    def test_zero_element(self):
        assert NovikovElement().is_zero()
        assert NovikovElement([(S(1, 0), 0)]).is_zero()
        assert len(NovikovElement()) == 0

    def test_addition_cancels(self):
        x = NovikovElement.exp(S(1, 0))
        assert (x - x).is_zero()
        assert (x + -x).is_zero()

    def test_scalar_multiplication(self):
        x = NovikovElement.exp(S(1, 0), 3)
        assert (Fraction(1, 3) * x).coefficient(S(1, 0)) == 1
        assert (0 * x).is_zero()

    def test_one_is_neutral(self):
        one = NovikovElement.one(2)
        rng = random.Random(7)
        for _ in range(20):
            x = random_novikov(rng, 2)
            assert nov_mul(one, x) == x

    def test_exponents_add_under_product(self):
        x = NovikovElement.exp(S("1/2", "1/4"))
        y = NovikovElement.exp(S("1/2", "1/4"), -3)
        xy = nov_mul(x, y)
        assert xy == NovikovElement.exp(S(1, "1/2"), -3)

    def test_difference_of_squares(self):
        one = NovikovElement.one(2)
        u = NovikovElement.exp(S(1, -1))
        lhs = nov_mul(one + u, one - u)
        assert lhs == one - NovikovElement.exp(S(2, -2))

    def test_product_commutes_and_associates(self):
        rng = random.Random(11)
        for _ in range(60):
            x, y, z = (random_novikov(rng, 2) for _ in range(3))
            assert nov_mul(x, y) == nov_mul(y, x)
            assert nov_mul(nov_mul(x, y), z) == nov_mul(x, nov_mul(y, z))

    def test_equality_and_hash(self):
        x = NovikovElement([(S(1, 0), 1), (S(0, 1), 2)])
        y = NovikovElement([(S(0, 1), 2), (S(1, 0), 1)])
        assert x == y and hash(x) == hash(y)


class TestValuation:
    OMEGA = OmegaFunctional((Fraction(1, 4), Fraction(3, 4)))

    def test_zero_is_minus_infinity(self):
        assert valuation(NovikovElement(), self.OMEGA) == NEG_INF

    def test_single_term(self):
        x = NovikovElement.exp(S("1/2", "1/4"))
        assert valuation(x, self.OMEGA) == Fraction(5, 16)

    def test_maximum_over_support(self):
        x = NovikovElement([(S(0, 0), 1), (S(-1, 0), 5)])
        assert valuation(x, self.OMEGA) == 0

    def test_subadditive_with_equality_on_monomials(self):
        rng = random.Random(13)
        for _ in range(60):
            x, y = random_novikov(rng, 2), random_novikov(rng, 2)
            xy = nov_mul(x, y)
            if not xy.is_zero():
                assert valuation(xy, self.OMEGA) <= valuation(x, self.OMEGA) + valuation(
                    y, self.OMEGA
                )
        a = NovikovElement.exp(S(1, 2), 5)
        b = NovikovElement.exp(S(-3, 1), "1/2")
        assert valuation(nov_mul(a, b), self.OMEGA) == valuation(a, self.OMEGA) + valuation(
            b, self.OMEGA
        )

    def test_truncate_below(self):
        x = NovikovElement([(S(0, 0), 1), (S(-4, -4), 1), (S(1, 0), 1)])
        cut = truncate_below(x, self.OMEGA, Fraction(0))
        assert cut.terms == {S(0, 0): Fraction(1), S(1, 0): Fraction(1)}


class TestTextFormat:
    def test_exponent_format(self):
        assert format_exponent(S("1/2", "3/4"), GENS) == "1/2*E + 3/4*F"
        assert format_exponent(S(0, -1), GENS) == "-1*F"
        assert format_exponent(S(0, 0), GENS) == "0"

    def test_exponent_parse_any_order(self):
        assert parse_exponent("3/4*F + 1/2*E", GENS) == S("1/2", "3/4")
        assert parse_exponent("F - 1/2*E", GENS) == S("-1/2", 1)
        assert parse_exponent("0", GENS) == S(0, 0)
        assert parse_exponent("E + E", GENS) == S(2, 0)
        assert parse_exponent("E - - F", GENS) == S(1, 1)

    def test_element_format(self):
        x = NovikovElement.exp(S("1/2", "3/4"), -1)
        assert format_novikov(x, GENS) == "-1 * e^{1/2*E + 3/4*F}"
        assert format_novikov(NovikovElement(), GENS) == "0"
        one = NovikovElement.one(2)
        assert format_novikov(one, GENS) == "1 * e^{0}"

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(200):
            x = random_novikov(rng, 2, max_terms=4)
            assert parse_novikov(format_novikov(x, GENS), GENS) == x

    def test_parse_signs_and_spacing(self):
        x = parse_novikov(" -1 * e^{1*E}  +  e^{ -1*F } ", GENS)
        assert x == NovikovElement([(S(1, 0), -1), (S(0, -1), 1)])
        # Signs before a term multiply into it.
        assert parse_novikov("e^{0} - - e^{1*E}", GENS) == parse_novikov("e^{0} + e^{1*E}", GENS)
        assert parse_novikov("- - e^{0}", GENS) == parse_novikov("e^{0}", GENS)

    def test_parse_zero(self):
        assert parse_novikov("0", GENS).is_zero()

    @pytest.mark.parametrize(
        "bad",
        [
            "e^{1*E",          # unbalanced brace
            "e^{1*G}",         # unknown generator
            "2 * ",            # dangling factor
            "1/0 * e^{0}",     # bad rational
            "2 * 3 * e^{0}",   # two coefficients
            "e^{0} * e^{0}",   # two exponentials
            "+",               # dangling sign
            "e^2",             # exponential without braces
            "3 * e^{0} + e^F", # the same in a later term
            "e^{}",            # empty exponential
            "e^{ }",           # the same with a blank
            "1e3 * e^{0}",     # exponent notation
            "e^{1e999999999*E}",  # the same in an exponent
            "2 e^{0}",         # missing "*"
            "{e^{0}}",         # brace outside an exponential
            "2 * * e^{0}",     # empty factor
            "2*-e^{0}",        # sign inside a term
            "e^{1*E}}",        # unbalanced closing brace
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_novikov(bad, GENS)

    @pytest.mark.parametrize(
        "text, value",
        [("3", 3), (" -3/4 ", Fraction(-3, 4)), ("+0.25", Fraction(1, 4)), (".5", Fraction(1, 2)),
         ("2.", 2), ("007/14", Fraction(1, 2))],
    )
    def test_rational_accepts(self, text, value):
        assert rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1e3", "1E-2", "1e999999999", "inf", "nan", "1/0", "1_000", "", "1/-2", "1.5/2", "- 1", "0x10"],
    )
    def test_rational_rejects(self, text):
        with pytest.raises(ValueError):
            rational(text)


class TestSharedCore:
    """Ring and module elements run on one sparse core but never mix."""

    def test_ring_and_module_elements_differ(self):
        m = model_blowup_cp2("1/4")
        one, unit = NovikovElement.one(2), m.unit()
        assert one != unit and not (one == unit) and not (unit == one)
        with pytest.raises(TypeError):
            one + unit
        with pytest.raises(TypeError):
            unit * one

    def test_same_arithmetic_on_both(self):
        m = model_blowup_cp2("1/4")
        for x in (NovikovElement([(S(1, 0), 2), (S(0, 1), -1)]), m.element("2 * p - E")):
            assert (x - x).is_zero() and len(x) == 2
            assert 3 * x == x * 3 == x + x + x
            assert -x == (-1) * x and (0 * x).is_zero()
            assert x.terms == (x + type(x)()).terms and x.terms is not x.terms

    def test_repr_names_the_type(self):
        assert repr(NovikovElement()) == "NovikovElement(0)"
        assert repr(NovikovElement.one(1)) == "NovikovElement(1 term)"
        assert repr(QHElement([((0, (0,)), 1), ((1, (0,)), 1)])) == "QHElement(2 terms)"
