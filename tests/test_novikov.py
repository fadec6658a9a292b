"""Sphere classes, functionals, the ring on the fundamental class, valuations, and text."""

import random
from fractions import Fraction

import pytest

from qhofer import (
    NEG_INF,
    ChernFunctional,
    OmegaFunctional,
    ParseError,
    QHElement,
    SphereClass,
    format_exponent,
    lengths_blowup_loop,
    model_blowup_cp2,
    parse_exponent,
    psi,
    quantum_product,
    valuation,
)
from qhofer.novikov import _frac, rational
from helpers import random_fraction, random_qh, random_sphere_class

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


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda a2: S(1, a2), "coords"),
        (lambda a2: OmegaFunctional((a2, 1)), "values"),
        (lambda a2: lengths_blowup_loop(2, a2), "plus"),
        (lambda a2: psi(2, a2), "value"),
    ],
    ids=["SphereClass", "OmegaFunctional", "LoopLengths", "SeidelElement"],
)
def test_value_objects_are_immutable_and_compared_by_value(build, field):
    x, y = build("1/4"), build(Fraction(1, 4))
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert x != build(Fraction(1, 5))
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == y


class TestNovikovElement:
    """Novikov-ring elements as the engine holds them: elements on the fundamental class.

    On that class the quantum product is the group-ring product, e^B e^C = e^{B+C}.
    """

    M = model_blowup_cp2("1/4")
    ((FUND, _),) = M.unit().terms

    def exp(self, B, q=1):
        return QHElement({(self.FUND, B): q})

    def random_ring(self, rng):
        return QHElement(
            ((self.FUND, random_sphere_class(rng, 2)), random_fraction(rng))
            for _ in range(rng.randint(1, 3))
        )

    def product(self, x, y):
        return quantum_product(self.M, x, y)

    def test_addition_cancels(self):
        x = self.exp(S(1, 0))
        assert (x - x).is_zero()
        assert (x + -x).is_zero()

    def test_scalar_multiplication(self):
        x = self.exp(S(1, 0), 3)
        assert (Fraction(1, 3) * x).coefficient(self.FUND, S(1, 0)) == 1
        assert (0 * x).is_zero()

    def test_one_is_neutral(self):
        one = self.M.unit()
        rng = random.Random(7)
        for _ in range(20):
            x = self.random_ring(rng)
            assert self.product(one, x) == x

    def test_exponents_add_under_product(self):
        x = self.exp(S("1/2", "1/4"))
        y = self.exp(S("1/2", "1/4"), -3)
        assert self.product(x, y) == self.exp(S(1, "1/2"), -3)

    def test_difference_of_squares(self):
        one = self.M.unit()
        u = self.exp(S(1, -1))
        assert self.product(one + u, one - u) == one - self.exp(S(2, -2))

    def test_product_commutes_and_associates(self):
        rng = random.Random(11)
        for _ in range(60):
            x, y, z = (self.random_ring(rng) for _ in range(3))
            assert self.product(x, y) == self.product(y, x)
            assert self.product(self.product(x, y), z) == self.product(x, self.product(y, z))


class TestValuation:
    M = model_blowup_cp2("1/4")
    OMEGA = M.omega

    def test_zero_is_minus_infinity(self):
        assert valuation(QHElement(), self.OMEGA) == NEG_INF

    def test_single_term(self):
        x = QHElement({(3, S("1/2", "1/4")): 1})
        assert valuation(x, self.OMEGA) == Fraction(5, 16)

    def test_maximum_over_support(self):
        x = QHElement([((3, S(0, 0)), 1), ((1, S(-1, 0)), 5)])
        assert valuation(x, self.OMEGA) == 0

    def test_subadditive_with_equality_on_monomials(self):
        rng = random.Random(13)
        for _ in range(60):
            x, y = random_qh(rng, self.M), random_qh(rng, self.M)
            xy = quantum_product(self.M, x, y)
            if not xy.is_zero():
                assert valuation(xy, self.OMEGA) <= valuation(x, self.OMEGA) + valuation(
                    y, self.OMEGA
                )
        # Monomials on the fundamental class, index 3, multiply as e^B e^C = e^{B+C}.
        a = QHElement({(3, S(1, 2)): 5})
        b = QHElement({(3, S(-3, 1)): "1/2"})
        assert valuation(quantum_product(self.M, a, b), self.OMEGA) == valuation(
            a, self.OMEGA
        ) + valuation(b, self.OMEGA)


class TestTextFormat:
    def test_exponent_format(self):
        assert format_exponent(S("1/2", "3/4"), GENS) == "1/2*E + 3/4*F"
        assert format_exponent(S(0, -1), GENS) == "-1*F"
        assert format_exponent(S(0, 0), GENS) == "0"

    def test_exponent_format_needs_one_generator_per_coordinate(self):
        with pytest.raises(ValueError, match="^generator list does not match class rank$"):
            format_exponent(S(1, 2), ("E",))

    def test_exponent_parse_any_order(self):
        assert parse_exponent("3/4*F + 1/2*E", GENS) == S("1/2", "3/4")
        assert parse_exponent("F - 1/2*E", GENS) == S("-1/2", 1)
        assert parse_exponent("0", GENS) == S(0, 0)
        assert parse_exponent("E + E", GENS) == S(2, 0)
        assert parse_exponent("E - - F", GENS) == S(1, 1)

    @pytest.mark.parametrize(
        "bad",
        [
            "{1*E",            # unbalanced brace
            "1*G",             # unknown generator
            "2 * ",            # dangling factor
            "1/0*E",           # bad rational
            "2*3*E",           # two coefficients
            "E*F",             # two generators
            "+",               # dangling sign
            "e^{1*E}",         # exponential inside an exponent
            "1*E + 1*G",       # unknown generator in a later term
            "",                # empty
            " ",               # the same with a blank
            "1e3*E",           # exponent notation
            "1e999999999*E",   # the same, too large to build
            "2 E",             # missing "*"
            "{E}",             # braces
            "2 * * E",         # empty factor
            "2*-E",            # sign inside a term
            "1*E}",            # unbalanced closing brace
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_exponent(bad, GENS)

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
