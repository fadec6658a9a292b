"""Property tests of the shared element core, the one term grammar and invert.

Runs derandomized, so the suite stays deterministic; the seeded random suites
in the other modules are kept alongside.
"""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qhofer import (  # noqa: E402
    NotInvertibleError,
    NovikovElement,
    ParseError,
    QHElement,
    SphereClass,
    format_novikov,
    invert,
    model_blowup_cp2,
    model_cpn,
    nov_mul,
    parse_novikov,
    quantum_product,
    valuation,
)
from qhofer.cli import main  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

MODELS = {"blowup": model_blowup_cp2("1/10"), "cp3": model_cpn(3)}

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))
coordinates = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4)))


def sphere_classes(rank):
    return st.tuples(*[coordinates] * rank).map(SphereClass)


def novikov_elements(rank=2):
    return st.lists(st.tuples(sphere_classes(rank), coefficients), max_size=4).map(
        NovikovElement
    )


def qh_elements(model):
    key = st.tuples(st.integers(0, len(model.basis) - 1), sphere_classes(model.rank))
    return st.lists(st.tuples(key, coefficients), max_size=4).map(QHElement)


# Element text built from grammar tokens, well-formed or not.  Tokens are
# joined by spaces, so no digit run can meet an "e" or "E" and be read by
# Fraction as a decimal exponent.
TOKENS = (
    "p", "E", "F", "1", "x", "G", "0", "2", "1/2", "-1/3", "1/0", "*", "+", "-",
    "{", "}", "e^", "e^{", "e^2", "e^{0}", "e^{1*E}", "e^{1/2*E + 1/4*F}",
    "e^{-1*L}", "e^{1*G}", "e^{1/0*E}", "2*p", "E - F", "p * e^2",
)
element_texts = st.lists(st.sampled_from(TOKENS), max_size=8).map(" ".join)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_novikov(self, name):
        generators = MODELS[name].sphere_generators

        @SETTINGS
        @given(novikov_elements(len(generators)))
        def check(x):
            assert parse_novikov(format_novikov(x, generators), generators) == x

        check()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_qh(self, name):
        model = MODELS[name]

        @SETTINGS
        @given(qh_elements(model))
        def check(x):
            assert model.element(model.format(x)) == x

        check()


class TestRingAxioms:
    @SETTINGS
    @given(novikov_elements(), novikov_elements(), novikov_elements())
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @SETTINGS
    @given(novikov_elements(), novikov_elements())
    def test_commutative(self, x, y):
        assert x * y == y * x == nov_mul(x, y)

    @SETTINGS
    @given(novikov_elements(), novikov_elements(), novikov_elements())
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert x * (y - z) == x * y - x * z

    @SETTINGS
    @given(novikov_elements())
    def test_unit_and_negation(self, x):
        assert NovikovElement.one(2) * x == x
        assert (x + -x).is_zero() and x + -x == NovikovElement()

    @SETTINGS
    @given(novikov_elements(), coefficients)
    def test_scalars(self, x, q):
        assert q * x == x * q == NovikovElement.exp(SphereClass.zero(2), q) * x


# Models for the inverse: areas of integral exponents are multiples of 1/2 or
# of 1, so the series reaches a floor of -12 in a few dozen steps.
INVERT_MODELS = {"blowup 1/2": model_blowup_cp2("1/2"), "cp2": model_cpn(2)}


def small_units(model):
    """c * 1 plus up to two terms with integral exponents in [-1, 1]."""
    (unit_key,) = model.unit().terms
    exponents = st.tuples(*[st.integers(-1, 1)] * model.rank).map(SphereClass)
    key = st.tuples(st.integers(0, len(model.basis) - 1), exponents)
    rest = st.lists(st.tuples(key, coefficients), max_size=2)
    return st.builds(
        lambda c, terms: QHElement([(unit_key, c), *terms]), coefficients.filter(bool), rest
    )


class TestInvert:
    @pytest.mark.parametrize("name", sorted(INVERT_MODELS))
    def test_residual_below_floor(self, name):
        model = INVERT_MODELS[name]
        (unit_key,) = model.unit().terms

        @settings(SETTINGS, max_examples=30)
        @given(small_units(model), st.integers(-12, -2))
        def check(x, floor):
            assume(x.terms.get(unit_key, 0) != 0)
            try:
                z = invert(model, x, floor)
            except NotInvertibleError:
                assume(False)
            residual = quantum_product(model, x, z) - model.unit()
            bound = floor + valuation(x, model.omega)
            assert all(model.omega(B) < bound for (_, B) in residual.terms)

        check()


class TestFuzzedText:
    @SETTINGS
    @given(element_texts)
    def test_parsers_raise_only_parse_errors(self, text):
        model = MODELS["blowup"]
        for parse in (model.element, lambda t: parse_novikov(t, model.sphere_generators)):
            try:
                parse(text)
            except ParseError:
                pass

    @settings(SETTINGS, max_examples=50)
    @given(element_texts)
    def test_cli_product_exits_cleanly(self, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["product", "--a2", "1/10", "--", text, "p"])
        assert code in (0, 1)
        assert bool(out.getvalue()) == (code == 0)
        assert bool(err.getvalue()) == (code == 1)
