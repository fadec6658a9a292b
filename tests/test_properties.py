"""Property tests of the element type, the term grammar, the product, invert
and the max-plus valuations.

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
    ParseError,
    QHElement,
    invert,
    model_blowup_cp2,
    model_cpn,
    quantum_product,
    valuation,
    valuation_walk,
)
from qhofer.cli import main  # noqa: E402
from qhofer.quantum_homology import _MaxPlus  # noqa: E402
from helpers import NINE_A2, ring_product  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

MODELS = {"blowup": model_blowup_cp2("1/10"), "cp3": model_cpn(3)}

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))
coordinates = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4)))


def sphere_classes(rank):
    return st.tuples(*[coordinates] * rank)


def ring_elements(rank):
    """{exponent: Fraction} dicts with no zero coefficient."""
    return st.dictionaries(sphere_classes(rank), coefficients.filter(bool), max_size=4)


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
    def test_qh(self, name):
        model = MODELS[name]

        @SETTINGS
        @given(qh_elements(model))
        def check(x):
            assert model.element(model.format(x)) == x

        check()


class TestRingAxioms:
    MODEL = MODELS["blowup"]

    def product(self, x, y):
        return quantum_product(self.MODEL, x, y)

    @SETTINGS
    @given(qh_elements(MODEL), qh_elements(MODEL), qh_elements(MODEL))
    def test_associative(self, x, y, z):
        assert self.product(self.product(x, y), z) == self.product(x, self.product(y, z))

    @SETTINGS
    @given(qh_elements(MODEL), qh_elements(MODEL))
    def test_commutative(self, x, y):
        assert self.product(x, y) == self.product(y, x)

    @SETTINGS
    @given(qh_elements(MODEL), qh_elements(MODEL), qh_elements(MODEL))
    def test_distributive(self, x, y, z):
        assert self.product(x, y + z) == self.product(x, y) + self.product(x, z)
        assert self.product(x, y - z) == self.product(x, y) - self.product(x, z)

    @SETTINGS
    @given(qh_elements(MODEL))
    def test_unit_and_negation(self, x):
        assert self.product(self.MODEL.unit(), x) == x
        assert (x + -x).is_zero() and x + -x == QHElement()

    @SETTINGS
    @given(qh_elements(MODEL), coefficients)
    def test_scalars(self, x, q):
        assert q * x == x * q == self.product(q * self.MODEL.unit(), x)


RING_MODELS = {"blowup": MODELS["blowup"], **{f"cp{n}": model_cpn(n) for n in (1, 2, 3)}}


class TestRingIdentity:
    """On the fundamental class the quantum product is the group-ring convolution.

    Inversion multiplies ring elements this way, as module elements on the unit.
    """

    @pytest.mark.parametrize("name", sorted(RING_MODELS))
    def test_product_is_convolution(self, name):
        model = RING_MODELS[name]
        ((u, _),) = model.unit().terms

        def lift(a):
            return QHElement({(u, B): q for B, q in a.items()})

        @SETTINGS
        @given(ring_elements(model.rank), ring_elements(model.rank))
        def check(a, b):
            assert quantum_product(model, lift(a), lift(b)) == lift(ring_product(a, b))

        check()


# Models for the inverse: areas of integral exponents are multiples of 1/2 or
# of 1, so the series reaches a floor of -12 in a few dozen steps.
INVERT_MODELS = {"blowup 1/2": model_blowup_cp2("1/2"), "cp2": model_cpn(2)}


def small_units(model):
    """c * 1 plus up to two terms with integral exponents in [-1, 1]."""
    (unit_key,) = model.unit().terms
    exponents = st.tuples(*[st.integers(-1, 1)] * model.rank)
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


MAXPLUS_MODELS = [model_blowup_cp2(a2) for a2 in NINE_A2] + [model_cpn(n) for n in range(1, 5)]


def signed_basis_elements(model):
    """c * a * e^B for one basis class a, nonzero c of either sign, and any B."""
    key = st.tuples(st.integers(0, len(model.basis) - 1), sphere_classes(model.rank))
    return st.tuples(st.just(model), st.builds(
        lambda k, c: QHElement([(k, c)]), key, coefficients.filter(bool)
    ))


class TestMaxPlus:
    @SETTINGS
    @given(st.sampled_from(MAXPLUS_MODELS).flatmap(signed_basis_elements))
    def test_matches_the_exact_walk(self, case):
        model, x = case
        assert _MaxPlus(model, x).valuations(40) == valuation_walk(model, x, 40)


class TestFuzzedText:
    @SETTINGS
    @given(element_texts)
    def test_parsers_raise_only_parse_errors(self, text):
        model = MODELS["blowup"]
        try:
            model.element(text)
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
