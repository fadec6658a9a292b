"""Products, powers, inversion, max-plus valuations, and model files."""

import json
import math
import random
import re
from fractions import Fraction

import pytest

import qhofer.quantum_homology as qh
from qhofer import (
    NEG_INF,
    CheckError,
    ModelError,
    NotInvertibleError,
    ParseError,
    QHElement,
    exact_inverse,
    format_qh,
    invert,
    load_model,
    model_blowup_cp2,
    model_cpn,
    model_from_dict,
    model_to_dict,
    parse_qh,
    power,
    power_walk,
    psi,
    quantum_product,
    valuation,
    validate_model,
    valuation_walk,
)
from qhofer.quantum_homology import ManifoldModel
from helpers import (
    NINE_A2,
    Q_TEXT,
    classical_product,
    degree,
    hbar,
    oracle_contract,
    oracle_cramer,
    oracle_invert,
    oracle_walk,
    random_fraction,
    random_qh,
    tropical_valuations,
)

A2 = Fraction(1, 4)


@pytest.fixture(scope="module")
def m():
    return model_blowup_cp2(A2)


def basis(m):
    return (m.basis_element(name) for name in ("p", "E", "F", "1"))


class TestGoldenProducts:
    """The six degree-two and point-class products of the blown-up plane."""

    def test_p_p(self, m):
        p, E, F, one = basis(m)
        assert quantum_product(m, p, p) == m.element(
            "E * e^{-1*E + -1*F} + F * e^{-1*E + -1*F}"
        )

    def test_p_E(self, m):
        p, E, F, one = basis(m)
        expected = m.element("F * e^{-1*F}")
        assert quantum_product(m, E, p) == expected
        assert quantum_product(m, p, E) == expected

    def test_p_F(self, m):
        p, E, F, one = basis(m)
        assert quantum_product(m, p, F) == m.element("1 * 1 * e^{-1*E + -1*F}")

    def test_E_E(self, m):
        p, E, F, one = basis(m)
        assert quantum_product(m, E, E) == m.element(
            "-1 * p + E * e^{-1*E} + 1 * e^{-1*F}"
        )

    def test_E_F(self, m):
        p, E, F, one = basis(m)
        assert quantum_product(m, E, F) == m.element("p + -1 * E * e^{-1*E}")

    def test_F_F(self, m):
        p, E, F, one = basis(m)
        assert quantum_product(m, F, F) == m.element("E * e^{-1*E}")

    def test_independent_of_area(self):
        # The product table never sees a^2; only valuations do.
        m1, m2 = model_blowup_cp2(Fraction(1, 10)), model_blowup_cp2(Fraction(9, 10))
        for x in ("p", "E", "F"):
            for y in ("p", "E", "F"):
                a = quantum_product(m1, m1.basis_element(x), m1.basis_element(y))
                b = quantum_product(m2, m2.basis_element(x), m2.basis_element(y))
                assert a == b


class TestClassicalProduct:
    def test_cap_products(self, m):
        p, E, F, one = basis(m)
        assert classical_product(m, E, E) == -p
        assert classical_product(m, E, F) == p
        assert classical_product(m, F, F).is_zero()
        assert classical_product(m, p, F).is_zero()
        assert classical_product(m, p, p).is_zero()

    def test_unit_acts_trivially(self, m):
        one = m.unit()
        for name in ("p", "E", "F", "1"):
            x = m.basis_element(name)
            assert classical_product(m, one, x) == x
            assert quantum_product(m, one, x) == x

    def test_classical_is_zero_exponent_stratum(self, m):
        # On bare basis classes the cap product is exactly the zero-exponent
        # slice of the quantum product.
        zero = (0,) * m.rank
        for xn, _ in m.basis:
            for yn, _ in m.basis:
                x, y = m.basis_element(xn), m.basis_element(yn)
                full = quantum_product(m, x, y)
                sliced = QHElement(
                    {(i, B): q for (i, B), q in full.terms.items() if B == zero}
                )
                assert classical_product(m, x, y) == sliced


class TestRingAxioms:
    def test_commutative_associative(self, m):
        rng = random.Random(5)
        for _ in range(80):
            x, y, z = (random_qh(rng, m) for _ in range(3))
            assert quantum_product(m, x, y) == quantum_product(m, y, x)
            left = quantum_product(m, quantum_product(m, x, y), z)
            right = quantum_product(m, x, quantum_product(m, y, z))
            assert left == right

    def test_distributive(self, m):
        rng = random.Random(6)
        for _ in range(40):
            x, y, z = (random_qh(rng, m) for _ in range(3))
            lhs = quantum_product(m, x, y + z)
            rhs = quantum_product(m, x, y) + quantum_product(m, x, z)
            assert lhs == rhs

    def test_grading(self, m):
        for i, (xn, dx) in enumerate(m.basis):
            for yn, dy in m.basis:
                x, y = m.basis_element(xn), m.basis_element(yn)
                prod = quantum_product(m, x, y)
                if not prod.is_zero():
                    assert degree(m, prod) == dx + dy - m.dim
                cap = classical_product(m, x, y)
                if not cap.is_zero():
                    assert degree(m, cap) == dx + dy - m.dim

    def test_degree_rejects_mixed(self, m):
        x = m.basis_element("p") + m.basis_element("E")
        with pytest.raises(ValueError):
            degree(m, x)

    def test_scalar_action_and_misuse(self, m):
        x = m.basis_element("E")
        assert (2 * x - x) == x
        with pytest.raises(TypeError):
            x * x  # needs the model


class TestDeformationDepth:
    """The quantum correction sits at least hbar below the classical part."""

    def test_hbar_values(self):
        assert hbar(model_blowup_cp2(Fraction(1, 4))) == Fraction(1, 4)
        assert hbar(model_blowup_cp2(Fraction(1, 2))) == Fraction(1, 2)
        assert hbar(model_blowup_cp2(Fraction(2, 3))) == Fraction(1, 3)
        assert hbar(model_cpn(1)) == 1
        assert hbar(model_cpn(3, Fraction(2, 7))) == Fraction(2, 7)

    def test_hbar_infinite_without_curves(self):
        classical = ManifoldModel(
            name="surface",
            dim=2,
            sphere_generators=("A",),
            basis=(("pt", 0), ("1", 2)),
            pairing=((0, 1), (1, 0)),
            omega=(1,),
            c1=(1,),
            gw=[(("pt", "1", "1"), (0,), 1)],
        )
        assert hbar(classical) == math.inf

    def test_correction_bounded_by_hbar(self, m):
        rng = random.Random(9)
        h = hbar(m)
        for _ in range(100):
            x, y = random_qh(rng, m), random_qh(rng, m)
            diff = quantum_product(m, x, y) - classical_product(m, x, y)
            bound = valuation(x, m.omega) + valuation(y, m.omega) - h
            assert valuation(diff, m.omega) <= bound


class TestPowers:
    def test_golden_positive_powers(self, m):
        q = m.element(Q_TEXT)
        assert power(m, q, 2) == m.element("E * e^{1/2*F}")
        assert power(m, q, 3) == m.element(
            "p * e^{1/2*E + 3/4*F} + -1 * E * e^{-1/2*E + 3/4*F}"
        )
        assert power(m, q, 4) == m.element(
            "-1 * p * e^{1*F} + E * e^{-1*E + 1*F} + 1"
        )
        assert power(m, q, 5) == m.element(
            "p * e^{-1/2*E + 5/4*F} + -1 * E * e^{-3/2*E + 5/4*F}"
            " + F * e^{1/2*E + 1/4*F} + -1 * 1 * e^{-1/2*E + 1/4*F}"
        )

    def test_golden_negative_powers(self, m):
        q = m.element(Q_TEXT)
        assert power(m, q, -1) == m.element("p * e^{1/2*E + 3/4*F}")
        assert power(m, q, -2) == m.element("E * e^{1/2*F} + F * e^{1/2*F}")
        assert power(m, q, -3) == m.element(
            "F * e^{1/2*E + 1/4*F} + 1 * e^{-1/2*E + 1/4*F}"
        )
        assert power(m, q, -4) == m.element("p * e^{1*F} + 1")

    def test_power_zero_is_unit(self, m):
        q = m.element(Q_TEXT)
        assert power(m, q, 0) == m.unit()

    def test_power_additivity(self, m):
        q = m.element(Q_TEXT)
        cache = {k: power(m, q, k) for k in range(-6, 7)}
        for j in range(-3, 4):
            for k in range(-3, 4):
                assert quantum_product(m, cache[j], cache[k]) == cache[j + k]

    def test_power_walk_matches_power(self, m):
        q = m.element(Q_TEXT)
        for k, x in power_walk(m, q, 8):
            assert x == power(m, q, k)

    def test_negative_power_needs_exact_inverse(self, m):
        x = m.unit() + m.basis_element("p")
        with pytest.raises(NotInvertibleError):
            power(m, x, -1)


class TestInversion:
    def test_monomial_inverse_is_exact(self, m):
        q = m.element(Q_TEXT)
        z = invert(m, q)
        assert quantum_product(m, q, z) == m.unit()
        assert z == m.element("p * e^{1/2*E + 3/4*F}")

    def test_square_inverse_matches_golden(self, m):
        q2 = m.element("E * e^{1/2*F}")
        z = exact_inverse(m, q2)
        assert z == m.element("E * e^{1/2*F} + F * e^{1/2*F}")

    def test_unit_inverts_to_itself(self, m):
        assert exact_inverse(m, m.unit()) == m.unit()

    def test_scaled_unit(self, m):
        x = -3 * m.basis_element("1", (1, 2))
        z = exact_inverse(m, x)
        assert z == Fraction(-1, 3) * m.basis_element("1", (-1, -2))

    def test_truncated_inverse_residual_below_floor(self, m):
        x = m.unit() + m.basis_element("p")
        floor = Fraction(-6)
        z = invert(m, x, floor)
        assert all(m.omega(B) >= floor for B in z.support_classes())
        residual = quantum_product(m, x, z) - m.unit()
        assert not residual.is_zero()
        assert valuation(residual, m.omega) < floor

    def test_floor_controls_depth(self, m):
        x = m.unit() + m.basis_element("p")
        shallow = invert(m, x, Fraction(-3))
        deep = invert(m, x, Fraction(-9))
        assert len(shallow) < len(deep)
        # The shallow truncation is exactly the deep one with terms dropped.
        for (i, B), q in shallow.terms.items():
            assert deep.terms[i, B] == q

    def test_long_series_reaches_a_deep_floor(self):
        # The series for (1 + x)^-1 on the projective line takes one step per
        # unit of area, some 250 steps down to this floor.
        c1 = model_cpn(1)
        x = c1.element("1 + x")
        z = invert(c1, x, -250)
        assert quantum_product(c1, x, z) == c1.element("1 + -1 * 1 * e^{-251*L}")

    def test_floor_accepts_plain_rationals(self, m):
        x = m.unit() + m.basis_element("p")
        assert invert(m, x, -3) == invert(m, x, "-3")

    def test_zero_not_invertible(self, m):
        with pytest.raises(NotInvertibleError):
            invert(m, QHElement())

    def test_tied_leading_terms_rejected(self):
        m2 = model_blowup_cp2(Fraction(1, 2))
        x = m2.element("1 * e^{1*E} + -1 * 1 * e^{1*F}")
        with pytest.raises(NotInvertibleError, match="leading"):
            invert(m2, x)

    def test_zero_divisor_rejected(self):
        c1 = model_cpn(1)
        x = c1.element("x + -1 * 1 * e^{-1/2*L}")
        with pytest.raises(NotInvertibleError, match="singular"):
            invert(c1, x)

    def test_random_invertible_elements_verify(self, m):
        rng = random.Random(21)
        floor = Fraction(-6)
        hits = 0
        for _ in range(300):
            if hits >= 15:
                break
            x = random_qh(rng, m, max_terms=2)
            try:
                z = invert(m, x, floor)
            except NotInvertibleError:
                continue
            hits += 1
            residual = quantum_product(m, x, z) - m.unit()
            if not residual.is_zero():
                vx = valuation(x, m.omega)
                slack = vx if vx > 0 else Fraction(0)
                assert valuation(residual, m.omega) < floor + slack
        assert hits >= 15


class TestProjectiveSpace:
    def test_hyperplane_relation(self):
        for n in range(1, 5):
            mn = model_cpn(n)
            x = mn.basis_element("x")
            expected = mn.basis_element("1", (-1,))
            assert power(mn, x, n + 1) == expected

    def test_classical_truncation(self):
        m2 = model_cpn(2)
        x = m2.basis_element("x")
        assert classical_product(m2, x, x) == m2.basis_element("x^2")
        assert classical_product(m2, x, m2.basis_element("x^2")).is_zero()

    def test_quantum_wraparound(self):
        m2 = model_cpn(2)
        x2 = m2.basis_element("x^2")
        assert quantum_product(m2, x2, x2) == m2.basis_element("x", (-1,))

    def test_line_area_scales_valuations(self):
        m2 = model_cpn(2, Fraction(1, 3))
        x = m2.basis_element("x")
        assert valuation(power(m2, x, 3), m2.omega) == Fraction(-1, 3)

    def test_hyperplane_is_invertible(self):
        m3 = model_cpn(3)
        x = m3.basis_element("x")
        z = exact_inverse(m3, x)
        assert quantum_product(m3, x, z) == m3.unit()

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            model_cpn(0)
        with pytest.raises(ValueError):
            model_cpn(2, 0)


class TestModelValidation:
    def test_builtins_are_clean(self):
        assert validate_model(model_blowup_cp2(Fraction(1, 3))) == []
        assert validate_model(model_cpn(3)) == []

    def test_pairing_inverted_once_per_build(self, monkeypatch):
        calls = []
        inner = qh._invert_rational_matrix

        def counting(rows):
            calls.append(rows)
            return inner(rows)

        monkeypatch.setattr(qh, "_invert_rational_matrix", counting)
        model = model_blowup_cp2(Fraction(1, 4))
        assert len(calls) == 1
        # Validating again and multiplying reuse the same inverse.
        assert validate_model(model) == []
        quantum_product(model, model.basis_element("E"), model.basis_element("F"))
        assert len(calls) == 1

    def test_blowup_area_domain(self):
        for bad in (0, 1, Fraction(6, 5), -1):
            with pytest.raises(ValueError):
                model_blowup_cp2(bad)

    def test_gw_symmetry_enforced(self, m):
        entries = [(("E", "E", "F"), (1, 0), 1), (("F", "E", "E"), (1, 0), -1)]
        with pytest.raises(ModelError, match="conflicting"):
            ManifoldModel(
                name="bad",
                dim=4,
                sphere_generators=("E", "F"),
                basis=m.basis,
                pairing=m.pairing,
                omega=(A2, 1 - A2),
                c1=(1, 2),
                gw=list_golden_gw() + entries,
            )

    def test_gw_table_keyed_by_sorted_triple(self, m):
        # Basis p, E, F, 1: each entry sits once, under its sorted index triple.
        e_class = (1, 0)
        assert all(list(idx) == sorted(idx) for idx, _ in m.gw)
        assert m.gw[(1, 1, 2), e_class] == 1
        assert m.gw[(1, 1, 1), e_class] == -1
        assert m.gw[(2, 2, 2), e_class] == 1
        assert ((0, 0, 0), e_class) not in m.gw

    def test_validation_catches_broken_tables(self, m):
        data = model_to_dict(m)

        asym = json.loads(json.dumps(data))
        asym["pairing"][0][3] = "2"
        with pytest.raises(ModelError, match="symmetric"):
            model_from_dict(asym)

        wrong_dim = json.loads(json.dumps(data))
        wrong_dim["gw"][0]["B"] = ["3", "3"]
        with pytest.raises(ModelError, match="dimension rule"):
            model_from_dict(wrong_dim)

        negative_area = json.loads(json.dumps(data))
        negative_area["omega"] = ["-1/4", "3/4"]
        with pytest.raises(ModelError, match="positive area"):
            model_from_dict(negative_area)

        missing = json.loads(json.dumps(data))
        missing["gw"] = [row for row in missing["gw"] if row["classes"] != ["p", "1", "1"]]
        with pytest.raises(ModelError, match="missing classical entry"):
            model_from_dict(missing)

    @pytest.mark.parametrize(
        "edit, problems",
        [
            (lambda d: d["pairing"][0].__setitem__(3, "2"),
             ["pairing matrix must be symmetric: (p,1) is 2, (1,p) is 1"]),
            (lambda d: [d["pairing"][i].__setitem__(1 - i, "1") for i in (0, 1)],
             ["pairing of p and E violates the degree rule"]),
            (lambda d: next(r for r in d["gw"] if r["classes"] == ["p", "1", "1"]).update(value="5"),
             ["table entry (p,1,1;0) is 5, but the pairing (p,1) is 1"]),
            (lambda d: d["gw"].append({"classes": ["E", "F", "1"], "B": ["1", "0"], "value": "1"}),
             ["table entry (E,F,1;1*E) goes through the unit, so B must be 0",
              "table entry (E,F,1;1*E) violates the dimension rule"]),
            (lambda d: d.update(omega=["-1/4", "5/4"]),
             ["table class 1*E has area -1/4, but nonzero table classes must have positive area"]),
            (lambda d: d["gw"].append({"classes": ["p", "E", "1"], "B": ["0", "0"], "value": "1"}),
             ["table entry (p,E,1;0) is 1, but the pairing (p,E) is 0"]),
            # A bad degree stops the checks that would report its pairings and entries.
            (lambda d: d["basis"][2].update(degree=3), ["basis class 'F' has invalid degree 3"]),
            (lambda d: d["gw"].append({"classes": ["1", "1", "p"], "B": ["0", "0"], "value": "2"}),
             ["conflicting values for table entry (p,1,1;0): 1 and 2"]),
            (lambda d: d["basis"][2].update(name="E"), ["basis names must be distinct"]),
            (lambda d: d["gw"][0].update(classes=["1", "p"]),
             ["table entry (p,1) names 2 classes, but each table entry takes exactly three"]),
            (lambda d: d["gw"][0]["classes"].__setitem__(0, "Z"), ["unknown basis class 'Z'"]),
            (lambda d: d["gw"][0]["classes"].__setitem__(0, 9), ["basis index 9 out of range"]),
        ],
        ids=["asymmetric", "off-degree", "wrong-unit-entry", "unit-entry-with-B",
             "negative-area", "spurious-unit-entry", "invalid-degree", "conflicting-entry",
             "repeated-name", "two-classes", "unknown-class", "index-out-of-range"],
    )
    def test_each_fault_reported_once_by_name(self, edit, problems):
        data = model_to_dict(model_blowup_cp2(Fraction(1, 4)))
        edit(data)
        with pytest.raises(ModelError) as caught:
            model_from_dict(data)
        assert str(caught.value).split("; ") == problems

    def test_malformed_data_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            model_from_dict({"name": "x"})

    # The 19 refusals of a model file, made in the constructor's arguments: a
    # basis or gw entry is a pair or triple there, so a bare 1 is no list.
    @pytest.mark.parametrize(
        "edit, refusal",
        [
            (lambda a: a.update(name=["x"]), "must be strings, not ['x']"),
            (lambda a: a["basis"][1].__setitem__(0, 2), "must be strings, not 2"),
            (lambda a: a.update(sphere_generators=[1, 2]), "must be strings, not 1"),
            (lambda a: a.update(dim="4"), "must be integers, not '4'"),
            (lambda a: a["basis"][0].__setitem__(1, "0"), "must be integers, not '0'"),
            (lambda a: a.update(c1=[1, "2"]), "must be integers, not '2'"),
            (lambda a: a.update(sphere_generators="EF"), "must be JSON arrays, not 'EF'"),
            (lambda a: a.update(basis={}), "must be JSON arrays, not {}"),
            (lambda a: a.update(pairing="0001"), "must be JSON arrays, not '0001'"),
            (lambda a: a["pairing"].__setitem__(0, "0001"), "must be JSON arrays, not '0001'"),
            (lambda a: a.update(omega="13"), "must be JSON arrays, not '13'"),
            (lambda a: a.update(c1="12"), "must be JSON arrays, not '12'"),
            (lambda a: a.update(gw={}), "must be JSON arrays, not {}"),
            (lambda a: a["gw"][0].__setitem__(0, "p11"), "must be JSON arrays, not 'p11'"),
            (lambda a: a["gw"][0].__setitem__(1, "00"), "must be JSON arrays, not '00'"),
            (lambda a: a.update(basis="abc"), "must be JSON arrays, not 'abc'"),
            (lambda a: a.update(gw="abc"), "must be JSON arrays, not 'abc'"),
            (lambda a: a.update(basis=[1, 2]), "must be JSON arrays, not 1"),
            (lambda a: a.update(gw=[1]), "must be JSON arrays, not 1"),
            # Coerced, these two would give generators E, F of areas 1 and 3.
            (lambda a: a.update(sphere_generators="EF", omega="13"),
             "must be JSON arrays, not 'EF'"),
            (lambda a: a.update(name=7), "must be strings, not 7"),
            (lambda a: a.update(dim=True), "must be integers, not True"),
            (lambda a: a["pairing"][0].__setitem__(3, 1.0), "expected a rational, got float"),
            (lambda a: a["gw"][0][0].__setitem__(0, 1.5), "expected an integer, got 1.5"),
            (lambda a: a["gw"][0].pop(), "not enough values to unpack"),
        ],
        ids=["name", "basis-name", "sphere-generators", "dim", "degree", "c1",
             "sphere-generators-text", "basis-object", "pairing-text", "pairing-row-text",
             "omega-text", "c1-text", "gw-object", "classes-text", "B-text",
             "basis-text", "gw-text", "basis-entry", "gw-entry", "generators-and-areas-text",
             "name-int", "dim-bool", "float-pairing-cell", "fractional-index", "short-gw-entry"],
    )
    def test_constructor_refuses_coercion(self, edit, refusal):
        data = model_to_dict(model_blowup_cp2(A2))
        args = {**data, "basis": [[b["name"], b["degree"]] for b in data["basis"]],
                "gw": [[row["classes"], row["B"], row["value"]] for row in data["gw"]]}
        assert ManifoldModel(**args).gw == model_blowup_cp2(A2).gw
        edit(args)
        with pytest.raises(ModelError) as caught:
            ManifoldModel(**args)
        assert str(caught.value).startswith("malformed model data: ")
        assert refusal in str(caught.value)

    def test_missing_top_degree_class(self, m):
        basis = (("p", 0), ("E", 2), ("F", 2), ("1", 2))
        with pytest.raises(ModelError, match="top degree"):
            ManifoldModel(
                name="no_fundamental_class",
                dim=4,
                sphere_generators=("E", "F"),
                basis=basis,
                pairing=m.pairing,
                omega=(A2, 1 - A2),
                c1=(1, 2),
                gw=[],
            )

    def test_ragged_pairing(self):
        with pytest.raises(ModelError, match="square"):
            ManifoldModel(
                "ragged", 2, ["L"], [("1", 2), ("x", 0)], [[0, 1], [1]], [1], [2], []
            )

    @pytest.mark.parametrize(
        "omega, c1", [((A2, 1 - A2), (1,)), ((A2,), (1, 2))], ids=["c1", "omega"]
    )
    def test_wrong_length_functional(self, m, omega, c1):
        # Refused before the table is read, where c1(B) would raise a bare ValueError.
        with pytest.raises(ModelError, match="one value per sphere generator"):
            ManifoldModel(
                "short", 4, ("E", "F"), m.basis, m.pairing, omega, c1, list_golden_gw()
            )


def model_half_integral():
    """A JSON model whose table value, table exponent and dual are fractional."""
    data = {
        "name": "half",
        "dim": 2,
        "sphere_generators": ["A"],
        "basis": [{"name": "pt", "degree": 0}, {"name": "1", "degree": 2}],
        "pairing": [["0", "2"], ["2", "0"]],
        "omega": ["2/3"],
        "c1": [4],
        "gw": [
            {"classes": ["pt", "1", "1"], "B": ["0"], "value": "2"},
            {"classes": ["pt", "pt", "pt"], "B": ["1/2"], "value": "3/2"},
        ],
    }
    return model_from_dict(json.loads(json.dumps(data)))


def random_mixed_qh(rng: random.Random, model, max_terms: int = 4) -> QHElement:
    """Rational coefficients, exponents with unrelated denominators."""
    terms = [
        (
            (
                rng.randrange(len(model.basis)),
                tuple(
                    Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))
                    for _ in range(model.rank)
                ),
            ),
            random_fraction(rng),
        )
        for _ in range(rng.randint(1, max_terms))
    ]
    return QHElement(terms)


class TestLatticeKernel:
    """The lattice kernel against the Fraction reference contraction."""

    MODELS = {
        "blowup-1/10": lambda: model_blowup_cp2(Fraction(1, 10)),
        "blowup-2/7": lambda: model_blowup_cp2(Fraction(2, 7)),
        "cp1": lambda: model_cpn(1),
        "cp2": lambda: model_cpn(2, Fraction(3, 4)),
        "cp3": lambda: model_cpn(3),
        "half-integral": model_half_integral,
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_products_match_oracle(self, name):
        model = self.MODELS[name]()
        rng = random.Random(sorted(self.MODELS).index(name))
        for _ in range(60):
            x, y = random_mixed_qh(rng, model), random_mixed_qh(rng, model)
            assert quantum_product(model, x, y) == oracle_contract(model, x, y)

    def test_operand_of_another_rank_is_refused(self):
        model = model_blowup_cp2(Fraction(1, 4))
        x = QHElement([((0, (Fraction(1),)), Fraction(1))])
        with pytest.raises(ValueError, match="^rank mismatch: 1 vs 2$"):
            quantum_product(model, x, model.basis_element("E"))

    def test_results_keep_public_types(self):
        """Every result's keys are (int, tuple of Fractions), its coefficients Fractions."""
        model = model_half_integral()
        pt = model.basis_element("pt")
        prod = quantum_product(model, pt, pt)
        assert prod == model.element("3/4 * 1 * e^{-1/2*A}")
        blowup = model_blowup_cp2(Fraction(1, 10))
        q = blowup.element(Q_TEXT)
        results = [
            model.element("pt + 1/2 * 1 * e^{1/2*A}"),
            pt,
            prod,
            power(blowup, q, 3),
            power(blowup, q, -3),
            invert(blowup, q, -2),
            exact_inverse(blowup, q),
            psi(2, Fraction(1, 10)).value,
        ]
        for x in results:
            assert x.terms
            for (i, B), c in x.terms.items():
                assert type(i) is int and type(B) is tuple and type(c) is Fraction
                assert all(type(b) is Fraction for b in B)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_powers_match_oracle(self, name):
        model = self.MODELS[name]()
        x = random_mixed_qh(random.Random(11), model, max_terms=2)
        walked = list(power_walk(model, x, 5))
        for (k, got), want in zip(walked, oracle_walk(model, x, 5)):
            assert got == want
            assert power(model, x, k) == want
        assert [k for k, _ in walked] == [1, 2, 3, 4, 5]
        assert valuation_walk(model, x, 5) == [
            valuation(y, model.omega) for _, y in walked
        ]

    @pytest.mark.parametrize("a2", NINE_A2, ids=str)
    def test_valuation_walk_matches_oracle(self, a2):
        model = model_blowup_cp2(a2)
        q = model.element(Q_TEXT)
        qi = exact_inverse(model, q)
        assert oracle_contract(model, q, qi) == model.unit()
        for x in (q, qi):
            want = [valuation(y, model.omega) for y in oracle_walk(model, x, 60)]
            assert valuation_walk(model, x, 60) == want

    def test_valuation_walk_edge_cases(self):
        surface = ManifoldModel(
            name="surface",
            dim=2,
            sphere_generators=("A",),
            basis=(("pt", 0), ("1", 2)),
            pairing=((0, 1), (1, 0)),
            omega=(1,),
            c1=(1,),
            gw=[(("pt", "1", "1"), (0,), 1)],
        )
        # pt * pt = 3/4 e^{-A/2}, so the walk steps by omega(-A/2) = -1/3.
        c = model_half_integral()
        for sequence in (valuation_walk, tropical_valuations):
            assert sequence(surface, surface.basis_element("pt"), 2) == [0, NEG_INF]
            assert sequence(c, c.basis_element("pt"), 3) == [
                0, Fraction(-1, 3), Fraction(-1, 3)
            ]


class TestTropicalValuations:
    """The max-plus sequence against the exact walk, and its two refusals."""

    @pytest.mark.parametrize("a2", NINE_A2 + [Fraction(1, 3)], ids=str)
    def test_matches_walk_on_the_sweep(self, a2):
        model = model_blowup_cp2(a2)
        q = model.element(Q_TEXT)
        for x in (q, exact_inverse(model, q)):
            assert tropical_valuations(model, x, 200) == valuation_walk(model, x, 200)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_walk_on_projective_space(self, n):
        model = model_cpn(n)
        x = model.basis_element("x")
        assert tropical_valuations(model, x, 40) == valuation_walk(model, x, 40)

    # Each is a monomial times an element that passed, so none can cancel;
    # their signs need the constant bit t of the character.
    @pytest.mark.parametrize("text", ["F * e^{1*E}", "F * e^{1/3*E + 1/7*F}", "-1 * p"])
    @pytest.mark.parametrize("a2", ["1/10", "1/4", "1/3", "2/3"])
    def test_signs_with_a_constant_bit_pass(self, a2, text):
        model = model_blowup_cp2(a2)
        x = model.element(text)
        assert tropical_valuations(model, x, 60) == valuation_walk(model, x, 60)

    def test_refuses_a_non_monomial_entry(self):
        model = model_blowup_cp2(Fraction(1, 10))
        for text in (f"{Q_TEXT} + 1", "p + -1 * E * e^{1*E}"):
            with pytest.raises(CheckError, match="monomial check failed"):
                tropical_valuations(model, model.element(text), 5)

    def test_refuses_signs_without_a_character(self):
        model = model_blowup_cp2(Fraction(1, 10))
        q = model.element(Q_TEXT)
        lattice = model._lattice(q)
        matrix = qh._mult_matrix(lattice, lattice.encode(q), len(model.basis))
        qh._check_signs(matrix)
        # Entry (0, 1) lies on the cycle p <- E <- F <- 1 <- p.  Its exponents
        # sum to zero, so a character needs its signs to multiply to +1, and
        # one flipped sign leaves the system without a solution.
        flipped = [[dict(entry) for entry in row] for row in matrix]
        ((key, c),) = flipped[0][1].items()
        flipped[0][1][key] = -c
        with pytest.raises(CheckError, match="sign check failed"):
            qh._check_signs(flipped)


class TestProjectiveSpaceRotation:
    """A second family for the max-plus path: S = x (x) e^{L/(n+1)} in CP^n,
    the Seidel element of the rotation loop that generates
    pi_1(PU(n+1)) = Z/(n+1) (Seidel, GAFA 7, 1997)."""

    @pytest.mark.parametrize("n", [*range(1, 13), 30])
    def test_valuations_repeat_with_the_loop_order(self, n):
        model = model_cpn(n)
        s = model.basis_element("x", (Fraction(1, n + 1),))
        assert power(model, s, n + 1) == model.unit()
        ks = range(1, 3 * (n + 1) + 1)
        s_inv = exact_inverse(model, s)
        pos, neg = (tropical_valuations(model, x, len(ks)) for x in (s, s_inv))
        assert pos == [Fraction(k % (n + 1), n + 1) for k in ks]
        # S^-k = S^j with j = -k mod (n + 1), so the two valuations sum to (k mod (n+1) + j)/(n+1).
        assert [p + q for p, q in zip(pos, neg)] == [int(k % (n + 1) != 0) for k in ks]
        if n <= 4:
            assert [pos, neg] == [valuation_walk(model, x, len(ks)) for x in (s, s_inv)]


def list_golden_gw():
    m = model_blowup_cp2(Fraction(1, 4))
    return [
        (idx, B, value) for (idx, B), value in m.gw.items()
    ]


class TestModelFiles:
    def test_dict_roundtrip(self, m):
        again = model_from_dict(model_to_dict(m))
        assert again.gw == m.gw
        assert again.pairing == m.pairing
        assert again.omega.values == m.omega.values
        assert again.basis == m.basis

    def test_file_roundtrip(self, tmp_path):
        m2 = model_cpn(2, Fraction(2, 3))
        path = tmp_path / "cp2.json"
        path.write_text(json.dumps(model_to_dict(m2), indent=2), encoding="utf-8")
        again = load_model(path)
        assert again.gw == m2.gw
        assert again.omega.values == m2.omega.values

    def test_rationals_stored_as_strings(self, m):
        data = model_to_dict(m)
        assert data["omega"] == ["1/4", "3/4"]
        assert all(isinstance(v, str) for row in data["pairing"] for v in row)


class TestElementText:
    def test_golden_string(self, m):
        x = quantum_product(m, m.basis_element("E"), m.basis_element("F"))
        assert m.format(x) == "1 * p + -1 * E * e^{-1*E}"
        assert m.element("1 * p + -1 * E * e^{-1*E}") == x

    def test_unit_and_scalars(self, m):
        assert m.element("1") == m.unit()
        assert m.element("2 * 1") == 2 * m.unit()
        assert m.element("0").is_zero()
        assert m.format(m.unit()) == "1 * 1"
        # Signs before a term multiply into it.
        assert m.element("p - - E") == m.element("p + E")
        assert m.element("- - p") == m.element("p")

    def test_element_format(self, m):
        x = m.basis_element("p", ("1/2", "3/4"))
        assert m.format(-x) == "-1 * p * e^{1/2*E + 3/4*F}"
        assert m.format(QHElement()) == "0"

    def test_parse_signs_and_spacing(self, m):
        x = m.element(" -1 * E * e^{1*E}  +  p * e^{ -1*F } ")
        assert x == QHElement([((1, (1, 0)), -1), ((0, (0, -1)), 1)])
        assert m.element("p * e^{0} - - E * e^{1*E}") == m.element("p + E * e^{1*E}")

    def test_roundtrip_random(self, m):
        rng = random.Random(23)
        for _ in range(150):
            x = random_qh(rng, m, max_terms=4)
            assert m.element(m.format(x)) == x

    def test_names_may_hold_spaces(self, m):
        # A model file may name a class "F x" and a generator "fiber  class"; the
        # text grammar keeps inner spaces, so every element reads back.
        data = model_to_dict(m)
        for row in (*data["basis"], *data["gw"]):
            if "name" in row:
                row["name"] = "F x" if row["name"] == "F" else row["name"]
            else:
                row["classes"] = ["F x" if c == "F" else c for c in row["classes"]]
        data["sphere_generators"] = ["E", "fiber  class"]
        spaced = model_from_dict(data)
        x = spaced.element("2 * F x - E * e^{1*fiber  class}")
        assert x == 2 * spaced.basis_element("F x") - spaced.basis_element("E", (0, 1))
        rng = random.Random(29)
        for x in [x] + [random_qh(rng, spaced, max_terms=4) for _ in range(100)]:
            assert parse_qh(format_qh(x, spaced), spaced) == x

    def test_cpn_roundtrip(self):
        m3 = model_cpn(3)
        x = m3.element("x^2 * e^{-1*L} + 5 * x")
        assert m3.element(m3.format(x)) == x

    @pytest.mark.parametrize(
        "bad",
        [
            "q",                      # unknown basis class
            "2 * 3 * p",              # two coefficients
            "p * e^{0} * e^{0}",      # two exponentials
            "",                       # empty
            "p * e^2",                # exponential without braces
            "p * e^{}",               # empty exponential
            "p * e^{ }",              # the same with a blank
            "1e3 * p",                # exponent notation
            "1e999999999 * p",        # the same, too large to build
            "2 p",                    # missing "*"
            "{p}",                    # brace outside an exponential
            "p * * E",                # empty factor
            "2*-p",                   # sign inside a term
            "e^{1*E}}",               # unbalanced closing brace
            "p * e^{1*E",             # unbalanced brace
            "p * e^{1*G}",            # unknown generator
            "2 * ",                   # dangling factor
            "1/0 * p",                # bad rational
            "+",                      # dangling sign
            "3 * p + p * e^F",        # exponential without braces in a later term
            "p * e^{1e999999999*E}",  # exponent notation in an exponent
        ],
    )
    def test_parse_errors(self, bad, m):
        with pytest.raises(ParseError):
            m.element(bad)


class TestModuleElement:
    def test_non_integral_basis_index_rejected(self):
        for index in (1.7, Fraction(3, 2), "1/2"):
            with pytest.raises(ValueError, match="integer"):
                QHElement([((index, (0, 0)), 1)])

    def test_integral_index_values_accepted(self, m):
        x = QHElement([((2.0, (0, 0)), 1), ((Fraction(2), (0, 0)), 1)])
        assert x == 2 * m.basis_element("F")
        assert x.terms == {(2, (0, 0)): 2}

    def test_truncate_keeps_basis_indices(self, m):
        x = m.element("2 * p + E * e^{-1*E} + F * e^{1*F}")
        lattice = m._lattice(x)
        terms = lattice.encode(x)
        assert lattice.decode(lattice.truncate(terms, 0)) == m.element("2 * p + F * e^{1*F}")
        assert lattice.decode(lattice.truncate(terms, 1)).is_zero()

    def test_canonical_form_drops_zeros(self):
        x = QHElement([((0, (1, 0)), 2), ((0, (1, 0)), -2), ((1, (0, 1)), "1/2")])
        assert x.terms == {(1, (0, 1)): Fraction(1, 2)}

    def test_zero_element(self):
        assert QHElement().is_zero()
        assert QHElement([((0, (1, 0)), 0)]).is_zero()
        assert len(QHElement()) == 0

    def test_arithmetic(self, m):
        x = m.element("2 * p - E")
        assert (x - x).is_zero() and (x + -x).is_zero() and len(x) == 2
        assert 3 * x == x * 3 == x + x + x
        assert -x == (-1) * x and (0 * x).is_zero()
        assert (Fraction(1, 2) * x).terms[0, (0, 0)] == 1
        assert x.terms == (x + QHElement()).terms and x.terms is not x.terms

    def test_equality_and_hash(self):
        x = QHElement([((0, (1, 0)), 1), ((1, (0, 1)), 2)])
        y = QHElement([((1, (0, 1)), 2), ((0, (1, 0)), 1)])
        assert x == y and hash(x) == hash(y)

    def test_repr(self):
        assert repr(QHElement()) == "QHElement(0)"
        assert repr(QHElement([((0, (0,)), 1)])) == "QHElement(1 term)"
        assert repr(QHElement([((0, (0,)), 1), ((1, (0,)), 1)])) == "QHElement(2 terms)"

    def test_tuple_exponents_normalised(self, m):
        x = m.basis_element("F", (Fraction(1, 2), Fraction(1, 4)))
        assert x == m.element("F * e^{1/2*E + 1/4*F}")
        assert m.format(x) == "1 * F * e^{1/2*E + 1/4*F}"
        assert quantum_product(m, x, m.unit()) == x
        assert x.terms == {(2, (Fraction(1, 2), Fraction(1, 4))): 1}
        assert m.basis_element("F", ("1/2", "1/4")) == x

    @pytest.mark.parametrize("index", [4, -1])
    def test_basis_index_outside_the_model_refused(self, m, index):
        # Read as zero, or index -1 as the last class, unless each entry point checks.
        x = m.unit() + QHElement({(index, (0, 0)): 1})
        for use in (
            lambda: quantum_product(m, m.unit(), x),
            lambda: power(m, x, 2),
            lambda: valuation_walk(m, x, 2),
            lambda: tropical_valuations(m, x, 2),
            lambda: invert(m, x),
            lambda: m.format(x),
        ):
            with pytest.raises(ModelError, match=f"^basis index {index} out of range$"):
                use()

    def test_basis_element_rejects_wrong_rank(self, m):
        for B in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="rank"):
                m.basis_element("F", B)


# ---------------------------------------------------------------------------
# exact_inverse against the verifying product it replaced.
# ---------------------------------------------------------------------------

INVERSE_MODELS = [model_blowup_cp2(Fraction(1, 2))] + [model_cpn(n) for n in (1, 2, 3)]


def verified_inverse(model, x):
    """invert(x) when it multiplies x to the unit, else None."""
    try:
        z = invert(model, x)
    except NotInvertibleError:
        return None
    return z if quantum_product(model, x, z) == model.unit() else None


def small_element(rng, model):
    """One or two terms with integral exponents in [-1, 1], so series stay short."""
    return QHElement(
        [
            (
                (
                    rng.randrange(len(model.basis)),
                    tuple(rng.randint(-1, 1) for _ in range(model.rank)),
                ),
                random_fraction(rng),
            )
            for _ in range(rng.randint(1, 2))
        ]
    )


class TestExactInverse:
    @pytest.mark.parametrize("model", INVERSE_MODELS, ids=lambda m: m.name)
    def test_agrees_with_verifying_product(self, model):
        rng = random.Random(5)
        found = {True: 0, False: 0}
        for _ in range(30):
            x = small_element(rng, model)
            expected = verified_inverse(model, x)
            if expected is None:
                with pytest.raises(NotInvertibleError):
                    exact_inverse(model, x)
            else:
                assert exact_inverse(model, x) == expected
            found[expected is None] += 1
        assert found[True] and found[False]

    @pytest.mark.parametrize(
        "model, text",
        [
            (INVERSE_MODELS[0], "0"),
            (INVERSE_MODELS[0], "1 * e^{1*E} + -1 * 1 * e^{1*F}"),
            (INVERSE_MODELS[1], "x + -1 * 1 * e^{-1/2*L}"),
        ],
        ids=["zero", "tied-leading-terms", "zero-divisor"],
    )
    def test_rejects_what_invert_rejects(self, model, text):
        x = model.element(text)
        assert verified_inverse(model, x) is None
        with pytest.raises(NotInvertibleError):
            exact_inverse(model, x)


# ---------------------------------------------------------------------------
# Inversion on the lattice against the reference on {exponent: Fraction} dicts.
# ---------------------------------------------------------------------------

def model_flipped_blowup():
    """The blow-up at a^2 = 1/10 with n(E, E, E; E) = 1 in place of -1.

    It passes validation, yet its product is not associative, so tr(M_x^k)
    and tr(M_{x^k}) differ on it.
    """
    data = model_to_dict(model_blowup_cp2(Fraction(1, 10)))
    (row,) = [row for row in data["gw"] if row["classes"] == ["E", "E", "E"]]
    row["value"] = "1"
    return model_from_dict(data)


ORACLE_MODELS = (
    [model_blowup_cp2(a2) for a2 in NINE_A2]
    + [model_cpn(n) for n in (1, 2, 3, 4, 5)]
    + [model_flipped_blowup()]
)
ORACLE_IDS = (
    [f"blowup-{a2}" for a2 in NINE_A2] + [f"cp{n}" for n in (1, 2, 3, 4, 5)] + ["blowup-flipped"]
)


def oracle_elements(model, count=10):
    """Seeded elements of one to three terms, exponents with denominators up to 4."""
    rng = random.Random(model.name + str(model.omega.values))
    return [random_qh(rng, model, max_terms=3) for _ in range(count)]


class TestLatticeInversion:
    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
    def test_invert_matches_oracle(self, model):
        inverted = 0
        for i, x in enumerate(oracle_elements(model)):
            floor = (Fraction(-2), Fraction(-5, 2), Fraction(-10, 3))[i % 3]
            try:
                want = oracle_invert(model, x, floor)
            except NotInvertibleError as exc:
                with pytest.raises(NotInvertibleError, match=re.escape(str(exc))):
                    invert(model, x, floor)
                continue
            assert invert(model, x, floor) == want
            inverted += 1
        assert inverted >= 3

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
    def test_exact_inverse_exactly_when_oracle_g_vanishes(self, model):
        found = {True: 0, False: 0}
        for x in oracle_elements(model, count=16):
            try:
                col, g = oracle_cramer(model, x)
            except NotInvertibleError:
                with pytest.raises(NotInvertibleError):
                    exact_inverse(model, x)
                continue
            if not g:
                assert exact_inverse(model, x) == col
            else:
                with pytest.raises(NotInvertibleError, match="infinite series"):
                    exact_inverse(model, x)
            found[not g] += 1
        assert found[True] and found[False]

    def test_deep_series_matches_oracle(self):
        m = model_blowup_cp2(Fraction(1, 10))
        x = m.element("1 + 3 * p")
        z = invert(m, x, -40)
        assert z == oracle_invert(m, x, Fraction(-40))
        assert len(z) == 624

    def test_contractions_quadratic_in_basis_size(self, monkeypatch):
        # The Cramer step makes O(N^2) products for a basis of N classes.
        calls = []
        inner = qh._contract

        def counting(table, x, y):
            calls.append(None)
            return inner(table, x, y)

        monkeypatch.setattr(qh, "_contract", counting)
        for n in range(3, 8):
            model = model_cpn(n)
            x = model.element(" + ".join(["1", "x"] + [f"x^{k}" for k in range(2, n + 1)]))
            calls.clear()
            qh._cramer(model, x)
            size = n + 1
            assert len(calls) <= 2 * size * size + 4 * size, n


class TestToricRelations:
    """Batyrev's quantum Stanley-Reisner relations of the blow-up.

    The fan has normals v1 = (1, 0), v2 = (1, 1), v3 = (0, 1), v4 = (-1, -1),
    with divisors D1 = D3 = F, D2 = E and D4 = E + F.  v1 + v3 = v2 gives
    D1 D3 = q^E D2, and v2 + v4 = 0 gives D2 D4 = q^F, with q^B = e^{-B}.
    """

    @pytest.mark.parametrize("a2", NINE_A2, ids=str)
    def test_relations_hold(self, a2):
        m = model_blowup_cp2(a2)
        assert quantum_product(m, m.element("F"), m.element("F")) == m.element("E * e^{-1*E}")
        assert quantum_product(m, m.element("E"), m.element("E + F")) == m.element(
            "1 * e^{-1*F}"
        )

    def test_flipped_table_breaks_the_second(self):
        m = model_flipped_blowup()
        assert quantum_product(m, m.element("F"), m.element("F")) == m.element("E * e^{-1*E}")
        product = quantum_product(m, m.element("E"), m.element("E + F"))
        assert m.format(product) == "2 * F * e^{-1*E} + 1 * 1 * e^{-1*F}"
