"""Rotation elements, valuation bounds, growth tables, and certificates."""

import csv
import io
import math
from fractions import Fraction

import pytest

import qhofer.quantum_homology as qh
import qhofer.seidel_bounds as sb
from qhofer import (
    ManifoldModel,
    MonotoneCaseError,
    SampledPath,
    delta_constant,
    ell_plus_lower_bound,
    fixed_extremum_check,
    growth_table,
    lengths_blowup_loop,
    mean_radius_sq_exact,
    model_blowup_cp2,
    model_cpn,
    model_to_dict,
    omega_f,
    power,
    psi,
    QHElement,
    q_element,
    quantum_product,
    r_tilde_certificate,
    radial_mean,
    two_sided_bounds,
    valuation,
    valuation_walk,
)
from qhofer.cli import main
from helpers import (
    NINE_A2, count_rotation_builds, degree, tropical_valuations, two_sided_bound,
)


class TestDelta:
    def test_values(self):
        assert delta_constant(Fraction(1, 4)) == Fraction(3, 20)
        assert delta_constant(Fraction(1, 2)) == Fraction(-1, 36)

    def test_pole_at_monotone_value(self):
        with pytest.raises(MonotoneCaseError):
            delta_constant(Fraction(1, 3))

    def test_domain(self):
        for bad in (0, 1, 2):
            with pytest.raises(ValueError):
                delta_constant(bad)

    def test_sign_change_across_pole(self):
        assert delta_constant(Fraction(3, 10)) > 0
        assert delta_constant(Fraction(2, 5)) < 0


class TestPsi:
    def test_double_rotation_golden(self):
        a2 = Fraction(1, 4)
        d = delta_constant(a2)
        element = psi(2, a2)
        m = model_blowup_cp2(a2)
        expected = m.basis_element("E", (-4 * d, 2 * d + Fraction(1, 2)))
        assert element.value == expected
        assert element.delta == d
        assert element.loop_multiple == 2

    def test_element_unpacks_to_its_fields(self):
        element = psi(2, Fraction(1, 4))
        assert element._fields == ("loop_multiple", "a_squared", "delta", "value")
        assert tuple(element) == (2, Fraction(1, 4), element.delta, element.value)

    def test_zero_multiple_is_unit(self):
        m = model_blowup_cp2(Fraction(1, 4))
        assert psi(0, Fraction(1, 4)).value == m.unit()

    def test_inverse_rotation_golden(self):
        a2 = Fraction(1, 4)
        d = delta_constant(a2)
        m = model_blowup_cp2(a2)
        expected = m.basis_element(
            "p", (Fraction(1, 2) + 2 * d, Fraction(3, 4) - d)
        )
        element = psi(-1, a2)
        assert element.value == expected
        assert quantum_product(m, element.value, psi(1, a2).value) == m.unit()

    def test_multiplicative_in_k(self):
        a2 = Fraction(1, 5)
        m = model_blowup_cp2(a2)
        cache = {k: psi(k, a2).value for k in range(-5, 6)}
        for j in range(-5, 6):
            for k in range(-5, 6):
                if -5 <= j + k <= 5:
                    assert (
                        quantum_product(m, cache[j], cache[k]) == cache[j + k]
                    )

    def test_inverse_pairs_give_unit(self):
        for a2 in (Fraction(1, 4), Fraction(7, 10)):
            m = model_blowup_cp2(a2)
            for k in range(1, 6):
                product = quantum_product(m, psi(k, a2).value, psi(-k, a2).value)
                assert product == m.unit()

    def test_degree_constant(self):
        a2 = Fraction(1, 2)
        m = model_blowup_cp2(a2)
        for k in range(-6, 7):
            assert degree(m, psi(k, a2).value) == 4

    def test_monotone_value_rejected(self):
        with pytest.raises(MonotoneCaseError):
            psi(1, Fraction(1, 3))


class TestEllPlus:
    def test_examples(self):
        assert ell_plus_lower_bound(2, Fraction(1, 4)) == Fraction(9, 20)
        assert ell_plus_lower_bound(0, Fraction(1, 4)) == 0
        assert ell_plus_lower_bound(1, Fraction(1, 4)) == Fraction(7, 20)

    def test_matches_shift_formula(self):
        # v(Psi(k)) = v(Q^k) + k * delta * omega(F - 2E).
        for a2 in (Fraction(1, 5), Fraction(3, 5)):
            m = model_blowup_cp2(a2)
            q = q_element(m)
            d = delta_constant(a2)
            for k in (1, 2, 3, 5):
                expected = valuation(power(m, q, k), m.omega) + k * d * (1 - 3 * a2)
                assert ell_plus_lower_bound(k, a2) == expected

    @pytest.mark.parametrize("a2", NINE_A2, ids=str)
    def test_matches_psi_valuation(self, a2):
        m = model_blowup_cp2(a2)
        for j in range(-6, 7):
            assert ell_plus_lower_bound(j, a2) == valuation(psi(j, a2).value, m.omega)

    def test_monotone_value_is_an_area_like_any_other(self):
        # psi refuses 3a^2 = 1, but the shift's area m = (1 - a^2)^2 / (12 (1 + a^2))
        # has no pole there: v(Psi(+-k)) = v(Q^+-k) +- k m.
        a2, m = Fraction(1, 3), Fraction(1, 36)
        model = model_blowup_cp2(a2)
        q = q_element(model)
        assert ell_plus_lower_bound(0, a2) == 0
        for k in range(1, 13):
            for j in (k, -k):
                expected = valuation(power(model, q, j), model.omega) + j * m
                assert ell_plus_lower_bound(j, a2) == expected

    def test_builds_one_model(self, monkeypatch):
        built = []

        def counting(a2):
            built.append(a2)
            return model_blowup_cp2(a2)

        monkeypatch.setattr(sb, "model_blowup_cp2", counting)
        sb._blowup.cache_clear()  # earlier tests may have built this area
        sb._rotation.cache_clear()
        assert ell_plus_lower_bound(2, Fraction(1, 4)) == Fraction(9, 20)
        assert len(built) == 1


class TestTwoSided:
    def test_k4_sum_for_any_area(self):
        for a2 in NINE_A2:
            assert two_sided_bound(4, a2) == 2 * omega_f(a2)

    def test_equality_case(self):
        assert two_sided_bound(2, Fraction(1, 2)) == Fraction(1, 2)

    def test_k1_is_total_line_area(self):
        for a2 in (Fraction(1, 4), Fraction(2, 3)):
            assert two_sided_bound(1, a2) == 1

    def test_defined_at_monotone_value(self):
        assert two_sided_bound(2, Fraction(1, 3)) == omega_f(Fraction(1, 3))

    def test_delta_cancellation(self):
        for a2 in (Fraction(1, 10), Fraction(1, 4), Fraction(7, 10)):
            m = model_blowup_cp2(a2)
            for k in range(1, 7):
                two_sided = two_sided_bound(k, a2)
                via_psi = valuation(psi(k, a2).value, m.omega) + valuation(
                    psi(-k, a2).value, m.omega
                )
                assert two_sided == via_psi

    def test_sweep_agrees_with_single_calls(self):
        a2 = Fraction(2, 5)
        rows = dict(two_sided_bounds(12, a2))
        for k in (1, 3, 7, 12):
            assert rows[k] == two_sided_bound(k, a2)

    def test_lower_bound_inequality_sample(self):
        for a2 in (Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)):
            of = omega_f(a2)
            for k, bound in two_sided_bounds(60, a2):
                if k >= 2:
                    assert bound >= of

    def test_k_validated(self):
        with pytest.raises(ValueError):
            two_sided_bounds(0, Fraction(1, 2))


class TestRotationSource:
    def test_every_sweep_shares_one_build(self, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        a2 = Fraction(5, 13)  # an area no other test builds
        two_sided_bounds(6, a2)
        growth_table(6, a2)
        ell_plus_lower_bound(2, a2)
        ell_plus_lower_bound(-2, a2)
        r_tilde_certificate(a2, 6)
        two_sided_bound(3, "5/13")
        assert counts == {"builds": 1, "inverses": 1, "signs": 2}

    def test_each_area_builds_once(self, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        for a2 in (Fraction(1, 4), Fraction(2, 3), Fraction(1, 4)):
            two_sided_bounds(3, a2)
        assert counts == {"builds": 2, "inverses": 2, "signs": 4}

    def test_warm_source_reruns_no_sign_check(self, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        first = sb._q_valuations(5, Fraction(1, 4))
        assert counts["signs"] == 2
        counts["signs"] = 0
        assert sb._q_valuations(5, "1/4") == first
        assert sb._q_valuations(2, Fraction(1, 4)) == [v[:2] for v in first]
        assert counts == {"builds": 1, "inverses": 1, "signs": 0}

    def test_source_holds_no_model(self):
        source = sb._rotation(Fraction(1, 4))
        assert len(source) == 2
        assert all(isinstance(system, qh._MaxPlus) for system in source)
        kept = [v for system in source for v in vars(system).values()]
        assert not any(isinstance(v, (ManifoldModel, QHElement)) for v in kept)

    def test_out_of_range_area_raises_again(self, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                two_sided_bounds(3, Fraction(3, 2))
        assert counts == {"builds": 2, "inverses": 0, "signs": 0}

    def test_failed_build_is_not_cached(self, monkeypatch):
        count_rotation_builds(monkeypatch)  # empties the cache
        calls = []

        def fails_once(a2):
            calls.append(a2)
            if len(calls) == 1:
                raise RuntimeError("interrupted build")
            return model_blowup_cp2(a2)

        monkeypatch.setattr(sb, "model_blowup_cp2", fails_once)
        with pytest.raises(RuntimeError, match="interrupted build"):
            two_sided_bounds(3, Fraction(1, 5))
        assert two_sided_bounds(3, Fraction(1, 5)) == two_sided_bounds(3, Fraction(1, 5))
        assert len(calls) == 2

    @pytest.mark.parametrize("sweep", [two_sided_bounds, growth_table])
    def test_k_max_is_checked_before_the_area(self, sweep, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            sweep(0, Fraction(3, 2))
        with pytest.raises(ValueError, match="expected an integer"):
            sweep(2.5, "abc")
        assert counts == {"builds": 0, "inverses": 0, "signs": 0}

    def test_one_sided_area_is_checked_before_the_build(self, monkeypatch):
        counts = count_rotation_builds(monkeypatch)
        for a2 in (0, 1, Fraction(3, 2)):
            for k in (0, 2, -2):
                with pytest.raises(ValueError, match="strictly between 0 and 1"):
                    ell_plus_lower_bound(k, a2)
        assert counts == {"builds": 0, "inverses": 0, "signs": 0}


class TestGrowthTable:
    def test_rows_are_consistent(self):
        a2 = Fraction(1, 5)
        table = growth_table(12, a2)
        bounds = dict(two_sided_bounds(12, a2))
        assert [r.k for r in table.rows] == list(range(1, 13))
        for r in table.rows:
            assert r.bound == r.v_qk + r.v_qnegk == bounds[r.k]

    def test_growing_regime_slope(self):
        table = growth_table(60, Fraction(1, 5))
        s = table.summary
        assert not s.regime_bounded
        assert s.period == 3
        assert s.slope_last_period == Fraction(1, 30)
        assert s.slope_reference == Fraction(1, 30)
        assert not s.qneg_bounded

    def test_bounded_regime(self):
        table = growth_table(40, Fraction(1, 2))
        s = table.summary
        assert s.regime_bounded and s.qneg_bounded
        assert s.qneg_max == Fraction(5, 8)
        assert s.qneg_argmax == 1
        assert s.slope_last_period == 0
        rows = {r.k: r.v_qnegk for r in table.rows}
        assert (rows[40] - rows[20]) / 20 == 0

    def test_maximum_at_the_half_is_new(self):
        # At a^2 = 1/4, v(Q^-k) first peaks at k = 4, the first k of the
        # second half of a six-step sweep.
        s = growth_table(6, Fraction(1, 4)).summary
        assert (s.qneg_max, s.qneg_argmax) == (Fraction(3, 4), 4)
        assert not s.qneg_bounded

    @pytest.mark.parametrize(
        "a2, period", [(Fraction(1, 4), 3), (Fraction(1, 2), 4)], ids=["growing", "bounded"]
    )
    def test_slope_needs_one_step_past_a_period(self, a2, period):
        table = growth_table(period + 1, a2)
        first, last = table.rows[0].v_qnegk, table.rows[-1].v_qnegk
        assert table.summary.slope_last_period == (last - first) / period
        assert growth_table(period, a2).summary.slope_last_period is None

    def test_monotone_value_skips_psi_column(self, capsys):
        table = growth_table(10, Fraction(1, 3))
        assert all(r.psi_rate is None for r in table.rows)
        assert table.summary.psi_rate_min is None
        assert table.summary.regime_bounded
        # The printed period is 4 here, though the max-plus state of Q^-1
        # repeats with period 1 at 3a^2 = 1.
        assert table.summary.period == 4
        assert main(["growth", "--a2", "1/3", "--kmax", "10"]) == 0
        assert "\n# slope over last period (4): " in capsys.readouterr().out

    def test_psi_rate_floor(self):
        a2 = Fraction(1, 4)
        table = growth_table(30, a2)
        reference = (1 - a2) ** 2 / (12 * (1 + a2))
        assert table.summary.psi_rate_reference == reference
        assert table.summary.psi_rate_min >= reference

    def test_csv_shape_and_exactness(self, capsys):
        table = growth_table(6, Fraction(1, 5))
        assert main(["growth", "--kmax", "6", "--a2", "1/5", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [
            "k",
            "vQk",
            "vQk_dec",
            "vQnegk",
            "vQnegk_dec",
            "bound",
            "bound_dec",
            "omegaF",
            "omegaF_dec",
        ]
        assert len(rows) == 7
        k2 = rows[2]
        assert k2[0] == "2"
        assert Fraction(k2[1]) == table.rows[1].v_qk
        assert k2[7] == "4/5"


class TestCertificate:
    def test_examples(self):
        cert = r_tilde_certificate(Fraction(1, 2), 50)
        assert cert.min_bound == Fraction(1, 2)
        assert cert.attained_at == 2
        assert cert.matches_omega_f
        assert r_tilde_certificate(Fraction(1, 4), 50).min_bound == Fraction(3, 4)
        assert r_tilde_certificate(Fraction(3, 4), 50).min_bound == Fraction(1, 4)

    def test_minimum_over_nine_areas(self):
        for a2 in NINE_A2:
            cert = r_tilde_certificate(a2, 25)
            assert cert.min_bound == omega_f(a2)

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            r_tilde_certificate(Fraction(1, 2), 1)


class TestQElement:
    def test_valuation(self):
        m = model_blowup_cp2(Fraction(1, 4))
        assert valuation(q_element(m), m.omega) == Fraction(5, 16)

    def test_recomposition_matches_psi(self):
        # Multiplying Q^k afterwards by the unit times the delta exponential
        # gives the same element as powering the shifted generator.
        a2, k = Fraction(1, 5), 3
        m = model_blowup_cp2(a2)
        d = delta_constant(a2)
        shift = (-2 * d * k, d * k)
        recomposed = quantum_product(
            m, power(m, q_element(m), k), m.basis_element("1", shift)
        )
        assert recomposed == psi(k, a2).value


class TestLoopLengthsMeetBounds:
    """The explicit Hamiltonian's exact lengths equal the Seidel lower bounds."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_each_side_equals_its_valuation(self, k):
        for a2 in NINE_A2 + [Fraction(1, 3)]:
            lengths = lengths_blowup_loop(k, a2)
            assert lengths.plus + lengths.minus == two_sided_bound(k, a2)
            assert lengths.plus == ell_plus_lower_bound(k, a2)
            assert lengths.minus == ell_plus_lower_bound(-k, a2)

    def test_closed_forms(self):
        a2 = Fraction(1, 2)
        c = mean_radius_sq_exact(a2)
        assert c == Fraction(7, 9)
        two, one = lengths_blowup_loop(2, a2), lengths_blowup_loop(1, a2)
        assert (two.plus, two.minus) == (c - a2, 1 - c)
        assert (one.plus, one.minus) == (c / 2, 1 - c / 2)

    def test_floats_carry_pi(self):
        lengths = lengths_blowup_loop(2, Fraction(1, 4))
        assert isinstance(lengths.plus, Fraction)
        assert lengths.l_plus == math.pi * float(lengths.plus)
        assert lengths.total == math.pi * float(lengths.plus + lengths.minus)
        assert tuple(lengths) == (lengths.plus, lengths.minus)
        assert lengths._fields == ("plus", "minus")


_A2 = Fraction(1, 10)
_MODEL = model_blowup_cp2(_A2)
_Q = q_element(_MODEL)
_PATH = SampledPath([[0.0, 1.0, 0.5]] * 5)

# Each entry point with one integer argument; radial_mean needs at least 16
# nodes, so it reads 11 n.
INTEGER_ENTRY_POINTS = {
    "lattice walk": lambda n: valuation_walk(_MODEL, _Q, n),
    "max-plus sequence": lambda n: tropical_valuations(_MODEL, _Q, n),
    "ell_plus_lower_bound": lambda n: ell_plus_lower_bound(n, _A2),
    "power": lambda n: power(_MODEL, _Q, n),
    "model_cpn": lambda n: model_to_dict(model_cpn(n)),
    "psi": lambda n: psi(n, _A2),
    "two_sided_bounds": lambda n: two_sided_bounds(n, _A2),
    "growth_table": lambda n: growth_table(n, _A2),
    "r_tilde_certificate": lambda n: r_tilde_certificate(_A2, n),
    "radial_mean": lambda n: radial_mean(lambda s: s * s, _A2, 11 * n),
    "fixed_extremum_check": lambda n: fixed_extremum_check(_PATH, window=n),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_integer_arguments_are_not_truncated(entry):
    call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="expected an integer"):
        call(2.5)
    assert call(3.0) == call(3)


@pytest.mark.parametrize(
    "entry", [lengths_blowup_loop, psi, two_sided_bounds, ell_plus_lower_bound],
    ids=lambda f: f.__name__,
)
def test_loop_multiple_refuses_a_bool(entry):
    # True == 1, so reading k with == would return the k = 1 answer.
    with pytest.raises(ValueError, match="expected an integer, got True"):
        entry(True, Fraction(1, 4))
