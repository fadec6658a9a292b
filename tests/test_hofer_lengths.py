"""Quadrature means, rotation-loop lengths, and the geodesic criterion."""

import json
import math
import random
from fractions import Fraction

import pytest

import qhofer.hofer_lengths as hl
from qhofer import (
    ExtremumReport,
    SampledPath,
    fixed_extremum_check,
    lengths_blowup_loop,
    mean_radius_sq,
    mean_radius_sq_exact,
    path_lengths,
    radial_loop_path,
    radial_mean,
)
from qhofer.cli import main
from helpers import NINE_A2, linspace, oracle_loop_lengths, outer


class TestRadialMean:
    def test_identity_profile_matches_closed_form(self):
        assert abs(radial_mean(lambda s: s, Fraction(1, 2), 10001) - 7 / 9) < 1e-10

    def test_constant_profile(self):
        assert abs(radial_mean(lambda s: 1.0, Fraction(1, 4), 2001) - 1.0) < 1e-12

    def test_centered_profile_has_zero_mean(self):
        for a2 in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5)):
            c = mean_radius_sq(a2, 10001)
            assert abs(radial_mean(lambda s: math.pi * (c - s), a2, 10001)) < 1e-10

    def test_closed_form_values(self):
        assert mean_radius_sq_exact(Fraction(1, 2)) == Fraction(7, 9)
        a2 = Fraction(1, 4)
        expected = 2 * (1 - a2**3) / (3 * (1 - a2**2))
        assert mean_radius_sq_exact(a2) == expected

    def test_quadrature_converges_to_closed_form(self):
        for a2 in (Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)):
            exact = float(mean_radius_sq_exact(a2))
            assert abs(mean_radius_sq(a2, 10**4) - exact) < 1e-10

    def test_even_point_count_is_bumped(self):
        a2 = Fraction(1, 3)
        assert radial_mean(lambda s: s * s, a2, 100) == radial_mean(lambda s: s * s, a2, 101)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            radial_mean(lambda s: s, Fraction(1, 2), 8)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            radial_mean(lambda s: s, Fraction(3, 2), 101)
        with pytest.raises(TypeError):
            radial_mean(lambda s: s, 0.25, 101)


class TestLoopLengths:
    def test_double_rotation_values(self):
        lengths = lengths_blowup_loop(2, Fraction(1, 2))
        assert abs(lengths.l_plus - 5 * math.pi / 18) < 1e-10
        assert abs(lengths.l_minus - 2 * math.pi / 9) < 1e-10
        assert abs(lengths.total - math.pi / 2) < 1e-12

    def test_total_matches_fiber_area(self):
        for a2 in NINE_A2:
            lengths = lengths_blowup_loop(2, a2)
            assert abs(lengths.total / math.pi - float(1 - a2)) < 1e-12

    def test_single_rotation_total_is_pi(self):
        for a2 in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            lengths = lengths_blowup_loop(1, a2)
            assert abs(lengths.total - math.pi) < 1e-12

    def test_single_rotation_split(self):
        # The shell average of -pi |z1|^2 is -pi s / 2, so the positive part
        # is pi c / 2 with c the radial mean of s.
        a2 = Fraction(1, 2)
        c = mean_radius_sq(a2, 4097)
        lengths = lengths_blowup_loop(1, a2)
        assert abs(lengths.l_plus - math.pi * c / 2) < 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_lengths_match_quadrature_oracle(self, k):
        for a2 in NINE_A2:
            l_plus, l_minus = oracle_loop_lengths(k, a2)
            lengths = lengths_blowup_loop(k, a2)
            assert abs(lengths.l_plus - l_plus) < 1e-10
            assert abs(lengths.l_minus - l_minus) < 1e-10

    def test_iterable_pair(self):
        l_plus, l_minus = lengths_blowup_loop(2, Fraction(1, 4))
        assert l_plus >= 0 and l_minus >= 0

    def test_unsupported_loop_rejected(self):
        with pytest.raises(ValueError):
            lengths_blowup_loop(3, Fraction(1, 2))
        with pytest.raises(ValueError):
            lengths_blowup_loop(2, Fraction(3, 2))


class TestSampledPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledPath([[1.0, 2.0]])  # single time slice
        with pytest.raises(ValueError):
            SampledPath([[1.0], [2.0]])  # single sample point
        with pytest.raises(ValueError):
            SampledPath([[1, 2], [3, 4]], weights=[1.0])
        with pytest.raises(ValueError):
            SampledPath([[1, 2], [3, 4]], weights=[-1.0, 0.5])
        with pytest.raises(ValueError):
            SampledPath([[1, 2], [3, 4]], time_step=0.0)

    def test_default_parametrization(self):
        p = SampledPath([[0.0] * 3] * 5)
        assert abs(p.time_step - 0.25) < 1e-15
        assert abs(sum(p.weights) - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "values",
        [[1.0, 2.0, 3.0], [[1.0, 2.0], [3.0]], [[[1.0, 2.0]], [[3.0, 4.0]]], ["12", "34"], 3.0],
        ids=["1d", "ragged", "3d", "text-rows", "scalar"],
    )
    def test_grid_must_be_rectangular_2d(self, values):
        with pytest.raises(ValueError, match="rectangular 2d grid"):
            SampledPath(values)

    # float() would read "1_0" as 10.0 and True as 1.0; nan and inf are no samples.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SampledPath([["1_0", "2"], ["3", "4"]]),
            lambda: SampledPath([[True, 0.0], [1.0, 0.0]]),
            lambda: SampledPath([[1, 2], [3, 4]], time_step="1_0"),
            lambda: SampledPath([[1, 2], [3, 4]], time_step=True),
            lambda: SampledPath([[1, 2], [3, 4]], time_step=math.inf),
            lambda: SampledPath([[1, 2], [3, 4]], weights=["1", "1"]),
            lambda: fixed_extremum_check(SampledPath([[0.0, 1.0]] * 3), atol=math.nan),
            lambda: fixed_extremum_check(SampledPath([[0.0, 1.0]] * 3), atol=-1.0),
        ],
        ids=["underscore-cell", "bool-cell", "text-step", "bool-step", "infinite-step",
             "text-weights", "nan-atol", "negative-atol"],
    )
    def test_samples_are_finite_numbers(self, build):
        with pytest.raises(ValueError):
            build()

    def test_any_2d_iterable(self):
        p = SampledPath(((i, i + 1) for i in range(3)), weights=iter([1, 3]))
        assert p.values == ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))
        assert p.weights == (1.0, 3.0)
        assert all(isinstance(v, float) for row in p.values for v in row)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("0,1,2\n3,4,5\n")
        p = SampledPath.from_csv(path)
        assert len(p.values) == 2 and len(p.values[0]) == 3
        assert p.values[1][2] == 5.0

    def test_csv_weights_row(self, tmp_path):
        path = tmp_path / "weighted.csv"
        path.write_text("weights,1,1,2\n0,1,0\n0,1,0\n")
        p = SampledPath.from_csv(path)
        assert len(p.values) == 2 and len(p.values[0]) == 3
        assert list(p.weights) == [1.0, 1.0, 2.0]

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("\n0,1\n , \n\n0,1\n")
        assert SampledPath.from_csv(path).values == ((0.0, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("weights", ["", "weights,1,1,2\n"], ids=["uniform", "weights-row"])
    def test_csv_cells_are_checked_once(self, tmp_path, monkeypatch, weights):
        # The reading loop checks each grid row; the constructor's cell check is not run again.
        calls = []
        check = hl._floats
        monkeypatch.setattr(hl, "_floats", lambda *a: calls.append(a) or check(*a))
        path = tmp_path / "grid.csv"
        path.write_text(weights + "0,1,0\n" * 40)
        assert len(SampledPath.from_csv(path).values) == 40
        assert [problem for _, problem in calls] == [
            "time step must be a positive number",
            *["weights must list one value per sample point"] * bool(weights),
        ]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1,,3\n4,,6\n", 1),
            ("1,2,3\n\n4,5, \n", 3),
            ("1,2\n3,4,\n", 2),
            ("weights,1,,1\n0,1,0\n0,1,0\n", 1),
        ],
        ids=["middle", "blank-cell-after-blank-line", "trailing", "weights-row"],
    )
    def test_csv_empty_cell_rejected(self, tmp_path, text, line):
        # Dropping the cell would shift later columns and misname witnesses.
        path = tmp_path / "holes.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"holes.csv: empty cell in row {line}$"):
            SampledPath.from_csv(path)

    @pytest.mark.parametrize(
        "text, cell", [("1_0,2\n3,4\n", "1_0"), ("\uff11\uff12,2\n3,4\n", "\uff11\uff12")],
        ids=["underscore", "fullwidth"],
    )
    def test_csv_cell_float_would_coerce_rejected(self, tmp_path, text, cell):
        # float() reads these as 10.0 and 12.0, a grid the file does not hold.
        path = tmp_path / "coerced.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"coerced.csv: non-numeric cell '{cell}' in row 1$"):
            SampledPath.from_csv(path)

    def test_csv_errors(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2\n1,2,3\n")
        with pytest.raises(ValueError, match="ragged"):
            SampledPath.from_csv(ragged)
        words = tmp_path / "words.csv"
        words.write_text("a,b\nc,d\n")
        with pytest.raises(ValueError, match="non-numeric"):
            SampledPath.from_csv(words)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            SampledPath.from_csv(empty)


class TestPathLengths:
    def test_constant_in_space(self):
        values = outer(linspace(0, 1, 6), [1.0] * 4)
        lengths = path_lengths(SampledPath(values))
        assert lengths == (0.0, 0.0, 0.0)

    def test_separable_two_point(self):
        values = [[0.0, 1.0]] * 3
        lengths = path_lengths(SampledPath(values))
        assert abs(lengths.l_plus - 0.5) < 1e-15
        assert abs(lengths.l_minus - 0.5) < 1e-15

    def test_negation_swaps_sides(self):
        rng = random.Random(31)
        values = [[rng.gauss(0.0, 1.0) for _ in range(5)] for _ in range(7)]
        weights = [rng.uniform(0.5, 1.5) for _ in range(5)]
        forward = path_lengths(SampledPath(values, weights=weights))
        negated = [[-v for v in row] for row in values]
        backward = path_lengths(SampledPath(negated, weights=weights))
        assert abs(forward.l_plus - backward.l_minus) < 1e-12
        assert abs(forward.l_minus - backward.l_plus) < 1e-12
        assert abs(forward.total - backward.total) < 1e-12

    def test_weights_shift_the_mean(self):
        values = [[0.0, 1.0]] * 2
        uniform = path_lengths(SampledPath(values))
        tilted = path_lengths(SampledPath(values, weights=[3.0, 1.0]))
        assert tilted.l_plus > uniform.l_plus

    def test_refinement_invariance(self):
        # Positive separable path: per-slice extrema follow the time factor
        # linearly, so the trapezoid integral is unchanged by refinement.
        g = [0.3, -1.2, 0.7, 2.0, -0.5]
        coarse = SampledPath(outer([1 + t for t in linspace(0, 1, 9)], g))
        fine = SampledPath(outer([1 + t for t in linspace(0, 1, 17)], g))
        a, b = path_lengths(coarse), path_lengths(fine)
        assert abs(a.total - b.total) < 1e-9

    def test_one_sided_lengths_nonnegative(self):
        rng = random.Random(37)
        for _ in range(50):
            rows, cols = rng.randint(2, 8), rng.randint(2, 8)
            values = [[rng.gauss(0.0, 1.0) for _ in range(cols)] for _ in range(rows)]
            lengths = path_lengths(SampledPath(values))
            assert lengths.l_plus >= 0 and lengths.l_minus >= 0


class TestFixedExtremum:
    def test_autonomous_path(self):
        rng = random.Random(41)
        profile = [rng.gauss(0.0, 1.0) for _ in range(8)]
        p = SampledPath([profile] * 6)
        report = fixed_extremum_check(p, window=3)
        assert report.has_fixed_max_each_moment
        assert report.has_fixed_min_each_moment
        assert report.max_witnesses[0] == profile.index(max(profile))
        assert report.min_witnesses[0] == profile.index(min(profile))

    def test_crossing_path_fails(self):
        # H_t = (1-t) g + t (-g): the maximizer jumps across t = 1/2.
        g = [0.0, 1.0, 0.0, -1.0]
        values = [[(1 - t) * x + t * -x for x in g] for t in linspace(0, 1, 5)]
        report = fixed_extremum_check(SampledPath(values), window=5)
        assert not report.has_fixed_max_each_moment
        assert not report.has_fixed_min_each_moment

    def test_rotation_profile_passes(self):
        p = radial_loop_path(Fraction(1, 2), n_time=8, n_space=33)
        report = fixed_extremum_check(p, window=2)
        assert report.has_fixed_max_each_moment
        assert report.has_fixed_min_each_moment
        # The profile decreases in s: max on the innermost shell, min outside.
        assert set(report.max_witnesses) == {0}
        assert set(report.min_witnesses) == {32}

    def test_window_one_always_succeeds(self):
        rng = random.Random(43)
        p = SampledPath([[rng.gauss(0.0, 1.0) for _ in range(4)] for _ in range(5)])
        report = fixed_extremum_check(p, window=1)
        assert report.has_fixed_max_each_moment
        assert report.has_fixed_min_each_moment
        assert len(report.max_witnesses) == 5

    def test_window_clamped_to_path(self):
        p = SampledPath([[0.0, 1.0]] * 3)
        report = fixed_extremum_check(p, window=10)
        assert report.window == 3
        assert len(report.max_witnesses) == 1

    def test_default_window_is_two(self):
        p = SampledPath([[0.0, 1.0]] * 5)
        report = fixed_extremum_check(p)
        assert report == fixed_extremum_check(p, window=2)
        assert report.window == 2 and report.max_witnesses == (1, 1, 1, 1)

    def test_window_validated(self):
        p = SampledPath([[0.0, 0.0]] * 2)
        with pytest.raises(ValueError):
            fixed_extremum_check(p, window=0)

    def test_atol_absorbs_jitter(self):
        # One slice hands the max to a different point by a hair; a small
        # tolerance keeps the original witness.
        noisy = [[0.0, 1.0, 0.5] for _ in range(4)]
        noisy[2][1] = 1.0 - 1e-15
        noisy[2][2] = 1.0
        strict = fixed_extremum_check(SampledPath(noisy), window=4, atol=0.0)
        loose = fixed_extremum_check(SampledPath(noisy), window=4, atol=1e-12)
        assert not strict.has_fixed_max_each_moment
        assert loose.has_fixed_max_each_moment

    @pytest.mark.parametrize("atol", [0.0, 0.5])
    def test_ties_go_to_the_least_index(self, atol):
        # Columns 1 and 2 tie for the max on every slice, 0 and 3 for the min.
        values = [[0.0, 2.0, 2.0, 0.0], [-1.0, 3.0, 3.0, -1.0], [1.0, 5.0, 5.0, 1.0]]
        report = fixed_extremum_check(SampledPath(values), window=2, atol=atol)
        assert report.max_witnesses == (1, 1)
        assert report.min_witnesses == (0, 0)

    def test_report_serializes(self, capsys, tmp_path, monkeypatch):
        # geocheck labels the report with the path it read.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "demo").write_text("0.0,1.0\n" * 3)
        assert main(["geocheck", "demo"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["label"] == "demo"
        assert data["has_fixed_max_each_moment"] is True
        assert data["max_witnesses"] == [1, 1]


class TestRecords:
    """The float records: frozen, compared by class and fields, with the repr
    and the JSON key order they had as dataclasses."""

    def test_extremum_report(self):
        report = fixed_extremum_check(SampledPath([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]], label="g"))
        assert repr(report) == (
            "ExtremumReport(window=2, has_fixed_max_each_moment=True, "
            "has_fixed_min_each_moment=True, max_witnesses=(0,), min_witnesses=(2,), label='g')"
        )
        fields = (2, True, True, (0,), (2,))
        assert report == ExtremumReport(*fields, label="g")
        assert report != ExtremumReport(*fields)

        class Copy(ExtremumReport):
            __slots__ = ()

        assert report != Copy(*fields, label="g")
        with pytest.raises(AttributeError):
            report.window = 3
        assert list(report.to_dict()) == [
            "label", "window", "has_fixed_max_each_moment", "has_fixed_min_each_moment",
            "max_witnesses", "min_witnesses",
        ]
