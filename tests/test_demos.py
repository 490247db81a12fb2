"""Worked examples: shift forcing, index-map formulas, reciprocal squares."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import submaj.demos
from submaj.demos import (
    ForcingResult,
    ReciprocalSquareReport,
    constant_row_support_index,
    display_spec,
    quadratic_family,
    reciprocal_square_example,
    shift_forcing,
    theta_quadratic,
    theta_triangular,
    triangular_family,
)
from submaj.config import DEFAULT_CLASS_TOL
from submaj.matrices import shift_matrix
from submaj.preservers import TruncatedOperator
from submaj.relations import check_weak_majorize
from submaj.vectors import NonNegVector

import oracles

V = NonNegVector.of


class TestShiftForcing:
    def test_three_dim_reciprocal_squares(self):
        result = shift_forcing(V(1, 1 / 4, 1 / 9))
        assert result.forced.to_dense().tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert result.fully_determined
        assert result.conclusion == "equals-right-shift"

    def test_structure_is_data_independent(self):
        result = shift_forcing(V(3, 2, 1))
        assert np.array_equal(result.forced.to_dense(), shift_matrix(3, "right").data)

    def test_rejects_non_strict_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            shift_forcing(V(1, 1))

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError, match="positive"):
            shift_forcing(V(1, 0.5, 0))

    def test_degenerate_single_coordinate(self):
        result = shift_forcing(V(2))
        assert result.forced.to_dense().tolist() == [[0]]
        assert result.fully_determined

    def test_scales_without_a_dense_grid(self):
        n = 100_000
        g = NonNegVector(np.arange(n, 0, -1, dtype=float))
        tracemalloc.start()
        try:
            result = shift_forcing(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.fully_determined and result.conclusion == "equals-right-shift"
        assert len(result.forced.entries) == n - 1 and result.forced.entries[(n, n - 1)] == 1.0
        assert peak < 1e-3 * n * n * 8  # one n x n float grid would need 80 GB

    def test_matches_grid_propagation(self):
        # Propagating the pinned entries over an n x n grid forces, for any
        # strictly decreasing positive g, the right shift: ones at (k + 1, k),
        # in row order, and nothing else, fully determined.
        rng = np.random.default_rng(42)
        dims = [1, 2, 3] + [int(n) for n in rng.integers(4, 120, 40)]
        for n in dims:
            g = NonNegVector(np.cumsum(rng.uniform(1e-6, 2.0, n))[::-1].copy())
            result = shift_forcing(g)
            assert list(result.forced.entries.items()) == [((k + 1, k), 1.0) for k in range(1, n)]
            assert result.forced.rows == result.forced.cols == n
            assert (result.fully_determined, result.conclusion) == (True, "equals-right-shift")

    def test_matches_right_shift_for_many_dims(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 51))
            g = NonNegVector(np.sort(rng.uniform(0.01, 1, n))[::-1] + np.arange(n, 0, -1))
            result = shift_forcing(g)
            assert np.array_equal(result.forced.to_dense(), shift_matrix(n, "right").data)


class TestThetaFormulas:
    @pytest.mark.parametrize("i,j,expected", [(1, 1, 2), (2, 1, 4), (1, 3, 5), (5, 1, 16)])
    def test_quadratic_values(self, i, j, expected):
        assert theta_quadratic(i, j) == expected

    @pytest.mark.parametrize("i,j,expected", [(1, 1, 1), (2, 1, 4), (1, 2, 3), (2, 4, 16)])
    def test_triangular_values(self, i, j, expected):
        assert theta_triangular(i, j) == expected

    @pytest.mark.parametrize("i,expected", [(1, 2), (2, 5), (3, 9), (4, 14)])
    def test_constant_row_support(self, i, expected):
        assert constant_row_support_index(i) == expected

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            theta_quadratic(0, 1)
        with pytest.raises(ValueError):
            theta_triangular(1, 0)
        with pytest.raises(ValueError):
            constant_row_support_index(0)

    def test_images_disjoint_small_bound(self):
        for family_fn in (quadratic_family, triangular_family):
            seen = set()
            for member in family_fn(8, 30).members:
                image = set(member.mapping)
                assert not (seen & image)
                seen |= image

    def test_triangular_images_avoid_constant_row_support(self):
        support = {constant_row_support_index(i) for i in range(1, 50)}
        family = triangular_family(8, 30)
        for member in family.members:
            assert not (support & set(member.mapping))

    def test_display_spec_rejects_unknown_operator(self):
        with pytest.raises(ValueError, match="unknown display matrix"):
            display_spec("T2", (0.5,), 1.0, (0.5,), 16, 5)


class TestReciprocalSquareExample:
    def test_n4_report(self):
        report = reciprocal_square_example(4)
        assert report.f.values.tolist() == [1, 1 / 4, 1 / 9, 1 / 16]
        assert report.g.values.tolist() == [0, 1, 1 / 4, 1 / 9]
        assert report.right_shift_witness_exact
        assert report.weak_g_under_f_holds
        assert not report.weak_f_under_g_holds  # the truncation loses the tail
        assert report.left_shift_window_exact
        assert report.partial_matched_support == (1, 2, 3)
        assert report.strict_perm_with_zero_pad is not None
        assert report.infinite_range_excludes_zero

    def test_shift_witness_is_checked_against_an_independent_shift(self, monkeypatch):
        # g is built through shift_forcing, so the check must not go through it.
        def left_shift(g):
            k = np.arange(1, g.dim)
            left = TruncatedOperator._from_cells(g.dim, g.dim, k, k + 1, np.ones(g.dim - 1))
            return ForcingResult(forced=left, fully_determined=True, conclusion="left")

        monkeypatch.setattr(submaj.demos, "shift_forcing", left_shift)
        assert not reciprocal_square_example(4).right_shift_witness_exact

    def test_reports_equal_the_dense_shift_reference_bitwise(self):
        for n in range(1, 301):
            new, old = reciprocal_square_example(n), oracles.reciprocal_square_report(n, DEFAULT_CLASS_TOL)
            for field in dataclasses.fields(ReciprocalSquareReport):
                a, b = getattr(new, field.name), getattr(old, field.name)
                if isinstance(a, NonNegVector):
                    assert a.values.tobytes() == b.values.tobytes(), (n, field.name)
                elif isinstance(a, float):
                    assert np.float64(a).tobytes() == np.float64(b).tobytes(), (n, field.name)
                else:
                    assert type(a) is type(b) and a == b, (n, field.name)

    def test_scales_without_dense_shifts(self):
        tracemalloc.start()
        try:
            report = reciprocal_square_example(20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.right_shift_witness_exact and report.left_shift_window_exact
        assert peak < 32 * 2**20  # the two dense shifts would need 2 x 3 GiB

    def test_literal_weak_check_holds_once_the_last_value_falls_within_tol(self):
        # 1/31622^2 exceeds the absolute tol 1e-9 and 1/31623^2 does not:
        # fault 2b's absolute-tol form.  The failing position lies past the
        # decision's first block edge.
        for n, holds in ((31622, False), (31623, True)):
            report = reciprocal_square_example(n)
            assert report.weak_f_under_g_holds is holds
            verdict = check_weak_majorize(report.f, report.g, with_witness=False)
            assert (verdict.holds, verdict.failed_index) == (holds, None if holds else n)
            assert report.weak_g_under_f_holds and report.left_shift_window_exact

    def test_n2_window(self):
        report = reciprocal_square_example(2)
        assert report.g.values.tolist() == [0, 1]
        assert report.weak_g_under_f_holds
        assert report.left_shift_window_exact
        assert report.partial_matched_support == (1,)

    def test_n1_degenerate(self):
        report = reciprocal_square_example(1)
        assert report.g.values.tolist() == [0]
        assert report.weak_g_under_f_holds
        assert not report.weak_f_under_g_holds
        assert report.partial_matched_support == ()

    def test_rejects_zero_truncation(self):
        with pytest.raises(ValueError):
            reciprocal_square_example(0)

    def test_boundary_defect_shrinks(self):
        defects = [reciprocal_square_example(n).window_boundary_defect for n in (2, 5, 10, 20)]
        assert all(a > b for a, b in zip(defects, defects[1:]))
