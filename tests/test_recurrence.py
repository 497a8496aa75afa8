import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semitall import recurrence, tensorcore
from semitall.recurrence import (
    DETERMINANT,
    RECURRENCE,
    build_N,
    lambda_seq,
    rank_conditions,
)

SQRT2 = 1.4142135623730951

finite_floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


class TestLambdaSeq:
    def test_m3_symbolic_unrolling(self):
        a1, a2 = 0.7, -1.3
        seq = lambda_seq([a1, a2], 4)
        assert np.allclose(seq.values, [0.0, 1.0, a2, a2**2 + a1])

    def test_m3_divisor_point(self):
        # a from the divisor y^2 - sqrt2 y + 1 of y^4 + 1
        seq = lambda_seq([-1.0, SQRT2], 6)
        assert np.allclose(seq.values, [0.0, 1.0, SQRT2, 1.0, 0.0, -1.0], atol=1e-12)
        assert abs(seq.value(5)) < 1e-12
        assert abs(seq.value(6) + 1.0) < 1e-12

    def test_m4_zero_parameters(self):
        seq = lambda_seq([0.0, 0.0, 0.0], 6)
        assert np.allclose(seq.values, [0, 0, 1, 0, 0, 0])

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            lambda_seq([1.0, 2.0], 1)

    def test_value_accessor_bounds(self):
        seq = lambda_seq([1.0, 1.0], 5)
        with pytest.raises(IndexError):
            seq.value(6)

    @given(st.lists(finite_floats, min_size=2, max_size=5))
    @example([-2.9999999999999996, 3.0])  # lambda_37 cancels between terms of 3.9e8
    @example([2.0, 0.0, 0.0])  # zero pivots: the elimination swaps rows
    def test_determinant_matches_recurrence(self, a):
        r = lambda_seq(a, 40, mode=RECURRENCE).values
        d = lambda_seq(a, 40, mode=DETERMINANT).values
        scale = np.maximum(1.0, np.abs(r))
        assert np.max(np.abs(r - d) / scale) < 1e-8

    def test_cancelling_term_is_rounded_once(self):
        # in floats, round-off of the terms feeding lambda_37 (up to 3.9e8)
        # moved it by ~1e-7 in either mode; exactly it is -2.0645911e-6
        a = [-2.9999999999999996, 3.0]
        for mode in (RECURRENCE, DETERMINANT):
            assert abs(lambda_seq(a, 40, mode=mode).value(37) + 2.0645911e-6) < 1e-13

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            lambda_seq([np.nan, 1.0], 5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            lambda_seq([1.0, 1.0], 5, mode="symbolic")


class TestBuildN:
    def test_divisor_point_rank_deficient(self):
        N = build_N([-1.0, SQRT2, -1.0], 3, 3)
        s = np.linalg.svd(N, compute_uv=False)
        assert s[-1] < 1e-10

    def test_non_divisor_full_rank(self):
        # h = y^2 does not divide y^4 + 1
        N = build_N([0.0, 0.0, -1.0], 3, 3)
        assert np.linalg.matrix_rank(N) == 3

    def test_cube_root_filter(self):
        # y^2 + y + 1 divides y^3 - 1, not y^5 + 1, so N is full rank
        N = build_N([-1.0, -1.0, -1.0], 3, 4)
        assert np.linalg.matrix_rank(N) == 4

    def test_chart_violation(self):
        with pytest.raises(ValueError):
            build_N([1.0, 2.0, 1.0], 3, 3)

    @given(st.lists(finite_floats, min_size=2, max_size=4), st.integers(0, 3))
    def test_matches_pencil_of_base_tensor(self, a, extra):
        m = len(a) + 1
        n = m + extra
        a_full = np.append(a, -1.0)
        N = build_N(a_full, m, n)
        B = tensorcore.make_base_tensor(m, n)
        assert np.allclose(N, tensorcore.pencil_eval(a_full, B), atol=1e-13)

    def test_structure_3_3(self):
        N = build_N([2.0, 3.0, -1.0], 3, 3)
        expected = np.array([
            [2.0, 0.0, 1.0],
            [3.0, 2.0, 0.0],
            [-1.0, 3.0, 2.0],
            [0.0, -1.0, 3.0],
        ])
        assert np.array_equal(N, expected)


DIVISOR_FORMATS = [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)]


class TestRankConditions:
    def test_divisor_point_all_true(self):
        rep = rank_conditions([-1.0, SQRT2], 3, 3)
        assert rep.all_true and rep.all_agree

    def test_non_divisor_all_false(self):
        # y^2 - y - 1 does not divide y^4 + 1
        rep = rank_conditions([1.0, 1.0], 3, 3)
        assert rep.all_false and rep.all_agree

    def test_even_even_has_no_real_divisor_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rep = rank_conditions(rng.standard_normal(3), 4, 4)
            assert not rep.c5

    @pytest.mark.parametrize("m,n", DIVISOR_FORMATS)
    def test_equivalence_on_divisor_points(self, m, n):
        from semitall.polyfactor import divisor_to_point, real_divisors

        u = m + n - 2
        for h in real_divisors(u, m - 1):
            a = divisor_to_point(h, m)[: m - 1]
            rep = rank_conditions(a, m, n)
            assert rep.all_true, (m, n, a, rep.flags())

    @pytest.mark.parametrize("m,n", DIVISOR_FORMATS)
    def test_equivalence_on_random_points(self, m, n):
        rng = np.random.default_rng((42, m, n))
        for _ in range(200):
            rep = rank_conditions(rng.standard_normal(m - 1), m, n)
            assert rep.all_false, (m, n, rep.flags())

    def test_witnesses_shapes(self):
        rep = rank_conditions([0.3, -0.7, 1.1], 4, 5)
        assert rep.minors.shape == (3,)
        assert rep.lambda_tail.shape == (3,)
        assert len(rep.singular_values) == 5

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_conditions([1.0, 1.0], 3, 3, tol=0.0)

