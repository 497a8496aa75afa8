import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semitall import tensorcore
from semitall.recurrence import lambda_det, lambda_seq, rank_conditions
from semitall.tensorcore import make_base_tensor, pencil_eval

SQRT2 = 1.4142135623730951

finite_floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


class TestLambdaSeq:
    def test_m3_symbolic_unrolling(self):
        a1, a2 = 0.7, -1.3
        seq = lambda_seq([a1, a2], 4)
        assert np.allclose(seq, [0.0, 1.0, a2, a2**2 + a1])

    def test_m3_divisor_point(self):
        # a from the divisor y^2 - sqrt2 y + 1 of y^4 + 1
        seq = lambda_seq([-1.0, SQRT2], 6)
        assert np.allclose(seq, [0.0, 1.0, SQRT2, 1.0, 0.0, -1.0], atol=1e-12)
        assert abs(seq[4]) < 1e-12  # lambda_5
        assert abs(seq[5] + 1.0) < 1e-12  # lambda_6

    def test_m4_zero_parameters(self):
        seq = lambda_seq([0.0, 0.0, 0.0], 6)
        assert np.allclose(seq, [0, 0, 1, 0, 0, 0])

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            lambda_seq([1.0, 2.0], 1)

    @given(st.lists(finite_floats, min_size=2, max_size=5))
    @example([-2.9999999999999996, 3.0])  # lambda_37 cancels between terms of 3.9e8
    @example([2.0, 0.0, 0.0])  # zero pivots: the elimination swaps rows
    def test_determinant_matches_recurrence(self, a):
        r = lambda_seq(a, 40)
        d = lambda_det(a, 40)
        scale = np.maximum(1.0, np.abs(r))
        assert np.max(np.abs(r - d) / scale) < 1e-8

    def test_cancelling_term_is_rounded_once(self):
        # in floats, round-off of the terms feeding lambda_37 (up to 3.9e8)
        # moved it by ~1e-7 in either form; exactly it is -2.0645911e-6
        a = [-2.9999999999999996, 3.0]
        for form in (lambda_seq, lambda_det):
            assert abs(form(a, 40)[36] + 2.0645911e-6) < 1e-13

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            lambda_seq([np.nan, 1.0], 5)


class TestBuildN:
    """N, the pencil of the base tensor at (a, -1), which ``rank_conditions`` tests."""

    def test_divisor_point_rank_deficient(self):
        N = pencil_eval([-1.0, SQRT2, -1.0], make_base_tensor(3, 3))
        s = np.linalg.svd(N, compute_uv=False)
        assert s[-1] < 1e-10

    def test_non_divisor_full_rank(self):
        # h = y^2 does not divide y^4 + 1
        N = pencil_eval([0.0, 0.0, -1.0], make_base_tensor(3, 3))
        assert np.linalg.matrix_rank(N) == 3

    def test_cube_root_filter(self):
        # y^2 + y + 1 divides y^3 - 1, not y^5 + 1, so N is full rank
        N = pencil_eval([-1.0, -1.0, -1.0], make_base_tensor(3, 4))
        assert np.linalg.matrix_rank(N) == 4

    def test_structure_3_3(self):
        N = pencil_eval([2.0, 3.0, -1.0], make_base_tensor(3, 3))
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
        assert rep.flags == (True,) * 5

    def test_non_divisor_all_false(self):
        # y^2 - y - 1 does not divide y^4 + 1
        rep = rank_conditions([1.0, 1.0], 3, 3)
        assert rep.flags == (False,) * 5

    def test_even_even_has_no_real_divisor_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rep = rank_conditions(rng.standard_normal(3), 4, 4)
            assert not rep.flags[4]  # condition 5

    @pytest.mark.parametrize("m,n", DIVISOR_FORMATS)
    def test_equivalence_on_divisor_points(self, m, n):
        from semitall.polyfactor import divisor_points, real_divisors

        u = tensorcore.Format(m, n).u
        for point in divisor_points(real_divisors(u, m - 1)):
            a = point[: m - 1]
            rep = rank_conditions(a, m, n)
            assert rep.flags == (True,) * 5, (m, n, a, rep.flags)

    @pytest.mark.parametrize("m,n", DIVISOR_FORMATS)
    def test_equivalence_on_random_points(self, m, n):
        rng = np.random.default_rng((42, m, n))
        for _ in range(200):
            rep = rank_conditions(rng.standard_normal(m - 1), m, n)
            assert rep.flags == (False,) * 5, (m, n, rep.flags)

    def test_witnesses_shapes(self):
        rep = rank_conditions([0.3, -0.7, 1.1], 4, 5)
        assert len(rep.singular_values) == 5

