import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semitall import tensorcore
from semitall.errors import ChartViolationError
from semitall.tensorcore import (
    Format,
    Tensor3,
    fl1,
    fl2,
    load_tensor,
    make_base_tensor,
    make_start_frame,
    mu,
    nu,
    pencil_eval,
    psi,
    save_tensor,
    sigma,
    span_dim,
    tau,
)

small_dims = st.integers(1, 4)


class TestFormat:
    def test_derived_dimensions(self):
        fmt = Format(3, 5)
        assert (fmt.p, fmt.u) == (9, 6)
        assert fmt.m * fmt.n == fmt.p + fmt.u

    @pytest.mark.parametrize("m,n", [(2, 5), (4, 3), (1, 1)])
    def test_invalid(self, m, n):
        with pytest.raises(ValueError):
            Format(m, n)

    @pytest.mark.parametrize("m,n", [(3.0, 5), (3, 5.5), ("3", 5)])
    def test_non_integer_rejected(self, m, n):
        with pytest.raises(ValueError, match="m and n must be integers"):
            Format(m, n)


class TestFlatten:
    def test_fl1_example(self):
        data = np.zeros((2, 2, 2))
        data[:, :, 0] = np.eye(2)
        T = Tensor3(data)
        assert np.array_equal(fl1(T), np.hstack([np.eye(2), np.zeros((2, 2))]))

    def test_rank_one_tensor_flattens_to_rank_one(self):
        rng = np.random.default_rng(0)
        x, y, z = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        T = Tensor3(np.einsum("i,j,k->ijk", x, y, z))
        assert np.linalg.matrix_rank(fl1(T)) == 1
        assert np.linalg.matrix_rank(fl2(T)) == 1

    def test_base_tensor_fl1_blocks(self):
        T = make_base_tensor(3, 3)
        F1 = fl1(T)
        assert F1.shape == (4, 9)
        for k in range(3):
            assert np.array_equal(F1[:, 3 * k : 3 * (k + 1)], T.data[:, :, k])

    @given(small_dims, small_dims, small_dims, st.randoms(use_true_random=False))
    def test_round_trip_both_modes(self, d1, d2, d3, rnd):
        # entry (i, j, k) sits at fl1[i, k*d2 + j] and at fl2[k*d1 + i, j]:
        # each flattening places every entry once, so it inverts
        rng = np.random.default_rng(rnd.randrange(2**31))
        T = Tensor3(rng.standard_normal((d1, d2, d3)))
        F1, F2 = fl1(T), fl2(T)
        assert F1.shape == (d1, d2 * d3) and F2.shape == (d1 * d3, d2)
        for i, j, k in np.ndindex(d1, d2, d3):
            assert F1[i, k * d2 + j] == T.data[i, j, k]
            assert F2[k * d1 + i, j] == T.data[i, j, k]


class TestBaseTensor:
    def test_3_3_slices(self):
        T = make_base_tensor(3, 3)
        A1, A2, A3 = np.moveaxis(T.data, 2, 0)
        assert np.array_equal(A1, np.vstack([np.eye(3), np.zeros((1, 3))]))
        assert np.array_equal(A2, np.vstack([np.zeros((1, 3)), np.eye(3)]))
        expected = np.zeros((4, 3))
        expected[0, 2] = -1.0
        expected[2, 0] = 1.0
        expected[3, 1] = 1.0
        assert np.array_equal(A3, expected)

    def test_3_4_shape(self):
        T = make_base_tensor(3, 4)
        assert T.shape == (5, 4, 3)

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 6), (4, 5), (5, 5), (6, 8)])
    def test_entries_and_column_counts(self, m, n):
        T = make_base_tensor(m, n)
        assert set(np.unique(T.data)) <= {-1.0, 0.0, 1.0}
        for k in range(m - 1):
            assert np.count_nonzero(T.data[:, :, k]) == n


class TestStartFrame:
    def test_3_3_reordering(self):
        frame = make_start_frame(3, 3)
        A = make_base_tensor(3, 3).data
        swap = [3, 0, 1, 2]  # rows n+1..u to the front
        assert np.array_equal(frame.Aprime.data[:, :, 0], A[swap, :, 2])
        assert np.array_equal(frame.Aprime.data[:, :, 1], -A[swap, :, 1])
        assert np.array_equal(frame.Aprime.data[:, :, 2], -A[swap, :, 0])

    def test_4_4_block_swap(self):
        frame = make_start_frame(4, 4)
        assert np.array_equal(frame.Aprime.data, reordered(4, 4)[[4, 5, 0, 1, 2, 3]])

    @pytest.mark.parametrize("m", range(3, 9))
    def test_trailing_identity_exact(self, m):
        for n in range(m, 9):
            fmt = Format(m, n)
            frame = make_start_frame(m, n)
            F1 = fl1(frame.Aprime)
            assert np.array_equal(F1[:, fmt.p :], -np.eye(fmt.u))
            swap = list(range(n, fmt.u)) + list(range(n))
            trailing = fl1(Tensor3(reordered(m, n)))[:, fmt.p :]
            assert np.array_equal(trailing[swap], -np.eye(fmt.u))

    def test_w0_reproduces_aprime(self):
        fmt = Format(4, 5)
        frame = make_start_frame(4, 5)
        assert np.array_equal(mu(frame.W0, fmt).data, frame.Aprime.data)

    def test_pencil_identity_under_reordering(self):
        # M(x', A') equals M(x, A) with its rows permuted, under the index/sign remap
        m, n = 4, 5
        frame = make_start_frame(m, n)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(m)
        order = tensorcore.slice_reorder(m)
        xprime = np.empty(m)
        for j, (src, sign) in enumerate(order):
            xprime[j] = sign * x[src]
        left = pencil_eval(xprime, frame.Aprime)
        swap = list(range(n, Format(m, n).u)) + list(range(n))
        right = pencil_eval(x, make_base_tensor(m, n))[swap]
        assert np.allclose(left, right)


def reordered(m, n):
    # the base tensor with its slices reordered, rows not yet permuted
    A = make_base_tensor(m, n).data
    return np.stack([s * A[:, :, src] for (src, s) in tensorcore.slice_reorder(m)], axis=2)


class TestTransferMaps:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 5)])
    def test_round_trips(self, m, n):
        fmt = Format(m, n)
        rng = np.random.default_rng((99, m, n))
        for _ in range(100):
            W = rng.standard_normal((fmt.u, fmt.p))
            assert np.max(np.abs(sigma(tau(W, fmt)) - W)) < 1e-10
            assert np.max(np.abs(nu(mu(W, fmt)) - W)) < 1e-10

    def test_tau_of_zero(self):
        fmt = Format(3, 3)
        T = tau(np.zeros((fmt.u, fmt.p)), fmt)
        F2 = fl2(T)
        assert np.array_equal(F2[: fmt.p], np.eye(fmt.p))
        assert np.array_equal(F2[fmt.p :], np.zeros((fmt.u, fmt.p)))

    def test_mu_of_zero(self):
        fmt = Format(3, 3)
        Y = mu(np.zeros((fmt.u, fmt.p)), fmt)
        F1 = fl1(Y)
        assert np.array_equal(F1[:, : fmt.p], np.zeros((fmt.u, fmt.p)))
        assert np.array_equal(F1[:, fmt.p :], -np.eye(fmt.u))

    def test_sigma_chart_violation(self):
        fmt = Format(3, 3)
        T = Tensor3(np.zeros((fmt.n, fmt.p, fmt.m)))
        T.data[:, :, 1:] = 1.0  # the leading p x p block of fl2 has rank 1
        with pytest.raises(ChartViolationError):
            sigma(T)

    def test_nu_chart_violation(self):
        fmt = Format(3, 3)
        Y = Tensor3(np.ones((fmt.u, fmt.n, fmt.m)))
        Y.data[:, 1:, 2] = 0.0  # the trailing u x u block of fl1 has rank 1
        with pytest.raises(ChartViolationError):
            nu(Y)

    def test_lapack_calls_match_numpy_linalg(self):
        # the chart map, the span and certify's degeneracy test call the
        # LAPACK gufuncs directly: bit for bit np.linalg.solve and
        # np.linalg.svd, and np.linalg.cond's refusals
        rng = np.random.default_rng(61)
        stack = rng.standard_normal((4, 6, 5))
        assert np.array_equal(tensorcore._singular_values(stack), np.linalg.svd(stack, compute_uv=False))
        block, rhs = rng.standard_normal((7, 7)), rng.standard_normal((7, 3))
        assert np.array_equal(tensorcore._guarded_solve(block.T, rhs, "x"), np.linalg.solve(block.T, rhs))
        singular = np.diag([1.0, 1.0, 1e-13])
        for bad, cond in ((singular, "1.000e+13"), (np.zeros((3, 3)), "inf")):
            assert f"{np.linalg.cond(bad):.3e}" == cond
            message = f"x block has condition number {cond} beyond 1.0e+12"
            with pytest.raises(ChartViolationError, match=f"^{re.escape(message)}$"):
                tensorcore._guarded_solve(bad, np.ones((3, 1)), "x")
        nan = np.full((3, 3), np.nan)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            np.linalg.cond(nan)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            tensorcore._guarded_solve(nan, np.ones((3, 1)), "x")

    def test_shape_guards(self):
        fmt = Format(3, 3)
        with pytest.raises(ValueError):
            tau(np.zeros((3, 3)), fmt)
        with pytest.raises(ValueError):
            sigma(Tensor3(np.zeros((3, 6, 3))))


class TestPencil:
    def test_basis_vector_selects_slice(self):
        B = make_base_tensor(3, 4)
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            assert np.array_equal(pencil_eval(e, B), B.data[:, :, k])

    def test_zero_gives_zero(self):
        B = make_base_tensor(3, 3)
        assert np.array_equal(pencil_eval(np.zeros(3), B), np.zeros((4, 3)))

    @given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
           st.lists(st.floats(-2, 2), min_size=3, max_size=3),
           st.floats(-2, 2), st.floats(-2, 2))
    def test_linearity(self, x, y, s, t):
        B = make_base_tensor(3, 5)
        x, y = np.array(x), np.array(y)
        lhs = pencil_eval(s * x + t * y, B)
        rhs = s * pencil_eval(x, B) + t * pencil_eval(y, B)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_complex_coefficients(self):
        B = make_base_tensor(3, 3)
        M = pencil_eval(np.array([1j, 0, -1.0]), B)
        assert M.dtype == complex

    def test_stack_matches_tensordot_row_by_row(self):
        # one matrix-vector product per slice row block: bit for bit the
        # tensordot of each coefficient vector alone
        rng = np.random.default_rng(8)
        B = Tensor3(rng.standard_normal((7, 5, 4)))
        X = rng.standard_normal((6, 4))
        for x in (X, X + 1j * rng.standard_normal((6, 4))):
            stack = pencil_eval(x, B)
            assert stack.shape == (6, 7, 5)
            for p in range(6):
                assert np.array_equal(stack[p], np.tensordot(B.data, x[p], axes=([2], [0])))
                assert np.array_equal(pencil_eval(x[p], B), stack[p])


class TestPsi:
    def test_leading_block(self):
        fmt = Format(3, 3)
        v = psi(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), fmt)
        assert np.array_equal(v, np.array([1.0, 0, 0, 0, 0]))

    def test_zero_inputs(self):
        fmt = Format(3, 3)
        assert np.array_equal(psi(np.zeros(3), np.ones(3), fmt), np.zeros(5))
        assert np.array_equal(psi(np.ones(3), np.zeros(3), fmt), np.zeros(5))

    def test_last_block_truncated(self):
        fmt = Format(3, 3)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(3)
        assert np.array_equal(psi(np.array([0.0, 0, 1.0]), b, fmt), np.zeros(5))

    def test_middle_block_partial(self):
        fmt = Format(3, 3)
        b = np.array([1.0, 2.0, 3.0])
        v = psi(np.array([0.0, 1.0, 0.0]), b, fmt)
        # p - n = 2 leading entries of the a_2 block survive
        assert np.array_equal(v, np.array([0.0, 0.0, 0.0, 1.0, 2.0]))

    def test_stack_matches_kron_row_by_row(self):
        fmt = Format(4, 5)
        rng = np.random.default_rng(9)
        A, Bv = rng.standard_normal((6, 4)), rng.standard_normal((6, 5))
        rows = psi(A, Bv, fmt)
        assert rows.shape == (6, fmt.p)
        for p in range(6):
            assert np.array_equal(rows[p], np.kron(A[p], Bv[p])[: fmt.p])
        with pytest.raises(ValueError):
            psi(A, Bv[:5], fmt)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_bilinearity(self, s, t):
        fmt = Format(3, 4)
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(3), rng.standard_normal(4)
        assert np.allclose(psi(s * a, t * b, fmt), s * t * psi(a, b, fmt), atol=1e-10)


class TestSpanDim:
    def test_two_unit_vectors(self):
        e1, e2 = np.zeros(5), np.zeros(5)
        e1[0] = e2[1] = 1.0
        assert span_dim(np.array([e1, e2]), 1e-8) == 2

    def test_parallel_vectors(self):
        v = np.arange(1.0, 6.0)
        assert span_dim(np.array([v, 2 * v]), 1e-8) == 1

    def test_random_full_span(self):
        rng = np.random.default_rng(3)
        assert span_dim(rng.standard_normal((5, 5)), 1e-8) == 5

    def test_empty(self):
        assert span_dim(np.zeros((0, 5)), 1e-8) == 0

    def test_zero_vector_only(self):
        assert span_dim(np.zeros((1, 4)), 1e-8) == 0

    def test_tol_guard(self):
        with pytest.raises(ValueError):
            span_dim(np.ones((1, 3)), 0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8])
    def test_non_finite_tol_refused(self, tol):
        # NaN or inf would keep no singular value and read as dimension 0
        with pytest.raises(ValueError, match="span_tol must be positive and finite"):
            span_dim(np.eye(3), tol)


class TestTensorFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        T = Tensor3(rng.standard_normal((4, 3, 3)))
        path = tmp_path / "tensor.json"
        save_tensor(T, path)
        back = load_tensor(path)
        assert np.array_equal(back.data, T.data)

    def test_format_fields(self, tmp_path):
        import json

        T = Tensor3(np.arange(8.0).reshape(2, 2, 2))
        path = tmp_path / "t.json"
        save_tensor(T, path)
        doc = json.loads(path.read_text())
        assert doc["shape"] == [2, 2, 2]
        assert doc["data"] == [float(x) for x in range(8)]

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"shape": [2, 2, 2], "data": [1.0, 2.0]}')
        with pytest.raises(ValueError):
            load_tensor(path)

    @pytest.mark.parametrize("shape,data", [([3, 0, 2], []), ([2, 2], [1.0, 2.0, 3.0, 4.0])], ids=["empty-axis", "two-axes"])
    def test_load_refuses_other_than_three_positive_axes(self, tmp_path, shape, data):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"shape": {shape}, "data": {data}}}')
        message = f"^tensor file has shape {re.escape(str(tuple(shape)))}, expected 3 positive axes$"
        with pytest.raises(ValueError, match=message):
            load_tensor(path)

    def test_tensor3_refuses_two_axes(self):
        with pytest.raises(ValueError, match=r"^expected 3 axes, got shape \(2, 2\)$"):
            Tensor3(np.ones((2, 2)))
