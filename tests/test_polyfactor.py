import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semitall import polyfactor
from semitall.errors import ResourceLimitError
from semitall.polyfactor import (
    alpha_brute,
    alpha_closed,
    closed_selections,
    conjugation_closed,
    divisor_coefficients,
    divisor_points,
    neg_roots,
    real_divisors,
)

SQRT2 = 1.4142135623730951


def poly_remainder(f, g):
    """Remainder of f divided by g, coefficient vectors lowest degree first."""
    from numpy.polynomial import polynomial as npoly

    _, rem = npoly.polydiv(np.asarray(f, dtype=complex), np.asarray(g, dtype=complex))
    return rem


class TestNegRoots:
    def test_u1_is_minus_one(self):
        assert np.allclose(neg_roots(1), [-1.0])

    def test_u2_is_plus_minus_i(self):
        roots = sorted(neg_roots(2), key=lambda z: z.imag)
        assert np.allclose(roots, [-1j, 1j])

    def test_u4_primitive_eighth_roots(self):
        expected = np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4)
        assert np.allclose(neg_roots(4), expected)

    @pytest.mark.parametrize("u", [1, 2, 3, 5, 8, 13, 40])
    def test_each_root_satisfies_equation(self, u):
        assert np.max(np.abs(neg_roots(u) ** u + 1)) < 1e-12

    def test_u0_rejected(self):
        with pytest.raises(ValueError):
            neg_roots(0)

    @pytest.mark.parametrize("u", range(1, 41))
    def test_product_of_linear_factors_reconstructs(self, u):
        coeffs = polyfactor._expand_from_roots(neg_roots(u))
        target = np.zeros(u + 1, dtype=complex)
        target[0] = 1.0
        target[-1] = 1.0
        assert np.max(np.abs(coeffs - target)) < 1e-10


class TestLeafOrder:
    def test_matches_the_sorted_bit_reversal(self):
        # the reference is the per-call formula the cached order replaces
        for k in range(1, 65):
            width = max(1, (k - 1).bit_length())
            reference = sorted(range(k), key=lambda i: int(format(i, f"0{width}b")[::-1], 2))
            assert polyfactor._leaf_order(k).tolist() == reference, k

    def test_cached_order_is_read_only(self):
        with pytest.raises(ValueError):
            polyfactor._leaf_order(5)[0] = 1


class TestBitReverse:
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    def test_matches_the_per_bit_reversal(self, dtype):
        # bit i < u moves to u-1-i, and the bits at u and above are dropped
        width = np.iinfo(dtype).bits
        rng = np.random.default_rng(width)
        for u in (1, 5, 17, 27, width):
            # values of u bits, as the callers pass, and values of the full width
            for top in (2**u - 1, np.iinfo(dtype).max):
                x = rng.integers(0, top, size=10_000, dtype=dtype, endpoint=True)
                reference = np.zeros_like(x)
                for i in range(u):
                    reference |= ((x >> dtype(i)) & dtype(1)) << dtype(u - 1 - i)
                out = polyfactor._bit_reverse(x, u)
                assert out.dtype == dtype
                assert np.array_equal(out, reference), u


class TestRealDivisors:
    def test_quartic_quadratic_divisors(self):
        divs = real_divisors(4, 2)
        assert divs.shape == (2, 3) and divs.dtype == float
        got = sorted(tuple(round(c, 12) for c in h) for h in divs)
        assert got == [(1.0, -round(SQRT2, 12), 1.0), (1.0, round(SQRT2, 12), 1.0)]

    def test_u6_d2_has_three(self):
        assert len(real_divisors(6, 2)) == 3

    def test_u2_d1_empty(self):
        assert real_divisors(2, 1).shape == (0, 2)

    @pytest.mark.parametrize("u,d", [(4, 2), (5, 1), (5, 3), (6, 2), (8, 4), (9, 3), (12, 5)])
    def test_every_divisor_divides(self, u, d):
        target = np.zeros(u + 1)
        target[0] = 1.0
        target[-1] = 1.0
        divs = real_divisors(u, d)
        assert len(divs) == len(closed_selections(u, d))
        for h in divs:
            rem = poly_remainder(target, h)
            assert np.max(np.abs(rem)) < 1e-10

    def test_count_matches_alpha_when_d_is_m_minus_1(self):
        # u = m+n-2 with (m, n) = (5, 5): degree-4 divisors of y^8 + 1
        assert len(real_divisors(8, 4)) == alpha_closed(5, 5)

    @pytest.mark.parametrize("u,d", [(8, 4), (9, 3), (12, 6)])
    def test_budget_refuses_before_listing(self, u, d, monkeypatch):
        # a budget of exactly the count lists them all; one less refuses
        # them by the closed-form count, before any is built
        count = len(closed_selections(u, d))
        monkeypatch.setattr(polyfactor, "DIVISOR_BUDGET", count)
        assert len(real_divisors(u, d)) == count
        monkeypatch.setattr(polyfactor, "DIVISOR_BUDGET", count - 1)
        monkeypatch.setattr(polyfactor, "itertools", None)  # listing would raise AttributeError
        message = rf"^{count} real divisors of degree {d} of y\^{u} \+ 1 exceed the budget {count - 1}$"
        for enumerate_ in (closed_selections, real_divisors):
            with pytest.raises(ResourceLimitError, match=message):
                enumerate_(u, d)

    def test_closed_selections_are_the_closed_combinations(self):
        # oracle: every d-subset in itertools order, kept when closed under
        # k <-> u-1-k
        for u in range(1, 15):
            for d in range(1, u + 1):
                closed = [s for s in itertools.combinations(range(u), d) if all(u - 1 - k in s for k in s)]
                assert closed_selections(u, d) == closed, (u, d)


class TestConjugationCharacterization:
    @pytest.mark.parametrize("u", range(1, 13))
    def test_closed_iff_real_coefficients(self, u):
        for d in range(1, u + 1):
            subsets = np.array(list(itertools.combinations(range(u), d)))
            is_real = np.abs(divisor_coefficients(u, subsets).imag).max(axis=1) < 1e-12
            mismatch = np.flatnonzero(conjugation_closed(u, subsets) != is_real)
            assert mismatch.size == 0, (u, subsets[mismatch[:1]])


class TestAlpha:
    @pytest.mark.parametrize(
        "m,n,expected",
        [
            (3, 3, 2),       # C(2,1)
            (3, 4, 2),
            (4, 4, 0),       # both even
            (5, 5, 6),       # C(4,2)
            (5, 27, 105),    # C(15,2), equals p
            (5, 28, 105),    # C(15,2), below p = 109
            (9, 10, 70),     # C(8,4)
        ],
    )
    def test_closed_form_values(self, m, n, expected):
        assert alpha_closed(m, n) == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_closed(2, 5)
        with pytest.raises(ValueError):
            alpha_closed(5, 4)

    @pytest.mark.parametrize("m", range(3, 10))
    def test_brute_agreement_small(self, m):
        for n in range(m, 11):
            assert alpha_closed(m, n) == alpha_brute(m, n)

    @given(st.integers(3, 10), st.integers(0, 4))
    def test_brute_agreement_sampled(self, m, dn):
        n = m + dn
        assert alpha_closed(m, n) == alpha_brute(m, n)

    def test_brute_budget_guard(self):
        # C(30, 15) is above the enumeration budget
        with pytest.raises(ResourceLimitError):
            alpha_brute(16, 16)

    def test_brute_streaming_path(self):
        # wide universe, few subsets: exercises the streaming enumerator
        assert alpha_brute(3, 40) == alpha_closed(3, 40)
        assert alpha_brute(4, 31) == alpha_closed(4, 31)

    @given(st.integers(1, 24))
    def test_closed_selection_count_both_parities(self, u):
        # unions of pairs plus the optional fixed root reproduce the counts
        for d in range(1, min(u, 8) + 1):
            n_pairs = u // 2
            expected = 0
            if d % 2 == 0:
                expected += math.comb(n_pairs, d // 2)
            if u % 2 == 1 and (d - 1) % 2 == 0:
                expected += math.comb(n_pairs, (d - 1) // 2)
            assert len(closed_selections(u, d)) == expected


class TestDivisorToPoint:
    def test_spec_quadratic(self):
        h = [[1.0, -SQRT2, 1.0]]
        assert np.allclose(divisor_points(h), [[-1.0, SQRT2, -1.0]])

    def test_linear(self):
        h = [[1.0, 1.0]]
        assert np.allclose(divisor_points(h), [[-1.0, -1.0]])

    def test_conjugate_quadratic(self):
        h = [[1.0, SQRT2, 1.0]]
        assert np.allclose(divisor_points(h), [[-1.0, -SQRT2, -1.0]])

