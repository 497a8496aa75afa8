"""Roots and real monic divisors of y^u + 1, with exact divisor counts.

The roots of y^u + 1 are exp(i*pi*(2k+1)/u) for k = 0..u-1.  Complex
conjugation acts on the index set as k <-> u-1-k, so whether a monic
divisor (a product over an index subset) has real coefficients is a purely
combinatorial question: the subset must be closed under that pairing.
Floating point enters only when coefficients are expanded.

``alpha_closed`` gives the closed-form count of real monic degree-(m-1)
divisors of y^u + 1 with u = m+n-2; ``alpha_brute`` recounts it by direct
enumeration of all index subsets and serves as its independent oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .tensorcore import Format

# alpha_brute refuses to enumerate more subsets than this.
BRUTE_SUBSET_LIMIT = 10**7

# closed_selections, and with it real_divisors and the divisors command,
# refuses to list more divisors than this.  Measured with `divisors
# --output` on a 2-core host: the 42,504 divisors of (11,40) took 4.3 s and
# 131 MB peak RSS, the 177,100 of (13,40) 33 s and 994 MB.
DIVISOR_BUDGET = 5 * 10**4

# Full 2^u bitmask scans are used only below this width; wider universes
# with few subsets fall back to streaming combinations.
_SCAN_MAX_BITS = 27


def neg_roots(u: int) -> np.ndarray:
    """All u roots of y^u + 1, ordered by angle index k = 0..u-1."""
    if not isinstance(u, (int, np.integer)) or u < 1:
        raise ValueError("u must be a positive integer")
    k = np.arange(u)
    return np.exp(1j * np.pi * (2 * k + 1) / u)


def _expand_from_roots(roots) -> np.ndarray:
    """Monic coefficient vector (lowest degree first) of prod (y - r).

    Multiplies in a balanced tree over a bit-reversed leaf order: partial
    products over an arc of clustered roots grow binomially, while spread
    subsets keep every intermediate coefficient small.
    """
    roots = np.asarray(roots, dtype=complex)
    if len(roots) == 0:
        return np.array([1.0 + 0.0j])
    leaves = np.ones((len(roots), 2), dtype=complex)
    leaves[:, 0] = -roots[_leaf_order(len(roots))]
    polys = list(leaves)
    while len(polys) > 1:
        merged = [np.convolve(polys[i], polys[i + 1]) for i in range(0, len(polys) - 1, 2)]
        if len(polys) % 2:
            merged.append(polys[-1])
        polys = merged
    c = polys[0]
    c[-1] = 1.0  # exact monic normalization
    return c


@lru_cache(maxsize=None)
def _leaf_order(k: int) -> np.ndarray:
    """The indices 0..k-1 sorted by their bit reversal within the width of
    k - 1 (read-only; cached per k, since every expansion of k roots reads it)."""
    order = np.argsort(_bit_reverse(np.arange(k, dtype=np.uint32), max(1, (k - 1).bit_length())))
    order.flags.writeable = False
    return order


def _closed_count(u: int, d: int) -> int:
    """Number of conjugation-closed d-subsets of the u root indices: d // 2
    of the u // 2 conjugate pairs, plus the fixed point (u-1)/2 when d is
    odd, which exists only for odd u."""
    return math.comb(u // 2, d // 2) if u % 2 or d % 2 == 0 else 0


def closed_selections(u: int, d: int) -> list[tuple[int, ...]]:
    """All conjugation-closed d-subsets of the root indices of y^u + 1, as
    sorted index tuples in lexicographic order.

    Closed subsets are unions of conjugate pairs {k, u-1-k}, plus the
    self-conjugate index (u-1)/2 (the root -1) when u is odd.  Raises
    ResourceLimitError, before listing any, when there are more than
    ``DIVISOR_BUDGET``.
    """
    if u < 1:
        raise ValueError("u must be a positive integer")
    if not 1 <= d <= u:
        raise ValueError(f"degree d={d} outside [1, {u}]")
    count = _closed_count(u, d)
    if count > DIVISOR_BUDGET:
        raise ResourceLimitError(f"{count} real divisors of degree {d} of y^{u} + 1 exceed the budget {DIVISOR_BUDGET}")
    # an odd d takes the fixed point, which only an odd u has
    if d % 2 and u % 2 == 0:
        return []
    fixed = [(u - 1) // 2] if d % 2 else []
    pairs = [(k, u - 1 - k) for k in range(u // 2)]
    return sorted(tuple(sorted([k for pair in chosen for k in pair] + fixed))
                  for chosen in itertools.combinations(pairs, d // 2))


def divisor_coefficients(u: int, subsets) -> np.ndarray:
    """Monic coefficient rows (lowest degree first) of the divisors of
    y^u + 1 named by the index subsets, the rows of a (K, d) array: row i
    of the (K, d+1) result is the product of (y - r_k) over k in
    subsets[i], expanded one subset at a time by ``_expand_from_roots``."""
    subsets = np.asarray(subsets, dtype=int)
    roots = neg_roots(u)
    coeffs = np.empty((len(subsets), subsets.shape[1] + 1), dtype=complex)
    for row, subset in zip(coeffs, subsets):
        row[:] = _expand_from_roots(roots[subset])
    return coeffs


def real_divisors(u: int, d: int) -> np.ndarray:
    """Coefficient rows (K, d+1), lowest degree first, of all monic
    degree-d divisors of y^u + 1 with real coefficients, in
    ``closed_selections`` order.

    Reality is decided combinatorially (closure under k <-> u-1-k); the
    expanded coefficients drop their residual imaginary round-off only
    after checking it is below 1e-12.
    """
    subsets = np.array(closed_selections(u, d), dtype=int).reshape(-1, d)
    coeffs = divisor_coefficients(u, subsets)
    bad = np.flatnonzero(np.abs(coeffs.imag).max(axis=1, initial=0.0) >= 1e-12)
    if bad.size:
        raise AssertionError(
            f"conjugation-closed selection {tuple(subsets[bad[0]])} expanded to non-real coefficients"
        )
    return coeffs.real.copy()


def alpha_closed(m: int, n: int) -> int:
    """Closed-form count of real monic degree-(m-1) divisors of y^(m+n-2) + 1,
    in exact integer arithmetic."""
    return _closed_count(Format(m, n).u, m - 1)


def alpha_brute(m: int, n: int) -> int:
    """Count conjugation-closed (m-1)-subsets by direct enumeration.

    Independent oracle for ``alpha_closed``: every (m-1)-subset of the u
    root indices is visited and tested for closure under k <-> u-1-k.
    Raises ResourceLimitError when there are more than ``BRUTE_SUBSET_LIMIT``
    subsets.
    """
    u, d = Format(m, n).u, m - 1
    total = math.comb(u, d)
    if total > BRUTE_SUBSET_LIMIT:
        raise ResourceLimitError(
            f"C({u},{d}) = {total} subsets exceeds the enumeration budget {BRUTE_SUBSET_LIMIT}"
        )
    if u <= _SCAN_MAX_BITS and 2**u <= 64 * total:
        return int(_closed_size_histogram(u)[d])
    return _count_closed_streaming(u, d)


def divisor_points(coeffs) -> np.ndarray:
    """Variety points (a_1, ..., a_(m-1), -1) of monic degree-(m-1)
    divisor coefficient rows (K, m), lowest degree first.

    With h(y) = y^(m-1) - a_(m-1) y^(m-2) - ... - a_2 y - a_1, a_j is the
    negated coefficient of y^(j-1) in h.
    """
    coeffs = np.asarray(coeffs)
    return np.concatenate([-coeffs[:, :-1], np.full((len(coeffs), 1), -1.0)], axis=1)


# -- vectorized subset enumeration -----------------------------------------

def _bit_reverse(x: np.ndarray, u: int) -> np.ndarray:
    """Reverse the low u bits of each entry of an unsigned integer array:
    swap ever larger blocks of bits across the whole width of x's dtype,
    then shift the reversed low u bits down."""
    t = x.dtype.type
    width = 8 * x.dtype.itemsize
    s = 1
    while s < width:
        # s ones, then s zeros, repeated across the width
        mask = t(((1 << width) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1))
        x = ((x >> t(s)) & mask) | ((x & mask) << t(s))
        s *= 2
    return x >> t(width - u)


def _popcount32(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint32)
    x = x - ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + ((x >> np.uint32(2)) & np.uint32(0x33333333))
    x = (x + (x >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return (x * np.uint32(0x01010101)) >> np.uint32(24)


@lru_cache(maxsize=None)
def _closed_size_histogram(u: int) -> tuple[int, ...]:
    """Histogram by size of all conjugation-closed subsets of the u indices.

    Scans every bitmask in [0, 2^u); a mask is closed iff it equals its own
    bit reversal within u bits.
    """
    counts = np.zeros(u + 1, dtype=np.int64)
    chunk = 1 << 22
    for start in range(0, 1 << u, chunk):
        stop = min(start + chunk, 1 << u)
        masks = np.arange(start, stop, dtype=np.uint32)
        closed = masks[masks == _bit_reverse(masks, u)]
        counts += np.bincount(_popcount32(closed), minlength=u + 1)[: u + 1]
    return tuple(int(c) for c in counts)


def _count_closed_streaming(u: int, d: int) -> int:
    """Closure count over all C(u, d) subsets, streamed in chunks."""
    count = 0
    chunk = 1 << 17
    it = itertools.combinations(range(u), d)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            break
        idx = np.array(block, dtype=np.uint64)
        masks = np.bitwise_or.reduce(np.uint64(1) << idx, axis=1)
        count += int(np.count_nonzero(masks == _bit_reverse(masks, u)))
    return count
