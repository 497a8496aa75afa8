"""Dense order-3 tensors, flattenings, transfer maps, and the start frame.

Axis convention, fixed once: a tensor of shape (d1, d2, d3) consists of d3
slices of size d1 x d2, slice k being ``data[:, :, k]``.  The horizontal
flattening fl1 concatenates the slices left to right (d1 x d2*d3); the
vertical flattening fl2 stacks them top to bottom (d1*d3 x d2).  All
reorientations between the two tensor spaces used here (n x p x m on the
rank-certificate side, u x n x m on the kernel side) are explicit.

For a format with 3 <= m <= n, p = (m-1)(n-1)+1 and u = m+n-2 the module
provides:

* the transfer maps sigma/tau between n x p x m tensors and u x p matrices,
  and mu/nu between u x p matrices and u x n x m tensors, each pair
  inverting the other on its chart;
* the integer base tensor whose slice pencil has a fully known singular
  locus, and the reordered/permuted copy of it whose trailing flattening
  block is exactly -E_u (the start frame of the continuation solver);
* the slice pencil M(x, B) = x_1 B_1 + ... + x_m B_m, the truncated
  Kronecker vector psi(a, b), and a numerical span dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# The LAPACK gufuncs behind np.linalg.solve and np.linalg.svd(compute_uv=False).
# On the chart blocks and the span's few rows their Python wrappers cost about
# as much as the LAPACK calls.
from numpy.linalg._umath_linalg import solve as _lapack_solve, svd as _lapack_svd

from . import jsonio
from .errors import ChartViolationError

# Chart inversions refuse blocks with condition number beyond this.
COND_LIMIT = 1e12

# Relative singular-value cutoff of the psi span.  On the 400 certificates
# of the (3,3) global experiment at seed 777 the smallest kept ratio is
# 7.0e-4, and no ratio falls below the cutoff.
SPAN_TOL = 1e-8


@dataclass(frozen=True)
class Format:
    """Critical semi-tall format, stored as the pair (m, n) with 3 <= m <= n.

    The derived dimensions are p = (m-1)(n-1)+1 and u = mn - p = m+n-2.
    """

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and isinstance(self.n, (int, np.integer))):
            raise ValueError("m and n must be integers")
        if not (3 <= self.m <= self.n):
            raise ValueError(f"format requires 3 <= m <= n, got ({self.m}, {self.n})")

    @property
    def p(self) -> int:
        return (self.m - 1) * (self.n - 1) + 1

    @property
    def u(self) -> int:
        return self.m + self.n - 2


@dataclass(frozen=True, eq=False)
class Tensor3:
    """Dense real order-3 tensor with the fixed slice convention."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"expected 3 axes, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class StartFrame:
    """The reordered, row-permuted copy A' of the base tensor, and W0.

    Invariants (exact integer equalities): the last u columns of
    fl1(Aprime) equal -E_u, which ``make_start_frame`` verifies; W0 is the
    leading p-column block of fl1(Aprime), by construction; and
    mu(W0) = Aprime, which acceptance criterion 5 checks.
    """

    Aprime: Tensor3
    W0: np.ndarray


def fl1(T: Tensor3) -> np.ndarray:
    """Horizontal flattening: the slices left to right, d1 x d2*d3."""
    d1, d2, d3 = T.shape
    return T.data.transpose(0, 2, 1).reshape(d1, d3 * d2)


def fl2(T: Tensor3) -> np.ndarray:
    """Vertical flattening: the slices top to bottom, d1*d3 x d2."""
    d1, d2, d3 = T.shape
    return T.data.transpose(2, 0, 1).reshape(d3 * d1, d2)


def pencil_eval(x, B: Tensor3) -> np.ndarray:
    """Linear slice pencil x_1 B_1 + ... + x_m B_m; x may be complex, or a
    stack of coefficient vectors (P, m), giving the stack of P pencils."""
    x = np.asarray(x)
    if x.shape[-1:] != B.shape[2:] or x.ndim > 2:
        raise ValueError(f"coefficient vector shape {x.shape} does not match {B.shape[2]} slices")
    return (B.data @ x[..., None, :, None])[..., 0]


def psi(a, b, fmt: Format) -> np.ndarray:
    """First p entries of the Kronecker product a (x) b; for stacks of rows
    a (P, m) and b (P, n), one row per pair.

    Equals the blocks a_1 b, ..., a_(m-2) b followed by the leading
    n-m+2 entries of a_(m-1) b; the a_m block is always truncated away.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != (fmt.m,) or b.shape[-1:] != (fmt.n,) or a.shape[:-1] != b.shape[:-1] or a.ndim > 2:
        raise ValueError(f"expected vectors of length {fmt.m} and {fmt.n}")
    return (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], fmt.m * fmt.n)[..., : fmt.p]


def _nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of each real matrix of the stack a, in
    descending order, as np.linalg.svd(a, compute_uv=False) gives them,
    without its Python wrapper.  Raises LinAlgError where it does: on a NaN
    entry, or when the SVD does not converge."""
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _lapack_svd(a, signature="d->d")


def span_dim(rows: np.ndarray) -> int:
    """Numerical rank of the span of the rows of a (k, p) matrix: the count
    of singular values above ``SPAN_TOL`` times the largest one."""
    if not len(rows):
        return 0
    s = _singular_values(rows.T)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > SPAN_TOL * s[0]))


# -- transfer maps ----------------------------------------------------------

def vspace_format(T: Tensor3) -> Format:
    """The format of an n x p x m tensor T at the critical p; raises
    ValueError for any other shape."""
    n, p, m = T.shape
    fmt = Format(m, n)
    if p != fmt.p:
        raise ValueError(f"shape {T.shape} is not an n x p x m tensor at the critical p = {fmt.p}")
    return fmt


def kernel_format(Y: Tensor3) -> Format:
    """The format of a u x n x m tensor Y with u = m + n - 2; raises
    ValueError for any other shape."""
    u, n, m = Y.shape
    fmt = Format(m, n)
    if u != fmt.u:
        raise ValueError(f"shape {Y.shape} is not a u x n x m tensor with u = {fmt.u}")
    return fmt


def _guarded_solve(block: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    # the 2-norm condition number as np.linalg.cond gives it
    s = _singular_values(block)
    with np.errstate(all="ignore"):
        cond = s[0] / s[-1]
    if np.isnan(cond):  # 0/0 on a zero block, which np.linalg.cond reads as inf
        cond = np.inf
    if cond > COND_LIMIT:
        raise ChartViolationError(f"{what} block has condition number {cond:.3e} beyond {COND_LIMIT:.1e}")
    # the bound above leaves no singular block, on which gesv would return NaN
    return _lapack_solve(block, rhs, signature="dd->d")


def sigma(T: Tensor3) -> np.ndarray:
    """Chart coordinate of an n x p x m tensor: bottom block of fl2 times
    the inverse of its leading p x p block."""
    fmt = vspace_format(T)
    F2 = fl2(T)
    top = F2[: fmt.p]
    bottom = F2[fmt.p :]
    return _guarded_solve(top.T, bottom.T, "leading fl2").T


def tau(W: np.ndarray, fmt: Format) -> Tensor3:
    """Tensor in the sigma chart with coordinate W: fl2 of it is (E_p; W)."""
    W = np.asarray(W, dtype=float)
    if W.shape != (fmt.u, fmt.p):
        raise ValueError(f"expected a {fmt.u} x {fmt.p} matrix, got {W.shape}")
    stacked = np.vstack([np.eye(fmt.p), W])
    return Tensor3(stacked.reshape(fmt.m, fmt.n, fmt.p).transpose(1, 2, 0))


def nu(Y: Tensor3) -> np.ndarray:
    """Chart coordinate of a u x n x m tensor: minus the inverse of the
    trailing u x u block of fl1 times the leading p columns."""
    fmt = kernel_format(Y)
    F1 = fl1(Y)
    trailing = F1[:, fmt.p :]
    leading = F1[:, : fmt.p]
    return -_guarded_solve(trailing, leading, "trailing fl1")


def mu(W: np.ndarray, fmt: Format) -> Tensor3:
    """Kernel-side tensor with coordinate W: fl1 of it is (W, -E_u)."""
    W = np.asarray(W, dtype=float)
    if W.shape != (fmt.u, fmt.p):
        raise ValueError(f"expected a {fmt.u} x {fmt.p} matrix, got {W.shape}")
    M = np.hstack([W, -np.eye(fmt.u)])
    return Tensor3(M.reshape(fmt.u, fmt.m, fmt.n).transpose(0, 2, 1))


# -- base tensor and start frame --------------------------------------------

def make_base_tensor(m: int, n: int) -> Tensor3:
    """The integer u x n x m tensor whose pencil drops rank exactly at the
    divisor points of y^u + 1 (the matrix N that ``recurrence.rank_conditions``
    tests).

    Slices 1..m-1 are copies of E_n shifted down k-1 rows; the last slice
    has -e_1 in its final column and E_(n-1) in the lower-left block.
    """
    fmt = Format(m, n)
    u = fmt.u
    data = np.zeros((u, n, m))
    for k in range(m - 1):
        data[k + np.arange(n), np.arange(n), k] = 1.0
    data[0, n - 1, m - 1] = -1.0
    data[m - 1 + np.arange(n - 1), np.arange(n - 1), m - 1] = 1.0
    return Tensor3(data)


def slice_reorder(m: int) -> list[tuple[int, float]]:
    """Slice reordering (source index, sign) defining the start frame.

    New slice order: slices 2..m-2 unchanged, then slice m, then -slice
    (m-1), then -slice 1 (indices here are 1-based; the returned sources
    are 0-based).
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    return [(j, 1.0) for j in range(1, m - 2)] + [(m - 1, 1.0), (m - 2, -1.0), (0, -1.0)]


def make_start_frame(m: int, n: int) -> StartFrame:
    """Build the start frame: the base tensor A with its slices reordered
    by ``slice_reorder`` (A''), then its rows permuted by the closed-form
    block swap that moves rows n+1..u to the front (A'), and W0.

    The trailing fl1 block of A' is verified to be exactly -E_u.
    """
    fmt = Format(m, n)
    u, p = fmt.u, fmt.p
    A = make_base_tensor(m, n).data
    App = np.stack([sign * A[:, :, src] for (src, sign) in slice_reorder(m)], axis=2)
    Aprime = Tensor3(App[list(range(n, u)) + list(range(n))])
    F1 = fl1(Aprime)
    if not np.array_equal(F1[:, p:], -np.eye(u)):
        raise RuntimeError("trailing block of the permuted start tensor is not -E_u")
    W0 = F1[:, :p].copy()
    return StartFrame(Aprime=Aprime, W0=W0)


def random_rank_sum(fmt: Format, r: int, rng: np.random.Generator) -> Tensor3:
    """Sum of r random Gaussian rank-1 tensors of shape n x p x m."""
    data = np.zeros((fmt.n, fmt.p, fmt.m))
    for _ in range(r):
        x = rng.standard_normal(fmt.n)
        y = rng.standard_normal(fmt.p)
        z = rng.standard_normal(fmt.m)
        data += np.einsum("i,j,k->ijk", x, y, z)
    return Tensor3(data)


# -- tensor file format ------------------------------------------------------

def save_tensor(T: Tensor3, path) -> None:
    """Write a tensor as JSON with fields ``shape`` and flat row-major
    ``data``, floats at 17 significant digits (exact decimal round-trip)."""
    doc = {"shape": list(T.shape), "data": T.data.reshape(-1)}
    with open(path, "w") as fh:
        fh.write(jsonio.dumps(doc))


def _numbers(x) -> list[float]:
    # a JSON array of JSON numbers and of the strings "nan", "inf" and "-inf"
    # that save_tensor writes for non-finite entries; float() would also read
    # "1_000" as 1000, and float() and int() read JSON true (a bool) as 1
    if not isinstance(x, list) or not all(type(v) in (int, float) or v in ("nan", "inf", "-inf") for v in x):
        raise ValueError("not a JSON array of numbers")
    return [float(v) for v in x]


def load_tensor(path) -> Tensor3:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("tensor file nests too deeply to parse") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"tensor file is not JSON: {err}") from None
    if not isinstance(doc, dict) or not {"shape", "data"} <= doc.keys():
        raise ValueError("tensor file must be a JSON object with keys 'shape' and 'data'")
    try:
        shape = tuple(_numbers(doc["shape"]))
        data = np.array(_numbers(doc["data"]))
        if not all(d.is_integer() for d in shape):  # int() would truncate 3.9
            raise ValueError("a shape entry is not an integer")
        shape = tuple(int(d) for d in shape)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("tensor file 'shape' must be a list of integers and 'data' a flat list of numbers") from None
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"tensor file has shape {shape}, expected 3 positive axes")
    if data.size != shape[0] * shape[1] * shape[2]:
        raise ValueError("tensor file data length does not match its shape")
    data = data.reshape(shape)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        named = ", ".join(f"{tuple(int(i) for i in idx)} = {data[tuple(idx)]}" for idx in bad[:5])
        more = ", ..." if len(bad) > 5 else ""
        raise ValueError(f"tensor file has {len(bad)} non-finite entries: {named}{more}")
    return Tensor3(data)
