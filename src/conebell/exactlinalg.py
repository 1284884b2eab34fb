"""Exact integer linear algebra on dense arrays.

All results are exact over the rationals.  Matrices are numpy arrays, either
int64 (the fast path) or dtype=object holding arbitrary-precision Python
integers.  Two elimination kernels do every exact step:

- pivot_columns: fraction-free Gaussian elimination.  rank() counts its
  pivots, and the double description in cone picks its initial simplex
  from them.
- integer_kernel_basis: unimodular reduction to a primitive integer basis of
  the kernel.  It gives the constraint kernels of the projection, the span
  of a lower-dimensional cone, and each ray of the DD's initial simplex.

One bound keeps int64 arithmetic exact, here and in cone.  A sum of k
products a * b with |a| <= A and |b| <= B is at most k * A * B in absolute
value.  _products_overflow(A, B, k) is true once that reaches _INT64_LIMIT =
2^62, which is below the int64 limit 2^63 - 1, and the caller then switches
to Python ints.  An elimination or DD update x * u - y * v is the case
k = 2; a dot product of length n is the case k = n.

The public functions are pure and leave their inputs unchanged; callers may
parallelize freely.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateVectorError

_INT64_LIMIT = 1 << 62
# DD rays with larger entries are kept as Python ints: their products with
# the constraint rows would soon fail the bound anyway.
_RAY_INT64_MAX = 1 << 40


def _products_overflow(a_max, b_max, terms):
    """True if a sum of terms products of entries up to a_max and b_max in
    absolute value may reach the int64 bound."""
    return terms * a_max * b_max >= _INT64_LIMIT


def _as_ints(arr):
    """Python-int copy of a nonempty object array; ValueError if an entry is
    not an integer (int() would truncate it)."""
    out = np.vectorize(int, otypes=[object])(arr)
    if (out != arr).any():
        raise ValueError("entries must be integers")
    return out


def as_int_matrix(data, columns=None):
    """Coerce to a 2-d object array of Python ints; (0, columns) if empty."""
    arr = np.array(data, dtype=object)
    if arr.size == 0:
        if columns is None:
            raise ValueError("empty matrix needs an explicit column count")
        return np.zeros((0, columns), dtype=object)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    return _as_ints(arr)


def as_int_vector(data):
    arr = np.array(data, dtype=object)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    return _as_ints(arr) if arr.size else arr


def vector_gcd(v):
    """gcd of the absolute values of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
        if g == 1:
            break
    return g


def primitive_normalize(v, keep_orientation=False):
    """Divide by the gcd of the entries and canonicalize the sign.

    By default the sign is fixed so the first nonzero entry is positive.
    With keep_orientation=True the given orientation is preserved, which is
    what rays and valid-inequality normals need.
    """
    v = as_int_vector(v)
    g = vector_gcd(v)
    if g == 0:
        raise DegenerateVectorError("cannot normalize the zero vector")
    if g > 1:
        v = v // g
    if not keep_orientation:
        for x in v:
            if x != 0:
                if x < 0:
                    v = -v
                break
    return v


def _primitive_rows(rows):
    """Divide each row by the gcd of its entries, in place; zero rows stay zero.

    rows is a 2-d int64 or object array; it is returned for chaining.
    """
    if rows.dtype == object:
        for i in range(rows.shape[0]):
            g = vector_gcd(rows[i])
            if g > 1:
                rows[i] = rows[i] // g
        return rows
    g = np.gcd.reduce(np.abs(rows), axis=1)
    g[g == 0] = 1
    rows //= g[:, None]
    return rows


def pivot_columns(mat, stop_at=None):
    """Pivot column indices of an echelon form of mat, in increasing order.

    Column j is a pivot iff it is not in the span of columns 0..j-1, so the
    pivots are the greedy first independent columns and their count is the
    rank.  With stop_at the scan ends once that many pivots are found (at
    least one, if mat is nonzero), which gives a prefix of the full list.

    Fraction-free Gaussian elimination: every row update is pivot * row -
    entry * pivot_row, divided by the gcd of the result.  An int64 matrix
    switches to Python ints at the first update that could reach the bound
    and continues from where it is, since row operations keep the pivots.
    """
    m = np.array(mat)
    if m.size == 0:
        return []
    if m.dtype != object:
        m = m.astype(np.int64, copy=False)
    rows, cols = m.shape
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = r + np.nonzero(m[r:, col] != 0)[0]
        if nz.size == 0:
            continue
        # the smallest pivot keeps coefficient growth down
        pick = nz[np.argmin(np.abs(m[nz, col]))]
        if pick != r:
            m[[r, pick]] = m[[pick, r]]
        pivots.append(col)
        if stop_at is not None and len(pivots) >= stop_at:
            break
        tgt = r + 1 + np.nonzero(m[r + 1:, col] != 0)[0]
        if not tgt.size:
            continue
        if m.dtype != object:
            hi = int(max(np.abs(m[tgt]).max(), np.abs(m[r]).max()))
            if _products_overflow(hi, hi, 2):
                m = m.astype(object)
        upd = m[tgt] * m[r, col] - np.outer(m[tgt, col], m[r])
        m[tgt] = _primitive_rows(upd)
    return pivots


def rank(mat, stop_at=None):
    """Exact rank over the rationals: the number of pivot columns."""
    return len(pivot_columns(mat, stop_at=stop_at))


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def integer_kernel_basis(mat, columns=None):
    """Integer basis of the rational kernel of ``mat``.

    Returns a (N x K) object matrix T with mat @ T = 0 exactly, K = N - rank.
    The columns form a basis of the saturated kernel lattice (each column is
    primitive) because only unimodular row operations are used: we reduce
    [mat.T | I] and read the kernel off the rows whose mat.T part vanished.
    An empty result (K = 0) is returned as an (N x 0) matrix.
    """
    g = as_int_matrix(mat, columns=columns)
    nrows, n = g.shape
    if n == 0:
        return np.zeros((0, 0), dtype=object)
    aug = np.hstack([g.T, np.eye(n, dtype=object)])
    pr = 0
    for col in range(nrows):
        live = [i for i in range(pr, n) if aug[i, col] != 0]
        if not live:
            continue
        i0 = min(live, key=lambda i: abs(int(aug[i, col])))
        for j in live:
            if j == i0:
                continue
            a, b = int(aug[i0, col]), int(aug[j, col])
            if b % a == 0:
                aug[j] = aug[j] - (b // a) * aug[i0]
            else:
                gg, x, y = _xgcd(a, b)
                new_i0 = x * aug[i0] + y * aug[j]
                aug[j] = (a // gg) * aug[j] - (b // gg) * aug[i0]
                aug[i0] = new_i0
        if i0 != pr:
            aug[[pr, i0]] = aug[[i0, pr]]
        pr += 1
    kernel_rows = aug[pr:, nrows:]
    t = kernel_rows.T.copy()
    for k in range(t.shape[1]):
        gk = vector_gcd(t[:, k])
        assert gk == 1, "unimodular reduction must produce primitive columns"
    return t
