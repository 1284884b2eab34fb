"""Exact integer linear algebra on dense arrays.

All results are exact over the rationals, except the lower bounds of
modular_ranks.  Matrices are numpy arrays, either int64 (the fast path) or
dtype=object holding arbitrary-precision Python integers.  One elimination,
the fraction-free Gaussian elimination of _echelon, does every exact step:

- pivot_columns returns its pivots, and capped_ranks counts them.
- integer_kernel_basis reads a kernel off its reduced form, one primitive
  column per free column.  It gives the constraint kernels of the
  projection and the span of a lower-dimensional cone.
- The double description in cone reads both the rows and the rays of its
  initial simplex off one reduced form, of [a^T | I].

_primitive_rows divides rows by their gcd with np.gcd.reduce, also on
object rows, where np.gcd is math.gcd and exact.

One bound keeps int64 arithmetic exact, here and in cone, and no other
threshold chooses between int64 and Python ints.  A sum of k products
a * b with |a| <= A and |b| <= B is at most k * A * B in absolute value.
_products_overflow(A, B, k) is true once that reaches _INT64_LIMIT = 2^62,
which is below the int64 limit 2^63 - 1, and the caller then switches to
Python ints.  An elimination or DD update x * u - y * v is the case k = 2;
a dot product of length n, such as a DD ray against a constraint row, is
the case k = n; the lcm scaling of a kernel column is the case k = 1.

Facet certification and Cone.rank ask whether a rank reaches a known
maximum, so a lower bound that reaches it settles the question.
capped_ranks is the one place that applies this rule: for row subsets of
one matrix it returns min(rank, cap), from the rank mod p where that
reaches the cap and from pivot_columns(stop_at=cap) where it does not.
modular_ranks gives the lower bounds for a whole stack of matrices at once:
the rank over GF(p), p = 2^31 - 1, never exceeds the rational rank, since a
minor that is nonzero mod p is a nonzero integer.  A matrix with more rows
than columns enters as its Gram matrix A^T A, whose rational rank is that
of A, when float64 computes it exactly: its entries are sums of m products
of at most max|a|^2 each, and every integer below _FLOAT_EXACT = 2^53 is a
float64.  One vectorized elimination step serves the whole stack; every
update x * u - y * v of residues below p is a sum of two products below
2^62, the case k = 2 of the bound.

The public functions are pure and leave their inputs unchanged; callers may
parallelize freely.
"""
from __future__ import annotations

import math

import numpy as np

# the one int64 bound, applied by _products_overflow
_INT64_LIMIT = 1 << 62
# a prime below 2^31, so a product of two residues stays below 2^62
_PRIME = (1 << 31) - 1
# integers below 2^53 are exact in float64, and so is a sum of products
# whose absolute values add up to less than that
_FLOAT_EXACT = 1 << 53
# entries per padded stack of row subsets in capped_ranks (2 MB of int64).
# Criteria 6 and 7 take about the same CPU time from 2^16 to 2^20 entries,
# at a peak RSS of 110, 116 and 124 MB (criterion 6) and 85, 88 and 115 MB
# (criterion 7); the I3322 search takes 49 s at 2^16 and 46 s at 2^18
_STACK_ENTRIES = 1 << 18


def _products_overflow(a_max, b_max, terms):
    """True if a sum of terms products of entries up to a_max and b_max in
    absolute value may reach the int64 bound."""
    return terms * a_max * b_max >= _INT64_LIMIT


def _as_int_rows(data, columns=None):
    """A 2-d integer array: int64 for signed integer input, else exact Python
    ints; (0, columns) if empty.  A non-integral entry raises ValueError, and
    so does a matrix with rows whose column count is not columns, if given."""
    arr = np.array(data)
    if arr.dtype.kind == "i" and arr.ndim == 2:
        out = arr.astype(np.int64, copy=False)
    elif arr.size == 0:
        if columns is None:
            raise ValueError("empty matrix needs an explicit column count")
        return np.zeros((0, columns), dtype=object)
    elif arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    else:
        # int() would truncate a non-integral entry
        out = np.vectorize(int, otypes=[object])(arr)
        if (out != arr).any():
            raise ValueError("entries must be integers")
    if columns is not None and out.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, got {out.shape[1]}")
    return out


def _primitive_rows(rows):
    """Divide each row by the gcd of its entries, in place; zero rows stay zero.

    rows is a 2-d int64 or object array; it is returned for chaining.
    """
    g = np.gcd.reduce(np.abs(rows), axis=1)
    g[g == 0] = 1
    rows //= g[:, None]
    return rows


def _echelon(mat, stop_at=None, reduced=False):
    """(echelon form, pivot columns) of mat by fraction-free elimination.

    Row i of the echelon form has its pivot in column pivots[i], and the rows
    below the pivots are zero.  Every row update is pivot * row - entry *
    pivot_row, divided by the gcd of the result; reduced=True applies it to
    the rows above the pivot as well, so each pivot column is zero outside
    its pivot row.  With stop_at the scan ends once that many pivots are
    found (at least one, if mat is nonzero).  An int64 matrix switches to
    Python ints at the first update that could reach the bound and continues
    from where it is, since row operations keep the pivots.
    """
    m = np.array(mat)
    if m.size == 0:
        return m, []
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
        lo = 0 if reduced else r + 1
        tgt = lo + np.nonzero(m[lo:, col] != 0)[0]
        tgt = tgt[tgt != r]
        if not tgt.size:
            continue
        if m.dtype != object:
            hi = int(max(np.abs(m[tgt]).max(), np.abs(m[r]).max()))
            if _products_overflow(hi, hi, 2):
                m = m.astype(object)
        upd = m[tgt] * m[r, col] - np.outer(m[tgt, col], m[r])
        m[tgt] = _primitive_rows(upd)
    return m, pivots


def pivot_columns(mat, stop_at=None):
    """Pivot column indices of an echelon form of mat, in increasing order.

    Column j is a pivot iff it is not in the span of columns 0..j-1, so the
    pivots are the greedy first independent columns and their count is the
    rank.  With stop_at the scan ends once that many pivots are found (at
    least one, if mat is nonzero), which gives a prefix of the full list.
    """
    return _echelon(mat, stop_at=stop_at)[1]


def modular_ranks(stack):
    """Rank over GF(p) of each matrix of a (B, m, n) integer stack.

    Each is a lower bound of the matrix's rational rank, and equal to it
    unless p divides the minors that show it.  Zero rows pad a stack without
    changing any rank.  When m > n and the entries are small enough for an
    exact float64 product, each matrix is replaced by its Gram matrix A^T A,
    which has the same rational rank and only n rows.  The elimination is
    fraction-free with full pivoting: each step takes a nonzero entry of
    each matrix's block as pivot, or finds the block zero and the rank
    complete, and replaces the block by the pivot's Schur complement scaled
    by the pivot, one row and one column smaller.
    """
    b, m, n = stack.shape
    if stack.size:
        hi = int(np.abs(stack).max())
        if m > n and m * hi * hi < _FLOAT_EXACT:
            f = stack.astype(np.float64)
            stack = np.matmul(f.transpose(0, 2, 1), f).astype(np.int64)
    a = np.remainder(stack, _PRIME).astype(np.int64)
    ranks = np.zeros(b, dtype=np.int64)
    idx = np.arange(b)
    while a.shape[1] and a.shape[2]:
        col = a[:, :, 0] != 0
        has = col.any(axis=1)
        row = col.argmax(axis=1)
        miss = np.flatnonzero(~has)
        if miss.size:
            # no pivot in the first column: bring the column of the block's
            # first nonzero entry to the front, if the block has one
            width = a.shape[2]
            block = (a[miss] != 0).reshape(len(miss), -1)
            found = block.any(axis=1)
            at = block.argmax(axis=1)
            fix = miss[found]
            src = at[found] % width
            first = a[fix, :, 0].copy()
            a[fix, :, 0] = a[fix, :, src]
            a[fix, :, src] = first
            row[fix] = at[found] // width
            has[fix] = True
        if not has.any():
            break
        ranks += has
        # the pivot row leaves the block, and the first row takes its place;
        # a matrix without a pivot has a zero block, which stays zero
        pivot = a[idx, row]
        a[idx, row] = a[:, 0]
        rest = a[:, 1:, 1:] * pivot[:, None, :1]
        rest -= a[:, 1:, :1] * pivot[:, None, 1:]
        a = np.remainder(rest, _PRIME, out=rest)
    return ranks


def capped_ranks(rows, members, cap):
    """Exact min(rank(rows[members[:, j]]), cap) for each column j.

    rows is a 2-d integer matrix and members a boolean matrix with one row
    per row of rows.  The subsets go to modular_ranks in order of size, as
    zero-padded stacks of about _STACK_ENTRIES entries; a rank mod p that
    reaches the cap is exact, and pivot_columns(stop_at=cap) decides the
    subsets below it.
    """
    width = rows.shape[1]
    counts = members.sum(axis=0)
    order = np.argsort(counts, kind="stable")
    ranks = np.zeros(members.shape[1], dtype=np.int64)
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while hi < len(order) and (hi + 1 - lo) * counts[order[hi]] * width <= _STACK_ENTRIES:
            hi += 1
        chunk = order[lo:hi]
        size = counts[chunk]
        subset, row = np.nonzero(members[:, chunk].T)
        stack = np.zeros((len(chunk), size.max(), width), dtype=rows.dtype)
        stack[subset, np.arange(len(subset)) - np.repeat(np.cumsum(size) - size, size)] = rows[row]
        ranks[chunk] = np.minimum(modular_ranks(stack), cap)
        lo = hi
    for j in np.flatnonzero(ranks < cap):
        ranks[j] = len(pivot_columns(rows[members[:, j]], stop_at=cap))
    return ranks


def integer_kernel_basis(mat, columns=None):
    """Primitive integer columns that span the rational kernel of ``mat``.

    Returns an (N x K) matrix T with mat @ T = 0 exactly, K = N - rank; an
    empty kernel gives an (N x 0) matrix.  columns gives N for a matrix
    without rows.  T is read off the reduced echelon form R of _echelon, with
    pivot p_i in column c_i of row i and L the lcm of the |p_i|: free column
    f gives x_f = L, x at c_i = -(L / p_i) R[i, f] and zero elsewhere, each
    divided by its gcd.  Its entries are int64 for int64 input while the
    bound allows, else Python ints.
    """
    red, pivots = _echelon(_as_int_rows(mat, columns=columns), reduced=True)
    n = red.shape[1]
    free = sorted(set(range(n)) - set(pivots))
    t = np.zeros((len(free), n), dtype=red.dtype)
    t[np.arange(len(free)), free] = 1
    if pivots and free:
        p = red[np.arange(len(pivots)), pivots]
        lcm = math.lcm(*(int(x) for x in p))
        rest = red[:len(pivots), free]
        if red.dtype != object and _products_overflow(lcm, int(np.abs(rest).max()) or 1, 1):
            t, rest, p = (x.astype(object) for x in (t, rest, p))
        t *= lcm
        t[:, pivots] = -(rest * (lcm // p)[:, None]).T
    return _primitive_rows(t).T
