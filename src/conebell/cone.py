"""Cones, projection onto constraint kernels, and facet enumeration.

The facet enumeration converts a V-representation (rays) into the complete
irredundant H-representation by running the double description method on the
polar cone: the facet normals of cone(W) are exactly the extreme rays of
{y : W y <= 0}.  Inequalities are oriented so every ray has nonpositive
inner product with a facet normal.

A cone keeps its rays as the rows of one matrix, deduplicated and primitive:
int64 when the input is int64 (lift_polytope of an enumerate_vertices
matrix, or a projection whose products fit int64), Python-int objects
otherwise.  Non-integral input raises ValueError.

constrained_facets is the constrained search that generalize_multi runs on
every branch: project the rays onto the kernel of the constraint rows (an
integer matrix, one constraint per row), run the enumeration on the small
projected cone, lift all candidates back in one product, keep the rows of
the caller's cheap mask over that matrix (the reduction check, in a
search), and certify them on the full cone in one batch.  A rank mod p is
at most the rational rank, and a valid, proper candidate has saturating
rank at most rank(cone) - 1, so a saturating rank mod p of rank(cone) - 1
makes it a facet; pivot_columns decides every other candidate, so every
non-facet.  generalize_multi certifies each lower inequality on its own
scenario with the same batched test.

All arithmetic is exact, and the exact steps go through the one elimination
of exactlinalg.  The DD's initial simplex comes from pivot_columns (which
rows) and one integer_kernel_basis (every ray); it enters the DD as int64
when its entries are at most 2^40.  The insertions then run on int64 arrays
and promote to Python-int object arrays before a product could reach the
bound that exactlinalg defines.

Each insertion finds the adjacent (positive, negative) ray pairs with the
combinatorial test on zero sets, kept as bit words (bit i: constraint row i
is tight).  A broadcast AND filters the pairs whose common zero set has at
least r - 2 bits, a scan keeps the candidates whose common set lies in
exactly two zero sets, and one expression combines the kept pairs.  The
scan needs only the rays that share r - 2 zeros with one ray of the pair,
which the filter has already counted.  The broadcasts go in chunks of
about _ADJACENCY_ENTRIES entries: the DD already holds every intermediate
ray, and larger chunks raise its peak memory for little speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DegenerateVectorError
from .exactlinalg import (_RAY_INT64_MAX, _as_int_rows, _primitive_rows,
                          _products_overflow, integer_kernel_basis, modular_ranks,
                          pivot_columns, rank)

DD_CAP_DEFAULT = 5_000_000
# entries per broadcast of the DD adjacency test (256 KB of uint64).  Larger
# chunks only cost memory: four (3,3) DDs take about 0.5 s CPU from 2^13 to
# 2^16 entries, at a peak RSS of 38.7 to 39.3 MB, and 0.7 s and 72 MB at 2^22
_ADJACENCY_ENTRIES = 1 << 15
# entries per padded stack of saturating rays in facet certification (2 MB
# of int64).  Criteria 6 and 7 take about the same CPU time from 2^16 to
# 2^20 entries, at a peak RSS of 110, 116 and 124 MB (criterion 6) and 85,
# 88 and 115 MB (criterion 7); the I3322 search takes 49 s at 2^16 and 46 s
# at 2^18
_CERTIFY_ENTRIES = 1 << 18


class Cone:
    """A finitely generated cone: dim and a deduplicated primitive ray list."""

    def __init__(self, dim, rays):
        self.dim = int(dim)
        arr = np.array(rays)
        if arr.size == 0:
            raise ValueError("a cone needs at least one ray")
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"rays must be rows of length {self.dim}")
        arr = _as_int_rows(arr)
        if not (arr != 0).any(axis=1).all():
            raise DegenerateVectorError("zero ray")
        arr = _primitive_rows(arr)
        first = {}
        for i, key in enumerate(map(tuple, arr.tolist())):
            first.setdefault(key, i)
        self.rays = arr[list(first.values())]
        self._rank = None

    @property
    def ray_count(self):
        return self.rays.shape[0]

    @property
    def rank(self):
        """Dimension of the linear span of the rays (exact).

        The rank mod p is exact when it is as large as the shape allows;
        otherwise pivot_columns decides.
        """
        if self._rank is None:
            bound = int(modular_ranks(self.rays[None])[0])
            self._rank = bound if bound == min(self.rays.shape) else rank(self.rays)
        return self._rank


@dataclass(frozen=True)
class FacetNormal:
    """Primitive facet normal with the rays it saturates (v.r = 0)."""

    vector: tuple[int, ...]
    saturating: tuple[int, ...]


def lift_polytope(vertices):
    """Cone over lifted polytope vertices (leading coordinate 1).

    vertices is a matrix such as enumerate_vertices returns, or a sequence
    of its rows.
    """
    arr = np.array(vertices)
    if arr.size == 0:
        raise ValueError("empty vertex list")
    if arr.ndim != 2:
        raise ValueError("vertices must be rows of equal length")
    if (arr[:, 0] != 1).any():
        raise ValueError("vertices must be lifted with leading coordinate 1")
    return Cone(arr.shape[1], arr)


def _exact_products(mat, other):
    """mat @ other for a nonempty integer matrix and a nonempty integer
    vector or matrix: int64 when provably safe, else exact Python ints."""
    if mat.dtype != object and not _products_overflow(
            int(np.abs(mat).max()), int(np.abs(other).max()), mat.shape[1]):
        return mat @ other.astype(np.int64)
    return mat.astype(object, copy=False) @ other.astype(object, copy=False)


def project_rays(cone, basis):
    """Image cone of the rays under y -> y @ basis, for a kernel basis.

    Zero images are dropped; Cone reduces the rest to primitive form and
    merges duplicates in first-seen order.
    """
    t = _as_int_rows(basis)
    if t.shape[0] != cone.dim:
        raise ValueError(f"basis has {t.shape[0]} rows, cone dimension is {cone.dim}")
    k = t.shape[1]
    if k == 0:
        raise ValueError("projection onto a zero-dimensional kernel")
    img = _exact_products(cone.rays, t)
    img = img[(img != 0).any(axis=1)]
    if not len(img):
        raise DegenerateVectorError("all rays project to zero")
    return Cone(k, img)


def _lift(normals, basis):
    """Pull projected facet normals back: the primitive rows of normals @ basis.T.

    normals holds one normal per row; a non-integral entry raises ValueError.
    """
    b = _as_int_rows(normals)
    t = _as_int_rows(basis)
    if b.ndim != 2 or b.shape[1] != t.shape[1]:
        raise ValueError("normal length does not match basis column count")
    return _primitive_rows(_exact_products(b, t.T))


def _certify(cone, lifted):
    """Facet test of each row of lifted, a nonempty integer matrix.

    Returns (values, sat_rank, facet): values = rays @ lifted.T; sat_rank,
    for the valid rows (values <= 0), the rank of the saturating rays capped
    at rank(cone) - 1, and 0 for the others; facet, whether a row is valid,
    proper and has sat_rank = rank(cone) - 1.  The saturating rays of the
    valid rows go to modular_ranks in order of count, in zero-padded stacks
    of about _CERTIFY_ENTRIES entries; a rank mod p that reaches the cap is
    exact, and pivot_columns decides the rows below it.
    """
    rays = cone.rays
    values = _exact_products(rays, lifted.T)
    zero = values == 0
    valid = ~(values > 0).any(axis=0)
    target = cone.rank - 1
    counts = zero.sum(axis=0)
    todo = np.flatnonzero(valid)
    todo = todo[np.argsort(counts[todo], kind="stable")]
    sat_rank = np.zeros(lifted.shape[0], dtype=np.int64)
    lo = 0
    while lo < len(todo):
        hi = lo + 1
        while hi < len(todo) and (hi + 1 - lo) * counts[todo[hi]] * cone.dim <= _CERTIFY_ENTRIES:
            hi += 1
        chunk = todo[lo:hi]
        size = counts[chunk]
        cand, row = np.nonzero(zero[:, chunk].T)
        stack = np.zeros((len(chunk), size.max(), cone.dim), dtype=rays.dtype)
        stack[cand, np.arange(len(cand)) - np.repeat(np.cumsum(size) - size, size)] = rays[row]
        sat_rank[chunk] = np.minimum(modular_ranks(stack), target)
        lo = hi
    for j in todo[sat_rank[todo] < target]:
        sat_rank[j] = len(pivot_columns(rays[zero[:, j]], stop_at=target))
    facet = valid & (values < 0).any(axis=0) & (sat_rank == target)
    return values, sat_rank, facet


# ---------------------------------------------------------------------------
# double description


class _DDState:
    """Extreme rays of {y : A y <= 0} for the constraints inserted so far."""

    def __init__(self, n_constraints, dim):
        self.words = (n_constraints + 63) >> 6
        self.rays = np.zeros((0, dim), dtype=np.int64)
        self.zero = np.zeros((0, self.words), dtype=np.uint64)

    def bit(self, i):
        mask = np.zeros(self.words, dtype=np.uint64)
        mask[i >> 6] = np.uint64(1) << np.uint64(i & 63)
        return mask


def _dd_extreme_rays(a, cap):
    """Extreme rays of the polar cone {y : a_i . y <= 0}.

    a must have full column rank.  Returns (rays, zerosets) where bit i of a
    ray's zero set means constraint row i is satisfied with equality.
    The initial simplex is the first r independent rows b in lexicographic
    order (the pivots of pivot_columns).  One kernel of [b | -I] gives all
    its rays: free column j solves b x = L e_j with L > 0, so the primitive
    form of -x, ray j, lies on the negative side of row j and on the other
    r - 1 rows.  The remaining rows are then inserted in lexicographic order.
    """
    m, r = a.shape
    order = sorted(range(m), key=lambda i: tuple(int(x) for x in a[i]))
    basis_ids = [order[i] for i in pivot_columns(a[order].T, stop_at=r)]
    if len(basis_ids) < r:
        raise ValueError("constraint matrix does not have full column rank")
    basis = set(basis_ids)
    rest_ids = [i for i in order if i not in basis]

    b = a[basis_ids]
    x = integer_kernel_basis(np.hstack([b, -np.eye(r, dtype=b.dtype)]))[:r]
    init = _primitive_rows(-x.T)
    state = _DDState(m, r)
    state.rays = init if np.abs(init).max() > _RAY_INT64_MAX else init.astype(np.int64)
    state.zero = np.zeros((r, state.words), dtype=np.uint64)
    for j in range(r):
        for k, row_id in enumerate(basis_ids):
            if k != j:
                state.zero[j] |= state.bit(row_id)

    for row_id in rest_ids:
        if state.rays.shape[0] == 0:
            break
        vec = a[row_id]
        values = _exact_products(state.rays, vec)
        neg_v = values < 0
        pos_v = values > 0
        zer_v = values == 0
        if not pos_v.any():
            state.zero[zer_v] |= state.bit(row_id)
            continue
        keep_rays = [state.rays[neg_v], state.rays[zer_v]]
        keep_zero = [state.zero[neg_v], state.zero[zer_v] | state.bit(row_id)]
        if neg_v.any():
            new_rays, new_zero = _combine_adjacent(
                state, values, pos_v, neg_v, row_id, r)
            keep_rays.append(new_rays)
            keep_zero.append(new_zero)
        rays = [k for k in keep_rays if k.shape[0]]
        if not rays:
            state.rays = state.rays[:0]
            state.zero = state.zero[:0]
            break
        if any(k.dtype == object for k in rays):
            rays = [k.astype(object) for k in rays]
        state.rays = np.vstack(rays)
        state.zero = np.vstack([k for k in keep_zero if k.shape[0]])
        if state.rays.shape[0] > cap:
            raise CapExceededError(
                f"double description exceeded the intermediate ray cap of {cap}")
    return state.rays, state.zero


def _combine_adjacent(state, values, pos_v, neg_v, row_id, r):
    """New extreme rays from adjacent (positive, negative) pairs.

    Two rays are adjacent when their common zero set has at least r - 2
    bits and no third ray's zero set contains it.  The outer rays are the
    smaller of the two sides.  For a chunk of them, one broadcast per word
    counts the zeros each shares with every ray; the rays sharing at least
    r - 2 are near.  The near rays on the other side are the candidates.  A
    ray that holds a candidate's common zero set is near its outer ray, so
    the superset scan tests the common sets against the near rays alone.
    Both broadcasts go in chunks of at most _ADJACENCY_ENTRIES entries, or
    of one row where a row is longer.  Every new ray is one combination
    values[p] * ray[n] - values[n] * ray[p].
    """
    pos_idx = np.nonzero(pos_v)[0]
    neg_idx = np.nonzero(neg_v)[0]
    swap = len(pos_idx) < len(neg_idx)
    outer, inner = (pos_idx, neg_idx) if swap else (neg_idx, pos_idx)
    # one contiguous row per word: reducing over a short word axis would cost
    # more than the AND it reduces
    words = state.zero.T.copy()
    pairs = []
    step = max(1, _ADJACENCY_ENTRIES // words.shape[1])
    for lo in range(0, len(outer), step):
        o = outer[lo:lo + step]
        count = np.bitwise_count(words[0, o, None] & words[0])
        for k in range(1, state.words):
            count = np.add(count, np.bitwise_count(words[k, o, None] & words[k]),
                           dtype=np.int32)
        near = count >= r - 2
        oi, ii = np.nonzero(near[:, inner])
        common = state.zero[o[oi]] & state.zero[inner[ii]]
        near_words = words[:, near.any(axis=0)]
        keep = np.zeros(len(common), dtype=bool)
        sub = max(1, _ADJACENCY_ENTRIES // near_words.shape[1])
        for c in range(0, len(common), sub):
            z = common[c:c + sub].T[..., None]
            inside = (near_words[0] & z[0]) == z[0]
            for k in range(1, state.words):
                inside &= (near_words[k] & z[k]) == z[k]
            keep[c:c + sub] = np.count_nonzero(inside, axis=1) == 2
        pairs.append((o[oi[keep]], inner[ii[keep]], common[keep]))
    o_i, i_i, common = (np.concatenate(x) for x in zip(*pairs))
    if not len(o_i):
        return state.rays[:0], state.zero[:0]
    p_i, n_i = (o_i, i_i) if swap else (i_i, o_i)
    rays = state.rays
    promote = rays.dtype == object or _products_overflow(
        int(np.abs(values).max()), int(np.abs(rays).max()), 2)
    if promote:
        rays, values = rays.astype(object), values.astype(object)
    arr = _primitive_rows(values[p_i, None] * rays[n_i] - values[n_i, None] * rays[p_i])
    if arr.dtype != object and int(np.abs(arr).max()) > _RAY_INT64_MAX:
        arr = arr.astype(object)
    return arr, common | state.bit(row_id)


def enumerate_facets_dd(cone, cap=DD_CAP_DEFAULT):
    """Complete irredundant facet list of the conic hull of the rays.

    Facets are the (rank-1)-dimensional faces; for a cone that does not span
    the whole space the computation is carried out inside an integer basis of
    the span, so lineality needs no special casing by the caller.  Output is
    sorted by normal vector and independent of the input ray order.
    """
    w = cone.rays
    r = cone.rank
    u = None
    if r < cone.dim:
        perp = integer_kernel_basis(w)
        u = integer_kernel_basis(perp.T)
        assert u.shape[1] == r
        w = w.astype(object) @ u
    rays, zero = _dd_extreme_rays(w if w.dtype == object else w.astype(np.int64), cap)
    if u is not None:
        rays = _primitive_rows(rays.astype(object) @ u.T)
    # bit i of a zero set is bit i & 63 of word i >> 6, so little-endian
    # bytes unpacked little-end first put row i at position i
    bits = np.unpackbits(zero.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    facets = [FacetNormal(vector=tuple(vec), saturating=tuple(np.flatnonzero(b).tolist()))
              for vec, b in zip(rays.tolist(), bits)]
    facets.sort(key=lambda f: f.vector)
    return facets


def constrained_facets(cone, constraint_rows, cap=DD_CAP_DEFAULT, accept=None):
    """Facet normals of the cone that lie in the kernel of the constraints.

    Projects the rays onto an integer kernel basis, enumerates facets of the
    projected cone (cap bounds its intermediate rays) and lifts all of them
    back in one product.  accept, if given, takes that matrix (one lifted
    normal per row) and returns a bool mask of the rows to keep; it runs
    first, so that only the candidates it keeps are certified.
    Certification is one batched test on the full cone (see _certify).
    Returns the certified lifted normals in the projected cone's facet order.
    """
    basis = integer_kernel_basis(constraint_rows, columns=cone.dim)
    if basis.shape[1] == 0:
        return []
    facets = enumerate_facets_dd(project_rays(cone, basis), cap=cap)
    if not facets:
        return []
    lifted = _lift([f.vector for f in facets], basis)
    if accept is not None:
        lifted = lifted[accept(lifted)]
        if not len(lifted):
            return []
    return list(lifted[_certify(cone, lifted)[2]])
