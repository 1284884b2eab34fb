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

constrained_facets is the constrained search that generalize runs on every
branch: project the rays onto the kernel of the constraint rows (an integer
matrix, one constraint per row), run the enumeration on the small projected
cone, lift each candidate back and certify it with is_facet on the full cone.

All arithmetic is exact, and the exact steps go through the two kernels of
exactlinalg.  The DD's initial simplex comes from pivot_columns (which rows)
and integer_kernel_basis (one kernel per ray); it enters the DD as int64
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
from .exactlinalg import (_RAY_INT64_MAX, _primitive_rows, _products_overflow,
                          as_int_matrix, as_int_vector, integer_kernel_basis,
                          pivot_columns, primitive_normalize, rank, vector_gcd)

DD_CAP_DEFAULT = 5_000_000
# entries per broadcast of the DD adjacency test (256 KB of uint64).  Larger
# chunks only cost memory: four (3,3) DDs take about 0.5 s CPU from 2^13 to
# 2^16 entries, at a peak RSS of 38.7 to 39.3 MB, and 0.7 s and 72 MB at 2^22
_ADJACENCY_ENTRIES = 1 << 15


class Cone:
    """A finitely generated cone: dim and a deduplicated primitive ray list."""

    def __init__(self, dim, rays):
        self.dim = int(dim)
        arr = np.array(rays)
        if arr.size == 0:
            raise ValueError("a cone needs at least one ray")
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"rays must be rows of length {self.dim}")
        # signed integers become int64; anything else becomes exact Python
        # ints, and a non-integral entry raises ValueError
        arr = arr.astype(np.int64, copy=False) if arr.dtype.kind == "i" else as_int_matrix(arr)
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
        """Dimension of the linear span of the rays (exact)."""
        if self._rank is None:
            self._rank = rank(self.rays)
        return self._rank


@dataclass(frozen=True)
class FacetNormal:
    """Primitive facet normal with the rays it saturates (v.r = 0)."""

    vector: tuple[int, ...]
    saturating: tuple[int, ...]


@dataclass(frozen=True)
class FacetCertificate:
    """Outcome of a facet test, with the rank evidence."""

    valid: bool
    facet: bool
    saturating: tuple[int, ...]
    saturating_rank: int
    cone_rank: int

    def __bool__(self):
        return self.facet


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
    t = as_int_matrix(basis)
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


def lift_back(b_tilde, basis):
    """Pull a projected facet normal back: primitive(T @ b_tilde)."""
    t = as_int_matrix(basis)
    b = as_int_vector(b_tilde)
    if len(b) != t.shape[1]:
        raise ValueError("normal length does not match basis column count")
    lifted = t @ b
    return primitive_normalize(lifted, keep_orientation=True)


def is_facet(candidate, cone):
    """Exact facet test with certificate.

    A valid inequality (nonpositive on every ray) is a facet iff some ray
    is strictly negative, so the face is proper, and its saturating rays
    span a space of dimension rank(cone) - 1.
    """
    vec = as_int_vector(candidate)
    if len(vec) != cone.dim:
        raise ValueError("candidate length does not match cone dimension")
    if vector_gcd(vec) == 0:
        raise DegenerateVectorError("zero candidate")
    values = _exact_products(cone.rays, vec)
    sat = tuple(np.nonzero(values == 0)[0].tolist())
    if (values > 0).any():
        return FacetCertificate(valid=False, facet=False, saturating=sat,
                                saturating_rank=0, cone_rank=cone.rank)
    target = cone.rank - 1
    sub = cone.rays[list(sat)] if sat else cone.rays[:0]
    sat_rank = rank(sub, stop_at=target) if len(sat) else 0
    proper = len(sat) < len(values)
    return FacetCertificate(valid=True, facet=proper and sat_rank == target, saturating=sat,
                            saturating_rank=sat_rank, cone_rank=cone.rank)


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
    The initial simplex is the first r independent rows in lexicographic
    order (the pivots of pivot_columns).  Its ray j spans the integer kernel
    of the other r - 1 rows and lies on the negative side of row j.  The
    remaining rows are then inserted in lexicographic order.
    """
    m, r = a.shape
    order = sorted(range(m), key=lambda i: tuple(int(x) for x in a[i]))
    basis_ids = [order[i] for i in pivot_columns(a[order].T, stop_at=r)]
    if len(basis_ids) < r:
        raise ValueError("constraint matrix does not have full column rank")
    basis = set(basis_ids)
    rest_ids = [i for i in order if i not in basis]

    b = a[basis_ids]
    init = np.empty((r, r), dtype=object)
    for j in range(r):
        y = integer_kernel_basis(np.delete(b, j, axis=0), columns=r)[:, 0]
        init[j] = -y if b[j].astype(object) @ y > 0 else y
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


def constrained_facets(cone, constraint_rows, cap=DD_CAP_DEFAULT):
    """Facet normals of the cone that lie in the kernel of the constraints.

    Projects the rays onto an integer kernel basis, enumerates facets of the
    projected cone (cap bounds its intermediate rays), lifts each candidate
    back, and keeps the ones certified as facets of the original cone.
    Returns the certified lifted normals in the projected cone's facet order.
    """
    basis = integer_kernel_basis(constraint_rows, columns=cone.dim)
    if basis.shape[1] == 0:
        return []
    lifted = (lift_back(f.vector, basis)
              for f in enumerate_facets_dd(project_rays(cone, basis), cap=cap))
    return [b for b in lifted if is_facet(b, cone).facet]
