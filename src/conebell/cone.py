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
every branch: project the rays onto a basis B of the branch's kernel (an
integer matrix of full column rank, checked), run the double description
(DD) core _polar, which enumerate_facets_dd shares, on the small projected
cone, keep the normals y with y . (B^T w) > 0 for each demanded row w (the
reduction check, in a search), lift them back in one product and certify
them on the full cone in one batch.  If some B^T w is zero no normal can
pass, so the projection and the DD are skipped.  A valid, proper candidate
is a facet when its saturating rays have rank rank(cone) - 1, the most they
can have, so one call of exactlinalg.capped_ranks with that cap decides
every candidate; Cone.rank is the same call with the cap min(shape), made
only where the rank is not known: local_cone and constrained_facets record
the full rank of the cones that span their space.
generalize_multi certifies each lower inequality on its own scenario with
the same batched test.

All arithmetic is exact, and the exact steps go through the one elimination
of exactlinalg.  The DD's initial simplex comes from pivot_columns (which
rows) and one integer_kernel_basis (every ray).  Its rays, the products with
each inserted row and the combined rays stay int64 until exactlinalg's one
bound, _products_overflow, says a sum of products could reach 2^62; from
there they are Python-int object arrays.

Each insertion finds the adjacent (positive, negative) ray pairs with the
combinatorial test on zero sets (Fukuda and Prodon 1996), kept as bit words
(bit i: constraint row i is tight).  A broadcast AND lists, for each ray on
the smaller side, the rays that share at least r - 2 zeros with it, its
near rays; the near rays on the other side are its candidate partners.  A
third ray whose zero set holds a pair's common zero set is near both rays
of the pair, so two scans over the near rays decide every pair exactly.
The first tests the common sets against the near rays on the inserted
hyperplane: neither ray of a pair is on it, so any holder there rejects the
pair, and nearly all rejected pairs go there.  The second tests the few
survivors against the near rays off the hyperplane and keeps a pair when
only its own two rays hold the set.  One expression combines the kept
pairs.  The broadcasts and scans go in chunks of about _ADJACENCY_ENTRIES
entries: the DD already holds every intermediate ray, and larger chunks
raise its peak memory for little speed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DegenerateVectorError
from .exactlinalg import (_as_int_rows, _primitive_rows, _products_overflow, capped_ranks,
                          integer_kernel_basis, pivot_columns)
from .scenario import VERTEX_CAP_DEFAULT, enumerate_vertices

DD_CAP_DEFAULT = 5_000_000
# entries per broadcast and scan of the DD adjacency test (256 KB of uint64).
# Larger chunks only cost memory: on a 2-vCPU VM four (3,3) DDs take 0.18 to
# 0.21 s CPU from 2^13 to 2^16 entries, at a process peak RSS of 36.6 to
# 37.6 MB, and 0.20 s at 46.5 MB at 2^22
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
        """Dimension of the linear span of the rays (exact), which is at
        most min(shape)."""
        if self._rank is None:
            every = np.ones((self.ray_count, 1), dtype=bool)
            self._rank = int(capped_ranks(self.rays, every, min(self.rays.shape))[0])
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


def local_cone(scenario, cap=VERTEX_CAP_DEFAULT):
    """The cone over a scenario's lifted local vertices (enumerate_vertices,
    under the vertex cap), with its rank recorded: the vertex matrix is a
    Kronecker product of per-party blocks (1, +-1, ..., +-1) of full column
    rank, so the cone spans its space.  Its rays are the vertices, in order.
    """
    verts = enumerate_vertices(scenario, cap=cap)
    cone = Cone(verts.shape[1], verts)
    cone._rank = cone.dim
    return cone


def _exact_products(mat, other):
    """mat @ other for an integer matrix and an integer vector or matrix:
    int64 when provably safe, else exact Python ints."""
    if mat.dtype != object and not _products_overflow(
            int(np.abs(mat).max(initial=0)), int(np.abs(other).max(initial=0)), mat.shape[1]):
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
    """Facet mask of the rows of lifted, a nonempty integer matrix: whether
    each is valid (rays @ row <= 0), proper (some value < 0) and saturates
    rays of rank rank(cone) - 1, decided for all rows by one capped_ranks."""
    values = _exact_products(cone.rays, lifted.T)
    facet = ~(values > 0).any(axis=0) & (values < 0).any(axis=0)
    cols = np.flatnonzero(facet)
    target = cone.rank - 1
    facet[cols] = capped_ranks(cone.rays, values[:, cols] == 0, target) == target
    return facet


# ---------------------------------------------------------------------------
# double description


def _bit(words, i):
    """Zero-set word vector with only bit i set."""
    mask = np.zeros(words, dtype=np.uint64)
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
    order = sorted(range(m), key=a.tolist().__getitem__)
    basis_ids = [order[i] for i in pivot_columns(a[order].T, stop_at=r)]
    if len(basis_ids) < r:
        raise ValueError("constraint matrix does not have full column rank")
    b = a[basis_ids]
    x = integer_kernel_basis(np.hstack([b, -np.eye(r, dtype=b.dtype)]))[:r]
    rays = _primitive_rows(-x.T)
    words = (m + 63) >> 6
    bits = np.array([_bit(words, i) for i in basis_ids])
    zero = np.bitwise_or.reduce(bits) ^ bits
    for i in [i for i in order if i not in basis_ids]:
        values = _exact_products(rays, a[i])
        bit = _bit(words, i)
        # no (positive, negative) pair has bit i in its common zero set, so
        # setting it first leaves the adjacency test unchanged
        zero[values == 0] |= bit
        if not (values > 0).any():
            continue
        new_rays, new_zero = _combine_adjacent(rays, zero, values, bit, r)
        keep = values <= 0
        rays = np.concatenate([rays[keep], new_rays])
        zero = np.concatenate([zero[keep], new_zero])
        if len(rays) > cap:
            raise CapExceededError(
                f"double description exceeded the intermediate ray cap of {cap}")
    return rays, zero


def _combine_adjacent(rays, zero, values, bit, r):
    """New extreme rays from adjacent (positive, negative) pairs.

    Two rays are adjacent when their common zero set has at least r - 2
    bits and no third ray's zero set contains it.  The outer rays are the
    smaller of the two sides.  For a chunk of them, one broadcast per word
    counts the zeros each shares with every ray; the rays sharing at least
    r - 2 are near, and one np.nonzero lists them, each with its side of
    the inserted hyperplane.  The near rays on the other side are the
    candidates.  A ray that holds a candidate's common zero set is near its
    outer ray, so two scans over the chunk's near rays decide every
    candidate exactly:
    - the first tests the common sets against the near rays on the
      hyperplane (value 0).  Neither ray of a pair is on it, so any holder
      there is a third ray, and the pair is dropped;
    - the second tests the survivors against the near rays off the
      hyperplane, the pair's own two rays among them, and keeps a pair when
      exactly two hold its common set.
    The broadcasts and scans go in chunks of at most _ADJACENCY_ENTRIES
    entries, or of one row where a row is longer.  Every new ray is one
    combination values[p] * ray[n] - values[n] * ray[p]; bit is the
    inserted row's word.
    """
    pos_idx = np.flatnonzero(values > 0)
    neg_idx = np.flatnonzero(values < 0)
    swap = len(pos_idx) < len(neg_idx)
    outer, inner = (pos_idx, neg_idx) if swap else (neg_idx, pos_idx)
    # 0 on the hyperplane, 1 on the inner side, 2 on the outer side
    side = np.zeros(len(values), dtype=np.int8)
    side[inner] = 1
    side[outer] = 2
    # one contiguous row per word: reducing over a short word axis would cost
    # more than the AND it reduces.  free has the bits of the rows a ray is off
    words = zero.T.copy()
    free = ~words
    pairs = [(outer[:0], inner[:0], zero[:0])]
    step = max(1, _ADJACENCY_ENTRIES // words.shape[1])
    for lo in range(0, len(outer), step):
        o = outer[lo:lo + step]
        count = np.bitwise_count(words[0, o, None] & words[0])
        for k in range(1, len(words)):
            count = np.add(count, np.bitwise_count(words[k, o, None] & words[k]),
                           dtype=np.int32)
        # flat indices: np.nonzero of the 2-d matrix is several times slower
        near = np.flatnonzero(count >= r - 2)
        cand = near[side[near % len(side)] == 1]
        o_c, i_c = o[cand // len(side)], cand % len(side)
        near %= len(side)
        common = zero[o_c] & zero[i_c]
        if len(o) > 1:
            # a ray near several outer rays is one witness
            seen = np.zeros(len(side), dtype=bool)
            seen[near] = True
            near = np.flatnonzero(seen)
        on = side[near] == 0
        keep = _holders(free[:, near[on]], common) == 0
        keep[keep] = _holders(free[:, near[~on]], common[keep]) == 2
        pairs.append((o_c[keep], i_c[keep], common[keep]))
    o_i, i_i, common = (np.concatenate(x) for x in zip(*pairs))
    p_i, n_i = (o_i, i_i) if swap else (i_i, o_i)
    if rays.dtype != object and _products_overflow(
            int(np.abs(values).max()), int(np.abs(rays).max()), 2):
        rays, values = rays.astype(object), values.astype(object)
    new = values[p_i, None] * rays[n_i] - values[n_i, None] * rays[p_i]
    return _primitive_rows(new), common | bit


def _holders(free, common):
    """For each row of common, how many rays hold it in their zero set.  free
    has one row per zero-set word and one column per ray, with the bits of
    the rows the ray is off, so a ray holds a set that meets none of them."""
    held = np.zeros(len(common), dtype=np.intp)
    sub = max(1, _ADJACENCY_ENTRIES // max(1, free.shape[1]))
    for c in range(0, len(common), sub):
        z = common[c:c + sub].T[..., None]
        miss = free[0] & z[0]
        for k in range(1, len(free)):
            miss |= free[k] & z[k]
        held[c:c + sub] = (miss == 0).sum(axis=1)
    return held


def _polar(cone, cap):
    """(normals, zero words) of the cone's facets, sorted by normal.

    The normals are the extreme rays of the polar cone, in the cone's own
    coordinates; bit i of a zero word says the normal saturates ray i.  A
    cone that does not span its space is restricted to its span first: with
    u an integer basis of the span, r -> r @ u is injective there, so the
    projected cone keeps the ray order and the zero sets, and its facets lift
    back through u.  cap bounds the DD's intermediate rays.
    """
    if cone.rank == cone.dim:
        normals, zero = _dd_extreme_rays(cone.rays, cap)
    else:
        u = integer_kernel_basis(integer_kernel_basis(cone.rays).T)
        normals, zero = _polar(project_rays(cone, u), cap)
        if len(normals):
            normals = _lift(normals, u)
    order = sorted(range(len(normals)), key=normals.tolist().__getitem__)
    return normals[order], zero[order]


def enumerate_facets_dd(cone, cap=DD_CAP_DEFAULT):
    """Complete irredundant facet list of the conic hull of the rays.

    Facets are the (rank-1)-dimensional faces; a cone that does not span the
    whole space needs no special casing by the caller (see _polar).  Output
    is sorted by normal vector and independent of the input ray order; cap
    bounds the intermediate rays of the double description.
    """
    normals, zero = _polar(cone, cap)
    # bit i of a zero set is bit i & 63 of word i >> 6, so little-endian
    # bytes unpacked little-end first put row i at position i
    bits = np.unpackbits(zero.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return [FacetNormal(vector=tuple(vec), saturating=tuple(np.flatnonzero(b).tolist()))
            for vec, b in zip(normals.tolist(), bits)]


def constrained_facets(cone, basis, positive, cap=DD_CAP_DEFAULT):
    """Facet normals c of the cone in the column span of basis with c . w > 0
    for every row w of positive, a (k, dim) integer matrix.

    basis is an integer matrix with cone.dim rows and full column rank, such
    as integer_kernel_basis(rows, columns=cone.dim) for the normals tight on
    constraint rows; a search passes its invariant basis times its branch's
    kernel.  Any other basis raises ValueError.  Projects the rays onto B =
    basis, enumerates facets of the projected cone (cap bounds its
    intermediate rays), keeps the normals y with y . (B^T w) > 0, lifts them
    back in one product and certifies them in one batch (see _certify); if
    some B^T w is zero, it returns [] before the projection.  A spanning
    cone projects onto a spanning cone, so its rank is recorded, not
    computed.  In a search, w = M n for a lower normal n and embedding map
    M, and B spans the normals tight on every saturating vertex of n
    embedded by M, so c M is a multiple of n and the sign is the reduction
    check.  Returns the certified lifted normals in the projected cone's
    facet order.
    """
    basis = np.asarray(basis)
    if basis.ndim != 2 or basis.shape[0] != cone.dim:
        raise ValueError(f"a basis has one row per coordinate, {cone.dim}, not shape "
                         f"{basis.shape}; the kernel of constraint rows is "
                         "integer_kernel_basis(rows, columns=cone.dim)")
    if basis.shape[1] == 0:
        return []
    if capped_ranks(basis, np.ones((cone.dim, 1), dtype=bool), basis.shape[1])[0] \
            < basis.shape[1]:
        raise ValueError("a basis must have full column rank")
    signs = _exact_products(basis.T, _as_int_rows(positive, columns=cone.dim).T)
    if not signs.any(axis=0).all():
        return []
    projected = project_rays(cone, basis)
    if cone.rank == cone.dim:
        projected._rank = projected.dim
    normals, _ = _polar(projected, cap)
    normals = normals[(_exact_products(normals, signs) > 0).all(axis=1)]
    if not len(normals):
        return []
    lifted = _lift(normals, basis)
    return list(lifted[_certify(cone, lifted)])
