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
of exactlinalg.  One reduced elimination gives both the rows and the rays of
the DD's initial simplex.  Its rays, the products with each inserted row and
the combined rays stay int64 until exactlinalg's one bound,
_products_overflow, says a sum of products could reach 2^62; from there
they are Python-int object arrays.

Each insertion finds the adjacent (positive, negative) ray pairs with the
combinatorial test on zero sets (Fukuda and Prodon 1996), kept as bit words
(bit i: constraint row i is tight).  A broadcast AND counts, for each ray on
the smaller side of the inserted hyperplane, the zeros it shares with each
ray on the other side; the pairs that share at least r - 2 are the
candidates.  A candidate is adjacent when no third ray's zero set holds its
common zero set C.  Byte tables of ray bitsets answer that subset query
with one lookup per byte of C (the bit patterns of Terzer and Stelling
2008): for a block of rays, T[p, v] is the bitset of the rays whose zero
set holds every bit of v in byte p, so the rays that hold C are the AND
over p of T[p, byte p of C].  Where one byte's table would outweigh testing
every ray, as in the few-ray DDs of a search's branches, each ray is tested
directly.  The rays on the inserted hyperplane fill the first blocks.
Neither ray of a pair lies on it, so one holder there rejects the pair, and
nearly every rejected pair leaves after those blocks.  One expression
combines the kept pairs.  The shared-zero counts, the tables and their
gathers go in blocks and chunks of about _ADJACENCY_ENTRIES entries,
whatever the ray count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DegenerateVectorError
from .exactlinalg import (_as_int_rows, _echelon, _primitive_rows, _products_overflow,
                          capped_ranks, integer_kernel_basis)
from .scenario import VERTEX_CAP_DEFAULT, enumerate_vertices

DD_CAP_DEFAULT = 5_000_000
# entries per chunk or block of the DD adjacency test: shared-zero counts,
# byte tables and their gathers (256 KB of uint64).  On a 2-vCPU VM four
# (3,3) DDs take 0.11 to 0.13 s CPU from 2^13 to 2^18 entries, at a process
# peak RSS of 37.4 to 39.4 MB.  The (2,2,2) DD takes 7.7 s at 2^13, 4.3 at
# 2^14, 3.6 at 2^15, 3.5 at 2^16, 4.3 at 2^17, 7.8 at 2^18 and 30 at 2^20:
# a larger table holds more rays, so a pair that a ray on the hyperplane
# rejects leaves the query later
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
    order, and one reduced elimination of [a^T | I] (rows of a in that
    order) gives both: its pivots are those rows, and its row transform S,
    the right block, has S b^T = diag(p) for the pivot entries p, so row j
    of S over p_j is column j of b^-1.  Ray j, the primitive form of
    -sign(p_j) S_j, lies on the negative side of row j and on the other
    r - 1 rows.  The remaining rows are then inserted in lexicographic order.
    """
    m, r = a.shape
    order = sorted(range(m), key=a.tolist().__getitem__)
    red, pivots = _echelon(np.hstack([a[order].T, np.eye(r, dtype=a.dtype)]), reduced=True)
    if pivots[-1] >= m:
        raise ValueError("constraint matrix does not have full column rank")
    basis_ids = [order[i] for i in pivots]
    rays = _primitive_rows(-np.sign(red[np.arange(r), pivots])[:, None] * red[:, m:])
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
    bits and no third ray's zero set holds it.  The outer rays are the
    smaller of the two sides, and the candidates are the (outer, inner)
    pairs whose zero sets share at least r - 2 bits (see _candidates).
    Each batch of candidates is decided by one subset query against byte
    tables of the ray bitsets, with the rays on the hyperplane (value 0)
    first (see _only_two_hold): a pair is kept when only its own two rays
    hold its common set.  This keeps the same pairs as testing every third
    ray, in the same order.  Every new ray is one combination values[p] *
    ray[n] - values[n] * ray[p], in (outer, inner) order; bit is the
    inserted row's word.
    """
    # group 0 on the hyperplane, 1 positive, 2 negative, each in index order
    group = (values > 0) + 2 * (values < 0)
    order = np.argsort(group, kind="stable")
    on, pos = np.bincount(group, minlength=3)[:2]
    pos_idx, neg_idx = order[on:on + pos], order[on + pos:]
    swap = len(pos_idx) < len(neg_idx)
    outer, inner = (pos_idx, neg_idx) if swap else (neg_idx, pos_idx)
    tabled = zero[order]
    pairs = [(outer[:0], inner[:0], zero[:0])]
    for o_c, i_c in _candidates(zero, outer, inner, r):
        common = zero[o_c] & zero[i_c]
        keep = _only_two_hold(tabled, on, common)
        pairs.append((o_c[keep], i_c[keep], common[keep]))
    o_i, i_i, common = (np.concatenate(x) for x in zip(*pairs))
    p_i, n_i = (o_i, i_i) if swap else (i_i, o_i)
    if rays.dtype != object and _products_overflow(
            int(np.abs(values).max()), int(np.abs(rays).max()), 2):
        rays, values = rays.astype(object), values.astype(object)
    new = values[p_i, None] * rays[n_i] - values[n_i, None] * rays[p_i]
    return _primitive_rows(new), common | bit


def _candidates(zero, outer, inner, r):
    """Batches of (outer index, inner index) arrays: the pairs whose zero
    sets share at least r - 2 bits, in (outer, inner) order.  The shared
    bits are counted for a chunk of outer rays against every inner ray at
    once, at most _ADJACENCY_ENTRIES counts (or one row) per chunk, and a
    batch closes once it holds _ADJACENCY_ENTRIES pairs, or at the end."""
    # one contiguous row per word: reducing over a short word axis would cost
    # more than the AND it reduces
    words = zero[inner].T.copy()
    outer_words = zero[outer, :, None]
    step = max(1, _ADJACENCY_ENTRIES // len(inner))
    o_parts, i_parts, size = [], [], 0
    for lo in range(0, len(outer), step):
        o = outer_words[lo:lo + step]
        count = np.bitwise_count(o[:, 0] & words[0])
        for k in range(1, len(words)):
            count = np.add(count, np.bitwise_count(o[:, k] & words[k]), dtype=np.int32)
        # flat indices: np.nonzero of the 2-d matrix is several times slower
        at, i = np.divmod((count >= r - 2).ravel().nonzero()[0], len(inner))
        o_parts.append(outer[lo + at])
        i_parts.append(inner[i])
        size += len(i)
        if size >= _ADJACENCY_ENTRIES or lo + step >= len(outer):
            yield np.concatenate(o_parts), np.concatenate(i_parts)
            o_parts, i_parts, size = [], [], 0


def _only_two_hold(zero, on, common):
    """Whether no rows of zero but two hold each row of common, that is
    have every bit of it.  Two rows after the first `on` always do (a
    pair's own rays, off the hyperplane), so a set passes when its holders
    count two.

    Where testing every row of zero takes fewer word ANDs than one byte's
    table has entries (256), as in the few-ray DDs of a search's branches,
    each row is tested directly.  Otherwise the test is a subset query on
    byte tables (Terzer and Stelling 2008).  The rows of zero go in blocks,
    each with its table T[p, v] (see _byte_table), so that the rows holding
    a set C are the AND over p of T[p, byte p of C]: one lookup per byte,
    and only the bytes that some row of common uses.
    Byte 0 always counts, since its entry T[0, 0], the block's mask of real
    rows, is all that an empty C looks up.  A block has as many rows as
    keep its table within _ADJACENCY_ENTRIES words (64 at least), and the
    gathers go in chunks of as many words.  A set whose count passes two
    leaves the query at the end of a block.  A holder in a block wholly
    within the first `on` rows counts three, so that one such holder ends
    the query there; it could not pass anyway, as the two given holders
    are still to come.
    """
    if len(common) * zero.size <= 256:
        held = (zero & common[:, None]) == common[:, None]
        return held.all(axis=2).sum(axis=1) <= 2
    cbytes = np.ascontiguousarray(common, dtype="<u8").view(np.uint8)
    used = np.bitwise_or.reduce(cbytes, axis=0)
    used[0] = 1
    used = used.nonzero()[0]
    cols = cbytes[:, used].T
    zbytes = np.ascontiguousarray(zero, dtype="<u8").view(np.uint8)[:, used]
    count = np.zeros(len(common), dtype=np.intp)
    live = np.arange(len(common))
    size = 64 * max(1, _ADJACENCY_ENTRIES // (256 * len(used)))
    for lo in range(0, len(zbytes), size):
        if lo:
            live = live[count[live] <= 2]
        table = _byte_table(zbytes[lo:lo + size])
        weight = 3 if lo + size <= on else 1
        sub = max(1, _ADJACENCY_ENTRIES // (2 * table.shape[2]))
        for c in range(0, len(live), sub):
            ids = live[c:c + sub]
            at = cols[:, ids]
            held = table[0, at[0]]
            part = np.empty_like(held)
            for p in range(1, len(at)):
                held &= np.take(table[p], at[p], axis=0, out=part)
            count[ids] += weight * np.bitwise_count(held).sum(axis=1, dtype=np.intp)
    return count <= 2


def _byte_table(zbytes):
    """T[p, v] for the rays of zbytes, one row per ray and one column per
    byte p: the bitset (little-endian uint64 words, bit i for row i) of the
    rays whose byte p has every bit of v.  With R[j] the bitset of the rays
    that have bit j, T[p, v] is the AND of R[8p + b] over the bits b of v,
    and T[p, 0] the mask of real rays, so that no padding bit counts: the
    AND-product of the eight tables (mask, R[8p + b]), formed by three
    rounds of pairwise outer ANDs (2 x 2, 4 x 4 and 16 x 16 entries)."""
    n, k = zbytes.shape
    # row 8p + b of bits is R[8p + b]; the last row marks the real rays
    bits = np.zeros((8 * k + 1, -(-n // 64) * 64), dtype=np.uint8)
    bits[:-1, :n] = np.unpackbits(zbytes, axis=1, bitorder="little").T
    bits[-1, :n] = 1
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    table = np.empty((k, 8, 2, words.shape[1]), dtype=np.uint64)
    table[:, :, 0] = words[-1]
    table[:, :, 1] = words[:-1].reshape(k, 8, -1)
    for half in (4, 2, 1):
        # entry h * len + l of a joined pair: h of the higher bits, l of the lower
        pair = table[:, 1::2, :, None] & table[:, 0::2, None, :]
        table = pair.reshape(k, half, -1, words.shape[1])
    return table[:, 0]


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
    facets = []
    # one np.nonzero per chunk of about _ADJACENCY_ENTRIES bits
    step = max(1, _ADJACENCY_ENTRIES // (64 * zero.shape[1]))
    for lo in range(0, len(normals), step):
        # bit i of a zero set is bit i & 63 of word i >> 6, so little-endian
        # bytes unpacked little-end first put row i at position i
        bits = np.unpackbits(zero[lo:lo + step].astype("<u8").view(np.uint8), axis=1,
                             bitorder="little")
        facet, ray = np.nonzero(bits)
        ends = np.cumsum(np.bincount(facet, minlength=len(bits))).tolist()
        ray = ray.tolist()
        facets += [FacetNormal(vector=tuple(vec), saturating=tuple(ray[a:b]))
                   for vec, a, b in zip(normals[lo:lo + step].tolist(), [0] + ends, ends)]
    return facets


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
