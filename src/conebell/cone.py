"""Cones, projection onto constraint kernels, and facet enumeration.

The facet enumeration converts a V-representation (rays) into the complete
irredundant H-representation by running the double description method on the
polar cone: the facet normals of cone(W) are exactly the extreme rays of
{y : W y <= 0}.  Inequalities are oriented so every ray has nonpositive
inner product with a facet normal.

All arithmetic is exact.  The hot loops run on int64 arrays and promote to
arbitrary-precision object arrays before any product could overflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, DegenerateVectorError
from .exactlinalg import (as_int_matrix, as_int_vector, integer_inverse_scaled,
                          integer_kernel_basis, primitive_normalize, rank,
                          vector_gcd)

DD_CAP_DEFAULT = 5_000_000

_INT64_LIMIT = 1 << 62


def _reduce_rows_primitive(mat):
    """Divide every row by its gcd, keeping orientation; no zero rows allowed."""
    if mat.dtype == object:
        out = mat.copy()
        for i in range(out.shape[0]):
            g = vector_gcd(out[i])
            if g == 0:
                raise DegenerateVectorError("zero ray")
            if g > 1:
                out[i] = out[i] // g
        return out
    g = np.gcd.reduce(np.abs(mat), axis=1)
    if (g == 0).any():
        raise DegenerateVectorError("zero ray")
    return mat // g[:, None]


class Cone:
    """A finitely generated cone: dim and a deduplicated primitive ray list."""

    def __init__(self, dim, rays):
        self.dim = int(dim)
        arr = np.array(rays)
        if arr.size == 0:
            raise ValueError("a cone needs at least one ray")
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"rays must be rows of length {self.dim}")
        arr = _reduce_rows_primitive(arr)
        seen = {}
        keep = []
        for i in range(arr.shape[0]):
            key = tuple(int(x) for x in arr[i])
            if key not in seen:
                seen[key] = len(keep)
                keep.append(i)
        self.rays = arr[keep]
        self._rank = None

    @property
    def ray_count(self):
        return self.rays.shape[0]

    def ray(self, i):
        return tuple(int(x) for x in self.rays[i])

    @property
    def rank(self):
        """Dimension of the linear span of the rays (exact)."""
        if self._rank is None:
            self._rank = rank(self.rays)
        return self._rank

    def dump(self, scenario=None):
        """Debug listing: one ray per line, space-separated integers."""
        lines = []
        if scenario is not None:
            lines.append(scenario.header())
        for i in range(self.ray_count):
            lines.append(" ".join(str(int(x)) for x in self.rays[i]))
        return "\n".join(lines) + "\n"


class ProjectedCone(Cone):
    """Cone of projected rays, remembering which source rays map where."""

    def __init__(self, dim, rays, source_map, dropped):
        super().__init__(dim, rays)
        self.source_map = source_map
        self.dropped = dropped


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
    """Cone over lifted polytope vertices (leading coordinate 1)."""
    if not vertices:
        raise ValueError("empty vertex list")
    coords = [v.coords for v in vertices]
    dim = len(coords[0])
    if any(len(c) != dim for c in coords):
        raise ValueError("vertices of mixed dimension")
    if any(c[0] != 1 for c in coords):
        raise ValueError("vertices must be lifted with leading coordinate 1")
    return Cone(dim, np.array(coords, dtype=np.int64))


def project_rays(cone, basis):
    """Image cone of the rays under y -> y @ basis, for a kernel basis.

    Zero images are dropped and duplicates merged; source_map[i] lists the
    source ray indices that land on projected ray i.
    """
    t = as_int_matrix(basis)
    if t.shape[0] != cone.dim:
        raise ValueError(f"basis has {t.shape[0]} rows, cone dimension is {cone.dim}")
    k = t.shape[1]
    if k == 0:
        raise ValueError("projection onto a zero-dimensional kernel")
    img = cone.rays.astype(object) @ t
    groups = {}
    order = []
    dropped = []
    for i in range(img.shape[0]):
        row = img[i]
        g = vector_gcd(row)
        if g == 0:
            dropped.append(i)
            continue
        key = tuple(int(x) // g for x in row)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    if not order:
        raise DegenerateVectorError("all rays project to zero")
    rays = np.array(order, dtype=object)
    return ProjectedCone(k, rays, tuple(tuple(groups[key]) for key in order),
                         tuple(dropped))


def lift_back(b_tilde, basis):
    """Pull a projected facet normal back: primitive(T @ b_tilde)."""
    t = as_int_matrix(basis)
    b = as_int_vector(b_tilde)
    if len(b) != t.shape[1]:
        raise ValueError("normal length does not match basis column count")
    lifted = t @ b
    return primitive_normalize(lifted, keep_orientation=True)


def _exact_products(mat, vec):
    """mat @ vec with int64 when provably safe, else exact object arithmetic."""
    if mat.dtype != object:
        vmax = max((abs(int(x)) for x in vec), default=0)
        mmax = int(np.abs(mat).max()) if mat.size else 0
        if vmax and mmax and mmax * vmax * mat.shape[1] >= _INT64_LIMIT:
            return mat.astype(object) @ np.array(list(vec), dtype=object)
        return mat @ np.asarray(vec, dtype=np.int64)
    return mat @ np.array(list(vec), dtype=object)


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
    sat = tuple(int(i) for i in np.nonzero(np.array([v == 0 for v in values]))[0])
    if any(v > 0 for v in values):
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


def _independent_subset(rows, r):
    """Indices of the first r linearly independent rows, scanning in order."""
    picked = []
    basis = []  # mutually reduced object rows
    for i in range(rows.shape[0]):
        v = np.array([int(x) for x in rows[i]], dtype=object)
        for b in basis:
            lead = next(j for j in range(len(b)) if b[j] != 0)
            if v[lead] != 0:
                v = v * int(b[lead]) - b * int(v[lead])
                g = vector_gcd(v)
                if g > 1:
                    v = v // g
        if any(x != 0 for x in v):
            picked.append(i)
            basis.append(v)
            if len(picked) == r:
                return picked
    return picked


def _popcounts(words):
    return np.bitwise_count(words).sum(axis=1).astype(np.int64)


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
    Insertion order is lexicographic over the constraint rows, after an
    initial linearly independent simplex basis.
    """
    m, r = a.shape
    order = sorted(range(m), key=lambda i: tuple(int(x) for x in a[i]))
    basis = _independent_subset(a[order], r)
    if len(basis) < r:
        raise ValueError("constraint matrix does not have full column rank")
    basis_ids = [order[i] for i in basis]
    rest_ids = [order[i] for i in range(m) if i not in set(basis)]

    x, det = integer_inverse_scaled(a[basis_ids])
    sign = 1 if det > 0 else -1
    state = _DDState(m, r)
    init = (-sign) * x.T
    state.rays = _reduce_rows_primitive(init)
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
        neg_v = np.array([v < 0 for v in values])
        pos_v = np.array([v > 0 for v in values])
        zer_v = ~neg_v & ~pos_v
        if not pos_v.any():
            state.zero[zer_v] |= state.bit(row_id)
            continue
        keep_rays = [state.rays[neg_v], state.rays[zer_v]]
        keep_zero = [state.zero[neg_v], state.zero[zer_v] | state.bit(row_id)]
        if neg_v.any():
            new_rays, new_zero = _combine_adjacent(
                state, values, pos_v, neg_v, vec, row_id, r)
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


def _combine_adjacent(state, values, pos_v, neg_v, vec, row_id, r):
    """New extreme rays from adjacent (positive, negative) pairs."""
    pos_idx = np.nonzero(pos_v)[0]
    neg_idx = np.nonzero(neg_v)[0]
    z_all = state.zero
    z_pos = z_all[pos_idx]
    z_neg = z_all[neg_idx]
    # iterate over the smaller side, vectorizing against the larger
    swap = len(pos_idx) < len(neg_idx)
    outer_idx, outer_z = (pos_idx, z_pos) if swap else (neg_idx, z_neg)
    inner_idx, inner_z = (neg_idx, z_neg) if swap else (pos_idx, z_pos)
    pairs = []
    need = r - 2
    for oi in range(len(outer_idx)):
        zo = outer_z[oi]
        common = inner_z & zo
        counts = _popcounts(common)
        cand = np.nonzero(counts >= need)[0]
        for ci in cand:
            z = common[ci]
            sup = ((z_all & z) == z).all(axis=1)
            if int(sup.sum()) == 2:
                a_i = int(outer_idx[oi])
                b_i = int(inner_idx[ci])
                p_i, n_i = (a_i, b_i) if swap else (b_i, a_i)
                pairs.append((p_i, n_i, z))
    if not pairs:
        return state.rays[:0], state.zero[:0]
    new_rays = []
    new_zero = np.zeros((len(pairs), state.words), dtype=np.uint64)
    bit = state.bit(row_id)
    promote = state.rays.dtype == object
    if not promote:
        vmax = int(np.abs(np.array([int(v) for v in values])).max())
        rmax = int(np.abs(state.rays).max())
        promote = vmax * rmax * 2 >= _INT64_LIMIT
    for k, (p_i, n_i, z) in enumerate(pairs):
        cp, cn = int(values[p_i]), int(values[n_i])
        if promote:
            row = cp * state.rays[n_i].astype(object) - cn * state.rays[p_i].astype(object)
        else:
            row = cp * state.rays[n_i] - cn * state.rays[p_i]
        new_rays.append(row)
        new_zero[k] = z | bit
    arr = np.array(new_rays, dtype=object) if promote else np.array(new_rays, dtype=np.int64)
    arr = _reduce_rows_primitive(arr)
    if arr.dtype != object and int(np.abs(arr).max()) > (1 << 40):
        arr = arr.astype(object)
    return arr, new_zero


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
    facets = []
    for i in range(rays.shape[0]):
        vec = rays[i]
        if u is not None:
            vec = u @ np.array([int(x) for x in vec], dtype=object)
            vec = primitive_normalize(vec, keep_orientation=True)
        sat = []
        for word in range(zero.shape[1]):
            bits = int(zero[i, word])
            base = word << 6
            while bits:
                low = bits & -bits
                sat.append(base + low.bit_length() - 1)
                bits ^= low
        facets.append(FacetNormal(vector=tuple(int(x) for x in vec),
                                  saturating=tuple(sorted(sat))))
    facets.sort(key=lambda f: f.vector)
    return facets


def constrained_facets(cone, constraint_rows):
    """Facet normals of the cone that lie in the kernel of the constraints.

    Projects the rays onto an integer kernel basis, enumerates facets of the
    projected cone, lifts each candidate back, and keeps the ones certified
    as facets of the original cone.  Returns (normal, certificate) pairs.
    """
    g = as_int_matrix(constraint_rows, columns=cone.dim)
    basis = integer_kernel_basis(g, columns=cone.dim)
    if basis.shape[1] == 0:
        return [], basis
    projected = project_rays(cone, basis)
    results = []
    for facet in enumerate_facets_dd(projected):
        lifted = lift_back(facet.vector, basis)
        cert = is_facet(lifted, cone)
        if cert.facet:
            results.append((lifted, cert))
    return results, basis
