import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebell import catalog
from conebell.cone import (DD_CAP_DEFAULT, Cone, _certify, _dd_extreme_rays, _lift,
                           constrained_facets, enumerate_facets_dd, lift_polytope,
                           project_rays)
from conebell.errors import CapExceededError
from conebell.exactlinalg import (_PRIME, integer_kernel_basis, pivot_columns, rank,
                                  vector_gcd)
from conebell.inequality import from_terms
from conebell.scenario import Scenario, enumerate_vertices

from .reference import (party_swap, random_full_dim_vertices, reference_facets, sympy_rank,
                        sympy_nullspace_rays, sympy_simplex_rays)


def _projection_sources(cone, basis, projected):
    """Source ray indices landing on each projected ray, recomputed from
    cone.rays @ basis, and the indices of the rays whose image is zero."""
    index = {tuple(ray): j for j, ray in enumerate(projected.rays.tolist())}
    sources = [[] for _ in range(projected.ray_count)]
    dropped = []
    for i, image in enumerate(cone.rays.astype(object) @ basis):
        g = vector_gcd(image)
        if g == 0:
            dropped.append(i)
        else:
            sources[index[tuple(int(x) // g for x in image)]].append(i)
    assert all(sources), "every projected ray is the image of some source ray"
    return sources, dropped


def test_lift_unit_segment():
    cone = lift_polytope([(1, -1), (1, 1)])
    assert cone.dim == 2
    assert cone.rays.dtype == np.int64 and cone.rays.tolist() == [[1, -1], [1, 1]]


def test_lift_chsh_scenario():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    assert cone.dim == 9 and cone.ray_count == 16
    assert (cone.rays[:, 0] == 1).all()


def test_lift_rejects_bad_input():
    with pytest.raises(ValueError):
        lift_polytope([])
    with pytest.raises(ValueError):
        lift_polytope([(2, 1)])
    with pytest.raises(ValueError):
        lift_polytope([(1, 1), (1, 1, 1)])


def test_project_identity_keeps_rays():
    cone = lift_polytope(enumerate_vertices(Scenario((2,))))
    proj = project_rays(cone, np.eye(cone.dim, dtype=object))
    assert proj.ray_count == cone.ray_count


def test_project_single_column_collapses_to_apex():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    basis = np.zeros((9, 1), dtype=object)
    basis[0, 0] = 1
    proj = project_rays(cone, basis)
    assert proj.rays.tolist() == [[1]]
    sources, dropped = _projection_sources(cone, basis, proj)
    assert sources == [list(range(16))] and dropped == []


def test_project_merges_redundant_rays():
    # six rays in 3-space collapsing onto three distinct projected generators
    rays = np.array([
        [1, 0, 1], [2, 0, 5], [0, 1, 1], [0, 3, 2], [1, 1, 0], [2, 2, 7],
    ], dtype=np.int64)
    cone = Cone(3, rays)
    basis = np.array([[1, 0], [0, 1], [0, 0]], dtype=object)
    proj = project_rays(cone, basis)
    assert proj.ray_count == 3
    sources, dropped = _projection_sources(cone, basis, proj)
    assert sources == [[0, 1], [2, 3], [4, 5]] and dropped == []
    assert proj.rays.tolist() == [[1, 0], [0, 1], [1, 1]]


def test_project_keeps_large_products_exact():
    # 2^40 * 2^30 wraps around in int64, so this product needs Python ints
    cone = Cone(2, np.array([[1, 2 ** 40], [3, -2 ** 40]], dtype=np.int64))
    basis = np.array([[1, 0], [2 ** 30, 1]], dtype=object)
    proj = project_rays(cone, basis)
    assert proj.rays.tolist() == [[1 + 2 ** 70, 2 ** 40], [3 - 2 ** 70, -2 ** 40]]


def test_orthant_facets():
    cone = Cone(3, np.eye(3, dtype=np.int64))
    facets = enumerate_facets_dd(cone)
    assert {f.vector for f in facets} == {(-1, 0, 0), (0, -1, 0), (0, 0, -1)}
    for f in facets:
        assert len(f.saturating) == 2


def test_chsh_polytope_facet_count():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    facets = enumerate_facets_dd(cone)
    assert len(facets) == 24
    # cross-check the complete facet set against the subset-enumeration oracle
    assert {f.vector for f in facets} == reference_facets(cone.rays)


def test_dd_matches_reference_on_random_cones():
    rng = np.random.default_rng(23)
    inputs = []
    for trial in range(30):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(dim + 1, 9))
        rays = rng.integers(-3, 4, size=(count, dim))
        rays = rays[[bool(r.any()) for r in rays]]
        if len(rays) == 0 or np.linalg.matrix_rank(rays) < dim:
            continue
        inputs.append(rays.astype(np.int64))
    # large enough that the DD starts on int64 and promotes partway through
    inputs.append(random_full_dim_vertices(rng, 4, 9, spread=200))
    for rays in inputs:
        cone = Cone(rays.shape[1], rays)
        got = {f.vector for f in enumerate_facets_dd(cone)}
        assert got == reference_facets(cone.rays)


def test_dd_across_word_boundary_and_on_python_ints():
    rng = np.random.default_rng(11)
    # 70 rays on a parabola, all extreme: zero sets span two uint64 words
    k = rng.permutation(np.arange(-35, 35))
    wide = Cone(3, np.stack([np.ones_like(k), k, k * k], axis=1))
    facets = enumerate_facets_dd(wide)
    assert any(min(f.saturating) < 64 <= max(f.saturating) for f in facets)
    assert {f.vector for f in facets} == reference_facets(wide.rays)
    # entries near 10^6 put the simplex rays above 2^40, so every insertion
    # combines Python-int rays
    big = Cone(4, random_full_dim_vertices(rng, 3, 8, spread=10 ** 6))
    assert _dd_extreme_rays(big.rays, DD_CAP_DEFAULT)[0].dtype == object
    assert {f.vector for f in enumerate_facets_dd(big)} == reference_facets(big.rays)


def test_dd_output_does_not_depend_on_the_chunk_bound(monkeypatch):
    cones = [lift_polytope(enumerate_vertices(Scenario((3, 3)))),
             Cone(5, random_full_dim_vertices(np.random.default_rng(3), 4, 14))]

    def output(cone):
        return [(f.vector, f.saturating) for f in enumerate_facets_dd(cone)]

    expected = [output(cone) for cone in cones]
    # one outer ray per pair filter and one candidate per superset scan
    monkeypatch.setattr("conebell.cone._ADJACENCY_ENTRIES", 1)
    assert [output(cone) for cone in cones] == expected


def test_dd_stays_on_int64_for_small_entries():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    rays, _ = _dd_extreme_rays(cone.rays, DD_CAP_DEFAULT)
    assert rays.dtype == np.int64 and rays.shape[0] == 24


def test_dd_of_square_system_is_the_simplex():
    # with as many constraints as dimensions the DD inserts nothing after
    # its initial simplex; entries up to 10^6 give simplex rays above 2^40,
    # which stay Python ints
    rng = np.random.default_rng(5)
    cases = [rng.integers(-5, 6, size=(n, n)) for n in range(1, 7) for _ in range(4)]
    cases.append(rng.integers(-10 ** 6, 10 ** 6, size=(5, 5)).astype(object))
    for a in cases:
        n = a.shape[0]
        if sympy_rank(a) < n:
            continue
        rays, zero = _dd_extreme_rays(a, DD_CAP_DEFAULT)
        got = {}
        for ray, z in zip(rays, zero):
            # the one constraint the ray does not saturate
            (row,) = [i for i in range(n) if not int(z[0]) >> i & 1]
            got[row] = tuple(int(x) for x in ray)
        assert got == dict(enumerate(sympy_simplex_rays(a)))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 7))
    spread = draw(st.sampled_from([5, 2 ** 20, 2 ** 31]))
    return np.array([[draw(st.integers(-spread, spread)) for _ in range(n)] for _ in range(n)],
                    dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_dd_simplex_rays_are_the_per_row_nullspaces(a):
    # a square system is its initial simplex, in lexicographic row order
    n = a.shape[0]
    if sympy_rank(a) < n:
        return
    order = sorted(range(n), key=lambda i: tuple(a[i]))
    rays, zero = _dd_extreme_rays(a, DD_CAP_DEFAULT)
    expected = sympy_nullspace_rays(a)
    assert [tuple(int(x) for x in ray) for ray in rays] == [expected[i] for i in order]
    assert [int(z[0]) for z in zero] == [(1 << n) - 1 - (1 << i) for i in order]


def test_dd_order_independence():
    rng = np.random.default_rng(7)
    sc = Scenario((2, 2))
    verts = enumerate_vertices(sc)
    base = {f.vector for f in enumerate_facets_dd(lift_polytope(verts))}
    for _ in range(5):
        shuffled = list(verts)
        rng.shuffle(shuffled)
        got = {f.vector for f in enumerate_facets_dd(lift_polytope(shuffled))}
        assert got == base


def test_dd_saturating_sets_are_exact():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    rays = cone.rays.astype(object)
    for f in enumerate_facets_dd(cone):
        vals = rays @ np.array(f.vector, dtype=object)
        assert tuple(i for i, v in enumerate(vals) if v == 0) == f.saturating
        assert all(v <= 0 for v in vals)
        sub = cone.rays[list(f.saturating)]
        assert rank(sub) == cone.rank - 1


def test_dd_handles_lineality_by_span_restriction():
    # a 2-dimensional cone living inside 3-space
    rays = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2], [-1, 0, -1]], dtype=np.int64)
    cone = Cone(3, rays)
    assert cone.rank == 2
    facets = enumerate_facets_dd(cone)
    # the span is x + y = z; inside it the cone is a halfplane with one facet
    assert len(facets) == 1
    vec = np.array(facets[0].vector, dtype=object)
    assert (rays.astype(object) @ vec <= 0).all()
    assert rank(cone.rays[list(facets[0].saturating)]) == 1


def test_dd_full_space_cone_has_no_facets():
    rays = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
    assert enumerate_facets_dd(Cone(3, rays)) == []


def test_dd_cap():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    with pytest.raises(CapExceededError):
        enumerate_facets_dd(cone, cap=4)


def _certify_one(cone, normal):
    """(valid, facet, saturating ray indices, saturating rank) of one normal
    from the batched test."""
    values, sat_rank, facet = _certify(cone, np.array([normal]))
    values = values[:, 0]
    return (not (values > 0).any(), bool(facet[0]), np.flatnonzero(values == 0).tolist(),
            int(sat_rank[0]))


def test_is_facet_chsh_certificate():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    valid, facet, saturating, sat_rank = _certify_one(cone, catalog.chsh().cone_normal())
    assert facet and valid
    assert sat_rank == 8 and len(saturating) == 8


def test_is_facet_valid_but_not_facet():
    # <A1B1> + <A1B2> <= 2 is valid yet supports too small a face
    sc = Scenario((2, 2))
    cone = lift_polytope(enumerate_vertices(sc))
    weak = from_terms(sc, 2, {(1, 1): 1, (1, 2): 1})
    valid, facet, _, sat_rank = _certify_one(cone, weak.cone_normal())
    assert valid and not facet
    assert sat_rank < 8


def test_is_facet_invalid_inequality_distinct_outcome():
    sc = Scenario((2, 2))
    cone = lift_polytope(enumerate_vertices(sc))
    invalid = from_terms(sc, 1, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1})
    valid, facet, _, sat_rank = _certify_one(cone, invalid.cone_normal())
    assert not valid and not facet and sat_rank == 0


def test_is_facet_rejects_improper_face():
    # every ray saturates [0, 0, 1], so the face is the whole cone
    cone = Cone(3, np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64))
    valid, facet, _, _ = _certify_one(cone, [0, 0, 1])
    assert valid and not facet


def test_is_facet_mermin_on_three_party_cone():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2, 2))))
    assert _certify_one(cone, catalog.mermin().cone_normal())[1]


def test_non_integral_rays_are_rejected():
    # int64 conversion would truncate (1, 0.5) to (1, 0); a float gcd would
    # fail inside numpy
    with pytest.raises(ValueError):
        lift_polytope([(1, 0.5), (1, -1)])
    with pytest.raises(ValueError):
        Cone(2, [[1.5, 1.0], [1, -1]])
    cone = Cone(2, [[2.0, 4.0], [1, -1]])
    assert cone.rays.tolist() == [[1, 2], [1, -1]]


def test_cone_dedup_keeps_first_seen_order():
    for dtype in (np.int64, object):
        rays = np.array([[2, 0], [0, 1], [1, 0], [0, 3], [-1, 1]], dtype=dtype)
        cone = Cone(2, rays)
        assert cone.rays.dtype == dtype
        assert cone.rays.tolist() == [[1, 0], [0, 1], [-1, 1]]


def test_non_integral_candidates_are_rejected():
    # int() would truncate these to integral vectors and judge those instead
    with pytest.raises(ValueError):
        _lift([[0.5, 1.5]], integer_kernel_basis(np.array([[1, 1, 0]], dtype=object)))


def test_lift_identity_and_kernel_property():
    assert _lift([[0, 1, -1]], np.eye(3, dtype=object)).tolist() == [[0, 1, -1]]
    g = np.array([[1, 2, 3]], dtype=object)
    t = integer_kernel_basis(g)
    rng = np.random.default_rng(0)
    b = rng.integers(-5, 6, size=(20, t.shape[1]))
    b = b[b.any(axis=1)]
    lifted = _lift(b, t)
    assert (g @ lifted.T == 0).all()
    # row by row, the lift is the primitive vector in the direction of T b
    for row, vec in zip(lifted, b):
        image = t @ vec.astype(object)
        g_row = vector_gcd(image)
        assert row.tolist() == [x // g_row for x in image]


def test_projection_preserves_saturating_sets():
    """A projected facet saturates projected ray i exactly when its lift
    saturates every source ray mapped onto i (zero-image rays always do)."""
    from conebell import catalog
    from conebell.constraints import XiAssignment, build_extended_behaviors, symmetry_rows

    target = Scenario((2, 2, 2))
    verts = enumerate_vertices(target)
    cone = lift_polytope(verts)
    ext = build_extended_behaviors(catalog.chsh(), XiAssignment(((1, 1),)), target)
    rows = np.vstack([ext, symmetry_rows(
        [party_swap(target, 0, 1), party_swap(target, 0, 2)], target)])
    basis = integer_kernel_basis(rows, columns=cone.dim)
    projected = project_rays(cone, basis)
    # small products stay on int64; _projection_sources recomputes them in
    # Python ints
    assert projected.rays.dtype == np.int64
    sources, dropped = _projection_sources(cone, basis, projected)
    assert dropped, "the saturation rows send some vertices to zero"
    rays = cone.rays.astype(object)
    facets = enumerate_facets_dd(projected)
    for facet, lifted in zip(facets, _lift([f.vector for f in facets], basis)):
        vals = rays @ lifted.astype(object)
        sat_sources = {i for i, v in enumerate(vals) if v == 0}
        mapped = set(dropped)
        for j in facet.saturating:
            mapped.update(sources[j])
        # every non-saturating projected ray must contribute no saturating source
        for j in range(projected.ray_count):
            if j not in facet.saturating:
                assert not (set(sources[j]) & sat_sources)
        assert mapped == sat_sources


def test_theorem_pipeline_matches_filtered_enumeration():
    """Master oracle: constrained facets via projection equal the facets of a
    full enumeration filtered by the constraint, on random polytopes."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 30:
        dim = int(rng.integers(2, 6))
        count = int(rng.integers(dim + 2, 12))
        lifted = random_full_dim_vertices(rng, dim, count)
        cone = Cone(dim + 1, lifted)
        facets = enumerate_facets_dd(cone)
        if rng.integers(2):
            row = lifted[rng.integers(len(lifted))]          # vertex saturation
        else:
            row = np.concatenate([[0], rng.integers(-2, 3, size=dim)])
        g = np.array([row], dtype=object)
        expected = {f.vector for f in facets
                    if not (g @ np.array(f.vector, dtype=object)).any()}
        got = constrained_facets(cone, g)
        assert {tuple(int(x) for x in vec) for vec in got} == expected
        checked += 1


def test_certify_falls_back_where_the_rank_drops_mod_p(monkeypatch):
    # every 2x2 minor of the first two rays is 0 or p, so their rank is 1
    # mod p and 2 over the rationals
    p = _PRIME
    cone = Cone(3, np.array([[1, 1, 0], [1, 1 + p, 0], [0, 0, 1]], dtype=np.int64))
    calls = []

    def exact(mat, stop_at=None):
        calls.append(len(mat))
        return pivot_columns(mat, stop_at=stop_at)

    monkeypatch.setattr("conebell.cone.pivot_columns", exact)
    assert cone.rank == 3
    valid, facet, saturating, sat_rank = _certify_one(cone, [0, 0, -1])
    assert valid and facet and saturating == [0, 1] and sat_rank == 2
    assert calls == [2]


@st.composite
def cones_with_candidates(draw):
    """A random full-dimensional cone and a candidate matrix mixing its
    facets, sums of two facets (valid faces, mostly not facets) and small
    random vectors (mostly invalid)."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dim = draw(st.integers(2, 5))
    cone = Cone(dim + 1, random_full_dim_vertices(rng, dim, draw(st.integers(dim + 2, 10))))
    facets = np.array([f.vector for f in enumerate_facets_dd(cone)], dtype=np.int64)
    pairs = rng.integers(0, len(facets), size=(4, 2))
    rows = [facets, facets[pairs[:, 0]] + facets[pairs[:, 1]],
            rng.integers(-2, 3, size=(4, dim + 1))]
    cand = np.vstack(rows)
    return cone, cand[cand.any(axis=1)]


@settings(max_examples=60, deadline=None)
@given(cones_with_candidates(), st.sampled_from([1, 1 << 18]))
def test_batched_certification_matches_exact_rank(case, entries):
    cone, cand = case
    target = sympy_rank(cone.rays) - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("conebell.cone._CERTIFY_ENTRIES", entries)
        values, sat_rank, facet = _certify(cone, cand)
    rays = cone.rays.astype(object)
    for j, vec in enumerate(cand):
        vals = rays @ vec.astype(object)
        assert values[:, j].tolist() == vals.tolist()
        valid = all(v <= 0 for v in vals)
        sat = rays[[v == 0 for v in vals]]
        expected = min(sympy_rank(sat) if len(sat) else 0, target) if valid else 0
        assert sat_rank[j] == expected
        assert facet[j] == (valid and any(v < 0 for v in vals) and expected == target)
        # a batch of one gives the same verdict
        one = _certify(cone, cand[j:j + 1])
        assert (one[0][:, 0] == values[:, j]).all() and one[1][0] == sat_rank[j]
        assert one[2][0] == facet[j]


def test_constrained_facets_do_not_depend_on_the_certify_budget(monkeypatch):
    from conebell.constraints import XiAssignment, build_extended_behaviors

    target = Scenario((2, 2, 2))
    three_party = lift_polytope(enumerate_vertices(target))
    two_party = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    rng = np.random.default_rng(5)
    random_cone = Cone(6, random_full_dim_vertices(rng, 5, 14))
    cases = [(three_party, build_extended_behaviors(catalog.chsh(), XiAssignment(((1, 1),)),
                                                    target)),
             (two_party, np.zeros((0, two_party.dim), dtype=np.int64)),
             (random_cone, np.array([[0, 1, -1, 0, 0, 0]], dtype=np.int64))]

    def output():
        return [[vec.tolist() for vec in constrained_facets(cone, rows)] for cone, rows in cases]

    expected = output()
    assert all(expected)
    # one candidate per padded stack
    monkeypatch.setattr("conebell.cone._CERTIFY_ENTRIES", 1)
    assert output() == expected


def test_cone_rank_matches_sympy():
    rng = np.random.default_rng(8)
    p = _PRIME
    cones = [lift_polytope(enumerate_vertices(Scenario((3, 2)))),
             Cone(4, rng.integers(-3, 4, size=(3, 4))),
             # rank 2, but 1 mod p: Cone.rank falls back to pivot_columns
             Cone(3, np.array([[1, 1, 0], [1, 1 + p, 0], [2, 2, 0]], dtype=np.int64)),
             # Python ints, too large for the Gram matrix in float64
             Cone(3, np.array([[p ** 2, 1, 0], [0, p ** 2, 1], [1, 0, p ** 2], [1, 1, 1]],
                              dtype=object))]
    for cone in cones:
        assert cone.rank == sympy_rank(cone.rays)
