import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebell import catalog
from conebell.cone import (DD_CAP_DEFAULT, Cone, _byte_table, _certify, _combine_adjacent,
                           _dd_extreme_rays, _lift, _only_two_hold, constrained_facets,
                           enumerate_facets_dd, lift_polytope, local_cone, project_rays)
from conebell.errors import CapExceededError
from conebell.exactlinalg import _PRIME, capped_ranks, integer_kernel_basis, pivot_columns
from conebell.inequality import from_terms
from conebell.scenario import Scenario, enumerate_vertices
from conebell.search import ReductionSpec

from .reference import (_candidate_witnesses, gathers, off_hyperplane_rejections, party_swap,
                        random_full_dim_vertices, reference_adjacent_pairs, reference_facets,
                        sympy_nullspace_rays, sympy_rank, sympy_simplex_rays)


def _projection_sources(cone, basis, projected):
    """Source ray indices landing on each projected ray, recomputed from
    cone.rays @ basis, and the indices of the rays whose image is zero."""
    index = {tuple(ray): j for j, ray in enumerate(projected.rays.tolist())}
    sources = [[] for _ in range(projected.ray_count)]
    dropped = []
    for i, image in enumerate(cone.rays.astype(object) @ basis):
        g = math.gcd(*image)
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
    # entries near 10^6 take the kernel that gives the simplex rays over to
    # Python ints, so every insertion combines Python-int rays
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


def _insertion_states(a, monkeypatch):
    """The arguments (rays, zero, values, bit, r) of every _combine_adjacent
    call in the DD of {y : a y <= 0}."""
    states = []

    def record(*args):
        states.append(args)
        return _combine_adjacent(*args)

    with monkeypatch.context() as patch:
        patch.setattr("conebell.cone._combine_adjacent", record)
        _dd_extreme_rays(a, DD_CAP_DEFAULT)
    return states


def _set_value(words):
    """A zero set's bit words as one Python int."""
    return sum(int(w) << 64 * j for j, w in enumerate(words))


def test_adjacency_matches_the_per_pair_oracle(monkeypatch):
    v33 = enumerate_vertices(Scenario((3, 3)))
    rng = np.random.default_rng(19)
    orders = [np.arange(len(v33)), rng.permutation(len(v33)), rng.permutation(len(v33))]
    xs = rng.permutation(np.arange(-35, 35))
    cones = [lift_polytope(v33[order]) for order in orders]
    cones.append(Cone(3, np.stack([np.ones_like(xs), xs, xs * xs], axis=1)))
    cones.append(Cone(4, random_full_dim_vertices(rng, 3, 8, spread=10 ** 6)))
    states = [s for cone in cones for s in _insertion_states(cone.rays, monkeypatch)]
    # the (3,3) DDs' later insertions hold up to 84,436 pairs, too many for the oracle
    states = [s for s in states if (s[2] > 0).sum() * (s[2] < 0).sum() <= 25_000]
    assert any(s[1].shape[1] == 2 for s in states)
    assert any(s[0].dtype == object for s in states)
    # some pair is rejected only by a ray off the inserted hyperplane, which
    # the second scan alone can see
    assert sum(off_hyperplane_rejections(s[1], s[2], s[4]) for s in states) > 0
    for state in states:
        _assert_matches_the_oracle(*state)


def _assert_matches_the_oracle(rays, zero, values, bit, r):
    """_combine_adjacent gives the oracle's pairs, combined, in its order;
    returns how many."""
    new_rays, new_zero = _combine_adjacent(rays, zero, values, bit, r)
    expected_rays, expected_zero = [], []
    for p, n, common in reference_adjacent_pairs(zero, values, r):
        ray = [int(values[p]) * int(x) - int(values[n]) * int(y)
               for x, y in zip(rays[n], rays[p])]
        g = math.gcd(*ray)
        expected_rays.append([x // g for x in ray])
        expected_zero.append(common | _set_value(bit))
    assert [[int(x) for x in ray] for ray in new_rays] == expected_rays
    assert [_set_value(z) for z in new_zero] == expected_zero
    return len(expected_rays)


def _drawn_insertion(seed, on, pos, neg, rows, r, python_ints=False):
    """The arguments of one _combine_adjacent call, drawn at random: on, pos
    and neg rays on, above and below the hyperplane of the last of `rows`
    constraint rows, in a shuffled order.  Each ray is tight on about half
    of 12 rows drawn from the others, so that third rays often hold a
    pair's common set.  Every ray has first coordinate 1, so no combination
    is zero."""
    rng = np.random.default_rng(seed)
    n = on + pos + neg
    values = rng.permutation(np.concatenate([
        np.zeros(on, dtype=np.int64), rng.integers(1, 9, pos), -rng.integers(1, 9, neg)]))
    words = (rows + 63) // 64
    bits = np.zeros((n, 64 * words), dtype=bool)
    tight = rng.choice(rows - 1, size=min(rows - 1, 12), replace=False)
    bits[:, tight] = rng.random((n, len(tight))) < 0.5
    bits[values == 0, rows - 1] = True
    zero = np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)
    bit = np.zeros(words, dtype=np.uint64)
    bit[(rows - 1) >> 6] = np.uint64(1) << np.uint64((rows - 1) & 63)
    spread = 10 ** 20 if python_ints else 9
    rays = np.array([[1] + [int(x) * spread for x in rng.integers(-9, 10, 3)]
                     for _ in range(n)], dtype=object if python_ints else np.int64)
    return rays, zero, values, bit, r


# (on, pos, neg, rows, r, python_ints): counts off the multiples of 8 and 64
# and on them, on each side of the hyperplane; insertions with no ray on it;
# zero sets of one, two and three words; Python-int rays
DRAWN_INSERTIONS = [(9, 65, 7, 64, 4, False), (0, 9, 63, 100, 3, False),
                    (70, 8, 64, 150, 4, True), (1, 1, 1, 3, 2, False),
                    (130, 17, 33, 129, 5, False), (0, 2, 3, 5, 2, False),
                    (64, 1, 127, 65, 3, True)]


@pytest.mark.parametrize("entries", [None, 1])
@pytest.mark.parametrize("case", DRAWN_INSERTIONS)
def test_adjacency_matches_the_oracle_on_drawn_insertions(case, entries, monkeypatch):
    # entries=1 gives tables of 64 rays, gathers and batches of one pair
    if entries is not None:
        monkeypatch.setattr("conebell.cone._ADJACENCY_ENTRIES", entries)
    for seed in range(3):
        _assert_matches_the_oracle(*_drawn_insertion(seed, *case))


def test_drawn_insertions_reject_pairs_on_and_off_the_hyperplane():
    states = [_drawn_insertion(seed, *case) for case in DRAWN_INSERTIONS for seed in range(3)]
    candidates = sum(1 for s in states for _ in _candidate_witnesses(s[1], s[2], s[4]))
    kept = sum(len(reference_adjacent_pairs(s[1], s[2], s[4])) for s in states)
    off = sum(off_hyperplane_rejections(s[1], s[2], s[4]) for s in states)
    assert 0 < off < candidates - kept < candidates


@pytest.mark.parametrize("rays, nbytes", [(1, 1), (7, 2), (64, 1), (65, 3), (130, 2)])
def test_byte_table_is_the_bitset_of_the_rays_holding_each_byte(rays, nbytes):
    # entry (p, 0) is every real ray and no padding bit
    zbytes = np.random.default_rng(rays).integers(0, 256, size=(rays, nbytes), dtype=np.uint8)
    table = _byte_table(zbytes)
    assert table.shape == (nbytes, 256, -(-rays // 64)) and table.dtype == np.uint64
    for p in range(nbytes):
        for v in range(256):
            holders = sum(1 << i for i in range(rays) if zbytes[i, p] & v == v)
            assert _set_value(table[p, v]) == holders


@pytest.mark.parametrize("rays, words, sets", [(5, 1, 4), (300, 1, 40), (130, 3, 6)])
def test_only_two_hold_counts_the_holders(rays, words, sets):
    # the first case is tested row by row, the others on byte tables; all
    # sets empty, which every row holds, is the one batch that uses byte 0
    # alone
    rng = np.random.default_rng(rays)
    zero = rng.integers(0, 2 ** 63, size=(rays, words), dtype=np.uint64)
    pairs = zero[rng.integers(0, rays, sets)] & zero[rng.integers(0, rays, sets)]
    for common in (pairs, zero[:sets], np.zeros_like(pairs)):
        holders = [sum(all(int(z) & int(c) == int(c) for z, c in zip(row, cs)) for row in zero)
                   for cs in common]
        assert _only_two_hold(zero, 0, common).tolist() == [h <= 2 for h in holders]


def test_adjacency_of_a_two_dimensional_cone(monkeypatch):
    # r = 2: a pair needs no common zero.  Two rays with disjoint zero sets
    # have an empty common set, which every ray holds, so only the mask of
    # real rays in the tables keeps the pair: with padding bits counted as
    # rays it would have 64 holders
    pair = (np.array([[1, 0], [1, 1]]), np.array([[1], [2]], dtype=np.uint64),
            np.array([3, -1]), np.array([4], dtype=np.uint64), 2)
    assert _assert_matches_the_oracle(*pair) == 1
    cone = Cone(2, [(1, 0), (2, 1), (1, 1), (1, 2)])
    states = _insertion_states(cone.rays, monkeypatch)
    for state in states:
        _assert_matches_the_oracle(*state)
    assert {f.vector for f in enumerate_facets_dd(cone)} == reference_facets(cone.rays)


def test_dd_stays_on_int64_for_small_entries():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    rays, _ = _dd_extreme_rays(cone.rays, DD_CAP_DEFAULT)
    assert rays.dtype == np.int64 and rays.shape[0] == 24


def test_dd_of_square_system_is_the_simplex():
    # with as many constraints as dimensions the DD inserts nothing after
    # its initial simplex; entries up to 10^6, given as Python ints, give
    # Python-int simplex rays
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
        assert sympy_rank(sub) == cone.rank - 1


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
    assert sympy_rank(cone.rays[list(facets[0].saturating)]) == 1


def test_dd_full_space_cone_has_no_facets():
    rays = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
    assert enumerate_facets_dd(Cone(3, rays)) == []


def test_dd_cap():
    cone = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    with pytest.raises(CapExceededError):
        enumerate_facets_dd(cone, cap=4)


def _saturating_ranks(cone, cand):
    """Rank of each valid candidate's saturating rays, capped at
    rank(cone) - 1 by capped_ranks, and 0 for the invalid ones."""
    values = cone.rays.astype(object) @ np.array(cand, dtype=object).T
    valid = ~(values > 0).any(axis=0)
    ranks = np.zeros(len(valid), dtype=np.int64)
    ranks[valid] = capped_ranks(cone.rays, values[:, valid] == 0, cone.rank - 1)
    return ranks


def _certify_one(cone, normal):
    """(valid, facet, saturating ray indices, saturating rank) of one normal:
    the facet mask of the batched test and the rank from capped_ranks."""
    values = cone.rays.astype(object) @ np.array(normal, dtype=object)
    return (not (values > 0).any(), bool(_certify(cone, np.array([normal]))[0]),
            np.flatnonzero(values == 0).tolist(), int(_saturating_ranks(cone, [normal])[0]))


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
        g_row = math.gcd(*image)
        assert row.tolist() == [x // g_row for x in image]


def test_projection_preserves_saturating_sets(branch_constraints):
    """A projected facet saturates projected ray i exactly when its lift
    saturates every source ray mapped onto i (zero-image rays always do)."""
    target = Scenario((2, 2, 2))
    verts = enumerate_vertices(target)
    cone = lift_polytope(verts)
    swaps = gathers(target, party_swap(target, 0, 1), party_swap(target, 0, 2))
    rows, _ = branch_constraints(target, [ReductionSpec(catalog.chsh(), (0, 1))],
                                 (((1, 1),),), swaps)
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
    full enumeration filtered by the constraint and by the sign demands, on
    random polytopes."""
    rng = np.random.default_rng(2024)
    # the sign demands come from their own stream, so the polytopes and
    # constraints are those of the test without demands
    demands = np.random.default_rng(7)
    checked = dead = 0
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
        # zero to two random demands, one of them sometimes a multiple of the
        # constraint row, which no kernel vector meets: the branch is dead
        positive = demands.integers(-2, 3, size=(int(demands.integers(3)), dim + 1))
        if len(positive) and demands.integers(3) == 0:
            positive[0] = -2 * row
            dead += 1
        expected = {f.vector for f in facets
                    if not (g @ np.array(f.vector, dtype=object)).any()
                    and (positive @ np.array(f.vector, dtype=object) > 0).all()}
        basis = integer_kernel_basis(g, columns=dim + 1)
        got = constrained_facets(cone, basis, positive)
        assert {tuple(int(x) for x in vec) for vec in got} == expected
        # the object path of the sign test gives the same normals
        big = constrained_facets(cone, basis, positive.astype(object) * 10 ** 20)
        assert [v.tolist() for v in big] == [v.tolist() for v in got]
        checked += 1
    assert dead


def test_certify_falls_back_where_the_rank_drops_mod_p(monkeypatch):
    # every 2x2 minor of the first two rays is 0 or p, so their rank is 1
    # mod p and 2 over the rationals
    p = _PRIME
    cone = Cone(3, np.array([[1, 1, 0], [1, 1 + p, 0], [0, 0, 1]], dtype=np.int64))
    calls = []

    def exact(mat, stop_at=None):
        calls.append(len(mat))
        return pivot_columns(mat, stop_at=stop_at)

    monkeypatch.setattr("conebell.exactlinalg.pivot_columns", exact)
    assert cone.rank == 3
    assert calls == [3]
    valid, facet, saturating, sat_rank = _certify_one(cone, [0, 0, -1])
    assert valid and facet and saturating == [0, 1] and sat_rank == 2
    # the facet mask and the saturating rank each rank the two rays exactly
    assert calls == [3, 2, 2]


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
        patch.setattr("conebell.exactlinalg._STACK_ENTRIES", entries)
        facet = _certify(cone, cand)
        sat_rank = _saturating_ranks(cone, cand)
    rays = cone.rays.astype(object)
    for j, vec in enumerate(cand):
        vals = rays @ vec.astype(object)
        valid = all(v <= 0 for v in vals)
        sat = rays[[v == 0 for v in vals]]
        expected = min(sympy_rank(sat) if len(sat) else 0, target) if valid else 0
        assert sat_rank[j] == expected
        assert facet[j] == (valid and any(v < 0 for v in vals) and expected == target)
        # a batch of one gives the same verdict
        assert _certify(cone, cand[j:j + 1])[0] == facet[j]
        assert _saturating_ranks(cone, cand[j:j + 1])[0] == sat_rank[j]


def test_constrained_facets_do_not_depend_on_the_certify_budget(monkeypatch,
                                                               branch_constraints):
    target = Scenario((2, 2, 2))
    three_party = lift_polytope(enumerate_vertices(target))
    two_party = lift_polytope(enumerate_vertices(Scenario((2, 2))))
    rng = np.random.default_rng(5)
    random_cone = Cone(6, random_full_dim_vertices(rng, 5, 14))
    ext, _ = branch_constraints(target, [ReductionSpec(catalog.chsh(), (0, 1))],
                                (((1, 1),),))
    cases = [(three_party, ext),
             (two_party, np.zeros((0, two_party.dim), dtype=np.int64)),
             (random_cone, np.array([[0, 1, -1, 0, 0, 0]], dtype=np.int64))]

    def output():
        return [[vec.tolist() for vec in constrained_facets(
                     cone, integer_kernel_basis(rows, columns=cone.dim), rows[:0])]
                for cone, rows in cases]

    expected = output()
    assert all(expected)
    # one candidate per padded stack
    monkeypatch.setattr("conebell.exactlinalg._STACK_ENTRIES", 1)
    assert output() == expected


@pytest.mark.parametrize("settings", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 2)])
def test_a_local_polytope_cone_spans_its_space(settings):
    # local_cone records the full rank, and elimination agrees
    cone = local_cone(Scenario(settings))
    assert cone.rank == cone.dim == len(pivot_columns(cone.rays))


def test_a_spanning_cone_projects_onto_a_spanning_cone():
    # the image of a spanning cone under a kernel basis spans the kernel's
    # coordinates: the rank constrained_facets records
    rng = np.random.default_rng(11)
    cone = local_cone(Scenario((2, 2, 2)))
    checked = 0
    for _ in range(20):
        basis = integer_kernel_basis(rng.integers(-2, 3, size=(int(rng.integers(1, 26)), 27)))
        if basis.shape[1]:
            assert len(pivot_columns(project_rays(cone, basis).rays)) == basis.shape[1]
            checked += 1
    assert checked


def test_constrained_facets_rejects_what_is_not_a_basis():
    # constraint rows in place of their kernel, and a basis with dependent
    # columns, raise instead of giving facets of some other cone
    cone = local_cone(Scenario((2, 2)))
    rows = np.zeros((2, cone.dim), dtype=np.int64)
    rows[0, 1] = rows[1, 4] = 1
    with pytest.raises(ValueError, match="one row per coordinate"):
        constrained_facets(cone, rows, rows[:0])
    basis = integer_kernel_basis(rows, columns=cone.dim)
    with pytest.raises(ValueError, match="full column rank"):
        constrained_facets(cone, np.hstack([basis, basis[:, :1]]), rows[:0])
    with pytest.raises(ValueError, match="full column rank"):
        constrained_facets(cone, np.zeros((cone.dim, cone.dim), dtype=np.int64), rows[:0])
    assert len(constrained_facets(cone, basis, rows[:0]))


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
