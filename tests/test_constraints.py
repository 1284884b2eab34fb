import itertools

import numpy as np
import pytest

from conebell import catalog
from conebell.constraints import (Relabeling, XiAssignment, apply_relabeling,
                                  build_extended_behaviors, parse_relabeling,
                                  symmetry_rows)
from conebell.errors import ParseError
from conebell.exactlinalg import integer_kernel_basis, rank
from conebell.inequality import Inequality
from conebell.scenario import Scenario, enumerate_vertices
from conebell.search import ReductionSpec, _reduction_mask, generalize_multi, verify_reduction

from .reference import (party_swap, reference_extended_behaviors, reference_reduce,
                        reference_relabel)


def _relabeling_matrix(rel, sc):
    """The matrix of apply_relabeling: column j is the image of unit vector j."""
    d1 = sc.dimension + 1
    return np.array([apply_relabeling(rel, sc, e) for e in np.eye(d1, dtype=np.int64)],
                    dtype=object).T


def test_relabeling_matrix_identity():
    sc = Scenario((2, 2))
    p = _relabeling_matrix(Relabeling((0, 1), ((1, 2), (1, 2)), ((1, 1), (1, 1))), sc)
    assert (p == np.eye(9, dtype=object)).all()


def test_sign_flip_matrix_single_party():
    sc = Scenario((1,))
    rel = Relabeling((0,), ((1,),), ((-1,),))
    p = _relabeling_matrix(rel, sc)
    assert (p == np.diag(np.array([1, -1], dtype=object))).all()


def test_relabeling_matrices_are_signed_permutations():
    rng = np.random.default_rng(1)
    sc = Scenario((2, 3, 2))
    verts = enumerate_vertices(sc)
    for _ in range(25):
        # random relabeling of the mixed scenario: parties 0 and 2 may swap
        swap = bool(rng.integers(2))
        pm = (2, 1, 0) if swap else (0, 1, 2)
        sms, sfs = [], []
        for m in sc.settings:
            perm = tuple(rng.permutation(np.arange(1, m + 1)).tolist())
            sms.append(perm)
            sfs.append(tuple(int(x) for x in rng.choice([-1, 1], size=m)))
        rel = Relabeling(pm, tuple(sms), tuple(sfs))
        p = _relabeling_matrix(rel, sc)
        absd = np.vectorize(abs)(p)
        assert (absd.sum(axis=0) == 1).all() and (absd.sum(axis=1) == 1).all()
        # vertices map bijectively onto vertices
        images = {apply_relabeling(rel, sc, v) for v in verts.tolist()}
        assert images == set(map(tuple, verts.tolist()))
        # the constant coordinate stays fixed
        assert p[0, 0] == 1
        # the same map, one setting tuple at a time
        c = [int(x) * 10 ** 20 for x in rng.integers(-3, 4, size=len(p))]
        assert apply_relabeling(rel, sc, c) == reference_relabel(rel, sc, c)


def test_party_permutation_requires_equal_settings():
    sc = Scenario((3, 2))
    with pytest.raises(ValueError):
        party_swap(sc, 0, 1)


def test_gyni_symmetries_fix_gyni():
    gyni = catalog.gyni()
    sc = gyni.scenario
    s1 = Relabeling((0, 1, 2), ((2, 1), (2, 1), (1, 2)), ((1, 1), (1, 1), (-1, -1)))
    s2 = Relabeling((0, 1, 2), ((2, 1), (1, 2), (2, 1)), ((-1, -1), (-1, -1), (1, 1)))
    assert apply_relabeling(s1, sc, gyni.coefficients) == gyni.coefficients
    assert apply_relabeling(s2, sc, gyni.coefficients) == gyni.coefficients


def test_symmetry_rows_identity_contributes_nothing():
    sc = Scenario((2, 2))
    rows = symmetry_rows([Relabeling((0, 1), ((1, 2), (1, 2)), ((1, 1), (1, 1)))], sc)
    assert rows.dtype == np.int64 and rows.shape == (0, 9)
    t = integer_kernel_basis(rows, columns=9)
    assert t.shape == (9, 9)


def test_swap_symmetry_kernel_dimension():
    # orbits of the 8 correlator coordinates under A<->B: {A1,B1}, {A2,B2},
    # {A1B2, A2B1}, {A1B1}, {A2B2}; plus the constant: kernel dimension 6
    sc = Scenario((2, 2))
    rows = symmetry_rows([party_swap(sc, 0, 1)], sc)
    t = integer_kernel_basis(rows, columns=9)
    assert t.shape[1] == 6


def test_full_party_symmetry_kernel_dimension_three_parties():
    # one kernel dimension per multiset over {0..3}^3: C(6,3) = 20
    sc = Scenario((3, 3, 3))
    rows = symmetry_rows([party_swap(sc, 0, 1), party_swap(sc, 0, 2)], sc)
    t = integer_kernel_basis(rows, columns=65)
    assert t.shape[1] == 20


def test_symmetry_kernel_is_pointwise_invariant():
    sc = Scenario((2, 2))
    gens = [party_swap(sc, 0, 1)]
    t = integer_kernel_basis(symmetry_rows(gens, sc), columns=9)
    for col in t.T.tolist():
        assert apply_relabeling(gens[0], sc, col) == tuple(col)


def test_extended_behaviors_chsh_count():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    ext = build_extended_behaviors(chsh, XiAssignment(((1, 1),)), target)
    assert ext.dtype == np.int64 and ext.shape == (8, 27)
    assert (ext[:, 0] == 1).all()
    assert (ext[:, target.index_of((0, 0, 1))] == 1).all()
    assert (ext[:, target.index_of((0, 0, 2))] == 1).all()
    assert rank(ext) == 8


def test_extended_behaviors_i3322_count():
    i3322 = catalog.i3322()
    n_sat = int(i3322.saturating_vertex_mask().sum())
    target = Scenario((3, 3, 3))
    ext = build_extended_behaviors(i3322, XiAssignment(((1, 1, 1),)), target)
    assert len(ext) == n_sat > 0


def test_extended_behaviors_validation():
    chsh = catalog.chsh()
    with pytest.raises(ValueError, match="xi"):
        build_extended_behaviors(chsh, XiAssignment(((1,),)), Scenario((2, 2, 2)))
    # an inequality that no vertex saturates cannot be extended to a facet
    loose = __import__("conebell.inequality", fromlist=["x"]).from_terms(
        Scenario((2, 2)), 3, {(1, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="facet"):
        build_extended_behaviors(loose, XiAssignment(((1, 1),)), Scenario((2, 2, 2)))


def test_embedding_rejects_repeated_or_missing_parties():
    chsh, target = catalog.chsh(), Scenario((2, 2, 2))
    for embed, named in [((0, 0), r"\[0\]"), ((0, 5), r"\[5\]"), ((-1, 1), r"\[-1\]")]:
        with pytest.raises(ValueError, match=named):
            build_extended_behaviors(chsh, XiAssignment(((1, 1),)), target, embed=embed)
    with pytest.raises(ValueError, match=r"\[5\]"):
        generalize_multi(target, [ReductionSpec(chsh, (0, 5))], [])


@pytest.mark.parametrize("lower, target, embed", [
    (catalog.chsh, (2, 2, 2), None),
    (catalog.chsh, (2, 2, 2), (0, 1)),
    (catalog.chsh, (2, 2, 2), (1, 2)),
    (catalog.chsh, (2, 2, 2), (2, 0)),
    (catalog.chsh, (2, 3, 2), (2, 0)),
    (catalog.chsh, (3, 2, 2), (1, 2)),
    (catalog.i3322, (3, 2, 3), (2, 0)),
    (catalog.mermin, (2, 2, 2, 2), (3, 1, 0)),
])
def test_extended_behaviors_match_brute_force(lower, target, embed):
    # the same embedding gives the extended behaviors and the reduction
    # check, so both are compared with the term-by-term oracles
    lower, target = lower(), Scenario(target)
    used = embed if embed is not None else tuple(range(lower.scenario.parties))
    extras = [p for p in range(target.parties) if p not in used]
    rng = np.random.default_rng(sum(target.settings))
    for _ in range(3):
        xi = XiAssignment(tuple(tuple(int(x) for x in rng.choice([-1, 1], size=target.settings[p]))
                                for p in extras))
        got = build_extended_behaviors(lower, xi, target, embed=embed)
        want = reference_extended_behaviors(lower, xi, target, embed=embed)
        assert got.dtype == np.int64
        assert got.tolist() == want

        candidates = _reduction_candidates(lower, xi, target, used, extras, rng)
        verdicts = []
        for coeffs in candidates:
            cand = Inequality(target, coeffs)
            lower_sc, reduced = reference_reduce(cand, xi, embed=used)
            assert lower_sc == lower.scenario
            verdict = verify_reduction(cand, xi, lower, embed=embed)
            assert type(verdict) is bool
            assert verdict == _positive_multiple(reduced, lower.coefficients)
            verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)
        assert not any(reference_reduce(Inequality(target, candidates[-1]), xi, embed=used)[1])
        normals = np.array([Inequality(target, c).cone_normal() for c in candidates])
        for mat in (normals.astype(np.int64), normals * 10 ** 20):
            mask = _reduction_mask(mat, xi, lower, used, target)
            assert mask.dtype == bool and mask.tolist() == verdicts


def _positive_multiple(a, b):
    """a = q b for a rational q > 0: every 2x2 minor of (a, b) is zero and
    a . b > 0."""
    return all(x * v == y * u for (x, u), (y, v) in itertools.combinations(zip(a, b), 2)) \
        and sum(x * u for x, u in zip(a, b)) > 0


def _reduction_candidates(lower, xi, target, used, extras, rng):
    """Coefficient vectors for the reduction check: random ones, lifts of
    lower scaled by 1, 2 and -1 and one with another bound, and two that use
    the first extra party, the last of which reduces to the zero vector."""
    def lift(terms):
        coeffs = [0] * (target.dimension + 1)
        for t, c in terms.items():
            full = [0] * target.parties
            for p, s in zip(used, t):
                full[p] = s
            for p, s in zip(extras, t[len(used):]):
                full[p] = s
            coeffs[target.index_of(full)] += c
        return coeffs

    lower_terms = dict(lower.nonzero_terms())
    pad = (0,) * len(extras)
    candidates = [rng.integers(-2, 3, size=target.dimension + 1).tolist() for _ in range(4)]
    # the last one misses lower in the bound alone
    for q, bound in ((1, lower.bound), (2, 2 * lower.bound), (-1, -lower.bound),
                     (1, lower.bound + 1)):
        coeffs = lift({t + pad: q * c for t, c in lower_terms.items()})
        coeffs[0] = bound
        candidates.append(coeffs)
    # a copy of each term on setting 1 of the first extra party, which
    # substitutes xi_1 for it: with coefficient xi_1 c every term doubles, and
    # with -xi_1 c (and bound 0) every term cancels, so the reduction is zero
    on_extra = (1,) + (0,) * (len(extras) - 1)
    x = xi.values[0][0]
    for sign, bound in ((1, 2 * lower.bound), (-1, 0)):
        coeffs = lift({**{t + pad: c for t, c in lower_terms.items()},
                       **{t + on_extra: sign * x * c for t, c in lower_terms.items()}})
        coeffs[0] = bound
        candidates.append(coeffs)
    return candidates


def test_chsh_extension_kernel_dimension_matches_independent_nullspace():
    # the constraint system of the three-party CHSH extension: its kernel
    # dimension is the dimension of the projected cone behind Mermin
    from conebell.cone import lift_polytope, project_rays
    from .reference import sympy_nullity

    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    ext = build_extended_behaviors(chsh, XiAssignment(((1, 1),)), target)
    g = np.vstack([ext, symmetry_rows(
        [party_swap(target, 0, 1), party_swap(target, 0, 2)], target)])
    t = integer_kernel_basis(g, columns=27)
    assert t.shape[1] == sympy_nullity(g, 27)
    cone = lift_polytope(enumerate_vertices(target))
    assert project_rays(cone, t).dim == t.shape[1]


def test_parse_relabeling_round_trip():
    sc = Scenario((2, 2, 4))
    text = "perm:ABC->BAC; C:(1 2)(3 4); A1:-; C4:-"
    rel = parse_relabeling(text, sc)
    assert rel.party_map == (1, 0, 2)
    assert rel.setting_maps[2] == (2, 1, 4, 3)
    assert rel.sign_flips[0] == (-1, 1)
    assert rel.sign_flips[2] == (1, 1, 1, -1)


def test_parse_relabeling_rejects_malformed():
    sc = Scenario((2, 2))
    for bad in ["perm:AB->AA", "A:(1 3)", "Q1:-", "A:(1 1)", "junk"]:
        with pytest.raises(ParseError):
            parse_relabeling(bad, sc)
    try:
        parse_relabeling("perm:AB->BA; A:(1 3)", sc)
    except ParseError as exc:
        assert exc.column is not None
