import numpy as np
import pytest

from conebell import catalog
from conebell.constraints import (Relabeling, XiAssignment, apply_relabeling,
                                  build_extended_behaviors, parse_relabeling,
                                  party_swap, relabeling_matrix,
                                  saturation_rows, symmetry_rows)
from conebell.errors import ParseError
from conebell.exactlinalg import integer_kernel_basis, rank
from conebell.scenario import Scenario, vertex_matrix

from .reference import full_relabeling_group


def test_relabeling_matrix_identity():
    sc = Scenario((2, 2))
    p = relabeling_matrix(Relabeling((0, 1), ((1, 2), (1, 2)), ((1, 1), (1, 1))), sc)
    assert (p == np.eye(9, dtype=object)).all()


def test_sign_flip_matrix_single_party():
    sc = Scenario((1,))
    rel = Relabeling((0,), ((1,),), ((-1,),))
    p = relabeling_matrix(rel, sc)
    assert (p == np.diag(np.array([1, -1], dtype=object))).all()


def test_relabeling_matrices_are_signed_permutations():
    rng = np.random.default_rng(1)
    sc = Scenario((2, 3, 2))
    gens = list(full_relabeling_group(Scenario((2,))))
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
        p = relabeling_matrix(rel, sc)
        absd = np.vectorize(abs)(p)
        assert (absd.sum(axis=0) == 1).all() and (absd.sum(axis=1) == 1).all()
        # vertices map bijectively onto vertices
        verts = vertex_matrix(sc).astype(object)
        images = {tuple(int(x) for x in p @ v) for v in verts}
        assert images == {tuple(int(x) for x in v) for v in verts}
        # the constant coordinate stays fixed
        assert p[0, 0] == 1


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
    sys = symmetry_rows([Relabeling((0, 1), ((1, 2), (1, 2)), ((1, 1), (1, 1)))], sc)
    assert sys.rows == ()
    t = integer_kernel_basis(sys.matrix(), columns=9)
    assert t.shape == (9, 9)


def test_swap_symmetry_kernel_dimension():
    # orbits of the 8 correlator coordinates under A<->B: {A1,B1}, {A2,B2},
    # {A1B2, A2B1}, {A1B1}, {A2B2}; plus the constant: kernel dimension 6
    sc = Scenario((2, 2))
    sys = symmetry_rows([party_swap(sc, 0, 1)], sc)
    t = integer_kernel_basis(sys.matrix(), columns=9)
    assert t.shape[1] == 6


def test_full_party_symmetry_kernel_dimension_three_parties():
    # one kernel dimension per multiset over {0..3}^3: C(6,3) = 20
    sc = Scenario((3, 3, 3))
    sys = symmetry_rows([party_swap(sc, 0, 1), party_swap(sc, 0, 2)], sc)
    t = integer_kernel_basis(sys.matrix(), columns=65)
    assert t.shape[1] == 20


def test_symmetry_kernel_is_pointwise_invariant():
    sc = Scenario((2, 2))
    gens = [party_swap(sc, 0, 1)]
    sys = symmetry_rows(gens, sc)
    t = integer_kernel_basis(sys.matrix(), columns=9)
    p = relabeling_matrix(gens[0], sc)
    assert ((p @ t) == t).all()


def test_extended_behaviors_chsh_count():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    ext = build_extended_behaviors(chsh, XiAssignment(((1, 1),)), target)
    assert len(ext) == 8
    for v in ext:
        assert v.coords[0] == 1
        assert v.assignment[2] == (1, 1)
    rows = saturation_rows(ext)
    assert rank(rows.matrix()) == 8


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


def test_saturation_rows_empty():
    sys = saturation_rows([])
    assert sys.rows == ()


def test_chsh_extension_kernel_dimension_matches_independent_nullspace():
    # the constraint system of the three-party CHSH extension: its kernel
    # dimension is the dimension of the projected cone behind Mermin
    from conebell.cone import lift_polytope, project_rays
    from conebell.scenario import enumerate_vertices
    from .reference import sympy_nullity

    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    ext = build_extended_behaviors(chsh, XiAssignment(((1, 1),)), target)
    rows = saturation_rows(ext) + symmetry_rows(
        [party_swap(target, 0, 1), party_swap(target, 0, 2)], target)
    g = rows.matrix()
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
