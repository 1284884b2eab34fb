import itertools

import numpy as np
import pytest

from conebell import catalog
from conebell.constraints import (Relabeling, XiAssignment, _embedding_map, _relabeling_map,
                                  parse_relabeling, symmetry_rows)
from conebell.errors import ParseError
from conebell.exactlinalg import integer_kernel_basis, pivot_columns
from conebell.inequality import from_terms
from conebell.scenario import Scenario, enumerate_vertices
from conebell.search import ReductionSpec, generalize_multi

from .reference import (party_swap, reference_extended_behaviors, reference_reduces,
                        reference_relabel)


def test_relabeling_matrix_identity():
    sc = Scenario((2, 2))
    p = _relabeling_map(Relabeling((0, 1), ((1, 2), (1, 2)), ((1, 1), (1, 1))), sc)
    assert p.dtype == np.int64 and (p == np.eye(9)).all()


def test_sign_flip_matrix_single_party():
    sc = Scenario((1,))
    rel = Relabeling((0,), ((1,),), ((-1,),))
    p = _relabeling_map(rel, sc)
    assert (p == np.diag([1, -1])).all()


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
        p = _relabeling_map(rel, sc)
        absd = np.abs(p)
        assert (absd.sum(axis=0) == 1).all() and (absd.sum(axis=1) == 1).all()
        # vertices map bijectively onto vertices
        images = set(map(tuple, (verts @ p.T).tolist()))
        assert images == set(map(tuple, verts.tolist()))
        # the constant coordinate stays fixed
        assert p[0, 0] == 1
        # the same map, one setting tuple at a time
        c = [int(x) * 10 ** 20 for x in rng.integers(-3, 4, size=len(p))]
        assert tuple((p.astype(object) @ np.array(c, dtype=object)).tolist()) \
            == reference_relabel(rel, sc, c)


def test_party_permutation_requires_equal_settings():
    sc = Scenario((3, 2))
    with pytest.raises(ValueError):
        party_swap(sc, 0, 1)


def test_gyni_symmetries_fix_gyni():
    gyni = catalog.gyni()
    sc = gyni.scenario
    s1 = Relabeling((0, 1, 2), ((2, 1), (2, 1), (1, 2)), ((1, 1), (1, 1), (-1, -1)))
    s2 = Relabeling((0, 1, 2), ((2, 1), (1, 2), (2, 1)), ((-1, -1), (-1, -1), (1, 1)))
    for gen in (s1, s2):
        assert (_relabeling_map(gen, sc) @ gyni.coefficients == gyni.coefficients).all()
        assert reference_relabel(gen, sc, gyni.coefficients) == gyni.coefficients
    # so the symmetry rows, which the searches impose, vanish on it
    assert not (symmetry_rows([s1, s2], sc) @ gyni.cone_normal()).any()


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
    assert (_relabeling_map(gens[0], sc) @ t == t).all()


def _extended_behaviors(branch_constraints, lower, xi, target, embed):
    """The constraint rows of a branch with one reduction and no symmetry:
    its extended behaviors."""
    return branch_constraints(target, [ReductionSpec(lower, embed)], (xi,))[0]


def test_extended_behaviors_chsh_count(branch_constraints):
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    xi = XiAssignment(((1, 1),))
    ext = _extended_behaviors(branch_constraints, chsh, xi, target, (0, 1))
    assert ext.dtype == np.int64 and ext.shape == (8, 27)
    assert ext.tolist() == reference_extended_behaviors(chsh, xi, target)
    assert (ext[:, 0] == 1).all()
    assert (ext[:, target.index_of((0, 0, 1))] == 1).all()
    assert (ext[:, target.index_of((0, 0, 2))] == 1).all()
    assert len(pivot_columns(ext)) == 8


def test_extended_behaviors_i3322_count(branch_constraints):
    i3322 = catalog.i3322()
    n_sat = int((enumerate_vertices(i3322.scenario) @ i3322.cone_normal() == 0).sum())
    target = Scenario((3, 3, 3))
    xi = XiAssignment(((1, 1, 1),))
    ext = _extended_behaviors(branch_constraints, i3322, xi, target, (0, 1))
    assert ext.dtype == np.int64 and ext.shape == (n_sat, 64) and n_sat > 0
    assert ext.tolist() == reference_extended_behaviors(i3322, xi, target)


def test_extended_behaviors_validation():
    # an inequality that no vertex saturates cannot be extended to a facet
    loose = from_terms(Scenario((2, 2)), 3, {(1, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="not facet-defining"):
        generalize_multi(Scenario((2, 2, 2)), [ReductionSpec(loose, (0, 1))], [])


def test_embedding_rejects_repeated_or_missing_parties():
    chsh, target = catalog.chsh(), Scenario((2, 2, 2))
    for embed, named in [((0, 0), r"\[0\]"), ((0, 5), r"\[5\]"), ((-1, 1), r"\[-1\]")]:
        with pytest.raises(ValueError, match=named):
            generalize_multi(target, [ReductionSpec(chsh, embed)], [])
    # CHSH on parties with 2 and 3 settings: the settings do not match
    with pytest.raises(ValueError, match="settings"):
        generalize_multi(Scenario((2, 3, 2)), [ReductionSpec(chsh, (0, 1))], [])


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
def test_extended_behaviors_match_brute_force(lower, target, embed, branch_constraints):
    # the same embedding gives the extended behaviors and the reduction
    # check, so both are compared with the term-by-term oracles; None embeds
    # lower on the leading parties
    lower, target = lower(), Scenario(target)
    used = embed if embed is not None else tuple(range(lower.scenario.parties))
    extras = [p for p in range(target.parties) if p not in used]
    rng = np.random.default_rng(sum(target.settings))
    for _ in range(3):
        xi = XiAssignment(tuple(tuple(int(x) for x in rng.choice([-1, 1], size=target.settings[p]))
                                for p in extras))
        want = reference_extended_behaviors(lower, xi, target, embed=embed)
        spec = ReductionSpec(lower, used)
        rows, positive = branch_constraints(target, [spec], (xi,))
        assert rows.dtype == np.int64
        assert rows.tolist() == want
        _check_sign_test(target, [spec], (xi,), rows, positive, rng,
                         _lifts(lower, xi, target, used, extras))


@pytest.mark.parametrize("embeds, symmetric", [
    (((0, 1), (1, 2)), False),
    (((0, 1), (2, 0)), False),
    (((0, 1),), True),
    (((0, 1), (1, 2)), True),
])
def test_sign_test_matches_term_by_term_reduction(embeds, symmetric, branch_constraints):
    # branches with two reductions, or with symmetry rows, on random kernel
    # vectors: a branch that lacks one reduction's extended behaviors breaks
    # B^T M = u n^T for that reduction
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)] if symmetric else []
    specs = [ReductionSpec(catalog.chsh(), embed) for embed in embeds]
    rng = np.random.default_rng(len(embeds) + 2 * symmetric)
    live = 0
    for values in itertools.product(itertools.product((-1, 1), repeat=2), repeat=len(specs)):
        combo = tuple(XiAssignment((v,)) for v in values)
        rows, positive = branch_constraints(target, specs, combo, sym)
        live += _check_sign_test(target, specs, combo, rows, positive, rng, [])
    assert live


def _check_sign_test(target, specs, combo, rows, positive, rng, lifts):
    """Compare the sign test on the rows and positive matrix of one branch
    with the term-by-term reduction, on kernel vectors: random integer
    combinations of the kernel basis B and the given lifts, which must lie
    in the kernel; each also times 10^20.  Asserts B^T M = u n^T exactly for
    each reduction (embedding map M, lower normal n) and returns whether
    every u is nonzero, that is, whether the branch is live."""
    basis = integer_kernel_basis(rows, columns=target.dimension + 1).astype(object)
    live = True
    for spec, xi in zip(specs, combo):
        n = spec.lower.cone_normal()
        btm = basis.T @ _embedding_map(xi, target, spec.embed).astype(object)
        u = btm @ n // (n @ n)
        assert (btm == np.outer(u, n)).all()
        live &= bool(u.any())
    ys = rng.integers(-3, 4, size=(8, basis.shape[1])).astype(object)
    normals = np.array(list(ys @ basis.T) + [np.array(c, dtype=object) for c in lifts])
    assert not (normals @ rows.T.astype(object)).any()
    want = [all(reference_reduces(c, xi, spec.lower, target, spec.embed)
                for spec, xi in zip(specs, combo)) for c in normals]
    for scale in (1, 10 ** 20):
        got = ((normals * scale) @ positive.T.astype(object) > 0).all(axis=1)
        assert got.tolist() == want
    if live and lifts:
        assert 0 < sum(want) < len(want)
    elif not live:
        assert not any(want)
    return live


def _lifts(lower, xi, target, used, extras):
    """Lifted normals of kernel vectors: lower scaled by 1, 2 and -1, and two
    that use the first extra party, the last of which reduces to the zero
    vector."""
    def lift(terms, bound):
        coeffs = [0] * (target.dimension + 1)
        coeffs[0] = -bound
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
    lifts = [lift({t + pad: q * c for t, c in lower_terms.items()}, q * lower.bound)
             for q in (1, 2, -1)]
    # a copy of each term on setting 1 of the first extra party, which
    # substitutes xi_1 for it: with coefficient xi_1 c every term doubles, and
    # with -xi_1 c (and bound 0) every term cancels, so the reduction is zero
    on_extra = (1,) + (0,) * (len(extras) - 1)
    x = xi.values[0][0]
    for sign, bound in ((1, 2 * lower.bound), (-1, 0)):
        lifts.append(lift({**{t + pad: c for t, c in lower_terms.items()},
                           **{t + on_extra: sign * x * c for t, c in lower_terms.items()}},
                          bound))
    return lifts


def test_chsh_extension_kernel_dimension_matches_independent_nullspace(branch_constraints):
    # the constraint system of the three-party CHSH extension: its kernel
    # dimension is the dimension of the projected cone behind Mermin
    from conebell.cone import lift_polytope, project_rays
    from .reference import sympy_nullity

    target = Scenario((2, 2, 2))
    g, _ = branch_constraints(target, [ReductionSpec(catalog.chsh(), (0, 1))],
                              (XiAssignment(((1, 1),)),),
                              [party_swap(target, 0, 1), party_swap(target, 0, 2)])
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
