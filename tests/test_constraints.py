import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conebell import catalog
from conebell.constraints import _embedding_map, invariant_basis, parse_relabeling
from conebell.errors import ParseError
from conebell.exactlinalg import integer_kernel_basis, pivot_columns
from conebell.inequality import from_terms
from conebell.scenario import Scenario, enumerate_vertices
from conebell.search import ReductionSpec, generalize_multi

from .reference import (Relabeling, _signed_permutation, gathers, party_swap,
                        reference_extended_behaviors, reference_fixed_rows, reference_reduces,
                        reference_relabel, relabeling_text, sympy_nullity)


@st.composite
def relabelings(draw):
    """(scenario, relabeling, coefficients): a scenario among (2,2,2), (2,3,2)
    and (3,3,2), a random relabeling of it (party permutation among
    equal-setting parties, setting permutations, outcome flips) and random
    coefficients times 10^20."""
    sc = Scenario(draw(st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 3, 2)])))
    perms = [p for p in itertools.permutations(range(sc.parties))
             if all(sc.settings[p[i]] == sc.settings[i] for i in range(sc.parties))]
    rel = Relabeling(draw(st.sampled_from(perms)),
                     tuple(tuple(draw(st.permutations(range(1, m + 1)))) for m in sc.settings),
                     tuple(tuple(draw(st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m)))
                           for m in sc.settings))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=sc.dimension + 1,
                           max_size=sc.dimension + 1))
    return sc, rel, [c * 10 ** 20 for c in coeffs]


@settings(max_examples=60, deadline=None)
@given(relabelings())
@example((Scenario((2, 2, 2)), Relabeling((0, 1, 2), ((1, 2),) * 3, ((1, 1),) * 3),
          [k * 10 ** 20 for k in range(27)]))
@example((Scenario((2, 3, 2)),
          Relabeling((2, 1, 0), ((2, 1), (3, 1, 2), (1, 2)), ((1, -1), (1, 1, -1), (-1, 1))),
          [k * 10 ** 20 for k in range(-18, 18)]))
def test_signed_permutation_matches_the_relabeling(case):
    # parse_relabeling of the relabeling's clause text (perm clause, cycles,
    # flips) is the signed permutation of the one-tuple-at-a-time oracle
    sc, rel, c = case
    src, sign = parse_relabeling(relabeling_text(rel), sc)
    assert src.dtype == sign.dtype == np.int64
    # a signed permutation that keeps the constant coordinate in place
    assert (np.sort(src) == np.arange(sc.dimension + 1)).all()
    assert set(sign.tolist()) <= {-1, 1} and (src[0], sign[0]) == (0, 1)
    # vertices map bijectively onto vertices
    verts = enumerate_vertices(sc)
    assert set(map(tuple, (verts[:, src] * sign).tolist())) == set(map(tuple, verts.tolist()))
    # the same map, one setting tuple at a time
    assert tuple((np.array(c, dtype=object)[src] * sign).tolist()) == reference_relabel(rel, sc, c)


def test_party_permutation_requires_equal_settings():
    with pytest.raises(ParseError, match="equal setting counts") as exc:
        parse_relabeling("A1:-; perm:AB->BA", Scenario((3, 2)))
    assert exc.value.column == 7


def test_gyni_symmetries_fix_gyni():
    gyni = catalog.gyni()
    sc = gyni.scenario
    s1 = Relabeling((0, 1, 2), ((2, 1), (2, 1), (1, 2)), ((1, 1), (1, 1), (-1, -1)))
    s2 = Relabeling((0, 1, 2), ((2, 1), (1, 2), (2, 1)), ((-1, -1), (-1, -1), (1, 1)))
    for gen in (s1, s2):
        src, sign = parse_relabeling(relabeling_text(gen), sc)
        assert (np.array(gyni.coefficients)[src] * sign == gyni.coefficients).all()
        assert reference_relabel(gen, sc, gyni.coefficients) == gyni.coefficients
    # so it lies in the symmetric subspace that the searches project onto:
    # each column of its basis is one orbit's signed indicator
    basis = invariant_basis(gathers(sc, s1, s2), sc)
    n = np.array(gyni.cone_normal())
    assert (basis @ (n @ basis // np.abs(basis).sum(axis=0)) == n).all()


def test_identity_symmetry_keeps_every_coordinate():
    sc = Scenario((2, 2))
    identity = Relabeling((0, 1), ((1, 2), (1, 2)), ((1, 1), (1, 1)))
    basis = invariant_basis(gathers(sc, identity), sc)
    assert basis.dtype == np.int64 and (basis == np.eye(9, dtype=np.int64)).all()


def test_swap_symmetry_kernel_dimension():
    # orbits of the 8 correlator coordinates under A<->B: {A1,B1}, {A2,B2},
    # {A1B2, A2B1}, {A1B1}, {A2B2}; plus the constant: kernel dimension 6
    sc = Scenario((2, 2))
    assert invariant_basis(gathers(sc, party_swap(sc, 0, 1)), sc).shape == (9, 6)


def test_full_party_symmetry_kernel_dimension_three_parties():
    # one kernel dimension per multiset over {0..3}^3: C(6,3) = 20
    sc = Scenario((3, 3, 3))
    assert invariant_basis(gathers(sc, party_swap(sc, 0, 1), party_swap(sc, 0, 2)), sc).shape \
        == (64, 20)


def test_symmetry_kernel_is_pointwise_invariant():
    # every basis vector is fixed by every generator, and the basis has the
    # dimension of the invariant
    # subspace: the sympy nullity of the stacked P - I, whose column u is
    # the relabeled unit vector e_u minus e_u.  A 3-cycle with a flip tells
    # the sign of an image coordinate from that of its source.
    for settings_, texts in [((2, 2), ["perm:AB->BA"]),
                             ((2, 2, 2), ["perm:ABC->BAC; A1:-", "A:(1 2); B2:-"]),
                             ((2, 2, 2), ["perm:ABC->BCA; A1:-"]),
                             ((2, 3, 2), ["perm:ABC->CBA; B:(1 2 3); A2:-; C1:-"])]:
        sc = Scenario(settings_)
        d1 = sc.dimension + 1
        gens = [parse_relabeling(text, sc) for text in texts]
        t = invariant_basis(gens, sc)
        for src, sign in gens:
            assert (t[src] * sign[:, None] == t).all()
        assert t.shape[1] == sympy_nullity(reference_fixed_rows(gens, sc), d1) < d1


# every symmetry set of the tests, the long runs and the benchmark, each
# with whether some orbit is tied to its own negative
_SYMMETRY_SETS = [
    # the benchmark's generalize runs and the cyclic searches of the tests
    ((2, 2, 2), ["perm:ABC->BCA"], False),
    ((2, 2, 2), [], False),
    # criterion 5, the CLI's and the search tests' party swaps
    ((2, 2, 2), ["perm:ABC->BAC", "perm:ABC->CBA"], False),
    ((2, 2, 2), ["perm:ABC->BAC"], False),
    ((2, 2, 2), ["perm:ABC->BAC", "A:(1 2)"], False),
    # criterion 6, both symmetry choices
    ((4, 4, 4), ["perm:ABC->BAC", "perm:ABC->CBA", "A:(1 2); B4:-; C4:-"], True),
    ((4, 4, 4), ["perm:ABC->BAC", "perm:ABC->CBA", "A:(1 2); B:(1 2); C4:-"], True),
    # criterion 7: GYNI, I3322 and the hybrid run
    ((2, 2, 2, 2), ["A:(1 2); B:(1 2); C1:-; C2:-",
                    "A:(1 2); C:(1 2); A1:-; A2:-; B1:-; B2:-"], True),
    ((3, 3, 3), ["perm:ABC->BAC", "perm:ABC->CBA"], False),
    ((3, 3, 2), ["perm:ABC->BAC"], False),
    # the sets of the pointwise, swap and GYNI-symmetry tests above; a flip
    # on a 3-cycle ties whole orbits to their negatives
    ((2, 2), ["perm:AB->BA"], False),
    ((2, 2, 2), ["perm:ABC->BAC; A1:-", "A:(1 2); B2:-"], True),
    ((2, 2, 2), ["perm:ABC->BCA; A1:-"], True),
    ((2, 3, 2), ["perm:ABC->CBA; B:(1 2 3); A2:-; C1:-"], True),
    ((2, 2, 2), ["A:(1 2); B:(1 2); C1:-; C2:-", "A:(1 2); C:(1 2); A1:-; A2:-; B1:-; B2:-"],
     True),
]


@pytest.mark.parametrize("settings_, texts, tied", _SYMMETRY_SETS)
def test_invariant_basis_is_the_kernel_of_the_fixed_rows(settings_, texts, tied):
    # array for array, dtype and column order included: the order sets the
    # DD insertion order of every branch, and with each orbit's first
    # coordinate instead of its largest the I3322 branch DDs take 16 times
    # as long
    sc = Scenario(settings_)
    gens = [parse_relabeling(text, sc) for text in texts]
    basis = invariant_basis(gens, sc)
    want = integer_kernel_basis(reference_fixed_rows(gens, sc), columns=sc.dimension + 1)
    assert basis.dtype == want.dtype == np.int64
    assert basis.shape == want.shape and (basis == want).all()
    assert basis.any(axis=1).all() != tied


def _extended_behaviors(branch_constraints, lower, xi, target, embed):
    """The constraint rows of a branch with one reduction and no symmetry:
    its extended behaviors."""
    return branch_constraints(target, [ReductionSpec(lower, embed)], (xi,))[0]


def test_extended_behaviors_chsh_count(branch_constraints):
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    xi = ((1, 1),)
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
    xi = ((1, 1, 1),)
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


_EMBEDDINGS = [
    (catalog.chsh, (2, 2, 2), None),
    (catalog.chsh, (2, 2, 2), (0, 1)),
    (catalog.chsh, (2, 2, 2), (1, 2)),
    (catalog.chsh, (2, 2, 2), (2, 0)),
    (catalog.chsh, (2, 3, 2), (2, 0)),
    (catalog.chsh, (3, 2, 2), (1, 2)),
    (catalog.i3322, (3, 2, 3), (2, 0)),
    (catalog.mermin, (2, 2, 2, 2), (3, 1, 0)),
]


@pytest.mark.parametrize("lower, target, embed", _EMBEDDINGS)
def test_embedding_map_matches_brute_force_for_every_xi(lower, target, embed):
    # one sign row per xi, in order: each gathers the lower saturating
    # vertices into that xi's extended behaviors, row by row
    lower, target = lower(), Scenario(target)
    embed = embed if embed is not None else tuple(range(lower.scenario.parties))
    extras = [p for p in range(target.parties) if p not in embed]
    xis = list(itertools.product(*(itertools.product((-1, 1), repeat=target.settings[p])
                                   for p in extras)))
    sel, sgn = _embedding_map(xis, target, embed)
    assert sel.shape == (target.dimension + 1,) and sgn.shape == (len(xis), len(sel))
    verts = enumerate_vertices(lower.scenario)
    tight = verts[verts @ lower.cone_normal() == 0]
    for xi, row in zip(xis, sgn):
        assert (tight[:, sel] * row).tolist() == \
            reference_extended_behaviors(lower, xi, target, embed)


@pytest.mark.parametrize("lower, target, embed", _EMBEDDINGS)
def test_extended_behaviors_match_brute_force(lower, target, embed, branch_constraints):
    # the same embedding gives the extended behaviors and the reduction
    # check, so both are compared with the term-by-term oracles; None embeds
    # lower on the leading parties
    lower, target = lower(), Scenario(target)
    used = embed if embed is not None else tuple(range(lower.scenario.parties))
    extras = [p for p in range(target.parties) if p not in used]
    rng = np.random.default_rng(sum(target.settings))
    for _ in range(3):
        xi = tuple(tuple(int(x) for x in rng.choice([-1, 1], size=target.settings[p]))
                   for p in extras)
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
    # branches with two reductions, or with symmetries, on random kernel
    # vectors: a branch that lacks one reduction's extended behaviors breaks
    # B^T M = u n^T for that reduction
    target = Scenario((2, 2, 2))
    sym = gathers(target, party_swap(target, 0, 1), party_swap(target, 0, 2)) if symmetric else []
    specs = [ReductionSpec(catalog.chsh(), embed) for embed in embeds]
    rng = np.random.default_rng(len(embeds) + 2 * symmetric)
    live = 0
    for values in itertools.product(itertools.product((-1, 1), repeat=2), repeat=len(specs)):
        combo = tuple((v,) for v in values)
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
        sel, sgn = _embedding_map([xi], target, spec.embed)
        emb = np.zeros((len(sel), len(n)), dtype=object)
        emb[np.arange(len(sel)), sel] = sgn[0]
        btm = basis.T @ emb
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
    x = xi[0][0]
    for sign, bound in ((1, 2 * lower.bound), (-1, 0)):
        lifts.append(lift({**{t + pad: c for t, c in lower_terms.items()},
                           **{t + on_extra: sign * x * c for t, c in lower_terms.items()}},
                          bound))
    return lifts


def test_chsh_extension_kernel_dimension_matches_independent_nullspace(branch_constraints):
    # the constraint system of the three-party CHSH extension: its kernel
    # dimension is the dimension of the projected cone behind Mermin
    from conebell.cone import lift_polytope, project_rays

    target = Scenario((2, 2, 2))
    swaps = gathers(target, party_swap(target, 0, 1), party_swap(target, 0, 2))
    g, _ = branch_constraints(target, [ReductionSpec(catalog.chsh(), (0, 1))], (((1, 1),),),
                              swaps)
    t = integer_kernel_basis(g, columns=27)
    assert t.shape[1] == sympy_nullity(g, 27)
    cone = lift_polytope(enumerate_vertices(target))
    assert project_rays(cone, t).dim == t.shape[1]


def test_parse_relabeling_round_trip():
    sc = Scenario((2, 2, 4))
    src, sign = parse_relabeling("perm:ABC->BAC; C:(1 2)(3 4); A1:-; C4:-", sc)
    want = _signed_permutation(Relabeling((1, 0, 2), ((1, 2), (1, 2), (2, 1, 4, 3)),
                                          ((-1, 1), (1, 1), (1, 1, 1, -1))), sc)
    assert src.dtype == sign.dtype == np.int64
    assert (src == want[0]).all() and (sign == want[1]).all()
    # an empty clause is skipped
    for a, b in zip(parse_relabeling("A1:-;;B1:-", sc), parse_relabeling("A1:-; B1:-", sc)):
        assert (a == b).all()


def test_parse_relabeling_rejects_malformed():
    # each malformed clause is a ParseError at its column
    for settings_, text, column in [
        ((2, 2), "perm:AB->AA", 1), ((2, 2), "A:(1 3)", 1), ((2, 2), "Q1:-", 1),
        ((2, 2), "A:(1 1)", 1), ((2, 2), "junk", 1), ((2, 2), "perm:AB->BA; A:(1 3)", 14),
        # a perm clause without ->, with the wrong number of parties or an
        # unknown letter, and a cycle clause on a missing party
        ((2, 2), "perm:AB", 1), ((2, 2), "A1:-;  perm:ABC->CAB", 8),
        ((2, 2), "perm:A1->1A", 1), ((2, 2), "C:(1 2)", 1),
        # a setting map that stops being a permutation, and a party sent to
        # one with another setting count
        ((3, 3), "A:(1 2)(2 3)", 1), ((3, 3), "A:(1 2); B:(2 3); A:(2 3)", 19),
        ((3, 2), "perm:AB->BA", 1),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_relabeling(text, Scenario(settings_))
        assert exc.value.column == column, text
