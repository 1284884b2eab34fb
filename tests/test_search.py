import itertools
import tracemalloc

import numpy as np
import pytest

from conebell import catalog, search
from conebell.constraints import XiAssignment, parse_relabeling
from conebell.errors import CapExceededError
from conebell.inequality import Inequality, from_terms
from conebell.scenario import Scenario
from conebell.search import (ReductionSpec, _reduction_mask, canonical_form, classify,
                             generalize_multi, parse_class_list, relabeling_orbit,
                             write_class_list)

from .reference import (brute_force_canonical, full_relabeling_group, party_swap,
                        reference_relabel)


def test_canonical_form_idempotent():
    canon = canonical_form(catalog.chsh())
    assert canonical_form(canon).coefficients == canon.coefficients


def _oracle_cases():
    """Inequalities for the brute-force canonical-form oracle."""
    rng = np.random.default_rng(42)
    for settings, count in [((2, 2), 8), ((1, 2), 8), ((2, 1, 1), 8), ((2, 2, 2), 4),
                            ((3, 2), 4), ((1, 1, 1, 1), 6)]:
        sc = Scenario(settings)
        for k in range(count):
            vec = [int(x) for x in rng.integers(-3, 4, size=sc.dimension + 1)]
            if k % 2:  # sparse and small: many tied partial relabelings
                vec = [x % 2 * (-1) ** i for i, x in enumerate(vec)]
            vec[0] = abs(vec[0]) + 1
            yield Inequality(sc, tuple(vec))
    # coefficients above 2**63, with ties among their magnitudes
    big = 2 ** 64 + 3
    sc = Scenario((2, 2))
    for k in range(6):
        vec = [int(x) for x in rng.choice([-big, big, -(2 ** 70), 1, 0], size=sc.dimension + 1)]
        vec[0] = 2 ** 80 + k
        yield Inequality(sc, tuple(vec))
    # Mermin and vectors invariant under the cyclic party shift
    mermin = catalog.mermin()
    yield mermin
    sc = mermin.scenario
    shift = parse_relabeling("perm:ABC->BCA", sc)
    for _ in range(3):
        vec = [int(x) for x in rng.integers(-1, 2, size=sc.dimension + 1)]
        once = reference_relabel(shift, sc, vec)
        twice = reference_relabel(shift, sc, once)
        sym = [a + b + c for a, b, c in zip(vec, once, twice)]
        sym[0] = abs(sym[0]) + 3
        assert reference_relabel(shift, sc, sym) == tuple(sym)
        yield Inequality(sc, tuple(sym))


def test_canonical_form_matches_brute_force(monkeypatch):
    for ineq in _oracle_cases():
        want = brute_force_canonical(ineq)
        assert canonical_form(ineq).coefficients == want, ineq
        # one (state, party) pair per gather: ties are merged across chunks
        with monkeypatch.context() as patch:
            patch.setattr(search, "_GATHER_ENTRIES", 1)
            assert canonical_form(ineq).coefficients == want, ineq


def test_canonical_form_orbit_invariance():
    rng = np.random.default_rng(9)
    chsh = catalog.chsh()
    group = list(full_relabeling_group(chsh.scenario))
    canon = canonical_form(chsh).coefficients
    for _ in range(30):
        g = group[rng.integers(len(group))]
        moved = Inequality(chsh.scenario, reference_relabel(g, chsh.scenario, chsh.coefficients))
        if moved.bound < 0:
            continue
        assert canonical_form(moved).coefficients == canon


def test_chsh_variants_share_canonical_form():
    chsh = catalog.chsh()
    variants = relabeling_orbit(chsh)
    assert len(variants) == 8
    canon = canonical_form(chsh).coefficients
    assert all(canonical_form(v).coefficients == canon for v in variants)


def _orbit_cases():
    chsh_32 = from_terms(Scenario((3, 2)), 2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1})
    sc = Scenario((2, 1, 1))
    vec = [int(x) for x in np.random.default_rng(5).integers(-2, 3, size=sc.dimension + 1)]
    vec[0] = 2 ** 70  # exact beyond int64
    return [catalog.chsh(), chsh_32, catalog.gyni(), Inequality(sc, tuple(vec))]


@pytest.mark.parametrize("ineq", _orbit_cases())
def test_relabeling_orbit_matches_brute_force(ineq):
    sc = ineq.scenario
    want = sorted({reference_relabel(g, sc, ineq.coefficients)
                   for g in full_relabeling_group(sc)})
    assert [v.coefficients for v in relabeling_orbit(ineq)] == want


def test_relabeling_orbit_cap_counts_group_elements():
    """cap bounds the group size: 2 (8 * 8) = 128 for CHSH."""
    assert len(relabeling_orbit(catalog.chsh(), cap=128)) == 8
    with pytest.raises(CapExceededError):
        relabeling_orbit(catalog.chsh(), cap=127)
    with pytest.raises(CapExceededError, match="294912"):
        relabeling_orbit(catalog.i4422(), cap=1000)


def test_canonical_cap():
    with pytest.raises(CapExceededError):
        canonical_form(catalog.i4422(), cap=10)


@pytest.mark.parametrize("ineq, evaluations", [(catalog.chsh(), 144), (catalog.i4422(), 3840)])
def test_canonical_cap_counts_evaluations(ineq, evaluations):
    """cap counts evaluated (tie state, party, candidate) blocks."""
    assert canonical_form(ineq, cap=evaluations) == canonical_form(ineq)
    with pytest.raises(CapExceededError):
        canonical_form(ineq, cap=evaluations - 1)


def test_canonical_cap_fails_before_allocating():
    """A slot over the cap raises before its candidate table or rows exist."""
    ineq = Inequality(Scenario((6, 6)), (1,) + (0,) * 47 + (1,))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            canonical_form(ineq, cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_classify_singleton_and_counts():
    classes = classify([catalog.chsh()])
    assert len(classes) == 1 and classes[0].members_found == 1
    both = classify([catalog.chsh()] + relabeling_orbit(catalog.chsh()))
    assert len(both) == 1 and both[0].members_found == 9


def _reduces(candidates, xi, lower):
    """The reduction check of a search, lower on the leading parties."""
    normals = np.array([c.cone_normal() for c in candidates])
    embed = tuple(range(lower.scenario.parties))
    return _reduction_mask(normals, xi, lower, embed, candidates[0].scenario).tolist()


def test_verify_reduction_mermin_to_chsh():
    mermin = catalog.mermin()
    assert _reduces([mermin], XiAssignment(((1, 1),)), catalog.chsh()) == [True]
    assert _reduces([mermin], XiAssignment(((1, -1),)), catalog.chsh()) == [False]


def test_verify_reduction_trivial_lift():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    lifted = from_terms(target, 2, {(t[0], t[1], 0): c
                                    for t, c in chsh.nonzero_terms()})
    for xi in itertools.product((-1, 1), repeat=2):
        assert _reduces([lifted], XiAssignment((xi,)), chsh) == [True]


def test_verify_reduction_scale_freedom():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    doubled = from_terms(target, 4, {(t[0], t[1], 0): 2 * c
                                     for t, c in chsh.nonzero_terms()})
    flipped = from_terms(target, 2, {(t[0], t[1], 0): -c
                                     for t, c in chsh.nonzero_terms()})
    assert _reduces([doubled, flipped], XiAssignment(((1, 1),)), chsh) == [True, False]


def test_i4422_reduces_to_i3322():
    """Substituting A3 = B3 = 1 and relabeling maps I4422 onto I3322."""
    i4422 = catalog.i4422()
    sc = i4422.scenario
    # substitute setting 3 of both parties by the deterministic outcome +1
    reduced = {}
    bound = i4422.bound
    for (a, b), c in i4422.nonzero_terms():
        ta = 0 if a == 3 else a
        tb = 0 if b == 3 else b
        if (ta, tb) == (0, 0):
            bound -= c
        else:
            reduced[(ta, tb)] = reduced.get((ta, tb), 0) + c
    small = Scenario((3, 3))
    # relabel: flip outcomes of setting 2, rename setting 4 to 3 with a flip
    def move(s):
        return 3 if s == 4 else s
    sign = {2: -1, 4: -1}
    terms = {}
    for (a, b), c in reduced.items():
        s = sign.get(a, 1) * sign.get(b, 1)
        terms[(move(a), move(b))] = c * s
    assert from_terms(small, bound, terms).coefficients == catalog.i3322().coefficients


def _chsh_to_three_parties(**kwargs):
    """CHSH on parties A and B of (2,2,2), symmetric under all party swaps."""
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)]
    return generalize_multi(target, [ReductionSpec(catalog.chsh(), (0, 1))], sym, **kwargs)


def test_generalize_chsh_contains_mermin():
    classes = _chsh_to_three_parties()
    canons = {cl.canonical.coefficients for cl in classes}
    assert canonical_form(catalog.mermin()).coefficients in canons
    for cl in classes:
        assert cl.witnesses, "every class carries at least one xi witness"


def test_generalize_invariant_under_xi_order(monkeypatch):
    # the order in which deterministic-outcome choices are enumerated must not
    # change the class list: canonical forms, member counts or witnesses
    forward = _chsh_to_three_parties()
    xi_space = search._xi_space
    monkeypatch.setattr(search, "_xi_space", lambda *args: xi_space(*args)[::-1])
    backward = _chsh_to_three_parties()
    assert len(forward) == 6
    assert backward == forward


def test_generalize_worker_pool_matches_sequential():
    seq = _chsh_to_three_parties(workers=1)
    par = _chsh_to_three_parties(workers=2)
    assert [cl.canonical.coefficients for cl in seq] == \
        [cl.canonical.coefficients for cl in par]
    assert [cl.witnesses for cl in seq] == [cl.witnesses for cl in par]


def test_generalize_worker_pool_reports_progress():
    reports = {1: [], 2: []}
    for workers, seen in reports.items():
        _chsh_to_three_parties(workers=workers,
                               progress=lambda *args, seen=seen: seen.append(args))
    assert reports[1] and reports[2] == reports[1]
    assert [done for done, _, _ in reports[1]] == list(range(1, len(reports[1]) + 1))


def test_generalize_multi_rejects_non_facet_lower():
    weak = from_terms(Scenario((2, 2)), 2, {(1, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="facet"):
        generalize_multi(Scenario((2, 2, 2)), [ReductionSpec(weak, (0, 1))], [])


def test_class_list_round_trip():
    classes = _chsh_to_three_parties()
    text = write_class_list(classes)
    back = parse_class_list(text)
    assert [cl.canonical.coefficients for cl in back] == \
        [cl.canonical.coefficients for cl in classes]
    assert [cl.witnesses for cl in back] == [cl.witnesses for cl in classes]
    assert write_class_list(back) == text
