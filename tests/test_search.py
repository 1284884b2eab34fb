import itertools
import tracemalloc

import numpy as np
import pytest

from conebell import catalog, search
from conebell.constraints import (XiAssignment, apply_relabeling, parse_relabeling,
                                  party_swap)
from conebell.errors import CapExceededError
from conebell.inequality import Inequality, from_terms
from conebell.scenario import Scenario
from conebell.search import (GroupSpec, canonical_form, classify, generalize,
                             parse_class_list, relabeling_orbit,
                             verify_reduction, write_class_list)

from .reference import brute_force_canonical, full_relabeling_group


def test_canonical_form_idempotent():
    canon = canonical_form(catalog.chsh())
    assert canonical_form(canon).coefficients == canon.coefficients


def _oracle_cases():
    """(inequality, GroupSpec) pairs for the brute-force canonical-form oracle."""
    rng = np.random.default_rng(42)
    full = GroupSpec()
    restricted = [GroupSpec(party_permutations=False), GroupSpec(setting_permutations=False),
                  GroupSpec(sign_flips=False)]
    for settings, count in [((2, 2), 8), ((1, 2), 8), ((2, 1, 1), 8), ((2, 2, 2), 4),
                            ((3, 2), 4), ((1, 1, 1, 1), 6)]:
        sc = Scenario(settings)
        for k in range(count):
            vec = [int(x) for x in rng.integers(-3, 4, size=sc.dimension + 1)]
            if k % 2:  # sparse and small: many tied partial relabelings
                vec = [x % 2 * (-1) ** i for i, x in enumerate(vec)]
            vec[0] = abs(vec[0]) + 1
            ineq = Inequality(sc, tuple(vec))
            yield ineq, full
            yield ineq, restricted[k % 3]
    # coefficients above 2**63, with ties among their magnitudes
    big = 2 ** 64 + 3
    sc = Scenario((2, 2))
    for k in range(6):
        vec = [int(x) for x in rng.choice([-big, big, -(2 ** 70), 1, 0], size=sc.dimension + 1)]
        vec[0] = 2 ** 80 + k
        yield Inequality(sc, tuple(vec)), full
        yield Inequality(sc, tuple(vec)), restricted[k % 3]
    # Mermin and vectors invariant under the cyclic party shift
    mermin = catalog.mermin()
    for group in [full] + restricted:
        yield mermin, group
    sc = mermin.scenario
    shift = parse_relabeling("perm:ABC->BCA", sc)
    for k in range(3):
        vec = [int(x) for x in rng.integers(-1, 2, size=sc.dimension + 1)]
        once = apply_relabeling(shift, sc, vec)
        twice = apply_relabeling(shift, sc, once)
        sym = [a + b + c for a, b, c in zip(vec, once, twice)]
        sym[0] = abs(sym[0]) + 3
        assert apply_relabeling(shift, sc, sym) == tuple(sym)
        yield Inequality(sc, tuple(sym)), full
        yield Inequality(sc, tuple(sym)), restricted[k]


def test_canonical_form_matches_brute_force(monkeypatch):
    for ineq, group in _oracle_cases():
        want = brute_force_canonical(ineq, group)
        assert canonical_form(ineq, group=group).coefficients == want, (ineq, group)
        # one (state, party) pair per gather: ties are merged across chunks
        with monkeypatch.context() as patch:
            patch.setattr(search, "_GATHER_ENTRIES", 1)
            assert canonical_form(ineq, group=group).coefficients == want, (ineq, group)


def test_canonical_form_orbit_invariance():
    rng = np.random.default_rng(9)
    chsh = catalog.chsh()
    group = list(full_relabeling_group(chsh.scenario))
    canon = canonical_form(chsh).coefficients
    for _ in range(30):
        g = group[rng.integers(len(group))]
        moved = Inequality(chsh.scenario, apply_relabeling(g, chsh.scenario, chsh.coefficients))
        if moved.bound < 0:
            continue
        assert canonical_form(moved).coefficients == canon


def test_chsh_variants_share_canonical_form():
    chsh = catalog.chsh()
    variants = relabeling_orbit(chsh)
    assert len(variants) == 8
    canon = canonical_form(chsh).coefficients
    assert all(canonical_form(v).coefficients == canon for v in variants)


def test_canonical_form_group_restriction():
    sc = Scenario((2, 2))
    ineq = from_terms(sc, 1, {(0, 1): 1})
    # without sign flips the +1 cannot turn negative, so lex-min pushes it to
    # the latest reachable marginal slot
    no_flip = canonical_form(ineq, group=GroupSpec(sign_flips=False))
    assert no_flip.coefficient((2, 0)) == 1
    assert all(c >= 0 for c in no_flip.coefficients)
    full = canonical_form(ineq)
    assert full.coefficient((0, 1)) == -1


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


def test_verify_reduction_mermin_to_chsh():
    assert verify_reduction(catalog.mermin(), XiAssignment(((1, 1),)), catalog.chsh())
    assert not verify_reduction(catalog.mermin(), XiAssignment(((1, -1),)), catalog.chsh())


def test_verify_reduction_trivial_lift():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    lifted = from_terms(target, 2, {(t[0], t[1], 0): c
                                    for t, c in chsh.nonzero_terms()})
    for xi in itertools.product((-1, 1), repeat=2):
        assert verify_reduction(lifted, XiAssignment((xi,)), chsh)


def test_verify_reduction_scale_freedom():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    doubled = from_terms(target, 4, {(t[0], t[1], 0): 2 * c
                                     for t, c in chsh.nonzero_terms()})
    assert verify_reduction(doubled, XiAssignment(((1, 1),)), chsh)
    flipped = from_terms(target, 2, {(t[0], t[1], 0): -c
                                     for t, c in chsh.nonzero_terms()})
    assert not verify_reduction(flipped, XiAssignment(((1, 1),)), chsh)


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


def test_generalize_chsh_contains_mermin():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)]
    classes = generalize(chsh, (2,), sym)
    canons = {cl.canonical.coefficients for cl in classes}
    assert canonical_form(catalog.mermin()).coefficients in canons
    for cl in classes:
        assert cl.witnesses, "every class carries at least one xi witness"


def test_generalize_invariant_under_xi_order(monkeypatch):
    # the order in which deterministic-outcome choices are enumerated must not
    # change the class list: canonical forms, member counts or witnesses
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)]
    forward = generalize(chsh, (2,), sym)
    xi_space = search._xi_space
    monkeypatch.setattr(search, "_xi_space", lambda *args: xi_space(*args)[::-1])
    backward = generalize(chsh, (2,), sym)
    assert len(forward) == 6
    assert backward == forward


def test_generalize_worker_pool_matches_sequential():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)]
    seq = generalize(chsh, (2,), sym, workers=1)
    par = generalize(chsh, (2,), sym, workers=2)
    assert [cl.canonical.coefficients for cl in seq] == \
        [cl.canonical.coefficients for cl in par]
    assert [cl.witnesses for cl in seq] == [cl.witnesses for cl in par]


def test_generalize_worker_pool_reports_progress():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)]
    reports = {1: [], 2: []}
    for workers, seen in reports.items():
        generalize(chsh, (2,), sym, workers=workers,
                   progress=lambda *args, seen=seen: seen.append(args))
    assert reports[1] and reports[2] == reports[1]
    assert [done for done, _, _ in reports[1]] == list(range(1, len(reports[1]) + 1))


def test_generalize_multi_rejects_non_facet_lower():
    weak = from_terms(Scenario((2, 2)), 2, {(1, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="facet"):
        generalize(weak, (2,), [])


def test_class_list_round_trip():
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    sym = [party_swap(target, 0, 1), party_swap(target, 0, 2)]
    classes = generalize(chsh, (2,), sym)
    text = write_class_list(classes)
    back = parse_class_list(text)
    assert [cl.canonical.coefficients for cl in back] == \
        [cl.canonical.coefficients for cl in classes]
    assert [cl.witnesses for cl in back] == [cl.witnesses for cl in classes]
    assert write_class_list(back) == text
