import itertools
import tracemalloc

import numpy as np
import pytest

from conebell import catalog, constraints, search
from conebell.constraints import invariant_basis, parse_relabeling
from conebell.errors import CapExceededError, ParseError
from conebell.exactlinalg import integer_kernel_basis
from conebell.inequality import Inequality, from_terms, write_inequality
from conebell.scenario import VERTEX_CAP_DEFAULT, Scenario
from conebell.search import (ReductionSpec, canonical_form, classify, generalize_multi,
                             parse_class_list, relabeling_orbit, write_class_list)

from .reference import (Relabeling, brute_force_canonical, full_relabeling_group, gathers,
                        party_swap, reference_fixed_rows, reference_reduces, reference_relabel,
                        reference_search_group, xi_label)


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
    shift = Relabeling((1, 2, 0), ((1, 2),) * 3, ((1, 1),) * 3)
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


def _relabeling_orbit_cases():
    chsh_32 = from_terms(Scenario((3, 2)), 2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1})
    sc = Scenario((2, 1, 1))
    vec = [int(x) for x in np.random.default_rng(5).integers(-2, 3, size=sc.dimension + 1)]
    vec[0] = 2 ** 70  # exact beyond int64
    return [catalog.chsh(), chsh_32, catalog.gyni(), Inequality(sc, tuple(vec))]


@pytest.mark.parametrize("ineq", _relabeling_orbit_cases())
def test_relabeling_orbit_matches_brute_force(ineq):
    sc = ineq.scenario
    want = sorted({reference_relabel(g, sc, ineq.coefficients)
                   for g in full_relabeling_group(sc)})
    assert [v.coefficients for v in relabeling_orbit(ineq)] == want


@pytest.mark.parametrize("settings, bound, terms, size", [
    # -(-2^63) wraps to -2^63 in int64, so a flip of A1 would pass as fixing it
    ((2, 2), 1, {(1, 0): -2 ** 63}, 16),
    ((2, 2), 1, {(1, 0): -2 ** 63, (0, 1): -2 ** 63, (1, 1): 2 ** 63 - 1}, None),
    ((3, 2), 2 ** 63 - 1, {(1, 0): -2 ** 63, (2, 0): -2 ** 63, (0, 2): 2 ** 63 - 1}, None),
    ((2, 2), 2 ** 70, {(1, 1): 2 ** 70, (2, 2): -2 ** 70, (1, 0): -2 ** 63}, None),
])
def test_the_stabilizer_matches_brute_force(settings, bound, terms, size):
    sc = Scenario(settings)
    ineq = from_terms(sc, bound, terms)
    fixing = [g for g in full_relabeling_group(sc) if g.party_map == tuple(range(sc.parties))
              and reference_relabel(g, sc, ineq.coefficients) == ineq.coefficients]
    want = sorted(tuple(src.tolist() + sign.tolist()) for src, sign in gathers(sc, *fixing))
    rows = search._stabilizer(ineq)
    assert sorted(map(tuple, np.hstack(constraints._maps(sc, rows)).tolist())) == want
    assert size is None or len(rows) == size


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


@pytest.mark.parametrize("settings", [(1,), (2, 2), (3, 3), (2, 3, 4), (2, 2, 2), (3, 3, 2),
                                      (3, 3, 3), (2, 2, 2, 2)])
def test_positivity_is_its_own_canonical_form(settings):
    """`facets` marks the trivial class by positivity's coefficients without
    computing its canonical form."""
    ineq = catalog.positivity(Scenario(settings))
    assert canonical_form(ineq) == ineq


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
    # a non-primitive member counts towards the class of its primitive form
    chsh = catalog.chsh()
    doubled = Inequality(chsh.scenario, tuple(2 * c for c in chsh.coefficients))
    scaled = classify([doubled, chsh])
    assert len(scaled) == 1 and scaled[0].members_found == 2
    assert scaled[0].canonical.bound == 2


@pytest.fixture
def reduces(branch_constraints):
    """The reduction check of a search branch, lower on the leading parties:
    the sign test on each candidate in the branch's kernel, None for one
    outside it, which the branch never produces."""
    def check(candidates, xi, lower):
        target = candidates[0].scenario
        embed = tuple(range(lower.scenario.parties))
        rows, positive = branch_constraints(target, [ReductionSpec(lower, embed)], (xi,))
        verdicts = []
        for c in candidates:
            normal = c.cone_normal()
            if (rows.astype(object) @ normal).any():
                verdicts.append(None)
                continue
            verdicts.append(bool((positive @ normal > 0).all()))
            assert verdicts[-1] == reference_reduces(normal, xi, lower, target, embed)
        return verdicts
    return check


def test_verify_reduction_mermin_to_chsh(reduces):
    mermin = catalog.mermin()
    assert reduces([mermin], ((1, 1),), catalog.chsh()) == [True]
    # with xi = (1, -1) Mermin is not tight on CHSH's extended behaviors
    assert reduces([mermin], ((1, -1),), catalog.chsh()) == [None]
    assert not reference_reduces(mermin.cone_normal(), ((1, -1),),
                                 catalog.chsh(), mermin.scenario, (0, 1))


def test_verify_reduction_trivial_lift(reduces):
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    lifted = from_terms(target, 2, {(t[0], t[1], 0): c
                                    for t, c in chsh.nonzero_terms()})
    for xi in itertools.product((-1, 1), repeat=2):
        assert reduces([lifted], (xi,), chsh) == [True]


def test_verify_reduction_scale_freedom(reduces):
    chsh = catalog.chsh()
    target = Scenario((2, 2, 2))
    doubled = from_terms(target, 4, {(t[0], t[1], 0): 2 * c
                                     for t, c in chsh.nonzero_terms()})
    # -1 times the lift, bound included, is tight on the same behaviors
    flipped = from_terms(target, -2, {(t[0], t[1], 0): -c
                                      for t, c in chsh.nonzero_terms()})
    assert reduces([doubled, flipped], ((1, 1),), chsh) == [True, False]


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
    sym = gathers(target, party_swap(target, 0, 1), party_swap(target, 0, 2))
    return generalize_multi(target, [ReductionSpec(catalog.chsh(), (0, 1))], sym, **kwargs)


def test_branch_survivors_are_the_kernel_facets_that_reduce(branch_constraints):
    # on every branch of the CHSH search, the sign test keeps exactly the
    # certified kernel facets that the term-by-term oracle says reduce
    from conebell.cone import constrained_facets, lift_polytope
    from conebell.scenario import enumerate_vertices

    target = Scenario((2, 2, 2))
    cone = lift_polytope(enumerate_vertices(target))
    sym = gathers(target, party_swap(target, 0, 1), party_swap(target, 0, 2))
    spec = ReductionSpec(catalog.chsh(), (0, 1))
    kept = 0
    for values in itertools.product((-1, 1), repeat=2):
        xi = (values,)
        rows, positive = branch_constraints(target, [spec], (xi,), sym)
        basis = integer_kernel_basis(rows, columns=cone.dim)
        every = constrained_facets(cone, basis, positive[:0])
        want = [c.tolist() for c in every
                if reference_reduces(c, xi, spec.lower, target, spec.embed)]
        assert len(want) < len(every)
        got = [c.tolist() for c in constrained_facets(cone, basis, positive)]
        assert got == want
        kept += len(got)
    assert kept


def test_dead_branches_skip_the_dd():
    # with a cyclic party symmetry, this relabeled CHSH leaves every branch's
    # kernel orthogonal to M n: each branch ends before its DD, so the DD cap
    # is never reached, and each still reports as one finished job
    target = Scenario((2, 2, 2))
    lower = Inequality(Scenario((2, 2)), (2, 0, 0, 0, -1, -1, 0, 1, -1))
    reports = []
    classes = generalize_multi(target, [ReductionSpec(lower, (0, 1))],
                               [parse_relabeling("perm:ABC->BCA", target)], dd_cap=4,
                               progress=lambda *args: reports.append(args))
    assert classes == []
    assert reports == [(k, 4, 0) for k in range(1, 5)]


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
    options = search._reduction_options
    monkeypatch.setattr(search, "_reduction_options", lambda *args: options(*args)[::-1])
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


def _pool_sizes(monkeypatch):
    """The max_workers of every process pool made from now on, as a list."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


def test_worker_pool_has_no_more_processes_than_jobs(monkeypatch):
    # a fork pool starts max_workers processes at its first submit
    options = search._reduction_options
    monkeypatch.setattr(search, "_reduction_options", lambda *args: options(*args)[:2])
    _every_branch(monkeypatch)
    seq = _chsh_to_three_parties(workers=1)
    sizes = _pool_sizes(monkeypatch)
    par = _chsh_to_three_parties(workers=8)
    assert sizes == [2]
    assert par == seq


def test_worker_pool_has_no_more_processes_than_branches_to_run(monkeypatch):
    # the 4 jobs of the CHSH search form 2 orbits, so 2 branches run
    seq = _chsh_to_three_parties(workers=1)
    sizes = _pool_sizes(monkeypatch)
    par = _chsh_to_three_parties(workers=8)
    assert sizes == [2]
    assert par == seq


def _search_orbit_cases():
    """(2,2,2) searches for CHSH on A,B, exact and up to relabeling, under a
    cyclic symmetry, under a party-swap symmetry and with none."""
    target = Scenario((2, 2, 2))
    cyclic = [parse_relabeling("perm:ABC->BCA", target)]
    swap = gathers(target, party_swap(target, 0, 1))
    return [(target, [ReductionSpec(catalog.chsh(), (0, 1), sweep)], sym)
            for sweep in (False, True) for sym in (cyclic, swap, [])]


def _fast_group(target, specs, symmetry):
    """(options, the generators (src, sign) of _search_group, (source, maps)
    of _job_orbits)."""
    options = [search._reduction_options(target, spec, search.ORBIT_CAP_DEFAULT,
                                         VERTEX_CAP_DEFAULT) for spec in specs]
    src, sign = search._search_group(target, specs, invariant_basis(symmetry, target),
                                     search.ORBIT_CAP_DEFAULT, search.ORBIT_CAP_DEFAULT)
    return options, src, sign, search._job_orbits(options, src, sign)


def _closure(src, sign):
    """Every product of the signed permutations (src, sign) as (src, sign)
    tuples, the identity included."""
    start = (tuple(range(src.shape[1])), (1,) * src.shape[1])
    group, frontier = {start}, [start]
    while frontier:
        reached = []
        for s, g in frontier:
            s, g = np.array(s), np.array(g)
            for elem in zip(map(tuple, s[src].tolist()), map(tuple, (g[src] * sign).tolist())):
                if elem not in group:
                    group.add(elem)
                    reached.append(elem)
        frontier = reached
    return group


def _maps_job_data(options, source, maps):
    """Whether each job's relabeling maps the rows M n of its orbit's first
    job onto its own, option for option."""
    jobs = list(itertools.product(*options))
    return all(
        (np.array(w)[msrc] * msign == np.array(wj)).all()
        for job, first, msrc, msign in zip(jobs, source, *maps)
        for (_, _, w), (_, _, wj) in zip(jobs[first], job))


@pytest.mark.parametrize("target, specs, symmetry", _search_orbit_cases())
def test_the_search_group_lies_inside_the_brute_force_group(target, specs, symmetry):
    # every relabeling that the generators give is one of the oracle's,
    # which map the symmetric subspace and the jobs onto themselves; every
    # orbit of jobs lies inside one oracle orbit, and each job's relabeling
    # maps its orbit's first job onto it
    options, src, sign, (source, maps) = _fast_group(target, specs, symmetry)
    group, orbit = reference_search_group(target, specs, symmetry)
    assert _closure(src, sign) <= group
    assert {(tuple(s), tuple(g)) for s, g in zip(maps[0].tolist(), maps[1].tolist())} <= group
    labels = ["|".join(label for label, _, _ in job) for job in itertools.product(*options)]
    assert all(orbit[labels[j]] == orbit[labels[k]] for j, k in enumerate(source))
    assert len(set(source.tolist())) < len(labels)
    assert _maps_job_data(options, source, maps)


def test_the_search_group_fixes_each_unswept_lower_inequality():
    # with no symmetry, G is the 8 relabelings of A,B that fix CHSH times
    # all 8 of C; each fixes CHSH embedded on A,B with C at setting 0
    target = Scenario((2, 2, 2))
    _, src, sign, _ = _fast_group(target, [ReductionSpec(catalog.chsh(), (0, 1))], [])
    embedded = np.zeros(target.shape, dtype=np.int64)
    embedded[..., 0] = np.reshape(catalog.chsh().coefficients, (3, 3))
    embedded = embedded.ravel()
    group = np.array(sorted(_closure(src, sign)))
    assert len(group) == 64
    assert (embedded[group[:, 0]] * group[:, 1] == embedded).all()
    stabilizer = [g for g in full_relabeling_group(catalog.chsh().scenario)
                  if g.party_map == (0, 1) and reference_relabel(
                      g, catalog.chsh().scenario, catalog.chsh().coefficients)
                  == catalog.chsh().coefficients]
    assert len(stabilizer) == 8


@pytest.mark.parametrize("settings, texts", [
    ((2, 2, 2), ["perm:ABC->BCA"]),
    ((2, 2, 2), ["perm:ABC->BCA; A1:-"]),
    ((2, 3, 2), ["perm:ABC->CBA; B:(1 2 3); A2:-; C1:-"]),
    ((3, 3, 2), ["perm:ABC->BAC"]),
    ((3, 3, 3), ["perm:ABC->BAC", "perm:ABC->CBA"]),
    ((2, 2, 2, 2), ["A:(1 2); B:(1 2); C1:-; C2:-", "A:(1 2); C:(1 2); A1:-; A2:-; B1:-; B2:-"]),
])
def test_the_orbit_gather_is_the_exact_subspace_test(settings, texts):
    # with no reduction, the generators of G are every local relabeling g
    # but the identity that maps the invariant basis B into its span: the
    # products of the generators' P - I with g's B are 0.  Checked on random
    # local relabelings, and on ones that relabel every equal-setting party
    # alike, which pass more often
    target = Scenario(settings)
    gens = [parse_relabeling(text, target) for text in texts]
    basis = invariant_basis(gens, target)
    src, sign = search._search_group(target, [], basis, search.ORBIT_CAP_DEFAULT,
                                     search.ORBIT_CAP_DEFAULT)
    group = set(map(tuple, np.hstack([src, sign]).tolist()))
    sizes = [len(constraints._slot_table(m)[0]) for m in settings]
    rng = np.random.default_rng(len(group))
    rows = np.column_stack([rng.integers(size, size=400) for size in sizes])
    # 384 is a multiple of every table size here, 8 and 48
    alike = rng.integers(384, size=(400, max(settings) + 1))
    rows = np.vstack([rows, [[alike[k, m] % sizes[p] for p, m in enumerate(settings)]
                             for k in range(len(alike))]])
    csrc, csign = constraints._maps(target, rows)
    fixed = reference_fixed_rows(gens, target)
    exact = ~np.einsum("rd,ndk->nrk", fixed, basis[csrc] * csign[..., None]).any(axis=(1, 2))
    kept = [tuple(row) in group or not k.any()
            for row, k in zip(np.hstack([csrc, csign]).tolist(), rows)]
    assert kept == exact.tolist()
    assert 0 < exact.sum() < len(exact)


def _every_branch(monkeypatch):
    """Make every search run all its branches: G has no generators."""
    def no_generators(target, *args):
        return (np.zeros((0, target.dimension + 1), dtype=np.int64),) * 2

    monkeypatch.setattr(search, "_search_group", no_generators)


@pytest.mark.parametrize("sweep, texts, cap, limit, count", [
    # the lower scenario has 64 local relabelings, more than cap
    (False, [], 63, 100, 0),
    # under a symmetry, the candidates (8^3, all of G's parties being free)
    # are more than cap
    (True, ["perm:ABC->BCA"], 511, 100, 0),
    # limit generators are found before the candidates run out
    (True, ["perm:ABC->BCA"], 512, 2, 2),
])
def test_the_search_group_falls_back_to_fewer_generators(monkeypatch, sweep, texts, cap, limit,
                                                         count):
    # each fallback gives the first count generators of the full group, none
    # at all when a cap is passed, and the search still writes the class
    # list it writes with its default caps, byte for byte
    target = Scenario((2, 2, 2))
    specs = [ReductionSpec(catalog.chsh(), (0, 1), sweep)]
    symmetry = [parse_relabeling(text, target) for text in texts]
    default = write_class_list(generalize_multi(target, specs, symmetry))
    basis = invariant_basis(symmetry, target)
    full = search._search_group(target, specs, basis, search.ORBIT_CAP_DEFAULT,
                                search.ORBIT_CAP_DEFAULT)
    group = search._search_group
    with monkeypatch.context() as patch:
        # one candidate a chunk, so limit stops the sweep before its end
        patch.setattr(search, "_GATHER_ENTRIES", 1)
        src, sign = group(target, specs, basis, cap, limit)
    assert src.shape == sign.shape == (count, target.dimension + 1) and len(full[0]) > count
    assert (src == full[0][:count]).all() and (sign == full[1][:count]).all()
    monkeypatch.setattr(search, "_search_group",
                        lambda target, reductions, basis, *_: group(target, reductions, basis,
                                                                    cap, limit))
    assert write_class_list(generalize_multi(target, specs, symmetry)) == default


def test_a_swept_search_without_symmetry_has_few_generators():
    # I3322 on A,B of (3,3,3) up to relabeling: G is every local relabeling,
    # 48^3 of them, and 3 generators per party give it; the 4608 jobs form
    # one orbit, each reached by a product of generators
    target = Scenario((3, 3, 3))
    options, src, sign, (source, maps) = _fast_group(
        target, [ReductionSpec(catalog.i3322(), (0, 1), sweep_orbit=True)], [])
    assert src.shape == sign.shape == (9, target.dimension + 1)
    assert len(source) == 4608 and not source.any()
    assert _maps_job_data(options, source, maps)


def _orbit_runs():
    """Each of _search_orbit_cases with 1 and 2 workers.  The swept search
    with no symmetry runs 32 DDs of about 0.3 s to every branch, so with 2
    workers it runs only under -m long."""
    return [pytest.param(target, specs, symmetry, workers, marks=[pytest.mark.long] * (
                workers == 2 and specs[0].sweep_orbit and not symmetry))
            for target, specs, symmetry in _search_orbit_cases() for workers in (1, 2)]


@pytest.mark.parametrize("target, specs, symmetry, workers", _orbit_runs())
def test_orbit_path_matches_every_branch(monkeypatch, target, specs, symmetry, workers):
    # the survivors mapped from one branch per orbit are the survivors of
    # every branch, job label for job label, and the class lists agree byte
    # for byte; progress still fires once per job, in order
    survivors = search._survivors
    found = []
    monkeypatch.setattr(search, "_survivors", lambda *args: found.append(survivors(*args)) or found[-1])

    def run():
        reports = []
        text = write_class_list(generalize_multi(target, specs, symmetry, workers=workers,
                                                 progress=lambda *args: reports.append(args)))
        return {key: labels for key, (_, labels) in found[-1].items()}, text, reports

    orbit = run()
    _every_branch(monkeypatch)
    every = run()
    assert orbit[0] == every[0] and orbit[1] == every[1]
    assert [done for done, _, _ in orbit[2]] == list(range(1, len(every[2]) + 1))
    assert sorted(r[1:] for r in orbit[2]) == sorted(r[1:] for r in every[2])


def test_a_search_enumerates_each_scenario_once(monkeypatch):
    # the lower vertices serve the facet certificate and every branch, the
    # swept variants included
    from conebell import cone

    calls = []
    enumerate_vertices = cone.enumerate_vertices
    monkeypatch.setattr(cone, "enumerate_vertices",
                        lambda sc, **kw: calls.append(sc.settings) or enumerate_vertices(sc, **kw))
    target = Scenario((2, 2, 2))
    specs = [ReductionSpec(catalog.chsh(), (0, 1), sweep_orbit=True),
             ReductionSpec(catalog.chsh(), (1, 2))]
    generalize_multi(target, specs, [parse_relabeling("perm:ABC->BCA", target)])
    assert sorted(calls) == [(2, 2), (2, 2), (2, 2, 2)]


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


def test_a_witness_names_the_branch_of_each_reduction(branch_constraints):
    # CHSH on A,B and on B,C: 16 branches, and a class is witnessed by
    # exactly the branches whose survivors hold one of its members
    from conebell.cone import constrained_facets, lift_polytope
    from conebell.inequality import from_cone_normal
    from conebell.scenario import enumerate_vertices

    target = Scenario((2, 2, 2))
    specs = [ReductionSpec(catalog.chsh(), (0, 1)), ReductionSpec(catalog.chsh(), (1, 2))]
    classes = generalize_multi(target, specs, [])
    cone = lift_polytope(enumerate_vertices(target))
    want = {}
    for values in itertools.product(itertools.product((-1, 1), repeat=2), repeat=2):
        combo = tuple((v,) for v in values)
        rows, positive = branch_constraints(target, specs, combo)
        basis = integer_kernel_basis(rows, columns=cone.dim)
        for lifted in constrained_facets(cone, basis, positive):
            canon = canonical_form(from_cone_normal(target, lifted)).coefficients
            want.setdefault(canon, set()).add("|".join(map(xi_label, combo)))
    assert classes and {cl.canonical.coefficients: set(cl.witnesses) for cl in classes} == want


def test_a_search_with_no_extra_party_round_trips_its_witness():
    # CHSH searched on its own scenario: one branch, with the empty xi
    classes = generalize_multi(Scenario((2, 2)), [ReductionSpec(catalog.chsh(), (0, 1))], [])
    assert [cl.witnesses for cl in classes] == [("()",)]
    text = write_class_list(classes)
    assert "witnesses=()" in text
    assert parse_class_list(text) == classes


@pytest.mark.parametrize("witnesses", ["", "+-,", "+ -", "v0:+-", "v1+-", "+-|", "(+)", "+-=+"])
def test_class_list_rejects_a_malformed_witness(witnesses):
    text = f"class 1: members=1 witnesses={witnesses}\n" + write_inequality(catalog.chsh())
    with pytest.raises(ParseError, match="malformed class header"):
        parse_class_list(text)


@pytest.mark.parametrize("header", ["members=-3", "members=0", "members=1 foo=bar",
                                    "members=2 members=5"])
def test_class_list_rejects_a_bad_header(header):
    # a count below 1, an unknown key and a repeated key name the header's line
    text = "# classes\nclass 1: " + header + "\n" + write_inequality(catalog.chsh())
    with pytest.raises(ParseError, match="malformed class header") as err:
        parse_class_list(text)
    assert err.value.line == 2


def test_class_list_headers_count_the_classes():
    # the k-th header must read class k:, so a garbled or out-of-order
    # number names its line
    chsh = write_inequality(catalog.chsh())
    for text, line in [("class 9: members=1\n" + chsh + "class banana: members=2\n" + chsh, 1),
                       ("class 1: members=1\n" + chsh + "class banana: members=2\n" + chsh,
                        len(chsh.splitlines()) + 2),
                       ("class 2: members=1\n" + chsh + "class 1: members=2\n" + chsh, 1)]:
        with pytest.raises(ParseError, match="malformed class header") as err:
            parse_class_list(text)
        assert err.value.line == line
    two = parse_class_list("class 1: members=1\n" + chsh + "class 2: members=2\n" + chsh)
    assert [cl.members_found for cl in two] == [1, 2]


def test_class_list_rejects_lines_before_the_first_header():
    chsh = catalog.chsh()
    text = "scenario: junk\nbound: what\nclass 1: members=1\n" + write_inequality(chsh)
    with pytest.raises(ParseError, match="before the first class header") as err:
        parse_class_list(text)
    assert err.value.line == 1
    # blank and comment lines may precede the first header
    back = parse_class_list("\n# a comment\n\nclass 1: members=1\n" + write_inequality(chsh))
    assert [cl.canonical for cl in back] == [chsh]
    assert parse_class_list("") == []
