"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria marked `long`
(full three-party enumeration, the generalization searches and the two
reproduction runs) are excluded from the default run; select them with
`-m long`, about 45 s on a 2-vCPU VM.  The reproduction runs, I3322 to
three parties (~13 s) and the hybrid CHSH+I3322 search (~2 s), report count
mismatches against the published figures as findings.
"""
import hashlib
import time

import numpy as np
import pytest

from conebell import catalog
from conebell.cone import Cone, constrained_facets, enumerate_facets_dd, lift_polytope
from conebell.exactlinalg import integer_kernel_basis
from conebell.inequality import (Inequality, algebraic_bound, from_cone_normal,
                                 from_terms, parse_inequality, write_inequality)
from conebell.quantum import BoundsRecord, SeesawConfig, metrics, seesaw
from conebell.scenario import Scenario, enumerate_vertices
from conebell.search import (canonical_form, classify, generalize_multi, relabeling_orbit,
                             ReductionSpec, write_class_list)

from .reference import (Relabeling, gathers, party_swap, random_full_dim_vertices,
                        reference_reduce, reference_relabel)


def _verdict(number, passed, detail):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _digest(classes):
    """SHA-256 of the class list file, members and witnesses included: the
    searches below must reproduce it byte for byte."""
    return hashlib.sha256(write_class_list(classes).encode()).hexdigest()


def _generalize(lower, extra_settings, symmetry):
    """Search the target that appends parties with extra_settings, lower on
    the leading parties."""
    target = Scenario(lower.scenario.settings + extra_settings)
    spec = ReductionSpec(lower, tuple(range(lower.scenario.parties)))
    return generalize_multi(target, [spec], symmetry)


def _classify_scenario(settings):
    sc = Scenario(settings)
    cone = lift_polytope(enumerate_vertices(sc))
    facets = enumerate_facets_dd(cone)
    ineqs = [from_cone_normal(sc, f.vector) for f in facets]
    classes = classify(ineqs)
    trivial = canonical_form(catalog.positivity(sc)).coefficients
    return facets, classes, trivial


def test_criterion_1_chsh_scenario_enumeration():
    t0 = time.time()
    facets, classes, trivial = _classify_scenario((2, 2))
    elapsed = time.time() - t0
    nontrivial = [cl for cl in classes if cl.canonical.coefficients != trivial]
    ok = (len(facets) == 24
          and len(nontrivial) == 1
          and nontrivial[0].members_found == 8
          and nontrivial[0].canonical.coefficients == canonical_form(catalog.chsh()).coefficients
          and elapsed < 1.0)
    _verdict(1, ok, f"2-party-2-setting: {len(facets)} facets, "
                    f"{nontrivial[0].members_found} non-trivial in 1 class (CHSH), "
                    f"{elapsed:.2f} s")


def test_criterion_2_two_party_three_settings():
    t0 = time.time()
    facets, classes, trivial = _classify_scenario((3, 3))
    elapsed = time.time() - t0
    nontrivial = {cl.members_found for cl in classes if cl.canonical.coefficients != trivial}
    total_nontrivial = sum(cl.members_found for cl in classes
                           if cl.canonical.coefficients != trivial)
    ok = (total_nontrivial == 648 and nontrivial == {72, 576} and elapsed < 60.0)
    _verdict(2, ok, f"2-party-3-setting: {total_nontrivial} non-trivial facets "
                    f"in classes {sorted(nontrivial)}, {elapsed:.1f} s")


@pytest.mark.long
def test_criterion_3_three_party_enumeration():
    t0 = time.time()
    facets, classes, _ = _classify_scenario((2, 2, 2))
    elapsed = time.time() - t0
    ok = len(facets) == 53856 and len(classes) == 46
    _verdict(3, ok, f"3-party-2-setting: {len(facets)} facets, {len(classes)} classes, "
                    f"{elapsed / 60:.1f} min")


def test_criterion_4_projection_equals_filtered_enumeration():
    rng = np.random.default_rng(517)
    t0 = time.time()
    instances = 0
    while instances < 100:
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(dim + 2, 13))
        lifted = random_full_dim_vertices(rng, dim, count)
        cone = Cone(dim + 1, lifted)
        all_facets = enumerate_facets_dd(cone)
        if rng.integers(2):
            row = lifted[rng.integers(len(lifted))]
        else:
            row = np.concatenate([[0], rng.integers(-2, 3, size=dim)])
            if not row.any():
                continue
        g = np.array([row], dtype=object)
        expected = {f.vector for f in all_facets
                    if not (g @ np.array(f.vector, dtype=object)).any()}
        got = constrained_facets(cone, integer_kernel_basis(g, columns=dim + 1), g[:0])
        assert {tuple(int(x) for x in v) for v in got} == expected
        instances += 1
    elapsed = time.time() - t0
    _verdict(4, elapsed < 300,
             f"projection pipeline matched filtered enumeration on {instances} "
             f"random polytopes in {elapsed:.0f} s")


def test_criterion_5_chsh_generalization_contains_mermin():
    target = Scenario((2, 2, 2))
    sym = gathers(target, party_swap(target, 0, 1), party_swap(target, 0, 2))
    classes = _generalize(catalog.chsh(), (2,), sym)
    canons = {cl.canonical.coefficients for cl in classes}
    mermin_found = canonical_form(catalog.mermin()).coefficients in canons
    reduction = reference_reduce(catalog.mermin(), ((1, 1),), embed=(0, 1))[1] \
        == catalog.chsh().coefficients
    digest = _digest(classes) == \
        "5aab262fc3466fb219b02948d82aa5541d524d2ddcd2640d8abefecdcb1b5907"
    _verdict(5, mermin_found and reduction and digest,
             f"{len(classes)} classes contain Mermin; unit outcomes on the third "
             "party recover CHSH exactly; the class list matches its digest")


def _i4422_symmetries(which):
    t3 = Scenario((4, 4, 4))
    id4 = (1, 2, 3, 4)
    sw12 = (2, 1, 3, 4)
    nf = (1, 1, 1, 1)
    f4 = (1, 1, 1, -1)
    if which == 1:
        third = Relabeling((0, 1, 2), (sw12, id4, id4), (nf, f4, f4))
    else:
        third = Relabeling((0, 1, 2), (sw12, sw12, id4), (nf, nf, f4))
    return gathers(t3, party_swap(t3, 0, 1), party_swap(t3, 0, 2), third)


@pytest.mark.long
def test_criterion_6_i4422_generalizations():
    empty = _generalize(catalog.i4422(), (4,), _i4422_symmetries(1))
    classes = _generalize(catalog.i4422(), (4,), _i4422_symmetries(2))
    bounds = sorted(cl.canonical.bound for cl in classes)
    canons = {cl.canonical.coefficients for cl in classes}
    fixtures_match = all(canonical_form(fx).coefficients in canons
                         for fx in catalog.i4422_generalizations())
    ok = (empty == [] and len(classes) == 13
          and bounds == [15, 15, 19, 19, 23, 38, 38, 51, 51, 55, 55, 76, 76]
          and fixtures_match and _digest(classes)
          == "8439bf23f4e75a331aab9db27f87f8f5410ee10b4df7dc6f2ae8d4e5efec5fa7")
    _verdict(6, ok, f"first symmetry choice empty; second gives {len(classes)} classes "
                    f"with bounds {bounds}, all matching the published list")


def _gyni_symmetries():
    id2 = (1, 2)
    sw = (2, 1)
    nf = (1, 1)
    fl = (-1, -1)
    s1 = Relabeling((0, 1, 2, 3), (sw, sw, id2, id2), (nf, nf, fl, nf))
    s2 = Relabeling((0, 1, 2, 3), (sw, id2, sw, id2), (fl, fl, nf, nf))
    return gathers(Scenario((2, 2, 2, 2)), s1, s2)


def _gyni_product_form():
    gyni = catalog.gyni()
    sc3 = gyni.scenario
    swap_c_flip_b = Relabeling((0, 1, 2), ((1, 2), (1, 2), (2, 1)),
                               ((1, 1), (-1, -1), (1, 1)))
    bvec = reference_relabel(swap_c_flip_b, sc3, gyni.coefficients)
    t4 = Scenario((2, 2, 2, 2))
    terms = {}
    for idx in range(1, len(bvec)):
        if bvec[idx]:
            t3 = tuple(int(s) for s in np.unravel_index(idx, sc3.shape))
            terms[t3 + (0,)] = bvec[idx]
            terms[t3 + (1,)] = bvec[idx]
    terms[(0, 0, 0, 1)] = -4
    return from_terms(t4, 4, terms)


@pytest.mark.long
def test_criterion_7_gyni_generalizations():
    classes = _generalize(catalog.gyni(), (2,), _gyni_symmetries())
    canons = {cl.canonical.coefficients for cl in classes}
    product = canonical_form(_gyni_product_form()).coefficients in canons
    ok = (len(classes) == 23 and product and _digest(classes)
          == "84685fd97b498479a62c6a4d43c6910177f576df071df7d067f5487051921429")
    _verdict(7, ok, f"GYNI to four parties: {len(classes)} classes; the degenerate "
                    "product-form class is present")


@pytest.mark.long
def test_criterion_7_finding_i3322_full_run():
    t3 = Scenario((3, 3, 3))
    sym = gathers(t3, party_swap(t3, 0, 1), party_swap(t3, 0, 2))
    classes = _generalize(catalog.i3322(), (3,), sym)
    print(f"FINDING: I3322 three-party run gives {len(classes)} classes under the "
          "full local relabeling group; the published count is 3050. The single "
          "missing class is consistent with one published pair merging under the "
          "full group (the canonicalization here is verified against brute-force "
          "orbit minima).")
    assert len(classes) == 3049
    assert _digest(classes) == "1b08cd7477557b04d4388590fe30974f41b6bbd1ef2a0de15d46827c4dda8929"


@pytest.mark.long
def test_criterion_7_finding_hybrid_full_run():
    target = Scenario((3, 3, 2))
    chsh_bc = from_terms(Scenario((3, 2)), 2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1})
    specs = [ReductionSpec(lower=chsh_bc, embed=(1, 2), sweep_orbit=True),
             ReductionSpec(lower=catalog.i3322(), embed=(0, 1))]
    classes = generalize_multi(target, specs, gathers(target, party_swap(target, 0, 1)))
    canons = {cl.canonical.coefficients for cl in classes}
    exemplars = all(canonical_form(catalog.hybrid_generalization(k)).coefficients in canons
                    for k in (1, 47, 198, 314))
    print(f"FINDING: hybrid CHSH+I3322 run gives {len(classes)} classes against the "
          "published 476 (again one short, matching the I3322 run pattern). The "
          "published exemplars 1, 47, 198 and 314 are all present. Reducibility to "
          "CHSH must be demanded up to relabeling (sweep_orbit); with the exact "
          "printed CHSH form the run yields 242 classes.")
    assert exemplars and len(classes) == 475
    assert _digest(classes) == "2117282e2f0a3c5143a965e67f3e213cfb99b1689798d6aa031f9eb8d059ffb6"


def test_criterion_8_seesaw_reference_values():
    t0 = time.time()
    results = {}
    results["chsh_d2"] = seesaw(catalog.chsh(), SeesawConfig(local_dim=2)).value
    results["gyni_d2"] = seesaw(catalog.gyni(), SeesawConfig(local_dim=2)).value
    results["gyni_d3"] = seesaw(catalog.gyni(), SeesawConfig(local_dim=3)).value
    results["i3322g1_d2"] = seesaw(catalog.i3322_generalization(1),
                                   SeesawConfig(local_dim=2)).value
    results["i4422_d2"] = seesaw(catalog.i4422(), SeesawConfig(local_dim=2)).value
    results["i4422_d3"] = seesaw(catalog.i4422(), SeesawConfig(local_dim=3)).value
    elapsed = time.time() - t0
    ok = (abs(results["chsh_d2"] - 2 * np.sqrt(2)) < 1e-6
          and results["gyni_d2"] <= 4 + 1e-6
          and results["gyni_d3"] <= 4 + 1e-6
          and abs(results["i3322g1_d2"] - 16) < 1e-3
          and abs(results["i4422_d2"] - 8) < 5e-3
          and abs(results["i4422_d3"] - 8.15) < 5e-3
          and elapsed < 300)
    _verdict(8, ok, "seesaw: " + ", ".join(f"{k}={v:.6f}" for k, v in results.items())
                    + f" ({elapsed:.0f} s)")


def test_criterion_9_metrics_rows():
    rows = {
        1: (BoundsRecord(classical=8, algebraic=28, qubit=16.0, qutrit=16.0,
                         npa3=16.0), (100.0, 0.0, 0.0, 250.0)),
        400: (BoundsRecord(classical=18, algebraic=96, qubit=20.928, qutrit=21.157,
                           npa3=21.238), (17.54, 1.09, 0.38, 433.33)),
        # the qubit/qutrit inputs for rows 1507 and 532 are back-derived from
        # the published ratios; the body text's 23.249 for 1507 contradicts
        # the printed 0.61 and is not used
        1507: (BoundsRecord(classical=21, algebraic=129, qubit=23.4609,
                            qutrit=23.604, npa3=24.079), (12.40, 0.61, 2.01, 514.29)),
        532: (BoundsRecord(classical=12, algebraic=86, qubit=14.2428,
                           qutrit=14.2428, npa3=14.2926), (18.69, 0.0, 0.35, 616.67)),
    }
    all_ok = True
    for number, (rec, expected) in rows.items():
        ineq = catalog.i3322_generalization(number)
        assert algebraic_bound(ineq) == rec.algebraic
        got = metrics(rec)
        vals = (got.relative_qutrit_violation, got.qutrit_qubit_ratio,
                got.npa_qutrit_ratio, got.algebraic_classical_ratio)
        all_ok = all_ok and all(round(v, 2) == e for v, e in zip(vals, expected))
    exact = (algebraic_bound(catalog.i3322_generalization(1)) == 28
             and algebraic_bound(catalog.i3322_generalization(532)) == 86
             and algebraic_bound(catalog.hybrid_generalization(198)) == 40)
    _verdict(9, all_ok and exact,
             "metric rows 1/400/1507/532 reproduce to 2 decimals; algebraic bounds "
             "28, 86, 40 exact")


def test_criterion_10_randomized_property_suites():
    cases = 0
    rng = np.random.default_rng(99)

    # file-format round trips
    scenarios = [Scenario((2, 2)), Scenario((3, 2)), Scenario((2, 2, 2))]
    for _ in range(400):
        sc = scenarios[rng.integers(len(scenarios))]
        vec = [int(x) for x in rng.integers(-4, 5, size=sc.dimension + 1)]
        vec[0] = abs(vec[0]) + 1
        ineq = Inequality(sc, tuple(vec))
        text = write_inequality(ineq)
        back = parse_inequality(text)
        assert back.coefficients == ineq.coefficients
        assert write_inequality(back) == text
        cases += 1

    # double-description order independence on random cones
    for _ in range(60):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(dim + 1, 9))
        rays = rng.integers(-3, 4, size=(count, dim))
        rays = rays[[bool(r.any()) for r in rays]]
        if len(rays) == 0 or np.linalg.matrix_rank(rays) < dim:
            continue
        cone = Cone(dim, rays.astype(np.int64))
        base = {f.vector for f in enumerate_facets_dd(cone)}
        for _ in range(3):
            perm = rng.permutation(cone.ray_count)
            shuffled = Cone(dim, cone.rays[perm])
            assert {f.vector for f in enumerate_facets_dd(shuffled)} == base
            cases += 1

    # canonical form idempotence and orbit invariance
    sc = Scenario((2, 2))
    variants = relabeling_orbit(catalog.chsh())
    for _ in range(200):
        vec = [int(x) for x in rng.integers(-3, 4, size=sc.dimension + 1)]
        vec[0] = abs(vec[0]) + 1
        ineq = Inequality(sc, tuple(vec))
        canon = canonical_form(ineq)
        assert canonical_form(canon).coefficients == canon.coefficients
        cases += 2
    canon_chsh = canonical_form(catalog.chsh()).coefficients
    for v in variants:
        assert canonical_form(v).coefficients == canon_chsh
        cases += 1

    # seesaw monotonicity per restart
    cfg = SeesawConfig(local_dim=2, restarts=10, seed=5)
    for ineq in (catalog.chsh(), catalog.mermin(), catalog.gyni()):
        result = seesaw(ineq, cfg)
        for trace in result.traces:
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
            cases += 1

    _verdict(10, cases >= 1000, f"{cases} randomized property cases all green")
