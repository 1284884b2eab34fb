import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conebell import catalog
from conebell.npa import (canonical_monomial, export_sdpa, inequality_digest,
                          moment_matrix_structure, monomial_name, parse_sdpa)
from conebell.scenario import Scenario

from .reference import reference_monomials, reference_moment_structure

SC22 = Scenario((2, 2))


def test_involution_reduction():
    assert canonical_monomial(((0, 1), (0, 1)), SC22) == ()
    assert canonical_monomial(((0, 1), (0, 2), (0, 2), (0, 1)), SC22) == ()


def test_party_commutation():
    assert canonical_monomial(((1, 2), (0, 1)), SC22) == ((0, 1), (1, 2))
    assert monomial_name(canonical_monomial(((1, 2), (0, 1)), SC22)) == "A1*B2"


def test_canonical_idempotent_and_interleaving_invariant():
    rng = np.random.default_rng(12)
    letters = [(0, 1), (0, 2), (1, 1), (1, 2)]
    for _ in range(100):
        word = tuple(letters[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))
                     )
        canon = canonical_monomial(word, SC22)
        assert canonical_monomial(canon, SC22) == canon
        # shuffling letters of different parties never changes the result
        a_part = [l for l in word if l[0] == 0]
        b_part = [l for l in word if l[0] == 1]
        interleaved = tuple(b_part + a_part)
        assert canonical_monomial(interleaved, SC22) == canon


def test_invalid_letter_rejected():
    with pytest.raises(ValueError):
        canonical_monomial(((0, 3),), SC22)
    with pytest.raises(ValueError):
        canonical_monomial(((2, 1),), SC22)


def test_level1_structure():
    mp = moment_matrix_structure(SC22, 1)
    assert [monomial_name(m) for m in mp.monomials] == ["1", "A1", "A2", "B1", "B2"]
    upper = {mp.entry_class[i * mp.size + j]
             for i in range(mp.size) for j in range(i, mp.size)}
    # hand enumeration: 1, A1, A2, B1, B2, A1A2, B1B2, A1B1, A1B2, A2B1, A2B2
    assert len(upper) == 11
    names = {monomial_name(mp.classes[k]) for k in upper}
    assert names == {"1", "A1", "A2", "B1", "B2", "A1*A2", "B1*B2",
                     "A1*B1", "A1*B2", "A2*B1", "A2*B2"}


def test_entry_class_symmetry():
    for level in (1, 2):
        mp = moment_matrix_structure(SC22, level)
        ec = np.array(mp.entry_class).reshape(mp.size, mp.size)
        assert (ec == ec.T).all()


def test_identity_class_is_diagonal():
    mp = moment_matrix_structure(SC22, 2)
    ec = np.array(mp.entry_class).reshape(mp.size, mp.size)
    assert (np.diag(ec) == mp.constant_class).all()


def test_chsh_objective_touches_four_classes():
    mp = moment_matrix_structure(SC22, 1, ineq=catalog.chsh())
    names = {monomial_name(mp.classes[k]) for k, _ in mp.objective}
    assert names == {"A1*B1", "A1*B2", "A2*B1", "A2*B2"}


def test_level_must_express_objective():
    with pytest.raises(ValueError, match="level"):
        moment_matrix_structure(Scenario((2, 2, 2)), 1, ineq=catalog.mermin())
    moment_matrix_structure(Scenario((2, 2, 2)), 2, ineq=catalog.mermin())


def test_export_deterministic_and_round_trip():
    sdpa1, idx1 = export_sdpa(catalog.chsh(), 2)
    sdpa2, idx2 = export_sdpa(catalog.chsh(), 2)
    assert sdpa1 == sdpa2 and idx1 == idx2
    parsed = parse_sdpa(sdpa1)
    mp = moment_matrix_structure(SC22, 2)
    assert parsed["size"] == mp.size
    assert parsed["nvars"] == len(mp.classes) - 1
    assert inequality_digest(catalog.chsh()) in sdpa1
    # F0 pins the identity class to one: diagonal entries -1
    f0 = [(i, j, v) for mat, _, i, j, v in parsed["entries"] if mat == 0]
    assert all(i == j and v == -1 for i, j, v in f0)
    assert len(f0) == mp.size


def test_export_objective_sign_convention():
    parsed = parse_sdpa(export_sdpa(catalog.chsh(), 1)[0])
    # minimizing c x realizes the Bell maximum as the negated optimum, so the
    # CHSH coefficients appear negated in c
    assert sorted(x for x in parsed["c"] if x) == [-1, -1, -1, 1]


def test_gyni_level2_exports():
    sdpa, idx = export_sdpa(catalog.gyni(), 2)
    parsed = parse_sdpa(sdpa)
    assert parsed["nblocks"] == 1
    assert parsed["size"] == len(moment_matrix_structure(Scenario((2, 2, 2)), 2).monomials)
    assert idx.startswith("fixed: 1 = 1")


def test_empty_objective_instance():
    sc = SC22
    zero = __import__("conebell.inequality", fromlist=["x"]).from_terms(sc, 1, {})
    sdpa, _ = export_sdpa(zero, 1)
    parsed = parse_sdpa(sdpa)
    assert all(x == 0 for x in parsed["c"])


def assert_matches_reference(scenario, level, ineq=None):
    got = moment_matrix_structure(scenario, level, ineq=ineq)
    want = reference_moment_structure(scenario, level, ineq=ineq)
    assert got.monomials == want.monomials
    assert got.classes == want.classes
    assert list(got.entry_class) == list(want.entry_class)
    assert got.objective == want.objective
    assert got.constant_class == want.constant_class


@pytest.mark.parametrize("settings_", [(2, 2), (3, 2), (2, 2, 2), (3, 3), (2, 3, 2),
                                       (1, 1, 1), (2, 2, 2, 2)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_structure_matches_reference(settings_, level):
    assert_matches_reference(Scenario(settings_), level)


@pytest.mark.parametrize("settings_", [(3,) * 19, (1,) * 65])
def test_structure_matches_reference_past_int64_keys(settings_):
    # the per-party product counts multiply to 10**19 (ten products per
    # party) and 2**65 (two), so the entry keys are Python ints
    assert_matches_reference(Scenario(settings_), 1)


@pytest.mark.parametrize("ineq, level", [(catalog.chsh(), 1), (catalog.mermin(), 2),
                                         (catalog.i3322_generalization(1), 3)])
def test_objective_matches_reference(ineq, level):
    assert_matches_reference(ineq.scenario, level, ineq=ineq)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.integers(1, 3))
def test_structure_matches_reference_on_random_scenarios(settings_, level):
    scenario = Scenario(tuple(settings_))
    assume(len(reference_monomials(scenario, level)) <= 100)
    assert_matches_reference(scenario, level)


def test_entry_class_is_read_only():
    mp = moment_matrix_structure(SC22, 2)
    assert mp.entry_class.dtype == np.int32
    with pytest.raises(ValueError):
        mp.entry_class[0] = 1
    assert mp == moment_matrix_structure(SC22, 2)
    assert hash(mp) == hash(moment_matrix_structure(SC22, 2))


@pytest.mark.parametrize("ineq, digest", [(catalog.i4422(), "61715d5d1975bf8c"),
                                          (catalog.i3322_generalization(400), "d39e251e44c4d0fe")])
def test_level3_export_digest(ineq, digest):
    sdpa, index = export_sdpa(ineq, 3)
    assert hashlib.sha256((sdpa + index).encode()).hexdigest()[:16] == digest


@pytest.mark.skip(reason="needs an external SDP solver; solve the level-1 and "
                         "level-2 CHSH exports and check both optima equal "
                         "2*sqrt(2) within 1e-6 and are nonincreasing in level")
def test_level_monotonicity_with_external_solver():
    pass
