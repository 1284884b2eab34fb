import itertools

import numpy as np
import pytest

from conebell import catalog
from conebell.errors import CapExceededError, ParseError
from conebell.scenario import (Scenario, behavior_dimension, enumerate_vertices,
                               parse_scenario_header, vertex_count)

from .reference import index_tuples


def test_behavior_dimension():
    assert behavior_dimension(Scenario((2, 2))) == 8
    assert behavior_dimension(Scenario((2, 2, 2))) == 26
    assert behavior_dimension(Scenario((3, 3, 2))) == 47


def test_vertex_count():
    assert vertex_count(Scenario((2, 2))) == 16
    assert vertex_count(Scenario((2, 2, 2))) == 64
    assert vertex_count(Scenario((3, 3, 3))) == 512


def test_invalid_scenarios():
    with pytest.raises(ValueError):
        Scenario(())
    with pytest.raises(ValueError):
        Scenario((2, 0))


def test_single_party_single_setting_vertices():
    verts = enumerate_vertices(Scenario((1,)))
    assert verts.dtype == np.int64 and verts.tolist() == [[1, -1], [1, 1]]


def test_vertices_distinct_and_counted():
    for settings in [(2, 2), (3, 2), (2, 2, 2)]:
        sc = Scenario(settings)
        verts = enumerate_vertices(sc)
        assert verts.shape == (vertex_count(sc), behavior_dimension(sc) + 1)
        assert len(np.unique(verts, axis=0)) == len(verts)


def test_chsh_value_two_on_eight_vertices():
    # brute-force count of assignments reaching the classical bound
    chsh = catalog.chsh()
    values = enumerate_vertices(chsh.scenario)[:, 1:] @ np.array(chsh.coefficients[1:])
    assert sum(1 for v in values if v == 2) == 8
    assert max(values) == 2


def test_mermin_classical_maximum_is_two():
    mermin = catalog.mermin()
    assert max(enumerate_vertices(mermin.scenario)[:, 1:] @ np.array(mermin.coefficients[1:])) == 2


def test_coordinates_are_products_of_assignments():
    rng = np.random.default_rng(11)
    sc = Scenario((3, 2, 2))
    verts = enumerate_vertices(sc)
    # row k belongs to the k-th assignment in lex order, -1 before +1
    assignments = list(itertools.product(
        *[list(itertools.product((-1, 1), repeat=m)) for m in sc.settings]))
    tuples = index_tuples(sc)
    for _ in range(200):
        k = int(rng.integers(len(verts)))
        idx = int(rng.integers(1, len(tuples)))
        t = tuples[idx]
        expect = 1
        for party, s in enumerate(t):
            if s:
                expect *= assignments[k][party][s - 1]
        assert verts[k, idx] == expect
    assert (verts[:, 0] == 1).all()


def test_lifted_vertices_have_full_rank():
    for settings in [(2, 2), (3, 3), (2, 2, 2)]:
        sc = Scenario(settings)
        mat = enumerate_vertices(sc)
        assert np.linalg.matrix_rank(mat) == behavior_dimension(sc) + 1


def test_vertex_cap_error_names_cap():
    with pytest.raises(CapExceededError, match="1024"):
        enumerate_vertices(Scenario((6, 6)), cap=1024)


def test_header_round_trip():
    sc = Scenario((3, 3, 2))
    assert sc.header() == "scenario: n=3 settings=3,3,2"
    assert parse_scenario_header(sc.header()) == sc
    with pytest.raises(ParseError):
        parse_scenario_header("scenario: n=2 settings=3,3,2")
    with pytest.raises(ParseError):
        parse_scenario_header("nonsense")
