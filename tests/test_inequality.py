import pytest

from conebell import catalog
from conebell.errors import ParseError
from conebell.inequality import (algebraic_bound, expand_symmetric_terms, from_cone_normal,
                                 from_terms, parse_inequality, render,
                                 render_symmetric, symmetric_terms, term_count,
                                 write_inequality)
from conebell.scenario import Scenario


FIXTURE_BOUNDS = [
    ("chsh", catalog.chsh, 2),
    ("mermin", catalog.mermin, 2),
    ("i3322", catalog.i3322, 4),
    ("i4422", catalog.i4422, 7),
    ("gyni", catalog.gyni, 4),
]


@pytest.mark.parametrize("name,factory,bound", FIXTURE_BOUNDS)
def test_catalog_bounds_are_tight(name, factory, bound):
    ineq = factory()
    assert ineq.bound == bound
    assert max(ineq.values_on_vertices()) == bound


@pytest.mark.parametrize("number,bound", [(1, 8), (400, 18), (1507, 21), (532, 12)])
def test_i3322_generalizations_are_tight(number, bound):
    ineq = catalog.i3322_generalization(number)
    assert ineq.bound == bound
    assert max(ineq.values_on_vertices()) == bound


@pytest.mark.parametrize("number,bound", [(1, 8), (47, 6), (198, 6), (314, 12)])
def test_hybrid_fixtures_are_tight(number, bound):
    ineq = catalog.hybrid_generalization(number)
    assert ineq.bound == bound
    assert max(ineq.values_on_vertices()) == bound


def test_i4422_generalization_fixtures_are_tight():
    bounds = [ineq.bound for ineq in catalog.i4422_generalizations()]
    assert bounds == [15, 15, 19, 19, 23, 38, 38, 51, 51, 55, 55, 76, 76]
    for ineq in catalog.i4422_generalizations():
        assert max(ineq.values_on_vertices()) == ineq.bound


def test_algebraic_bounds():
    assert algebraic_bound(catalog.i3322_generalization(1)) == 28
    assert algebraic_bound(catalog.i3322_generalization(532)) == 86
    assert algebraic_bound(catalog.hybrid_generalization(198)) == 40
    assert algebraic_bound(catalog.hybrid_generalization(314)) == 64
    assert algebraic_bound(catalog.chsh()) == 4


def test_cone_normal_orientation():
    chsh = catalog.chsh()
    normal = chsh.cone_normal()
    verts = __import__("conebell.scenario", fromlist=["x"]).enumerate_vertices(chsh.scenario)
    vals = verts.astype(object) @ normal
    assert all(v <= 0 for v in vals)
    assert from_cone_normal(chsh.scenario, normal).coefficients == chsh.coefficients


def test_symmetric_expansion_round_trip():
    # (011) = <A1B1> + <B1C1> + <A1C1>
    sc = Scenario((3, 3, 3))
    ineq = expand_symmetric_terms(sc, 1, {(0, 1, 1): 1})
    expanded = dict(ineq.nonzero_terms())
    assert expanded == {(0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    collapsed = symmetric_terms(ineq)
    assert collapsed == {(1, 1, 0): 1}
    rebuilt = expand_symmetric_terms(sc, 1, collapsed)
    assert rebuilt.coefficients == ineq.coefficients


def test_symmetric_terms_none_for_asymmetric():
    sc = Scenario((2, 2))
    ineq = from_terms(sc, 1, {(1, 0): 1})
    assert symmetric_terms(ineq) is None
    assert render_symmetric(ineq) is None


def test_term_count_matches_symmetric_notation():
    assert term_count(catalog.i3322_generalization(1)) == 7
    assert term_count(catalog.i3322_generalization(400)) == 14
    # CHSH is swap-symmetric: (11) + (12) - (22)
    assert term_count(catalog.chsh()) == 3


def test_render_contains_bound():
    assert render(catalog.chsh()).endswith("<= 2")
    sym = render_symmetric(catalog.i3322_generalization(1))
    assert sym is not None and sym.endswith("<= 8")


def test_file_round_trip_fixtures():
    for _, factory, _ in FIXTURE_BOUNDS:
        ineq = factory()
        text = write_inequality(ineq)
        back = parse_inequality(text)
        assert back.scenario == ineq.scenario
        assert back.coefficients == ineq.coefficients
        assert write_inequality(back) == text


def test_parse_errors_carry_position():
    good = write_inequality(catalog.chsh())
    with pytest.raises(ParseError, match="line"):
        parse_inequality(good + "9,9: 1\n")
    with pytest.raises(ParseError):
        parse_inequality("bound: 2\n")
    with pytest.raises(ParseError):
        parse_inequality(good + "1,1: 5\n")
