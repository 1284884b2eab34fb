import numpy as np
import pytest

from conebell import catalog
from conebell.errors import DegenerateVectorError, ParseError
from conebell.inequality import (Inequality, algebraic_bound, expand_symmetric_terms,
                                 from_cone_normal, from_terms, parse_inequality, render,
                                 render_symmetric, symmetric_terms, term_count,
                                 write_inequality)
from conebell.scenario import Scenario

from .reference import equal_setting_orbit, reference_symmetric_terms


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


def test_from_cone_normal_normalizes():
    chsh = catalog.chsh()
    # a scaled normal keeps its orientation and loses the common factor
    assert from_cone_normal(chsh.scenario, 6 * chsh.cone_normal()).coefficients \
        == chsh.coefficients
    with pytest.raises(DegenerateVectorError):
        from_cone_normal(chsh.scenario, [0] * 9)
    # a normal that is positive on the zero vertex has a negative bound
    with pytest.raises(ValueError, match="negative bound"):
        from_cone_normal(chsh.scenario, -3 * chsh.cone_normal())


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


def _random_vectors(sc, rng, count):
    """Random vectors on sc, every other one constant on each term orbit."""
    for k in range(count):
        vec = [int(x) for x in rng.integers(-2, 3, size=sc.dimension + 1)]
        if k % 2:
            first = {}
            vec = [first.setdefault(min(equal_setting_orbit(sc, np.unravel_index(i, sc.shape))), x)
                   for i, x in enumerate(vec)]
        yield Inequality(sc, tuple(vec))


@pytest.mark.parametrize("settings", [(2, 2, 2), (3, 3, 2), (2, 3)])
def test_term_orbits_match_orbit_sets(settings):
    rng = np.random.default_rng(sum(settings))
    for ineq in _random_vectors(Scenario(settings), rng, 40):
        count, terms = reference_symmetric_terms(ineq)
        assert term_count(ineq) == count
        assert symmetric_terms(ineq) == terms


@pytest.mark.parametrize("ineq", [catalog.hybrid_generalization(k) for k in (1, 47, 198, 314)]
                         + [from_terms(Scenario((3, 2)), 2,
                                       {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1})])
def test_symmetric_terms_round_trip_mixed_settings(ineq):
    terms = symmetric_terms(ineq)
    assert terms is not None
    assert expand_symmetric_terms(ineq.scenario, ineq.bound, terms) == ineq


def test_symmetric_keys_sort_within_equal_setting_parties():
    # A1B3C2 on (3,3,2): only A and B may trade settings, so C keeps its 2
    ineq = expand_symmetric_terms(Scenario((3, 3, 2)), 1, {(1, 3, 2): 1})
    assert dict(ineq.nonzero_terms()) == {(1, 3, 2): 1, (3, 1, 2): 1}
    assert symmetric_terms(ineq) == {(3, 1, 2): 1}
    assert render_symmetric(ineq) == "(312) <= 1"
    with pytest.raises(ValueError, match="orbit"):
        expand_symmetric_terms(ineq.scenario, 1, {(1, 3, 2): 1, (3, 1, 2): 2})
    with pytest.raises(ValueError, match="bound"):
        expand_symmetric_terms(ineq.scenario, 1, {(0, 0, 0): 1})


def test_render_contains_bound():
    assert render(catalog.chsh()).endswith("<= 2")
    sym = render_symmetric(catalog.i3322_generalization(1))
    assert sym is not None and sym.endswith("<= 8")


def test_renderings_share_term_formatting():
    # signs, magnitudes and the dropped leading "+" are written alike
    ineq = expand_symmetric_terms(Scenario((2, 2)), 3, {(1, 1): -2, (2, 1): 1})
    assert render(ineq) == "- 2 <A1B1> + <A1B2> + <A2B1> <= 3"
    assert render_symmetric(ineq) == "- 2 (11) + (21) <= 3"
    constant = Inequality(Scenario((2, 2)), (1,) + (0,) * 8)
    assert render(constant) == render_symmetric(constant) == "0 <= 1"


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
