import numpy as np
import pytest

from conebell import catalog
from conebell.errors import DegenerateVectorError, ParseError
from conebell.inequality import (Inequality, algebraic_bound, expand_symmetric_terms,
                                 from_cone_normal, from_terms, parse_inequality, read_field,
                                 read_fields, render, render_symmetric, symmetric_terms,
                                 term_count, write_inequality)
from conebell.scenario import Scenario, enumerate_vertices

from .reference import equal_setting_orbit, reference_symmetric_terms


def _vertex_values(ineq):
    """Bell-expression value at every vertex: one exact product of the
    vertex matrix without its constant column."""
    return enumerate_vertices(ineq.scenario)[:, 1:] @ np.array(ineq.coefficients[1:], dtype=object)


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
    assert max(_vertex_values(ineq)) == bound


@pytest.mark.parametrize("number,bound", [(1, 8), (400, 18), (1507, 21), (532, 12)])
def test_i3322_generalizations_are_tight(number, bound):
    ineq = catalog.i3322_generalization(number)
    assert ineq.bound == bound
    assert max(_vertex_values(ineq)) == bound


@pytest.mark.parametrize("number,bound", [(1, 8), (47, 6), (198, 6), (314, 12)])
def test_hybrid_fixtures_are_tight(number, bound):
    ineq = catalog.hybrid_generalization(number)
    assert ineq.bound == bound
    assert max(_vertex_values(ineq)) == bound


def test_i4422_generalization_fixtures_are_tight():
    bounds = [ineq.bound for ineq in catalog.i4422_generalizations()]
    assert bounds == [15, 15, 19, 19, 23, 38, 38, 51, 51, 55, 55, 76, 76]
    for ineq in catalog.i4422_generalizations():
        assert max(_vertex_values(ineq)) == ineq.bound


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
    # integral floats are integers; 1.5 is not
    assert from_cone_normal(chsh.scenario, [float(x) for x in 2 * chsh.cone_normal()]) == chsh
    with pytest.raises(ValueError, match="integers"):
        from_cone_normal(chsh.scenario, [-3, 1.5] + [0] * 7)
    with pytest.raises(DegenerateVectorError):
        from_cone_normal(chsh.scenario, [0] * 9)
    # a normal that is positive on the zero vertex has a negative bound
    with pytest.raises(ValueError, match="negative bound"):
        from_cone_normal(chsh.scenario, -3 * chsh.cone_normal())


def test_non_integral_coefficients_are_rejected():
    with pytest.raises(ValueError, match="integers"):
        Inequality(Scenario((1,)), (1.9, 0.5))
    with pytest.raises(ValueError, match="integers"):
        from_terms(Scenario((2, 2)), 2.5, {(1, 1): 1})
    with pytest.raises(ValueError, match="integers"):
        from_terms(Scenario((2, 2)), 2, {(1, 1): 1.5})
    # integral values of any integer type are kept, as Python ints
    for one in (1, np.int64(1), np.int8(1), 1.0):
        ineq = from_terms(Scenario((2, 2)), 2 * one, {(1, 1): one})
        assert ineq == from_terms(Scenario((2, 2)), 2, {(1, 1): 1})
        assert all(type(c) is int for c in ineq.coefficients)
    big = Inequality(Scenario((1,)), (2 ** 70, np.int64(-3)))
    assert big.coefficients == (2 ** 70, -3)


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


def test_read_fields_numbers_the_file_lines():
    text = ("# result\n" + write_inequality(catalog.chsh(), comments=False)
            + "dim: 2\nm_N: 1 (level 3)\n")
    ineq, fields = read_fields(text, start_line=10)
    assert ineq == catalog.chsh()
    assert fields == {"dim": ("2", 17), "m_N": ("1 (level 3)", 18)}
    assert read_fields("# nothing\nnpa2: 3.5\n") == (None, {"npa2": ("3.5", 2)})
    assert read_field(fields["dim"], int) == 2
    with pytest.raises(ParseError, match="line 18"):
        read_field(fields["m_N"])
    with pytest.raises(ParseError, match="line 3"):
        read_fields("npa2: 3.5\n\nnpa2: 3.6\n")
    with pytest.raises(ParseError, match="line 2"):
        read_fields("npa2: 3.5\nnpa3 3.6\n")


HEADER = "scenario: n=2 settings=2,2\n"


@pytest.mark.parametrize("text, start, match, line", [
    ("# CHSH\n1,1: 1\n" + HEADER + "bound: 2\n", 1, "coefficient line before header", 2),
    (HEADER + "bound: 2\n0,0: 3\n", 1, "all-zero tuple", 3),
    ("# no bound\n" + HEADER + "dim: 2\n", 1, "without a bound line", 2),
    ("# nothing\n\n", 5, "missing scenario header", 5),
    ("\nscenario: n=2 settings=2,x\nbound: 2\n", 1, "malformed scenario header", 2),
])
def test_inequality_text_errors_name_their_line(text, start, match, line):
    with pytest.raises(ParseError, match=match) as exc:
        parse_inequality(text, start_line=start)
    assert exc.value.line == line


def test_parse_errors_carry_position():
    good = write_inequality(catalog.chsh())
    # a second bound is a key given twice, and no other field is allowed
    with pytest.raises(ParseError, match="given twice"):
        parse_inequality(good + "bound: 3\n")
    with pytest.raises(ParseError, match="line 9"):
        parse_inequality(good + "dim: 2\n")
    with pytest.raises(ParseError, match="line"):
        parse_inequality(good + "9,9: 1\n")
    with pytest.raises(ParseError):
        parse_inequality("bound: 2\n")
    with pytest.raises(ParseError):
        parse_inequality(good + "1,1: 5\n")
