"""Bell inequality coefficient vectors and their text format.

An inequality is stored as the integer vector c of length D+1 with the
classical bound at index 0 and the Bell-expression coefficients on the
remaining setting-tuple coordinates:

    sum_{t != 0} c[t] <t>  <=  c[0].

In cone orientation the same inequality is the normal (-c[0], c[1], ...),
which has nonpositive inner product with every lifted vertex.  Facet vectors
are kept primitive with a positive bound.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, ParseError
from .exactlinalg import as_int_vector, vector_gcd
from .scenario import _PARTY_LETTERS, Scenario, enumerate_vertices, parse_scenario_header


@dataclass(frozen=True)
class Inequality:
    scenario: Scenario
    coefficients: tuple[int, ...]

    def __post_init__(self):
        want = self.scenario.dimension + 1
        if len(self.coefficients) != want:
            raise ValueError(f"expected {want} coefficients, got {len(self.coefficients)}")
        object.__setattr__(self, "coefficients", tuple(int(x) for x in self.coefficients))

    @property
    def bound(self):
        return self.coefficients[0]

    def bell_vector(self):
        """Bell-expression coefficients with the constant slot zeroed."""
        v = np.array(self.coefficients, dtype=object)
        v[0] = 0
        return v

    def cone_normal(self):
        """Lifted normal in the <= 0 orientation: (-bound, c_1, ..., c_D)."""
        v = np.array(self.coefficients, dtype=object)
        v[0] = -v[0]
        return v

    def primitive(self):
        g = vector_gcd(self.coefficients)
        if g <= 1:
            return self
        return Inequality(self.scenario, tuple(int(x) // g for x in self.coefficients))

    def values_on_vertices(self):
        """Bell-expression value at every vertex, in vertex order."""
        verts = enumerate_vertices(self.scenario).astype(object)
        return verts @ self.bell_vector()

    def saturating_vertex_mask(self):
        return self.values_on_vertices() == self.bound

    def nonzero_terms(self):
        """(setting tuple, coefficient) of each nonzero term, bound excluded."""
        return _terms_at(self, [i for i, c in enumerate(self.coefficients) if i and c])


def _terms_at(ineq, idx):
    """(setting tuple, coefficient) at each coordinate of the list idx, with
    one np.unravel_index for all of them."""
    axes = np.unravel_index(np.array(idx, dtype=np.intp), ineq.scenario.shape)
    return [(t, ineq.coefficients[i]) for t, i in zip(zip(*(a.tolist() for a in axes)), idx)]


def from_cone_normal(scenario, normal):
    """Inequality from a <=0-oriented lifted normal; bound is made positive."""
    vec = as_int_vector(normal)
    g = vector_gcd(vec)
    if g == 0:
        raise DegenerateVectorError("cannot normalize the zero vector")
    coeffs = [int(x) // g for x in vec]
    coeffs[0] = -coeffs[0]
    if coeffs[0] < 0:
        raise ValueError("normal has negative bound after reorientation; not valid on the local polytope")
    return Inequality(scenario, tuple(coeffs))


def from_terms(scenario, bound, terms):
    """Build from {setting tuple: coefficient} plus the classical bound."""
    coeffs = [0] * (scenario.dimension + 1)
    coeffs[0] = int(bound)
    for t, c in terms.items():
        idx = scenario.index_of(t)
        if idx == 0:
            raise ValueError("the all-zero tuple is the bound, pass it separately")
        coeffs[idx] = int(c)
    return Inequality(scenario, tuple(coeffs))


# ---------------------------------------------------------------------------
# symmetric (multiset) notation


@functools.lru_cache(maxsize=None)
def _term_orbits(settings):
    """Read-only int64 array: coordinate -> its orbit's representative.

    Orbits are those of permutations of equal-setting parties; the
    representative's setting tuple is sorted in descending order within each
    group of equal-setting parties.
    """
    shape = tuple(m + 1 for m in settings)
    tuples = np.indices(shape).reshape(len(shape), -1)
    for m in set(settings):
        group = [p for p, mp in enumerate(settings) if mp == m]
        tuples[group] = -np.sort(-tuples[group], axis=0)
    rep = np.ravel_multi_index(tuples, shape)
    rep.flags.writeable = False
    return rep


def expand_symmetric_terms(scenario, bound, terms):
    """Expand multiset terms like (210) into one coefficient per distinct tuple.

    A term keyed by tuple t adds its coefficient on every distinct image of t
    under permutations of equal-setting parties.  Two terms may not touch the
    same orbit.
    """
    rep = _term_orbits(scenario.settings).tolist()
    by_orbit = {rep[scenario.index_of(t)]: c for t, c in terms.items()}
    if len(by_orbit) < len(terms):
        raise ValueError("two terms touch the same orbit")
    if 0 in by_orbit:
        raise ValueError("the all-zero tuple is the bound, pass it separately")
    return Inequality(scenario, (bound,) + tuple(by_orbit.get(r, 0) for r in rep[1:]))


def symmetric_terms(ineq):
    """Collapse to multiset notation; None if not symmetric under party swaps.

    Only permutations among equal-setting parties are considered.  The
    representative key is the tuple sorted in descending order within each
    group of equal-setting parties.
    """
    rep = _term_orbits(ineq.scenario.settings)
    c = np.array(ineq.coefficients, dtype=object)
    if not (c == c[rep]).all():
        return None
    return dict(_terms_at(ineq, sorted(set(rep[1:][c[1:] != 0].tolist()))))


def term_count(ineq):
    """Number of distinct terms, orbits of equal-setting party permutations."""
    c = np.array(ineq.coefficients, dtype=object)
    return len(set(_term_orbits(ineq.scenario.settings)[1:][c[1:] != 0].tolist()))


def _term_name(t):
    """Explicit correlator name, e.g. (1,0,2) -> A1C2; the constant is '1'."""
    parts = [f"{_PARTY_LETTERS[i]}{s}" for i, s in enumerate(t) if s != 0]
    return "".join(parts) if parts else "1"


def render(ineq):
    """One-line human rendering: '<A1B1> + <A1B2> ... <= 2'."""
    return _render_terms(ineq.nonzero_terms(), ineq.bound)


def _render_terms(terms, bound, label=lambda t: f"<{_term_name(t)}>"):
    """render for a list of (setting tuple, coefficient) terms, each tuple
    written as label(tuple)."""
    pieces = []
    for t, c in terms:
        mag = abs(c)
        coef = "" if mag == 1 else f"{mag} "
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {coef}{label(t)}")
    body = " ".join(pieces).removeprefix("+ ") or "0"
    return f"{body} <= {bound}"


def render_symmetric(ineq):
    """Multiset-notation rendering like '(110) + 2 (210) <= 8', or None."""
    terms = symmetric_terms(ineq)
    if terms is None:
        return None
    return _render_terms(sorted(terms.items()), ineq.bound,
                         label=lambda t: "(" + "".join(map(str, t)) + ")")


# ---------------------------------------------------------------------------
# text format


def write_inequality(ineq, comments=True):
    """Serialize to the line format; deterministic and round-trip stable."""
    lines = []
    terms = ineq.nonzero_terms()
    if comments:
        lines.append(f"# {_render_terms(terms, ineq.bound)}")
        sym = render_symmetric(ineq)
        if sym is not None:
            lines.append(f"# symmetric: {sym}")
    lines.append(ineq.scenario.header())
    lines.append(f"bound: {ineq.bound}")
    for t, c in terms:
        lines.append(",".join(str(s) for s in t) + f": {c}")
    return "\n".join(lines) + "\n"


def parse_inequality(text, start_line=1):
    """Parse the output of write_inequality; raises ParseError with position."""
    scenario = None
    bound = None
    terms = {}
    for off, raw in enumerate(text.splitlines()):
        lineno = start_line + off
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("scenario:"):
            if scenario is not None:
                raise ParseError("duplicate scenario header", line=lineno)
            scenario = parse_scenario_header(line, lineno=lineno)
        elif line.startswith("bound:"):
            if scenario is None:
                raise ParseError("bound before scenario header", line=lineno)
            try:
                bound = int(line[len("bound:"):].strip())
            except ValueError:
                raise ParseError(f"malformed bound line {line!r}", line=lineno) from None
        else:
            if scenario is None or bound is None:
                raise ParseError(f"coefficient line before header: {line!r}", line=lineno)
            try:
                key, val = line.split(":")
                t = tuple(int(x) for x in key.strip().split(","))
                c = int(val.strip())
            except ValueError:
                raise ParseError(f"malformed coefficient line {line!r}", line=lineno) from None
            try:
                idx = scenario.index_of(t)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if idx == 0:
                raise ParseError("the all-zero tuple belongs in the bound line", line=lineno)
            if t in terms:
                raise ParseError(f"duplicate coefficient for {t}", line=lineno)
            terms[t] = c
    if scenario is None or bound is None:
        raise ParseError("missing scenario header or bound line", line=start_line)
    return from_terms(scenario, bound, terms)


def algebraic_bound(ineq):
    """Sum of |coefficient| over the non-constant terms."""
    return int(sum(abs(c) for _, c in ineq.nonzero_terms()))
