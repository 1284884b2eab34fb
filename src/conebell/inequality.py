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

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .exactlinalg import as_int_vector, primitive_normalize, vector_gcd
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

    def coefficient(self, setting_tuple):
        return self.coefficients[self.scenario.index_of(setting_tuple)]

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
        return [(self.scenario.tuple_of(i), c)
                for i, c in enumerate(self.coefficients) if i > 0 and c != 0]


def from_cone_normal(scenario, normal):
    """Inequality from a <=0-oriented lifted normal; bound is made positive."""
    vec = primitive_normalize(as_int_vector(normal), keep_orientation=True)
    coeffs = [int(x) for x in vec]
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


def _equal_setting_orbit(scenario, t):
    """Orbit of a setting tuple under permutations of equal-setting parties."""
    groups = {}
    for i, m in enumerate(scenario.settings):
        groups.setdefault(m, []).append(i)
    orbit = set()
    perms_per_group = [itertools.permutations(idxs) for idxs in groups.values()]
    for combo in itertools.product(*perms_per_group):
        img = list(t)
        for idxs, perm in zip(groups.values(), combo):
            for src, dst in zip(idxs, perm):
                img[dst] = t[src]
        orbit.add(tuple(img))
    return orbit


def expand_symmetric_terms(scenario, bound, terms):
    """Expand multiset terms like (210) into one coefficient per distinct tuple.

    A term keyed by tuple t adds its coefficient on every distinct image of t
    under permutations of equal-setting parties.  Two terms may not touch the
    same orbit.
    """
    coeffs = {}
    for t, c in terms.items():
        for img in _equal_setting_orbit(scenario, t):
            if img in coeffs:
                raise ValueError(f"terms overlap on tuple {img}")
            coeffs[img] = c
    return from_terms(scenario, bound, coeffs)


def symmetric_terms(ineq):
    """Collapse to multiset notation; None if not symmetric under party swaps.

    Only permutations among equal-setting parties are considered.  The
    representative key is the tuple sorted in descending order.
    """
    sc = ineq.scenario
    seen = set()
    out = {}
    for t, c in ineq.nonzero_terms():
        if t in seen:
            continue
        orbit = _equal_setting_orbit(sc, t)
        vals = {ineq.coefficient(u) for u in orbit}
        if len(vals) != 1:
            return None
        rep = tuple(sorted(t, reverse=True))
        out[rep] = c
        seen.update(orbit)
    return out


def term_count(ineq):
    """Number of distinct terms, orbits of equal-setting party permutations."""
    sc = ineq.scenario
    seen = set()
    count = 0
    for t, _ in ineq.nonzero_terms():
        if t in seen:
            continue
        seen.update(_equal_setting_orbit(sc, t))
        count += 1
    return count


def _term_name(t):
    """Explicit correlator name, e.g. (1,0,2) -> A1C2; the constant is '1'."""
    parts = [f"{_PARTY_LETTERS[i]}{s}" for i, s in enumerate(t) if s != 0]
    return "".join(parts) if parts else "1"


def render(ineq):
    """One-line human rendering: '<A1B1> + <A1B2> ... <= 2'."""
    pieces = []
    for t, c in ineq.nonzero_terms():
        mag = abs(c)
        coef = "" if mag == 1 else f"{mag} "
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {coef}<{_term_name(t)}>")
    if not pieces:
        body = "0"
    else:
        body = " ".join(pieces)
        if body.startswith("+ "):
            body = body[2:]
    return f"{body} <= {ineq.bound}"


def render_symmetric(ineq):
    """Multiset-notation rendering like '(110) + 2 (210) <= 8', or None."""
    terms = symmetric_terms(ineq)
    if terms is None:
        return None
    pieces = []
    for t in sorted(terms):
        c = terms[t]
        mag = abs(c)
        coef = "" if mag == 1 else f"{mag} "
        sign = "-" if c < 0 else "+"
        label = "".join(str(s) for s in t)
        pieces.append(f"{sign} {coef}({label})")
    body = " ".join(pieces)
    if body.startswith("+ "):
        body = body[2:]
    return f"{body} <= {ineq.bound}"


# ---------------------------------------------------------------------------
# text format


def write_inequality(ineq, comments=True):
    """Serialize to the line format; deterministic and round-trip stable."""
    lines = []
    if comments:
        lines.append(f"# {render(ineq)}")
        sym = render_symmetric(ineq)
        if sym is not None:
            lines.append(f"# symmetric: {sym}")
    lines.append(ineq.scenario.header())
    lines.append(f"bound: {ineq.bound}")
    for t, c in ineq.nonzero_terms():
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
