"""Bell inequality coefficient vectors and their text format.

An inequality is stored as the integer vector c of length D+1 with the
classical bound at index 0 and the Bell-expression coefficients on the
remaining setting-tuple coordinates:

    sum_{t != 0} c[t] <t>  <=  c[0].

In cone orientation the same inequality is the normal (-c[0], c[1], ...),
which has nonpositive inner product with every lifted vertex.  Facet vectors
are kept primitive with a positive bound.

This module is the one way into an Inequality: from_cone_normal from a cone
normal, and read_fields from the text of any file that holds one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constraints import _maps
from .errors import DegenerateVectorError, ParseError
from .scenario import _PARTY_LETTERS, Scenario, parse_scenario_header


@dataclass(frozen=True)
class Inequality:
    scenario: Scenario
    coefficients: tuple[int, ...]

    def __post_init__(self):
        want = self.scenario.dimension + 1
        if len(self.coefficients) != want:
            raise ValueError(f"expected {want} coefficients, got {len(self.coefficients)}")
        coeffs = tuple(int(x) for x in self.coefficients)
        if any(c != x for c, x in zip(coeffs, self.coefficients)):
            raise ValueError("coefficients must be integers")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def bound(self):
        return self.coefficients[0]

    def cone_normal(self):
        """Lifted normal in the <= 0 orientation: (-bound, c_1, ..., c_D)."""
        v = np.array(self.coefficients, dtype=object)
        v[0] = -v[0]
        return v

    def primitive(self):
        g = math.gcd(*self.coefficients)
        if g <= 1:
            return self
        return Inequality(self.scenario, tuple(int(x) // g for x in self.coefficients))

    def nonzero_terms(self):
        """(setting tuple, coefficient) of each nonzero term, bound excluded."""
        return _terms_at(self, [i for i, c in enumerate(self.coefficients) if i and c])


def _terms_at(ineq, idx):
    """(setting tuple, coefficient) at each coordinate of the list idx, with
    one np.unravel_index for all of them."""
    axes = np.unravel_index(np.array(idx, dtype=np.intp), ineq.scenario.shape)
    return [(t, ineq.coefficients[i]) for t, i in zip(zip(*(a.tolist() for a in axes)), idx)]


def from_cone_normal(scenario, normal):
    """Primitive inequality from a <=0-oriented lifted normal of integers;
    the bound -normal[0] must not be negative."""
    ineq = Inequality(scenario, (-normal[0], *normal[1:])).primitive()
    if not any(ineq.coefficients):
        raise DegenerateVectorError("cannot normalize the zero vector")
    if ineq.bound < 0:
        raise ValueError("normal has negative bound after reorientation; not valid on the local polytope")
    return ineq


def from_terms(scenario, bound, terms):
    """Build from {setting tuple: coefficient} plus the classical bound."""
    coeffs = [0] * (scenario.dimension + 1)
    coeffs[0] = bound
    for t, c in terms.items():
        idx = scenario.index_of(t)
        if idx == 0:
            raise ValueError("the all-zero tuple is the bound, pass it separately")
        coeffs[idx] = c
    return Inequality(scenario, tuple(coeffs))


# ---------------------------------------------------------------------------
# symmetric (multiset) notation


@functools.lru_cache(maxsize=None)
def _term_orbits(settings):
    """Read-only int64 array: coordinate -> its orbit's representative.

    Orbits are those of permutations of equal-setting parties; the
    representative is the orbit's largest coordinate, found one transposition
    of two such parties (constraints._maps) at a time, so its setting tuple is
    sorted in descending order within each group of equal-setting parties.
    """
    n = len(settings)
    swaps = [tuple(j if k == i else i if k == j else k for k in range(n))
             for j in range(n) for i in range(j) if settings[i] == settings[j]]
    image = np.array([_maps(Scenario(settings), np.zeros((1, n), dtype=np.int64), perm)[0][0]
                      for perm in [None] + swaps])
    rep = image[0]
    while (rep[image] > rep).any():
        rep = rep[image].max(axis=0)
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


def read_fields(text, start_line=1):
    """(inequality, fields) of a text in the line format of write_inequality.

    The scenario: and bound: lines and the coefficient lines, those that
    begin with a digit, form the inequality, None if the text has none of
    them.  Every other line that is not blank or a # comment must read
    key: value, and fields maps each key to (value, line).  Lines are
    numbered from start_line; a malformed inequality line or a key given
    twice, scenario and bound included, raises ParseError with its line.
    """
    scenario = bound = None
    terms, fields = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=start_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, colon, value = (x.strip() for x in line.partition(":"))
        if not colon:
            raise ParseError(f"expected a key: value line, got {line!r}", line=lineno)
        if line[0].isdigit():
            if bound is None:
                raise ParseError(f"coefficient line before header: {line!r}", line=lineno)
            try:
                t = tuple(int(x) for x in key.split(","))
                c, idx = int(value), scenario.index_of(t)
            except ValueError as exc:
                raise ParseError(f"malformed coefficient line {line!r}: {exc}", line=lineno) from None
            if idx == 0:
                raise ParseError("the all-zero tuple belongs in the bound line", line=lineno)
            if t in terms:
                raise ParseError(f"duplicate coefficient for {t}", line=lineno)
            terms[t] = c
            continue
        if key in fields:
            raise ParseError(f"{key}: given twice, first on line {fields[key][1]}", line=lineno)
        if key == "scenario":
            scenario = parse_scenario_header(line, lineno=lineno)
        elif key == "bound":
            if scenario is None:
                raise ParseError("bound before scenario header", line=lineno)
            bound = read_field((value, lineno), int)
        fields[key] = (value, lineno)
    if scenario is None:
        return None, fields
    if bound is None:
        raise ParseError("scenario header without a bound line", line=fields["scenario"][1])
    del fields["scenario"], fields["bound"]
    return from_terms(scenario, bound, terms), fields


def parse_inequality(text, start_line=1):
    """The inequality of a text in the line format; ParseError with the line
    if it has none or holds any other field."""
    ineq, fields = read_fields(text, start_line)
    for key, (value, lineno) in fields.items():
        raise ParseError(f"not an inequality line: {key}: {value}", line=lineno)
    if ineq is None:
        raise ParseError("missing scenario header or bound line", line=start_line)
    return ineq


def read_field(field, read=float):
    """read(value) of a (value, line) field; ParseError names the line."""
    try:
        return read(field[0])
    except ValueError:
        raise ParseError(f"malformed value {field[0]!r}", line=field[1]) from None


def algebraic_bound(ineq):
    """Sum of |coefficient| over the non-constant terms."""
    return int(sum(abs(c) for _, c in ineq.nonzero_terms()))
