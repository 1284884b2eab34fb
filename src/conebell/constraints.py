"""Affine constraint systems for targeted facet searches.

Two row sources: saturation by extended behaviors and invariance under
relabeling symmetries.  Rows live in the lifted coordinate space, so a
normal b satisfies a constraint iff row . b = 0.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .exactlinalg import as_int_matrix
from .scenario import _PARTY_LETTERS, Vertex, assignment_coords, enumerate_vertices


@dataclass(frozen=True)
class Relabeling:
    """A local relabeling: party permutation, setting permutations, sign flips.

    party_map[i] is the party that party i becomes; setting_maps[i][s-1] is
    the new setting index for setting s of party i (settings are 1-based, the
    identity setting 0 is always fixed); sign_flips[i][s-1] is the outcome
    sign attached to setting s of party i.
    """

    party_map: tuple[int, ...]
    setting_maps: tuple[tuple[int, ...], ...]
    sign_flips: tuple[tuple[int, ...], ...]

    def validate(self, scenario):
        n = scenario.parties
        if sorted(self.party_map) != list(range(n)):
            raise ValueError(f"party_map {self.party_map} is not a permutation of 0..{n - 1}")
        if len(self.setting_maps) != n or len(self.sign_flips) != n:
            raise ValueError("setting_maps and sign_flips need one entry per party")
        for i in range(n):
            m = scenario.settings[i]
            if scenario.settings[self.party_map[i]] != m:
                raise ValueError(
                    f"party {i} ({m} settings) cannot map to party {self.party_map[i]} "
                    f"({scenario.settings[self.party_map[i]]} settings)")
            if sorted(self.setting_maps[i]) != list(range(1, m + 1)):
                raise ValueError(f"setting map for party {i} is not a permutation of 1..{m}")
            if len(self.sign_flips[i]) != m or any(s not in (-1, 1) for s in self.sign_flips[i]):
                raise ValueError(f"sign flips for party {i} must be +-1 per setting")

    def apply_to_tuple(self, t):
        """Image setting tuple and sign of one coordinate."""
        u = [0] * len(t)
        sign = 1
        for i, s in enumerate(t):
            if s == 0:
                continue
            u[self.party_map[i]] = self.setting_maps[i][s - 1]
            sign *= self.sign_flips[i][s - 1]
        return tuple(u), sign


def permutation_data(r, scenario):
    """Arrays (image_index, sign) describing the signed coordinate permutation."""
    r.validate(scenario)
    d1 = scenario.dimension + 1
    image = np.zeros(d1, dtype=np.int64)
    sign = np.zeros(d1, dtype=np.int64)
    for idx, t in enumerate(scenario.index_tuples()):
        u, s = r.apply_to_tuple(t)
        image[idx] = scenario.index_of(u)
        sign[idx] = s
    return image, sign


def relabeling_matrix(r, scenario):
    """Signed permutation matrix P with (P c)[image] = sign * c[source]."""
    image, sign = permutation_data(r, scenario)
    d1 = scenario.dimension + 1
    p = np.zeros((d1, d1), dtype=object)
    for src in range(d1):
        p[image[src], src] = int(sign[src])
    return p


def apply_relabeling(r, scenario, coefficients):
    """Transform a coefficient (or vertex coordinate) vector."""
    image, sign = permutation_data(r, scenario)
    src = np.array(list(coefficients), dtype=object)
    out = np.zeros(len(src), dtype=object)
    out[image] = sign.astype(object) * src
    return tuple(int(x) for x in out)


@dataclass(frozen=True)
class XiAssignment:
    """Deterministic outcomes for extra parties: one +-1 tuple per party."""

    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.values:
            if any(x not in (-1, 1) for x in v):
                raise ValueError("xi entries must be +-1")

    def label(self):
        return ";".join("".join("+" if x > 0 else "-" for x in v) for v in self.values)


def parse_xi_label(text):
    values = []
    for part in text.split(";"):
        if not part or any(ch not in "+-" for ch in part):
            raise ParseError(f"malformed xi label {text!r}")
        values.append(tuple(1 if ch == "+" else -1 for ch in part))
    return XiAssignment(tuple(values))


@dataclass(frozen=True)
class ConstraintSystem:
    """Integer constraint rows over the lifted space."""

    rows: tuple[tuple[int, ...], ...]
    columns: int

    def matrix(self):
        return as_int_matrix(list(self.rows), columns=self.columns)

    def __add__(self, other):
        if self.columns != other.columns:
            raise ValueError("cannot combine constraint systems of different dimension")
        return ConstraintSystem(self.rows + other.rows, self.columns)


def saturating_assignments(lower):
    """Assignments of the deterministic vertices that saturate the bound."""
    mask = lower.saturating_vertex_mask()
    verts = enumerate_vertices(lower.scenario)
    return [verts[i].assignment for i in np.nonzero(mask)[0]]


def build_extended_behaviors(lower, xi, target, embed=None):
    """Extended behaviors: lower-scenario saturating vertices plus fixed outcomes.

    The lower inequality occupies the target parties listed in ``embed``
    (defaults to the leading parties); xi supplies one outcome tuple for each
    remaining party, in party order.  One vertex is produced per saturating
    vertex of the lower inequality.
    """
    n = target.parties
    if embed is None:
        embed = tuple(range(lower.scenario.parties))
    extras = tuple(i for i in range(n) if i not in embed)
    if tuple(target.settings[i] for i in embed) != lower.scenario.settings:
        raise ValueError("embedded parties do not match the lower scenario's settings")
    if len(xi.values) != len(extras):
        raise ValueError(f"xi supplies {len(xi.values)} parties, need {len(extras)}")
    for v, party in zip(xi.values, extras):
        if len(v) != target.settings[party]:
            raise ValueError(f"xi for party {party} has {len(v)} settings, need {target.settings[party]}")
    saturators = saturating_assignments(lower)
    if not saturators:
        raise ValueError("the inequality has no saturating vertices, so it cannot define a facet")
    out = []
    for gamma in saturators:
        assignment = [None] * n
        for pos, party in enumerate(embed):
            assignment[party] = tuple(gamma[pos])
        for pos, party in enumerate(extras):
            assignment[party] = tuple(xi.values[pos])
        assignment = tuple(assignment)
        coords = assignment_coords(target, assignment)
        out.append(Vertex(assignment=assignment, coords=tuple(int(x) for x in coords)))
    return out


def saturation_rows(extended):
    """One row per extended behavior; row . b = 0 forces tightness on it."""
    if not extended:
        return ConstraintSystem((), 0)
    return ConstraintSystem(tuple(v.coords for v in extended), len(extended[0].coords))


def symmetry_rows(generators, scenario):
    """Rows of (I - P) per generator; the kernel is the invariant subspace."""
    d1 = scenario.dimension + 1
    rows = []
    for gen in generators:
        image, sign = permutation_data(gen, scenario)
        for src in range(d1):
            row = [0] * d1
            row[src] += 1
            row[image[src]] -= int(sign[src])
            if any(row):
                rows.append(tuple(row))
    return ConstraintSystem(tuple(rows), d1)


# ---------------------------------------------------------------------------
# relabeling text syntax: perm:ABC->BAC; A:(1 2); A1:-; C4:-


def parse_relabeling(text, scenario):
    """Parse the clause syntax; raises ParseError with the failing offset."""
    n = scenario.parties
    party_map = list(range(n))
    setting_maps = [list(range(1, m + 1)) for m in scenario.settings]
    sign_flips = [[1] * m for m in scenario.settings]
    offset = 0
    for raw in text.split(";"):
        clause = raw.strip()
        col = offset + (len(raw) - len(raw.lstrip())) + 1
        offset += len(raw) + 1
        if not clause:
            continue
        if clause.startswith("perm:"):
            body = clause[len("perm:"):]
            if "->" not in body:
                raise ParseError("perm clause needs 'SRC->DST'", column=col)
            src, dst = body.split("->", 1)
            if len(src) != n or len(dst) != n:
                raise ParseError(f"perm clause must name all {n} parties", column=col)
            try:
                src_idx = [_PARTY_LETTERS.index(ch) for ch in src]
                dst_idx = [_PARTY_LETTERS.index(ch) for ch in dst]
            except ValueError:
                raise ParseError(f"unknown party letter in {body!r}", column=col) from None
            if sorted(src_idx) != list(range(n)) or sorted(dst_idx) != list(range(n)):
                raise ParseError(f"perm clause {body!r} is not a permutation", column=col)
            for s, d in zip(src_idx, dst_idx):
                party_map[s] = d
        elif re.fullmatch(r"[A-Z]\d+:[+-]", clause):
            party = _PARTY_LETTERS.index(clause[0])
            setting = int(clause[1:clause.index(":")])
            if party >= n or not (1 <= setting <= scenario.settings[party]):
                raise ParseError(f"no setting {clause[:clause.index(':')]} in this scenario", column=col)
            if clause.endswith("-"):
                sign_flips[party][setting - 1] *= -1
        elif re.fullmatch(r"[A-Z]:(\(\s*\d+(\s+\d+)*\s*\))+", clause):
            party = _PARTY_LETTERS.index(clause[0])
            if party >= n:
                raise ParseError(f"no party {clause[0]} in this scenario", column=col)
            m = scenario.settings[party]
            for cyc in re.findall(r"\(([^)]*)\)", clause):
                members = [int(x) for x in cyc.split()]
                if len(set(members)) != len(members) or any(not (1 <= s <= m) for s in members):
                    raise ParseError(f"bad cycle ({cyc}) for party {clause[0]}", column=col)
                for a, b in zip(members, members[1:] + members[:1]):
                    setting_maps[party][a - 1] = b
        else:
            raise ParseError(f"unrecognized clause {clause!r}", column=col)
    rel = Relabeling(tuple(party_map), tuple(tuple(sm) for sm in setting_maps),
                     tuple(tuple(sf) for sf in sign_flips))
    rel.validate(scenario)
    return rel


def party_swap(scenario, i, j):
    """Relabeling exchanging parties i and j (equal setting counts)."""
    party_map = list(range(scenario.parties))
    party_map[i], party_map[j] = j, i
    rel = Relabeling(tuple(party_map),
                     tuple(tuple(range(1, m + 1)) for m in scenario.settings),
                     tuple((1,) * m for m in scenario.settings))
    rel.validate(scenario)
    return rel
