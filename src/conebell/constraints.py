"""Linear maps behind the constraint rows of targeted facet searches.

A search demands tightness on extended behaviors and invariance under
relabeling symmetries.  Both kinds of row are int64 matrices over the
lifted coordinate space, one constraint per row, so a normal b satisfies a
constraint iff row . b = 0; search._branch stacks them into one matrix.

Both come from linear maps that act on each party's axis of the coordinate
array alone, so each map is np.kron of one small block per party followed
by a permutation of the party axes (_coordinate_map).  A relabeling's
matrix P has per party the signed permutation of settings 1..m that fixes
setting 0, and symmetry_rows gives the nonzero rows of I - P^T.  The
embedding map M of a lower inequality (_embedding_map) has the identity on
each embedded party and the column (1, xi_1, ..., xi_m) on each extra
party; search._reduction_options checks the embedding first.  For each
lower variant and xi it maps the saturating vertices V to the extended
behaviors V M^T and the lower normal n to the row M n.  A target normal b
reduces to b M; when b is tight on the extended behaviors, b M is a
multiple of n, so the sign of b . (M n) checks the reduction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .scenario import _PARTY_LETTERS


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


def _coordinate_map(blocks, order):
    """int64 matrix that applies blocks[p] to party axis p of the image.

    blocks[p] has one row per setting 0..m_p of image party p.  The columns
    of np.kron(*blocks) form an array with one axis per block, and column
    axis k of the result is its axis order[k], a permutation of the parties;
    an axis of length 1 (a one-column block) drops out.
    """
    mat = np.ones((1, 1), dtype=np.int64)
    for block in blocks:
        mat = np.kron(mat, block)
    cols = mat.reshape((len(mat),) + tuple(block.shape[1] for block in blocks))
    return cols.transpose((0,) + tuple(1 + p for p in order)).reshape(len(mat), -1)


def _relabeling_map(r, scenario):
    """Signed permutation matrix P with (P c)[image] = sign * c[source]."""
    r.validate(scenario)
    blocks = [None] * scenario.parties
    for i, m in enumerate(scenario.settings):
        block = np.zeros((m + 1, m + 1), dtype=np.int64)
        block[0, 0] = 1
        block[r.setting_maps[i], np.arange(1, m + 1)] = r.sign_flips[i]
        blocks[r.party_map[i]] = block
    return _coordinate_map(blocks, r.party_map)


@dataclass(frozen=True)
class XiAssignment:
    """Deterministic outcomes for extra parties: one +-1 tuple per party."""

    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for v in self.values:
            if any(x not in (-1, 1) for x in v):
                raise ValueError("xi entries must be +-1")

    def label(self):
        """One +- string per party, joined by ;, or () when there is none."""
        return ";".join("".join("+" if x > 0 else "-" for x in v) for v in self.values) or "()"


def _embedding_map(xi, target, embed):
    """int64 matrix M from lower to target coordinates that embeds the lower
    scenario on the target parties embed and fixes xi on the others.

    Row t, column s is the product of xi over the extra parties' settings in
    t when t restricted to embed is s, else 0.  M maps a lower vertex to its
    extended behavior; a target normal b reduces to b @ M.
    """
    extras = tuple(i for i in range(target.parties) if i not in embed)
    blocks = [np.eye(m + 1, dtype=np.int64) for m in target.settings]
    for v, party in zip(xi.values, extras):
        blocks[party] = np.array((1,) + v, dtype=np.int64)[:, None]
    return _coordinate_map(blocks, tuple(embed) + extras)


def symmetry_rows(generators, scenario):
    """Rows of I - P^T per generator, zero rows dropped, as a (k, D+1) int64
    matrix; its kernel, that of I - P, is the invariant subspace."""
    d1 = scenario.dimension + 1
    blocks = [np.zeros((0, d1), dtype=np.int64)]
    for gen in generators:
        rows = np.eye(d1, dtype=np.int64) - _relabeling_map(gen, scenario).T
        blocks.append(rows[rows.any(axis=1)])
    return np.vstack(blocks)


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

