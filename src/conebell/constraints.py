"""Coordinate maps behind the constraints of targeted facet searches.

A search demands tightness on extended behaviors and invariance under
relabeling symmetries.  Both come from coordinate maps that send each
coordinate to one signed coordinate, so each is a signed gather (src, sign)
with (P c)[t] = sign[t] * c[src[t]], built from one index array per party.
A relabeling's map (_signed_permutation) permutes the parties and, per
party, the settings 1..m with outcome signs, setting 0 fixed; the vectors
that relabelings fix are spanned by signed orbit sums (invariant_basis),
read off the maps with no elimination.  The embedding map M of a lower
inequality (_embedding_map) reads the lower coordinate of t restricted to
the embedded parties, with sign the product of xi over the extra parties'
settings in t.  search._reduction_options checks the embedding first.  For
each lower variant and xi it maps the saturating vertices V to the
extended behaviors V M^T and the lower normal n to the row M n.  A target
normal b reduces to b M; when b is tight on the extended behaviors, b M is
a multiple of n, so the sign of b . (M n) checks the reduction.
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


def _signed_permutation(r, scenario):
    """(src, sign) of relabeling r: its signed permutation P maps a
    coefficient vector c to (P c)[t] = sign[t] * c[src[t]].  Image party
    party_map[i] reads source party i: its setting setting_maps[i][s-1]
    reads setting s with sign sign_flips[i][s-1], and setting 0 reads 0."""
    r.validate(scenario)
    image = np.indices(scenario.shape).reshape(scenario.parties, -1)
    source = np.empty_like(image)
    sign = np.ones(image.shape[1], dtype=np.int64)
    for i in range(scenario.parties):
        source[i] = np.argsort((0, *r.setting_maps[i]))[image[r.party_map[i]]]
        sign *= np.array((1, *r.sign_flips[i]))[source[i]]
    return np.ravel_multi_index(source, scenario.shape), sign


def _embedding_map(xis, target, embed):
    """(sel, sgn) of the embedding maps M of the lower scenario on the
    target parties embed, one per xi of xis, a +-1 tuple per extra party:
    row t of the k-th M is sgn[k, t] times the unit row of lower coordinate
    sel[t], the index of t restricted to embed, and sgn[k, t] is the
    product of xis[k] over the extra parties' settings in t."""
    image = np.indices(target.shape).reshape(target.parties, -1)
    sel = np.ravel_multi_index(image[list(embed)], [target.shape[p] for p in embed])
    extras = [p for p in range(target.parties) if p not in embed]
    sgn = np.ones((len(xis), image.shape[1]), dtype=np.int64)
    for j, p in enumerate(extras):
        sgn *= np.array([(1, *xi[j]) for xi in xis], dtype=np.int64)[:, image[p]]
    return sel, sgn


def invariant_basis(generators, scenario):
    """The (D+1, K) int64 basis of the vectors c that every generator fixes,
    c[t] = sign[t] c[src[t]] (_signed_permutation): per coordinate orbit
    with largest coordinate x, in order of x, a column of the signs of
    c[t] / c[x], unless the orbit ties some c[t] to -c[t].  This is
    integer_kernel_basis of the conditions, column order included, and that
    order sets the insertion order of every projected DD."""
    size = scenario.dimension + 1
    maps = [_signed_permutation(gen, scenario) for gen in generators]
    src, sign = np.array(maps, dtype=np.int64).reshape(-1, 2, size).transpose(1, 0, 2)
    # node t + size stands for -c[t], and node t reads node image[g, t]
    image = np.hstack([src + size * (sign < 0), src + size * (sign > 0)])
    # the largest of 2x + 1 for c[x] and 2x for -c[x] over each node's
    # orbit, breadth first: each pass takes every node one step further
    label = np.concatenate([2 * np.arange(size) + 1, 2 * np.arange(size)])
    while (label[image] > label).any():
        label = np.maximum(label, label[image].max(axis=0))
    keep = label[:size] != label[size:]
    top, col = np.unique(label[:size][keep] // 2, return_inverse=True)
    basis = np.zeros((size, len(top)), dtype=np.int64)
    basis[keep, col] = label[:size][keep] % 2 * 2 - 1
    return basis


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

