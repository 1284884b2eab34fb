"""Coordinate maps behind the constraints of targeted facet searches.

A search demands tightness on extended behaviors and invariance under
relabeling symmetries.  Both come from coordinate maps that send each
coordinate to one signed coordinate, so each is a signed gather (src, sign)
with (P c)[t] = sign[t] * c[src[t]], built from one index array per party.
Every relabeling's gather is built by _maps from one row of _slot_table
per party and a map of equal-setting parties, as parse_relabeling builds
the one of a --symmetry clause text; the vectors that relabelings fix are
spanned by signed orbit sums (invariant_basis), read off the gathers with no
elimination.  The embedding map M of a lower inequality (_embedding_map)
reads the lower coordinate of t restricted to the embedded parties, with
sign the product of xi over the extra parties' settings in t.
search._reduction_options checks the embedding first.  For each lower
variant and xi it maps the saturating vertices V to the extended behaviors
V M^T and the lower normal n to the row M n.  A target normal b reduces to
b M; when b is tight on the extended behaviors, b M is a multiple of n, so
the sign of b . (M n) checks the reduction.
"""
from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .errors import ParseError
from .scenario import _PARTY_LETTERS


@functools.lru_cache(maxsize=None)
def _slot_table(m):
    """One party's m! 2^m relabelings, row 0 the identity, as read-only
    int64 arrays (src, neg): row k maps image setting s to source setting
    src[k, s], negated when neg[k, s] is 1; column 0 is the fixed setting 0."""
    perms = list(itertools.permutations(range(1, m + 1)))
    flips = list(itertools.product((0, 1), repeat=m))
    src = np.array([(0,) + perm for perm in perms for _ in flips], dtype=np.int64)
    neg = np.array([(0,) + flip for _ in perms for flip in flips], dtype=np.int64)
    src.flags.writeable = neg.flags.writeable = False
    return src, neg


@functools.lru_cache(maxsize=None)
def _slot_rows(m):
    """{(src row, neg row): k} over the rows k of _slot_table(m), as tuples."""
    src, neg = _slot_table(m)
    return {key: k for k, key in enumerate(zip(map(tuple, src.tolist()), map(tuple, neg.tolist())))}


@functools.lru_cache(maxsize=None)
def _party_maps(settings):
    """Every map perm of each party i to a party perm[i] with as many
    settings, the identity first."""
    return tuple(perm for perm in itertools.permutations(range(len(settings)))
                 if tuple(settings[i] for i in perm) == settings)


def _maps(scenario, rows, perm=None):
    """Gathers (src, sign), one row each, of the relabelings that take row
    rows[k, p] of _slot_table for each party p and, given perm, send party i
    to party perm[i]: relabeling k maps c to c[src[k]] * sign[k].  src is
    built mixed-radix, and perm is one transpose of the image axes."""
    src = np.zeros((len(rows), 1), dtype=np.int64)
    sign = np.ones((len(rows), 1), dtype=np.int64)
    for p, m in enumerate(scenario.settings):
        s, neg = _slot_table(m)
        width = src.shape[1] * (m + 1)
        src = (src[:, :, None] * (m + 1) + s[rows[:, p], None, :]).reshape(len(rows), width)
        sign = (sign[:, :, None] * (1 - 2 * neg[rows[:, p], None, :])).reshape(len(rows), width)
    if perm is not None:
        axes = (0, *(1 + np.argsort(perm)))
        src, sign = (a.reshape((len(rows),) + scenario.shape).transpose(axes)
                     .reshape(len(rows), -1) for a in (src, sign))
    return src, sign


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
    """The (D+1, K) int64 basis of the vectors c that every generator, a
    gather (src, sign), fixes, c[t] = sign[t] c[src[t]]: per coordinate orbit
    with largest coordinate x, in order of x, a column of the signs of
    c[t] / c[x], unless the orbit ties some c[t] to -c[t].  This is
    integer_kernel_basis of the conditions, column order included, and that
    order sets the insertion order of every projected DD."""
    size = scenario.dimension + 1
    src, sign = np.array(generators, dtype=np.int64).reshape(-1, 2, size).transpose(1, 0, 2)
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
    """The gather (src, sign), which maps c to c[src] * sign, of a relabeling
    in the clause syntax.  Each clause is checked as it is applied; a
    malformed one raises ParseError with its column."""
    n = scenario.parties
    party_map = list(range(n))
    # per party, the source setting that each image setting reads, and
    # whether each source setting is flipped; setting 0 stays put
    srcs = [list(range(m + 1)) for m in scenario.settings]
    flips = [[0] * (m + 1) for m in scenario.settings]
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
            if sorted(src_idx) != list(range(n)) or sorted(dst_idx) != list(range(n)) \
                    or any(scenario.settings[s] != scenario.settings[d]
                           for s, d in zip(src_idx, dst_idx)):
                raise ParseError(f"perm clause {body!r} is not a permutation of parties with "
                                 "equal setting counts", column=col)
            for s, d in zip(src_idx, dst_idx):
                party_map[s] = d
        elif re.fullmatch(r"[A-Z]\d+:[+-]", clause):
            party = _PARTY_LETTERS.index(clause[0])
            setting = int(clause[1:clause.index(":")])
            if party >= n or not (1 <= setting <= scenario.settings[party]):
                raise ParseError(f"no setting {clause[:clause.index(':')]} in this scenario", column=col)
            if clause.endswith("-"):
                flips[party][setting] ^= 1
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
                    srcs[party][b] = a
            if sorted(srcs[party]) != list(range(m + 1)):
                raise ParseError(f"overlapping cycles for party {clause[0]}", column=col)
        else:
            raise ParseError(f"unrecognized clause {clause!r}", column=col)
    rows = [_slot_rows(len(src) - 1)[tuple(src), tuple(flip[a] for a in src)]
            for src, flip in zip(srcs, flips)]
    src, sign = _maps(scenario, np.array([rows]), party_map)
    return src[0], sign[0]
