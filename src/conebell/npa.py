"""Moment-matrix relaxations for dichotomic-observable Bell expressions.

Builds the level-1..3 moment matrix structure and writes it in sparse SDPA
format for external solvers; no semidefinite program is solved here.
Monomials are words of (party, setting) letters: observables of different
parties commute, every observable squares to the identity, and the canonical
form sorts letters by party while preserving the order within a party.

Matrix entry (u, v) is the moment of rev(u) . v.  Its canonical form is, party
by party, the product of u's and v's letters of that party.  Both are reduced
words (no letter twice in a row), so in rev(u_p) . v_p the letters cancel in
pairs at the junction for as long as u_p and v_p agree, and nothing else
cancels.  Each party therefore gets a small table from pairs of its sub-words
to their reduced product, and an entry is the tuple of its per-party products.
A real moment equals that of the reversed word, so an entry and its reversal
(each party's product reversed) form one class, and the moment matrix is
symmetric.  The structure is built one upper-triangle row at a time, with one
table gather per party per row.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .inequality import write_inequality
from .scenario import _PARTY_LETTERS


def canonical_monomial(word, scenario):
    """Canonical form of a word: party-sorted, involutions cancelled."""
    for party, setting in word:
        if not (0 <= party < scenario.parties):
            raise ValueError(f"no party {party} in this scenario")
        if not (1 <= setting <= scenario.settings[party]):
            raise ValueError(f"no setting {setting} for party {party}")
    out = []
    for party in range(scenario.parties):
        stack = []
        for p, s in word:
            if p != party:
                continue
            if stack and stack[-1] == s:
                stack.pop()
            else:
                stack.append(s)
        out.extend((party, s) for s in stack)
    return tuple(out)


def monomial_name(word):
    if not word:
        return "1"
    return "*".join(f"{_PARTY_LETTERS[p]}{s}" for p, s in word)


@dataclass(frozen=True)
class MomentProblem:
    scenario: object
    level: int
    monomials: tuple            # canonical words indexing the matrix
    classes: tuple              # canonical words, one per distinct entry class
    # row-major class index per matrix entry: a read-only int32 array of
    # size**2; it follows from scenario and level, so equality and hashing
    # skip it
    entry_class: np.ndarray = field(compare=False)
    objective: tuple            # (class index, integer coefficient) pairs
    constant_class: int         # class of the identity moment, fixed to 1

    @property
    def size(self):
        return len(self.monomials)


def _level_monomials(scenario, level):
    letters = [(p, s) for p in range(scenario.parties)
               for s in range(1, scenario.settings[p] + 1)]
    seen = {(): None}
    order = [()]
    for length in range(1, level + 1):
        for word in itertools.product(letters, repeat=length):
            canon = canonical_monomial(word, scenario)
            if canon not in seen:
                seen[canon] = None
                order.append(canon)
    return sorted(order, key=lambda w: (len(w), w))


def _product_table(words):
    """Reduced products of one party's reduced words, interned.

    Returns (table, flip, products): table[a, b] is the id of the reduced
    form of rev(words[a]) . words[b], flip[k] the id of the reversal of
    products[k].  With k the length of the common prefix of u and v, the
    letters u[:k] cancel at the junction of rev(u) . v, one pair at a time,
    leaving rev(u[k:]) + v[k:]; its reversal is the product of (v, u).
    """
    index = {}
    table = np.empty((len(words), len(words)), dtype=np.int64)
    for a, u in enumerate(words):
        for b, v in enumerate(words):
            k = 0
            while k < min(len(u), len(v)) and u[k] == v[k]:
                k += 1
            table[a, b] = index.setdefault(u[k:][::-1] + v[k:], len(index))
    products = list(index)
    flip = np.array([index[w[::-1]] for w in products], dtype=np.int64)
    return table, flip, products


def moment_matrix_structure(scenario, level, ineq=None):
    """Monomials, entry equality classes, and the objective class mapping.

    Entry (u, v) is labelled by canonical(u~ v) with u~ the reversal of u; a
    word and its reversal carry the same real moment, so the class label is
    the smaller of the two, which also makes class(u, v) = class(v, u).
    Classes are numbered in row-major order of first appearance.  The
    identity class (the diagonal) is fixed to 1.  When an inequality is
    passed, each non-constant Bell coefficient is attached to the class of
    its correlator monomial; a ValueError names any monomial the level
    cannot express.

    An entry's per-party product ids are packed into one integer key in mixed
    radix, first party most significant; the smaller of its key and the key
    of its reversal names its class.
    """
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2, or 3")
    monomials = _level_monomials(scenario, level)
    size = len(monomials)
    cols, tables, flips, pieces = [], [], [], []
    for party in range(scenario.parties):
        sub = [tuple(s for p, s in m if p == party) for m in monomials]
        words = list(dict.fromkeys(sub))
        ids = {w: k for k, w in enumerate(words)}
        table, flip, products = _product_table(words)
        cols.append(np.array([ids[w] for w in sub], dtype=np.int64))
        tables.append(table)
        flips.append(flip)
        pieces.append([tuple((party, s) for s in w) for w in products])
    radix = [len(p) for p in pieces]
    strides = [math.prod(radix[p + 1:]) for p in range(len(radix))]
    # keys stay below prod(radix); past the int64 range they are Python ints
    dtype = np.int64 if math.prod(radix) < 2**63 else object
    class_of = {}
    entry_class = np.empty((size, size), dtype=np.int32)
    for i in range(size):
        key = np.zeros(size - i, dtype=dtype)
        flipped = np.zeros(size - i, dtype=dtype)
        for col, table, flip, stride in zip(cols, tables, flips, strides):
            prod = table[col[i], col[i:]]
            key += prod.astype(dtype, copy=False) * stride
            flipped += flip[prod].astype(dtype, copy=False) * stride
        # a class first appears in the upper triangle: entry (i, j) with
        # j < i repeats entry (j, i) of an earlier row
        row = [class_of.setdefault(k, len(class_of))
               for k in np.minimum(key, flipped).tolist()]
        entry_class[i, i:] = row
        entry_class[i:, i] = row
    entry_class = entry_class.reshape(-1)
    entry_class.flags.writeable = False
    classes = []
    for k in class_of:
        word, rev = (), ()
        for party, stride in enumerate(strides):
            piece = pieces[party][k // stride % radix[party]]
            word += piece
            rev += piece[::-1]
        classes.append(min(word, rev))
    objective = []
    if ineq is not None:
        if ineq.scenario.settings != scenario.settings:
            raise ValueError("inequality scenario does not match")
        index = {label: k for k, label in enumerate(classes)}
        acc = {}
        for t, coeff in ineq.nonzero_terms():
            word = tuple((p, s) for p, s in enumerate(t) if s != 0)
            canon = canonical_monomial(word, scenario)
            if canon not in index:
                raise ValueError(
                    f"correlator {monomial_name(canon)} does not appear in the level-{level} "
                    "moment matrix; use a higher level")
            acc[index[canon]] = acc.get(index[canon], 0) + coeff
        objective = sorted(acc.items())
    # entry (1, 1), the first seen, is the identity moment, so its class is 0
    return MomentProblem(scenario=scenario, level=level, monomials=tuple(monomials),
                         classes=tuple(classes), entry_class=entry_class,
                         objective=tuple(objective), constant_class=0)


def inequality_digest(ineq):
    return hashlib.sha256(write_inequality(ineq, comments=False).encode()).hexdigest()[:16]


def export_sdpa(ineq, level):
    """Sparse SDPA text plus the variable index companion text.

    Encoding: one PSD block M = E_identity + sum_k y_k E_k with one free
    variable y_k per non-identity entry class; minimizing sum c_k y_k with
    c = -(Bell coefficients on classes) makes the Bell maximum the negated
    SDPA optimum.
    """
    problem = moment_matrix_structure(ineq.scenario, level, ineq=ineq)
    size = problem.size
    # variable k is entry class k; class 0 is the fixed identity, which goes
    # in the constant matrix 0
    nvars = len(problem.classes) - 1
    coeff_of = dict(problem.objective)
    lines = [
        f"* moment relaxation level {level}",
        f"* inequality-sha256: {inequality_digest(ineq)}",
        f"* scenario: n={ineq.scenario.parties} settings="
        + ",".join(str(m) for m in ineq.scenario.settings),
        "* bell maximum = -(sdpa objective value)",
        f"{nvars} = mDIM",
        "1 = nBLOCK",
        f"{size} = bLOCKsTRUCT",
    ]
    lines.append(" ".join(str(-coeff_of.get(v, 0)) for v in range(1, nvars + 1)))
    # upper triangle, sorted by (matrix, i, j); the identity entries carry -1
    rows, cols = np.triu_indices(size)
    mats = problem.entry_class.reshape(size, size)[rows, cols]
    order = np.lexsort((cols, rows, mats))
    lines.extend(f"{m} 1 {i} {j} {-1 if m == 0 else 1}"
                 for m, i, j in zip(mats[order].tolist(), (rows[order] + 1).tolist(),
                                    (cols[order] + 1).tolist()))
    sdpa = "\n".join(lines) + "\n"

    index_lines = [f"fixed: {monomial_name(())} = 1"]
    index_lines.extend(f"var {k}: {monomial_name(label)}"
                       for k, label in enumerate(problem.classes[1:], start=1))
    return sdpa, "\n".join(index_lines) + "\n"


def parse_sdpa(text):
    """Parse the exporter's own output back into a structured dict."""
    nvars = nblocks = size = None
    cvec = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*") or line.startswith('"'):
            continue
        if line.endswith("= mDIM"):
            nvars = int(line.split()[0])
        elif line.endswith("= nBLOCK"):
            nblocks = int(line.split()[0])
        elif line.endswith("= bLOCKsTRUCT"):
            size = int(line.split()[0])
        elif cvec is None:
            parts = line.split()
            if nvars is None or len(parts) != nvars:
                raise ParseError("objective row does not match mDIM", line=lineno)
            cvec = [int(x) for x in parts]
        else:
            parts = line.split()
            if len(parts) != 5:
                raise ParseError(f"malformed entry line {line!r}", line=lineno)
            entries.append((int(parts[0]), int(parts[1]), int(parts[2]),
                            int(parts[3]), int(parts[4])))
    if None in (nvars, nblocks, size) or cvec is None:
        raise ParseError("incomplete SDPA header")
    return {"nvars": nvars, "nblocks": nblocks, "size": size, "c": cvec,
            "entries": entries}
