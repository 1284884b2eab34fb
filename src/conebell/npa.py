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
cancels.  One table from pairs of reduced words to their product serves every
party with the same setting count, and an entry is the tuple of its per-party
products.  A real moment equals that of the reversed word, so an entry and its
reversal form one class, and the matrix is symmetric.  The structure and its
SDPA text are built in whole-array steps over the upper triangle.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .inequality import write_inequality
from .scenario import _PARTY_LETTERS


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

    @property
    def size(self):
        return len(self.monomials)


def _canonical_words(settings, level):
    """Every canonical word of length at most level, in (length, word) order,
    as (party, setting) arrays of shape (count, level) padded with (-1, 0).

    Appending a letter keeps a word canonical unless the letter's party comes
    before the last letter's or it repeats the last letter.
    """
    party = np.append(np.repeat(np.arange(len(settings)), settings), -1)
    setting = np.append(np.concatenate([np.arange(1, m + 1) for m in settings]), 0)
    pad = len(party) - 1
    words = np.full((1, level + 1), pad)  # column 0 stays padding
    blocks = [words]
    for length in range(1, level + 1):
        words = np.repeat(words, pad, axis=0)
        words[:, length] = np.tile(np.arange(pad), len(words) // pad)
        last, new = words[:, length - 1], words[:, length]
        words = words[(party[new] >= party[last]) & (new != last)]
        blocks.append(words)
    letters = np.concatenate(blocks)[:, 1:]
    return party[letters], setting[letters]


def _piece_codes(word_party, word_setting, party, base):
    """Each word's piece of one party in base m+1, first letter most
    significant; settings are nonzero digits, so codes sort by (length, piece)."""
    mask = word_party == party
    after = np.cumsum(mask[:, ::-1], axis=1)[:, ::-1] - mask
    return np.where(mask, word_setting * base ** after, 0).sum(axis=1)


def _product_table(m, level):
    """Reduced products of the reduced words over settings 1..m of length at
    most level.

    Returns (codes, table, flip, letters): codes[a] is the code of words[a],
    table[a, b] the id of rev(words[a]) . words[b] reduced, flip[k] the id of
    the reversal of product k, and letters[k] its settings, right-aligned.
    With k the length of the common prefix of u and v, u[:k] cancels at the
    junction of rev(u) . v, leaving rev(u[k:]) + v[k:].  Products are interned
    by code, so ids follow (length, piece) order and letter s gets id s.  Codes
    stay below (m+1)**(2*level), inside int64 for any m whose words fit in memory.
    """
    base = m + 1
    word_party, words = _canonical_words((m,), level)
    codes = _piece_codes(word_party, words, 0, base)
    reversed_codes = (words * base ** np.arange(level)).sum(axis=1)
    k = np.cumprod((words[:, None] == words[None]) & (words[:, None] > 0), axis=2).sum(axis=2)
    # rev(u[k:]) is rev(u) without its last k letters, and v[k:] is v
    # without its first k, len(v) - k letters
    tail = base ** ((words > 0).sum(axis=1) - k)
    product = reversed_codes[:, None] // base ** k * tail + codes % tail
    uniq, table = np.unique(product, return_inverse=True)
    power = np.arange(2 * level)[::-1]
    letters = uniq[:, None] // base ** power % base
    n = (letters > 0).sum(axis=1)
    reversal = (letters * base ** np.maximum(n[:, None] - 1 - power, 0)).sum(axis=1)
    flip = np.searchsorted(uniq, reversal)
    return codes, table.reshape(product.shape), flip, letters


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
    word_party, word_setting = _canonical_words(scenario.settings, level)
    size = len(word_party)
    tables = {m: _product_table(m, level) for m in set(scenario.settings)}
    radix = [len(tables[m][3]) for m in scenario.settings]
    strides = [math.prod(radix[p + 1:]) for p in range(len(radix))]
    # keys stay below prod(radix); past the int64 range they are Python ints
    dtype = np.int64 if math.prod(radix) < 2**63 else object
    # a class first appears in the upper triangle, which np.triu_indices
    # lists in row-major order
    rows, cols = np.triu_indices(size)
    key = np.zeros(len(rows), dtype=dtype)
    flipped = np.zeros(len(rows), dtype=dtype)
    for party, (m, stride) in enumerate(zip(scenario.settings, strides)):
        codes, table, flip, _ = tables[m]
        col = np.searchsorted(codes, _piece_codes(word_party, word_setting, party, m + 1))
        product = table[col[rows], col[cols]]
        key += product.astype(dtype, copy=False) * stride
        flipped += flip[product].astype(dtype, copy=False) * stride
    # ids follow (length, piece) order, so the first party whose piece is not
    # a palindrome decides both which key and which word is the smaller
    labels, first, inverse = np.unique(np.minimum(key, flipped), return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    labels, rank = labels[order], np.empty_like(order)
    rank[order] = np.arange(len(order))
    entry_class = np.empty((size, size), dtype=np.int32)
    entry_class[rows, cols] = entry_class[cols, rows] = rank[inverse.reshape(-1)]
    entry_class = entry_class.reshape(-1)
    entry_class.flags.writeable = False
    # each class's word, spelled party by party from its product's letters
    classes = []
    for party, (m, stride, r) in enumerate(zip(scenario.settings, strides, radix)):
        singles = np.fromiter([()] + [((party, s),) for s in range(1, m + 1)], dtype=object)
        pieces = functools.reduce(np.add, singles[tables[m][3].T])
        classes.append(pieces[(labels // stride % r).astype(np.intp)])
    objective = []
    if ineq is not None:
        if ineq.scenario.settings != scenario.settings:
            raise ValueError("inequality scenario does not match")
        class_of = dict(zip(labels.tolist(), range(len(labels))))
        for t, coeff in ineq.nonzero_terms():
            # a correlator's pieces are palindromes and letter s has id s
            k = class_of.get(sum(s * stride for s, stride in zip(t, strides)))
            if k is None:
                raise ValueError(
                    f"correlator {monomial_name(tuple((p, s) for p, s in enumerate(t) if s))} "
                    f"does not appear in the level-{level} moment matrix; use a higher level")
            objective.append((k, coeff))
    monomials = tuple(tuple(zip(p, s))[:n] for p, s, n in zip(
        word_party.tolist(), word_setting.tolist(), (word_party >= 0).sum(axis=1).tolist()))
    # entry (1, 1), the first seen, is the identity moment, so its class is 0
    return MomentProblem(scenario=scenario, level=level, monomials=monomials,
                         classes=tuple(functools.reduce(np.add, classes)),
                         entry_class=entry_class, objective=tuple(sorted(objective)))


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
    c = [0] * nvars
    for k, coeff in problem.objective:
        c[k - 1] = -coeff
    header = [
        f"* moment relaxation level {level}",
        f"* inequality-sha256: {inequality_digest(ineq)}",
        f"* scenario: n={ineq.scenario.parties} settings="
        + ",".join(str(m) for m in ineq.scenario.settings),
        "* bell maximum = -(sdpa objective value)",
        f"{nvars} = mDIM", "1 = nBLOCK", f"{size} = bLOCKsTRUCT",
        " ".join(map(str, c)),
    ]
    # upper triangle, sorted by (matrix, i, j); the identity entries carry -1;
    # np.triu_indices lists it in (i, j) order, which a stable sort keeps
    rows, cols = np.triu_indices(size)
    mats = problem.entry_class.reshape(size, size)[rows, cols]
    order = np.argsort(mats, kind="stable")
    entries = np.column_stack([mats, rows + 1, cols + 1, np.where(mats == 0, -1, 1)])[order]
    sdpa = "\n".join(header) + "\n" + "%d 1 %d %d %d\n" * len(order) % tuple(
        entries.ravel().tolist())
    name = {(p, s): monomial_name(((p, s),))
            for p, m in enumerate(ineq.scenario.settings) for s in range(1, m + 1)}
    names = ("*".join(map(name.__getitem__, word)) for word in problem.classes[1:])
    index = "var %d: %s\n" * nvars % tuple(itertools.chain.from_iterable(
        zip(range(1, nvars + 1), names)))
    return sdpa, f"fixed: {monomial_name(())} = 1\n" + index


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
