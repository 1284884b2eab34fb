"""Moment-matrix relaxations for dichotomic-observable Bell expressions.

Builds the level-1..3 moment matrix structure and writes it in sparse SDPA
format for external solvers; no semidefinite program is solved here.
Monomials are words of (party, setting) letters: observables of different
parties commute, every observable squares to the identity, and the canonical
form sorts letters by party while preserving the order within a party.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

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
    entry_class: tuple          # row-major class index per matrix entry
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


def moment_matrix_structure(scenario, level, ineq=None):
    """Monomials, entry equality classes, and the objective class mapping.

    Entry (u, v) is labelled by canonical(u~ v) with u~ the reversal of u;
    equal labels are one moment variable.  The identity class (the diagonal)
    is fixed to 1.  When an inequality is passed, each non-constant Bell
    coefficient is attached to the class of its correlator monomial; a
    ValueError names any monomial the level cannot express.
    """
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2, or 3")
    monomials = _level_monomials(scenario, level)
    size = len(monomials)
    class_of = {}
    classes = []
    entry_class = []
    for i in range(size):
        for j in range(size):
            word = canonical_monomial(tuple(reversed(monomials[i])) + monomials[j], scenario)
            # a word and its reversal carry the same real moment, so they
            # share a class; this also makes class(u, v) = class(v, u)
            label = min(word, canonical_monomial(tuple(reversed(word)), scenario))
            if label not in class_of:
                class_of[label] = len(classes)
                classes.append(label)
            entry_class.append(class_of[label])
    objective = []
    if ineq is not None:
        if ineq.scenario.settings != scenario.settings:
            raise ValueError("inequality scenario does not match")
        acc = {}
        for t, coeff in ineq.nonzero_terms():
            word = tuple((p, s) for p, s in enumerate(t) if s != 0)
            canon = canonical_monomial(word, scenario)
            if canon not in class_of:
                raise ValueError(
                    f"correlator {monomial_name(canon)} does not appear in the level-{level} "
                    "moment matrix; use a higher level")
            acc[class_of[canon]] = acc.get(class_of[canon], 0) + coeff
        objective = sorted(acc.items())
    return MomentProblem(scenario=scenario, level=level, monomials=tuple(monomials),
                         classes=tuple(classes), entry_class=tuple(entry_class),
                         objective=tuple(objective), constant_class=class_of[()])


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
    # variable numbering: entry classes in order, skipping the fixed identity
    var_of = {}
    for k in range(len(problem.classes)):
        if k != problem.constant_class:
            var_of[k] = len(var_of) + 1
    nvars = len(var_of)
    coeff_of = {var_of[k]: c for k, c in problem.objective if k != problem.constant_class}
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
    entries = []
    for i in range(size):
        for j in range(i, size):
            k = problem.entry_class[i * size + j]
            if k == problem.constant_class:
                entries.append((0, i + 1, j + 1, -1))
            else:
                entries.append((var_of[k], i + 1, j + 1, 1))
    entries.sort()
    for mat, i, j, val in entries:
        lines.append(f"{mat} 1 {i} {j} {val}")
    sdpa = "\n".join(lines) + "\n"

    index_lines = [f"fixed: {monomial_name(())} = 1"]
    rev = {v: k for k, v in var_of.items()}
    for v in range(1, nvars + 1):
        index_lines.append(f"var {v}: {monomial_name(problem.classes[rev[v]])}")
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
