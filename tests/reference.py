"""Independent oracles used only by the tests.

Facet enumeration here goes through ray subsets and sympy nullspaces, a
completely different route from the double description code under test.
Ranks, pivots and the rays of a simplex come from sympy's own elimination.
Relabelings and reductions move one setting tuple at a time, term orbits
are sets of permuted tuples, and extended behaviors are built assignment by
assignment, with one product of outcomes per coordinate, where conebell
multiplies by one per-party kron matrix or gathers per-party tables.
The quantum oracles build every Bell-expression term on its own, with
np.kron and one tensordot per party, where conebell.quantum contracts the
whole coefficient tensor at once.  The moment-matrix oracle canonicalizes
every matrix entry's word, where conebell.npa multiplies per-party tables.
"""
import itertools
import math

import numpy as np
import sympy

from conebell.constraints import Relabeling
from conebell.npa import MomentProblem, canonical_monomial
from conebell.scenario import Scenario


def _primitive(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, int(x))
    assert g > 0
    return tuple(int(x) // g for x in vec)


def reference_facets(rays):
    """Facet normals of cone(rays) by exact subset enumeration.

    For every (d-1)-subset of rays with rank d-1 the one-dimensional sympy
    nullspace gives a candidate hyperplane; candidates valid on all rays are
    facets.  Requires the rays to span the full space.  A subset on which a
    hyperplane found earlier vanishes (read off the exact values of that
    hyperplane on every ray) either has rank below d-1 or spans that same
    hyperplane, so it is skipped.  Float ranks prefilter the other subsets;
    sympy confirms every survivor exactly.
    """
    arr = np.array(rays, dtype=np.int64)
    m, d = arr.shape
    assert np.linalg.matrix_rank(arr) == d
    found = set()
    zero_sets = []  # bitmask of the rays on each hyperplane seen so far
    for combo in itertools.combinations(range(m), d - 1):
        mask = sum(1 << r for r in combo)
        if any(mask & zeros == mask for zeros in zero_sets):
            continue
        sub = arr[list(combo)]
        if np.linalg.matrix_rank(sub) != d - 1:
            continue
        kern = sympy.Matrix(sub.tolist()).nullspace()
        if len(kern) != 1:
            continue
        vec = kern[0]
        denom = sympy.lcm([sympy.fraction(x)[1] for x in vec])
        ints = [int(x * denom) for x in vec]
        vals = arr @ np.array(ints, dtype=object)
        zero_sets.append(sum(1 << r for r in range(m) if vals[r] == 0))
        if all(v <= 0 for v in vals):
            found.add(_primitive(ints))
        elif all(v >= 0 for v in vals):
            found.add(_primitive([-x for x in ints]))
    return found


def sympy_rank(mat):
    return sympy.Matrix(np.array(mat, dtype=object).tolist()).rank()


def sympy_pivots(mat):
    """Pivot column indices of the reduced row echelon form, from sympy."""
    return list(sympy.Matrix(np.array(mat, dtype=object).tolist()).rref()[1])


def sympy_simplex_rays(a):
    """Extreme rays of {y : a y <= 0} for a square nonsingular a.

    Ray i is the primitive row i of -sign(det a) adj(a)^T: it is orthogonal
    to every row of a but row i, and a_i . y < 0.
    """
    m = sympy.Matrix(np.array(a, dtype=object).tolist())
    scaled = -sympy.sign(m.det()) * m.adjugate().T
    return [_primitive(scaled.row(i)) for i in range(m.rows)]


def sympy_nullity(mat, cols):
    arr = np.array(mat, dtype=object)
    if arr.size == 0:
        return cols
    return cols - sympy_rank(arr)


def index_tuples(scenario):
    """All setting tuples in coordinate order (the all-zero tuple first)."""
    return list(itertools.product(*[range(m + 1) for m in scenario.settings]))


def party_swap(scenario, i, j):
    """Relabeling exchanging parties i and j (equal setting counts)."""
    party_map = list(range(scenario.parties))
    party_map[i], party_map[j] = j, i
    rel = Relabeling(tuple(party_map),
                     tuple(tuple(range(1, m + 1)) for m in scenario.settings),
                     tuple((1,) * m for m in scenario.settings))
    rel.validate(scenario)
    return rel


def full_relabeling_group(scenario):
    """Every local relabeling of the scenario, for brute-force orbit checks."""
    n = scenario.parties
    perms = [p for p in itertools.permutations(range(n))
             if all(scenario.settings[p[i]] == scenario.settings[i] for i in range(n))]
    per_party = [[(sp, sf) for sp in itertools.permutations(range(1, m + 1))
                  for sf in itertools.product((1, -1), repeat=m)]
                 for m in scenario.settings]
    for pp in perms:
        for combo in itertools.product(*per_party):
            yield Relabeling(pp, tuple(c[0] for c in combo), tuple(c[1] for c in combo))


def reference_relabel(r, scenario, coefficients):
    """Coefficient vector with relabeling r applied one setting tuple at a time."""
    out = [0] * len(coefficients)
    for idx, t in enumerate(index_tuples(scenario)):
        image = [0] * len(t)
        sign = 1
        for p, s in enumerate(t):
            if s:
                image[r.party_map[p]] = r.setting_maps[p][s - 1]
                sign *= r.sign_flips[p][s - 1]
        out[scenario.index_of(image)] = sign * coefficients[idx]
    return tuple(out)


def brute_force_canonical(ineq):
    """Orbit minimum by exhaustive group enumeration (small scenarios only)."""
    prim = ineq.primitive()
    return min(reference_relabel(g, prim.scenario, prim.coefficients)
               for g in full_relabeling_group(prim.scenario))


def equal_setting_orbit(scenario, t):
    """Orbit of a setting tuple under permutations of equal-setting parties."""
    groups = {}
    for i, m in enumerate(scenario.settings):
        groups.setdefault(m, []).append(i)
    orbit = set()
    for combo in itertools.product(*[itertools.permutations(idxs) for idxs in groups.values()]):
        img = list(t)
        for idxs, perm in zip(groups.values(), combo):
            for src, dst in zip(idxs, perm):
                img[dst] = t[src]
        orbit.add(tuple(img))
    return orbit


def reference_symmetric_terms(ineq):
    """(term count, multiset terms or None) from one orbit set per nonzero term.

    A multiset key is the term's tuple sorted in descending order within each
    group of equal-setting parties.
    """
    sc = ineq.scenario
    seen = set()
    terms = {}
    symmetric = True
    for t, c in ineq.nonzero_terms():
        if t in seen:
            continue
        orbit = equal_setting_orbit(sc, t)
        seen.update(orbit)
        symmetric &= all(ineq.coefficients[sc.index_of(u)] == c for u in orbit)
        key = list(t)
        for m in set(sc.settings):
            group = [p for p in range(sc.parties) if sc.settings[p] == m]
            for p, s in zip(group, sorted((t[p] for p in group), reverse=True)):
                key[p] = s
        terms[tuple(key)] = c
    return len(terms), terms if symmetric else None


def reference_reduce(candidate, xi, embed=None):
    """Substitute deterministic outcomes for the non-embedded parties, term by term.

    Returns the sub-scenario of the embedded parties and the reduced
    coefficient vector on it (bound first), constants folded into the bound.
    """
    sc = candidate.scenario
    n = sc.parties
    if embed is None:
        embed = tuple(range(n - len(xi.values)))
    extras = tuple(i for i in range(n) if i not in embed)
    assert len(extras) == len(xi.values)
    lower_sc = Scenario(tuple(sc.settings[i] for i in embed))
    reduced = [0] * (lower_sc.dimension + 1)
    reduced[0] = candidate.bound
    xi_of = dict(zip(extras, xi.values))
    for t, coeff in candidate.nonzero_terms():
        sign = math.prod(xi_of[p][t[p] - 1] for p in extras if t[p])
        idx = lower_sc.index_of(tuple(t[i] for i in embed))
        if idx == 0:
            reduced[0] -= coeff * sign
        else:
            reduced[idx] += coeff * sign
    return lower_sc, tuple(reduced)


def reference_extended_behaviors(lower, xi, target, embed=None):
    """Extended behaviors as lists of ints, by brute force.

    Enumerates the lower scenario's assignments in lex order (-1 before +1),
    keeps those whose Bell value reaches the bound, places them on the
    embedded parties and xi on the others, and multiplies the outcomes per
    target coordinate.
    """
    lower_sc = lower.scenario
    if embed is None:
        embed = tuple(range(lower_sc.parties))
    extras = [p for p in range(target.parties) if p not in embed]

    def coords(scenario, assignment):
        return [math.prod(assignment[p][s - 1] for p, s in enumerate(t) if s)
                for t in index_tuples(scenario)]

    out = []
    for gamma in itertools.product(*[itertools.product((-1, 1), repeat=m)
                                     for m in lower_sc.settings]):
        value = sum(c * x for c, x in zip(lower.coefficients[1:], coords(lower_sc, gamma)[1:]))
        if value != lower.bound:
            continue
        assignment = [None] * target.parties
        for pos, party in enumerate(embed):
            assignment[party] = gamma[pos]
        for party, v in zip(extras, xi.values):
            assignment[party] = v
        out.append(coords(target, assignment))
    return out


def random_full_dim_vertices(rng, dim, count, spread=2):
    """Random integer polytope vertices whose lift spans dim + 1 dimensions."""
    while True:
        pts = rng.integers(-spread, spread + 1, size=(count, dim))
        lifted = np.hstack([np.ones((count, 1), dtype=np.int64), pts])
        if np.linalg.matrix_rank(lifted) == dim + 1:
            return lifted.astype(np.int64)


def reference_bell_operator(ineq, observables):
    """Bell operator as the sum over nonzero terms of coeff * (x)_p A_p[t_p]."""
    d = np.asarray(observables[0][0]).shape[0]
    total = d ** ineq.scenario.parties
    op = np.zeros((total, total), dtype=complex)
    eye = np.eye(d)
    for t, coeff in ineq.nonzero_terms():
        term = np.ones((1, 1), dtype=complex)
        for p, s in enumerate(t):
            term = np.kron(term, eye if s == 0 else np.asarray(observables[p][s - 1]))
        op += coeff * term
    return op


def reference_effective_operator(ineq, observables, psi, party, setting):
    """F with objective contribution Tr(O F) for party's observable at setting.

    Sums, over the nonzero terms t with t[party] == setting, coeff times
    <psi| (ops of the other parties in t) (x) |a><b| |psi>, transposed.
    """
    n = ineq.scenario.parties
    d = np.asarray(observables[0][0]).shape[0]
    psi_tensor = np.asarray(psi).reshape((d,) * n)
    axes = [q for q in range(n) if q != party]
    f = np.zeros((d, d), dtype=complex)
    for t, coeff in ineq.nonzero_terms():
        if t[party] != setting:
            continue
        phi = psi_tensor
        for q in axes:
            if t[q] != 0:
                op = np.asarray(observables[q][t[q] - 1])
                phi = np.moveaxis(np.tensordot(op, phi, axes=([1], [q])), 0, q)
        f += coeff * np.tensordot(psi_tensor.conj(), phi, axes=(axes, axes)).T
    return f


def reference_monomials(scenario, level):
    """Canonical words of length up to level, shortest first, then lex."""
    letters = [(p, s) for p in range(scenario.parties)
               for s in range(1, scenario.settings[p] + 1)]
    words = {canonical_monomial(w, scenario)
             for length in range(level + 1) for w in itertools.product(letters, repeat=length)}
    return sorted(words, key=lambda w: (len(w), w))


def reference_moment_structure(scenario, level, ineq=None):
    """Moment-matrix structure with canonical_monomial on every entry.

    Entry (u, v) gets the smaller of canonical(u~ v) and the canonical form of
    its reversal; classes are numbered in row-major order of first sight.
    """
    monomials = reference_monomials(scenario, level)
    class_of = {}
    entry_class = []
    for u in monomials:
        for v in monomials:
            word = canonical_monomial(tuple(reversed(u)) + v, scenario)
            label = min(word, canonical_monomial(tuple(reversed(word)), scenario))
            entry_class.append(class_of.setdefault(label, len(class_of)))
    acc = {}
    for t, coeff in ([] if ineq is None else ineq.nonzero_terms()):
        k = class_of[canonical_monomial(tuple((p, s) for p, s in enumerate(t) if s), scenario)]
        acc[k] = acc.get(k, 0) + coeff
    return MomentProblem(scenario=scenario, level=level, monomials=tuple(monomials),
                         classes=tuple(class_of), entry_class=tuple(entry_class),
                         objective=tuple(sorted(acc.items())), constant_class=class_of[()])
