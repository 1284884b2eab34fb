"""Independent oracles used only by the tests.

Facet enumeration here goes through ray subsets and sympy nullspaces, a
completely different route from the double description code under test.
Ranks, pivots and the rays of a simplex come from sympy's own elimination.
Relabelings and reductions move one setting tuple at a time, term orbits
are sets of permuted tuples, and extended behaviors are built assignment by
assignment, with one product of outcomes per coordinate, where conebell
gathers one signed coordinate per coordinate from per-party index arrays.
The quantum oracles build every Bell-expression term on its own, with
np.kron and one tensordot per party, where conebell.quantum contracts the
whole coefficient tensor at once, and the seesaw's starting observables are
drawn and diagonalized one at a time.  The moment-matrix oracle canonicalizes
every matrix entry's word, where conebell.npa multiplies per-party tables,
and its writer emits the SDPA text one line at a time.
"""
import itertools
import math
from typing import NamedTuple

import numpy as np
import sympy

from conebell.inequality import Inequality
from conebell.npa import MomentProblem, inequality_digest
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


def _candidate_witnesses(zero, values, r):
    """(p, n, common, witnesses) for every (positive, negative) ray pair whose
    common zero set has at least r - 2 bits, where witnesses lists every
    third ray whose zero set holds the common set.  Zero sets become Python
    ints (bit 64 k + j is bit j of word k).  The pairs come with the smaller
    side (the negative one on a tie) in the outer loop, both in index order.
    """
    masks = [sum(int(w) << 64 * k for k, w in enumerate(row)) for row in zero]
    pos = [k for k, v in enumerate(values) if v > 0]
    neg = [k for k, v in enumerate(values) if v < 0]
    outer, inner = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    for o in outer:
        for i in inner:
            common = masks[o] & masks[i]
            if bin(common).count("1") < r - 2:
                continue
            witnesses = [k for k, z in enumerate(masks)
                         if k != o and k != i and z & common == common]
            p, n = (o, i) if values[o] > 0 else (i, o)
            yield p, n, common, witnesses


def reference_adjacent_pairs(zero, values, r):
    """Adjacent (positive, negative) pairs of one DD insertion, one pair at a
    time over all rays: (p, n, common zero set as a Python int) for each
    pair whose common zero set has at least r - 2 bits and lies in no third
    ray's zero set, in the order of _candidate_witnesses."""
    return [(p, n, common) for p, n, common, witnesses in _candidate_witnesses(zero, values, r)
            if not witnesses]


def off_hyperplane_rejections(zero, values, r):
    """How many candidate pairs have witnesses, all of them off the inserted
    hyperplane (value != 0)."""
    return sum(1 for _, _, _, witnesses in _candidate_witnesses(zero, values, r)
               if witnesses and all(values[k] != 0 for k in witnesses))


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


def sympy_nullspace_rays(a):
    """Extreme rays of {y : a y <= 0} for a square nonsingular a, one sympy
    nullspace per row.

    Ray i spans the nullspace of a without row i, primitive and oriented so
    that a_i . y < 0.
    """
    m = sympy.Matrix(np.array(a, dtype=object).tolist())
    rays = []
    for i in range(m.rows):
        (vec,) = m.extract([k for k in range(m.rows) if k != i], list(range(m.cols))).nullspace()
        vec = vec * sympy.ilcm(1, *(x.q for x in vec))
        rays.append(_primitive(-vec if (m.row(i) * vec)[0] > 0 else vec))
    return rays


def sympy_nullity(mat, cols):
    arr = np.array(mat, dtype=object)
    if arr.size == 0:
        return cols
    return cols - sympy_rank(arr)


def index_tuples(scenario):
    """All setting tuples in coordinate order (the all-zero tuple first)."""
    return list(itertools.product(*[range(m + 1) for m in scenario.settings]))


class Relabeling(NamedTuple):
    """A local relabeling: party i becomes party party_map[i], and its
    setting s (1-based) becomes setting setting_maps[i][s-1] with outcome
    sign sign_flips[i][s-1]; setting 0 stays put."""

    party_map: tuple
    setting_maps: tuple
    sign_flips: tuple


def party_swap(scenario, i, j):
    """Relabeling exchanging parties i and j (equal setting counts)."""
    assert scenario.settings[i] == scenario.settings[j]
    party_map = list(range(scenario.parties))
    party_map[i], party_map[j] = j, i
    return Relabeling(tuple(party_map),
                      tuple(tuple(range(1, m + 1)) for m in scenario.settings),
                      tuple((1,) * m for m in scenario.settings))


def relabeling_text(r):
    """r in the clause syntax of --symmetry: a perm clause, one clause of
    the cycles of each party's setting map, and one clause per flip."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    clauses = ["perm:" + letters[:len(r.party_map)] + "->"
               + "".join(letters[d] for d in r.party_map)]
    for p, (settings, flips) in enumerate(zip(r.setting_maps, r.sign_flips)):
        cycles, seen = [], set()
        for s in range(1, len(settings) + 1):
            cycle = []
            while s not in seen:
                seen.add(s)
                cycle.append(s)
                s = settings[s - 1]
            if len(cycle) > 1:
                cycles.append("(" + " ".join(map(str, cycle)) + ")")
        if cycles:
            clauses.append(f"{letters[p]}:" + "".join(cycles))
        clauses += [f"{letters[p]}{s}:-" for s, f in enumerate(flips, start=1) if f < 0]
    return "; ".join(clauses)


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


def xi_label(xi):
    """The witness label of deterministic outcomes xi, a +-1 tuple per extra
    party: a + or - per setting, parties separated by ;, and () for none."""
    parts = []
    for values in xi:
        parts.append("".join({1: "+", -1: "-"}[x] for x in values))
    return ";".join(parts) if parts else "()"


def reference_reduce(candidate, xi, embed=None):
    """Substitute deterministic outcomes xi, a +-1 tuple per non-embedded
    party, for those parties, term by term.

    Returns the sub-scenario of the embedded parties and the reduced
    coefficient vector on it (bound first), constants folded into the bound.
    """
    sc = candidate.scenario
    n = sc.parties
    if embed is None:
        embed = tuple(range(n - len(xi)))
    extras = tuple(i for i in range(n) if i not in embed)
    assert len(extras) == len(xi)
    lower_sc = Scenario(tuple(sc.settings[i] for i in embed))
    reduced = [0] * (lower_sc.dimension + 1)
    reduced[0] = candidate.bound
    xi_of = dict(zip(extras, xi))
    for t, coeff in candidate.nonzero_terms():
        sign = math.prod(xi_of[p][t[p] - 1] for p in extras if t[p])
        idx = lower_sc.index_of(tuple(t[i] for i in embed))
        if idx == 0:
            reduced[0] -= coeff * sign
        else:
            reduced[idx] += coeff * sign
    return lower_sc, tuple(reduced)


def reference_reduces(normal, xi, lower, target, embed):
    """Whether the target inequality with lifted normal (-bound, c_1, ...)
    reduces under xi to q * lower for a rational q > 0: every 2x2 minor of
    (reduction, lower) is zero and their inner product is positive."""
    candidate = Inequality(target, (-normal[0], *normal[1:]))
    _, a = reference_reduce(candidate, xi, embed=embed)
    b = lower.coefficients
    return all(x * v == y * u for (x, u), (y, v) in itertools.combinations(zip(a, b), 2)) \
        and sum(x * u for x, u in zip(a, b)) > 0


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
        for party, v in zip(extras, xi):
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


def reference_random_observables(rngs, settings, d):
    """Starting observables of each party as (R, m, d, d) arrays, restart r
    drawn from rngs[r] with three generator calls per observable: two
    standard_normal((d, d)) for a complex Gaussian matrix, whose QR factor Q
    is the eigenbasis, and one choice([-1.0, 1.0], d) for the eigenvalues."""
    obs = []
    for rng in rngs:
        for _ in range(sum(settings)):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            signs = rng.choice([-1.0, 1.0], size=d)
            q, _ = np.linalg.qr(z)
            obs.append((q * signs) @ q.conj().T)
    obs = np.array(obs).reshape(len(rngs), sum(settings), d, d)
    return np.split(obs, np.cumsum(settings)[:-1], axis=1)


def canonical_monomial(word, scenario):
    """Canonical form of a word: party-sorted, involutions cancelled, one
    letter at a time."""
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


def reference_monomials(scenario, level):
    """Canonical words of length up to level, shortest first, then lex."""
    letters = [(p, s) for p in range(scenario.parties)
               for s in range(1, scenario.settings[p] + 1)]
    words = {canonical_monomial(w, scenario)
             for length in range(level + 1) for w in itertools.product(letters, repeat=length)}
    return sorted(words, key=lambda w: (len(w), w))


def reference_moment_structure(scenario, level, ineq=None):
    """(MomentProblem, identity class) with canonical_monomial on every entry.

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
                         objective=tuple(sorted(acc.items()))), class_of[()]


def reference_export_sdpa(ineq, level):
    """SDPA text and index of reference_moment_structure, one line at a time."""
    problem, _ = reference_moment_structure(ineq.scenario, level, ineq=ineq)
    size = problem.size
    nvars = len(problem.classes) - 1
    coeff_of = dict(problem.objective)
    lines = [f"* moment relaxation level {level}",
             f"* inequality-sha256: {inequality_digest(ineq)}",
             f"* scenario: n={ineq.scenario.parties} settings="
             + ",".join(str(m) for m in ineq.scenario.settings),
             "* bell maximum = -(sdpa objective value)",
             f"{nvars} = mDIM", "1 = nBLOCK", f"{size} = bLOCKsTRUCT",
             " ".join(str(-coeff_of.get(v, 0)) for v in range(1, nvars + 1))]
    entries = sorted((problem.entry_class[i * size + j], i + 1, j + 1)
                     for i in range(size) for j in range(i, size))
    lines += [f"{m} 1 {i} {j} {-1 if m == 0 else 1}" for m, i, j in entries]
    index = ["fixed: 1 = 1"] + [
        f"var {k}: " + "*".join(f"{'ABCDEFGHIJKLMNOPQRSTUVWXYZ'[p]}{s}" for p, s in word)
        for k, word in enumerate(problem.classes[1:], start=1)]
    return "\n".join(lines) + "\n", "\n".join(index) + "\n"


def _signed_permutation(g, scenario):
    """(src, sign) of relabeling g by reference_relabel: image coordinate t
    reads source coordinate src[t] times sign[t]."""
    image = np.array(reference_relabel(g, scenario, range(1, scenario.dimension + 2)))
    return np.abs(image) - 1, np.sign(image)


def gathers(scenario, *relabelings):
    """The gathers (src, sign) that conebell takes for the relabelings."""
    return [_signed_permutation(r, scenario) for r in relabelings]


def reference_fixed_rows(symmetry, target):
    """P - I of each generator (src, sign) of symmetry, stacked into one
    int64 matrix whose kernel is the subspace that every generator fixes:
    row t of P holds sign[t] in column src[t], so P c = c[src] * sign."""
    eye = np.eye(target.dimension + 1, dtype=np.int64)
    return np.vstack([eye[:0]] + [eye[src] * np.reshape(sign, (-1, 1)) - eye
                                  for src, sign in symmetry])


def reference_search_group(target, reductions, symmetry):
    """(group, orbit of each job label) of a generalization search, by brute
    force over every relabeling of the target, party permutations included.

    A relabeling belongs to the group when it maps the symmetry-invariant
    subspace (a sympy nullspace) into itself and maps the data of every job
    onto the data of a job: the set of its extended behaviors
    (reference_extended_behaviors) and the set of its embedded lower
    normals, built term by term.  Jobs, variants (sorted brute-force orbit)
    and labels are enumerated as the search enumerates them.  group is a set
    of (src, sign) tuples of _signed_permutation.
    """
    d1 = target.dimension + 1
    tuples = index_tuples(target)
    fixed = reference_fixed_rows(symmetry, target)
    # integer rows spanning the sympy nullspace
    invariant = [[int(x) for x in vec * math.lcm(*(int(sympy.fraction(x)[1]) for x in vec))]
                 for vec in sympy.Matrix(fixed.tolist()).nullspace()]
    invariant = np.array(invariant, dtype=np.int64).reshape(-1, d1)
    options = []
    for spec in reductions:
        lower = spec.lower
        variants = [lower.coefficients]
        if spec.sweep_orbit:
            variants = sorted({reference_relabel(g, lower.scenario, lower.coefficients)
                               for g in full_relabeling_group(lower.scenario)})
        extras = [p for p in range(target.parties) if p not in spec.embed]
        xis = list(itertools.product(*[itertools.product((-1, 1), repeat=target.settings[p])
                                       for p in extras]))
        opts = []
        for k, coeffs in enumerate(variants, start=1):
            variant = Inequality(lower.scenario, coeffs)
            normal = (-coeffs[0],) + coeffs[1:]
            for xi in xis:
                label = (f"v{k}:" if spec.sweep_orbit else "") + xi_label(xi)
                ext = reference_extended_behaviors(variant, xi, target, spec.embed)
                xi_of = dict(zip(extras, xi))
                w = [normal[lower.scenario.index_of(tuple(t[p] for p in spec.embed))]
                     * math.prod(xi_of[p][t[p] - 1] for p in extras if t[p]) for t in tuples]
                opts.append((label, ext, w))
        options.append(opts)
    labels, vectors, kinds, owners = [], [], [], []
    for job in itertools.product(*options):
        for _, ext, w in job:
            for kind, rows in enumerate((ext, [w])):
                vectors += rows
                kinds += [kind] * len(rows)
                owners += [len(labels)] * len(rows)
        labels.append("|".join(label for label, _, _ in job))
    vectors = np.array(vectors, dtype=np.int64)

    def job_data(vecs):
        data = [(set(), set()) for _ in labels]
        for vec, kind, owner in zip(map(tuple, vecs.tolist()), kinds, owners):
            data[owner][kind].add(vec)
        return [(frozenset(a), frozenset(b)) for a, b in data]

    by_data = {data: label for label, data in zip(labels, job_data(vectors))}
    group = set()
    parent = {label: label for label in labels}

    def root(label):
        while parent[label] != label:
            label = parent[label]
        return label

    for g in full_relabeling_group(target):
        src, sign = _signed_permutation(g, target)
        if ((invariant[:, src] * sign) @ fixed.T).any():
            continue
        images = [by_data.get(data) for data in job_data(vectors[:, src] * sign)]
        if None not in images:
            group.add((tuple(src.tolist()), tuple(sign.tolist())))
            for label, image in zip(labels, images):
                parent[root(image)] = root(label)
    return group, {label: root(label) for label in labels}
