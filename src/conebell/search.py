"""Generalization searches and equivalence classification.

The equivalence group is the full set of local relabelings: party
permutations among equal-setting parties, per-party setting permutations,
and per-setting outcome sign flips.  The canonical form of an inequality is
the lexicographically minimal coefficient vector over its orbit, computed by
branch and bound over the group factors instead of expanding the orbit: the
setting slots are filled from the least significant party upward, and only
the partial relabelings whose block of coefficients is lex-minimal survive
each slot (canonical labeling by search with pruning, the slots playing the
role of partition cells).  Each slot is one vectorized step: a cached
(source, sign) candidate table per setting count, one gather of the blocks of
every (surviving state, free party, candidate), and one lex-min selection.
Blocks are compared as int64 codes, the rank of each value in the sorted set
of the coefficients and their negations, so the comparison is exact for any
Python-int coefficient; the result is built from the coefficients
themselves.  relabeling_orbit lists an orbit from the same per-party tables.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cone import (DD_CAP_DEFAULT, _certify, _exact_products, constrained_facets,
                   lift_polytope)
from .constraints import (XiAssignment, _embedding_map, build_extended_behaviors,
                          parse_xi_label, symmetry_rows)
from .errors import CapExceededError, ParseError
from .exactlinalg import _primitive_rows
from .inequality import (Inequality, from_cone_normal, parse_inequality,
                         term_count, write_inequality)
from .scenario import enumerate_vertices

ORBIT_CAP_DEFAULT = 10_000_000
# entries of one canonical-form gather (8 MB of int64); a slot whose rows are
# more is gathered in chunks of whole (state, party) pairs
_GATHER_ENTRIES = 1 << 20


@dataclass(frozen=True)
class EquivalenceClass:
    canonical: Inequality
    members_found: int
    witnesses: tuple[XiAssignment, ...] = ()


@functools.lru_cache(maxsize=None)
def _slot_table(m):
    """One party's relabelings as read-only int64 arrays (src, neg).

    Row k maps image setting s to source setting src[k, s] and negates it
    when neg[k, s] is 1; column 0 is the fixed setting 0.  The m! 2^m rows
    are every setting permutation with every outcome flip, row 0 the
    identity.
    """
    perms = list(itertools.permutations(range(1, m + 1)))
    flips = list(itertools.product((0, 1), repeat=m))
    src = np.array([(0,) + perm for perm in perms for _ in flips], dtype=np.int64)
    neg = np.array([(0,) + flip for _ in perms for flip in flips], dtype=np.int64)
    src.flags.writeable = neg.flags.writeable = False
    return src, neg


def _lex_min_rows(blocks):
    """Indices of every row of a 2-D int64 array equal to its lex-min row."""
    rows = np.arange(len(blocks))
    for col in blocks.T:
        if len(rows) == 1:
            break
        vals = col[rows]
        rows = rows[vals == vals.min()]
    return rows


def _lex_min_vector(coeffs, scenario, cap):
    """Lexicographically minimal coefficient vector over the relabeling orbit.

    Image slots are processed from the least significant party upward, which
    matches the coordinate order, so keeping only the block-minimal partial
    assignments (tie states) at each stage is exact.  A tie state is a party
    mask and a row of signed source entries, one per image coordinate of the
    slots placed so far: entry u reads coefficient u % D negated when u >= D,
    where D is the vector length.  Per slot, the rows of every (state, free
    party, candidate) triple come from one broadcast and their blocks from
    one gather of order-preserving int64 codes, so big coefficients compare
    exactly; slots over _GATHER_ENTRIES go in chunks.  Distinct triples give
    distinct rows (the slot's entries at suffix 0 fix party and candidate,
    the rest is the state), so the tied rows need no deduplication.  cap
    bounds the number of triples; a slot that would exceed it raises before
    its table and rows are built.
    """
    n = scenario.parties
    size = scenario.dimension + 1
    strides = np.cumprod((1,) + scenario.shape[:0:-1])[::-1]
    values = sorted(set(coeffs) | {-x for x in coeffs})
    code = {v: k for k, v in enumerate(values)}
    plus = [code[x] for x in coeffs]
    # a state entry plus a candidate offset stays below 3 D, so the codes are
    # laid out over three periods and rows are reduced mod 2 D only when kept
    codes = np.array(plus + [code[-x] for x in coeffs] + plus, dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    states = np.zeros((1, 1), dtype=np.int64)
    budget = cap
    for slot in range(n - 1, -1, -1):
        m = scenario.settings[slot]
        parties = np.array([p for p in range(n) if scenario.settings[p] == m])
        state_of, k = np.nonzero((used[:, None] >> parties) & 1 == 0)
        party_of = parties[k]
        budget -= len(state_of) * math.factorial(m) << m
        if budget < 0:
            raise CapExceededError(
                f"canonical form search exceeded the cap of {cap} evaluations; "
                "raise the cap")
        src, neg = _slot_table(m)
        width = states.shape[1]
        step = max(1, _GATHER_ENTRIES // (src.size * width))
        best, kept = None, []
        for lo in range(0, len(state_of), step):
            st, pa = state_of[lo:lo + step], party_of[lo:lo + step]
            offsets = src * strides[pa][:, None, None] + neg * size
            rows = (offsets[..., None] + states[st][:, None, None, :]) \
                .reshape(len(st) * len(src), -1)
            blocks = codes[rows[:, width:]]
            tied = _lex_min_rows(blocks)
            block = blocks[tied[0]].tolist()
            if best is None or block < best:
                best, kept = block, []
            # after the last slot every tied row gives the same vector
            if block == best and (slot or not kept):
                kept.append(((used[st] | (1 << pa))[tied // len(src)], rows[tied] % (2 * size)))
        used = np.concatenate([u for u, _ in kept])
        states = np.concatenate([r for _, r in kept])
    return tuple(-coeffs[u - size] if u >= size else coeffs[u] for u in states[0].tolist())


def canonical_form(ineq, cap=ORBIT_CAP_DEFAULT):
    """Canonical representative of the relabeling class (lex-min, primitive)."""
    prim = ineq.primitive()
    vec = _lex_min_vector(prim.coefficients, prim.scenario, cap)
    return Inequality(prim.scenario, vec)


def classify(ineqs, witnesses=None, cap=ORBIT_CAP_DEFAULT):
    """Group inequalities by canonical form.

    Member counts reflect the inputs as given.  witnesses, when passed, is a
    parallel list of XiAssignment iterables (or None) that get merged per
    class.  Classes are ordered by simplicity: distinct-term count of the
    canonical form, then the canonical coefficient vector.
    """
    cache = {}
    buckets = {}
    for pos, ineq in enumerate(ineqs):
        key = ineq.primitive().coefficients
        if key not in cache:
            cache[key] = canonical_form(ineq, cap=cap)
        canon = cache[key]
        entry = buckets.setdefault(canon.coefficients, [canon, 0, set()])
        entry[1] += 1
        if witnesses is not None and witnesses[pos] is not None:
            entry[2].update(witnesses[pos])
    classes = []
    for canon, count, wit in buckets.values():
        classes.append(EquivalenceClass(
            canonical=canon, members_found=count,
            witnesses=tuple(sorted(wit, key=lambda x: x.label()))))
    classes.sort(key=lambda cl: (term_count(cl.canonical), cl.canonical.coefficients))
    return classes


# ---------------------------------------------------------------------------
# reductions


def _reduction_mask(normals, xi, lower, embed, target):
    """Bool mask of the rows of normals, target normals in cone orientation,
    that substituting xi turns into a positive multiple of lower's normal.

    One product with the embedding map reduces every row at once; a row
    passes when its primitive form is that of lower's normal.  embed lists
    the target parties that lower occupies; xi fixes the others in party
    order.
    """
    reduced = _primitive_rows(_exact_products(
        normals, _embedding_map(lower.scenario, xi, target, embed)))
    want = np.array(lower.primitive().cone_normal().tolist())
    return (reduced == want).all(axis=1)


# ---------------------------------------------------------------------------
# generalization searches


@dataclass(frozen=True)
class ReductionSpec:
    """A lower inequality embedded on specific target parties.

    The lower scenario must match the target setting counts on those
    parties; deterministic outcomes are enumerated for the others.  With
    sweep_orbit the search runs once per relabeling variant of the lower
    inequality, so reducibility is demanded only up to its equivalence
    class rather than to the exact coefficient vector.
    """

    lower: Inequality
    embed: tuple[int, ...]
    sweep_orbit: bool = False


def relabeling_orbit(ineq, cap=ORBIT_CAP_DEFAULT):
    """All distinct relabeled variants of an inequality (bound kept positive).

    The orbit is closed one group factor at a time on coefficient arrays of
    the scenario's shape: each party's axis is gathered with every row of
    its _slot_table, then the axes of equal-setting parties are transposed;
    every stage keeps the distinct arrays.  Entries stay Python ints.
    """
    sc = ineq.scenario
    group_size = math.prod(math.factorial(sc.settings.count(m)) for m in set(sc.settings)) \
        * math.prod(math.factorial(m) << m for m in sc.settings)
    if group_size > cap:
        raise CapExceededError(
            f"relabeling group has {group_size} elements, above the cap of {cap}")

    def distinct(arrays):
        rows = dict.fromkeys(map(tuple, arrays.reshape(-1, sc.dimension + 1).tolist()))
        return np.array(list(rows), dtype=object).reshape((-1,) + sc.shape)

    vecs = np.array(ineq.coefficients, dtype=object).reshape((1,) + sc.shape)
    for p, m in enumerate(sc.settings):
        src, neg = _slot_table(m)
        sign = (1 - 2 * neg).astype(object).reshape(src.shape + (1,) * (sc.parties - 1 - p))
        vecs = distinct(np.moveaxis(np.take(vecs, src, axis=p + 1) * sign, p + 1, 1))
    # transpositions (i j), i < j, in order of j generate each symmetric group
    for j in range(sc.parties):
        for i in range(j):
            if sc.settings[i] == sc.settings[j]:
                vecs = distinct(np.concatenate([vecs, vecs.swapaxes(i + 1, j + 1)]))
    vecs = sorted(map(tuple, vecs.reshape(len(vecs), -1).tolist()))
    return [Inequality(sc, vec) for vec in vecs]


def _xi_space(target, reductions):
    """All joint deterministic-outcome choices, one XiAssignment per reduction."""
    spaces = []
    for spec in reductions:
        extras = tuple(i for i in range(target.parties) if i not in spec.embed)
        per_party = [list(itertools.product((-1, 1), repeat=target.settings[p]))
                     for p in extras]
        spaces.append([XiAssignment(tuple(vals)) for vals in itertools.product(*per_party)])
    return list(itertools.product(*spaces))


def _branch(target, cone, sym, dd_cap, reductions, xi_combo):
    """One deterministic-outcome branch: constraint rows -> surviving facets."""
    # the last reduction's extended behaviors first, the symmetry rows last
    rows = np.vstack([build_extended_behaviors(spec.lower, xi, target, embed=spec.embed)
                      for spec, xi in zip(reductions[::-1], xi_combo[::-1])] + [sym])

    def reduces(lifted):
        mask = np.ones(len(lifted), dtype=bool)
        for spec, xi in zip(reductions, xi_combo):
            mask &= _reduction_mask(lifted, xi, spec.lower, spec.embed, target)
        return mask

    # the reduction check is cheap, so it runs before facet certification
    return [(from_cone_normal(target, lifted), xi_combo)
            for lifted in constrained_facets(cone, rows, cap=dd_cap, accept=reduces)]


def generalize_multi(target, reductions, symmetry, dd_cap=DD_CAP_DEFAULT,
                     orbit_cap=ORBIT_CAP_DEFAULT, workers=1, progress=None):
    """Facets of the target polytope reducing to every lower inequality.

    For each joint choice of deterministic outcomes, tightness on the
    extended behaviors and invariance under the symmetry generators are
    imposed, the projected cone's facets are enumerated, candidates are
    lifted back, reduction-verified, and the survivors facet-checked.  Survivors from all
    branches are merged into equivalence classes.
    """
    for spec in reductions:
        lower_cone = lift_polytope(enumerate_vertices(spec.lower.scenario))
        if not _certify(lower_cone, spec.lower.cone_normal()[None])[2][0]:
            raise ValueError("a lower inequality is not facet-defining on its scenario")
    for gen in symmetry:
        gen.validate(target)
    cone = lift_polytope(enumerate_vertices(target))
    sym = symmetry_rows(symmetry, target)
    variant_lists = []
    for spec in reductions:
        if spec.sweep_orbit:
            variant_lists.append([ReductionSpec(lower=v, embed=spec.embed)
                                  for v in relabeling_orbit(spec.lower, cap=orbit_cap)])
        else:
            variant_lists.append([ReductionSpec(lower=spec.lower, embed=spec.embed)])
    context = (target, cone, sym, dd_cap)
    jobs = [(list(chosen), combo) for chosen in itertools.product(*variant_lists)
            for combo in _xi_space(target, chosen)]
    survivors = []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # each worker receives the cone once; a job is its reductions and xi
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_set_worker_context, initargs=context))
            results = pool.map(_worker_branch, jobs)
        else:
            results = (_branch(*context, *job) for job in jobs)
        for k, found in enumerate(results):
            survivors.extend(found)
            if progress is not None:
                progress(k + 1, len(jobs), len(found))
    # one entry per distinct facet, witnesses merged across branches
    by_vec = {}
    for ineq, combo in survivors:
        entry = by_vec.setdefault(ineq.coefficients, [ineq, set()])
        for xi in combo:
            entry[1].add(xi)
    members = [v[0] for v in by_vec.values()]
    witnesses = [v[1] for v in by_vec.values()]
    return classify(members, witnesses=witnesses, cap=orbit_cap)


# (target, cone, sym, dd_cap) of the generalize_multi call a worker process
# serves, set by the pool initializer
_worker_context = ()


def _set_worker_context(*context):
    global _worker_context
    _worker_context = context


def _worker_branch(job):
    return _branch(*_worker_context, *job)


# ---------------------------------------------------------------------------
# class list files


def write_class_list(classes):
    blocks = []
    for k, cl in enumerate(classes, start=1):
        head = f"class {k}: members={cl.members_found}"
        if cl.witnesses:
            head += " witnesses=" + ",".join(x.label() for x in cl.witnesses)
        blocks.append(head + "\n" + write_inequality(cl.canonical))
    return "\n".join(blocks)


def parse_class_list(text):
    classes = []
    current = None

    def finish():
        if current is None:
            return
        head, lines, start = current
        ineq = parse_inequality("\n".join(lines), start_line=start)
        classes.append(EquivalenceClass(canonical=ineq, members_found=head[0],
                                        witnesses=head[1]))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("class "):
            finish()
            body = line[len("class "):]
            try:
                label, rest = body.split(":", 1)
                fields = dict(part.split("=", 1) for part in rest.split())
                members = int(fields["members"])
                wits = tuple(parse_xi_label(x) for x in fields.get("witnesses", "").split(",") if x) \
                    if "witnesses" in fields else ()
            except (ValueError, KeyError):
                raise ParseError(f"malformed class header {line!r}", line=lineno) from None
            current = ((members, wits), [], lineno + 1)
        elif current is not None:
            current[1].append(raw)
    finish()
    return classes
