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
themselves.  relabeling_orbit sweeps the group through constraints._maps.

A generalization search does its per-reduction work once: _reduction_options
checks the embedding, certifies the lower inequality on one enumeration of
its vertices and returns an option (label, extended behaviors, M n) per
lower variant and xi.  A branch (job) takes one option per reduction
(itertools.product) and is one constrained_facets call in the symmetric
subspace, spanned by signed orbit sums (constraints.invariant_basis);
survivors merge by lifted normal, and a class is witnessed by the labels of
the branches that found it.  Many jobs are relabelings of one another
(Bancal, Gisin and Pironio 2010): the group G of _search_group maps jobs
onto jobs, only the first job of each orbit runs, and the other jobs'
survivors are its survivors mapped by one element of G, with no DD,
certification or canonical form of their own.  G is carried by generators,
and a breadth-first search over the jobs finds the orbits and one element of
G per job (_job_orbits): the work grows with generators times jobs, never
with the size of G times jobs.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .cone import DD_CAP_DEFAULT, _certify, _exact_products, constrained_facets, local_cone
from .constraints import (_embedding_map, _maps, _party_maps, _slot_rows, _slot_table,
                          invariant_basis)
from .errors import CapExceededError, ParseError
from .exactlinalg import integer_kernel_basis
from .inequality import (Inequality, from_cone_normal, parse_inequality, term_count,
                         write_inequality)
from .scenario import VERTEX_CAP_DEFAULT

ORBIT_CAP_DEFAULT = 10_000_000
# entries of one canonical-form gather (8 MB of int64); a slot whose rows are
# more is gathered in chunks of whole (state, party) pairs
_GATHER_ENTRIES = 1 << 20
# a branch label: one xi label per reduction, joined by |, each prefixed by
# vK: when it comes from the K-th variant of an orbit sweep
_XI = r"(?:v[1-9][0-9]*:)?(?:\(\)|[+-]+(?:;[+-]+)*)"
_WITNESS = re.compile(rf"{_XI}(?:\|{_XI})*")


@dataclass(frozen=True)
class EquivalenceClass:
    canonical: Inequality
    members_found: int
    witnesses: tuple[str, ...] = ()


@functools.lru_cache(maxsize=None)
def _party_generators(m):
    """Rows of _slot_table(m) that generate all of its rows: the flip of
    setting 1, the swap of settings 1 and 2 and the cycle of settings 1..m,
    the identity left out."""
    settings = tuple(range(1, m + 1))
    plain = (0,) * (m + 1)
    wanted = [((0,) + settings, (0, 1) + (0,) * (m - 1)),
              ((0,) + settings[1:2] + settings[:1] + settings[2:], plain),
              ((0,) + settings[1:] + settings[:1], plain)]
    return sorted({_slot_rows(m)[key] for key in wanted} - {0})


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


def classify(ineqs, witnesses=None, cap=ORBIT_CAP_DEFAULT, counts=None):
    """Group inequalities by canonical form.

    Each input is one member, or counts[k] members when counts, a parallel
    list, is passed.  witnesses, when passed, is a parallel list of branch
    label iterables (or None) that get merged per class.  Classes are
    ordered by simplicity: distinct-term count of the canonical form, then
    the canonical coefficient vector.
    """
    cache = {}
    buckets = {}
    for pos, ineq in enumerate(ineqs):
        key = ineq.primitive().coefficients
        if key not in cache:
            cache[key] = canonical_form(ineq, cap=cap)
        canon = cache[key]
        entry = buckets.setdefault(canon.coefficients, [canon, 0, set()])
        entry[1] += 1 if counts is None else counts[pos]
        if witnesses is not None and witnesses[pos] is not None:
            entry[2].update(witnesses[pos])
    classes = [EquivalenceClass(canon, count, tuple(sorted(wit)))
               for canon, count, wit in buckets.values()]
    classes.sort(key=lambda cl: (term_count(cl.canonical), cl.canonical.coefficients))
    return classes


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


def _local_group(scenario, perms=(None,)):
    """(rows, src, sign) chunks of about _GATHER_ENTRIES entries of every
    local relabeling, one _slot_table row per party, and its gather under
    each party map of perms."""
    rows = np.indices([len(_slot_table(m)[0]) for m in scenario.settings]) \
        .reshape(scenario.parties, -1).T
    step = max(1, _GATHER_ENTRIES // (scenario.dimension + 1))
    for perm in perms:
        for lo in range(0, len(rows), step):
            yield (rows[lo:lo + step], *_maps(scenario, rows[lo:lo + step], perm))


def relabeling_orbit(ineq, cap=ORBIT_CAP_DEFAULT):
    """All distinct relabeled variants of an inequality, sorted, from one
    sweep of the group (_local_group) over the ranks of the coefficients
    and their negations; cap bounds the size of the group."""
    sc = ineq.scenario
    group = len(_party_maps(sc.settings)) * math.prod(math.factorial(m) << m for m in sc.settings)
    if group > cap:
        raise CapExceededError(f"relabeling group has {group} elements, above the cap of {cap}")
    coeffs = np.array(ineq.coefficients, dtype=object)
    # codes[u] ranks coeffs[u] in values, and codes[u + D + 1] ranks -coeffs[u]
    values, codes = np.unique(np.concatenate([coeffs, -coeffs]), return_inverse=True)
    images = set()
    for _, src, sign in _local_group(sc, _party_maps(sc.settings)):
        images.update(map(tuple, codes[src + len(coeffs) * (sign < 0)].tolist()))
    return [Inequality(sc, vec) for vec in values[np.array(sorted(images))].tolist()]


def _reduction_options(target, spec, orbit_cap, vertex_cap):
    """Branch options of one reduction: (label, V M^T, M n) per lower variant
    (outer loop) and choice xi of the extra parties' outcomes (inner loop),
    for the variant's saturating vertices V, cone normal n and embedding map
    M, applied as its signed gather (constraints._embedding_map).  The
    variants are the lower inequality, or its relabeling_orbit when swept;
    the label is xi's, prefixed by vK: for the K-th variant of a sweep.  One
    enumeration of the lower vertices serves the facet certificate and every
    saturating set."""
    lower, embed = spec.lower, spec.embed
    bad = sorted({p for p in embed if embed.count(p) > 1 or not 0 <= p < target.parties})
    if bad:
        raise ValueError(f"embedded parties {bad} are repeated or not among the "
                         f"target's {target.parties} parties")
    if tuple(target.settings[i] for i in embed) != lower.scenario.settings:
        raise ValueError("embedded parties do not match the lower scenario's settings")
    cone = local_cone(lower.scenario, cap=vertex_cap)
    if not _certify(cone, lower.cone_normal()[None])[0]:
        raise ValueError("a lower inequality is not facet-defining on its scenario")
    verts = cone.rays
    variants = relabeling_orbit(lower, cap=orbit_cap) if spec.sweep_orbit else [lower]
    extras = [p for p in range(target.parties) if p not in embed]
    xis = list(itertools.product(
        *(itertools.product((-1, 1), repeat=target.settings[p]) for p in extras)))
    # one +- string per extra party, joined by ;, or () when there is none
    labels = [";".join("".join("+" if x > 0 else "-" for x in v) for v in xi) or "()"
              for xi in xis]
    sel, sgn = _embedding_map(xis, target, embed)
    options = []
    for k, variant in enumerate(variants, start=1):
        normal = variant.cone_normal()
        tight = verts[verts @ normal == 0][:, sel]
        prefix = f"v{k}:" if spec.sweep_orbit else ""
        options.extend((prefix + label, tight * row, normal[sel] * row)
                       for label, row in zip(labels, sgn))
    return options


def _stabilizer(ineq):
    """Slot-table rows, one column per party, of the local relabelings that
    keep every party in place and fix ineq coefficient for coefficient: a
    brute force over all of them."""
    coeffs = np.array(ineq.coefficients)
    return np.concatenate([rows[(coeffs[src] * sign == coeffs).all(axis=1)]
                           for rows, src, sign in _local_group(ineq.scenario)])


def _search_group(target, reductions, basis, cap, limit):
    """Generators (src, sign) of the group G of target relabelings that keep
    every party in place, fix each unswept lower inequality on its embedded
    parties (_stabilizer), act by any local relabeling on the other parties,
    and map the symmetric subspace, the span of basis (invariant_basis),
    into itself (constraints._maps of table rows, the identity left out).

    The relabelings that pass the first three tests are the joined
    stabilizers times the whole local group of each free party.  When basis
    spans every coordinate (no symmetry) that product is G, generated by the
    stabilizer elements and each free party's _party_generators.  Otherwise
    each candidate that passes the last test, in chunks, is a generator: the
    columns of basis are signed indicators of disjoint orbits, so it passes
    iff each coordinate off them reads none and each orbit reads one orbit
    (or none) with one relative sign.  There is no generator (G is the
    identity alone) when a lower scenario has more local relabelings than
    cap or there are more candidates to test; past limit generators, the
    first limit generate a subgroup of G, whose orbits only split into more.
    """
    order = [len(_slot_table(m)[0]) for m in target.settings]
    rows = np.zeros((1, target.parties), dtype=np.int64)
    fixed = np.zeros(target.parties, dtype=bool)
    for spec in reductions:
        if spec.sweep_orbit:
            continue
        embed = np.array(spec.embed)
        if math.prod(order[p] for p in embed) > cap:
            return _maps(target, rows[:0])
        stab = _stabilizer(spec.lower)
        # a party shared with an earlier reduction must agree with it
        shared = fixed[embed]
        i, j = np.nonzero((rows[:, None, embed[shared]] == stab[None, :, shared]).all(axis=2))
        rows = rows[i]
        rows[:, embed] = stab[j]
        fixed[embed] = True
    free = np.flatnonzero(~fixed)
    if basis.shape[1] == target.dimension + 1:
        for p in free:
            gens = np.zeros((len(_party_generators(target.settings[p])), target.parties),
                            dtype=np.int64)
            gens[:, p] = _party_generators(target.settings[p])
            rows = np.concatenate([rows, gens])
        return _maps(target, rows[rows.any(axis=1)][:limit])
    sizes = [order[p] for p in free]
    per_row = math.prod(sizes)
    if len(rows) * per_row > cap:
        return _maps(target, rows[:0])
    # each coordinate's signed orbit number (0 off the orbits) and orbit start
    label = basis @ np.arange(1, basis.shape[1] + 1)
    first = np.abs(basis).argmax(axis=0)[np.abs(label) - 1]
    kept = []
    step = max(1, _GATHER_ENTRIES // (target.dimension + 1))
    for lo in range(0, len(rows) * per_row, step):
        flat = np.arange(lo, min(lo + step, len(rows) * per_row))
        cand = rows[flat // per_row]
        if len(free):
            cand[:, free] = np.transpose(np.unravel_index(flat % per_row, sizes))
        src, sign = _maps(target, cand)
        # one value per (orbit read, sign relative to the reader), 0 for none
        read = label[src] * sign * np.where(label < 0, -1, 1)
        cand = cand[(read == read[:, first] * (label != 0)).all(axis=1)]
        kept.append(cand[cand.any(axis=1)])
        if sum(map(len, kept)) >= limit:
            break
    return _maps(target, np.concatenate(kept)[:limit])


def _job_orbits(options, src, sign):
    """(source, (msrc, msign)) for the jobs itertools.product(*options) under
    the group generated by the signed permutations (src[i], sign[i]):
    source[j] is the first job of j's orbit, and (msrc[j], msign[j]) is a
    relabeling of the group, a product of generators, that maps source[j]
    onto j (the identity on the first job).  A relabeling g maps an option
    (label, V M^T, M n) onto the option of the same reduction whose row M n
    is (M n)[src] * sign, and a job onto the job of its options' images.
    A breadth-first search from each first job composes one generator per
    step, so the work is one image per (generator, option) and (generator,
    job), and one relabeling per job.
    """
    sizes = [len(opts) for opts in options]
    digits = np.indices(sizes).reshape(len(sizes), math.prod(sizes))
    image = np.zeros((len(src), digits.shape[1]), dtype=np.int64)
    for opts, column in zip(options, digits):
        index = {tuple(w.tolist()): k for k, (_, _, w) in enumerate(opts)}
        mapped = (np.array([w for _, _, w in opts])[:, src] * sign).transpose(1, 0, 2)
        table = np.array([[index[tuple(w)] for w in row] for row in mapped.tolist()],
                         dtype=np.int64).reshape(len(src), len(opts))
        image = image * len(opts) + table[:, column]
    source = np.full(digits.shape[1], -1)
    msrc = np.tile(np.arange(src.shape[1]), (digits.shape[1], 1))
    msign = np.ones_like(msrc)
    for first in range(digits.shape[1]):
        if source[first] >= 0:
            continue
        source[first] = first
        queue = [first]
        for u in queue:
            reached, gen = np.unique(image[:, u], return_index=True)
            new = source[reached] < 0
            reached, gen = reached[new], gen[new]
            source[reached] = first
            # generator gen after the relabeling that reaches u
            msrc[reached] = msrc[u][src[gen]]
            msign[reached] = msign[u][src[gen]] * sign[gen]
            queue.extend(reached.tolist())
    return source, (msrc, msign)


def _branch(cone, sym_basis, dd_cap, job):
    """The certified lifted facet normals of one branch, a job of one option
    per reduction.  The candidates are tight on every option's extended
    behaviors E and invariant under the symmetries: they span the columns of
    B K, for B the invariant basis and K the kernel of E B."""
    ext = np.vstack([ext for _, ext, _ in job])
    kernel = integer_kernel_basis(_exact_products(ext, sym_basis), columns=sym_basis.shape[1])
    positive = np.array([w for _, _, w in job])
    return constrained_facets(cone, _exact_products(sym_basis, kernel), positive, cap=dd_cap)


def generalize_multi(target, reductions, symmetry, dd_cap=DD_CAP_DEFAULT,
                     orbit_cap=ORBIT_CAP_DEFAULT, vertex_cap=VERTEX_CAP_DEFAULT, workers=1,
                     progress=None):
    """Facets of the target polytope reducing to every lower inequality.

    A branch (job) takes one option per reduction (see _reduction_options):
    tightness on its extended behaviors and invariance under the symmetry
    generators are imposed, and constrained_facets keeps the facets c with
    c . (M n) > 0 for each option's M n: a lower inequality is a facet, so c
    reduces to a multiple of n.  A branch whose kernel is orthogonal to some
    M n skips its DD and reports no survivor.  Survivors from all branches
    (_survivors) are merged by lifted normal into equivalence classes, each
    witnessed by the labels of the branches that found it: the options'
    labels in reduction order, joined by |.  A survivor mapped from another
    branch's is in that survivor's class, so only the survivors of the
    branches that ran get a canonical form.
    """
    members, witnesses = {}, {}
    for origin, labels in _survivors(target, reductions, symmetry, dd_cap, orbit_cap,
                                     vertex_cap, workers, progress).values():
        members[origin] = members.get(origin, 0) + 1
        witnesses.setdefault(origin, set()).update(labels)
    return classify([from_cone_normal(target, vec) for vec in members],
                    witnesses=list(witnesses.values()), cap=orbit_cap,
                    counts=list(members.values()))


def _survivors(target, reductions, symmetry, dd_cap, orbit_cap, vertex_cap, workers, progress):
    """{lifted normal: [origin, labels]} over every job of a search.

    The jobs fall into orbits of the group G of _search_group (_job_orbits),
    and _branch runs on the first job of each.  Each generator of G costs
    one image per option entry and per job, and orbit_cap bounds their
    total.  A relabeling g of G that maps job J onto J' maps the certified
    survivors of J onto those of J': it maps the polytope onto itself, the
    symmetric subspace onto itself, and each option's extended behaviors
    and row M n onto the image option's.  So J''s survivors are J's mapped
    by g, and their origin is the survivor of the job that ran.
    progress(done, total, found) fires once per job, each image right after
    the job that ran.
    """
    options = [_reduction_options(target, spec, orbit_cap, vertex_cap) for spec in reductions]
    basis = invariant_basis(symmetry, target)
    context = (local_cone(target, cap=vertex_cap), basis, dd_cap)
    jobs = list(itertools.product(*options))
    cost = sum(map(len, options)) * (target.dimension + 1) + len(jobs)
    source, (msrc, msign) = _job_orbits(options, *_search_group(
        target, reductions, basis, orbit_cap, orbit_cap // cost))
    runs = np.flatnonzero(source == np.arange(len(jobs)))
    # a fork pool starts all its processes at the first submit, so it gets
    # no more than there are jobs to run
    pool_size = min(workers, len(runs))
    found = {}
    done = 0
    with contextlib.ExitStack() as stack:
        if pool_size > 1:
            # imported here so that a serial run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # each worker receives the cone once; a job is its options
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=pool_size, initializer=_set_worker_context, initargs=context))
            results = pool.map(_worker_branch, [jobs[j] for j in runs])
        else:
            results = (_branch(*context, jobs[j]) for j in runs)
        for run, lifted in zip(runs, results):
            origins = [tuple(vec.tolist()) for vec in lifted]
            for j in np.flatnonzero(source == run):
                label = "|".join(label for label, _, _ in jobs[j])
                for origin, vec in zip(origins, lifted):
                    image = tuple((vec[msrc[j]] * msign[j]).tolist())
                    found.setdefault(image, [origin, set()])[1].add(label)
                done += 1
                if progress is not None:
                    progress(done, len(jobs), len(lifted))
    return found


# (cone, invariant basis, dd_cap) of the search a worker process serves,
# set by the pool initializer
_worker_context = ()


def _set_worker_context(*context):
    global _worker_context
    _worker_context = context


def _worker_branch(job):
    return _branch(*_worker_context, job)


# ---------------------------------------------------------------------------
# class list files


def write_class_list(classes):
    blocks = []
    for k, cl in enumerate(classes, start=1):
        head = f"class {k}: members={cl.members_found}"
        if cl.witnesses:
            head += " witnesses=" + ",".join(cl.witnesses)
        blocks.append(head + "\n" + write_inequality(cl.canonical))
    return "\n".join(blocks)


def parse_class_list(text):
    """The classes of a write_class_list text.  The k-th header, class k:,
    opens each block, and an inequality with no other field follows it.  A
    header holds members=, a positive count, and optionally witnesses=, each
    once.  Before the first header only blank and # comment lines may stand."""
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if line.lstrip().startswith("class ")]
    for i, line in enumerate(lines[:heads[0] if heads else len(lines)]):
        if line.strip() and not line.lstrip().startswith("#"):
            raise ParseError(f"line {line.strip()!r} before the first class header", line=i + 1)
    classes = []
    for k, (a, b) in enumerate(zip(heads, heads[1:] + [len(lines)]), start=1):
        try:
            number, _, fields = lines[a].partition(":")
            pairs = [part.split("=", 1) for part in fields.split()]
            head = dict(pairs)
            members = int(head["members"])
            wits = tuple(head["witnesses"].split(",")) if "witnesses" in head else ()
            if number.split() != ["class", str(k)] or len(head) < len(pairs) \
                    or not head.keys() <= {"members", "witnesses"} or members < 1 \
                    or not all(_WITNESS.fullmatch(x) for x in wits):
                raise ValueError
        except (ValueError, KeyError):
            raise ParseError(f"malformed class header {lines[a].strip()!r}", line=a + 1) from None
        ineq = parse_inequality("\n".join(lines[a + 1:b]), start_line=a + 2)
        classes.append(EquivalenceClass(canonical=ineq, members_found=members, witnesses=wits))
    return classes
