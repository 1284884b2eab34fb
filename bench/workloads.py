"""The benchmark's workloads: seeded inputs, the timed operations, the checks.

Each workload builds its inputs from the seed in ``setup`` (the program only
ever sees the generated inputs), lists its operations in ``operations`` and
checks one operation's output in ``check``.  A check raises ``WrongOutput``
for a wrong result and returns the result's bytes, which the worker hashes
to compare a traced pass with an untraced one.

Seed 0 is the default and leaves the inputs as the catalog gives them; any
other seed permutes the vertex order (enumeration) or applies a random local
relabeling to the fixtures (generalize, NPA).  Where the work depends on the
order or the relabeling, a run covers several drawn from its seed (at seed 0
the first is the catalog input), or all of them, so that runs with different
seeds measure comparable work; the seesaw fixtures are never relabeled (see
QuantumFixtures).  Every check below holds for any seed, except the digest
of a whole NPA export, which is asserted for seed 0 alone.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from pathlib import Path

import numpy as np

import conebell
from conebell import catalog, cli
from conebell.npa import parse_sdpa
from conebell.quantum import assert_valid_observable, bell_value

PARTY_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class WrongOutput(Exception):
    """An operation finished but its output is wrong."""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _expect(ok, message):
    if not ok:
        raise WrongOutput(message)


def random_relabeling(rng, settings):
    """(party_map, setting_maps, sign_flips) drawn uniformly; identity without rng."""
    n = len(settings)
    if rng is None:
        return (tuple(range(n)), tuple(tuple(range(1, m + 1)) for m in settings),
                tuple((1,) * m for m in settings))
    party_map = list(range(n))
    for m in sorted(set(settings)):
        group = [i for i in range(n) if settings[i] == m]
        for src, dst in zip(group, rng.permutation(group)):
            party_map[src] = int(dst)
    setting_maps = tuple(tuple(int(s) + 1 for s in rng.permutation(m)) for m in settings)
    sign_flips = tuple(tuple(int(x) for x in rng.choice((-1, 1), size=m)) for m in settings)
    return tuple(party_map), setting_maps, sign_flips


def relabel(ineq, relabeling):
    """The inequality with parties, settings and outcomes renamed."""
    party_map, setting_maps, sign_flips = relabeling
    terms = {}
    for t, coeff in ineq.nonzero_terms():
        image = [0] * len(t)
        sign = 1
        for p, s in enumerate(t):
            if s:
                image[party_map[p]] = setting_maps[p][s - 1]
                sign *= sign_flips[p][s - 1]
        terms[tuple(image)] = sign * coeff
    return conebell.from_terms(ineq.scenario, ineq.bound, terms)


def _rng(seed):
    return np.random.default_rng(seed) if seed else None


def _rngs(seed, count):
    """Generators for count inputs of one seed; at seed 0 the first is None
    (the catalog input unchanged) and the rest are drawn from seed 0."""
    rng = np.random.default_rng(seed)
    return [None if seed == 0 and k == 0 else rng for k in range(count)]


def _index(label):
    """k of an operation labelled "<name> #k"."""
    return int(label.rpartition("#")[2])


def _run_cli(argv):
    code = cli.main(["--workers", "1"] + argv)
    if code != 0:
        raise RuntimeError(f"conebell {argv[0]} exited with code {code}")


def _fresh(path):
    path.unlink(missing_ok=True)
    return str(path)


class EnumerateFacets:
    """All facets of one scenario's local polytope by double description,
    once per vertex order: the work depends on the order, so a run covers
    several orders drawn from the seed."""

    def __init__(self, settings, facets, normals_digest, orders=1):
        self.settings = settings
        self.facets = facets
        self.normals_digest = normals_digest
        self.orders = orders

    def setup(self, seed, workdir):
        vertices = conebell.enumerate_vertices(conebell.Scenario(self.settings))
        cones = []
        for rng in _rngs(seed, self.orders):
            order = range(len(vertices)) if rng is None else rng.permutation(len(vertices))
            cones.append(conebell.lift_polytope([vertices[i] for i in order]))
        return cones

    def operations(self, cones):
        return [(f"facets #{k}", lambda cone=cone: conebell.enumerate_facets_dd(cone))
                for k, cone in enumerate(cones)]

    def check(self, label, facets, cones):
        cone = cones[_index(label)]
        _expect(len(facets) == self.facets, f"{len(facets)} facets, expected {self.facets}")
        normals = np.array([f.vector for f in facets], dtype=np.int64)
        values = cone.rays @ normals.T
        _expect(bool((values <= 0).all()), "a normal is positive on some vertex")
        for k, f in enumerate(facets):
            _expect(tuple(np.nonzero(values[:, k] == 0)[0]) == f.saturating,
                    f"wrong saturating set on facet {k}")
        text = "\n".join(" ".join(map(str, v)) for v in sorted(f.vector for f in facets))
        _expect(digest(text) == self.normals_digest, f"facet normals digest {digest(text)}")
        return "\n".join(f"{f.vector} {f.saturating}" for f in facets).encode()


def parse_class_list(text, scenario):
    """(members, canonical vector with the bound first) per class of a class list."""
    classes = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("class "):
            members = int(line.split("members=")[1].split()[0])
            classes.append([members, [0] * (scenario.dimension + 1)])
        elif line.startswith("bound:"):
            classes[-1][1][0] = int(line.split(":")[1])
        elif line and line[0].isdigit():
            key, value = line.split(":")
            index = np.ravel_multi_index(tuple(int(x) for x in key.split(",")), scenario.shape)
            classes[-1][1][index] = int(value)
    return [(members, tuple(vec)) for members, vec in classes]


class GeneralizeChsh:
    """`conebell generalize` lifting relabelings of CHSH to three parties.

    The facets kept are those invariant under the symmetry generators that
    reduce to the relabeled CHSH on each named pair of parties; every one of
    them belongs to one of the expected classes, the Mermin class among them.
    A relabeling applies one local relabeling (a setting permutation and
    outcome flips) to every party, so that it commutes with the party
    permutations and leaves the classes unchanged.  The work depends on the
    relabeling, so a run covers the first `relabelings` of all eight, in an
    order drawn from the seed (at seed 0 the catalog CHSH comes first).
    """

    def __init__(self, pairs, symmetry, classes, canonical_digest, relabelings=8):
        self.pairs = pairs
        self.symmetry = symmetry
        self.classes = classes
        self.canonical_digest = canonical_digest
        self.relabelings = relabelings

    def setup(self, seed, workdir):
        relabelings = [(perm, flips) for perm in ((1, 2), (2, 1))
                       for flips in itertools.product((1, -1), repeat=2)]
        if seed:
            relabelings = [relabelings[i] for i in _rng(seed).permutation(len(relabelings))]
        paths = []
        for k, (perm, flips) in enumerate(relabelings[:self.relabelings]):
            lower = relabel(catalog.chsh(), ((0, 1), (perm, perm), (flips, flips)))
            path = workdir / f"chsh-{k}.ineq"
            path.write_text(conebell.write_inequality(lower))
            paths.append(path)
        return paths

    def operations(self, paths):
        argv = ["generalize", "--target", "2,2,2", "--quiet"]
        for sym in self.symmetry:
            argv += ["--symmetry", sym]
        return [(f"generalize #{k}", self._op(argv, path)) for k, path in enumerate(paths)]

    def _op(self, argv, path):
        out = path.with_name(f"classes-{path.stem}.txt")
        for pair in self.pairs:
            argv = argv + ["--reduce", f"{path}@{pair}"]

        def run():
            _run_cli(argv + ["--out", _fresh(out)])
            return out
        return run

    def check(self, label, out, paths):
        text = out.read_text()
        classes = parse_class_list(text, conebell.Scenario((2, 2, 2)))
        _expect(len(classes) == self.classes, f"{len(classes)} classes, expected {self.classes}")
        canon = "\n".join(" ".join(map(str, vec)) for vec in sorted(vec for _, vec in classes))
        _expect(digest(canon) == self.canonical_digest, f"canonical forms digest {digest(canon)}")
        _expect(MERMIN in {vec for _, vec in classes}, "the Mermin class is missing")
        return text.encode()


def _parse_seesaw(text, dim):
    value, state, observables = None, None, {}
    for line in text.splitlines():
        if line.startswith("value:"):
            value = float(line.split(":")[1])
        elif line.startswith(("state:", "observable ")):
            head, body = line.split(":")
            nums = [float(x) for x in body.split()]
            vec = np.array(nums[0::2]) + 1j * np.array(nums[1::2])
            if head == "state":
                state = vec
            else:
                _, p, s = head.split()
                observables[int(p), int(s)] = vec.reshape(dim, dim)
    return value, state, observables


def _term_monomial(t):
    return "*".join(f"{PARTY_LETTERS[p]}{s}" for p, s in enumerate(t) if s) or "1"


class QuantumFixtures:
    """`conebell seesaw` and `conebell npa-export` on the catalog fixtures.

    seesaw: (fixture, local dimension, proven upper bound or None, reference
    value and tolerance or None); npa: (fixture, level, digest of the
    moment-matrix structure, digest of the whole export at seed 0).

    The seed relabels the NPA fixtures only.  A relabeled fixture sends the
    seesaw, from the same random starts, along another path: its work moved
    by a sixth between seeds, more than the spread of runs with one seed, and
    only some relabelings reach the reference values.  So the seesaw always
    gets the catalog fixtures, and its reference values are checked on
    every run.
    """

    FIXTURES = {
        "chsh": catalog.chsh,
        "gyni": catalog.gyni,
        "i3322g1": lambda: catalog.i3322_generalization(1),
        "i4422": catalog.i4422,
        "i3322g400": lambda: catalog.i3322_generalization(400),
    }

    def __init__(self, seesaw, npa, restarts=None):
        self.cases = {f"seesaw {c[0]} d{c[1]}": c for c in seesaw}
        self.cases.update({f"npa {c[0]} l{c[1]}": c for c in npa})
        self.restarts = restarts

    def setup(self, seed, workdir):
        rng = _rng(seed)
        inputs = {"seed": seed, "ineqs": {}, "paths": {}, "out": {}}
        for label in sorted(self.cases):
            ineq = self.FIXTURES[self.cases[label][0]]()
            if label.startswith("npa"):
                ineq = relabel(ineq, random_relabeling(rng, ineq.scenario.settings))
            stem = label.replace(" ", "-")
            path = workdir / f"{stem}.ineq"
            path.write_text(conebell.write_inequality(ineq))
            inputs["ineqs"][label] = ineq
            inputs["paths"][label] = str(path)
            inputs["out"][label] = workdir / stem
        return inputs

    def operations(self, inputs):
        ops = []
        for label, (_, param, _, _) in self.cases.items():
            if label.startswith("seesaw"):
                argv = ["seesaw", "--ineq", inputs["paths"][label], "--dim", str(param)]
                if self.restarts:
                    argv += ["--restarts", str(self.restarts)]
            else:
                argv = ["npa-export", "--ineq", inputs["paths"][label], "--level", str(param)]
            ops.append((label, self._op(argv, inputs["out"][label])))
        return ops

    @staticmethod
    def _op(argv, out):
        def run():
            _run_cli(argv + ["--out", _fresh(out)])
            return out
        return run

    def check(self, label, out, inputs):
        case = self.cases[label]
        ineq = inputs["ineqs"][label]
        if label.startswith("seesaw"):
            return self._check_seesaw(case, ineq, out)
        return self._check_npa(case, ineq, out, inputs["seed"])

    @staticmethod
    def _check_seesaw(case, ineq, out):
        name, dim, upper, reference = case
        text = out.read_text()
        value, state, observables = _parse_seesaw(text, dim)
        settings = ineq.scenario.settings
        _expect(value is not None and state is not None, "seesaw result lacks value or state")
        _expect(sorted(observables) == [(p, s) for p in range(len(settings))
                                        for s in range(1, settings[p] + 1)],
                "seesaw result lacks observables")
        _expect(abs(np.linalg.norm(state) - 1) < 1e-9, "state is not normalized")
        for mat in observables.values():
            try:
                assert_valid_observable(mat)
            except ValueError as exc:
                raise WrongOutput(str(exc)) from None
        obs = [[observables[p, s] for s in range(1, m + 1)] for p, m in enumerate(settings)]
        again = bell_value(ineq, obs, state)
        _expect(abs(again - value) <= 1e-8 * max(1.0, abs(value)),
                f"bell_value gives {again}, the result says {value}")
        limit = conebell.algebraic_bound(ineq) if upper is None else upper
        _expect(value <= limit + 1e-6, f"value {value} above the upper bound {limit}")
        if reference is not None:
            target, tol = reference
            _expect(abs(value - target) < tol, f"value {value}, reference {target}")
        return text.encode()

    @staticmethod
    def _check_npa(case, ineq, out, seed):
        name, level, structure_digest, export_digest = case
        sdpa = out.read_text()
        index = Path(str(out) + ".idx").read_text()
        parsed = parse_sdpa(sdpa)
        rebuilt = [f"{parsed['nvars']} = mDIM", f"{parsed['nblocks']} = nBLOCK",
                   f"{parsed['size']} = bLOCKsTRUCT", " ".join(map(str, parsed["c"]))]
        rebuilt += [" ".join(map(str, e)) for e in parsed["entries"]]
        body = [ln for ln in sdpa.splitlines() if ln and not ln.startswith("*")]
        _expect(rebuilt == body, "parse_sdpa does not round-trip the export")
        size = parsed["size"]
        _expect(len(parsed["entries"]) == size * (size + 1) // 2, "wrong number of entries")
        structure = "\n".join(body[:3] + body[4:])
        _expect(digest(structure) == structure_digest, f"moment structure digest {digest(structure)}")
        var_of = {}
        for line in index.splitlines()[1:]:
            head, monomial = line.split(": ")
            var_of[monomial] = int(head.split()[1])
        want = [0] * parsed["nvars"]
        for t, coeff in ineq.nonzero_terms():
            want[var_of[_term_monomial(t)] - 1] = -coeff
        _expect(parsed["c"] == want, "objective row does not match the inequality")
        if seed == 0:
            _expect(digest(sdpa + index) == export_digest, f"export digest {digest(sdpa + index)}")
        return (sdpa + index).encode()


class Combined:
    """Several workloads measured as one: their operations in turn, labelled
    "<part> <label>"."""

    def __init__(self, **parts):
        self.parts = parts

    def setup(self, seed, workdir):
        return {name: wl.setup(seed, workdir) for name, wl in self.parts.items()}

    def operations(self, inputs):
        return [(f"{name} {label}", op) for name, wl in self.parts.items()
                for label, op in wl.operations(inputs[name])]

    def check(self, label, out, inputs):
        name, _, label = label.partition(" ")
        return self.parts[name].check(label, out, inputs[name])


MERMIN = (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, -1, 0, 1, 0)

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    # one workload rather than two, so that each gets longer runs on a host
    # whose speed drifts: DD alone is still resolved by the enum operations'
    # own times and by the traced cone.enumerate_facets_dd.self_s
    "polytope": Combined(
        enum=EnumerateFacets((3, 3), 684, "5a69a43233019395", orders=4),
        generalize=GeneralizeChsh(("A,B",), ("perm:ABC->BCA",), 6, "93a1876bf0e78e2e")),
    "quantum-fixtures": QuantumFixtures(
        # upper bounds: Tsirelson's for CHSH, no quantum violation of GYNI,
        # and the published NPA level-3 value 16.0 for I3322 generalization 1
        seesaw=[("chsh", 2, 2 * math.sqrt(2), (2 * math.sqrt(2), 1e-6)),
                ("gyni", 2, 4.0, None),
                ("gyni", 3, 4.0, None),
                ("i3322g1", 2, 16.0 + 1e-3, (16.0, 1e-3)),
                ("i4422", 2, None, (8.0, 5e-3)),
                ("i4422", 3, None, (8.15, 5e-3))],
        npa=[("i4422", 3, "05e67976b6634a70", "61715d5d1975bf8c"),
             ("i3322g400", 3, "0e4970d124f7a8ba", "d39e251e44c4d0fe")]),
}

# Tiny inputs for the self-test: same code paths, seconds instead of minutes.
SMOKE = {
    "enum-2x2": EnumerateFacets((2, 2), 24, "86fd5a1900de5298"),
    "generalize-chsh3-pairs": GeneralizeChsh(("A,B", "A,C", "B,C"), (), 10, "f738eb02e9594f14",
                                             relabelings=1),
    "quantum-chsh": QuantumFixtures(
        seesaw=[("chsh", 2, 2 * math.sqrt(2), None)],
        npa=[("chsh", 1, "03b1472b47a581de", "47ee747adbb1fe0e")], restarts=3),
}
