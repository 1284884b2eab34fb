"""Command line surface.

Subcommands: facets, generalize, classify, seesaw, metrics, npa-export,
report.  Each input has one route: the resource caps and the worker count
are global flags, a search names its target scenario and its lower
inequalities with --target and --reduce, and NPA values come in as --npa2
and --npa3.  Exit codes: 0 success, 2 parse error, 3 resource cap
exceeded, 4 invariant violation in the inputs.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path

from . import catalog
from .cone import DD_CAP_DEFAULT, enumerate_facets_dd, local_cone
from .constraints import parse_relabeling
from .errors import CapExceededError, InvariantViolationError, ParseError
from .inequality import (algebraic_bound, from_cone_normal, parse_inequality, read_field,
                         read_fields, render, write_inequality)
from .quantum import (BoundsRecord, SeesawConfig, metrics, replay_seesaw_result, seesaw,
                      write_seesaw_result)
from .npa import export_sdpa
from .scenario import VERTEX_CAP_DEFAULT, _PARTY_LETTERS, Scenario
from .search import (ORBIT_CAP_DEFAULT, ReductionSpec, classify, generalize_multi,
                     parse_class_list, write_class_list)

def _scenario_from_arg(text):
    return Scenario(tuple(int(x) for x in text.split(",")))


def _read_inequality(path):
    return parse_inequality(Path(path).read_text())


def _write(path, text):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_facets(args):
    scenario = _scenario_from_arg(args.scenario)
    cone = local_cone(scenario, cap=args.vertex_cap)
    facets = enumerate_facets_dd(cone, cap=args.dd_cap)
    ineqs = [from_cone_normal(scenario, f.vector) for f in facets]
    classes = classify(ineqs, cap=args.orbit_cap)
    # positivity is its own canonical form (see its docstring)
    trivial_canon = catalog.positivity(scenario).coefficients
    trivial = sum(cl.members_found for cl in classes
                  if cl.canonical.coefficients == trivial_canon)
    print(f"facets: {len(facets)}")
    print(f"classes: {len(classes)}")
    print(f"trivial facets: {trivial}")
    print(f"non-trivial facets: {len(facets) - trivial}")
    for k, cl in enumerate(classes, start=1):
        tag = " (trivial)" if cl.canonical.coefficients == trivial_canon else ""
        print(f"class {k}: members={cl.members_found}{tag}  {render(cl.canonical)}")
    if args.out:
        _write(args.out, write_class_list(classes))
    return 0


def _parse_parties(text, scenario):
    out = []
    for ch in text.split(","):
        ch = ch.strip()
        if len(ch) != 1 or ch not in _PARTY_LETTERS[:scenario.parties]:
            raise ParseError(f"bad party name {ch!r}")
        if _PARTY_LETTERS.index(ch) in out:
            raise ParseError(f"party {ch!r} named twice")
        out.append(_PARTY_LETTERS.index(ch))
    return tuple(out)


def cmd_generalize(args):
    target = _scenario_from_arg(args.target)
    reductions = []
    for spec in args.reduce:
        if "@" not in spec:
            raise ParseError(f"--reduce needs FILE@PARTIES, got {spec!r}")
        path, parties = spec.rsplit("@", 1)
        sweep = parties.endswith("?orbit")
        if sweep:
            parties = parties[:-len("?orbit")]
        reductions.append(ReductionSpec(lower=_read_inequality(path),
                                        embed=_parse_parties(parties, target),
                                        sweep_orbit=sweep))
    symmetry = [parse_relabeling(s, target) for s in (args.symmetry or [])]

    def progress(done, total, found):
        print(f"branch {done}/{total}: {found} surviving facets", file=sys.stderr)

    classes = generalize_multi(target, reductions, symmetry, dd_cap=args.dd_cap,
                               orbit_cap=args.orbit_cap, vertex_cap=args.vertex_cap,
                               workers=args.workers,
                               progress=progress if not args.quiet else None)
    print(f"classes: {len(classes)}")
    for k, cl in enumerate(classes, start=1):
        print(f"class {k}: members={cl.members_found} bound={cl.canonical.bound}")
    if args.out:
        _write(args.out, write_class_list(classes))
    return 0


def cmd_classify(args):
    text = Path(args.input).read_text()
    first = next((ln for ln in map(str.strip, text.splitlines())
                  if ln and not ln.startswith("#")), "")
    # a class list keeps its member counts and witnesses; classes whose
    # canonical forms coincide merge
    counts = witnesses = None
    if first.startswith("class "):
        parsed = parse_class_list(text)
        members = [cl.canonical for cl in parsed]
        counts = [cl.members_found for cl in parsed]
        witnesses = [cl.witnesses for cl in parsed]
    else:
        members, start = [], 1
        for block in text.split("\n\n"):
            if block.strip():
                members.append(parse_inequality(block, start_line=start))
            start += block.count("\n") + 2
    classes = classify(members, witnesses=witnesses, cap=args.orbit_cap, counts=counts)
    # stdout may carry the class list itself, which must parse back
    print(f"classes: {len(classes)}", file=sys.stdout if args.out else sys.stderr)
    _write(args.out, write_class_list(classes))
    return 0


def cmd_seesaw(args):
    ineq = _read_inequality(args.ineq)
    config = SeesawConfig(local_dim=args.dim, restarts=args.restarts,
                          warmup_iterations=args.warmup, survivors=args.survivors,
                          tolerance=args.tolerance, max_iterations=args.max_iterations,
                          seed=args.seed)
    result = seesaw(ineq, config)
    print(f"value: {result.value:.9f} (classical bound {ineq.bound})")
    if args.out:
        _write(args.out, write_seesaw_result(ineq, result, config))
    return 0


def write_record(ineq, rec, m=None, seesaw_text=None):
    """The result-record format: inequality, bounds, optional qubit state and
    settings carried over from a seesaw file, and the metric quadruple."""
    lines = [write_inequality(ineq, comments=False).rstrip("\n"),
             f"algebraic: {rec.algebraic}"]
    for name in ("qubit", "qutrit", "npa2", "npa3"):
        val = getattr(rec, name)
        if val is not None:
            lines.append(f"{name}: {val:.17g}")
    if seesaw_text is not None:
        for raw in seesaw_text.splitlines():
            if raw.startswith(("state:", "observable ")):
                lines.append(raw)
    if m is not None:
        lines.append(f"m_Q: {m.relative_qutrit_violation:.17g}")
        lines.append(f"m_32: {m.qutrit_qubit_ratio:.17g}")
        if m.npa_qutrit_ratio is not None:
            lines.append(f"m_N: {m.npa_qutrit_ratio:.17g} (level {m.npa_level})")
        lines.append(f"m_A: {m.algebraic_classical_ratio:.17g}")
    return "\n".join(lines) + "\n"


def _read_seesaw_file(path, ineq, qubit, qutrit, slack=1e-6):
    """Text of a seesaw file whose inequality is ineq and whose replayed
    value is the --qubit or --qutrit value, by its dim: line, within slack."""
    text = Path(path).read_text()
    file_ineq, dim, value = replay_seesaw_result(text)
    if file_ineq != ineq:
        raise InvariantViolationError("the seesaw file is for another inequality than --ineq")
    name, claimed = {2: ("qubit", qubit), 3: ("qutrit", qutrit)}[dim]
    if abs(value - claimed) > slack:
        raise InvariantViolationError(
            f"--{name} {claimed!r} differs from the seesaw file's value {value!r}")
    return text


def cmd_metrics(args):
    ineq = _read_inequality(args.ineq)
    seesaw_text = None
    if args.seesaw_file:
        seesaw_text = _read_seesaw_file(args.seesaw_file, ineq, args.qubit, args.qutrit)
    rec = BoundsRecord(classical=ineq.bound, algebraic=algebraic_bound(ineq),
                       qubit=args.qubit, qutrit=args.qutrit, npa2=args.npa2, npa3=args.npa3)
    m = metrics(rec)
    print(f"algebraic bound: {rec.algebraic}")
    print(f"m_Q  = {m.relative_qutrit_violation:.2f}%")
    print(f"m_32 = {m.qutrit_qubit_ratio:.2f}%")
    if m.npa_qutrit_ratio is not None:
        star = "" if m.npa_level == 3 else " (level-2 value)"
        print(f"m_N  = {m.npa_qutrit_ratio:.2f}%{star}")
    else:
        print("m_N  = not available (no NPA value imported)")
    print(f"m_A  = {m.algebraic_classical_ratio:.2f}%")
    if args.out:
        _write(args.out, write_record(ineq, rec, m=m, seesaw_text=seesaw_text))
    return 0


def cmd_npa_export(args):
    ineq = _read_inequality(args.ineq)
    sdpa, index = export_sdpa(ineq, args.level)
    out = Path(args.out)
    out.write_text(sdpa)
    Path(str(out) + ".idx").write_text(index)
    print(f"wrote {out} and {out}.idx")
    return 0


def parse_record(text):
    """(inequality, BoundsRecord) of a record; the algebraic bound is computed
    from the inequality, and an algebraic: line that differs from it raises
    InvariantViolationError.  A line that write_record does not write, such
    as an observable of a party or setting the inequality lacks, raises
    ParseError."""
    ineq, fields = read_fields(text)
    if ineq is None:
        raise ParseError("the record holds no inequality")
    sc = ineq.scenario
    written = {"state", "m_Q", "m_32", "m_N", "m_A"} | {
        f"observable {p} {s}" for p in range(sc.parties) for s in range(1, sc.settings[p] + 1)}
    algebraic = algebraic_bound(ineq)
    values = {}
    for key, field in fields.items():
        if key in ("qubit", "qutrit", "npa2", "npa3"):
            values[key] = read_field(field)
        elif key == "algebraic":
            if read_field(field) != algebraic:
                raise InvariantViolationError(
                    f"the record's algebraic bound {field[0]} (line {field[1]}) differs "
                    f"from the inequality's {algebraic}")
        elif key not in written:
            raise ParseError(f"unrecognized line '{key}: {field[0]}'", line=field[1])
    rec = BoundsRecord(classical=ineq.bound, algebraic=algebraic, **values)
    return ineq, rec


def cmd_report(args):
    rows = []
    for path in args.records:
        ineq, rec = parse_record(Path(path).read_text())
        rec.check()
        m = metrics(rec)
        rows.append({
            "record": path, "bound": rec.classical, "algebraic": rec.algebraic,
            "qubit": rec.qubit, "qutrit": rec.qutrit,
            "npa": rec.npa3 if rec.npa3 is not None else rec.npa2,
            "m_Q": round(m.relative_qutrit_violation, 2),
            "m_32": round(m.qutrit_qubit_ratio, 2),
            "m_N": None if m.npa_qutrit_ratio is None else round(m.npa_qutrit_ratio, 2),
            "m_A": round(m.algebraic_classical_ratio, 2),
        })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


def _integer_at_least(low):
    """Argparse type of an integer flag whose values start at low; anything
    else is a parse error that names the flag."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return value
    return parse


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and shared by every main
    call; parse_args gives each call fresh values."""
    parser = argparse.ArgumentParser(prog="conebell")
    parser.add_argument("--workers", type=_integer_at_least(1), default=1,
                        help="worker pool size, at least 1")
    parser.add_argument("--seed", type=int, default=SeesawConfig.seed, help="PRNG seed")
    parser.add_argument("--dd-cap", type=_integer_at_least(0), default=DD_CAP_DEFAULT,
                        help="most rays a double description may hold; above it the "
                             "exit code is 3")
    parser.add_argument("--orbit-cap", type=_integer_at_least(0), default=ORBIT_CAP_DEFAULT,
                        help="most relabeling blocks a canonical form or orbit may "
                             "evaluate; above it the exit code is 3")
    parser.add_argument("--vertex-cap", type=_integer_at_least(0), default=VERTEX_CAP_DEFAULT,
                        help="most deterministic vertices a scenario may have; above it "
                             "the exit code is 3")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facets", help="enumerate and classify all facets")
    p.add_argument("scenario", help="comma-separated setting counts, e.g. 2,2")
    p.add_argument("--out", help="write a class list file")

    p = sub.add_parser("generalize", help="search facets reducing to lower inequalities")
    p.add_argument("--target", required=True,
                   help="comma-separated setting counts of the target scenario")
    p.add_argument("--reduce", action="append", required=True,
                   help="FILE@PARTIES, e.g. chsh.ineq@B,C; append ?orbit to sweep "
                        "the lower inequality's relabeling variants (repeatable)")
    p.add_argument("--symmetry", action="append",
                   help="relabeling the facets must be invariant under (repeatable)")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", help="write a class list file")

    p = sub.add_parser("classify", help="classify inequalities from a file")
    p.add_argument("input")
    p.add_argument("--out")

    p = sub.add_parser("seesaw", help="lower-bound the quantum violation")
    p.add_argument("--ineq", required=True)
    p.add_argument("--dim", type=int, default=SeesawConfig.local_dim, choices=(2, 3))
    p.add_argument("--restarts", type=int, default=SeesawConfig.restarts)
    p.add_argument("--warmup", type=int, default=SeesawConfig.warmup_iterations)
    p.add_argument("--survivors", type=int, default=SeesawConfig.survivors)
    p.add_argument("--tolerance", type=float, default=SeesawConfig.tolerance)
    p.add_argument("--max-iterations", type=int, default=SeesawConfig.max_iterations)
    p.add_argument("--out")

    p = sub.add_parser("metrics", help="comparison ratios from imported bounds")
    p.add_argument("--ineq", required=True)
    p.add_argument("--qubit", type=float, required=True)
    p.add_argument("--qutrit", type=float, required=True)
    p.add_argument("--npa2", type=float, help="level-2 NPA bound from an external solver")
    p.add_argument("--npa3", type=float, help="level-3 NPA bound from an external solver")
    p.add_argument("--seesaw-file", help="seesaw output whose value is --qubit or --qutrit; "
                                         "it is replayed, and its state and settings are "
                                         "copied into the record")
    p.add_argument("--out")

    p = sub.add_parser("npa-export", help="write a sparse SDPA relaxation")
    p.add_argument("--ineq", required=True)
    p.add_argument("--level", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="CSV of bounds and ratios per record")
    p.add_argument("records", nargs="+")
    p.add_argument("--out")
    return parser


_COMMANDS = {
    "facets": cmd_facets,
    "generalize": cmd_generalize,
    "classify": cmd_classify,
    "seesaw": cmd_seesaw,
    "metrics": cmd_metrics,
    "npa-export": cmd_npa_export,
    "report": cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
