"""Command line surface.

Subcommands: facets, generalize, classify, seesaw, metrics, npa-export,
report.  Exit codes: 0 success, 2 parse error, 3 resource cap exceeded,
4 invariant violation in the inputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from . import catalog
from .cone import enumerate_facets_dd, lift_polytope
from .constraints import parse_relabeling
from .errors import CapExceededError, InvariantViolationError, ParseError
from .inequality import (algebraic_bound, from_cone_normal, parse_inequality,
                         render, write_inequality)
from .quantum import (BoundsRecord, SeesawConfig, metrics, seesaw,
                      write_seesaw_result)
from .npa import export_sdpa
from .scenario import _PARTY_LETTERS, Scenario, enumerate_vertices
from .search import (ReductionSpec, canonical_form, classify, generalize_multi,
                     parse_class_list, write_class_list)

DEFAULTS = {
    "workers": 1,
    "seed": 4,
    "dd_cap": 5_000_000,
    "orbit_cap": 10_000_000,
    "vertex_cap": 1 << 24,
}


def _load_config(path):
    cfg = dict(DEFAULTS)
    if path:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"config line needs key = value: {line!r}", line=lineno)
            key, val = (x.strip() for x in line.split("=", 1))
            if key not in cfg:
                raise ParseError(f"unknown config key {key!r}", line=lineno)
            cfg[key] = int(val)
    return cfg


def _scenario_from_arg(text):
    return Scenario(tuple(int(x) for x in text.split(",")))


def _read_inequality(path):
    return parse_inequality(Path(path).read_text())


def _write(path, text):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_facets(args, cfg):
    scenario = _scenario_from_arg(args.scenario)
    cone = lift_polytope(enumerate_vertices(scenario, cap=cfg["vertex_cap"]))
    facets = enumerate_facets_dd(cone, cap=cfg["dd_cap"])
    ineqs = [from_cone_normal(scenario, f.vector) for f in facets]
    classes = classify(ineqs, cap=cfg["orbit_cap"])
    trivial_canon = canonical_form(catalog.positivity(scenario)).coefficients
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
        out.append(_PARTY_LETTERS.index(ch))
    return tuple(out)


def cmd_generalize(args, cfg):
    if args.target:
        target = _scenario_from_arg(args.target)
        reductions = []
        for spec in args.reduce or []:
            if "@" not in spec:
                raise ParseError(f"--reduce needs FILE@PARTIES, got {spec!r}")
            path, parties = spec.rsplit("@", 1)
            sweep = parties.endswith("?orbit")
            if sweep:
                parties = parties[:-len("?orbit")]
            reductions.append(ReductionSpec(lower=_read_inequality(path),
                                            embed=_parse_parties(parties, target),
                                            sweep_orbit=sweep))
        if not reductions:
            raise ParseError("--target mode needs at least one --reduce")
    else:
        if not args.lower or not args.extra_settings:
            raise ParseError("need either --target/--reduce or --lower/--extra-settings")
        lower = _read_inequality(args.lower)
        extra = tuple(int(x) for x in args.extra_settings.split(","))
        target = Scenario(lower.scenario.settings + extra)
        reductions = [ReductionSpec(lower=lower, embed=tuple(range(lower.scenario.parties)))]
    symmetry = [parse_relabeling(s, target) for s in (args.symmetry or [])]

    def progress(done, total, found):
        print(f"branch {done}/{total}: {found} surviving facets", file=sys.stderr)

    classes = generalize_multi(target, reductions, symmetry, dd_cap=cfg["dd_cap"],
                               orbit_cap=cfg["orbit_cap"], workers=cfg["workers"],
                               progress=progress if not args.quiet else None)
    print(f"classes: {len(classes)}")
    for k, cl in enumerate(classes, start=1):
        print(f"class {k}: members={cl.members_found} bound={cl.canonical.bound}")
    if args.out:
        _write(args.out, write_class_list(classes))
    return 0


def cmd_classify(args, cfg):
    text = Path(args.input).read_text()
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if first.startswith("class "):
        members = [cl.canonical for cl in parse_class_list(text)]
    else:
        blocks = [b for b in text.split("\n\n") if b.strip()]
        members = [parse_inequality(b) for b in blocks]
    classes = classify(members, cap=cfg["orbit_cap"])
    print(f"classes: {len(classes)}")
    _write(args.out, write_class_list(classes))
    return 0


def cmd_seesaw(args, cfg):
    ineq = _read_inequality(args.ineq)
    config = SeesawConfig(local_dim=args.dim, restarts=args.restarts,
                          warmup_iterations=args.warmup, survivors=args.survivors,
                          tolerance=args.tolerance, max_iterations=args.max_iterations,
                          seed=cfg["seed"])
    result = seesaw(ineq, config)
    print(f"value: {result.value:.9f} (classical bound {ineq.bound})")
    if args.out:
        _write(args.out, write_seesaw_result(ineq, result, config))
    return 0


def _parse_npa_sidecar(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, val = line.split(":")
            key = key.strip()
            assert key in ("npa2", "npa3")
            values[key] = float(val)
        except (ValueError, AssertionError):
            raise ParseError(f"malformed NPA line {line!r}", line=lineno) from None
    return values


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


def cmd_metrics(args, cfg):
    ineq = _read_inequality(args.ineq)
    npa = _parse_npa_sidecar(args.npa_file) if args.npa_file else {}
    if args.npa2 is not None:
        npa["npa2"] = args.npa2
    if args.npa3 is not None:
        npa["npa3"] = args.npa3
    rec = BoundsRecord(classical=ineq.bound, algebraic=algebraic_bound(ineq),
                       qubit=args.qubit, qutrit=args.qutrit,
                       npa2=npa.get("npa2"), npa3=npa.get("npa3"))
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
        seesaw_text = Path(args.seesaw_file).read_text() if args.seesaw_file else None
        _write(args.out, write_record(ineq, rec, m=m, seesaw_text=seesaw_text))
    return 0


def cmd_npa_export(args, cfg):
    ineq = _read_inequality(args.ineq)
    sdpa, index = export_sdpa(ineq, args.level)
    out = Path(args.out)
    out.write_text(sdpa)
    Path(str(out) + ".idx").write_text(index)
    print(f"wrote {out} and {out}.idx")
    return 0


def parse_record(text):
    ineq_lines, rest = [], {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key = line.split(":", 1)[0]
        if key in ("algebraic", "qubit", "qutrit", "npa2", "npa3"):
            rest[key] = float(line.split(":", 1)[1])
        elif key in ("state", "trace", "dim") or key.startswith("observable") \
                or key.startswith("m_"):
            continue
        else:
            ineq_lines.append(line)
    ineq = parse_inequality("\n".join(ineq_lines))
    rec = BoundsRecord(classical=ineq.bound,
                       algebraic=int(rest.get("algebraic", algebraic_bound(ineq))),
                       qubit=rest.get("qubit"), qutrit=rest.get("qutrit"),
                       npa2=rest.get("npa2"), npa3=rest.get("npa3"))
    return ineq, rec


def _parse_record(path):
    return parse_record(Path(path).read_text())


def cmd_report(args, cfg):
    rows = []
    for path in args.records:
        ineq, rec = _parse_record(path)
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


def build_parser():
    parser = argparse.ArgumentParser(prog="conebell")
    parser.add_argument("--config", help="key = value config file; flags win")
    parser.add_argument("--workers", type=int, help="worker pool size")
    parser.add_argument("--seed", type=int, help="PRNG seed")
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("facets", help="enumerate and classify all facets")
    p.add_argument("scenario", help="comma-separated setting counts, e.g. 2,2")
    p.add_argument("--out", help="write a class list file")

    p = sub.add_parser("generalize", help="search facets reducing to lower inequalities")
    p.add_argument("--lower", help="inequality file (appended-parties mode)")
    p.add_argument("--extra-settings", help="setting counts of the appended parties")
    p.add_argument("--target", help="target scenario for --reduce mode")
    p.add_argument("--reduce", action="append",
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
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--survivors", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--out")

    p = sub.add_parser("metrics", help="comparison ratios from imported bounds")
    p.add_argument("--ineq", required=True)
    p.add_argument("--qubit", type=float, required=True)
    p.add_argument("--qutrit", type=float, required=True)
    p.add_argument("--npa-file", help="sidecar with npa2:/npa3: lines")
    p.add_argument("--npa2", type=float)
    p.add_argument("--npa3", type=float)
    p.add_argument("--seesaw-file", help="copy state and settings into the record")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.workers is not None:
            cfg["workers"] = args.workers
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.show_config:
            for key in sorted(cfg):
                print(f"{key} = {cfg[key]}")
            return 0
        if not args.command:
            parser.print_help()
            return 2
        return _COMMANDS[args.command](args, cfg)
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
