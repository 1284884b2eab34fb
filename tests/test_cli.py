import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import conebell
from conebell import catalog
from conebell.cli import build_parser, main
from conebell.inequality import Inequality, write_inequality
from conebell.scenario import Scenario
from conebell.search import (EquivalenceClass, canonical_form, classify, parse_class_list,
                             relabeling_orbit, write_class_list)


@pytest.fixture
def chsh_file(tmp_path):
    path = tmp_path / "chsh.ineq"
    path.write_text(write_inequality(catalog.chsh()))
    return path


@pytest.fixture
def gyni_file(tmp_path):
    path = tmp_path / "gyni.ineq"
    path.write_text(write_inequality(catalog.gyni()))
    return path


def test_cli_import_leaves_multiprocessing_unloaded():
    # the worker pool is imported only when a run asks for more than one worker
    code = ("import sys, conebell.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    env = dict(os.environ, PYTHONPATH=str(Path(conebell.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def _readme_commands():
    """Every conebell command line in README's code blocks, continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^ *```\n(.*?)^ *```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("conebell ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_facets_command(tmp_path, capsys):
    out = tmp_path / "classes.txt"
    assert main(["facets", "2,2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "facets: 24" in printed
    assert "non-trivial facets: 8" in printed
    classes = parse_class_list(out.read_text())
    assert sorted(cl.members_found for cl in classes) == [8, 16]
    # classify keeps the member counts of a class list
    again = tmp_path / "again.txt"
    assert main(["classify", str(out), "--out", str(again)]) == 0
    reclassified = parse_class_list(again.read_text())
    assert reclassified == classes


def test_generalize_command(tmp_path, chsh_file, capsys):
    out = tmp_path / "gen.txt"
    code = main(["generalize", "--target", "2,2,2", "--reduce", f"{chsh_file}@A,B",
                 "--symmetry", "perm:ABC->BAC", "--symmetry", "perm:ABC->CBA",
                 "--quiet", "--out", str(out)])
    assert code == 0
    classes = parse_class_list(out.read_text())
    assert classes, "expected at least the three-party generalization class"
    # re-running reproduces the identical file
    out2 = tmp_path / "gen2.txt"
    main(["generalize", "--target", "2,2,2", "--reduce", f"{chsh_file}@A,B",
          "--symmetry", "perm:ABC->BAC", "--symmetry", "perm:ABC->CBA",
          "--quiet", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_generalize_reduce_orbit_sweep(tmp_path, chsh_file, capsys):
    # ?orbit sweeps the lower inequality over its relabelings: the same
    # classes as without it, each found more often, and the same file with
    # a worker pool
    def run(suffix, workers):
        out = tmp_path / f"gen{suffix}{workers}.txt"
        assert main(["--workers", workers, "generalize", "--target", "2,2,2",
                     "--reduce", f"{chsh_file}@A,B{suffix}", "--symmetry", "perm:ABC->BCA",
                     "--quiet", "--out", str(out)]) == 0
        return out.read_text()

    swept = run("?orbit", "1")
    assert run("?orbit", "2") == swept
    classes = parse_class_list(swept)
    assert [cl.members_found for cl in classes] == [4, 8, 8, 8, 8, 8]
    plain = parse_class_list(run("", "1"))
    assert [cl.canonical for cl in classes] == [cl.canonical for cl in plain]
    # a swept witness names the variant, 1 to 8 in relabeling_orbit order
    assert all(re.fullmatch(r"v[1-8]:[+-]{2}", w) for cl in classes for w in cl.witnesses)
    assert all(re.fullmatch(r"[+-]{2}", w) for cl in plain for w in cl.witnesses)


def test_classify_command(tmp_path):
    blocks = "\n\n".join(write_inequality(v) for v in
                         __import__("conebell.search", fromlist=["x"]).relabeling_orbit(catalog.chsh()))
    src = tmp_path / "ineqs.txt"
    src.write_text(blocks)
    out = tmp_path / "classes.txt"
    assert main(["classify", str(src), "--out", str(out)]) == 0
    classes = parse_class_list(out.read_text())
    assert len(classes) == 1 and classes[0].members_found == 8


def test_classify_to_stdout_parses_back(tmp_path, capsys):
    # the class count goes to stderr, so stdout is a class list on its own
    src = tmp_path / "ineqs.txt"
    src.write_text("\n\n".join(write_inequality(v) for v in relabeling_orbit(catalog.chsh())))
    assert main(["classify", str(src)]) == 0
    out, err = capsys.readouterr()
    assert err == "classes: 1\n"
    classes = parse_class_list(out)
    assert len(classes) == 1 and classes[0].members_found == 8
    again = tmp_path / "classes.txt"
    again.write_text(out)
    assert main(["classify", str(again)]) == 0
    assert [cl.canonical for cl in parse_class_list(capsys.readouterr().out)] == \
        [classes[0].canonical]


def test_classify_keeps_the_counts_and_witnesses_of_a_class_list(tmp_path):
    # the 8-member CHSH class keeps its count; a relabeled CHSH class in the
    # same list merges into it, members summed and witnesses united
    variants = relabeling_orbit(catalog.chsh())
    src, out = tmp_path / "classes.txt", tmp_path / "again.txt"
    src.write_text(write_class_list([EquivalenceClass(variants[0], 8, ("++", "--"))]))
    assert main(["classify", str(src), "--out", str(out)]) == 0
    assert parse_class_list(out.read_text()) == \
        [EquivalenceClass(canonical_form(catalog.chsh()), 8, ("++", "--"))]
    src.write_text(write_class_list([EquivalenceClass(variants[0], 8, ("++", "--")),
                                     EquivalenceClass(variants[5], 3, ("+-", "--"))]))
    assert main(["classify", str(src), "--out", str(out)]) == 0
    assert parse_class_list(out.read_text()) == \
        [EquivalenceClass(canonical_form(catalog.chsh()), 11, ("++", "+-", "--"))]


def test_classify_reads_a_class_list_that_opens_with_a_comment(tmp_path):
    # the format is read off the first line that is neither blank nor a
    # comment, so the list keeps its count and witnesses
    chsh = canonical_form(catalog.chsh())
    src, out = tmp_path / "classes.txt", tmp_path / "again.txt"
    src.write_text("# my classes\n\n"
                   + write_class_list([EquivalenceClass(chsh, 8, ("++", "--"))]))
    assert main(["classify", str(src), "--out", str(out)]) == 0
    assert parse_class_list(out.read_text()) == [EquivalenceClass(chsh, 8, ("++", "--"))]


def test_successive_main_calls_give_what_each_gives_alone(tmp_path, chsh_file):
    # one parser serves every call in a process, and no --reduce or
    # --symmetry value of one call reaches the next
    runs = [["generalize", "--target", "2,2,2", "--reduce", f"{chsh_file}@A,B",
             "--symmetry", "perm:ABC->BCA"],
            ["generalize", "--target", "2,2,2", "--reduce", f"{chsh_file}@B,C?orbit",
             "--reduce", f"{chsh_file}@A,C", "--symmetry", "perm:ABC->BAC",
             "--symmetry", "A:(1 2)"]]
    env = dict(os.environ, PYTHONPATH=str(Path(conebell.__file__).parents[1]))
    alone = []
    for k, argv in enumerate(runs):
        out = tmp_path / f"alone{k}.txt"
        subprocess.run([sys.executable, "-m", "conebell.cli", *argv, "--quiet", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        alone.append(out.read_text())
    assert alone[0] != alone[1]
    for k, argv in enumerate(runs + runs):
        out = tmp_path / f"in_process{k}.txt"
        assert main(argv + ["--quiet", "--out", str(out)]) == 0
        assert out.read_text() == alone[k % 2]
    assert build_parser() is build_parser()


def test_seesaw_command_gyni_not_violated(tmp_path, gyni_file, capsys):
    out = tmp_path / "seesaw.txt"
    code = main(["seesaw", "--ineq", str(gyni_file), "--dim", "2",
                 "--restarts", "6", "--out", str(out)])
    assert code == 0
    value = float(capsys.readouterr().out.split()[1])
    assert value <= 4 + 1e-6
    assert "value:" in out.read_text()


def test_metrics_command_with_sidecar(tmp_path, capsys):
    ineq_file = tmp_path / "g400.ineq"
    ineq_file.write_text(write_inequality(catalog.i3322_generalization(400)))
    code = main(["metrics", "--ineq", str(ineq_file), "--qubit", "20.928",
                 "--qutrit", "21.157", "--npa2", "22.0", "--npa3", "21.238"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "m_32 = 1.09%" in printed
    assert "m_N  = 0.38%" in printed
    assert "m_A  = 433.33%" in printed


def test_metrics_invariant_violation_exit_code(tmp_path, chsh_file, capsys):
    code = main(["metrics", "--ineq", str(chsh_file), "--qubit", "3.0",
                 "--qutrit", "2.0"])
    assert code == 4


def test_npa_export_deterministic_hash(tmp_path, chsh_file):
    out1 = tmp_path / "a.dat-s"
    out2 = tmp_path / "b.dat-s"
    assert main(["npa-export", "--ineq", str(chsh_file), "--level", "2",
                 "--out", str(out1)]) == 0
    assert main(["npa-export", "--ineq", str(chsh_file), "--level", "2",
                 "--out", str(out2)]) == 0
    h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
    assert h1 == h2
    assert (tmp_path / "a.dat-s.idx").exists()


def test_record_includes_state_settings_and_metrics(tmp_path, capsys):
    gyni_path = tmp_path / "gyni.ineq"
    gyni_path.write_text(write_inequality(catalog.gyni()))
    seesaw_out = tmp_path / "seesaw.txt"
    main(["seesaw", "--ineq", str(gyni_path), "--dim", "2", "--restarts", "4",
          "--out", str(seesaw_out)])
    record = tmp_path / "record.txt"
    code = main(["metrics", "--ineq", str(gyni_path), "--qubit", "4.0",
                 "--qutrit", "4.0", "--npa2", "4.0000001",
                 "--seesaw-file", str(seesaw_out), "--out", str(record)])
    assert code == 0
    text = record.read_text()
    assert "state:" in text and "observable 0 1:" in text
    assert "m_Q:" in text and "m_A:" in text
    from conebell.cli import parse_record, write_record
    from conebell.quantum import metrics as compute_metrics
    ineq, rec = parse_record(text)
    assert ineq.coefficients == catalog.gyni().coefficients
    assert rec.npa2 == 4.0000001
    # writing the parsed record back reproduces the bounds section bit-exactly
    rebuilt = write_record(ineq, rec, m=compute_metrics(rec),
                           seesaw_text=seesaw_out.read_text())
    assert rebuilt == text


@pytest.fixture(scope="module")
def seesaw_files(tmp_path_factory):
    """Seesaw outputs for CHSH at d = 2 and d = 3, and their values."""
    tmp = tmp_path_factory.mktemp("seesaw")
    ineq = tmp / "chsh.ineq"
    ineq.write_text(write_inequality(catalog.chsh()))
    files = {}
    for dim in (2, 3):
        out = tmp / f"seesaw{dim}.txt"
        assert main(["seesaw", "--ineq", str(ineq), "--dim", str(dim), "--restarts", "2",
                     "--survivors", "1", "--out", str(out)]) == 0
        value = next(float(line.split(":")[1]) for line in out.read_text().splitlines()
                     if line.startswith("value:"))
        files[dim] = (out.read_text(), value)
    return ineq, files


def _metrics_with_seesaw(tmp_path, ineq, text, qubit, qutrit):
    path = tmp_path / "seesaw.txt"
    path.write_text(text)
    record = tmp_path / "record.txt"
    return main(["metrics", "--ineq", str(ineq), "--qubit", repr(qubit), "--qutrit", repr(qutrit),
                 "--seesaw-file", str(path), "--out", str(record)])


def _edit_line(text, prefix, edit):
    return "\n".join(edit(line) if line.startswith(prefix) else line
                     for line in text.splitlines()) + "\n"


def _scale_numbers(factor):
    def edit(line):
        head, row = line.split(":", 1)
        return head + ": " + " ".join(repr(float(x) * factor) for x in row.split())
    return edit


def test_metrics_replays_a_good_seesaw_file(tmp_path, seesaw_files, capsys):
    ineq, files = seesaw_files
    (text2, v2), (text3, v3) = files[2], files[3]
    assert abs(v2 - 2 * 2 ** 0.5) < 1e-6
    assert _metrics_with_seesaw(tmp_path, ineq, text2, v2, v3) == 0
    assert "state:" in (tmp_path / "record.txt").read_text()
    # a d = 3 file is checked against --qutrit
    assert _metrics_with_seesaw(tmp_path, ineq, text3, v2, v3) == 0


@pytest.mark.parametrize("corrupt, message", [
    # another inequality than --ineq
    (lambda t: t.replace("bound: 2", "bound: 3"), "another inequality"),
    # an observable whose spectrum is not +-1
    (lambda t: _edit_line(t, "observable 1 2:", _scale_numbers(0.5)), "eigenvalues"),
    # an observable for a setting the scenario does not have
    (lambda t: t + "observable 0 3: 1 0 0 0 0 0 -1 0\n", "outside the scenario"),
    # a state that is not a unit vector
    (lambda t: _edit_line(t, "state:", _scale_numbers(1.01)), "norm"),
    # a value the state and observables do not give
    (lambda t: _edit_line(t, "value:", lambda line: "value: 2.8"), "the file says"),
    # a dimension the bounds have no slot for
    (lambda t: _edit_line(t, "dim:", lambda line: "dim: 4"), "not 2 or 3"),
])
def test_metrics_rejects_a_corrupted_seesaw_file(tmp_path, seesaw_files, capsys, corrupt, message):
    ineq, files = seesaw_files
    (text, v2), (_, v3) = files[2], files[3]
    assert _metrics_with_seesaw(tmp_path, ineq, corrupt(text), v2, v3) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "record.txt").exists()


def test_metrics_rejects_a_seesaw_value_other_than_the_bound(tmp_path, seesaw_files, capsys):
    ineq, files = seesaw_files
    (text2, v2), (text3, v3) = files[2], files[3]
    # --qubit is not the d = 2 file's value
    assert _metrics_with_seesaw(tmp_path, ineq, text2, v2 - 1e-3, v3) == 4
    assert "--qubit" in capsys.readouterr().err
    # --qutrit is not the d = 3 file's value
    assert _metrics_with_seesaw(tmp_path, ineq, text3, v2, v3 + 1e-3) == 4
    assert "--qutrit" in capsys.readouterr().err


def test_metrics_needs_a_complete_seesaw_file(tmp_path, seesaw_files):
    ineq, files = seesaw_files
    (text, v2), (_, v3) = files[2], files[3]
    missing = "\n".join(line for line in text.splitlines() if not line.startswith("state:"))
    assert _metrics_with_seesaw(tmp_path, ineq, missing, v2, v3) == 2


ZERO_BOUND = "scenario: n=2 settings=1,1\nbound: 0\n1,1: 1\n"


def test_metrics_rejects_a_zero_classical_bound(tmp_path, capsys):
    ineq_file = tmp_path / "z.ineq"
    ineq_file.write_text(ZERO_BOUND)
    assert main(["metrics", "--ineq", str(ineq_file), "--qubit", "0.0", "--qutrit", "0.0"]) == 2
    assert "classical bound, got 0" in capsys.readouterr().err


def test_report_rejects_a_zero_classical_bound(tmp_path, capsys):
    rec = tmp_path / "z.txt"
    rec.write_text(ZERO_BOUND + "qubit: 0.0\nqutrit: 0.0\n")
    assert main(["report", str(rec), "--out", str(tmp_path / "report.csv")]) == 2
    assert "classical bound, got 0" in capsys.readouterr().err


def test_report_command(tmp_path, capsys):
    rec = tmp_path / "rec1.txt"
    rec.write_text(write_inequality(catalog.i3322_generalization(400), comments=False)
                   + "algebraic: 96\nqubit: 20.928\nqutrit: 21.157\nnpa3: 21.238\n")
    out = tmp_path / "report.csv"
    assert main(["report", str(rec), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("record,bound,algebraic")
    assert "433.33" in lines[1]


@pytest.mark.parametrize("line", ["dim: 2", "trace: junk", "m_bogus: 7", "observable 9 9: 1 0",
                                  "observable 0 3: 1 0", "observable 2 1: 1 0"])
def test_report_rejects_a_line_no_record_has(tmp_path, capsys, line):
    # a record holds only the lines write_record writes: observables of the
    # inequality's own parties (0, 1) and settings (1, 2) among them
    rec = tmp_path / "rec.txt"
    rec.write_text(write_inequality(catalog.chsh(), comments=False)
                   + f"algebraic: 4\nqubit: 2.8\nqutrit: 2.8\nobservable 1 2: 1 0\n{line}\n")
    assert main(["report", str(rec)]) == 2
    assert f"unrecognized line '{line}' (line 11)" in capsys.readouterr().err


def test_report_rejects_a_wrong_algebraic_bound(tmp_path, capsys):
    # CHSH's algebraic bound is 4; a record may not claim another
    rec = tmp_path / "rec.txt"
    rec.write_text(write_inequality(catalog.chsh(), comments=False)
                   + "algebraic: 9.7\nqubit: 2.8\nqutrit: 2.8\n")
    assert main(["report", str(rec)]) == 4
    assert "algebraic bound 9.7 (line" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ineq"
    bad.write_text("scenario: n=2 settings=2,2\nbound: x\n")
    assert main(["seesaw", "--ineq", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def _break_last_bound(text):
    """text with its last bound: line malformed, and that line's number."""
    lines = text.splitlines()
    at = max(i for i, line in enumerate(lines) if line.startswith("bound:"))
    lines[at] = "bound: x"
    return "\n".join(lines) + "\n", at + 1


@pytest.mark.parametrize("kind", ["seesaw", "record", "class list", "plain list"])
def test_parse_errors_name_the_file_line(tmp_path, seesaw_files, capsys, kind):
    chsh = catalog.chsh()
    others = [catalog.positivity(chsh.scenario), relabeling_orbit(chsh)[1]]
    if kind == "seesaw":
        text = "# one\n# two\n" + seesaw_files[1][2][0]
    elif kind == "record":
        text = ("# one\n# two\n" + write_inequality(chsh, comments=False)
                + "algebraic: 4\nqubit: 2.8\nqutrit: 2.8\n")
    elif kind == "class list":
        text = write_class_list(classify([chsh] + others))
    else:
        text = "\n\n".join(write_inequality(x) for x in [chsh] + others)
    text, line = _break_last_bound(text)
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = {"seesaw": ["metrics", "--ineq", str(seesaw_files[0]), "--qubit", "2.8",
                       "--qutrit", "2.8", "--seesaw-file", str(path)],
            "record": ["report", str(path)]}.get(kind, ["classify", str(path)])
    assert main(argv) == 2
    assert f"(line {line})" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["seesaw value", "ineq bound"])
def test_a_key_given_twice_is_a_parse_error(tmp_path, seesaw_files, chsh_file, capsys, kind):
    ineq, files = seesaw_files
    (text, v2), (_, v3) = files[2], files[3]
    path = tmp_path / "input.txt"
    argv = ["metrics", "--ineq", str(ineq), "--qubit", repr(v2), "--qutrit", repr(v3)]
    if kind == "seesaw value":
        path.write_text(text + f"value: {v2!r}\n")
        argv += ["--seesaw-file", str(path)]
    else:
        path.write_text(chsh_file.read_text() + "bound: 3\n")
        argv[2] = str(path)
    assert main(argv) == 2
    assert "given twice" in capsys.readouterr().err


def test_generalize_rejects_a_repeated_party(chsh_file, capsys):
    # and the other malformed --reduce values: a party the target lacks, no @
    for suffix, message in [("@A,A", "named twice"), ("@A,Z", "bad party name"),
                            ("", "FILE@PARTIES")]:
        assert main(["generalize", "--target", "2,2,2", "--reduce", f"{chsh_file}{suffix}"]) == 2
        assert message in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["seesaw", "--ineq", str(tmp_path / "nope.ineq")]) == 2


def test_seesaw_fewer_iterations_than_warmup_exit_code(chsh_file, capsys):
    assert main(["seesaw", "--ineq", str(chsh_file), "--warmup", "5",
                 "--max-iterations", "3"]) == 2
    assert "max_iterations" in capsys.readouterr().err


def test_a_cap_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--dd-cap", "two", "facets", "2,2"])
    assert exc.value.code == 2
    assert "--dd-cap" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dd-cap", "--orbit-cap", "--vertex-cap"])
def test_a_negative_cap_is_a_parse_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, "-5", "facets", "2,2"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_parse_error(workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--workers", workers, "facets", "2,2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_dd_cap_exit_code(capsys):
    assert main(["--dd-cap", "4", "facets", "2,2"]) == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generalize_dd_cap_exit_code(chsh_file, capsys, workers):
    # the cap reaches the per-branch DD of the projected cone, also in workers
    code = main(["--dd-cap", "2", "--workers", workers, "generalize",
                 "--target", "2,2,2", "--reduce", f"{chsh_file}@A,B", "--quiet"])
    assert code == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generalize_vertex_cap_exit_code(chsh_file, capsys, workers):
    # (2,2) has 16 vertices and (2,2,2) 64: a cap of 10 stops at the lower
    # inequality's scenario, one of 32 at the target
    for cap in ("10", "32"):
        assert main(["--vertex-cap", cap, "facets", "2,2,2"]) == 3
        code = main(["--vertex-cap", cap, "--workers", workers, "generalize",
                     "--target", "2,2,2", "--reduce", f"{chsh_file}@A,B", "--quiet"])
        assert code == 3
        assert f"above the cap of {cap}" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generalize_dead_branches_finish_under_the_dd_cap(tmp_path, capsys, workers):
    # every branch of this search is dead (see test_search), so none runs a
    # DD and the cap of 4 rays is never reached
    lower = tmp_path / "chsh_relabeled.ineq"
    lower.write_text(write_inequality(Inequality(Scenario((2, 2)),
                                                 (2, 0, 0, 0, -1, -1, 0, 1, -1))))
    code = main(["--dd-cap", "4", "--workers", workers, "generalize", "--target", "2,2,2",
                 "--reduce", f"{lower}@A,B", "--symmetry", "perm:ABC->BCA"])
    assert code == 0
    out, err = capsys.readouterr()
    assert out == "classes: 0\n"
    assert err.splitlines() == [f"branch {k}/4: 0 surviving facets" for k in range(1, 5)]
