import hashlib

import pytest

from conebell import catalog
from conebell.cli import main
from conebell.inequality import write_inequality
from conebell.search import parse_class_list


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


def test_facets_command(tmp_path, capsys):
    out = tmp_path / "classes.txt"
    assert main(["facets", "2,2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "facets: 24" in printed
    assert "non-trivial facets: 8" in printed
    classes = parse_class_list(out.read_text())
    assert sorted(cl.members_found for cl in classes) == [8, 16]


def test_generalize_command(tmp_path, chsh_file, capsys):
    out = tmp_path / "gen.txt"
    code = main(["generalize", "--lower", str(chsh_file), "--extra-settings", "2",
                 "--symmetry", "perm:ABC->BAC", "--symmetry", "perm:ABC->CBA",
                 "--quiet", "--out", str(out)])
    assert code == 0
    classes = parse_class_list(out.read_text())
    assert classes, "expected at least the three-party generalization class"
    # re-running reproduces the identical file
    out2 = tmp_path / "gen2.txt"
    main(["generalize", "--lower", str(chsh_file), "--extra-settings", "2",
          "--symmetry", "perm:ABC->BAC", "--symmetry", "perm:ABC->CBA",
          "--quiet", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_classify_command(tmp_path):
    blocks = "\n\n".join(write_inequality(v) for v in
                         __import__("conebell.search", fromlist=["x"]).relabeling_orbit(catalog.chsh()))
    src = tmp_path / "ineqs.txt"
    src.write_text(blocks)
    out = tmp_path / "classes.txt"
    assert main(["classify", str(src), "--out", str(out)]) == 0
    classes = parse_class_list(out.read_text())
    assert len(classes) == 1 and classes[0].members_found == 8


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
    sidecar = tmp_path / "npa.txt"
    sidecar.write_text("npa2: 22.0\nnpa3: 21.238\n")
    code = main(["metrics", "--ineq", str(ineq_file), "--qubit", "20.928",
                 "--qutrit", "21.157", "--npa-file", str(sidecar)])
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


def test_report_command(tmp_path, capsys):
    rec = tmp_path / "rec1.txt"
    rec.write_text(write_inequality(catalog.i3322_generalization(400), comments=False)
                   + "algebraic: 96\nqubit: 20.928\nqutrit: 21.157\nnpa3: 21.238\n")
    out = tmp_path / "report.csv"
    assert main(["report", str(rec), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("record,bound,algebraic")
    assert "433.33" in lines[1]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ineq"
    bad.write_text("scenario: n=2 settings=2,2\nbound: x\n")
    assert main(["seesaw", "--ineq", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["seesaw", "--ineq", str(tmp_path / "nope.ineq")]) == 2


def test_show_config_and_config_file(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("workers = 2\n# comment\nseed = 9\n")
    assert main(["--config", str(cfg), "--show-config"]) == 0
    printed = capsys.readouterr().out
    assert "workers = 2" in printed and "seed = 9" in printed
    assert main(["--config", str(cfg), "--seed", "1", "--show-config"]) == 0
    assert "seed = 1" in capsys.readouterr().out


def test_dd_cap_exit_code(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("dd_cap = 4\n")
    assert main(["--config", str(cfg), "facets", "2,2"]) == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generalize_dd_cap_exit_code(tmp_path, chsh_file, capsys, workers):
    # the cap reaches the per-branch DD of the projected cone, also in workers
    cfg = tmp_path / "conf.txt"
    cfg.write_text("dd_cap = 2\n")
    code = main(["--config", str(cfg), "--workers", workers, "generalize",
                 "--lower", str(chsh_file), "--extra-settings", "2", "--quiet"])
    assert code == 3
    assert "resource cap" in capsys.readouterr().err
