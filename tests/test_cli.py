import json

import pytest

from supent.cli import cli_main
from supent.harness import bell_block_pair, serialize_state


@pytest.fixture
def block_pair_files(tmp_path):
    psi, phi = bell_block_pair()
    psi_path = tmp_path / "psi.json"
    phi_path = tmp_path / "phi.json"
    psi_path.write_text(serialize_state(psi, label="psi"))
    phi_path.write_text(serialize_state(phi, label="phi"))
    return str(psi_path), str(phi_path)


def test_analyze_json_end_to_end(block_pair_files, capsys):
    psi_path, phi_path = block_pair_files
    code = cli_main(
        ["analyze", "--psi", psi_path, "--phi", phi_path, "--alpha", "0.6", "--beta", "0.8", "--json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["exact_e"] == pytest.approx(1.0, abs=1e-9)
    assert report["exact_one_sided"] == pytest.approx(1.0, abs=1e-9)
    assert report["sane"] is True


def test_analyze_human_output(block_pair_files, capsys):
    psi_path, phi_path = block_pair_files
    code = cli_main(
        ["analyze", "--psi", psi_path, "--phi", phi_path, "--alpha", "0.6", "--beta", "0.8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "exact_e" in out and "lps_upper" in out


def test_analyze_complex_coefficients(block_pair_files, capsys):
    psi_path, phi_path = block_pair_files
    code = cli_main(
        ["analyze", "--psi", psi_path, "--phi", phi_path, "--alpha", "0.6", "--beta", "0.0,0.8", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact_e"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_rejects_off_sphere(block_pair_files, capsys):
    psi_path, phi_path = block_pair_files
    # off the sphere, then coefficients with no finite weight
    for alpha in ("0.9", "1e308", "nan", "inf"):
        code = cli_main(
            ["analyze", "--psi", psi_path, "--phi", phi_path, "--alpha", alpha, "--beta", "0.9"]
        )
        err = capsys.readouterr().err
        assert code == 1, alpha
        assert "error" in err and "alpha" in err, alpha


def test_analyze_missing_file(tmp_path, capsys):
    code = cli_main(
        ["analyze", "--psi", str(tmp_path / "nope.json"), "--phi", str(tmp_path / "nope.json"),
         "--alpha", "1", "--beta", "0"]
    )
    assert code == 1


def test_usage_error_prints_help(capsys):
    code = cli_main(["analyze", "--psi", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()


def test_unknown_command(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


def test_examples_command(capsys):
    code = cli_main(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact_e" in out
    assert "passed" in out


def test_sweep_command(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli_main(
        ["sweep", "--family", "example3", "--dims", "5,17,65", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("d,exact_e,lps,")
    assert len(lines) == 4
    gaps = [float(line.split(",")[7]) for line in lines[1:]]
    assert gaps == sorted(gaps)


def test_audit_command(capsys):
    code = cli_main(["audit", "--trials", "25", "--max-dim", "4", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["violations"] == 0
    assert summary["n_trials"] == 25


def test_audit_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("SUPENT_SEED", "1234")
    code = cli_main(["audit", "--trials", "5", "--max-dim", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["seed"] == 1234


def test_audit_bad_environment_seed(monkeypatch, capsys):
    monkeypatch.setenv("SUPENT_SEED", "not-a-number")
    code = cli_main(["audit", "--trials", "5", "--max-dim", "3"])
    assert code == 1


def test_subspace_command(block_pair_files, capsys):
    psi_path, phi_path = block_pair_files
    code = cli_main(["subspace", "--psi", psi_path, "--phi", phi_path, "--grid", "6"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[-1])
    assert 0.0 <= value <= 1.0 + 1e-9
