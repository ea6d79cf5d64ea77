import json

import pytest

from supent import bounds, harness
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


def test_analyze_weights_rounded_below_half(block_pair_files, capsys):
    # both rescaled weights round to just below 1/2
    psi_path, phi_path = block_pair_files
    code = cli_main(
        [
            "analyze", "--psi", psi_path, "--phi", phi_path,
            "--alpha=-0.2014404972018415,-0.6778065550635186",
            "--beta=-0.7060079873150796,-0.03940459170338132",
            "--json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["simple_lower"] == pytest.approx(-2.0, abs=1e-9)
    assert report["exact_one_sided"] == pytest.approx(1.0, abs=1e-9)


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


def test_oversized_audit_dimension_is_rejected_before_drawing(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError(f"state drawn with {args!r}")

    monkeypatch.setattr(harness, "_haar_state", refuse)
    for size in (harness.MAX_STATE_DIM + 1, 10**12):
        code = cli_main(["audit", "--trials", "1", "--max-dim", str(size), "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1, size
        assert "max_dim" in err and str(size) in err, size


def test_subspace_command(block_pair_files, capsys):
    psi_path, phi_path = block_pair_files
    code = cli_main(["subspace", "--psi", psi_path, "--phi", phi_path, "--grid", "6"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split()[-1])
    assert 0.0 <= value <= 1.0 + 1e-9


def _write_state(path, entries):
    path.write_text(json.dumps({"dim_a": 2, "dim_b": 2, "entries": entries}))
    return str(path)


def test_amplitude_too_large_for_a_float_is_a_parse_error(block_pair_files, tmp_path, capsys):
    _, phi_path = block_pair_files
    huge = _write_state(tmp_path / "huge.json", [[0, 0, 10**400, 0], [1, 1, 1, 0]])
    for argv in (
        ["analyze", "--psi", huge, "--phi", phi_path, "--alpha", "0.6", "--beta", "0.8"],
        ["subspace", "--psi", huge, "--phi", phi_path, "--grid", "4"],
    ):
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "entry 0" in err and "float" in err, argv


def test_state_whose_squared_norm_overflows_is_rejected(block_pair_files, tmp_path, capsys):
    _, phi_path = block_pair_files
    big = _write_state(tmp_path / "big.json", [[0, 0, 1e200, 0], [1, 1, 1e200, 0]])
    for argv in (
        ["analyze", "--psi", big, "--phi", phi_path, "--alpha", "0.6", "--beta", "0.8"],
        ["subspace", "--psi", big, "--phi", phi_path, "--grid", "4"],
    ):
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "overflows" in err and "vanishing" not in err, argv


def test_tiny_amplitudes_give_the_unit_scaled_report(tmp_path, capsys):
    # squared norms of 6e-14 and (underflowing) 0 before scaling
    def state(name, scale):
        return _write_state(
            tmp_path / name, [[0, 0, scale, 0], [1, 1, 2 * scale, 0], [0, 1, 0, -scale]]
        )

    phi = _write_state(tmp_path / "phi.json", [[0, 0, 0.6, 0], [1, 0, 0, 0.8]])
    reports = []
    for scale in (1.0, 1e-7, 1e-200):
        code = cli_main(
            ["analyze", "--psi", state(f"psi{scale}.json", scale), "--phi", phi,
             "--alpha", "0.6", "--beta", "0.8", "--json"]
        )
        assert code == 0, scale
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_non_finite_amplitude_is_a_parse_error(block_pair_files, tmp_path, capsys):
    _, phi_path = block_pair_files
    for literal in ("1e400", "-1e400", "Infinity", "NaN"):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dim_a": 2, "dim_b": 2, "entries": [[0, 0, 1, 0], [1, 1, 0, %s]]}' % literal
        )
        code = cli_main(
            ["analyze", "--psi", str(path), "--phi", phi_path, "--alpha", "0.6", "--beta", "0.8"]
        )
        err = capsys.readouterr().err
        assert code == 1, literal
        assert "entry 1" in err and "finite" in err, literal


def _refuse(monkeypatch, allocator):
    """Make ``np.<allocator>`` fail, so an oversized input can never allocate."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"np.{allocator} called with {args!r}")

    monkeypatch.setattr(harness.np, allocator, refuse)


def test_oversized_state_file_is_rejected_before_allocating(
    block_pair_files, tmp_path, monkeypatch, capsys
):
    _, phi_path = block_pair_files
    _refuse(monkeypatch, "zeros")
    for field in ("dim_a", "dim_b"):
        for size in (harness.MAX_STATE_DIM + 1, 10**12):
            doc = {"dim_a": 2, "dim_b": 2, "entries": [[0, 0, 1, 0]]}
            doc[field] = size
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc))
            argv = ["analyze", "--psi", str(path), "--phi", phi_path]
            code = cli_main(argv + ["--alpha", "0.6", "--beta", "0.8"])
            err = capsys.readouterr().err
            assert code == 1, (field, size)
            assert repr(field) in err and str(size) in err, (field, size)


def test_oversized_sweep_dimension_is_rejected_before_allocating(tmp_path, monkeypatch, capsys):
    _refuse(monkeypatch, "full")
    out_path = tmp_path / "sweep.csv"
    for size in (harness.MAX_FAMILY_DIM + 1, 2**40):
        code = cli_main(
            ["sweep", "--family", "example3", "--dims", f"257,{size}", "--out", str(out_path)]
        )
        err = capsys.readouterr().err
        assert code == 1, size
        assert "family dimension" in err and str(size) in err, size
    assert not out_path.exists()


def test_oversized_subspace_grid_is_rejected_before_allocating(
    block_pair_files, monkeypatch, capsys
):
    psi_path, phi_path = block_pair_files
    _refuse(monkeypatch, "linspace")
    for size in (bounds.MAX_SUBSPACE_GRID + 1, 10**12, 1):
        code = cli_main(["subspace", "--psi", psi_path, "--phi", phi_path, "--grid", str(size)])
        err = capsys.readouterr().err
        assert code == 1, size
        assert "grid_n" in err and str(size) in err, size
