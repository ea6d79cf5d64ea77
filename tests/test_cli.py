import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from helpers import patch_reports, serialize_state
import supent
from supent import bounds, harness
from supent.cli import cli_main
from supent.harness import bell_block_pair


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
    # a missing file, then files that are no JSON document: nested past the
    # decoder's recursion limit, and not UTF-8
    (tmp_path / "deep.json").write_text("[" * 3000)
    (tmp_path / "latin1.json").write_bytes('{"label": "\xe9"}'.encode("latin-1"))
    for name, word in (("nope.json", "nope.json"), ("deep.json", "recursion"), ("latin1.json", "UTF-8")):
        path = str(tmp_path / name)
        code = cli_main(["analyze", "--psi", path, "--phi", path, "--alpha", "1", "--beta", "0"])
        err = capsys.readouterr().err
        assert code == 1, name
        assert err.startswith("error:") and word in err, name


def test_usage_error_prints_help(capsys):
    code = cli_main(["analyze", "--psi", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()


def test_unknown_command(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    # and so does the module's entry point, main()
    src = pathlib.Path(supent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "supent.cli", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "usage" in run.stdout.lower()


def test_malformed_number_flags_exit_1(block_pair_files, tmp_path, capsys):
    psi_path, phi_path = block_pair_files
    analyze = ["analyze", "--psi", psi_path, "--phi", phi_path, "--beta", "0"]
    sweep = ["sweep", "--family", "example3", "--out", str(tmp_path / "sweep.csv")]
    cases = (
        (analyze + ["--alpha", "1,2,3"], "expected RE or RE,IM"),
        (analyze + ["--alpha", "abc"], "bad complex number"),
        (sweep + ["--dims", "a,b"], "bad dimension list"),
        (sweep + ["--dims", ","], "dimension list is empty"),
    )
    for argv, message in cases:
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert f"error: argument --{argv[-2][2:]}: {message}" in err, argv
    assert not (tmp_path / "sweep.csv").exists()


def test_examples_command(capsys):
    code = cli_main(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact_e" in out
    assert "passed" in out


def test_examples_command_exits_1_on_a_failed_row(monkeypatch, capsys):
    failed = harness.ExampleRow("E0", "exact_e", 1.0, expected=0.0, tol=0.0, passed=False)
    monkeypatch.setattr(harness, "run_examples", lambda: [failed])
    assert cli_main(["examples"]) == 1
    assert "0 passed, 1 failed, 0 informational" in capsys.readouterr().out


def test_examples_command_fails_the_rows_of_a_shifted_t_star(monkeypatch, capsys):
    minimize_f, maximize_lower = bounds.minimize_f_scalar, bounds.maximize_lower_scalar

    def late_f(*args):
        value, t_star = minimize_f(*args)
        return value, t_star + 0.05

    def early_lower(*args):
        raw, t_star, branch = maximize_lower(*args)
        return raw, t_star - 0.05, branch

    monkeypatch.setattr(bounds, "minimize_f_scalar", late_f)
    monkeypatch.setattr(bounds, "maximize_lower_scalar", early_lower)
    assert cli_main(["examples"]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    failed_t_stars = [row[:2] for row in rows if row[-1:] == ["fail"] and row[1].startswith("t_star")]
    assert failed_t_stars == [
        ["E3[d=2^16+1]", "t_star(f)"],
        ["E4[log2(d-1)=256]", "t_star(lower)"],
        ["E4[log2(d-1)=1024]", "t_star(lower)"],
    ]


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


def test_audit_command_exits_1_on_a_violation(monkeypatch, capsys):
    patch_reports(monkeypatch, lambda r: dataclasses.replace(r, sane=False))
    code = cli_main(["audit", "--trials", "5", "--max-dim", "3", "--seed", "7"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["violations"] == 5


def test_audit_command_exits_1_on_an_order_violation(monkeypatch, capsys):
    for bound, count in (("theorem2_upper", "order_violations_t2"), ("theorem3_upper", "order_violations_t3")):
        with monkeypatch.context() as m:
            patch_reports(m, lambda r: dataclasses.replace(r, **{bound: r.lps_upper + 1e-6}))
            code = cli_main(["audit", "--trials", "5", "--max-dim", "3", "--seed", "7"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 1, bound
        assert summary[count] == 5 and summary["violations"] == 0, bound


def test_exceptions_other_than_bad_input_exit_2(monkeypatch, capsys):
    for exc in (ValueError("bug"), IndexError("bug"), TypeError("bug")):
        def fail():
            raise exc

        monkeypatch.setattr(harness, "run_examples", fail)
        assert cli_main(["examples"]) == 2, exc
        assert capsys.readouterr().err.startswith("internal error:"), exc


def test_oversized_audit_dimension_is_rejected_before_drawing(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError(f"audit drawn with {args!r}")

    # every audit trial is drawn through _audit_draws
    monkeypatch.setattr(harness, "_audit_draws", refuse)
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
    # 5,001 digits: more than the JSON decoder reads as an integer
    for field in ("dim_a", "dim_b"):
        for size in (str(harness.MAX_STATE_DIM + 1), str(10**12), "1" + "0" * 5000):
            doc = {"dim_a": 2, "dim_b": 2, "entries": [[0, 0, 1, 0]]}
            doc[field] = 0
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc).replace(f'"{field}": 0', f'"{field}": {size}'))
            argv = ["analyze", "--psi", str(path), "--phi", phi_path]
            code = cli_main(argv + ["--alpha", "0.6", "--beta", "0.8"])
            err = capsys.readouterr().err
            assert code == 1, (field, size[:20])
            if len(size) > 4300:
                assert err.startswith("error:") and "4300 digits" in err, field
            else:
                assert repr(field) in err and size in err, (field, size)


def test_oversized_sweep_dimension_is_rejected_before_allocating(tmp_path, monkeypatch, capsys):
    # a record's first d-length array is a repeat of the family's runs
    _refuse(monkeypatch, "repeat")
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
