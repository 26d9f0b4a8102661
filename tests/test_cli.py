"""Command-line interface: exit codes, report schema, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hexsaw.cli import SCHEMA_VERSION, main
from hexsaw.strip import T_CAP_EXACT, T_CAP_FLOAT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_verify_local_ok(capsys):
    code, doc = run_json(capsys, "verify-local", "--T", "1", "--L", "2")
    assert code == 0
    assert doc["ok"] is True
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["command"] == "verify-local"
    assert doc["config"]["T"] == 1
    assert doc["results"]["exact_zero"] is True


def test_reports_name_the_backend(capsys):
    for argv in (
        ("verify-local", "--T", "1", "--L", "1"),
        ("strip-identity", "--T", "1", "--y", "2"),
        ("kesten", "--N", "4"),
        ("half-plane", "--N", "4"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["backend"] in ("compiled", "pure-python")


def test_verify_global_y(capsys):
    code, doc = run_json(
        capsys, "verify-global", "--T", "2", "--L", "1", "--y", "3/2"
    )
    assert code == 0 and doc["ok"] is True


def test_verify_rectangle(capsys):
    code, doc = run_json(capsys, "verify-rectangle", "--T", "2", "--L", "2")
    assert code == 0 and doc["results"]["exact_zero"] is True


def test_float_mode_with_loops(capsys):
    code, doc = run_json(
        capsys, "verify-local", "--T", "1", "--L", "1",
        "--n", "2", "--mode", "float", "--with-loops",
    )
    assert code == 0
    assert doc["results"]["exact_zero"] is False
    assert doc["results"]["max_abs_residual"] < 1e-9


def test_strip_identity_and_mu(capsys):
    code, doc = run_json(capsys, "strip-identity", "--T", "2", "--y", "2")
    assert code == 0 and doc["results"]["exact_zero"] is True
    code, doc = run_json(capsys, "strip-mu", "--Tmax", "3")
    assert code == 0 and doc["ok"] is True
    mus = [r["mu_T"] for r in doc["results"]["rows"]]
    assert mus == sorted(mus)


def test_strip_identity_T5_is_exact(capsys):
    code, doc = run_json(capsys, "strip-identity", "--T", "5")
    assert code == 0 and doc["ok"] is True
    assert doc["results"]["mode"] == "exact" and doc["results"]["exact_zero"] is True


def test_y_seq(capsys):
    code, doc = run_json(capsys, "y-seq", "--Tmax", "2", "--tol", "1e-6")
    assert code == 0 and doc["ok"] is True
    rows = doc["results"]["rows"]
    ys = [r["y_T"] for r in rows]
    assert ys[0] > ys[1] > 1 + 2**0.5
    assert [(r["states"], r["transitions"]) for r in rows] == [(8, 16), (18, 71)]


def test_kesten(capsys):
    code, doc = run_json(capsys, "kesten", "--N", "2,4,8")
    assert code == 0 and doc["ok"] is True
    sums = [r["kesten_partial"] for r in doc["results"]["rows"]]
    assert sums == sorted(sums) and sums[-1] < 1


@pytest.mark.parametrize("ns", ["4,5", "2,3,20"])
def test_kesten_odd_truncation_adds_nothing(capsys, ns):
    """Bridges have even length: an odd N repeats the sum at N - 1."""
    code, doc = run_json(capsys, "kesten", "--N", ns)
    assert code == 0 and doc["ok"] is True
    sums = [r["kesten_partial"] for r in doc["results"]["rows"]]
    assert sums[0] == sums[1]


def test_sample_deterministic(capsys):
    args = ("sample", "--N", "8", "--k", "4", "--seed", "3")
    code1, doc1 = run_json(capsys, *args)
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    doc1.pop("wall_time_s"), doc2.pop("wall_time_s")
    assert doc1 == doc2


def test_csv_output(capsys, tmp_path):
    out = tmp_path / "mu.csv"
    code, _ = run(
        capsys, "strip-mu", "--Tmax", "2", "--format", "csv",
        "--output", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2 and rows[0]["T"] == "1"
    assert (rows[1]["states"], rows[1]["transitions"]) == ("18", "71")


def test_output_file_json(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code, printed = run(
        capsys, "verify-local", "--T", "1", "--L", "1", "--output", str(out)
    )
    assert code == 0 and printed == ""
    assert json.loads(out.read_text())["ok"] is True


def test_half_plane(capsys):
    code, doc = run_json(capsys, "half-plane", "--N", "6")
    assert code == 0 and doc["ok"] is True


def test_usage_errors(capsys):
    # nonpositive surface weight
    assert main(["verify-local", "--T", "1", "--L", "1", "--y", "0"]) == 2
    capsys.readouterr()
    # exact mode with n != 0
    assert main(
        ["verify-local", "--T", "1", "--L", "1", "--n", "2", "--mode", "exact"]
    ) == 2
    capsys.readouterr()
    # unparsable rational
    assert main(["verify-global", "--T", "1", "--L", "1", "--y", "abc"]) == 2
    capsys.readouterr()
    # bridges need N >= 2 and lengths >= 0; strips need heights >= 1
    for argv in (
        ("kesten", "--N", "1"),
        ("kesten", "--N", "0,4"),
        ("kesten", "--N", "-3"),
        ("sample", "--N", "1", "--k", "2"),
        ("stickbreak-sweep", "--max-len", "-2"),
        ("half-plane", "--N", "-1"),
        ("bounds", "--Tmax", "0"),
        ("y-seq", "--Tmax", "0"),
        ("y-seq", "--Tmax", "-2"),
        ("strip-mu", "--Tmax", "0"),
        ("strip-identity", "--T", "0"),
    ):
        assert main(list(argv)) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "10"])
def test_y_seq_bad_tol_is_a_usage_error(capsys, tol):
    """A tolerance that bounds nothing is bad input, not a failed check."""
    assert main(["y-seq", "--Tmax", "3", "--tol", tol]) == 2
    assert "tol" in capsys.readouterr().err


def test_argparse_errors_become_exit_codes(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["verify-local"]) == 2  # missing required --T/--L
    capsys.readouterr()


def test_solver_and_capacity_errors_exit_3(capsys):
    # strip height above the transfer-operator cap
    assert main(["strip-identity", "--T", str(T_CAP_FLOAT + 1)]) == 3
    capsys.readouterr()
    # exact solve above its cap
    assert main(["strip-identity", "--T", str(T_CAP_EXACT + 1), "--mode", "exact"]) == 3
    capsys.readouterr()
    # surface weight beyond y_1: the strip series diverges
    assert main(["strip-identity", "--T", "1", "--y", "8"]) == 3
    capsys.readouterr()


def test_cli_import_stays_light():
    """Every CLI run is a fresh process, so no heavy optional import at load."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import hexsaw.cli, sys; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
