"""Command-line interface: exit codes, report schema, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest

import walk_oracle
from hexsaw import bridges as br
from hexsaw.bridges import N_CAP
from hexsaw.cli import COMMANDS, SCHEMA_VERSION, build_parser, main
from hexsaw.lattice import Walk
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
        assert doc["backend"] == "compiled"


def test_verify_global_y(capsys):
    code, doc = run_json(
        capsys, "verify-global", "--T", "2", "--L", "1", "--y", "3/2"
    )
    assert code == 0 and doc["ok"] is True


def test_verify_rectangle(capsys):
    for regime in ("dilute", "dense"):
        code, doc = run_json(capsys, "verify-rectangle", "--T", "2", "--L", "2",
                             "--regime", regime)
        assert code == 0 and doc["results"]["exact_zero"] is True, regime


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


def test_kesten_checks_increase_in_n_not_argument_order(capsys):
    code, doc = run_json(capsys, "kesten", "--N", "16,4")
    assert code == 0 and doc["ok"] is True
    rows = doc["results"]["rows"]
    assert [r["N"] for r in rows] == [16, 4]
    code, doc = run_json(capsys, "kesten", "--N", "4,16")
    assert code == 0 and doc["results"]["rows"] == rows[::-1]


def test_sample_deterministic(capsys):
    args = ("sample", "--N", "8", "--k", "4", "--seed", "3")
    code1, doc1 = run_json(capsys, *args)
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    doc1.pop("wall_time_s"), doc2.pop("wall_time_s")
    assert doc1 == doc2


def test_wall_time_is_a_duration_when_the_clock_steps_back(capsys, monkeypatch):
    """wall_time_s comes from a monotonic clock: a wall clock stepped back
    an hour per reading during the run leaves it non-negative."""
    clock = count(1_000_000, -3600)
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    code, doc = run_json(capsys, "strip-identity", "--T", "1", "--y", "2")
    assert code == 0 and doc["wall_time_s"] >= 0


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


@pytest.mark.parametrize("argv", [
    ("verify-local", "--T", "1", "--L", "1"),
    ("verify-global", "--T", "1", "--L", "1"),
    ("verify-rectangle", "--T", "1", "--L", "1"),
    ("strip-identity", "--T", "1"),
    ("stickbreak-sweep",),
    ("sample",),
])
def test_format_only_where_rows_exist(capsys, argv):
    """A subcommand without rows has no --format: asking for CSV is a
    usage error, not JSON under another name."""
    assert main([*argv, "--format", "csv"]) == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["y-seq", "strip-mu"])
def test_root_searches_pass_the_resolvent_cap(capsys, command):
    """y_T and mu_T need no resolvent: both sequences go past T_CAP_FLOAT."""
    Tmax = T_CAP_FLOAT + 1
    code, doc = run_json(capsys, command, "--Tmax", str(Tmax))
    rows = doc["results"]["rows"]
    assert code == 0 and doc["ok"] is True and rows[-1]["T"] == Tmax


def test_bounds_picks_one_mode_for_the_suite(capsys):
    """Above T_CAP_EXACT the whole auto-mode suite runs in floats; below
    it, all of it stays exact."""
    code, doc = run_json(capsys, "bounds", "--Tmax", str(T_CAP_EXACT + 1), "--y-grid", "1")
    assert code == 0 and doc["ok"] is True and doc["results"]["mode"] == "float"
    assert all(isinstance(c["margin"], float) for c in doc["results"]["checks"])
    code, doc = run_json(capsys, "bounds", "--Tmax", "3", "--y-grid", "1")
    assert code == 0 and doc["ok"] is True and doc["results"]["mode"] == "exact"


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


def test_half_plane_verdict_is_exact(capsys):
    """C_n^+(y) >= y^((n+1)//2), the weight of the surface zigzag, which
    has (n+1)//2 contacts: true at every y > 0, also below y = 1/2, where
    C_1^+(y) = 2y < 1.  The verdict is exact and the rows report floats."""
    for y in ("1/3", "0.4999999999999", "1/2", "2"):
        code, doc = run_json(capsys, "half-plane", "--N", "4", "--y", y)
        assert code == 0 and doc["ok"] is True, y
        rows = doc["results"]["rows"]
        assert rows[1]["zigzag_bound"] == float(Fraction(y)), y
        assert rows[3]["zigzag_bound"] == float(Fraction(y) ** 2), y
    assert rows[1] == {"n": 1, "walks": 2, "C_n_plus": 4.0, "zigzag_bound": 2.0}


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
    # bridges need N >= 2, a stickbreak sweep --max-len >= 2 and lengths
    # >= 0; strips need heights >= 1
    for argv in (
        ("kesten", "--N", "1"),
        ("kesten", "--N", "0,4"),
        ("kesten", "--N", "-3"),
        ("kesten", "--N", "1,30"),   # checked before the counts' cap
        ("sample", "--N", "1", "--k", "2"),
        ("stickbreak-sweep", "--max-len", "-2"),
        ("stickbreak-sweep", "--max-len", "0"),
        ("stickbreak-sweep", "--max-len", "1"),
        ("half-plane", "--N", "-1"),
        ("bounds", "--Tmax", "0"),
        ("y-seq", "--Tmax", "0"),
        ("y-seq", "--Tmax", "-2"),
        ("strip-mu", "--Tmax", "0"),
        ("strip-identity", "--T", "0"),
    ):
        assert main(list(argv)) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize("text", ["", "4,,8", "4.5", "a"])
def test_kesten_bad_truncation_list_names_the_option(capsys, text):
    assert main(["kesten", "--N", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --N: need comma-separated integers, got {text!r}\n"


@pytest.mark.parametrize("argv", [
    ("half-plane", "--N", "4", "--y", "nan"),
    ("half-plane", "--N", "4", "--y", "inf"),
    ("strip-mu", "--Tmax", "2", "--y", "nan"),
    ("strip-mu", "--Tmax", "2", "--y", "inf"),
    ("verify-global", "--T", "1", "--L", "1", "--y", "nan", "--mode", "float"),
    ("bounds", "--Tmax", "2", "--y-grid", "0"),
    ("bounds", "--Tmax", "6", "--y-grid", "0"),
    ("strip-identity", "--T", "2", "--y", "1e400"),
    ("verify-local", "--T", "1", "--L", "1", "--n", "1e400", "--mode", "float"),
    # the dense branch has 1/x_c = 0 at n = -2
    ("verify-local", "--T", "1", "--L", "1", "--n", "-2", "--regime", "dense",
     "--mode", "float"),
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    """nan, inf and a surface weight that is not positive and finite are
    bad input: exit 2 and one error line, not a traceback, a failed check
    or a solver that did not converge."""
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("strip-mu", "--Tmax", "3", "--y", "100"),
    ("strip-mu", "--Tmax", "2", "--y", "1e6"),
    ("half-plane", "--N", "4", "--y", "1e100"),
])
def test_large_surface_weights_are_admissible(capsys, argv):
    """Weights that put mu_T's root below x = 0.15, and a half-plane
    weight whose powers stay in the float range: exit 0, checks holding."""
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["ok"] is True


@pytest.mark.parametrize("Tmax, y", [("3", "1e6"), ("6", "1e4")])
def test_strip_mu_tie_is_undecided(capsys, Tmax, y):
    """mu_2 and mu_3 agree to within the spectral radius tolerance, which
    leaves the strict-increase check without a verdict: exit 3 and one
    error line naming both heights and values, not a falsified check."""
    assert main(["strip-mu", "--Tmax", Tmax, "--y", y]) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "mu_2 = 1" in err and "mu_3 = 1" in err and "cannot be decided" in err


@pytest.mark.parametrize("y", ["1e200", "1e154"])
def test_half_plane_past_the_float_range_is_a_capacity_error(capsys, y):
    """y ** i past the float range (1e200) or a count times it past it
    (1e154): exit 3 and one error line, not a traceback or an inf row."""
    assert main(["half-plane", "--N", "4", "--y", y]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "float range" in err


def test_loops_at_n0_change_nothing(capsys):
    """At n = 0 every loop term is 0: --with-loops searches no loops
    (D(3,3) has 51 vertices, past the loop search cap) and leaves the
    residual as it is."""
    argv = ("verify-global", "--T", "3", "--L", "3")
    code, plain = run_json(capsys, *argv)
    code_loops, dressed = run_json(capsys, *argv, "--with-loops")
    assert code == code_loops == 0
    assert dressed["results"] == plain["results"]


@pytest.mark.parametrize("bad", [
    lambda b: Walk(turns=("R",) * 6),   # not self-avoiding
    lambda b: Walk(turns=("R",)),       # a half-plane walk, not a bridge
    lambda b: b,                        # a bridge two steps too short
    lambda b: Walk(),                   # the empty walk, which has no class
], ids=["self-intersecting", "not-a-bridge", "wrong-length", "empty"])
def test_stickbreak_sweep_counts_failures(capsys, monkeypatch, bad):
    """A stickbreak output that is not a bridge two steps longer is a
    counted failure: exit 1 with a report that names the first failing
    bridge and pair, not an error.  The failures come from the Python
    sweep over a broken stickbreak, standing in for the kernel's."""
    monkeypatch.setattr(br, "stickbreak", lambda b, i, j: bad(b))
    monkeypatch.setattr(br, "stickbreak_sweep", walk_oracle.stickbreak_sweep)
    code, out = run(capsys, "stickbreak-sweep", "--max-len", "6")
    assert code == 1 and capsys.readouterr().err == ""
    results = json.loads(out)["results"]
    assert results["failures"] == results["pairs_checked"] > 0
    first = results["first_failure"]
    assert first["i"] < first["j"] and first["turns"]


def test_stickbreak_sweep_is_capped(capsys):
    assert main(["stickbreak-sweep", "--max-len", str(N_CAP + 1)]) == 3
    assert "capped" in capsys.readouterr().err


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
    # strip height above the float resolvent's cap
    assert main(["strip-identity", "--T", str(T_CAP_FLOAT + 1)]) == 3
    capsys.readouterr()
    assert main(["bounds", "--Tmax", str(T_CAP_FLOAT + 1)]) == 3
    capsys.readouterr()
    # exact solve above its cap
    assert main(["strip-identity", "--T", str(T_CAP_EXACT + 1), "--mode", "exact"]) == 3
    capsys.readouterr()
    # surface weight beyond y_1: the strip series diverges
    assert main(["strip-identity", "--T", "1", "--y", "8"]) == 3
    capsys.readouterr()


def test_help_lists_every_subcommand(capsys):
    """`hexsaw --help` names all eleven subcommands, and each one's
    --help exits 0."""
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert len(COMMANDS) == 11
    for name, (help_, _, _) in COMMANDS.items():
        assert name in out and help_ in out
    for name in COMMANDS:
        assert main([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: hexsaw {name} ")


def _parse_output(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_subparser_reads_like_all(capsys, name):
    """The parser built for one subcommand gives the same help, usage and
    errors as the one built for all of them."""
    one, every = build_parser(name), build_parser()
    assert one.format_usage() == every.format_usage()
    for argv in ([name, "--help"], [name, "--bogus"], [name, "extra"]):
        assert _parse_output(capsys, one, argv) == _parse_output(capsys, every, argv)


# The thread count of the OpenBLAS mapped into this process, or None:
# numpy 2 wheels name the entry scipy_openblas_get_num_threads64_,
# numpy 1.24 wheels openblas_get_num_threads64_.
_BLAS_THREADS = """
def blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None
"""
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_import(c_kernel, user_env, numpy_first=False):
    """Import hexsaw.cli in a fresh interpreter, with none of the thread
    variables set but ``user_env``'s and numpy loaded first or not.  It
    returns the variables the import set and OpenBLAS's thread count, and
    skips when no OpenBLAS is mapped."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import importlib.util, json, os, sys\n"
        f"spec = importlib.util.spec_from_file_location('hexsaw._dfs', {c_kernel.__file__!r})\n"
        "sys.modules['hexsaw._dfs'] = kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        + "import numpy\n" * numpy_first
        + "before = dict(os.environ)\n"
        "import hexsaw.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "added = {k: v for k, v in os.environ.items() if before.get(k) != v}\n"
        + _BLAS_THREADS
        + "print(json.dumps([added, blas_threads()]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(user_env, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    added, threads = json.loads(proc.stdout)
    if threads is None:
        pytest.skip("no OpenBLAS is mapped into the process")
    return added, threads


def test_cli_import_stays_light(c_kernel):
    """Every CLI run is a fresh process, so no heavy optional import at
    load, and OpenBLAS starts with one thread, not one per CPU."""
    assert _fresh_import(c_kernel, {}) == ({"OPENBLAS_NUM_THREADS": "1"}, 1)


@pytest.mark.parametrize("user_env, numpy_first, threads", [
    ({"OPENBLAS_NUM_THREADS": "2"}, False, 2),
    ({"OMP_NUM_THREADS": "2"}, False, 2),
    ({}, True, None),               # numpy chose its threads before hexsaw loaded
], ids=["openblas-2", "omp-2", "numpy-first"])
def test_import_keeps_blas_threads_chosen_first(c_kernel, user_env, numpy_first, threads):
    """A thread count the user set, or a numpy loaded before hexsaw,
    is kept: the import sets no variable."""
    added, seen = _fresh_import(c_kernel, user_env, numpy_first)
    assert added == {}
    if threads is not None:
        # OpenBLAS runs no more threads than the process may use CPUs
        assert seen == min(threads, len(os.sched_getaffinity(0)))
