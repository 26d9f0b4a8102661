"""Local vertex identity and the telescoped boundary identities."""

import json
from fractions import Fraction

import pytest

from hexsaw import domains as dm
from hexsaw import enumeration as en
from hexsaw import identity as idn
from hexsaw.cli import main
from hexsaw.model import constants


def test_local_identity_exact_dilute():
    c = constants(0, "dilute")
    rep = idn.check_local(dm.build_trapezoid(1, 2), c, 1)
    assert rep.ok and rep.exact_zero
    # surface vertices included: the trapezoid has a weighted top row
    surface = dm.build_trapezoid(1, 2).surface
    assert surface and all(v in rep.residuals for v in surface)


def test_local_identity_exact_dense():
    c = constants(0, "dense")
    rep = idn.check_local(dm.build_trapezoid(1, 1), c, 1)
    assert rep.ok and rep.exact_zero


@pytest.mark.parametrize("y", [1, Fraction(1, 2), Fraction(3, 2), 2])
def test_local_identity_surface_weight(y):
    # the surface correction must cancel for every admissible y, not
    # just y = 1 where it vanishes identically
    c = constants(0, "dilute")
    rep = idn.check_local(dm.build_trapezoid(1, 1), c, y)
    assert rep.exact_zero


@pytest.mark.parametrize("n", [-1.0, 1.0, 2.0])
def test_local_identity_float_with_loops(n):
    c = constants(n, "dilute", mode="float")
    rep = idn.check_local(dm.build_trapezoid(1, 1), c, 1.0, with_loops=True)
    assert rep.mode == "float" and not rep.exact_zero
    assert rep.max_abs < 1e-9 and rep.ok


@pytest.mark.parametrize("T,L", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("y", [1, Fraction(3, 2), 2])
def test_global_trapezoid_exact(T, L, y):
    c = constants(0, "dilute")
    rep = idn.check_global_trapezoid(T, L, c, y)
    assert rep.exact_zero, rep.residuals


@pytest.mark.parametrize("y", [1, Fraction(1, 2)])
def test_global_trapezoid_dense(y):
    c = constants(0, "dense")
    rep = idn.check_global_trapezoid(1, 2, c, y)
    assert rep.exact_zero, rep.residuals


def test_global_rectangle_exact():
    for regime in ("dilute", "dense"):
        c = constants(0, regime)
        for T in (1, 2, 3):
            for L in (1, 2, 3):
                rep = idn.check_global_rectangle(T, L, c)
                assert rep.exact_zero, (regime, T, L, rep.residuals)


@pytest.mark.parametrize("n", [-1.0, 1.0, 1.5])
@pytest.mark.parametrize("regime", ["dilute", "dense"])
def test_global_rectangle_float_with_loops(regime, n):
    c = constants(n, regime, mode="float")
    for T, L in [(1, 2), (2, 1), (2, 2)]:
        rep = idn.check_global_rectangle(T, L, c, with_loops=True)
        assert rep.max_abs <= 1e-12 and rep.ok, (T, L, rep.residuals)


@pytest.mark.parametrize("n", [-1.0, 1.0, 2.0])
def test_global_float_with_loops(n):
    c = constants(n, "dilute", mode="float")
    rep = idn.check_global_trapezoid(1, 2, c, 1.0, with_loops=True)
    assert rep.max_abs < 1e-9 and rep.ok


def test_identity_fails_off_criticality():
    # sanity: the identity is a property of the critical weight, so a
    # wrong x must leave a visible residual
    c = constants(0.0, "dilute", mode="float")
    perturbed = type(c)(**{**c.__dict__, "x_c": c.x_c * 1.01})
    rep = idn.check_local(dm.build_trapezoid(1, 1), perturbed, 1.0)
    assert rep.max_abs > 1e-6 and not rep.ok


def test_report_json_roundtrip(capsys):
    assert main(["verify-global", "--T", "1", "--L", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["results"]["exact_zero"] is True
    assert doc["results"]["kind"] == "global-trapezoid"
    assert doc["config"]["T"] == 1


@pytest.mark.parametrize("with_loops", [False, True])
def test_check_local_walks_once(monkeypatch, with_loops):
    calls = []
    iter_saws = en.iter_saws

    def counting(*args, **kwargs):
        calls.append(args)
        return iter_saws(*args, **kwargs)

    monkeypatch.setattr(en, "iter_saws", counting)
    c = constants(1.0, "dilute", mode="float") if with_loops else constants(0, "dilute")
    rep = idn.check_local(dm.build_trapezoid(1, 2), c, Fraction(3, 2), with_loops=with_loops)
    assert rep.ok
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_loops_at_n0_are_not_searched(monkeypatch, mode):
    """At n = 0 every loop term is 0, so with_loops enumerates no loops
    (a loop search would hit the zero cap) and changes no value."""
    monkeypatch.setattr(en, "LOOP_VERTEX_CAP", 0)
    c, y = constants(0, "dilute", mode), Fraction(3, 2)
    d = dm.build_trapezoid(1, 2)
    assert (idn.check_local(d, c, y, with_loops=True).residuals
            == idn.check_local(d, c, y).residuals)
    assert (idn.check_global_trapezoid(1, 2, c, y, with_loops=True).residuals
            == idn.check_global_trapezoid(1, 2, c, y).residuals)


def test_local_identity_exact_D32():
    # the surface correction on a domain with 38,723 walks, three rows deep
    rep = idn.check_local(dm.build_trapezoid(3, 2), constants(0, "dilute"), Fraction(3, 2))
    assert rep.exact_zero
    assert len(rep.residuals) == len(dm.build_trapezoid(3, 2).vertices)
