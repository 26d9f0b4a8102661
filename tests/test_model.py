"""Critical constants in both regimes, exact and float."""

import cmath
import math
from fractions import Fraction

import pytest

from hexsaw.cyclo import ONE, SQRT2, Cyclo48, two_cos
from hexsaw.errors import InvalidParameterError, ScalarModeError
from hexsaw.model import constants


def test_exact_dilute():
    c = constants(0, "dilute")
    assert c.mode == "exact"
    assert c.x_c * two_cos(3) == ONE                       # 1/x_c = 2cos(pi/8)
    assert c.y_star == ONE + SQRT2
    assert c.lam == Cyclo48.zeta_pow(-5)                   # exp(-i*5pi/24)
    assert c.sigma == Fraction(5, 8)
    assert abs(c.coeff_a.to_float() - math.cos(3 * math.pi / 8)) < 1e-14
    assert abs(c.coeff_e.to_float() - math.cos(math.pi / 4)) < 1e-14
    assert abs(c.eps_plus.to_float() - math.cos(math.pi / 8)) < 1e-14
    assert abs(c.eps_minus.to_float() - math.cos(math.pi / 4)) < 1e-14
    assert abs(c.x_c.to_float() - 1 / math.sqrt(2 + math.sqrt(2))) < 1e-14


def test_exact_dense():
    c = constants(0, "dense")
    assert c.x_c * two_cos(9) == ONE                       # 1/x_c = 2cos(3pi/8)
    assert c.y_star == ONE - SQRT2
    assert c.lam == Cyclo48.zeta_pow(1)
    assert c.sigma == Fraction(-1, 8)
    assert abs(c.coeff_a.to_float() - math.cos(9 * math.pi / 8)) < 1e-14
    assert abs(c.coeff_e.to_float() - math.cos(3 * math.pi / 4)) < 1e-14
    assert abs(c.eps_plus.to_float() - math.cos(3 * math.pi / 8)) < 1e-14


@pytest.mark.parametrize("n,mode", [(0, "exact"), (0.0, "float"), (1.0, "float"),
                                    (-1.5, "float")])
@pytest.mark.parametrize("regime", ["dilute", "dense"])
def test_eps_minus_is_coeff_e(n, mode, regime):
    c = constants(n, regime, mode)
    assert c.eps_minus == c.coeff_e


@pytest.mark.parametrize("n", [-1.0, 0.0, 1.0, 2.0])
@pytest.mark.parametrize("regime", ["dilute", "dense"])
def test_float_branch_solves_local_weights(n, regime):
    c = constants(n, regime, mode="float")
    theta = math.acos(n / 2)
    sign = -1 if regime == "dilute" else 1
    assert abs(1 / c.x_c - 2 * math.cos((math.pi + sign * theta) / 4)) < 1e-12
    assert abs(c.lam - cmath.exp(-1j * c.sigma * math.pi / 3)) < 1e-15
    assert abs(c.y_star - 1 / (1 - 2 * c.x_c**2)) < 1e-12


def test_float_matches_exact_at_n0():
    ce = constants(0, "dilute")
    cf = constants(0.0, "dilute", mode="float")
    assert abs(ce.x_c.to_float() - cf.x_c) < 1e-14
    assert abs(ce.lam.to_complex() - cf.lam) < 1e-14
    assert abs(ce.coeff_a.to_float() - cf.coeff_a) < 1e-14
    assert abs(ce.coeff_e.to_float() - cf.coeff_e) < 1e-14


@pytest.mark.parametrize("regime", ["dilute", "dense"])
def test_scalar_readouts_agree_between_modes_at_n0(regime):
    ce = constants(0, regime)
    cf = constants(0.0, regime, mode="float")
    for h in range(6):
        de, df = ce.direction(h), cf.direction(h)
        assert abs(de.to_complex() - df) < 1e-15
        assert abs(ce.magnitude(de) - cf.magnitude(df)) < 1e-15
        assert abs(ce.magnitude(de * ce.x_c) - cf.magnitude(df * cf.x_c)) < 1e-15
    for name in ("x_c", "coeff_a", "coeff_e", "eps_plus"):
        ve, vf = getattr(ce, name), getattr(cf, name)
        assert abs(ce.real(ve) - cf.real(vf)) < 1e-15
        assert abs(ce.magnitude(ve) - cf.magnitude(vf)) < 1e-15


def test_phase_and_beta():
    c = constants(0, "dilute")
    assert c.phase(6) == (c.lam) ** 6
    # beta(1) = (y* - 1)/(y* - 1) = 1
    assert c.beta(1) == ONE
    # beta(y*) would need rational y; beta(2) = (sqrt2 - 1)/(2 sqrt2)
    val = c.beta(2)
    assert abs(val.to_float() - (math.sqrt(2) - 1) / (2 * math.sqrt(2))) < 1e-14


def test_guards():
    with pytest.raises(InvalidParameterError):
        constants(0, "bogus")
    with pytest.raises(InvalidParameterError):
        constants(1, mode="exact")
    with pytest.raises(InvalidParameterError):
        constants(3.0, mode="float")
    # the dense branch has 1/x_c = 2*cos(pi/2) = 0 at n = -2
    for n in (-2, -2.0, Fraction(-2)):
        with pytest.raises(InvalidParameterError):
            constants(n, "dense", "float")
    assert constants(-2.0, "dilute", "float").x_c == 0.5
    with pytest.raises(ScalarModeError):
        constants(0, "dilute").surface_weight(1.5)
    assert constants(0.5, "dilute").mode == "float"


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("y", [0, -1, Fraction(-1, 2), Fraction(10**400),
                               Fraction(-(10**400)), Fraction(1, 10**400)])
def test_surface_weight_is_positive_and_finite(mode, y):
    """The one admissibility rule for y, in both scalar modes; the
    message names the value briefly, not as a 400-digit integer."""
    with pytest.raises(InvalidParameterError, match="positive and finite") as exc:
        constants(0, "dilute", mode).surface_weight(y)
    assert len(str(exc.value)) < 80


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, 0.0, -2.5])
def test_float_surface_weight_refuses_nan_and_inf(y):
    with pytest.raises(InvalidParameterError):
        constants(1.0, "dilute", "float").surface_weight(y)
