"""Critical constants of the loop model in both solution branches.

For -2 <= n <= 2 write n = 2*cos(theta) with theta in [0, pi].  The
dilute branch uses spin sigma = (pi + 3*theta)/(4*pi) and critical step
weight 1/x_c = 2*cos((pi - theta)/4); the dense branch uses
sigma = (pi - 3*theta)/(4*pi) and 1/x_c = 2*cos((pi + theta)/4).  The
special surface weight is y* = 1/(1 - 2*x_c**2).

At n = 0 (theta = pi/2) everything lives in Q(zeta_48) and the constants
are carried exactly; for other n they are floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Literal, Union

from .cyclo import Cyclo48, two_cos
from .errors import InvalidParameterError, ScalarModeError

Regime = Literal["dilute", "dense"]
Scalar = Union[Cyclo48, complex, float]


@dataclass(frozen=True)
class ModelConstants:
    """Bundle of critical parameters for one (n, regime) pair."""

    n: float | Fraction
    regime: Regime
    mode: Literal["exact", "float"]
    sigma: Fraction | float
    x_c: Scalar
    lam: Scalar           # exp(-i*sigma*pi/3), phase of one left turn
    y_star: Scalar
    coeff_a: Scalar       # cos(3*(pi -/+ theta)/4), weight of A in the trapezoid identity
    coeff_e: Scalar       # cos((pi -/+ theta)/2), weight of E
    eps_plus: Scalar      # cos((pi - theta)/4), weight of E+ in the rectangle identity
    eps_minus: Scalar     # cos((pi - theta)/2), weight of E-

    def one(self) -> Scalar:
        return Cyclo48.from_rational(1) if self.mode == "exact" else 1.0

    def phase(self, w: int) -> Scalar:
        """exp(-i*sigma*W) for a winding W = w*pi/3."""
        return self.lam ** w

    def beta(self, y) -> Scalar:
        """Weight of B in the trapezoid identity: (y*-y) / (y*(y*-1))."""
        y = self.surface_weight(y)
        return (self.y_star - y) / (y * (self.y_star - 1))

    def surface_weight(self, y) -> Scalar:
        """Coerce a surface fugacity into this constant set's scalar mode.

        The package's one admissibility rule for y: its float value must
        be positive and finite (beta has its pole at y = 0), or
        ``InvalidParameterError`` is raised.
        """
        if self.mode == "exact" and not isinstance(y, Rational):
            raise ScalarModeError(
                "exact mode needs a rational surface weight, got "
                f"{type(y).__name__}"
            )
        try:
            yf = float(y)
        except OverflowError:
            yf = math.inf if y > 0 else -math.inf
        if not 0 < yf < math.inf:
            raise InvalidParameterError(
                f"surface weight must be positive and finite, got {yf:.6g}")
        return Cyclo48.from_rational(Fraction(y)) if self.mode == "exact" else yf


def constants(n, regime: Regime = "dilute", mode: str = "auto") -> ModelConstants:
    if regime not in ("dilute", "dense"):
        raise InvalidParameterError(f"unknown regime {regime!r}")
    if mode == "auto":
        mode = "exact" if (isinstance(n, Rational) and n == 0) else "float"
    if mode == "exact":
        if not (isinstance(n, Rational) and n == 0):
            raise InvalidParameterError("exact constants exist only at n = 0")
        return _exact_n0(regime)
    if mode != "float":
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if not -2 <= n <= 2:  # before float(n), which overflows past 1e308
        raise InvalidParameterError(f"n = {n} outside [-2, 2]")
    n = float(n)
    theta = math.acos(n / 2.0)
    if regime == "dilute":
        sigma = (math.pi + 3 * theta) / (4 * math.pi)
        x_c = 1.0 / (2 * math.cos((math.pi - theta) / 4))
        coeff_a = math.cos(3 * (math.pi - theta) / 4)
        coeff_e = math.cos((math.pi - theta) / 2)
    else:
        sigma = (math.pi - 3 * theta) / (4 * math.pi)
        x_c = 1.0 / (2 * math.cos((math.pi + theta) / 4))
        coeff_a = math.cos(3 * (math.pi + theta) / 4)
        coeff_e = math.cos((math.pi + theta) / 2)
    return ModelConstants(
        n=n,
        regime=regime,
        mode="float",
        sigma=sigma,
        x_c=x_c,
        lam=cmath.exp(-1j * sigma * math.pi / 3),
        y_star=1.0 / (1.0 - 2.0 * x_c * x_c),
        coeff_a=coeff_a,
        coeff_e=coeff_e,
        eps_plus=math.cos((math.pi - theta) / 4),
        eps_minus=math.cos((math.pi - theta) / 2),
    )


def _exact_n0(regime: Regime) -> ModelConstants:
    one = Cyclo48.from_rational(1)
    if regime == "dilute":
        sigma = Fraction(5, 8)
        lam = Cyclo48.zeta_pow(-5)     # exp(-5i*pi/24)
        x_c = one / two_cos(3)         # 1 / (2*cos(pi/8))
        coeff_a = two_cos(9) / 2       # cos(3*pi/8)
        coeff_e = two_cos(6) / 2       # cos(pi/4)
    else:
        sigma = Fraction(-1, 8)
        lam = Cyclo48.zeta_pow(1)      # exp(i*pi/24)
        x_c = one / two_cos(9)         # 1 / (2*cos(3*pi/8))
        coeff_a = -two_cos(3) / 2      # cos(9*pi/8)
        coeff_e = -two_cos(6) / 2      # cos(3*pi/4)
    return ModelConstants(
        n=Fraction(0),
        regime=regime,
        mode="exact",
        sigma=sigma,
        x_c=x_c,
        lam=lam,
        y_star=one / (one - 2 * x_c * x_c),
        coeff_a=coeff_a,
        coeff_e=coeff_e,
        eps_plus=two_cos(3) / 2,
        eps_minus=two_cos(6) / 2,
    )
