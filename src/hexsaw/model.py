"""Critical constants of the loop model in both solution branches.

For -2 <= n <= 2 write n = 2*cos(theta) with theta in [0, pi], and set
s = -1 on the dilute branch and s = +1 on the dense one.  With
phi = pi + s*theta, one table serves both branches:

    1/x_c = 2*cos(phi/4)            sigma = (pi - 3*s*theta)/(4*pi)
    alpha = cos(3*phi/4)            coeff_e = cos(phi/2)
    eps_plus = cos(phi/4)           y* = 1/(1 - 2*x_c**2)

The dense branch has no x_c at n = -2, where cos(phi/4) = cos(pi/2) = 0.

At n = 0 (theta = pi/2) everything lives in Q(zeta_48) and the constants
are carried exactly, with angles in units of pi/24 and
cos(k) = two_cos(k)/2; for other n they are floats.
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
    """Bundle of critical parameters for one (n, regime) pair, and the one
    owner of its scalar mode: the checks never test a scalar's type."""

    n: float | Fraction
    regime: Regime
    mode: Literal["exact", "float"]
    sigma: Fraction | float
    x_c: Scalar
    lam: Scalar           # exp(-i*sigma*pi/3), phase of one left turn
    y_star: Scalar
    coeff_a: Scalar       # alpha = cos(3*phi/4), weight of A in the boundary identities
    coeff_e: Scalar       # cos(phi/2), weight of E, EBAR and E-
    eps_plus: Scalar      # cos(phi/4), weight of E+ in the rectangle identity
    eps_minus: Scalar     # weight of E-: coeff_e, kept under the rectangle's name

    def one(self) -> Scalar:
        return Cyclo48.from_rational(1) if self.mode == "exact" else 1.0

    def direction(self, h: int) -> Scalar:
        """(p - v)/|p - v| for the mid-edge p along heading h."""
        if self.mode == "exact":
            return Cyclo48.zeta_pow(12 - 8 * h)
        return cmath.exp(1j * (cmath.pi / 2 - h * cmath.pi / 3))

    def real(self, v: Scalar) -> float:
        """A real scalar of this set, as a float."""
        return v.to_float() if self.mode == "exact" else float(v)

    def magnitude(self, v: Scalar) -> float:
        """|v| as a float."""
        return abs(v.to_complex() if self.mode == "exact" else v)

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


# s in phi = pi + s*theta and sigma = (pi - 3*s*theta)/(4*pi)
_SIGN = {"dilute": -1, "dense": 1}


def constants(n, regime: Regime = "dilute", mode: str = "auto") -> ModelConstants:
    if regime not in _SIGN:
        raise InvalidParameterError(f"unknown regime {regime!r}")
    s = _SIGN[regime]
    if mode == "auto":
        mode = "exact" if (isinstance(n, Rational) and n == 0) else "float"
    if mode == "exact":
        if not (isinstance(n, Rational) and n == 0):
            raise InvalidParameterError("exact constants exist only at n = 0")
        # angles in units of pi/24: pi = 24 and theta = acos(0) = 12
        n, pi, theta, one = Fraction(0), Fraction(24), 12, Cyclo48.from_rational(1)

        def cos(k):
            return two_cos(int(k)) / 2
    elif mode == "float":
        if not -2 <= n <= 2:  # before float(n), which overflows past 1e308
            raise InvalidParameterError(f"n = {n} outside [-2, 2]")
        if s == 1 and n == -2:
            raise InvalidParameterError("the dense branch has no x_c at n = -2: "
                                        "1/x_c = 2*cos(pi/2) = 0")
        n, pi, one, cos = float(n), math.pi, 1.0, math.cos
        theta = math.acos(n / 2.0)
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    sigma = (pi - 3 * s * theta) / (4 * pi)
    phi = pi + s * theta
    x_c = one / (2 * cos(phi / 4))
    coeff_e = cos(phi / 2)
    return ModelConstants(
        n=n,
        regime=regime,
        mode=mode,
        sigma=sigma,
        x_c=x_c,
        # exp(-i*sigma*pi/3) = zeta_48^(-8*sigma)
        lam=(Cyclo48.zeta_pow(int(-8 * sigma)) if mode == "exact"
             else cmath.exp(-1j * sigma * math.pi / 3)),
        y_star=one / (one - 2 * x_c * x_c),
        coeff_a=cos(3 * phi / 4),
        coeff_e=coeff_e,
        eps_plus=cos(phi / 4),
        eps_minus=coeff_e,
    )
