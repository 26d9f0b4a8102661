"""Exact arithmetic in the cyclotomic field Q(zeta_48).

Elements live on the power basis 1, z, ..., z^15, where z = exp(i*pi/24)
is a primitive 48th root of unity with minimal polynomial x^16 - x^8 + 1.
This field contains every constant the model needs at n = 0: cos(pi/8),
cos(3*pi/8), sqrt(2), the critical step weight and the phase factors
attached to windings that are multiples of pi/24.

An element is stored as 16 integer numerators over one positive integer
denominator, (n_0, ..., n_15) / d, normalised so that
gcd(n_0, ..., n_15, d) = 1 (zero is (0, ..., 0) / 1).  The form is
canonical, so equal values have equal ``==`` and ``hash`` (a rational
element hashes as the equal int or Fraction).  Products are integer
convolutions reduced with the fixed rule z^16 = z^8 - 1 (and so
z^24 = -1).  Products, sums and the normal form run in the compiled
kernel (``cyclo_mul``, ``cyclo_add`` and ``cyclo_norm`` in ``_dfs.c``),
in 128-bit integers while every numerator and denominator is below 2^60
and on Python ints beyond; ``tests/cyclo_oracle.py`` keeps the Python
twin they are tested against.

The Galois automorphisms sigma_k: z -> z^k, k a unit mod 48, act on
the numerators by tables compiled once, each image numerator a signed
sum of one or two of them, and keep the denominator; complex
conjugation is sigma_47.  Inverses use no rational Euclid: a tower of
four quadratic steps through the Galois group turns a into its norm
N(a), a positive rational, and a^-1 is the product of the four
cofactors divided by N(a).  These, powers, signs and
comparisons are Python code over the kernel's products and sums.

Signs and float values of real elements come from exact integer
enclosures: d * Re(a) = sum n_k cos(k*pi/24) is bracketed by
sum n_k C_k / 2^p, where the integers C_k are within one unit of
2^p cos(k*pi/24), and p doubles until the bracket excludes 0 (a nonzero
element is bounded away from 0 by its norm, so this ends).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from numbers import Complex, Rational

from .errors import ScalarModeError
from .lattice import _kernel

_DEG = 16


def _zeta_terms(j: int) -> tuple:
    """z^j on the power basis, as ((index, sign), ...) with 1 or 2 terms."""
    j %= 48
    sign = 1
    if j >= 24:                  # z^24 = -1
        j -= 24
        sign = -1
    if j < _DEG:
        return ((j, sign),)
    return ((j - 8, sign), (j - 16, -sign))     # z^16 = z^8 - 1


def _sigma_table(k: int):
    """sigma_k as a function of a numerator tuple n, compiled once: the
    image is one tuple expression whose entry t is the signed sum of the
    n[i] whose z^(k*i) has a term at z^t."""
    cols: list[str] = [""] * _DEG
    for i in range(_DEG):
        for t, s in _zeta_terms(k * i):
            cols[t] += f"{'-' if s < 0 else '+'}n[{i}]"
    return eval("lambda n: (" + ", ".join(c.lstrip("+") for c in cols) + ",)")


# sigma_k for the tower 47 (complex conjugation), 7, 17, 5 of the Galois
# group (Z/48)^*: each generator squares into the subgroup of the ones
# before it, so a*sigma_k(a) climbs one quadratic step per generator.
_CONJ = _sigma_table(47)
_TOWER = (_CONJ, _sigma_table(7), _sigma_table(17), _sigma_table(5))


def _norm(nums, d: int) -> "Cyclo48":
    """The canonical element nums / d (d > 0, nums of any length, folded
    onto 16 numerators)."""
    out = object.__new__(Cyclo48)
    out.n, out.d = _kernel.cyclo_norm(tuple(nums), d)
    return out


def _rational(p: int, q: int = 1) -> "Cyclo48":
    if q < 0:
        p, q = -p, -q
    return _norm((p,), q)


def _mul(a: "Cyclo48", b: "Cyclo48") -> "Cyclo48":
    out = object.__new__(Cyclo48)
    out.n, out.d = _kernel.cyclo_mul(a.n, a.d, b.n, b.d)
    return out


def _add(a: "Cyclo48", b: "Cyclo48", s: int = 1) -> "Cyclo48":
    """a + s*b for s = 1 or -1."""
    out = object.__new__(Cyclo48)
    out.n, out.d = _kernel.cyclo_add(a.n, a.d, b.n, b.d, s)
    return out


def _apply(table, a: "Cyclo48") -> "Cyclo48":
    """sigma(a) for an automorphism table; the content and d are unchanged."""
    res = object.__new__(Cyclo48)
    res.n = table(a.n)
    res.d = a.d
    return res


def _coerce(x) -> "Cyclo48 | None":
    if isinstance(x, Cyclo48):
        return x
    if isinstance(x, int):
        return _rational(x)
    if isinstance(x, Rational):
        return _rational(x.numerator, x.denominator)
    return None


def _mixing_error(other) -> ScalarModeError:
    return ScalarModeError(f"cannot mix exact Cyclo48 with {type(other).__name__}")


def _exact_fraction(x) -> Fraction:
    """Fraction(x) for ints, rationals and rational strings; floats refused."""
    if isinstance(x, Complex) and not isinstance(x, Rational):
        raise ScalarModeError(f"Cyclo48 needs exact rationals, got {type(x).__name__}")
    return Fraction(x)


class Cyclo48:
    """An element of Q(zeta_48): integer numerators ``n`` over ``d > 0``."""

    __slots__ = ("n", "d")

    def __init__(self, coeffs):
        qs = [_exact_fraction(x) for x in coeffs]
        d = lcm(*(q.denominator for q in qs))
        nums = tuple(q.numerator * (d // q.denominator) for q in qs)
        self.n, self.d = _kernel.cyclo_norm(nums, d)

    @classmethod
    def from_rational(cls, q) -> "Cyclo48":
        q = _exact_fraction(q)
        return _rational(q.numerator, q.denominator)

    @classmethod
    def zeta_pow(cls, k: int) -> "Cyclo48":
        """z**k for any integer k (reduced mod 48)."""
        nums = [0] * _DEG
        for t, s in _zeta_terms(k):
            nums[t] += s
        return _norm(nums, 1)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            raise _mixing_error(other)
        return _add(self, o)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Cyclo48)
        out.n = tuple(-a for a in self.n)
        out.d = self.d
        return out

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            raise _mixing_error(other)
        return _add(self, o, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            raise _mixing_error(other)
        return _add(o, self, -1)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            raise _mixing_error(other)
        return _mul(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo48":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_48)")
        if self.is_rational():
            return _rational(self.d, self.n[0])
        # a * c_0 * c_1 * c_2 * c_3 = N(a), with c_k = sigma_k(a_k) and
        # a_{k+1} = a_k * c_k fixed by the first k+1 tower automorphisms.
        a = self
        cof = None
        for table in _TOWER:
            c = _apply(table, a)
            a = _mul(a, c)
            cof = c if cof is None else _mul(c, cof)
        return _mul(cof, _rational(a.d, a.n[0]))    # a = N(a) is rational now

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            raise _mixing_error(other)
        return _mul(self, o.inverse())

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            raise _mixing_error(other)
        return _mul(o, self.inverse())

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ScalarModeError("exponent of a Cyclo48 must be an integer")
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = ONE
        while k:
            if k & 1:
                out = _mul(out, base)
            k >>= 1
            if k:
                base = _mul(base, base)
        return out

    # -- field automorphisms and predicates -----------------------------

    def conjugate(self) -> "Cyclo48":
        """Complex conjugation, z -> z^-1."""
        return _apply(_CONJ, self)

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_rational(self) -> bool:
        return not any(self.n[1:])

    # -- numeric evaluation ---------------------------------------------

    def to_complex(self) -> complex:
        z = cmath.exp(1j * cmath.pi / 24)
        d = self.d
        acc = 0j
        for a in reversed(self.n):
            acc = acc * z + complex(a / d)
        return acc

    def to_float(self) -> float:
        """The value of a real element, within one ulp; realness is
        tested exactly."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        if not self:
            return 0.0
        S, p = self._scaled_real(54)
        return S / (self.d << p)   # int / int rounds correctly

    def _scaled_real(self, guard: int) -> tuple[int, int]:
        """(S, p) with |S - 2^p * d * Re(self)| < |S| / 2^guard, for
        Re(self) != 0.

        S = sum n_k C_k is within sum |n_k| of 2^p * d * Re(self) (see
        :func:`_cos_table`).  The first p is 64 bits past the scale
        max|n_k| / d of the value, rounded up to 64 * 2^j, and p doubles
        until that error is below |S| / 2^guard.
        """
        err = sum(abs(a) for a in self.n)
        need = max(0, max(abs(a) for a in self.n).bit_length() - self.d.bit_length()) + 64
        p = 64
        while p < need:
            p *= 2
        while True:
            S = sum(a * c for a, c in zip(self.n, _cos_table(p)))
            if abs(S) > err << guard:
                return S, p
            p *= 2

    def sign(self) -> int:
        """Sign of a real element, decided exactly: from an integer
        enclosure of its value that excludes 0."""
        if not self:
            return 0
        if not self.is_real():
            raise ValueError("sign() requires a real element")
        return 1 if self._scaled_real(0)[0] > 0 else -1

    def _cmp(self, other) -> int:
        o = _coerce(other)
        if o is None:
            raise ScalarModeError("cannot compare Cyclo48 with floats")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __le__(self, other):
        return self == other or self < other

    def __ge__(self, other):
        return self == other or self > other

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.d == o.d and self.n == o.n

    def __hash__(self):
        """Equal to the hash of the equal int or Fraction, for a rational
        element."""
        if self.is_rational():
            return hash(Fraction(self.n[0], self.d))
        return hash((self.n, self.d))

    def __bool__(self):
        return any(self.n)

    def __repr__(self):
        terms = [f"{Fraction(a, self.d)}*z^{i}" for i, a in enumerate(self.n) if a]
        return "Cyclo48(" + (" + ".join(terms) or "0") + ")"


ZERO = _rational(0)
ONE = _rational(1)


@lru_cache(maxsize=None)
def _cos_table(p: int) -> tuple:
    """Integers C_k with |C_k - 2^p cos(k*pi/24)| < 1, for k = 0..15.

    Each cos(k * 7.5 deg) is a nested square root of integers: cos 15 and
    cos 75 are (sqrt 6 +- sqrt 2) / 4, the odd multiples of 7.5 deg are
    half angles of them, and cos 22.5, 30, 45 and 67.5 are sqrt(2 +- sqrt 2)
    / 2, sqrt 3 / 2 and sqrt 2 / 2.  They are evaluated with floor square
    roots at 16 guard bits, where the worst error, under 8 units from
    sqrt((1 - cos 15) / 2), vanishes in the final rounding.  Callers use
    p = 64 * 2^j only, so the cache stays small.
    """
    guard = 16
    q = p + guard
    one = 1 << q

    def root(a: int) -> int:
        """2^q sqrt(x), rounded down, from a = 2^q x."""
        return isqrt(a << q)

    r2, r6 = root(2 * one), root(6 * one)
    c15, c75 = (r6 + r2) >> 2, (r6 - r2) >> 2
    c = [one, root((one + c15) >> 1), c15, root(2 * one + r2) >> 1,
         root(3 * one) >> 1, root((one + c75) >> 1), r2 >> 1, root((one - c75) >> 1),
         one >> 1, root(2 * one - r2) >> 1, c75, root((one - c15) >> 1), 0]
    c += [-c[24 - k] for k in range(13, _DEG)]    # cos(pi - t) = -cos t
    return tuple((x + (1 << guard - 1)) >> guard for x in c)


def two_cos(k: int) -> Cyclo48:
    """2*cos(k*pi/24) as an exact element."""
    return Cyclo48.zeta_pow(k) + Cyclo48.zeta_pow(-k)


SQRT2 = two_cos(6)
