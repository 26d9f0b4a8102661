"""Pure-Python twin of the compiled kernel's ``Cyclo48`` arithmetic.

These are the package's former Python bodies of the product, the sum
and the normalisation of :class:`hexsaw.cyclo.Cyclo48`, which the
kernel entries ``cyclo_mul``, ``cyclo_add`` and ``cyclo_norm`` replace.
They use only Python ints, so they are exact at every size, and the
tests compare the kernel's canonical ``(n, d)`` with theirs.  It is an
oracle only: no package module imports it.
"""

from math import gcd

from hexsaw.cyclo import Cyclo48

_DEG = 16


def _norm(nums: list, d: int) -> "Cyclo48":
    """The canonical element nums / d (d nonzero, nums of length 16)."""
    if d != 1:
        g = gcd(*nums, d)
        if d < 0:
            g = -g
        if g != 1:
            nums = [a // g for a in nums]
            d //= g
    out = object.__new__(Cyclo48)
    out.n = tuple(nums)
    out.d = d
    return out


def _fold(c: list) -> list:
    """Reduce c in place to length 16 with z^m = z^(m-8) - z^(m-16).

    The top term goes first, so a term folded onto m-8 >= 16 folds again.
    """
    for m in range(len(c) - 1, _DEG - 1, -1):
        top = c.pop()
        if top:
            c[m - 8] += top
            c[m - 16] -= top
    return c


def _convolve(a: tuple, b: tuple) -> list:
    """Integer product of two numerator vectors, reduced mod z^16 - z^8 + 1."""
    # Most products in an elimination have a rational (often zero) factor.
    if not any(b[1:]):
        c = b[0]
        return [x * c for x in a]
    if not any(a[1:]):
        c = a[0]
        return [y * c for y in b]
    prod = [0] * (2 * _DEG - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    return _fold(prod)


def _mul(a: "Cyclo48", b: "Cyclo48") -> "Cyclo48":
    return _norm(_convolve(a.n, b.n), a.d * b.d)


def _add(a: "Cyclo48", b: "Cyclo48", s: int = 1) -> "Cyclo48":
    """a + s*b for s = 1 or -1, cross-multiplying only unequal denominators."""
    d1, d2 = a.d, b.d
    if d1 == d2:
        if s > 0:
            return _norm([x + y for x, y in zip(a.n, b.n)], d1)
        return _norm([x - y for x, y in zip(a.n, b.n)], d1)
    g = gcd(d1, d2)
    f1, f2 = d2 // g, s * (d1 // g)
    return _norm([x * f1 + y * f2 for x, y in zip(a.n, b.n)], d1 * f1)
