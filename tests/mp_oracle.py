"""High-precision values of Q(zeta_48) elements, a test oracle.

mpmath is a test-only dependency: this evaluation is an independent
check of the integer enclosures behind ``Cyclo48.sign`` and
``Cyclo48.to_float``.
"""

import mpmath


def eval_mp(a, dps: int = 60):
    """The complex value of the Cyclo48 element ``a`` at ``dps`` digits."""
    with mpmath.workdps(dps):
        z = mpmath.exp(1j * mpmath.pi / 24)
        acc = mpmath.mpc(0)
        for c in reversed(a.n):
            acc = acc * z + mpmath.mpf(c)
        return acc / a.d
