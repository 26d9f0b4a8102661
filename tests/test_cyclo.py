"""Field arithmetic in Q(zeta_48)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsaw.cyclo import ONE, SQRT2, ZERO, Cyclo48, _cos_table, two_cos
from hexsaw.errors import ScalarModeError

small = st.fractions(
    max_denominator=6,
    min_value=Fraction(-4),
    max_value=Fraction(4),
)
elements = st.builds(
    lambda coeffs: Cyclo48(tuple(coeffs)),
    st.lists(small, min_size=16, max_size=16),
)


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=40, deadline=None)
@given(elements)
def test_inverse(a):
    if a == ZERO:
        with pytest.raises(ZeroDivisionError):
            ONE / a
    else:
        assert a * (ONE / a) == ONE


@settings(max_examples=40, deadline=None)
@given(elements, elements)
def test_conjugation_is_automorphism(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(elements)
def test_numeric_embedding_matches(a):
    z = a.to_complex()
    w = complex(a.eval_mp())
    assert abs(z - w) < 1e-9


def test_zeta_powers():
    z = Cyclo48.zeta_pow(1)
    acc = ONE
    for k in range(1, 97):
        acc = acc * z
        assert acc == Cyclo48.zeta_pow(k)
    assert Cyclo48.zeta_pow(24) == -ONE
    assert Cyclo48.zeta_pow(48) == ONE
    assert Cyclo48.zeta_pow(-1) == Cyclo48.zeta_pow(47)


def test_two_cos_values():
    for k in range(0, 24):
        assert abs(two_cos(k).to_float() - 2 * math.cos(k * math.pi / 24)) < 1e-12


def test_frozen_constants():
    # growth constant of the hexagonal lattice: 2cos(pi/8) = sqrt(2+sqrt 2)
    assert abs(two_cos(3).to_float() - 1.8477590650225735) < 1e-12
    assert abs(SQRT2.to_float() - math.sqrt(2)) < 1e-15
    # special surface weight 1 + sqrt(2)
    y_star = ONE / (ONE - 2 * (ONE / two_cos(3)) ** 2)
    assert abs(y_star.to_float() - 2.414213562373095) < 1e-12
    assert y_star == ONE + SQRT2


def test_rationality_and_sign():
    assert (SQRT2 * SQRT2).is_rational()
    assert (SQRT2 * SQRT2).as_rational() == 2
    assert SQRT2.is_real()
    assert SQRT2.sign() == 1
    assert (-SQRT2).sign() == -1
    assert ZERO.sign() == 0
    assert (SQRT2 - ONE).sign() == 1
    assert SQRT2 > ONE


def test_scalar_mode_guard():
    with pytest.raises(ScalarModeError):
        SQRT2 + 0.5
    with pytest.raises(ScalarModeError):
        SQRT2 * 1.2
    assert SQRT2 + Fraction(1, 2) == SQRT2 + Cyclo48.from_rational(Fraction(1, 2))


def test_constructors_refuse_floats():
    for bad in (0.1, 0.5, 1.0, 2j, complex(1, 0)):
        with pytest.raises(ScalarModeError):
            Cyclo48.from_rational(bad)
        with pytest.raises(ScalarModeError):
            Cyclo48([1, bad])


def test_constructors_accept_exact_rationals():
    half = Cyclo48.from_rational(Fraction(1, 2))
    assert Cyclo48.from_rational("1/2") == half
    assert Cyclo48.from_rational(Fraction(3, 6)) == half
    assert Cyclo48.from_rational(3) == Cyclo48([3])
    assert Cyclo48.from_rational("3/2").as_rational() == Fraction(3, 2)
    z = Cyclo48.zeta_pow(1)
    assert Cyclo48([Fraction(1, 2), "3/2", 2]) == half + z * Fraction(3, 2) + z * z * 2


def test_power_and_float_guard():
    z = Cyclo48.zeta_pow(5)
    assert z ** 0 == ONE
    assert z ** -5 == ONE / z ** 5
    with pytest.raises(ValueError):
        Cyclo48.zeta_pow(1).to_float()   # genuinely complex


# -- the integer-numerator representation ------------------------------


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_canonical_form(a, b):
    for x in (a, b, a + b, a * b, a - b):
        assert x.d > 0
        assert math.gcd(*x.n, x.d) == 1
        assert len(x.n) == 16 and all(isinstance(v, int) for v in x.n)
    # the same value reached by another route has the same form and hash
    s = (a + b) - b
    assert (s.n, s.d) == (a.n, a.d) and hash(s) == hash(a)


@settings(max_examples=60, deadline=None)
@given(small, st.integers(min_value=1, max_value=12))
def test_equal_rationals_hash_equal(q, k):
    scaled = Cyclo48([Fraction(q.numerator * k, q.denominator * k)])
    direct = Cyclo48.from_rational(q)
    assert scaled == direct and hash(scaled) == hash(direct)
    assert Cyclo48([Fraction(2, 4)]) == Cyclo48.from_rational(Fraction(1, 2))
    assert hash(Cyclo48([Fraction(2, 4)])) == hash(Cyclo48.from_rational(Fraction(1, 2)))
    assert ZERO.n == (0,) * 16 and ZERO.d == 1


@settings(max_examples=25, deadline=None)
@given(elements, st.integers(min_value=-40, max_value=40))
def test_power_matches_repeated_multiplication(a, k):
    if a == ZERO and k < 0:
        with pytest.raises(ZeroDivisionError):
            a ** k
        return
    base = a if k >= 0 else a.inverse()
    expected = ONE
    for _ in range(abs(k)):
        expected = expected * base
    assert a ** k == expected


@settings(max_examples=40, deadline=None)
@given(elements, elements)
def test_to_complex_is_a_ring_embedding(a, b):
    za, zb = a.to_complex(), b.to_complex()
    scale = max(1.0, abs(za), abs(zb)) ** 2
    assert abs((a * b).to_complex() - za * zb) < 1e-9 * scale
    if a != ZERO:
        inv = a.inverse().to_complex()
        assert abs(inv * za - 1) < 1e-8 * max(1.0, abs(inv) * abs(za))


@settings(max_examples=40, deadline=None)
@given(elements, st.floats(allow_nan=False, allow_infinity=False))
def test_float_mixing_raises(a, f):
    for op in (
        lambda: a + f, lambda: f + a, lambda: a - f, lambda: f - a,
        lambda: a * f, lambda: f * a, lambda: a / f, lambda: f / a,
        lambda: a < f,
    ):
        with pytest.raises(ScalarModeError):
            op()
    with pytest.raises(ScalarModeError):
        a ** 1.0


# -- exact sign and float value ----------------------------------------


def _pell_convergents(max_digits):
    """(p, q) with p/q the convergents of sqrt 2, so p^2 - 2 q^2 = +-1."""
    p, q = 1, 1
    while len(str(p)) <= max_digits:
        yield p, q
        p, q = p + 2 * q, p + q


def test_cos_table_within_one_unit():
    import mpmath

    for p in (64, 128, 512, 4096):
        with mpmath.workdps(p // 3 + 40):
            for k, C in enumerate(_cos_table(p)):
                assert abs(C - mpmath.ldexp(mpmath.cos(k * mpmath.pi / 24), p)) < 1, (p, k)


def test_sign_of_pell_differences():
    """p - q*sqrt(2) = (p^2 - 2q^2) / (p + q*sqrt(2)) is about 1/(2p):
    at 80 digits it is 1e-80 next to 80-digit coefficients."""
    seen = 0
    for p, q in _pell_convergents(80):
        v = p - q * SQRT2
        assert v.sign() == (1 if p * p > 2 * q * q else -1), len(str(p))
        assert (-v).sign() == -v.sign()
        seen += 1
    assert seen > 100


@settings(max_examples=40, deadline=None)
@given(elements, st.integers(min_value=0, max_value=400))
def test_to_float_within_one_ulp(a, bits):
    """Real values with coefficients of up to about 400 bits: to_float
    is within one ulp of a 300-digit evaluation."""
    v = (a + a.conjugate()) * (1 << bits) + Cyclo48.from_rational(Fraction(1, 3))
    want = float(v.eval_mp(300).real)
    got = v.to_float()
    assert abs(got - want) <= math.ulp(want), (got, want)


def test_to_float_tests_realness_exactly():
    import mpmath

    i = Cyclo48.zeta_pow(12)
    with pytest.raises(ValueError, match="not real"):
        (ONE + i * Fraction(1, 10**30)).to_float()
    assert ZERO.to_float() == 0.0
    # real, with coefficients of up to 80 digits cancelling to 1e-80
    for p, q in _pell_convergents(80):
        with mpmath.workdps(200):
            want = float(mpmath.mpf(p) - q * mpmath.sqrt(2))
        assert abs((p - q * SQRT2).to_float() - want) <= math.ulp(want), len(str(p))
