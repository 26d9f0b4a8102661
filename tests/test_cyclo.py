"""Field arithmetic in Q(zeta_48)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo_oracle
from hexsaw.cyclo import (
    _TOWER,
    ONE,
    SQRT2,
    ZERO,
    Cyclo48,
    _apply,
    _cos_table,
    _kernel,
    two_cos,
)
from hexsaw.errors import ScalarModeError
from mp_oracle import eval_mp

# every rational of denominator at most 6 in [-4, 4], simplest first so
# that examples shrink towards 0; one draw each, where st.fractions
# takes several and dominated the module's run time
small = st.sampled_from(sorted(
    {Fraction(n, d) for d in range(1, 7) for n in range(-4 * d, 4 * d + 1)},
    key=lambda q: (abs(q), q.denominator, q < 0),
))
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


@pytest.mark.parametrize("k, table", zip((47, 7, 17, 5), _TOWER), ids=["47", "7", "17", "5"])
@settings(max_examples=40, deadline=None)
@given(a=elements, b=elements, q=small)
def test_tower_tables_are_automorphisms(k, table, a, b, q):
    """Each inverse-tower table is sigma_k: it sends z to z^k, preserves
    products and sums and fixes the rationals; conjugate is sigma_47."""
    def sigma(x):
        return _apply(table, x)

    assert sigma(Cyclo48.zeta_pow(1)) == Cyclo48.zeta_pow(k)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(Cyclo48.from_rational(q)) == q
    if k == 47:
        assert a.conjugate() == sigma(a)


@settings(max_examples=40, deadline=None)
@given(elements)
def test_numeric_embedding_matches(a):
    z = a.to_complex()
    w = complex(eval_mp(a))
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
    assert SQRT2 * SQRT2 == 2
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
    assert Cyclo48.from_rational("3/2") == Fraction(3, 2)
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
        lambda: a < f, lambda: a <= f, lambda: a > f, lambda: a >= f,
        lambda: f < a, lambda: f <= a, lambda: f > a, lambda: f >= a,
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
    want = float(eval_mp(v, 300).real)
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


# -- rational elements against ints and Fractions -----------------------

rationals = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=10**12),
)


@settings(max_examples=60, deadline=None)
@given(rationals)
def test_rational_elements_hash_as_ints_and_fractions(q):
    a = Cyclo48.from_rational(q)
    assert a == q and q == a
    assert hash(a) == hash(q) == hash(Fraction(q))
    assert {q: "v"}.get(a) == "v"
    assert {a: "v"}.get(q) == "v"
    assert {Fraction(q): "v"}.get(a) == "v"
    assert len({a, q, Fraction(q)}) == 1


def test_one_is_the_int_one_as_a_dict_key():
    assert {1: "v"}.get(ONE) == "v"
    assert {ONE: "v"}.get(1) == "v"
    assert {Fraction(1, 2): "v"}.get(ONE / 2) == "v"
    assert hash(ZERO) == hash(0)
    # an irrational element is still hashable and equal to itself only
    assert {SQRT2: "v"}.get(SQRT2 * ONE) == "v" and SQRT2 not in {1: 0, 2: 0}


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_comparisons_with_ints_and_fractions(p, q):
    a = Cyclo48.from_rational(p)
    fp, fq = Fraction(p), Fraction(q)
    for x, y, want in ((a, q, (fp, fq)), (q, a, (fq, fp))):
        assert (x < y) == (want[0] < want[1])
        assert (x <= y) == (want[0] <= want[1])
        assert (x > y) == (want[0] > want[1])
        assert (x >= y) == (want[0] >= want[1])


def test_comparisons_in_both_operand_orders():
    assert ONE >= 1 and ONE <= 1 and 1 <= ONE and 1 >= ONE
    assert 1 < SQRT2 and SQRT2 > 1 and SQRT2 >= Fraction(7, 5) and Fraction(3, 2) > SQRT2
    assert not (ONE > 1) and not (1 < ONE)
    with pytest.raises(ValueError):
        Cyclo48.zeta_pow(1) > 0     # comparing a non-real element


# -- the kernel's arithmetic against the Python oracle --------------------

FAST = 1 << _kernel.CYCLO_FAST_BITS
# the fast path's bound, and the int64 and uint64 limits, each side
EDGES = sorted({e + k for e in (FAST, 1 << 63, 1 << 64) for k in (-1, 0, 1)})
# each edge with either sign, as one draw
SIGNED_EDGES = tuple(s * e for e in EDGES for s in (1, -1))


# bit sizes on both sides of the fast path's bound, up to about 700 bits
sizes = st.one_of(st.integers(min_value=0, max_value=_kernel.CYCLO_FAST_BITS),
                  st.integers(min_value=0, max_value=700))


def _of_size(bits):
    return st.integers(min_value=-(1 << bits) + 1, max_value=(1 << bits) - 1)


numerators = st.one_of(
    sizes.flatmap(_of_size),
    st.sampled_from(SIGNED_EDGES),
)
denominators = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(EDGES),
    sizes.flatmap(lambda b: st.integers(min_value=1, max_value=1 << b)),
)
numerator_vectors = st.one_of(
    sizes.flatmap(lambda b: st.lists(_of_size(b), min_size=16, max_size=16)),  # one size
    st.lists(numerators, min_size=16, max_size=16),                            # mixed sizes
    numerators.map(lambda x: [x] + [0] * 15),                                  # rational
    st.just([0] * 16),                                                         # zero
    st.lists(st.sampled_from(SIGNED_EDGES) | st.just(0), min_size=16, max_size=16),
    st.sampled_from(SIGNED_EDGES).map(lambda x: [x] * 16),                     # largest sums
)
operands = st.builds(lambda n, d: (tuple(n), d), numerator_vectors, denominators)


def _elem(n, d):
    out = object.__new__(Cyclo48)
    out.n, out.d = n, d
    return out


def _form(x):
    return x.n, x.d


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_kernel_product_matches_oracle(c_kernel, a, b):
    want = _form(cyclo_oracle._mul(_elem(*a), _elem(*b)))
    assert c_kernel.cyclo_mul(*a, *b) == want
    assert c_kernel.cyclo_mul(*b, *a) == want


@settings(max_examples=300, deadline=None)
@given(operands, operands, st.sampled_from((1, -1)))
def test_kernel_sum_matches_oracle(c_kernel, a, b, s):
    assert c_kernel.cyclo_add(*a, *b, s) == _form(cyclo_oracle._add(_elem(*a), _elem(*b), s))
    assert c_kernel.cyclo_add(*a, *a, -1) == ((0,) * 16, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(numerators, max_size=40), denominators)
def test_kernel_normalisation_matches_oracle(c_kernel, nums, d):
    folded = cyclo_oracle._fold(list(nums))
    want = _form(cyclo_oracle._norm(folded + [0] * (16 - len(folded)), d))
    assert c_kernel.cyclo_norm(tuple(nums), d) == want


def test_kernel_results_are_ints_in_canonical_form(c_kernel):
    # the largest operands of the int128 path, whose products come
    # nearest its overflow, and the smallest past it
    for x in (FAST - 1, FAST):
        top, low = (x,) * 16, (-x,) * 8 + (x,) * 8
        for a, b in ((top, top), (top, low), (low, low)):
            want = _form(cyclo_oracle._mul(_elem(a, x), _elem(b, x)))
            assert c_kernel.cyclo_mul(a, x, b, x) == want
    big = (1 << 200) + 1
    for n, d in (c_kernel.cyclo_mul((FAST - 1,) * 16, FAST - 1, (FAST - 1,) * 16, FAST - 1),
                 c_kernel.cyclo_add((big,) * 16, 1 << 64, (3,) * 16, 6, -1),
                 c_kernel.cyclo_norm((6, 4), 2)):
        assert len(n) == 16 and all(type(x) is int for x in n) and type(d) is int
        assert d > 0 and math.gcd(*n, d) == 1
    assert c_kernel.cyclo_norm((6, 4), 2) == ((3, 2) + (0,) * 14, 1)
    assert c_kernel.cyclo_norm((), 5) == ((0,) * 16, 1)
    # z^24 = -1 and z^16 = z^8 - 1, folded from any length
    assert c_kernel.cyclo_norm((0,) * 24 + (1,), 1) == ((-1,) + (0,) * 15, 1)
    assert c_kernel.cyclo_norm((0,) * 16 + (1,), 1) == ((-1,) + (0,) * 7 + (1,) + (0,) * 7, 1)
    assert c_kernel.cyclo_norm((0,) * 48 + (7,), 3) == ((7,) + (0,) * 15, 3)


def test_kernel_arithmetic_rejects_malformed_arguments(c_kernel):
    n, one = (1,) + (0,) * 15, 1
    type_errors = [
        (c_kernel.cyclo_mul, (list(n), one, n, one)),           # numerators not a tuple
        (c_kernel.cyclo_mul, (n[:-1] + (1.0,), one, n, one)),   # a non-int numerator
        (c_kernel.cyclo_mul, (n, one, n, Fraction(1))),          # a non-int denominator
        (c_kernel.cyclo_add, (n, one, n[:-1] + ("1",), one, 1)),
        (c_kernel.cyclo_norm, ((1, None), one)),
        (c_kernel.cyclo_add, (n, one, n, one, -1.0)),             # a non-int sign
        (c_kernel.cyclo_mul, (n, one, n)),                       # wrong argument count
        (c_kernel.cyclo_add, (n, one, n, one)),
        (c_kernel.cyclo_norm, (n,)),
    ]
    value_errors = [
        (c_kernel.cyclo_mul, (n[:-1], one, n, one)),             # 15 numerators
        (c_kernel.cyclo_add, (n, one, n + (0,), one, 1)),        # 17 numerators
        (c_kernel.cyclo_mul, (n, 0, n, one)),                    # d <= 0
        (c_kernel.cyclo_mul, (n, one, n, -1)),
        (c_kernel.cyclo_add, (n, -(1 << 70), n, one, 1)),
        (c_kernel.cyclo_norm, (n, 0)),
        (c_kernel.cyclo_add, (n, one, n, one, 0)),               # sign not +-1
        (c_kernel.cyclo_add, (n, one, n, one, 2)),
    ]
    for fn, args in type_errors:
        with pytest.raises(TypeError):
            fn(*args)
    for fn, args in value_errors:
        with pytest.raises(ValueError):
            fn(*args)
