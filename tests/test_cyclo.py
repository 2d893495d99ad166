import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from grouplie.cyclo import (
    CycloScalar,
    class_sums,
    context,
    cyclotomic_polynomial,
    galois_array,
    scalar_of,
)
from grouplie.errors import (
    BadParameters,
    ConductorMismatch,
    DivisionByZero,
    IntegerBoundExceeded,
)


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_degree_is_phi(m):
    assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12, 24])
def test_root_of_unity_identities(m):
    ctx = context(m)
    z = ctx.zeta(1)
    assert z * ctx.zeta(m - 1) == 1
    power = ctx.one
    for _ in range(m):
        power = power * z
    assert power == 1
    for k in range(m):
        assert ctx.zeta(k).conj() == ctx.zeta((m - k) % m)


@pytest.mark.parametrize("m", [2, 3, 5, 7, 11])
def test_prime_conductor_full_sum_vanishes(m):
    ctx = context(m)
    total = ctx.zero
    for k in range(m):
        total = total + ctx.zeta(k)
    assert total.is_zero()


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        context(4).zeta(1) + context(6).zeta(1)


def test_division_by_zero():
    ctx = context(5)
    with pytest.raises(DivisionByZero):
        ctx.zero.inverse()


def test_inverse_simple():
    ctx = context(5)
    a = ctx.one + ctx.zeta(1)
    assert a * a.inverse() == 1
    assert ctx.zeta(2) * ctx.zeta(2).inverse() == 1


coeff = st.integers(min_value=-6, max_value=6)


def scalars(m):
    ctx = context(m)
    d = ctx.degree
    return st.lists(coeff, min_size=d, max_size=d).map(
        lambda cs: CycloScalar(ctx, tuple(cs))
    )


@settings(max_examples=100)
@given(scalars(12), scalars(12), scalars(12))
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100)
@given(scalars(12))
def test_multiplicative_inverse(a):
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=100)
@given(scalars(10), scalars(10))
def test_conj_is_ring_map(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


UNITS_12 = [k for k in range(-12, 13) if math.gcd(k, 12) == 1]


@settings(max_examples=100)
@given(scalars(12), scalars(12), st.sampled_from(UNITS_12), st.sampled_from(UNITS_12))
def test_galois_is_ring_map_and_composes(a, b, k, l):
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert a.galois(k).galois(l) == a.galois(k * l % 12)


@settings(max_examples=50)
@given(scalars(6), st.sampled_from([6, 12, 18, 24, 60]))
def test_galois_one_is_the_embedding(a, big):
    step = big // 6
    powers = [0] * big
    for j, c in enumerate(a.coeffs):
        powers[j * step] = c
    assert a.galois(1, big) == a.embed(big) == context(big).from_powers(powers)


def test_galois_rejects_a_non_unit():
    with pytest.raises(BadParameters):
        context(12).zeta(1).galois(3)


fraction = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@pytest.mark.parametrize("m", [21, 23, 60])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inverse_single_term_and_norm(m, data):
    ctx = context(m)
    c = data.draw(fraction.filter(bool))
    k = data.draw(st.integers(0, ctx.degree - 1))
    single = CycloScalar(ctx, tuple(c if i == k else 0 for i in range(ctx.degree)))
    assert single * single.inverse() == 1
    dense = CycloScalar(ctx, tuple(data.draw(st.lists(fraction, min_size=ctx.degree,
                                                       max_size=ctx.degree))))
    if sum(1 for x in dense.coeffs if x) >= 2:
        assert dense * dense.inverse() == 1


def test_to_complex_values():
    assert complex(context(1).one) == 1.0
    i = complex(context(4).zeta(1))
    assert abs(i - 1j) < 1e-12
    ctx = context(5)
    golden = complex(ctx.zeta(1) + ctx.zeta(4))
    # 2 cos(2 pi / 5), frozen from (sqrt(5) - 1) / 2
    assert abs(golden - 0.6180339887498949) < 1e-12


def test_to_complex_precision_scaling():
    ctx = context(7)
    v = ctx.zeta(3) * Fraction(355, 113) + ctx.zeta(5)
    import cmath

    reference = Fraction(355, 113) * cmath.exp(2j * cmath.pi * 3 / 7) + cmath.exp(
        2j * cmath.pi * 5 / 7
    )
    assert abs(complex(v) - reference) < 1e-13


def test_embed():
    z3 = context(3).zeta(1)
    assert z3.embed(12) == context(12).zeta(4)
    assert abs(complex(z3.embed(12)) - complex(z3)) < 1e-12
    with pytest.raises(ConductorMismatch):
        z3.embed(8)


def test_fraction_coefficients_survive():
    ctx = context(6)
    v = ctx.zeta(1) * Fraction(1, 2)
    assert (v + v) == ctx.zeta(1)
    assert not v.is_rational()


def test_serialization_round_trip():
    ctx = context(12)
    v = ctx.zeta(5) * Fraction(3, 7) - ctx.zeta(2) + 4
    data = v.to_json()
    assert len(data) == 12
    assert CycloScalar.from_json(12, data) == v


def test_padded_length_matches_conductor():
    ctx = context(8)
    assert len(ctx.zeta(3).padded_coeffs()) == 8


def test_rational_detection():
    ctx = context(5)
    assert ctx.from_fraction(Fraction(2, 3)).as_fraction() == Fraction(2, 3)
    assert not ctx.zeta(1).is_rational()
    # 1 + z + z^2 + z^3 + z^4 = 0 makes z^4 rational minus the rest
    total = sum((ctx.zeta(k) for k in range(1, 5)), ctx.zero)
    assert total == -1


# -- int64 coefficient arrays ------------------------------------------------

DIVISORS = {1: [1], 4: [1, 2, 4], 12: [1, 3, 4, 6, 12], 60: [1, 5, 12, 15, 20, 60]}


def _scalars(arr, ctx):
    return [[scalar_of(v, ctx) for v in row] for row in arr]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_sums_equals_scalar_sums(data):
    # the kernel against sum_c w_c * a[i][c] * conj(b[j][c]) in CycloScalars,
    # with b drawn at a conductor dividing m and mapped in by galois(-1, m)
    m = data.draw(st.sampled_from(sorted(DIVISORS)))
    m_b = data.draw(st.sampled_from(DIVISORS[m]))
    ctx, ctx_b = context(m), context(m_b)
    ra, rb, k = (data.draw(st.integers(1, 3)) for _ in range(3))

    def ints(shape, bound):
        flat = data.draw(st.lists(st.integers(-bound, bound), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.int64).reshape(shape)

    a = ints((ra, k, ctx.degree), 40)
    b = ints((rb, k, ctx_b.degree), 40)
    w = ints((k,), 6)
    got = class_sums(a, galois_array(b, -1, ctx_b, ctx), w, ctx)
    assert got.shape == (ra, rb, ctx.degree)

    sa = _scalars(a, ctx)
    sb = [[v.galois(-1, ctx) for v in row] for row in _scalars(b, ctx_b)]
    for i in range(ra):
        for j in range(rb):
            expected = ctx.zero
            for c in range(k):
                expected = expected + int(w[c]) * sa[i][c] * sb[j][c]
            assert scalar_of(got[i, j], ctx) == expected


def test_galois_array_matches_scalar_galois():
    ctx = context(12)
    values = [[ctx.zeta(1) + 3, ctx.zeta(5) * 2 - ctx.zeta(2)], [ctx.one, ctx.zero]]
    arr = np.array([[v.coeffs for v in row] for row in values], dtype=np.int64)
    for k, target in ((-1, None), (5, None), (1, 24), (7, 60)):
        mapped = galois_array(arr, k, ctx, target)
        out_ctx = ctx if target is None else context(target)
        assert _scalars(mapped, out_ctx) == [[v.galois(k, target) for v in row]
                                            for row in values]
    with pytest.raises(BadParameters):
        galois_array(arr, 2, ctx)
    with pytest.raises(ConductorMismatch):
        galois_array(arr, 1, ctx, 18)


def test_class_sums_bound_guard():
    ctx = context(12)
    big = np.full((1, 2, ctx.degree), 2**29, dtype=np.int64)
    # 2 classes * phi(12) * (2^29)^2 = 2^61, and the reduction through
    # Phi_12 = x^4 - x^2 + 1 adds at most 3 such sums: below 2^63 ...
    class_sums(big, big, [1, 1], ctx)
    # ... and twice that is not: the guard raises before any product
    with pytest.raises(IntegerBoundExceeded):
        class_sums(big * 2, big, [1, 1], ctx)
    with pytest.raises(IntegerBoundExceeded):
        class_sums(big, big, [2**40, 0], ctx)
    with pytest.raises(IntegerBoundExceeded):
        galois_array(np.full((1, 1, ctx.degree), 2**62, dtype=np.int64), -1, ctx)


def test_class_sums_exact_across_the_float64_limit():
    # below 2^53 the kernel runs in float64, from 2^53 on in int64; both
    # sides give the exact product (at 2^27 + 1 a float64 square would lose
    # its low bit)
    ctx = context(1)
    for v in (2**26, 2**26 + 1, 2**26 + 2**25, 2**27 + 1, 2**31 - 1):
        for sign in (1, -1):
            a = np.array([[[v]]], dtype=np.int64)
            got = class_sums(a, sign * a, [1], ctx)
            assert got.dtype == np.int64 and int(got[0, 0, 0]) == sign * v * v
    # a sum over classes and conductor 12 on both sides of the limit
    ctx = context(12)
    for v in (2**24, 2**25 + 3):
        a = np.full((1, 2, ctx.degree), v, dtype=np.int64)
        a[0, 1, 1] = -v
        expected = ctx.zero
        for c in range(2):
            s = scalar_of(a[0, c], ctx)
            expected = expected + 3 * s * s
        assert scalar_of(class_sums(a, a, [3, 3], ctx)[0, 0], ctx) == expected


def test_class_sums_blocks_match_row_by_row():
    # 70 x 40 pairs at phi(60) = 16 take several blocks of plane products;
    # each row of `a` alone takes one
    ctx = context(60)
    rng = np.random.default_rng(7)
    a = rng.integers(-5, 6, (70, 3, ctx.degree))
    b = rng.integers(-5, 6, (40, 3, ctx.degree))
    w = [2, -1, 3]
    whole = class_sums(a, b, w, ctx)
    for i in range(len(a)):
        assert np.array_equal(whole[i], class_sums(a[i:i + 1], b, w, ctx)[0])
    assert class_sums(a, b[:0], w, ctx).shape == (70, 0, ctx.degree)
