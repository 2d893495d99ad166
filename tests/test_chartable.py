import dataclasses
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from grouplie.chartable import (
    CharacterTable,
    _certify,
    _find_prime,
    _split_eigenspaces,
    character_table,
    class_constants,
)
from grouplie.cyclo import context
from grouplie.errors import (
    IndicatorOutOfRange,
    IntegerBoundExceeded,
    InvariantViolated,
    LiftInconsistent,
    PrimeSearchFailed,
)
from grouplie.groups import (
    catalog,
    conjugacy_data,
    identity_automorphism,
    linear_characters,
    parse_group_spec,
)
from grouplie.indicators import indicator_reports
from grouplie.liealg import make_context
from grouplie.verify import default_catalog


def brute_force_constant(group, cd, i, j, k):
    z = cd.representatives[k]
    return sum(
        1
        for x in cd.classes[i]
        for y in cd.classes[j]
        if group.mult[x][y] == z
    )


def test_class_constants_identity_class():
    s3 = catalog("symmetric", 3)
    cd = conjugacy_data(s3)
    a = class_constants(s3, cd)
    e = cd.class_of[0]
    for j in range(cd.num_classes):
        for k in range(cd.num_classes):
            assert a[e][j][k] == (1 if j == k else 0)


def test_class_constants_transpositions_s3():
    s3 = catalog("symmetric", 3)
    cd = conjugacy_data(s3)
    a = class_constants(s3, cd)
    t = next(c for c in range(cd.num_classes) if cd.sizes[c] == 3)
    e = cd.class_of[0]
    # 3 ways to write the identity as a product of two transpositions
    assert a[t][t][e] == 3
    for i in range(cd.num_classes):
        for j in range(cd.num_classes):
            for k in range(cd.num_classes):
                assert a[i][j][k] == brute_force_constant(s3, cd, i, j, k)


def test_class_constants_representative_independent():
    q8 = catalog("quaternion8")
    cd = conjugacy_data(q8)
    a = class_constants(q8, cd)
    for k, cls in enumerate(cd.classes):
        for z in cls:
            for i in range(cd.num_classes):
                for j in range(cd.num_classes):
                    count = sum(
                        1
                        for x in cd.classes[i]
                        for y in cd.classes[j]
                        if q8.mult[x][y] == z
                    )
                    assert count == a[i][j][k]


def test_class_constants_abelian_zero_one():
    g = catalog("cyclic", 6)
    cd = conjugacy_data(g)
    a = class_constants(g, cd)
    for i in range(6):
        for j in range(6):
            for k in range(6):
                expected = 1 if g.mult[i][j] == k else 0
                assert a[i][j][k] == expected


def test_table_z3():
    z3 = catalog("cyclic", 3)
    t = character_table(z3)
    assert t.degrees == (1, 1, 1)
    ctx = context(3)
    rows = {tuple(row) for row in t.scalar_rows()}
    expected = {
        tuple(ctx.zeta((k * c) % 3) for c in range(3)) for k in range(3)
    }
    assert rows == expected


def test_table_s3():
    s3 = catalog("symmetric", 3)
    t = character_table(s3)
    assert t.degrees == (1, 1, 2)
    cd = t.class_data
    e = cd.class_of[0]
    transp = next(c for c in range(3) if cd.sizes[c] == 3)
    cyc = next(c for c in range(3) if cd.sizes[c] == 2)
    std = t.scalar_rows()[2]
    assert std[e] == 2 and std[transp] == 0 and std[cyc] == -1


def test_table_q8():
    q8 = catalog("quaternion8")
    t = character_table(q8)
    assert t.degrees == (1, 1, 1, 1, 2)
    two_dim = t.scalar_rows()[4]
    e = t.class_data.class_of[0]
    minus_one = t.class_data.class_of[1]
    assert two_dim[e] == 2 and two_dim[minus_one] == -2
    others = [c for c in range(5) if c not in (e, minus_one)]
    assert all(two_dim[c] == 0 for c in others)


def test_table_s5_degrees():
    t = character_table(catalog("symmetric", 5))
    assert sorted(t.degrees) == [1, 1, 4, 4, 5, 5, 6]
    assert sum(d * d for d in t.degrees) == 120


def test_table_a5_degrees():
    t = character_table(catalog("alternating", 5))
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]


@pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6", "symmetric:4",
                                  "alternating:4", "frobenius21",
                                  "product:cyclic:2,cyclic:4"])
def test_orthogonality_exact(spec):
    g = parse_group_spec(spec)
    t = character_table(g)
    cd = t.class_data
    k = cd.num_classes
    ctx, rows = t.context(), t.scalar_rows()
    assert t.num_irreps == k
    assert sum(d * d for d in t.degrees) == g.order
    assert all(g.order % d == 0 for d in t.degrees)
    for i in range(k):
        for j in range(k):
            acc = ctx.zero
            for c in range(k):
                acc = acc + cd.sizes[c] * rows[i][c] * rows[j][c].conj()
            assert acc == (g.order if i == j else 0)
    for c in range(k):
        for cp in range(k):
            acc = ctx.zero
            for i in range(k):
                acc = acc + rows[i][c] * rows[i][cp].conj()
            expected = Fraction(g.order, cd.sizes[c]) if c == cp else Fraction(0)
            assert acc == ctx.from_fraction(expected)


@pytest.mark.parametrize("spec", ["symmetric:3", "cyclic:6", "quaternion8",
                                  "dihedral:5"])
def test_reproducible_across_primes(spec):
    g = parse_group_spec(spec)
    t1 = character_table(g)
    p2 = _find_prime(g.exponent, g.order, skip=1)
    t2 = character_table(g, prime=p2)
    assert t1.prime != t2.prime
    assert t1.degrees == t2.degrees
    assert np.array_equal(t1.values, t2.values)


def test_seed_does_not_change_table():
    g = catalog("dihedral", 4)
    assert np.array_equal(character_table(g, seed=0).values, character_table(g, seed=99).values)


def test_regular_character():
    for spec in ("symmetric:3", "quaternion8"):
        g = parse_group_spec(spec)
        t = character_table(g)
        e = t.class_data.class_of[0]
        for c in range(t.class_data.num_classes):
            # sum of deg(chi) chi(c) over the irreps: #G at e, 0 elsewhere
            v = sum((d * row[c] for d, row in zip(t.degrees, t.scalar_rows())), t.context().zero)
            assert v == (g.order if c == e else 0)


def test_prime_search():
    assert _find_prime(4, 8) == 13
    assert _find_prime(4, 8, skip=1) == 17
    # p = 1 (mod m) and p > 2 sqrt(order)
    p = _find_prime(6, 24)
    assert p % 6 == 1 and p * p > 4 * 24


def test_invalid_prime_rejected():
    g = catalog("cyclic", 4)
    with pytest.raises(PrimeSearchFailed):
        character_table(g, prime=7)  # 7 != 1 (mod 4)
    # 1 (mod 4) and above 2*sqrt(4), but not primes
    for p in (-7, 9, 25):
        with pytest.raises(PrimeSearchFailed, match=rf"^{p} is not a prime$"):
            character_table(g, prime=p)


def test_charpoly_mod_against_determinant_scan():
    # evaluate det(lambda I - A) by elimination mod p at every lambda and
    # compare against the Hessenberg characteristic polynomial
    import random

    from grouplie.chartable import _charpoly_mod

    def det_mod(mat, p):
        m = [row[:] for row in mat]
        n = len(m)
        det = 1
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c] % p), None)
            if piv is None:
                return 0
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det = (det * m[c][c]) % p
            inv = pow(m[c][c], p - 2, p)
            for i in range(c + 1, n):
                f = (m[i][c] * inv) % p
                if f:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
        return det % p

    rng = random.Random(5)
    p = 101
    for n in (2, 4, 6):
        for _ in range(5):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            poly = _charpoly_mod(a, p)
            assert len(poly) == n + 1 and poly[-1] == 1
            for lam in range(0, p, 7):
                shifted = [
                    [((lam if i == j else 0) - a[i][j]) % p for j in range(n)]
                    for i in range(n)
                ]
                val = 0
                for c in reversed(poly):
                    val = (val * lam + c) % p
                assert val == det_mod(shifted, p)


def test_poly_roots_mod_against_a_scan():
    from grouplie.chartable import _poly_roots_mod

    rng = random.Random(3)
    p = 101
    # monic, low degree first; the last is (x - 2)(x - 50)(x - 100)
    polys = [[rng.randrange(p) for _ in range(d)] + [1] for d in (1, 3, 6) for _ in range(3)]
    polys.append([-2 * 50 * 100 % p, (2 * 50 + 2 * 100 + 50 * 100) % p, -152 % p, 1])
    for poly in polys:
        expected = [x for x in range(p) if sum(c * x**i for i, c in enumerate(poly)) % p == 0]
        assert _poly_roots_mod(poly, p) == expected
    assert _poly_roots_mod(polys[-1], p) == [2, 50, 100]


def column_relation_failure(table):
    """The first class pair (c, d), c <= d, at which the column relation
    sum_i chi_i(c) conj(chi_i(d)) = (#G / |c|) delta_cd fails, or None;
    evaluated on the CycloScalar values, apart from _certify's array path."""
    ctx, rows = table.context(), table.scalar_rows()
    sizes = table.class_data.sizes
    for c, d in itertools.combinations_with_replacement(range(len(sizes)), 2):
        got = sum((row[c] * row[d].galois(-1) for row in rows), ctx.zero)
        if got != ctx.from_fraction(table.group.order // sizes[c] if c == d else 0):
            return c, d
    return None


@pytest.mark.parametrize("spec, irrep, cls, zeta_power", [
    ("symmetric:4", 2, 3, 0),
    ("cyclic:6", 4, 1, 1),
    ("frobenius21", 3, 2, 7),
])
def test_certify_names_row_and_column_pair(spec, irrep, cls, zeta_power):
    # one corrupted entry breaks both relations; the error names the first
    # failing irrep pair (the trivial row against the corrupted one), and the
    # column relation, which _certify no longer evaluates, fails at the
    # identity class against the corrupted one
    t = character_table(parse_group_spec(spec))
    ctx = t.context()
    x = t.values.copy()
    x[irrep, cls] += ctx.zeta(zeta_power).coeffs
    bad = dataclasses.replace(t, values=x)
    assert bad.scalar_rows()[irrep][cls] == t.scalar_rows()[irrep][cls] + ctx.zeta(zeta_power)
    with pytest.raises(LiftInconsistent, match=rf"row orthogonality fails at irreps \(0, {irrep}\)"):
        _certify(bad)
    assert column_relation_failure(bad) == (0, cls)
    assert column_relation_failure(t) is None
    _certify(t)


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:5"])
def test_certify_refuses_a_row_times_zeta(spec):
    # zeta times a row keeps both orthogonality relations; its value at the
    # identity class is no longer the degree
    t = character_table(parse_group_spec(spec))
    zeta = t.context().zeta(1)
    x = t.values.copy()
    x[-1] = [(v * zeta).coeffs for v in t.scalar_rows()[-1]]
    bad = dataclasses.replace(t, values=x)
    assert column_relation_failure(bad) is None
    last = t.num_irreps - 1
    with pytest.raises(LiftInconsistent, match=rf"irrep {last} takes {re.escape(repr(zeta * t.degrees[-1]))} "
                                               rf"at the identity class, not its degree {t.degrees[-1]}"):
        _certify(bad)


def test_certify_refuses_a_swapped_identity_column():
    # Z/6 has six classes of size 1: swapping the identity column with
    # another permutes the columns and keeps both orthogonality relations
    t = character_table(catalog("cyclic", 6))
    assert t.class_data.class_of[t.group.identity] == 0 and t.class_data.sizes[1] == 1
    bad = dataclasses.replace(t, values=t.values[:, [1, 0] + list(range(2, t.num_irreps))])
    assert column_relation_failure(bad) is None
    rows = t.scalar_rows()
    i = next(i for i, r in enumerate(rows) if r[1] != 1)
    with pytest.raises(LiftInconsistent, match=rf"irrep {i} takes {re.escape(repr(rows[i][1]))} "
                                               r"at the identity class, not its degree 1"):
        _certify(bad)


def test_certify_refuses_a_dropped_row():
    t = character_table(catalog("symmetric", 4))
    bad = dataclasses.replace(t, degrees=t.degrees[:-1], values=t.values[:-1])
    with pytest.raises(LiftInconsistent, match=r"4 degrees and values of shape \(4, 5\) for 5 classes"):
        _certify(bad)


def test_a_table_replaced_with_nested_rows_is_the_swapped_array():
    # a table built with dataclasses.replace from nested rows of coefficient
    # vectors, with two entries of the last irrep exchanged (the degree and the
    # value at the last class): every reader sees the swap
    g = catalog("symmetric", 4)
    t = character_table(g)
    rows = [list(row) for row in t.values]
    rows[-1][0], rows[-1][-1] = rows[-1][-1], rows[-1][0]
    bad = dataclasses.replace(t, values=tuple(tuple(r) for r in rows))
    assert bad.values.dtype == np.int64 and bad.values.shape == t.values.shape
    good_json, bad_json = t.to_json_dict(), bad.to_json_dict()
    for key in ("values", "values_float"):
        expected = [list(row) for row in good_json[key]]
        expected[-1][0], expected[-1][-1] = expected[-1][-1], expected[-1][0]
        assert bad_json[key] == expected != good_json[key]
    contexts = [make_context(g, a, identity_automorphism(g)) for a in linear_characters(g)]
    indicator_reports(t, contexts)
    with pytest.raises(IndicatorOutOfRange, match=r"24 \* nu_\(trivial,id\)\(irrep 4\) = -16 "):
        indicator_reports(bad, contexts)
    with pytest.raises(LiftInconsistent, match="irrep 4 takes -1 at the identity class, not its degree 3"):
        _certify(bad)
    # the array is read-only, in the computed table and in the replaced one
    for table in (t, bad):
        with pytest.raises(ValueError):
            table.values[0, 0, 0] = 2


@pytest.mark.parametrize("spec", ["symmetric:4", "cyclic:6", "frobenius21", "quaternion8"])
def test_certify_fails_exactly_when_the_column_relation_fails(spec):
    # for a square table the row relation implies the column relation, and
    # back: _certify refuses every seeded corruption that breaks the column
    # relation, and of those that keep it only ones whose degree column is
    # wrong (as when Q8's 2 and -2 of one row trade places)
    t = character_table(parse_group_spec(spec))
    ctx, k = t.context(), t.num_irreps
    rng = random.Random(spec)
    outcomes = set()
    for trial in range(60):
        x = t.values.copy()
        kind = trial % 3
        if kind == 0:  # one entry plus zeta^e
            i, c = rng.randrange(k), rng.randrange(k)
            x[i, c] += ctx.zeta(rng.randrange(ctx.m)).coeffs
        elif kind == 1:  # two entries swapped
            (i, c), (j, d) = rng.sample([(i, c) for i in range(k) for c in range(k)], 2)
            x[[i, j], [c, d]] = x[[j, i], [d, c]]
        else:  # one row copied over another
            i, j = rng.sample(range(k), 2)
            x[j] = x[i]
        bad = dataclasses.replace(t, values=x)
        column = column_relation_failure(bad)
        try:
            _certify(bad)
            refused = None
        except LiftInconsistent as exc:
            refused = str(exc)
        if column is not None:
            assert refused is not None
        else:
            assert refused is None or "at the identity class" in refused
        outcomes.add((column is None, refused is None))
    assert (False, False) in outcomes and (True, True) in outcomes


@pytest.mark.parametrize("prime", [2**62 + 1, 2**70 + 1])
def test_modular_bound_guard(prime):
    # p = 1 (mod 4) and p^2 > 16, but a product of two residues mod p leaves
    # int64: the guard raises before any array is formed, and before the
    # trial division that would find both composite (5 divides each)
    with pytest.raises(IntegerBoundExceeded):
        character_table(catalog("cyclic", 4), prime=prime)


@pytest.mark.parametrize("seed", [0, 11])
def test_split_lines_are_common_eigenvectors(seed):
    # every line v of the split satisfies a_i v = lambda_i v mod p for every
    # class matrix a_i, and the k lines have pairwise distinct eigenvalue
    # vectors, so they are independent and span F_p^k
    for group in default_catalog():
        cd = conjugacy_data(group)
        consts = class_constants(group, cd)
        k = cd.num_classes
        p = _find_prime(group.exponent, group.order)
        spaces = _split_eigenspaces(consts, p, random.Random(seed))
        assert [len(basis) for basis, _ in spaces] == [1] * k
        signatures = set()
        for basis, pivots in spaces:
            v = basis[0]
            assert v[pivots[0]] == 1
            images = consts @ v % p  # images[i] = a_i v
            lams = images[:, pivots[0]]
            assert np.array_equal(images, np.outer(lams, v) % p), group.name
            signatures.add(tuple(lams.tolist()))
        assert len(signatures) == k, group.name


@pytest.mark.parametrize("block, message", [
    # x (x - 1) splits, but the x eigenspace is a Jordan block: the projector
    # images gain dimensions
    ([[0, 1, 0], [0, 0, 0], [0, 0, 1]], "lost or gained dimensions"),
    # one eigenvalue, one Jordan block: no combination ever splits it
    ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], "did not converge"),
    # x^2 + 1 has no root mod 7: the roots miss dimensions
    ([[0, 6], [1, 0]], "lost or gained dimensions"),
])
def test_split_rejects_matrices_that_are_not_diagonalizable(block, message):
    # k matrices of size k, as class constants come: the identity, the block
    # and copies of the identity
    n = np.array(block, dtype=np.int64)
    ident = np.eye(len(n), dtype=np.int64)
    consts = np.stack([ident, n] + [ident] * (len(n) - 2))
    with pytest.raises(LiftInconsistent, match=message):
        _split_eigenspaces(consts, 7, random.Random(1))


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2)])
def test_a_table_refuses_non_integral_values(value):
    t = character_table(catalog("symmetric", 3))
    rows = t.values.tolist()
    rows[0][0][0] = value
    with pytest.raises(InvariantViolated, match="integer coefficients"):
        dataclasses.replace(t, values=rows)
    # nested rows of Python ints convert exactly
    rows[0][0][0] = 1
    assert np.array_equal(dataclasses.replace(t, values=rows).values, t.values)
