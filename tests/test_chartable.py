import dataclasses
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grouplie import chartable, cyclo
from grouplie.chartable import (
    CharacterTable,
    _canonical_order,
    _certify,
    _eigenspaces,
    _find_prime,
    _poly_roots_mod,
    _root_multiplicities,
    _seeded_start,
    _split_eigenspaces,
    character_table,
    class_constants,
)
from grouplie.cyclo import context
from grouplie.errors import (
    GroupLieError,
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
    semidirect_product,
)
from grouplie.indicators import indicator_reports
from grouplie.liealg import make_context
from grouplie.verify import curated_taus, default_catalog
from row_relation import row_relation_failure


def whole_space(k):
    """The split's start at the whole space F_p^k, as (RREF basis, pivots)."""
    return [(np.eye(k, dtype=np.int64), list(range(k)))]


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


def rows_are_the_characters(table, true):
    """Whether the rows of `table` are those of the true table `true` in some
    order, each with its own degree in `table.degrees`."""
    e = true.class_data.class_of[true.group.identity]
    return (sorted(row.tobytes() for row in table.values)
            == sorted(row.tobytes() for row in true.values)
            and table.values[:, e, 0].tolist() == list(table.degrees))


def certify_refusal(table, draws=None):
    """The message with which _certify refuses `table`, or None."""
    try:
        _certify(table, draws)
    except LiftInconsistent as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec, irrep, cls, zeta_power", [
    ("symmetric:4", 2, 3, 0),
    ("cyclic:6", 4, 1, 1),
    ("frobenius21", 3, 2, 7),
])
def test_certify_names_row_and_column_pair(spec, irrep, cls, zeta_power):
    # one corrupted entry: the corrupted row is no eigenvector of the class
    # matrix, and the error names it and the first class where the two sides
    # differ, class 1 here (at the identity class both sides are chi(1) mu);
    # the row relation fails at the trivial row against the corrupted one,
    # and the column relation at the identity class against the corrupted one
    t = character_table(parse_group_spec(spec))
    ctx = t.context()
    x = t.values.copy()
    x[irrep, cls] += ctx.zeta(zeta_power).coeffs
    bad = dataclasses.replace(t, values=x)
    assert bad.scalar_rows()[irrep][cls] == t.scalar_rows()[irrep][cls] + ctx.zeta(zeta_power)
    with pytest.raises(LiftInconsistent, match=rf"irrep {irrep} is no central character at class 1: "
                                               r"chi\(1\) \(M Y\)_c = "):
        _certify(bad)
    assert row_relation_failure(bad)[0] == (0, irrep)
    assert column_relation_failure(bad) == (0, cls)
    assert column_relation_failure(t) is None and row_relation_failure(t) is None
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


def test_certify_refuses_a_negated_row_and_a_scaled_one():
    # -chi and 2 chi are eigenvectors of every class matrix: the degree
    # column refuses the first, the norm sum_c |c| chi(c) chi(c^-1) = #G the
    # second, whose degree column is doubled with it
    t = character_table(catalog("symmetric", 4))
    x = t.values.copy()
    x[-1] *= -1
    with pytest.raises(LiftInconsistent, match="irrep 4 takes -3 at the identity class, not its degree 3"):
        _certify(dataclasses.replace(t, values=x))
    with pytest.raises(LiftInconsistent, match=r"irrep 4 has sum_c \|c\| chi\(c\) chi\(c\^-1\) = 96, "
                                               r"not #G = 24"):
        _certify(dataclasses.replace(t, values=np.concatenate([t.values[:-1], 2 * t.values[-1:]]),
                                     degrees=t.degrees[:-1] + (6,)))
    assert certify_refusal(dataclasses.replace(t, values=x, degrees=t.degrees[:-1] + (-3,))) == \
        "irrep 4 takes -3 at the identity class, not its degree -3"


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
    # _certify refuses a seeded corruption exactly when its rows are not the
    # true characters in some order, each with its degree: so it refuses
    # every corruption that breaks the column relation, and of those that
    # keep it the ones whose degree column is wrong (as when Q8's 2 and -2 of
    # one row trade places)
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
        column, refused = column_relation_failure(bad), certify_refusal(bad)
        assert (refused is None) == rows_are_the_characters(bad, t)
        if column is not None:
            assert refused is not None
        else:
            assert refused is None or "at the identity class" in refused
        outcomes.add((column is None, refused is None))
    assert (False, False) in outcomes and (True, True) in outcomes


SWAP_GROUPS = ("cyclic:8", "cyclic:12", "dihedral:5", "dihedral:8", "quaternion8", "symmetric:4",
               "alternating:4", "frobenius21", "product:cyclic:2,cyclic:4",
               "product:cyclic:3,cyclic:3")


def test_the_certificate_refuses_exactly_the_column_swaps_that_change_the_rows():
    # every pair of equal-size non-identity classes of ten groups, swapped in
    # every row: 137 tables, and the row relation holds on each.  The
    # certificate accepts exactly the 10 whose rows are the true characters
    # in another order (A4's swap of its two classes of 3-cycles, each the
    # other's inverse, among them), and refuses the 127 others, Z/8's swap of
    # classes 1 and 5 among them, naming an irrep and a class
    swaps = accepted = 0
    for spec in SWAP_GROUPS:
        t = character_table(parse_group_spec(spec))
        cd, k = t.class_data, t.num_irreps
        e = cd.class_of[t.group.identity]
        for a, b in itertools.combinations(range(k), 2):
            if e in (a, b) or cd.sizes[a] != cd.sizes[b]:
                continue
            perm = list(range(k))
            perm[a], perm[b] = b, a
            bad = dataclasses.replace(t, values=t.values[:, perm])
            assert row_relation_failure(bad) is None
            refused = certify_refusal(bad)
            assert (refused is None) == rows_are_the_characters(bad, t), (spec, a, b)
            if (spec, a, b) == ("cyclic:8", 1, 5):
                assert re.match(r"irrep \d+ is no central character at class \d+: ", refused)
            swaps, accepted = swaps + 1, accepted + (refused is None)
    assert (swaps, accepted) == (137, 10)


def test_a_non_separating_draw_takes_the_next_one():
    # equal weights make M the class sum of all of G, which acts as #G on
    # the trivial character (S4's irrep 1) and as 0 on the others: its four
    # other rows share one eigenvalue, so the certificate takes the next draw
    t = character_table(catalog("symmetric", 4))
    k = t.num_irreps
    taken = []

    def draws():
        for r in (np.ones(k, dtype=np.int64), np.arange(1, k + 1), np.ones(k, dtype=np.int64)):
            taken.append(r)
            yield r

    _certify(t, draws())
    assert len(taken) == 2
    # a sequence that never separates is refused after its last draw
    with pytest.raises(LiftInconsistent, match=r"no drawn class matrix separates irreps \(0, 2\)"):
        _certify(t, [np.ones(k, dtype=np.int64)] * chartable._CERTIFY_DRAWS)
    # a copied row of the same degree is a true central character twice: no
    # draw separates it from its copy
    x = t.values.copy()
    x[4] = x[3]
    assert t.degrees[3] == t.degrees[4] and column_relation_failure(dataclasses.replace(t, values=x))
    with pytest.raises(LiftInconsistent, match=r"no drawn class matrix separates irreps \(3, 4\)"):
        _certify(dataclasses.replace(t, values=x))


def table_inputs():
    """(group, prime) of every catalog table, the nine inputs of the tables
    workload and the 24 tau-extensions of the full-catalog Kawanaka checks."""
    extensions = [semidirect_product(g, tau) for g in default_catalog() if 2 * g.order <= 256
                  for tau in curated_taus(g) if not tau.is_identity()]
    inputs = [(g, None) for g in default_catalog()]
    inputs += [(parse_group_spec(spec), prime) for spec, prime in BENCHMARK_TABLES[:9]]
    inputs += [(g, None) for g in extensions]
    assert len(inputs) == 43 + 9 + 24
    return inputs


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_the_certificate_and_the_row_relation_accept_every_table(monkeypatch, seed):
    tables = [character_table(group, seed=seed, prime=prime) for group, prime in table_inputs()]

    def refused(*args):
        raise AssertionError("the certificate built the class constants")

    # the certificate's class matrices come from the multiplication table
    monkeypatch.setattr(chartable, "class_constants", refused)
    for t in tables:
        assert certify_refusal(t) is None and row_relation_failure(t) is None, t.group.name


def spied_dtypes(monkeypatch):
    """The (what, dtype) of every cyclo.exact_dtype call, as they are made."""
    calls, real = [], cyclo.exact_dtype

    def spy(bound, what):
        calls.append((what, real(bound, what)))
        return calls[-1][1]

    monkeypatch.setattr(cyclo, "exact_dtype", spy)
    return calls


def test_the_certificate_is_exact_across_the_float64_limit(monkeypatch):
    # weights w r for a separating draw r of S5: the certificate's bound,
    # k max|M| max|Y|^2 times the reduction's norm (max|Y| bounded by the
    # largest class size times the largest coefficient), is w times its
    # bound at r.  Below 2^53 its products run in float64, from 2^53 on in
    # int64, and both accept the true table and refuse it with its two
    # classes of size 20 swapped
    t = character_table(catalog("symmetric", 5))
    cd, k = t.class_data, t.num_irreps
    assert [c for c in range(k) if cd.sizes[c] == 20] == [2, 5]
    swapped = dataclasses.replace(t, values=t.values[:, [0, 1, 5, 3, 4, 2, 6]])
    r = np.array([3, 1, 4, 1, 5, 9, 2])
    class_of = np.array(cd.class_of)
    m_r = np.zeros((k, k), dtype=np.int64)  # M[j, c]: r summed over x with x^-1 z_c in class j
    np.add.at(m_r, (class_of[t.group.mult[np.array(t.group.inverse)[:, None], cd.representatives]],
                    np.arange(k)), r[class_of][:, None])
    max_y = max(cd.sizes) * cyclo.max_abs(t.values)
    bound = k * cyclo.max_abs(m_r) * max_y ** 2 * t.context().product_norm
    calls = spied_dtypes(monkeypatch)
    below = (2**53 - 1) // bound
    for w, dtype in ((1, np.float64), (below, np.float64), (below + 1, np.int64)):
        calls.clear()
        _certify(t, [w * r])
        assert calls == [("certificate", dtype)], w
        assert "is no central character" in certify_refusal(swapped, [w * r])
    # from 2^63 on the guard raises before any product
    top = (2**63 - 1) // bound
    _certify(t, [top * r])
    with pytest.raises(IntegerBoundExceeded, match=r"^certificate: .* >= 2\^63"):
        _certify(t, [(top + 1) * r])


def test_the_certificate_bound_guard():
    # Z/4 with one entry v: |Y| is at most v, and the eigenvector check's
    # bound is k max|M| v^2 |fold| = 4 * 4 * v^2 * 4 for weights 1..4
    # (|fold| = phi(4) * 2 through Phi_4 = x^2 + 1).  At v = 2^28 that is
    # 2^62: the products run in int64 and refuse the entry exactly; at 2^29
    # it is 2^64, and the guard raises before any product
    t = character_table(catalog("cyclic", 4))
    assert t.context().product_norm == 4
    for v, refusal in ((2**28, "irrep 1 is no central character"), (2**29, None)):
        x = t.values.copy()
        x[1, 1] = [v, 0]
        bad = dataclasses.replace(t, values=x)
        if refusal:
            assert certify_refusal(bad, [np.arange(1, 5)]).startswith(refusal)
        else:
            with pytest.raises(IntegerBoundExceeded, match=r"^certificate: .* >= 2\^63"):
                _certify(bad, [np.arange(1, 5)])


@pytest.mark.parametrize("prime", [2**62 + 1, 2**70 + 1])
def test_modular_bound_guard(prime):
    # p = 1 (mod 4) and p^2 > 16, but a product of two residues mod p leaves
    # int64: the guard raises before any array is formed, and before the
    # trial division that would find both composite (5 divides each)
    with pytest.raises(IntegerBoundExceeded):
        character_table(catalog("cyclic", 4), prime=prime)


def split_lines(consts, start, p, seed):
    """The lines of the split from `start`, each checked to be a common
    eigenvector v of every class matrix a_i (a_i v = lambda_i v mod p, with
    v 1 at its pivot), and their eigenvalue vectors."""
    spaces = start
    if any(len(basis) > 1 for basis, _ in start):
        spaces = _split_eigenspaces(consts, start, p, random.Random(seed))
    assert [len(basis) for basis, _ in spaces] == [1] * len(consts)
    lines, signatures = set(), set()
    for basis, pivots in spaces:
        v = basis[0]
        assert v[pivots[0]] == 1
        images = consts @ v % p  # images[i] = a_i v
        lams = images[:, pivots[0]]
        assert np.array_equal(images, np.outer(lams, v) % p)
        signatures.add(tuple(lams.tolist()))
        # v normalized at its first nonzero entry, as the whole-space lines are
        lines.add(tuple((v * pow(int(v[v != 0][0]), p - 2, p) % p).tolist()))
    return lines, signatures


@pytest.mark.parametrize("seed", [0, 11])
def test_split_lines_are_common_eigenvectors(seed):
    # every line, from the whole space or from the seeded start (the linear
    # characters' lines, kept as they are, and their complement, split),
    # satisfies a_i v = lambda_i v mod p for every class matrix a_i; the k
    # lines have pairwise distinct eigenvalue vectors, so they are
    # independent and span F_p^k, and both starts give the same lines
    for group in default_catalog():
        cd = conjugacy_data(group)
        consts = class_constants(group, cd)
        k = cd.num_classes
        p = _find_prime(group.exponent, group.order)
        whole, whole_signatures = split_lines(consts, whole_space(k), p, seed)
        seeded, seeded_signatures = split_lines(consts, _seeded_start(group, cd, p), p, seed)
        assert len(whole_signatures) == len(seeded_signatures) == k, group.name
        assert seeded == whole, group.name


def test_the_seeded_start_skips_the_split_where_the_linear_characters_suffice(monkeypatch):
    # abelian groups take no split round and build no class constants; a
    # group with l linear characters splits only the (k - l)-dimensional
    # complement; the nine inputs of the tables workload at seed 1 make 11
    # calls of _eigenspaces (74 from the whole space)
    calls = []
    real_eigenspaces, real_constants = chartable._eigenspaces, chartable.class_constants

    def counted_eigenspaces(mat, *args):
        calls.append(("eigenspaces", len(mat)))
        return real_eigenspaces(mat, *args)

    def counted_constants(*args):
        calls.append(("class_constants", None))
        return real_constants(*args)

    monkeypatch.setattr(chartable, "_eigenspaces", counted_eigenspaces)
    monkeypatch.setattr(chartable, "class_constants", counted_constants)
    for spec in ("cyclic:12", "product:cyclic:4,cyclic:12"):
        character_table(parse_group_spec(spec))
        assert calls == [], spec
    character_table(parse_group_spec("product:dihedral:4,cyclic:6"))
    assert calls[:2] == [("class_constants", None), ("eigenspaces", 6)]
    calls.clear()
    for spec, prime in BENCHMARK_TABLES[:9]:
        character_table(parse_group_spec(spec), seed=1, prime=prime)
    assert [name for name, _ in calls].count("eigenspaces") == 11


def swapped_characters(change):
    """A stand-in for linear_characters that edits the list with `change`."""
    return lambda group: change(list(linear_characters(group)))


@pytest.mark.parametrize("spec", ["cyclic:12", "symmetric:3", "product:dihedral:4,cyclic:6",
                                  "product:quaternion8,cyclic:6"])
def test_a_dropped_linear_character_is_found_in_the_complement(monkeypatch, spec):
    group = parse_group_spec(spec)
    expected = character_table(group).to_json_dict()
    for drop in (0, -1):
        monkeypatch.setattr(chartable, "linear_characters",
                            swapped_characters(lambda chars: chars[:drop] + chars[drop:][1:]))
        assert character_table(group).to_json_dict() == expected


@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:12", "symmetric:3",
                                  "product:dihedral:4,cyclic:6"])
def test_a_duplicated_linear_character_is_refused(monkeypatch, spec):
    monkeypatch.setattr(chartable, "linear_characters",
                        swapped_characters(lambda chars: chars + chars[-1:]))
    l = len(linear_characters(parse_group_spec(spec)))
    with pytest.raises(LiftInconsistent, match=f"{l + 1} linear characters of rank {l} mod "):
        character_table(parse_group_spec(spec))


@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:12", "symmetric:3", "dihedral:6",
                                  "product:cyclic:4,cyclic:12", "product:dihedral:4,cyclic:6",
                                  "product:quaternion8,cyclic:6"])
def test_a_linear_character_off_by_one_exponent_never_gives_a_table(monkeypatch, spec):
    # each linear character in turn, shifted by one at each non-identity
    # class representative: a map that is no homomorphism
    group = parse_group_spec(spec)
    cd = conjugacy_data(group)
    chars = linear_characters(group)
    reps = [r for r in cd.representatives if r != group.identity]
    for i, r in itertools.product(range(len(chars)), reps[:4]):
        exps = list(chars[i].exponents)
        exps[r] = (exps[r] + 1) % group.exponent
        bad = dataclasses.replace(chars[i], exponents=tuple(exps))
        monkeypatch.setattr(chartable, "linear_characters",
                            swapped_characters(lambda cs: cs[:i] + [bad] + cs[i + 1:]))
        with pytest.raises(GroupLieError):
            character_table(group)


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
        _split_eigenspaces(consts, whole_space(len(n)), 7, random.Random(1))


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


class _Zeros:
    """An rng stub whose every draw is 0."""

    def randrange(self, p):
        return 0


def test_a_zero_krylov_block_sends_every_root_to_the_null_space(monkeypatch):
    # with V = 0 every W_i is 0, so no root passes its test, and each takes
    # the null space of mat - l_i, the one _rref_mod call on d rows; the
    # lines and the tables stay the same
    group = catalog("dihedral", 6)
    consts, p = class_constants(group, conjugacy_data(group)), 13
    expected = _split_eigenspaces(consts, whole_space(len(consts)), p, random.Random(0))
    rows, splits = [], []
    real_eigenspaces, real_rref = chartable._eigenspaces, chartable._rref_mod

    def zero_block(mat, basis, pivots, p, rng):
        rows.clear()
        spaces = real_eigenspaces(mat, basis, pivots, p, _Zeros())
        if len(spaces) > 1:
            splits.append((len(spaces), rows.count(len(mat))))
        return spaces

    def counted_rref(a, p):
        rows.append(len(a))
        return real_rref(a, p)

    monkeypatch.setattr(chartable, "_eigenspaces", zero_block)
    monkeypatch.setattr(chartable, "_rref_mod", counted_rref)
    got = _split_eigenspaces(consts, whole_space(len(consts)), p, random.Random(0))
    assert splits and all(roots == null_spaces for roots, null_spaces in splits)
    assert sorted(b.tolist() for b, _ in got) == sorted(b.tolist() for b, _ in expected)
    for spec in ("dihedral:6", "quaternion8", "alternating:4", "cyclic:12"):
        g = parse_group_spec(spec)
        monkeypatch.setattr(chartable, "_eigenspaces", zero_block)
        zero = character_table(g).to_json_dict()
        monkeypatch.setattr(chartable, "_eigenspaces", real_eigenspaces)
        assert zero == character_table(g).to_json_dict(), spec


def test_a_double_root_takes_its_eigenspace_from_the_krylov_block(monkeypatch):
    # diag(1, 1, 2) conjugated by s = lower * upper (unitriangular) mod 7:
    # the root 1 has the 2-dimensional eigenspace spanned by the first two
    # columns of s, reached through W_1 (d x b = 3 x 2) with one _rref_mod
    # call, and the simple root 2 the line of the third column, with none
    p = 7
    lower = np.array([[1, 0, 0], [4, 1, 0], [5, 6, 1]])
    upper = np.array([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    s = lower @ upper % p
    s_inv = np.array([[1, -2, 6], [0, 1, -3], [0, 0, 1]]) @ np.array(
        [[1, 0, 0], [-4, 1, 0], [19, -6, 1]]) % p
    assert np.array_equal(s @ s_inv % p, np.eye(3))
    mat = s @ np.diag([1, 1, 2]) @ s_inv % p
    ones, _ = chartable._rref_mod(s[:, :2].T, p)
    two = s[:, 2] * pow(int(s[:, 2][s[:, 2] != 0][0]), p - 2, p) % p
    rows = []
    real_rref = chartable._rref_mod

    def counted_rref(a, p):
        rows.append(len(a))
        return real_rref(a, p)

    monkeypatch.setattr(chartable, "_rref_mod", counted_rref)
    spaces = _eigenspaces(mat, np.eye(3, dtype=np.int64), [0, 1, 2], p, random.Random(0))
    assert rows == [2]
    assert [b.tolist() for b, _ in spaces] == [ones.tolist(), [two.tolist()]]


def test_multiplicities_by_deflation_equal_a_count():
    rng = random.Random(5)
    for p in (5, 7, 11, 13):
        for _ in range(20):
            roots = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
            poly = [1]  # prod (x - r), low degree first
            for r in roots:
                poly = [(a - r * b) % p for a, b in zip([0] + poly, poly + [0])]
            found = _poly_roots_mod(poly, p)
            assert found == sorted(set(roots))
            assert _root_multiplicities(poly, found, p) == [roots.count(x) for x in found]


# the benchmark's table inputs and suite-large groups, beside the catalog
BENCHMARK_TABLES = (
    ("cyclic:48", None), ("cyclic:60", None), ("product:cyclic:4,cyclic:12", None),
    ("dihedral:60", None), ("product:quaternion8,cyclic:6", None),
    ("product:dihedral:4,cyclic:6", None), ("semidirect:cyclic:30,inv", None),
    ("symmetric:5", None), ("symmetric:5", 181),
    ("alternating:5", None), ("product:alternating:5,cyclic:2", None),
    ("product:symmetric:3,alternating:4", None), ("product:symmetric:4,cyclic:2", None),
    ("product:symmetric:4,cyclic:3", None), ("product:symmetric:3,symmetric:3", None),
    ("dihedral:30", None),
)


def complex_order(degrees, coeffs, ctx):
    """The irrep order keyed by complex() of each value as a CycloScalar."""
    order_key = []
    for i, row in enumerate(coeffs.tolist()):
        exact = tuple(map(tuple, row))
        emb = tuple((z.real, z.imag) for z in (complex(cyclo.CycloScalar(ctx, v)) for v in exact))
        order_key.append((degrees[i], emb, exact, i))
    order_key.sort()
    return [entry[3] for entry in order_key]


def tuple_order(degrees, coeffs, ctx):
    """The irrep order by sorted Python tuples: degree, (re, im) class by
    class, the exact coefficients, the index."""
    re = np.zeros(coeffs.shape[:2])
    im = np.zeros(coeffs.shape[:2])
    for t in range(ctx.degree):
        re += coeffs[:, :, t] * ctx._roots[t].real
        im += coeffs[:, :, t] * ctx._roots[t].imag
    order_key = sorted(
        (deg, tuple(zip(re_row, im_row)), tuple(map(tuple, row)), i)
        for i, (deg, re_row, im_row, row)
        in enumerate(zip(degrees, re.tolist(), im.tolist(), coeffs.tolist())))
    return [entry[3] for entry in order_key]


def test_canonical_order_equals_the_complex_key_on_shuffled_rows():
    rng = random.Random(7)
    tables = [character_table(g) for g in default_catalog()]
    tables += [character_table(parse_group_spec(s), prime=p) for s, p in BENCHMARK_TABLES]
    for t in tables:
        shuffle = list(range(t.num_irreps))
        rng.shuffle(shuffle)
        degrees, coeffs = [t.degrees[i] for i in shuffle], t.values[shuffle]
        perm = _canonical_order(degrees, coeffs, t.context())
        assert perm == complex_order(degrees, coeffs, t.context()), t.group.name
        assert perm == tuple_order(degrees, coeffs, t.context()), t.group.name
        assert np.array_equal(coeffs[perm], t.values), t.group.name


def scalar_payload(table):
    """The table JSON built entry by entry from CycloScalars: the oracle of
    to_json_dict."""
    rows = table.scalar_rows()
    return {
        "group": table.group.name,
        "order": table.group.order,
        "exponent": table.group.exponent,
        "prime": table.prime,
        "class_sizes": list(table.class_data.sizes),
        "class_representatives": list(table.class_data.representatives),
        "degrees": list(table.degrees),
        "values": [[v.to_json() for v in row] for row in rows],
        "values_float": [[[z.real, z.imag] for z in map(complex, row)] for row in rows],
    }


def test_table_json_equals_the_scalar_payload():
    # the payload from the coefficient array, with one list per distinct
    # value, encodes to the same text as the CycloScalar one, compact and
    # indented, on every catalog table, the nine inputs of the tables
    # workload and the 24 tau-extensions of the full-catalog Kawanaka
    # checks: values_float is complex(CycloScalar) bit for bit, signed
    # zeros included
    extensions = [semidirect_product(g, tau) for g in default_catalog() if 2 * g.order <= 256
                  for tau in curated_taus(g) if not tau.is_identity()]
    inputs = [(g, None) for g in default_catalog()]
    inputs += [(parse_group_spec(spec), prime) for spec, prime in BENCHMARK_TABLES[:9]]
    inputs += [(g, None) for g in extensions]
    assert len(inputs) == 43 + 9 + 24
    for seed in (0, 1, 5):
        for group, prime in inputs:
            table = character_table(group, seed=seed, prime=prime)
            new, old = table.to_json_dict(), scalar_payload(table)
            for options in ({"separators": (",", ":")}, {"sort_keys": True, "indent": 2}):
                assert json.dumps(new, **options) == json.dumps(old, **options), group.name


def test_table_json_payload_peak_memory():
    # tracemalloc's peak over to_json_dict() of cyclic:60 (3,600 entries of
    # 60 coefficients): the strings and [re, im] pairs of each distinct
    # value are built once, where a CycloScalar per entry, then a Fraction
    # and a str per power, peaked at 13.5 MiB
    table = character_table(catalog("cyclic", 60))
    tracemalloc.start()
    try:
        table.to_json_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_catalog_tables_are_byte_identical_across_seeds(monkeypatch):
    for g in default_catalog():
        texts = {json.dumps(character_table(g, seed=s).to_json_dict()) for s in (0, 1, 5)}
        assert len(texts) == 1, g.name
    t = character_table(catalog("dihedral", 6))

    def refused(*args):
        raise AssertionError("a CycloScalar was made")

    monkeypatch.setattr(cyclo.CycloScalar, "__init__", refused)
    assert _canonical_order(list(t.degrees), t.values, t.context()) == list(range(t.num_irreps))


def test_float_embeddings_separate_every_two_rows_of_a_table():
    # _canonical_order keys the irreps by degree and float embedding alone:
    # on every catalog table, the nine inputs of the tables workload and the
    # 24 tau-extensions of the full-catalog Kawanaka checks, every two rows'
    # embeddings differ by at least 1 in some real or imaginary part
    extensions = [semidirect_product(g, tau) for g in default_catalog() if 2 * g.order <= 256
                  for tau in curated_taus(g) if not tau.is_identity()]
    inputs = [(g, None) for g in default_catalog()]
    inputs += [(parse_group_spec(spec), prime) for spec, prime in BENCHMARK_TABLES[:9]]
    inputs += [(g, None) for g in extensions]
    assert len(inputs) == 43 + 9 + 24
    for group, prime in inputs:
        t = character_table(group, prime=prime)
        embedding = chartable._float_embedding(t.values, t.context()).reshape(t.num_irreps, -1)
        gaps = np.abs(embedding[:, None, :] - embedding[None, :, :]).max(axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= 1, group.name


def test_canonical_order_with_signed_zero_embedding_terms():
    # the zeroth power is 1 + 0j, so a negative coefficient adds -0.0 to the
    # imaginary part and a positive one +0.0: the zero entries come from both
    # signs, and the order is still the tuple order
    rng = random.Random(4)
    ctx = context(6)
    coeffs = np.array([[[rng.choice((-2, -1, 1, 2)), rng.randrange(-1, 2)] for _ in range(4)]
                       for _ in range(12)], dtype=np.int64)
    assert np.signbit(coeffs[:, :, 0] * ctx._roots[0].imag).any()
    degrees = [rng.randrange(1, 3) for _ in range(len(coeffs))]
    assert _canonical_order(degrees, coeffs, ctx) == tuple_order(degrees, coeffs, ctx)
    # and on a key that holds both zeros, np.lexsort ranks -0.0 with 0.0, as
    # a tuple sort does
    zeros, second = [0.0, -0.0, 0.0, -0.0], [3, 2, 1, 0]
    assert np.lexsort((second, zeros)).tolist() == [
        i for _, _, i in sorted(zip(zeros, second, range(4)))] == [3, 2, 1, 0]


# ---------------------------------------------------------------------------
# float64 products mod p


def test_matmul_mod_equals_python_ints_at_the_largest_sums():
    # t = 1024 terms (the order cap) at the largest prime below 10^6: random
    # residues and the worst case, every entry p - 1
    p, t = 999_961, 1024
    rng = random.Random(3)
    a = [[rng.randrange(p) for _ in range(t)] for _ in range(3)] + [[p - 1] * t]
    b = [[rng.randrange(p) for _ in range(5)] + [p - 1] for _ in range(t)]
    expected = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    got = chartable._matmul_mod(np.array(a), np.array(b), p)
    assert got.dtype == np.int64 and got.tolist() == expected


@pytest.mark.parametrize("terms", [2, 1024])
def test_matmul_mod_is_exact_below_2_53_and_refuses_at_it(terms):
    # a synthetic modulus q (no prime needed) with terms * (q - 1)^2 just
    # below 2^53; at q + 1 the bound terms * q^2 reaches 2^53 (exactly, for
    # two terms) and the product is refused before it is formed
    q = math.isqrt((2**53 - 1) // terms) + 1
    assert terms * (q - 1) ** 2 < 2**53 <= terms * q ** 2
    assert terms > 2 or terms * q ** 2 == 2**53
    a = np.full((2, terms), q - 1)
    a[1, ::2] = q - 2
    b = np.full((terms, 1), q - 1)
    expected = [sum(int(x) * (q - 1) for x in row) % q for row in a]
    assert chartable._matmul_mod(a, b, q)[:, 0].tolist() == expected
    with pytest.raises(IntegerBoundExceeded, match=re.escape(">= 2^53")):
        chartable._matmul_mod(a, b, q + 1)


# ---------------------------------------------------------------------------
# the lift


def per_class_lift(group, cd, rows_mod, degrees, p, failures=None):
    """The lift class by class: each class's powers walked in Python, one
    inverse DFT mod p per class, and the multiplicity check before the class
    is lifted.  With a `failures` list, every failing (class, irrep) pair is
    recorded before the first one raises."""
    m = group.exponent
    ctx = context(m)
    deg = np.array(degrees)
    zroot = pow(chartable._primitive_root(p), (p - 1) // m, p)
    coeffs = np.zeros((cd.num_classes, cd.num_classes, ctx.degree), dtype=np.int64)
    first = None
    for j, rep in enumerate(cd.representatives):
        n_c = group.element_order(rep)
        power_classes = []
        x = group.identity
        for _ in range(n_c):
            power_classes.append(cd.class_of[x])
            x = group.mult[x][rep]
        lam_inv = pow(zroot, -(m // n_c), p)
        lam_pows = np.array([pow(lam_inv, e, p) for e in range(n_c)])
        exps = np.arange(n_c)
        dft = lam_pows[np.outer(exps, exps) % n_c] * pow(n_c, p - 2, p) % p
        mus = rows_mod[:, power_classes] @ dft % p
        bad = (mus.sum(axis=1) != deg) | (mus > deg[:, None]).any(axis=1)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            first = first or LiftInconsistent(
                f"root-of-unity multiplicities {mus[i].tolist()} do not sum to degree {degrees[i]}")
            if failures is None:
                raise first
            failures.append((j, i))
            continue
        coeffs[:, j] = mus @ ctx.power_array[exps * (m // n_c)]
    if first is not None:
        raise first
    return coeffs


def test_the_lift_per_element_order_equals_the_per_class_lift(monkeypatch):
    # the same coefficient array from the same residues on every catalog
    # group and every benchmark input, with one DFT product per element
    # order: 72 over the nine tables of the tables workload, where the lift
    # class by class made 281
    real, real_matmul = chartable._lift, chartable._matmul_mod
    products = []

    def counted(*args):
        products[-1] += 1
        return real_matmul(*args)

    def compared(group, cd, rows_mod, degrees, p):
        products.append(0)
        monkeypatch.setattr(chartable, "_matmul_mod", counted)
        coeffs = real(group, cd, rows_mod, degrees, p)
        monkeypatch.setattr(chartable, "_matmul_mod", real_matmul)
        assert np.array_equal(coeffs, per_class_lift(group, cd, rows_mod, degrees, p)), group.name
        orders = {group.element_order(r) for r in cd.representatives}
        assert products[-1] == len(orders), group.name
        return coeffs

    monkeypatch.setattr(chartable, "_lift", compared)
    for g in default_catalog():
        character_table(g)
    for spec, prime in BENCHMARK_TABLES:
        character_table(parse_group_spec(spec), prime=prime)
    assert len(products) == 43 + len(BENCHMARK_TABLES)
    assert sum(products[43:52]) == 72


def test_the_lift_in_blocks_of_one_class_equals_the_per_class_lift(monkeypatch):
    # a block holds at least one class, whatever its size: with a block
    # bound of 1 entry every class of every order is its own DFT product
    real = chartable._lift

    def compared(group, cd, rows_mod, degrees, p):
        coeffs = real(group, cd, rows_mod, degrees, p)
        assert np.array_equal(coeffs, per_class_lift(group, cd, rows_mod, degrees, p)), group.name
        return coeffs

    monkeypatch.setattr(chartable, "_LIFT_BLOCK", 1)
    monkeypatch.setattr(chartable, "_lift", compared)
    for spec in ("cyclic:12", "dihedral:6", "symmetric:4", "product:quaternion8,cyclic:6",
                 "cyclic:48"):
        character_table(parse_group_spec(spec))


@pytest.mark.parametrize("block", [chartable._LIFT_BLOCK, 1])
def test_a_corrupted_lift_fails_where_the_per_class_lift_fails(monkeypatch, block):
    # residues corrupted at three random entries: character_table raises the
    # per-class lift's message, which names the first failing class in class
    # order and in it the first irrep, though the lift takes the classes
    # element order by element order, in blocks of classes
    monkeypatch.setattr(chartable, "_LIFT_BLOCK", block)
    real = chartable._lift
    rng = random.Random(11)
    seen = []

    def corrupted(group, cd, rows_mod, degrees, p):
        rows = rows_mod.copy()
        for _ in range(3):
            i, c = rng.randrange(len(rows)), rng.randrange(len(rows))
            rows[i, c] = (rows[i, c] + rng.randrange(1, p)) % p
        failures = []
        with pytest.raises(LiftInconsistent) as oracle:
            per_class_lift(group, cd, rows, degrees, p, failures)
        orders = [group.element_order(cd.representatives[j]) for j, _ in failures]
        seen.append((str(oracle.value), orders[0] > min(orders)))
        return real(group, cd, rows, degrees, p)

    monkeypatch.setattr(chartable, "_lift", corrupted)
    for spec in ("cyclic:12", "dihedral:6", "symmetric:4", "product:quaternion8,cyclic:6"):
        for _ in range(8):
            with pytest.raises(LiftInconsistent) as got:
                character_table(parse_group_spec(spec))
            assert str(got.value) == seen[-1][0], spec
    # some first failing class has a larger element order than a later one
    assert any(later_order_smaller for _, later_order_smaller in seen)


def test_character_table_peak_memory_at_128_classes():
    # tracemalloc's peak over character_table(cyclic:128), whose high point
    # is the certificate, formed in blocks of irreps; the bound is the peak
    # of an earlier implementation, measured the same way, whose certificate
    # formed the int64 products of the row relation
    int64_peak = 53_747_856
    character_table(catalog("cyclic", 4))  # lazy imports and caches first
    group = parse_group_spec("cyclic:128")
    tracemalloc.start()
    try:
        character_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= int64_peak
    # the split itself: one working copy of the caller's (k, k, k) tensor
    # (16 MiB here), as float64, and arrays of k^2 entries at most
    consts = class_constants(group, conjugacy_data(group))
    tracemalloc.start()
    try:
        _split_eigenspaces(consts, whole_space(len(consts)),
                           _find_prime(group.exponent, group.order), random.Random(0))
        split_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split_peak < 1.5 * consts.nbytes


def test_cyclic_12_values_agree_at_the_default_and_the_largest_prime():
    # 999961 is the largest prime p = 1 (mod 12) below the root search's
    # bound of 10^6, where a sum of t products of residues comes closest to
    # 2^53
    g = catalog("cyclic", 12)
    default, top = character_table(g), character_table(g, prime=999_961)
    assert (default.prime, top.prime) == (13, 999_961)
    assert default.degrees == top.degrees
    assert np.array_equal(default.values, top.values)
