import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie.cyclo import context
from grouplie.errors import DimensionMismatch
from grouplie.groups import catalog
from grouplie.linalg import CycloMatrix, RowSpace, intersect, row_spaces_equal


def _row(vec):
    """A dense vector as the sparse {column: value} row RowSpace takes."""
    return dict(enumerate(vec))


def _matrix(m, rows):
    ctx = context(m)
    return CycloMatrix(
        ctx, [[ctx.from_fraction(x) for x in row] for row in rows]
    )


def test_identity_rank():
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert _matrix(4, rows).rank() == 5


def test_duplicate_row_rank():
    mat = _matrix(4, [[1, 2, 3], [4, 5, 7], [1, 2, 3]])
    assert mat.rank() == 2


def test_empty_matrix():
    ctx = context(4)
    mat = CycloMatrix(ctx, [], cols=3)
    assert mat.rank() == 0
    assert intersect(mat, mat).rank() == 0


def test_skew_difference_matrix_of_s3_has_rank_one():
    # rows delta_g - delta_(g^-1) over S3; float SVD is the independent check
    s3 = catalog("symmetric", 3)
    ctx = context(s3.exponent)
    rows = []
    for g in s3.elements():
        vec = [ctx.zero] * s3.order
        vec[g] = vec[g] + 1
        vec[s3.inverse[g]] = vec[s3.inverse[g]] - 1
        rows.append(vec)
    mat = CycloMatrix(ctx, rows)
    svd_rank = np.linalg.matrix_rank(mat.to_complex_array(), tol=1e-8)
    assert mat.rank() == 1
    assert svd_rank == 1


def _random_entry(rng, ctx):
    return rng.choice(
        [ctx.zero, ctx.one, -ctx.one, ctx.zeta(1), -ctx.zeta(1)]
    )


def test_rank_matches_float_svd_on_random_matrices():
    rng = random.Random(7)
    ctx = context(4)
    for _ in range(50):
        rows = [[_random_entry(rng, ctx) for _ in range(8)] for _ in range(8)]
        mat = CycloMatrix(ctx, rows)
        expected = np.linalg.matrix_rank(mat.to_complex_array(), tol=1e-8)
        assert mat.rank() == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=6, max_size=6),
                min_size=6, max_size=6))
def test_rank_of_transpose(entries):
    mat = _matrix(4, entries)
    assert mat.rank() == mat.transpose().rank()


def test_intersect_with_itself():
    mat = _matrix(4, [[1, 0, 2], [0, 1, 1]])
    inter = intersect(mat, mat)
    assert inter.rank() == 2
    assert row_spaces_equal(mat, inter)


def test_intersect_complementary_subspaces():
    a = _matrix(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = _matrix(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert intersect(a, b).rank() == 0


def test_intersect_dimension_formula_random():
    rng = random.Random(11)
    ctx = context(4)
    for _ in range(25):
        a = CycloMatrix(ctx, [[_random_entry(rng, ctx) for _ in range(6)]
                              for _ in range(rng.randrange(1, 4))])
        b = CycloMatrix(ctx, [[_random_entry(rng, ctx) for _ in range(6)]
                              for _ in range(rng.randrange(1, 4))])
        inter = intersect(a, b)
        both = RowSpace(ctx, 6)
        for row in a.entries + b.entries:
            both.add(_row(row))
        assert inter.rank() == a.rank() + b.rank() - both.rank
        # every intersection row lies in both row spaces
        rs_a, rs_b = a.row_space(), b.row_space()
        for row in inter.entries:
            assert rs_a.contains(_row(row)) and rs_b.contains(_row(row))


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(_matrix(4, [[1, 0]]), _matrix(4, [[1, 0, 0]]))


def test_row_space_membership():
    ctx = context(6)
    rs = RowSpace(ctx, 4)
    vec1 = [ctx.one, ctx.zero, ctx.zeta(1), ctx.zero]
    vec2 = [ctx.zero, ctx.one, ctx.one, ctx.zero]
    assert rs.add(_row(vec1))
    assert rs.add(_row(vec2))
    assert not rs.add(_row([a + b for a, b in zip(vec1, vec2)]))
    assert rs.rank == 2
    combo = [a + b + b for a, b in zip(vec1, vec2)]
    assert rs.contains(_row(combo))
    assert not rs.contains(_row([ctx.zero, ctx.zero, ctx.zero, ctx.one]))


def test_row_spaces_equal_rejects_a_different_space_of_equal_rank():
    assert not row_spaces_equal(_matrix(4, [[1, 0]]), _matrix(4, [[0, 1]]))
    assert row_spaces_equal(_matrix(4, [[1, 1], [1, -1]]), _matrix(4, [[0, 2], [3, 0]]))


def test_each_row_is_reduced_once(monkeypatch):
    added = []
    original = RowSpace.add

    def counted(self, vec):
        added.append(tuple(vec.get(j, self.ctx.zero) for j in range(self.ncols)))
        return original(self, vec)

    monkeypatch.setattr(RowSpace, "add", counted)
    a = _matrix(4, [[1, 0, 2], [0, 1, 1], [1, 1, 3]])
    b = _matrix(4, [[2, 1, 5], [1, -1, 1]])
    assert a.rank() == a.rank() == 2
    assert b.rank() == b.rank() == 2
    assert row_spaces_equal(a, b)
    assert added == list(a.entries + b.entries)


def _fraction_rank(rows):
    """Reference rank over Q: plain Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _row_space_entries(m):
    ctx = context(m)
    if m == 1:
        nonzero = st.fractions(-3, 3, max_denominator=4).map(ctx.from_fraction)
    else:
        nonzero = st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=m, max_size=m).map(
            ctx.from_powers)
    # two zero branches of three, so most vectors are sparse
    return st.one_of(st.just(ctx.zero), st.just(ctx.zero), nonzero)


def _assert_reduced_echelon(rs):
    rows = rs._rows
    for piv, row in rows.items():
        assert min(row) == piv and row[piv] == 1      # monic at its first nonzero column
        assert all(x for x in row.values())           # only nonzero entries are stored
        assert all(piv not in other for q, other in rows.items() if q != piv)


@pytest.mark.parametrize("m", [1, 12])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_space_invariants_after_random_adds(m, data):
    ctx = context(m)
    ncols = data.draw(st.integers(1, 7))
    vectors = data.draw(st.lists(
        st.lists(_row_space_entries(m), min_size=ncols, max_size=ncols), max_size=9))
    rs = RowSpace(ctx, ncols)
    for vec in vectors:
        rank = rs.rank
        assert rs.add(_row(vec)) == (rs.rank == rank + 1)
        _assert_reduced_echelon(rs)
    # sums of added vectors lie in the span and do not enlarge it
    for u, v in zip(vectors, vectors[1:]):
        assert not rs.add(_row([x + y for x, y in zip(u, v)]))
    _assert_reduced_echelon(rs)
    assert all(rs.contains(_row(vec)) for vec in vectors)
    if m == 1:
        assert rs.rank == _fraction_rank([[x.as_fraction() for x in v] for v in vectors])


class _AlwaysInverse(RowSpace):
    """Reference: every new row is scaled by the inverse of its pivot entry."""

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        inv = v[piv].inverse()
        v = {k: x * inv for k, x in v.items()}
        for row in self._rows.values():
            coef = row.get(piv)
            if coef is not None:
                for k, x in v.items():
                    y = row.get(k, self.ctx.zero) - coef * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        self._rows[piv] = v
        return True


def _pivot_biased_vectors(ncols):
    """Vectors over Q(zeta_12) that are mostly a single entry or 1 at their
    first nonzero column, the two cases add stores without an inverse."""
    ctx = context(12)
    scalar = st.one_of(
        st.integers(0, 11).map(ctx.zeta),
        st.integers(0, 11).map(lambda k: -ctx.zeta(k)),
        st.sampled_from([2, -3, Fraction(1, 2)]).map(ctx.from_fraction),
        st.lists(st.sampled_from([0, 1, -1, 2]), min_size=12, max_size=12).map(ctx.from_powers),
    )

    def single(args):
        col, x = args
        vec = [ctx.zero] * ncols
        vec[col] = x
        return vec

    def unit_pivot(args):
        col, rest = args
        return [ctx.zero] * col + [ctx.one] + rest[col + 1:]

    entry = st.one_of(st.just(ctx.zero), st.just(ctx.zero), scalar)
    full = st.lists(entry, min_size=ncols, max_size=ncols)
    return st.one_of(
        st.tuples(st.integers(0, ncols - 1), scalar).map(single),
        st.tuples(st.integers(0, ncols - 1), full).map(unit_pivot),
        full,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_and_single_entry_pivots_store_the_normalised_row(data):
    ncols = data.draw(st.integers(1, 6))
    vectors = data.draw(st.lists(_pivot_biased_vectors(ncols), max_size=8))
    ctx = context(12)
    rs, ref = RowSpace(ctx, ncols), _AlwaysInverse(ctx, ncols)
    for vec in vectors:
        assert rs.add(_row(vec)) == ref.add(_row(vec))
        assert rs._rows == ref._rows
    _assert_reduced_echelon(rs)


def test_unit_and_single_entry_pivots_take_no_inverse(monkeypatch):
    ctx = context(12)
    inverses = []
    original = type(ctx.one).inverse
    monkeypatch.setattr(type(ctx.one), "inverse",
                        lambda self: inverses.append(self) or original(self))
    z, one, w = ctx.zero, ctx.one, ctx.zeta(5) + ctx.from_fraction(3)
    rs = RowSpace(ctx, 4)
    assert rs.add(_row([z, w, z, z]))          # a single entry
    assert rs.add(_row([one, w, w, z]))        # 1 at its pivot
    assert rs.add(_row([z, w, z, w]))          # reduces to the single entry w at 3
    assert rs.add(_row([w, z, w, z]))          # reduces to a single entry at 2
    assert not rs.add(_row([one, one, one, one])) and not inverses
    assert rs.rank == 4
    rs = RowSpace(ctx, 2)
    assert rs.add(_row([w, one]))              # w at the pivot: the only inverse
    assert inverses == [w]


def test_copy_is_independent():
    ctx = context(4)
    rs = RowSpace(ctx, 3)
    rs.add(_row([ctx.one, ctx.zeta(1), ctx.zero]))
    rows = {p: dict(r) for p, r in rs._rows.items()}
    dup = rs.copy()
    assert dup._rows == rows and dup.rank == 1
    assert dup.add(_row([ctx.zeta(1), ctx.zero, ctx.one]))
    assert dup.add(_row([ctx.zero, ctx.zero, ctx.one]))
    assert dup.rank == 3
    assert rs.rank == 1 and rs._rows == rows
    assert not rs.contains(_row([ctx.zero, ctx.zero, ctx.one]))


def test_grassmann_dimension_equals_rank_of_intersect():
    rng = random.Random(17)
    ctx = context(4)
    for _ in range(40):
        a, b = (CycloMatrix(ctx, [[_random_entry(rng, ctx) for _ in range(6)]
                                  for _ in range(rng.randrange(0, 5))], cols=6)
                for _ in range(2))
        total = a.row_space().copy()
        for row in b.entries:
            total.add(_row(row))
        assert a.rank() + b.rank() - total.rank == intersect(a, b).rank()


def test_zero_values_in_an_input_row_are_dropped():
    ctx = context(6)
    rs = RowSpace(ctx, 3)
    assert rs.contains({1: ctx.zero})
    assert not rs.add({1: ctx.zero}) and rs.rank == 0
    assert rs.add({0: ctx.zeta(1), 2: ctx.zero})
    assert rs._rows == {0: {0: ctx.one}}
    assert rs.contains({0: ctx.zeta(2), 1: ctx.zero})


def test_row_space_starts_from_the_span_of_its_vectors():
    ctx = context(4)
    rows = [[ctx.one, ctx.zeta(1), ctx.zero], [ctx.zero, ctx.one, ctx.one],
            [ctx.one, ctx.zeta(1) + ctx.one, ctx.one]]
    rs = RowSpace(ctx, 3, [_row(r) for r in rows])
    one_by_one = RowSpace(ctx, 3)
    for r in rows:
        one_by_one.add(_row(r))
    assert rs.rank == 2 and rs._rows == one_by_one._rows
