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
        [ctx.zero, ctx.one, ctx.minus_one, ctx.zeta(1), -ctx.zeta(1)]
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
            both.add(row)
        assert inter.rank() == a.rank() + b.rank() - both.rank
        # every intersection row lies in both row spaces
        rs_a, rs_b = a.row_space(), b.row_space()
        for row in inter.entries:
            assert rs_a.contains(row) and rs_b.contains(row)


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(_matrix(4, [[1, 0]]), _matrix(4, [[1, 0, 0]]))


def test_row_space_membership():
    ctx = context(6)
    rs = RowSpace(ctx, 4)
    vec1 = [ctx.one, ctx.zero, ctx.zeta(1), ctx.zero]
    vec2 = [ctx.zero, ctx.one, ctx.one, ctx.zero]
    assert rs.add(vec1)
    assert rs.add(vec2)
    assert not rs.add([a + b for a, b in zip(vec1, vec2)])
    assert rs.rank == 2
    combo = [a + b + b for a, b in zip(vec1, vec2)]
    assert rs.contains(combo)
    assert not rs.contains([ctx.zero, ctx.zero, ctx.zero, ctx.one])


def test_row_spaces_equal_rejects_a_different_space_of_equal_rank():
    assert not row_spaces_equal(_matrix(4, [[1, 0]]), _matrix(4, [[0, 1]]))
    assert row_spaces_equal(_matrix(4, [[1, 1], [1, -1]]), _matrix(4, [[0, 2], [3, 0]]))


def test_each_row_is_reduced_once(monkeypatch):
    added = []
    original = RowSpace.add

    def counted(self, vec):
        added.append(tuple(vec))
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
        assert rs.add(vec) == (rs.rank == rank + 1)
        _assert_reduced_echelon(rs)
    # sums of added vectors lie in the span and do not enlarge it
    for u, v in zip(vectors, vectors[1:]):
        assert not rs.add([x + y for x, y in zip(u, v)])
    _assert_reduced_echelon(rs)
    assert all(rs.contains(vec) for vec in vectors)
    if m == 1:
        assert rs.rank == _fraction_rank([[x.as_fraction() for x in v] for v in vectors])
