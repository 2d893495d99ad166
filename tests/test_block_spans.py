"""The sigma-orbit block kernel (liealg.block_spans) against the RowSpace
oracle, its refusals and its int64 guard, and the counts that show RowSpace
and CycloScalar arithmetic out of the pipeline."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie import cyclo, linalg, verify
from grouplie.cyclo import CycloScalar, context
from grouplie.errors import BadParameters, IntegerBoundExceeded, OrbitBlockViolated
from grouplie.groups import (
    alpha_tau_compatible,
    find_character,
    linear_characters,
    parse_group_spec,
)
from grouplie.liealg import Blocks, block_spans, center_candidates, lie_basis, make_context
from grouplie.linalg import RowSpace
from grouplie.verify import center_data, curated_taus, default_catalog, kernel_space

# the groups of the benchmark's suite-large workload
SUITE_LARGE = ("symmetric:5", "alternating:5", "product:alternating:5,cyclic:2",
               "product:symmetric:3,alternating:4", "product:symmetric:4,cyclic:2",
               "product:symmetric:4,cyclic:3", "product:symmetric:3,symmetric:3", "dihedral:30")

SUITES = [([g for g in default_catalog() if g.order <= 24], 406, 327),
          ([parse_group_spec(spec) for spec in SUITE_LARGE], 29, 21)]


def oracle(ctx, ncols, rows):
    """The RowSpace of `rows`."""
    return RowSpace(ctx, ncols, rows)


def _contexts(group):
    for tau in curated_taus(group):
        for alpha in linear_characters(group):
            if alpha_tau_compatible(alpha, tau):
                yield make_context(group, alpha, tau)


@pytest.mark.parametrize("groups, contexts, cliffords", SUITES, ids=["order-24", "suite-large"])
def test_every_suite_rank_and_membership_equals_the_row_space_oracle(groups, contexts, cliffords):
    seen = checked = 0
    for group in groups:
        field = context(group.exponent)
        # the dims rank, and the center rank over all candidates in element
        # coordinates, where the oracle takes them
        ctxs = list(_contexts(group))
        for ctx, center in zip(ctxs, center_data(ctxs)):
            basis = lie_basis(ctx)
            assert basis.rank == oracle(field, group.order, [v.terms for v in basis.vectors]).rank
            rows = [v.terms for _, _, v in center_candidates(ctx)]
            assert center.rank == oracle(field, group.order, rows).rank
            seen += 1
        # dim(A + B), every membership of H in A and in B, and rank H
        trivial = lie_basis(make_context(group, find_character(group, "trivial")))
        space_a = oracle(field, group.order, [v.terms for v in trivial.vectors])
        for alpha in linear_characters(group):
            if alpha.is_trivial():
                continue
            b = lie_basis(make_context(group, alpha))
            space_b = oracle(field, group.order, [v.terms for v in b.vectors])
            both = space_a.copy()
            for v in b.vectors:
                both.add(v.terms)
            kernel = kernel_space(group, alpha)
            assert kernel.rank == oracle(field, group.order, kernel.rows).rank
            spans = block_spans([trivial.blocks, b.blocks, trivial.blocks + b.blocks], field,
                                [(i, row) for row in kernel.rows for i in (0, 1)])
            assert spans.ranks == [space_a.rank, space_b.rank, both.rank]
            assert spans.contains == [s.contains(row) for row in kernel.rows
                                      for s in (space_a, space_b)]
            checked += 1
    assert (seen, checked) == (contexts, cliffords)


# --- random blocks against the oracle --------------------------------------

CONDUCTORS = (2, 4, 12, 15, 128)


@st.composite
def values(draw, ctx):
    """+-zeta^k, 1 +- zeta^k, or a small integer combination of powers of
    zeta, never 0."""
    k = draw(st.integers(0, ctx.m - 1))
    kind = draw(st.sampled_from(("root", "one_plus_root", "terms")))
    if kind == "root":
        x = ctx.zeta(k) * draw(st.sampled_from((1, -1)))
    elif kind == "one_plus_root":
        x = ctx.one + ctx.zeta(k) * draw(st.sampled_from((1, -1)))
    else:
        powers = draw(st.lists(st.integers(0, ctx.m - 1), min_size=1, max_size=3))
        x = ctx.zero
        for p in powers:
            x = x + ctx.zeta(p) * draw(st.integers(-3, 3))
    return x if x else ctx.one


@st.composite
def scalings(draw, ctx):
    """A multiplier lambda that is not a single monomial c*zeta^k, so that
    lambda*u_a*u_b - lambda*u_b*u_a cancels only after the reduction mod
    Phi_m (for m = 2 every value is rational, and lambda is 2, 3 or -2)."""
    if ctx.degree == 1:
        return ctx.from_fraction(draw(st.sampled_from((2, 3, -2))))
    k = draw(st.integers(1, ctx.m - 1))
    lam = ctx.from_fraction(draw(st.sampled_from((1, 2, -1)))) + ctx.zeta(k)
    roots = ctx.signed_roots
    return lam if lam and lam.coeffs not in roots else ctx.one + ctx.one + ctx.zeta(1)


@st.composite
def block_problems(draw):
    """(ctx, sigma, spaces, queries): an involution sigma on up to 8 columns,
    spaces whose blocks hold at most two rows each (sometimes v = lambda*u),
    and queries into blocks that hold at most one row of their space."""
    ctx = context(draw(st.sampled_from(CONDUCTORS)))
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    sigma = list(range(n))
    pairs = draw(st.integers(0, n // 2))
    for i in range(pairs):
        a, b = order[2 * i], order[2 * i + 1]
        sigma[a], sigma[b] = b, a
    blocks = sorted({min(z, sigma[z]) for z in range(n)})

    def row(block):
        cols = sorted({block, sigma[block]})
        support = draw(st.sets(st.sampled_from(cols), min_size=1))
        return {z: draw(values(ctx)) for z in support}

    spaces = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for block in blocks:
            count = draw(st.integers(0, 2))
            if count:
                u = row(block)
                rows.append(u)
                if count == 2:
                    if draw(st.booleans()):
                        lam = draw(scalings(ctx))
                        rows.append({z: x * lam for z, x in u.items()})
                    else:
                        rows.append(row(block))
        spaces.append(draw(st.permutations(rows)))
    queries = []
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(spaces) - 1))
        block = draw(st.sampled_from(blocks))
        held = [r for r in spaces[i] if min(min(r), sigma[min(r)]) == block]
        if len(held) > 1:
            continue
        if held and draw(st.booleans()):
            lam = draw(scalings(ctx))
            q = {z: x * lam for z, x in held[0].items()}
        else:
            q = row(block)
        queries.append((i, q))
    return ctx, tuple(sigma), spaces, queries


@settings(max_examples=300, deadline=None)
@given(problem=block_problems())
def test_random_blocks_equal_the_row_space_oracle(problem):
    ctx, sigma, spaces, queries = problem
    got = block_spans([Blocks(rows, sigma) for rows in spaces], ctx, queries)
    spans = [oracle(ctx, len(sigma), rows) for rows in spaces]
    assert got.ranks == [s.rank for s in spans]
    assert got.contains == [spans[i].contains(q) for i, q in queries]


@pytest.mark.parametrize("m", CONDUCTORS)
def test_a_proportional_pair_cancels_only_through_phi_m(m):
    # u = (2 + zeta, zeta^2) and v = lambda u with lambda = 1 + zeta^3 (or 2
    # at m = 2): the minor is a sum of monomials whose exponents do not
    # cancel pairwise, and it is zero in Q(zeta_m); w = u + (0, 1) is not
    # proportional to u
    ctx = context(m)
    lam = ctx.from_fraction(2) if m == 2 else ctx.one + ctx.zeta(3)
    u = {0: ctx.from_fraction(2) + ctx.zeta(1), 1: ctx.zeta(2)}
    v = {z: x * lam for z, x in u.items()}
    w = {0: u[0], 1: u[1] + ctx.one}
    spans = block_spans([Blocks([u, v], (1, 0)), Blocks([u], (1, 0))], ctx, [(1, v), (1, w)])
    assert spans.ranks == [1, 1]
    assert spans.contains == [True, False]


# --- refusals and the guard ---------------------------------------------------


def test_a_row_across_two_blocks_is_refused_with_its_blocks():
    ctx = context(4)
    sigma = (1, 0, 3, 2)
    with pytest.raises(OrbitBlockViolated, match=r"row 1 crosses the blocks \{0, 1\} and \{2, 3\}"):
        Blocks([{0: ctx.one}, {1: ctx.one, 2: ctx.one}], sigma)
    space = Blocks([{0: ctx.one}], sigma)
    with pytest.raises(OrbitBlockViolated, match=r"query 0 crosses the blocks \{0, 1\} and \{2, 3\}"):
        block_spans([space], ctx, [(0, {0: ctx.one, 3: ctx.one})])


def test_a_block_with_three_rows_is_refused():
    ctx = context(4)
    sigma = (1, 0, 2)
    rows = [{0: ctx.one}, {2: ctx.one}, {1: ctx.one}, {0: ctx.one, 1: ctx.zeta(1)}]
    with pytest.raises(OrbitBlockViolated, match=r"block \{0, 1\} of space 0 holds 3 rows: \[0, 2, 3\]"):
        block_spans([Blocks(rows, sigma)], ctx)
    # two rows and a query make three as well
    with pytest.raises(OrbitBlockViolated, match=r"block \{0, 1\} of space 0 holds rows \[0, 2\] and query 0"):
        block_spans([Blocks(rows[:3], sigma)], ctx, [(0, {1: ctx.zeta(1)})])


def test_a_sum_of_blocks_keeps_both_row_lists_and_refuses_another_sigma():
    ctx = context(4)
    a = Blocks([{0: ctx.one, 1: -ctx.one}], (1, 0, 2))
    b = Blocks([{2: ctx.one}, {0: ctx.one, 1: ctx.one}], (1, 0, 2))
    both = a + b
    assert both.rows == a.rows + b.rows and both.groups == {0: [0, 2], 2: [1]}
    assert block_spans([both], ctx).ranks == [3]
    with pytest.raises(BadParameters):
        a + Blocks([], (0, 1, 2))


def test_the_minor_guard_sits_at_2_to_the_63():
    # m = 2: every power of zeta reduces to +-1, so the guard is
    # max|c|^2 for rows of one monomial each; the largest c with c^2 < 2^63
    # passes and gives rank 2, the next one raises before the product
    ctx = context(2)
    below = isqrt(2**63 - 1)
    for c, ok in ((below, True), (below + 1, False)):
        rows = [{0: ctx.from_fraction(c)}, {1: ctx.from_fraction(c)}]
        if ok:
            assert block_spans([Blocks(rows, (1, 0))], ctx).ranks == [2]
        else:
            with pytest.raises(IntegerBoundExceeded, match="block minor"):
                block_spans([Blocks(rows, (1, 0))], ctx)


# --- exact counts -------------------------------------------------------------


def test_the_suite_makes_no_row_space_or_scalar_product_call(monkeypatch):
    counts = {}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(linalg.RowSpace, "add", "RowSpace.add")
    counted(linalg.RowSpace, "contains", "RowSpace.contains")
    for name in ("__mul__", "__rmul__"):
        counted(CycloScalar, name, "__mul__")
    for name in ("__sub__", "__rsub__"):
        counted(CycloScalar, name, "__sub__")
    counted(CycloScalar, "inverse", "inverse")
    result = verify.run_suite(max_order=24)
    assert result.all_ok and result.contexts == 406
    assert counts == {}
    # the wrappers count: one product, one difference, one inverse, one
    # RowSpace.add and one RowSpace.contains
    ctx = cyclo.context(4)
    ctx.zeta(1) * ctx.zeta(1) - ctx.one
    ctx.zeta(1).inverse()
    RowSpace(ctx, 1, [{0: ctx.one}]).contains({0: ctx.one})
    assert counts == {"__mul__": 1, "__sub__": 1, "inverse": 1,
                      "RowSpace.add": 1, "RowSpace.contains": 1}
