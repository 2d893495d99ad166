"""The closure, centrality and orthogonality kernel against its scalar oracles."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie import liealg
from grouplie.cyclo import context
from grouplie.errors import IntegerBoundExceeded, InvariantViolated, OrbitBlockViolated
from grouplie.groups import alpha_tau_compatible, catalog, linear_characters, parse_group_spec
from grouplie.liealg import (
    GroupAlgebraElement,
    LieBasis,
    bracket,
    center_basis,
    center_candidates,
    lie_basis,
    make_context,
    plus_fixed_basis,
    skew_checks,
    trace_of_product,
)
from grouplie.linalg import RowSpace
from grouplie.verify import curated_taus, default_catalog

KERNEL_GROUPS = (catalog("symmetric", 3), catalog("quaternion8"), catalog("dihedral", 4),
                 catalog("cyclic", 6), catalog("cyclic", 23))

# the groups of the benchmark's suite-large workload
SUITE_LARGE = ("symmetric:5", "alternating:5", "product:alternating:5,cyclic:2",
               "product:symmetric:3,alternating:4", "product:symmetric:4,cyclic:2",
               "product:symmetric:4,cyclic:3", "product:symmetric:3,symmetric:3", "dihedral:30")


def _row_space(basis):
    """The RowSpace oracle of a basis's vectors."""
    return RowSpace(context(basis.context.group.exponent), basis.context.group.order,
                    [v.terms for v in basis.vectors])


def scalar_checks(vectors, center, plus, space):
    """The scalar pair loops the kernel replaced, as its reference."""
    closure = all(space.contains(bracket(a, b).terms) for a, b in combinations(vectors, 2))
    central = all(bracket(v, u).is_zero() for v in center for u in vectors)
    orthogonal = not any(trace_of_product(u, s) for u in vectors for s in plus)
    return closure, central, orthogonal


@st.composite
def integral_values(draw, ctx):
    """A root of unity +-zeta^k, 2, 1 + zeta^k, or a random integer
    combination of the powers of zeta."""
    k = draw(st.integers(0, ctx.m - 1))
    kind = draw(st.sampled_from(("root", "two", "one_plus_root", "terms")))
    if kind == "root":
        return ctx.zeta(k) * draw(st.sampled_from((1, -1)))
    if kind == "two":
        return ctx.from_fraction(2)
    if kind == "one_plus_root":
        return ctx.one + ctx.zeta(k)
    return ctx.from_powers(draw(st.lists(st.integers(-3, 3), min_size=ctx.m, max_size=ctx.m)))


@st.composite
def elements(draw, group, sigma=None):
    """A random element of support at most 3, or, given `sigma`, perhaps one
    supported on a single orbit {g, sigma(g)}."""
    ctx = context(group.exponent)
    if sigma is not None and draw(st.booleans()):
        g = draw(st.sampled_from(list(group.elements())))
        support = draw(st.sets(st.sampled_from(sorted({g, sigma[g]})), min_size=1))
    else:
        support = draw(st.sets(st.sampled_from(list(group.elements())), max_size=3))
    return GroupAlgebraElement(group, {g: draw(integral_values(ctx)) for g in support})


@st.composite
def vector_lists(draw, group, structured, sigma=None):
    """Either `structured` (a list with a known verdict), each vector scaled
    by a random integral value and perhaps one random element added, or a
    list of random elements; `sigma` goes to `elements`."""
    ctx = context(group.exponent)
    if draw(st.booleans()):
        out = [v.scaled(draw(integral_values(ctx))) for v in structured]
        if draw(st.booleans()):
            out.append(draw(elements(group, sigma)))
        return out
    return draw(st.lists(elements(group, sigma), max_size=4))


def fits_blocks(vectors, sigma):
    """Whether every vector lies in one orbit {g, sigma(g)}, with at most two
    vectors in each orbit."""
    orbits = [{min(g, sigma[g]) for g in v.terms} for v in vectors]
    held = Counter(min(orbit) for orbit in orbits if orbit)
    return all(len(orbit) <= 1 for orbit in orbits) and max(held.values(), default=0) <= 2


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_verdicts_equal_the_scalar_products(data):
    group = data.draw(st.sampled_from(KERNEL_GROUPS))
    ctx = make_context(group, data.draw(st.sampled_from(linear_characters(group))))
    lie = lie_basis(ctx)
    vectors = data.draw(vector_lists(group, lie.vectors, ctx.sigma))
    center = data.draw(vector_lists(group, center_basis(center_candidates(ctx))))
    plus = data.draw(vector_lists(group, plus_fixed_basis(ctx)))
    basis = LieBasis(ctx, tuple(vectors))
    # closure reduces against the basis per sigma-orbit block, so a basis
    # that is not block-shaped is refused
    if not fits_blocks(vectors, ctx.sigma):
        with pytest.raises(OrbitBlockViolated):
            skew_checks(basis, center, plus)
        return
    got = skew_checks(basis, center, plus)
    assert tuple(got) == scalar_checks(vectors, center, plus, _row_space(basis))


def _contexts(groups):
    for group in groups:
        for tau in curated_taus(group):
            for alpha in linear_characters(group):
                if alpha_tau_compatible(alpha, tau):
                    yield make_context(group, alpha, tau)


@pytest.mark.parametrize("groups, count", [
    ([g for g in default_catalog() if g.order <= 24], 406),
    ([parse_group_spec(spec) for spec in SUITE_LARGE], 29),
], ids=["order-24", "suite-large"])
def test_kernel_verdicts_equal_the_scalar_loops_on_every_suite_context(groups, count):
    seen = 0
    for ctx in _contexts(groups):
        basis = lie_basis(ctx)
        center, plus = center_basis(center_candidates(ctx)), plus_fixed_basis(ctx)
        assert tuple(skew_checks(basis, center, plus)) == \
            scalar_checks(basis.vectors, center, plus, _row_space(basis)) == (True, True, True)
        seen += 1
    assert seen == count


def encoded(basis):
    return liealg.monomials(enumerate(v.terms for v in basis.vectors),
                            context(basis.context.group.exponent))


def test_the_basis_is_encoded_once():
    basis = lie_basis(make_context(catalog("symmetric", 4), linear_characters(catalog("symmetric", 4))[0]))
    # one monomial per coefficient: with trivial alpha every coefficient is +-1
    assert encoded(basis).shape[1] == sum(len(v.terms) for v in basis.vectors)


def test_roots_of_unity_are_looked_up_not_expanded():
    # zeta_23^22 has 22 power-basis terms; the kernel reads it as one monomial
    z23 = catalog("cyclic", 23)
    ctx = context(23)
    assert sum(1 for a in ctx.zeta(22).coeffs if a) == 22
    basis = LieBasis(make_context(z23, linear_characters(z23)[0]),
                     (GroupAlgebraElement(z23, {1: ctx.one, 22: -ctx.zeta(22)}),))
    assert encoded(basis).tolist() == [[0, 0], [1, 22], [1, -1], [0, 22]]


def _s3_basis(*vectors):
    s3 = catalog("symmetric", 3)
    return LieBasis(make_context(s3, linear_characters(s3)[0]), tuple(vectors))


def test_a_fraction_coefficient_raises_invariant_violated():
    s3 = catalog("symmetric", 3)
    ctx = context(s3.exponent)
    half = GroupAlgebraElement(s3, {1: ctx.from_fraction(Fraction(1, 2))})
    whole = GroupAlgebraElement(s3, {3: ctx.one})
    for basis, center, plus in (((half, whole), [], []), ((whole,), [half], []),
                                ((whole,), [], [half])):
        with pytest.raises(InvariantViolated, match="not an algebraic integer"):
            skew_checks(_s3_basis(*basis), center, plus)


def test_an_over_bound_input_raises_integer_bound_exceeded():
    s3 = catalog("symmetric", 3)
    ctx = context(s3.exponent)
    big = GroupAlgebraElement(s3, {1: ctx.from_fraction(2**40)})
    other = GroupAlgebraElement(s3, {2: ctx.from_fraction(2**40)})
    # each coefficient fits in int64, but a product of two would not
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(big, other), [], [])
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(big), [other], [])
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(big), [], [GroupAlgebraElement(s3, {1: ctx.from_fraction(2**40)})])
    # a coefficient that does not fit in int64 at all
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(GroupAlgebraElement(s3, {1: ctx.from_fraction(2**63)})), [], [])


def test_verdicts_do_not_depend_on_the_batch_size(monkeypatch):
    # a tiny batch size forces many batches, split only between left vectors
    group = parse_group_spec("symmetric:4")
    ctx = make_context(group, linear_characters(group)[1])
    basis, plus = lie_basis(ctx), plus_fixed_basis(ctx)
    center = center_basis(center_candidates(ctx))
    # the last two-term basis vector with one coefficient times zeta
    index = max(i for i, v in enumerate(basis.vectors) if len(v.terms) == 2)
    terms = dict(basis.vectors[index].terms)
    terms[max(terms)] = terms[max(terms)] * context(12).zeta(1)
    broken = list(basis.vectors)
    broken[index] = GroupAlgebraElement(group, terms)
    monkeypatch.setattr(liealg, "BATCH_SIZE", 8)
    assert tuple(skew_checks(basis, center, plus)) == (True, True, True)
    wrong = LieBasis(ctx, tuple(broken))
    verdicts = tuple(skew_checks(wrong, center, plus))
    assert verdicts == scalar_checks(broken, center, plus, _row_space(wrong))
    assert not verdicts[0]


def test_mult_array_is_the_cached_read_only_table():
    group = catalog("dihedral", 5)
    table = group.mult_array()
    assert table.dtype == np.int64 and table.tolist() == [list(row) for row in group.mult]
    assert group.mult_array() is table
    with pytest.raises(ValueError):
        table[0, 0] = 1
