"""The closure, centrality and orthogonality kernel against its scalar oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie import liealg
from grouplie.cyclo import context
from grouplie.errors import IntegerBoundExceeded, InvariantViolated, OrbitBlockViolated
from grouplie.groups import (
    alpha_tau_compatible,
    catalog,
    find_character,
    linear_characters,
    parse_group_spec,
)
from grouplie.liealg import (
    GroupAlgebraElement,
    LieBasis,
    as_elements,
    bracket,
    center_basis,
    lie_basis,
    make_context,
    plus_fixed_basis,
    skew_checks,
    trace_of_product,
)
from grouplie.linalg import RowSpace
from grouplie.verify import curated_taus, default_catalog
from monomial_rows import encode, signed_roots

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
    """Whether every vector lies in one orbit {g, sigma(g)}."""
    return all(len({min(g, sigma[g]) for g in v.terms}) <= 1 for v in vectors)


def compares_a_non_root(vectors, sigma):
    """Whether OrbitSpan compares a two-entry vector with an entry that is
    not +-zeta^k, off which it reads no ratio key: it compares each nonzero
    vector of a moved orbit that holds exactly one earlier independent
    vector with that vector (RowSpace decides which are independent)."""
    held = {}
    for v in vectors:
        z = min(v.terms, default=None)
        if z is None or sigma[z] == z:
            continue
        rows = held.setdefault(min(z, sigma[z]), [])
        if len(rows) == 1:
            if any(len(u.terms) == 2 and any(x.coeffs not in signed_roots(x.ctx)
                                             for x in u.terms.values())
                   for u in (rows[0], v)):
                return True
            if not RowSpace(context(v.group.exponent), len(sigma), [rows[0].terms]).contains(v.terms):
                rows.append(v)
        elif not rows:
            rows.append(v)
    return False


def reduces_through_a_sum(vectors, rows, group, sigma):
    """Whether closure brackets two vectors with a non-commuting pair of
    elements while the one independent vector of a moved orbit, against
    which it reduces, has two monomials at one column of `rows` (RowSpace
    decides which vectors are independent)."""
    mult = group.mult
    if not any(mult[g, h] != mult[h, g] for i, v in enumerate(vectors)
               for u in vectors[i + 1:] for g in v.terms for h in u.terms):
        return False
    held = {}
    for r, v in enumerate(vectors):
        z = min(v.terms, default=None)
        if z is None:
            continue
        rs = held.setdefault(min(z, sigma[z]), [])
        if not rs or len(rs) == 1 and not RowSpace(
                context(group.exponent), len(sigma), [vectors[rs[0]].terms]).contains(v.terms):
            rs.append(r)
    for b, rs in held.items():
        if sigma[b] != b and len(rs) == 1:
            columns = rows[1, rows[0] == rs[0]].tolist()
            if len(columns) != len(set(columns)):
                return True
    return False


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_verdicts_equal_the_scalar_products(data):
    group = data.draw(st.sampled_from(KERNEL_GROUPS))
    ctx = make_context(group, data.draw(st.sampled_from(linear_characters(group))))
    lie = lie_basis(ctx)
    vectors = data.draw(vector_lists(group, lie.vectors, ctx.sigma))
    center = data.draw(vector_lists(group, as_elements(
        group, center_basis(ctx).generators)))
    plus = data.draw(vector_lists(group, as_elements(group, plus_fixed_basis(ctx))))
    field = context(group.exponent)
    basis = LieBasis(ctx, encode(vectors, field))
    arrays = basis, encode(center, field), encode(plus, field)
    # closure reduces against the basis per sigma-orbit block, so a basis
    # that is not block-shaped is refused, and so is one whose span compares
    # a two-entry vector off the roots of unity, or one whose reducing row
    # has an entry of more than one monomial
    if not fits_blocks(vectors, ctx.sigma):
        with pytest.raises(OrbitBlockViolated):
            skew_checks(*arrays)
        return
    if compares_a_non_root(vectors, ctx.sigma):
        with pytest.raises(InvariantViolated, match=r"not \+-zeta\^k"):
            skew_checks(*arrays)
        return
    if reduces_through_a_sum(vectors, basis.rows, group, ctx.sigma):
        with pytest.raises(InvariantViolated, match="more than one monomial at column"):
            skew_checks(*arrays)
        return
    got = skew_checks(*arrays)
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
        center, plus = center_basis(ctx).generators, plus_fixed_basis(ctx)
        assert tuple(skew_checks(basis, center, plus)) == scalar_checks(
            basis.vectors, as_elements(ctx.group, center), as_elements(ctx.group, plus),
            _row_space(basis)) == (True, True, True)
        seen += 1
    assert seen == count


def test_the_basis_is_written_as_two_monomials_per_row():
    # with trivial alpha every row is delta_g - delta_(g^-1): the monomials
    # (r, g, 1, 0) and (r, g^-1, -1, 0)
    s4 = catalog("symmetric", 4)
    basis = lie_basis(make_context(s4, find_character(s4, "trivial")))
    rows = [(g, s4.inverse[g]) for g in s4.elements() if g < s4.inverse[g]]
    assert basis.rows.T.tolist() == [m for r, (g, h) in enumerate(rows)
                                     for m in ([r, g, 1, 0], [r, h, -1, 0])]


def test_a_root_of_unity_is_one_monomial():
    # zeta_23^22 has 22 power-basis terms; the row delta_1 - zeta^22 delta_22
    # of (Z/23, alpha) with alpha(1) = zeta^22 holds it as one monomial
    z23 = catalog("cyclic", 23)
    assert sum(1 for a in context(23).zeta(22).coeffs if a) == 22
    alpha = next(a for a in linear_characters(z23) if a.exponents[1] == 22)
    rows = lie_basis(make_context(z23, alpha)).rows
    assert rows[:, :2].tolist() == [[0, 0], [1, 22], [1, -1], [0, 22]]


def _s3_basis(*vectors):
    s3 = catalog("symmetric", 3)
    return LieBasis(make_context(s3, linear_characters(s3)[0]), encode(vectors, context(6)))


def test_an_over_bound_input_raises_integer_bound_exceeded():
    s3 = catalog("symmetric", 3)
    ctx = context(s3.exponent)
    big = GroupAlgebraElement(s3, {1: ctx.from_fraction(2**40)})
    other = GroupAlgebraElement(s3, {2: ctx.from_fraction(2**40)})
    # each coefficient fits in int64, but a product of two would not
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(big, other), encode([], ctx), encode([], ctx))
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(big), encode([other], ctx), encode([], ctx))
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(_s3_basis(big), encode([], ctx), encode([big], ctx))
    # a coefficient of magnitude 2^63, which an int64 holds only as -2^63
    low = LieBasis(_s3_basis().context, np.array([[0, 1], [1, 2], [-2**63, 1], [0, 0]]))
    with pytest.raises(IntegerBoundExceeded):
        skew_checks(low, encode([], ctx), encode([], ctx))


def test_a_reducing_row_of_a_sum_raises_invariant_violated():
    # the S3 basis with sign alpha and its row delta_3 - delta_4 times
    # 1 + zeta, two monomials at each column, which closure would reduce
    # through: the refusal names the block and the first such column
    s3 = catalog("symmetric", 3)
    ctx = make_context(s3, find_character(s3, "sign"))
    field = context(s3.exponent)
    vectors = list(lie_basis(ctx).vectors)
    vectors[2] = vectors[2].scaled(field.one + field.zeta(1))
    basis = LieBasis(ctx, encode(vectors, field))
    empty = encode([], field)
    with pytest.raises(InvariantViolated, match=r"block \{3, 4\} has more than one monomial "
                                                "at column 3"):
        skew_checks(basis, empty, empty)


def test_an_array_of_other_monomial_rows_raises_invariant_violated():
    # a fraction coefficient as a float, 2^63 as a uint64, a flat array and
    # a gap in the row numbers, each as the basis, the center and the +1 rows
    ctx = _s3_basis().context
    whole, empty = np.array([[0], [3], [1], [0]]), np.zeros((4, 0), dtype=np.int64)
    for bad, message in ((np.array([[0], [1], [0.5], [0]]), "not float64 of shape"),
                         (np.array([[0], [1], [2**63], [0]], dtype=np.uint64), "not uint64"),
                         (np.array([0, 1, 1, 0]), r"not int64 of shape \(4,\)"),
                         (np.array([[0, 2], [1, 3], [1, 1], [0, 0]]), "monomial 1 is in row 2")):
        for basis, center, plus in ((bad, empty, empty), (whole, bad, empty),
                                    (whole, empty, bad)):
            with pytest.raises(InvariantViolated, match=message):
                skew_checks(LieBasis(ctx, basis), center, plus)


def test_verdicts_do_not_depend_on_the_batch_size(monkeypatch):
    # a tiny batch size forces many parts, split only between left vectors;
    # the intact basis sums all 15, and the broken one stops each check at
    # its first part with a nonzero sum
    group = parse_group_spec("symmetric:4")
    ctx = make_context(group, linear_characters(group)[1])
    basis, plus = lie_basis(ctx), plus_fixed_basis(ctx)
    center = center_basis(ctx).generators
    # the last two-term basis vector with one coefficient times zeta
    index = max(i for i, v in enumerate(basis.vectors) if len(v.terms) == 2)
    terms = dict(basis.vectors[index].terms)
    terms[max(terms)] = terms[max(terms)] * context(12).zeta(1)
    broken = list(basis.vectors)
    broken[index] = GroupAlgebraElement(group, terms)
    calls = 0
    sums_vanish = liealg._sums_vanish

    def counted(*args):
        nonlocal calls
        calls += 1
        return sums_vanish(*args)

    monkeypatch.setattr(liealg, "BATCH_SIZE", 8)
    monkeypatch.setattr(liealg, "_sums_vanish", counted)
    assert tuple(skew_checks(basis, center, plus)) == (True, True, True)
    assert calls == 15
    calls = 0
    wrong = LieBasis(ctx, encode(broken, context(12)))
    verdicts = tuple(skew_checks(wrong, center, plus))
    assert calls == 5
    assert verdicts == scalar_checks(broken, as_elements(group, center),
                                     as_elements(group, plus), _row_space(wrong))
    assert not verdicts[0]


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12), size=st.integers(1, 10))
def test_parts_cut_between_runs(lengths, size):
    # the parts cover the owners in order, each starts a run, so none is
    # split, and each holds fewer than `size` entries plus its first run's
    owner = np.repeat(np.arange(len(lengths)), lengths)
    parts = liealg._runs(owner, size)
    starts = [p.start for p in parts]
    assert starts[0] == 0 and [p.stop for p in parts] == starts[1:] + [len(owner)]
    for p in parts:
        assert p.start == 0 or owner[p.start] != owner[p.start - 1]
        assert p.start < p.stop < p.start + size + lengths[owner[p.start]]
    if len(owner) <= size:
        assert parts == [slice(0, len(owner))]
