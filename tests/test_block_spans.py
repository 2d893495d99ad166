"""The sigma-orbit spans (liealg.OrbitSpan) against the RowSpace oracle and
their refusals, their ratio keys against the power table, the kernel spaces
against the subgroup route, and the counts that show RowSpace, CycloScalar
arithmetic and group-algebra elements out of the pipeline, every block
decided once, no subgroup built for a kernel space and every part that
skew_checks sums cut between vectors, below its size plus its first
vector's run."""

from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie import cyclo, liealg, linalg, verify
from grouplie.cyclo import CycloScalar, context
from grouplie.errors import BadParameters, InvariantViolated, OrbitBlockViolated
from grouplie.groups import (
    alpha_tau_compatible,
    catalog,
    conjugacy_data,
    find_character,
    from_mult_table,
    kernel_subgroup,
    linear_characters,
    parse_group_spec,
    subgroup_table,
    trivial_character,
)
from grouplie.liealg import (
    OrbitSpan,
    as_elements,
    center_basis,
    center_candidates,
    kernel_space,
    lie_basis,
    make_context,
)
from grouplie.linalg import RowSpace
from grouplie.verify import curated_taus, default_catalog
from monomial_rows import decode, encode

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
        # the dims rank, and the center rank over all candidates, in both
        # orbit orders, each class-coordinate row expanded over its classes
        # into the element coordinates where the oracle takes it
        for ctx in _contexts(group):
            center = center_basis(ctx)
            basis = lie_basis(ctx)
            assert basis.rank == oracle(field, group.order, [v.terms for v in basis.vectors]).rank
            classes = conjugacy_data(group).classes
            rows = [{g: x for c, x in row.items() for g in classes[c]}
                    for row in decode(center_candidates(ctx), group)]
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
            rows = decode(kernel.rows, group)
            assert kernel.rank == oracle(field, group.order, rows).rank
            spans = (trivial.span, b.span, trivial.span + b.span)
            assert [s.rank for s in spans] == [space_a.rank, space_b.rank, both.rank]
            assert ([s.contains(kernel.rows) for s in spans[:2]]
                    == [[s.contains(row) for row in rows] for s in (space_a, space_b)])
            checked += 1
    assert (seen, checked) == (contexts, cliffords)


@pytest.mark.parametrize("groups, contexts, cliffords", SUITES, ids=["order-24", "suite-large"])
def test_every_suite_kernel_space_equals_the_subgroup_route(groups, contexts, cliffords):
    # the oracle: Ker alpha built as a group of its own, the Lie basis of
    # (Ker alpha, trivial), and its rows mapped back into G
    checked = 0
    for group in groups:
        field = context(group.exponent)
        for alpha in linear_characters(group):
            if alpha.is_trivial():
                continue
            sub, embed = kernel_subgroup(group, alpha)
            rows = [{embed[h]: c.embed(field) for h, c in v.terms.items()}
                    for v in lie_basis(make_context(sub, trivial_character(sub))).vectors]
            rank = OrbitSpan(encode(rows, field), group.inverse, field.m).rank
            kernel = kernel_space(group, alpha)
            assert (kernel.order, decode(kernel.rows, group), kernel.rank) == (sub.order, rows,
                                                                               rank)
            checked += 1
    assert checked == cliffords


# --- random blocks against the oracle --------------------------------------

CONDUCTORS = (2, 4, 12, 15, 128)


@st.composite
def values(draw, ctx):
    """+-zeta^k, 1 +- zeta^k, or a small integer combination of powers of
    zeta, never 0: an entry of a row on a fixed column."""
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
def roots(draw, ctx):
    """+-zeta^k: an entry of a row on a moved orbit {a, b}, as every such
    entry the pipeline writes."""
    return ctx.zeta(draw(st.integers(0, ctx.m - 1))) * draw(st.sampled_from((1, -1)))


@st.composite
def block_problems(draw):
    """(ctx, sigma, spaces, queries): an involution sigma on up to 8 columns,
    spaces whose blocks hold up to three rows each (sometimes lambda*u for
    an earlier row u of the block, with lambda = +-zeta^j on a moved orbit
    and any nonzero value on a fixed column), and queries into any block,
    spanned ones included, some of them multiples of a row of a space.  A
    row on a moved orbit has one or two entries +-zeta^k, and a row on a
    fixed column any nonzero value."""
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
        if sigma[block] == block:
            return {block: draw(values(ctx))}
        support = draw(st.sets(st.sampled_from((block, sigma[block])), min_size=1))
        return {z: draw(roots(ctx)) for z in support}

    def multiple(u):
        z = min(u)
        lam = draw(values(ctx) if sigma[z] == z else roots(ctx))
        return {z: x * lam for z, x in u.items()}

    spaces = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for block in blocks:
            held = []
            for _ in range(draw(st.integers(0, 3))):
                held.append(multiple(draw(st.sampled_from(held)))
                            if held and draw(st.booleans()) else row(block))
            rows += held
        # zero rows anywhere, the last position included
        spaces.append(draw(st.permutations(rows + [{}] * draw(st.integers(0, 2)))))
    every_row = [r for rows in spaces for r in rows if r]
    queries = [multiple(draw(st.sampled_from(every_row)))
               if every_row and draw(st.booleans()) else row(draw(st.sampled_from(blocks)))
               for _ in range(draw(st.integers(0, 4)))]
    return ctx, tuple(sigma), spaces, queries


@settings(max_examples=300, deadline=None)
@given(problem=block_problems())
def test_random_blocks_equal_the_row_space_oracle(problem):
    ctx, sigma, spaces, queries = problem
    spaces = list(spaces)
    spans = [OrbitSpan(encode(rows, ctx), sigma, ctx.m) for rows in spaces]
    # every sum of two spans, against the span of the concatenated rows
    for i, j in product(range(len(spaces)), repeat=2):
        spans.append(spans[i] + spans[j])
        spaces.append(spaces[i] + spaces[j])
    for span, rows in zip(spans, spaces):
        space = oracle(ctx, len(sigma), [])
        # the blocks hold disjoint columns, so a row is independent of the
        # earlier rows of its block exactly when it enlarges their span
        assert len(span.rows) == len(rows)
        assert span.independent == [space.add(row) for row in rows]
        assert span.rank == space.rank
        asked = queries + [{}]
        assert span.contains(encode(asked, ctx)) == [space.contains(q) for q in asked]


@pytest.mark.parametrize("m", CONDUCTORS)
def test_a_proportional_pair_cancels_only_through_phi_m(m):
    # u = (zeta, -zeta^3) and v = zeta^5 u: the keys of u and v agree once
    # -zeta^3 and -zeta^8 are read in canonical form, which at even m folds
    # the sign into zeta^(m/2) = -1, a relation of Phi_m; w = (zeta, zeta^3)
    # is not proportional to u
    ctx = context(m)
    u = {0: ctx.zeta(1), 1: -ctx.zeta(3)}
    v = {z: x * ctx.zeta(5) for z, x in u.items()}
    w = {0: ctx.zeta(1), 1: ctx.zeta(3)}
    span = OrbitSpan(encode([u], ctx), (1, 0), ctx.m)
    assert OrbitSpan(encode([u, v], ctx), (1, 0), ctx.m).rank == span.rank == 1
    assert span.contains(encode([v, w], ctx)) == [True, False]


@pytest.mark.parametrize("m", CONDUCTORS)
def test_a_two_entry_row_or_query_off_the_roots_of_unity_is_refused(m):
    # u = (2 + zeta, zeta^2) and v = lambda u with lambda = 1 + zeta^3 (or 2
    # at m = 2, where 2 + zeta = 1): v has entries that are not +-zeta^k, so
    # it is not one monomial +-zeta^k at each column, so it has no ratio
    # key, and OrbitSpan names it and its block when it compares it as a
    # row or as a query; alone in its block, or in a block that two rows
    # span, it is never compared, and it is counted or contained
    ctx = context(m)
    lam = ctx.from_fraction(2) if m == 2 else ctx.one + ctx.zeta(3)
    u = {0: ctx.from_fraction(2) + ctx.zeta(1), 1: ctx.zeta(2)}
    v = {z: x * lam for z, x in u.items()}
    unit = {0: ctx.one, 1: ctx.zeta(1)}
    for rows, index in (([unit, v], 1), ([v, unit], 0)):
        with pytest.raises(InvariantViolated,
                           match=rf"row {index} has the entry .* in block \{{0, 1\}}, not \+-zeta"):
            OrbitSpan(encode(rows, ctx), (1, 0), ctx.m)
    with pytest.raises(InvariantViolated, match=r"query 1 has the entry .* in block \{0, 1\}"):
        OrbitSpan(encode([unit], ctx), (1, 0), ctx.m).contains(encode([unit, v], ctx))
    assert OrbitSpan(encode([v], ctx), (1, 0), ctx.m).rank == 1
    spanned = OrbitSpan(encode([unit, {0: ctx.one}, v], ctx), (1, 0), ctx.m)
    assert spanned.rank == 2 and spanned.contains(encode([v], ctx)) == [True]


def test_a_zero_row_keeps_its_place_first_between_and_last():
    # a zero row is the one monomial (r, 0, 0, 0), so a trailing one counts
    ctx = context(4)
    rows = encode([{}, {0: ctx.one}, {}, {1: ctx.zeta(1)}, {}], ctx)
    assert rows[0].tolist() == [0, 1, 2, 3, 4]
    span = OrbitSpan(rows, (1, 0), ctx.m)
    assert span.independent == [False, True, False, True, False] and span.rank == 2
    assert span.contains(encode([{}, {1: ctx.one}, {}], ctx)) == [True, True, True]
    assert [v.terms for v in as_elements(catalog("cyclic", 4), rows)] == [
        {}, {0: ctx.one}, {}, {1: ctx.zeta(1)}, {}]


def test_an_array_of_other_monomial_rows_is_refused():
    # rows numbered with a gap, out of order or from 1, and arrays of
    # another dtype or shape, as the rows of a span and as its queries
    span = OrbitSpan(np.array([[0], [0], [1], [0]]), (1, 0), 4)
    for bad, message in ((np.array([[0, 2], [0, 1], [1, 1], [0, 0]]), "monomial 1 is in row 2"),
                         (np.array([[0, 1, 0], [0, 1, 1], [1, 1, 1], [0, 0, 0]]),
                          "monomial 2 is in row 0"),
                         (np.array([[1], [0], [1], [0]]), "monomial 0 is in row 1"),
                         (np.array([[0], [0], [1.0], [0]]), "not float64 of shape"),
                         (np.array([[0], [0], [1]]), r"not int64 of shape \(3, 1\)"),
                         ([[0], [0], [1], [0]], "not list of shape")):
        with pytest.raises(InvariantViolated, match=message):
            OrbitSpan(bad, (1, 0), 4)
        with pytest.raises(InvariantViolated, match=message):
            span.contains(bad)


def test_a_two_entry_row_with_a_coefficient_off_the_units_is_refused():
    # 2 delta_0 + 2 delta_1 is one monomial at each column, but 2 is not
    # +-zeta^k, and its ratio is read only off entries that are
    rows = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 2, 2], [0, 0, 0, 0]])
    with pytest.raises(InvariantViolated, match=r"row 1 has the entry \[\(2, 0\)\] in block"):
        OrbitSpan(rows, (1, 0), 4)


def _key(first, second, m):
    """The ratio key of the row with the monomials `first` at column 0 and
    `second` at column 1, on the block {0, 1}."""
    return liealg._ratio({0: [first], 1: [second]}, 0, (1, 0), m, "row", 0)


def test_ratio_keys_name_each_root_of_unity_once():
    # the key of the row (1, s*zeta^k) against the canonical coefficients of
    # s*zeta^k in power_table: one value per key, and one key per value, of
    # which there are m at even m, where -1 = zeta^(m/2), and 2m at odd m;
    # a row (s*zeta^i, t*zeta^j) has the key of its ratio st*zeta^(j-i)
    for m in range(1, 130):
        table = context(m).power_table
        values = {}
        for s, k in product((1, -1), range(m)):
            values.setdefault(_key((1, 0), (s, k), m), set()).add(
                tuple(s * a for a in table[k]))
        assert all(len(v) == 1 for v in values.values())
        assert len(values) == len(set().union(*values.values())) == (m if m % 2 == 0 else 2 * m)
        for s, i, t, j in product((1, -1), {0, 1, m - 1}, (1, -1), range(m)):
            assert _key((s, i), (t, j), m) == _key((1, 0), (s * t, (j - i) % m), m)


# --- refusals -----------------------------------------------------------------


def test_a_row_across_two_blocks_is_refused_with_its_blocks():
    ctx = context(4)
    sigma = (1, 0, 3, 2)
    with pytest.raises(OrbitBlockViolated, match=r"row 1 crosses the blocks \{0, 1\} and \{2, 3\}"):
        OrbitSpan(encode([{0: ctx.one}, {1: ctx.one, 2: ctx.one}], ctx), sigma, ctx.m)
    # every row's block is found before any key is read, so the crossing row
    # is refused although the row before it has no ratio key
    no_key = {0: ctx.one, 1: ctx.from_fraction(2)}
    with pytest.raises(OrbitBlockViolated, match=r"row 2 crosses"):
        OrbitSpan(encode([{0: ctx.one}, no_key, {0: ctx.one, 3: ctx.one}], ctx), sigma, ctx.m)
    span = OrbitSpan(encode([{0: ctx.one}], ctx), sigma, ctx.m)
    with pytest.raises(OrbitBlockViolated,
                       match=r"query 1 crosses the blocks \{0, 1\} and \{2, 3\}"):
        span.contains(encode([no_key, {0: ctx.one, 3: ctx.one}], ctx))


def test_a_sum_of_blocks_keeps_both_row_lists_and_refuses_another_sigma():
    ctx = context(4)
    a = OrbitSpan(encode([{0: ctx.one, 1: -ctx.one}], ctx), (1, 0, 2), ctx.m)
    b = OrbitSpan(encode([{2: ctx.one}, {0: ctx.one, 1: ctx.one}], ctx), (1, 0, 2), ctx.m)
    both = a + b
    assert both.rows == a.rows + b.rows and both.blocks == {0: [0, 2], 2: [1]}
    assert both.rank == 3
    with pytest.raises(BadParameters):
        a + OrbitSpan(encode([], ctx), (0, 1, 2), ctx.m)
    with pytest.raises(BadParameters):
        a + OrbitSpan(encode([], ctx), (1, 0, 2), 8)


def test_one_entry_rows_of_any_size_form_no_product():
    # m = 2: rows {0: c} and {1: c} have one entry each, so their keys are
    # their columns and they span two dimensions at any c, even where c^2
    # would not fit in int64
    ctx = context(2)
    for c in (isqrt(2**63 - 1), isqrt(2**63 - 1) + 1):
        rows = [{0: ctx.from_fraction(c)}, {1: ctx.from_fraction(c)}]
        assert OrbitSpan(encode(rows, ctx), (1, 0), ctx.m).rank == 2


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


def test_the_suite_builds_no_group_algebra_element(monkeypatch):
    # every row is written, ranked and checked as monomials, so a pass over
    # the order-24 suite builds no group-algebra element (8,797 when the
    # rows were {g: CycloScalar} elements), and skew_checks sums the
    # products of the basis, center and +1 monomials of the 406 contexts in
    # 422 parts of 13,624 terms in all
    counts = {"element": 0, "_sums_vanish": 0, "terms": 0}
    element_init, sums_vanish = liealg.GroupAlgebraElement.__init__, liealg._sums_vanish

    def counted_element(self, group, terms):
        counts["element"] += 1
        element_init(self, group, terms)

    def counted_sums(slot, *args):
        counts["_sums_vanish"] += 1
        counts["terms"] += len(slot)
        return sums_vanish(slot, *args)

    monkeypatch.setattr(liealg.GroupAlgebraElement, "__init__", counted_element)
    monkeypatch.setattr(liealg, "_sums_vanish", counted_sums)
    result = verify.run_suite(max_order=24)
    assert result.all_ok and result.contexts == 406
    assert counts == {"element": 0, "_sums_vanish": 422, "terms": 13624}


def test_the_center_is_built_once_in_class_coordinates(monkeypatch):
    # center_basis writes one generator row per center dimension and reads
    # every rank off class-coordinate rows, and sigma's class map is built
    # once per context, however many checks read it
    generators = classes = 0
    class_sigma = liealg.LieContext.__dict__["class_sigma"]
    class_map = class_sigma.func

    def counted_map(ctx):
        nonlocal classes
        classes += 1
        return class_map(ctx)

    def counted_center_basis(ctx):
        nonlocal generators
        data = center_basis(ctx)
        generators += liealg.row_count(data.generators)
        return data

    monkeypatch.setattr(class_sigma, "func", counted_map)
    monkeypatch.setattr(verify, "center_basis", counted_center_basis)
    result = verify.run_suite(max_order=24)
    assert result.all_ok and result.contexts == 406
    assert sum(r.center_dim_exact for r in result.reports) == generators == 2546
    assert classes == 406


def test_the_suite_decides_every_block_once(monkeypatch):
    # each basis, center candidate list and kernel space reads its rows'
    # entries and blocks once, and the Clifford check reads dim A and dim B
    # off the spans the theorem check decided: per pass one span per
    # context's basis, one sum per Clifford check, one _entries call per
    # row list (406 bases, 406 center candidate lists, 103 kernel spaces
    # and the kernel rows as queries of 2 * 327 Clifford memberships), and
    # no more _ratio calls than the batched kernel that OrbitSpan replaced
    # (9,664)
    counts = {"_entries": 0, "_ratio": 0, "span": 0, "sum": 0}

    def counted(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in ("_entries", "_ratio"):
        monkeypatch.setattr(liealg, name, counted(name, getattr(liealg, name)))
    span = liealg.LieBasis.__dict__["span"]
    monkeypatch.setattr(span, "func", counted("span", span.func))
    monkeypatch.setattr(OrbitSpan, "__add__", counted("sum", OrbitSpan.__add__))
    result = verify.run_suite(max_order=24)
    assert result.all_ok and (result.contexts, len(result.clifford)) == (406, 327)
    assert (counts["span"], counts["sum"]) == (406, 327)
    assert counts["_entries"] == 406 + 406 + 103 + 2 * 327 and counts["_ratio"] <= 9664


def test_the_suite_builds_no_subgroup_and_sums_few_parts(monkeypatch):
    # the kernel spaces are written on G's inverse map, so a pass over the
    # order-24 suite builds only the 24 Kawanaka extensions as new groups
    # and one Lie basis per context, a pass over suite-large no group at
    # all; skew_checks sums 13,624 terms in 422 parts on the first and
    # 190,288 terms in 103 parts on the second, each part cut at the start
    # of a vector's run, so it holds fewer than its size in pairs or
    # products plus those of its first vector, whose run is never split:
    # the largest, 6,120 terms, is the centrality brackets of one
    # class-sum generator; either pass reads the linear characters once
    # per group, where reading them for the selection and again for the
    # Lie bases made 82 calls on the order-24 suite
    counts = {"from_mult_table": 0, "subgroup_table": 0, "lie_basis": 0, "_sums_vanish": 0,
              "linear_characters": 0}
    sizes, parts = [], []
    runs, sums_vanish = liealg._runs, liealg._sums_vanish

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def recorded_runs(owner, size):
        # (entries, size, entries of its first vector, whether one vector
        # owns them all) of every part
        out = runs(owner, size)
        parts.extend((p.stop - p.start, size, int(np.count_nonzero(owner == owner[p.start])),
                      owner[p.start] == owner[p.stop - 1]) for p in out)
        return out

    def counted_sums(slot, *args):
        sizes.append(len(slot))
        return sums_vanish(slot, *args)

    small = [g for g in default_catalog() if g.order <= 24]
    large = [parse_group_spec(spec) for spec in SUITE_LARGE]
    for original in (from_mult_table, subgroup_table):
        name = original.__name__
        monkeypatch.setattr(f"grouplie.groups.{name}", counted(name, original))
    for name in ("lie_basis", "linear_characters"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    monkeypatch.setattr(liealg, "_runs", recorded_runs)
    monkeypatch.setattr(liealg, "_sums_vanish", counted("_sums_vanish", counted_sums))
    result = verify.run_suite(small)
    assert result.all_ok and (result.contexts, len(result.kawanaka)) == (406, 24)
    assert (counts["from_mult_table"], counts["lie_basis"]) == (24, 406)
    assert counts["linear_characters"] == len(small) == 41
    assert (sum(sizes), counts["_sums_vanish"], len(parts)) == (13624, 422, 422)
    counts.update(dict.fromkeys(counts, 0))
    sizes.clear()
    parts.clear()
    result = verify.run_suite(large)
    assert result.all_ok and (result.contexts, len(result.clifford)) == (29, 21)
    assert counts == {"from_mult_table": 0, "subgroup_table": 0, "lie_basis": 29,
                      "_sums_vanish": 103, "linear_characters": 8}
    # every part is summed, in one call of its own
    assert sum(sizes) == 190288 and len(parts) == 103
    assert all(entries < size + first for entries, size, first, _ in parts)
    assert max(zip(sizes, parts)) == (6120, (3060, liealg.BATCH_SIZE // 2, 3060, True))
