import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie.cyclo import context
from grouplie.errors import GroupMismatch, IncompatiblePair, InvariantViolated
from grouplie.groups import (
    alpha_tau_compatible,
    catalog,
    conjugacy_data,
    find_character,
    identity_automorphism,
    inversion_automorphism,
    linear_characters,
    parse_group_spec,
)
from grouplie.liealg import (
    GroupAlgebraElement,
    bracket,
    center_basis,
    center_candidates,
    census_dimension,
    convolve,
    lie_basis,
    make_context,
    plus_fixed_basis,
    sigma_class_map,
    star,
    trace_of_product,
)
from grouplie.linalg import RowSpace
from grouplie.verify import curated_taus, default_catalog


S3 = catalog("symmetric", 3)
Q8 = catalog("quaternion8")


def class_sum(group, class_elements):
    return GroupAlgebraElement(group, dict.fromkeys(class_elements, context(group.exponent).one))


def skew_part(ctx, a):
    """(a - star(a)) / 2, the projection onto the -1 eigenspace."""
    return (a - star(ctx, a)).scaled(Fraction(1, 2))


def random_element(group, rng):
    ctx = context(group.exponent)
    return GroupAlgebraElement(group, {
        g: ctx.zeta(rng.randrange(group.exponent)) * rng.randrange(-3, 4)
        for g in group.elements() if rng.random() < 0.6
    })


def test_convolve_unit_and_deltas():
    rng = random.Random(1)
    a = random_element(S3, rng)
    e = GroupAlgebraElement.delta(S3, 0)
    assert convolve(e, a) == a
    assert convolve(a, e) == a
    for g in (1, 3, 5):
        for h in (2, 4):
            prod = convolve(GroupAlgebraElement.delta(S3, g),
                            GroupAlgebraElement.delta(S3, h))
            assert prod == GroupAlgebraElement.delta(S3, S3.mult[g][h])


def test_convolve_three_cycle_difference_squared():
    # t a 3-cycle: (t - t^2)^2 = t^2 - 2e + t since t^3 = e
    t = 3
    t2 = S3.mult[t][t]
    u = GroupAlgebraElement.delta(S3, t) - GroupAlgebraElement.delta(S3, t2)
    sq = convolve(u, u)
    ctx = context(S3.exponent)
    expected = GroupAlgebraElement(S3, {t2: ctx.one, 0: ctx.from_fraction(-2), t: ctx.one})
    assert sq == expected


def test_group_mismatch():
    with pytest.raises(GroupMismatch):
        convolve(GroupAlgebraElement.delta(S3, 0), GroupAlgebraElement.delta(Q8, 0))


def test_bracket_basics():
    rng = random.Random(2)
    a = random_element(S3, rng)
    assert bracket(a, a).is_zero()
    z6 = catalog("cyclic", 6)
    x = random_element(z6, rng)
    y = random_element(z6, rng)
    assert bracket(x, y).is_zero()


def test_bracket_transpositions():
    # [delta_(01), delta_(02)] = delta_((01)(02)) - delta_((02)(01))
    br = bracket(GroupAlgebraElement.delta(S3, 2), GroupAlgebraElement.delta(S3, 5))
    expected = GroupAlgebraElement.delta(S3, S3.mult[2][5]) - \
        GroupAlgebraElement.delta(S3, S3.mult[5][2])
    assert br == expected
    assert sorted(br.support()) == [3, 4]


def dense_convolve(a, b):
    """Reference product: every pair (x, y) of group elements, zeros included."""
    group = a.group
    zero = context(group.exponent).zero
    out = [zero] * group.order
    for x in group.elements():
        for y in group.elements():
            z = group.mult[x][y]
            out[z] = out[z] + a.terms.get(x, zero) * b.terms.get(y, zero)
    return GroupAlgebraElement(group, dict(enumerate(out)))


PRODUCT_GROUPS = (S3, Q8, catalog("dihedral", 4), catalog("cyclic", 6))

power_coeffs = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


@st.composite
def algebra_elements(draw, group):
    """Sparse (at most 3 nonzero coefficients) or dense elements, with
    coefficients that are random sums of powers of zeta_exponent."""
    m = group.exponent
    ctx = context(m)
    if draw(st.booleans()):
        support = draw(st.sets(st.sampled_from(list(group.elements())), max_size=3))
    else:
        support = group.elements()
    return GroupAlgebraElement(group, {
        g: ctx.from_powers(draw(st.lists(power_coeffs, min_size=m, max_size=m)))
        for g in support
    })


@st.composite
def element_pairs(draw):
    group = draw(st.sampled_from(PRODUCT_GROUPS))
    return draw(algebra_elements(group)), draw(algebra_elements(group))


@settings(max_examples=60, deadline=None)
@given(element_pairs())
def test_products_match_dense_definitions(pair):
    a, b = pair
    ab, ba = dense_convolve(a, b), dense_convolve(b, a)
    assert convolve(a, b) == ab
    assert bracket(a, b) == convolve(a, b) - convolve(b, a) == ab - ba
    assert trace_of_product(a, b) == convolve(a, b).trace() == ab.trace()


def _stores_no_zero(a):
    return all(c for c in a.terms.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_no_zero_coefficient_is_stored(data):
    group = data.draw(st.sampled_from(PRODUCT_GROUPS))
    a = data.draw(algebra_elements(group))
    ctx = make_context(group, data.draw(st.sampled_from(linear_characters(group))))
    cd = conjugacy_data(group)
    central = class_sum(group, cd.classes[data.draw(st.integers(0, cd.num_classes - 1))])
    cancelling = [a - a, bracket(a, a), bracket(a, central),
                  skew_part(ctx, a + star(ctx, a))]
    for x in cancelling:
        assert x.terms == {} and x.is_zero()
    for x in cancelling + [star(ctx, a), skew_part(ctx, a), a + a, a.scaled(0)]:
        assert _stores_no_zero(x)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equality_ignores_insertion_order_and_support_ascends(data):
    group = data.draw(st.sampled_from(PRODUCT_GROUPS))
    a = data.draw(algebra_elements(group))
    reordered = GroupAlgebraElement(group, dict(reversed(list(a.terms.items()))))
    assert reordered == a
    assert a.support() == reordered.support() == sorted(a.terms)
    assert repr(a) == repr(reordered)


def test_trace_of_product_group_mismatch():
    with pytest.raises(GroupMismatch):
        trace_of_product(GroupAlgebraElement.delta(S3, 0), GroupAlgebraElement.delta(Q8, 0))


def test_star_involution_and_antiautomorphism():
    sign = find_character(S3, "sign")
    ctx = make_context(S3, sign)
    rng = random.Random(3)
    e = GroupAlgebraElement.delta(S3, 0)
    assert star(ctx, e) == e
    for _ in range(20):
        a = random_element(S3, rng)
        assert star(ctx, star(ctx, a)) == a
    for _ in range(50):
        a = random_element(S3, rng)
        b = random_element(S3, rng)
        assert star(ctx, convolve(a, b)) == convolve(star(ctx, b), star(ctx, a))


def test_star_on_transposition_with_sign():
    sign = find_character(S3, "sign")
    ctx = make_context(S3, sign)
    d = GroupAlgebraElement.delta(S3, 2)
    assert star(ctx, d) == -d


def test_trace_invariance():
    sign = find_character(S3, "sign")
    ctx = make_context(S3, sign)
    rng = random.Random(4)
    for _ in range(30):
        a = random_element(S3, rng)
        assert star(ctx, a).trace() == a.trace()


def test_incompatible_pair_rejected():
    z4 = catalog("cyclic", 4)
    order4 = next(c for c in linear_characters(z4)
                  if sorted(c.exponents) == [0, 1, 2, 3])
    with pytest.raises(IncompatiblePair):
        make_context(z4, order4, inversion_automorphism(z4))


def test_skew_projector():
    sign = find_character(S3, "sign")
    ctx = make_context(S3, sign)
    rng = random.Random(5)
    for _ in range(20):
        a = random_element(S3, rng)
        p = skew_part(ctx, a)
        assert skew_part(ctx, p) == p
    for s in plus_fixed_basis(ctx):
        assert skew_part(ctx, s).is_zero()


def test_projector_trace_equals_dimension():
    for spec, label, expected in [("symmetric:3", "trivial", 1),
                                  ("symmetric:3", "sign", 4),
                                  ("quaternion8", "trivial", 3)]:
        g = parse_group_spec(spec)
        ctx = make_context(g, find_character(g, label))
        zero = context(g.exponent).zero
        trace = sum((skew_part(ctx, GroupAlgebraElement.delta(g, x)).terms.get(x, zero)
                     for x in g.elements()), zero)
        assert trace.as_fraction() == expected
        assert census_dimension(ctx) == expected


def test_lie_basis_dimensions():
    cases = [
        ("symmetric:3", "trivial", 1),
        ("symmetric:3", "sign", 4),
        ("quaternion8", "trivial", 3),
        ("product:cyclic:2,cyclic:2", "trivial", 0),
    ]
    for spec, label, expected in cases:
        g = parse_group_spec(spec)
        basis = lie_basis(make_context(g, find_character(g, label)))
        assert len(basis.vectors) == expected
        assert basis.rank == expected
        assert RowSpace(context(g.exponent), g.order, [v.terms for v in basis.vectors]).rank == expected


def test_elementary_abelian_all_vanish():
    for r in (1, 2, 3):
        g = catalog("cyclic", 2)
        for _ in range(r - 1):
            g = catalog("direct_product", g, catalog("cyclic", 2))
        ctx = make_context(g, next(c for c in linear_characters(g) if c.is_trivial()))
        assert lie_basis(ctx).vectors == ()


def test_basis_vectors_are_skew():
    sign = find_character(S3, "sign")
    ctx = make_context(S3, sign)
    for v in lie_basis(ctx).vectors:
        assert star(ctx, v) == -v


def test_center_generators_are_skew():
    for spec, label in [("symmetric:3", "sign"), ("cyclic:5", "trivial"),
                        ("dihedral:6", "lin1")]:
        g = parse_group_spec(spec)
        ctx = make_context(g, find_character(g, label))
        for v in center_basis(center_candidates(ctx)):
            assert star(ctx, v) == -v


def test_center_bases():
    sign = find_character(S3, "sign")
    gens = center_basis(center_candidates(make_context(S3, sign)))
    assert len(gens) == 1
    cd = conjugacy_data(S3)
    transp = next(c for c in range(3) if cd.sizes[c] == 3)
    expected = class_sum(S3, cd.classes[transp]).scaled(2)
    assert gens[0] == expected

    z3 = catalog("cyclic", 3)
    gens3 = center_basis(center_candidates(make_context(z3, find_character(z3, "trivial"))))
    assert len(gens3) == 1
    d1 = GroupAlgebraElement.delta(z3, 1) - GroupAlgebraElement.delta(z3, 2)
    assert gens3[0] == d1

    assert center_basis(center_candidates(make_context(Q8, find_character(Q8, "trivial")))) == []


def test_orthogonality_between_eigenspaces():
    for spec, label in [("symmetric:3", "sign"), ("symmetric:4", "trivial"),
                        ("quaternion8", "trivial")]:
        g = parse_group_spec(spec)
        ctx = make_context(g, find_character(g, label))
        basis = lie_basis(ctx)
        for u in basis.vectors:
            for s in plus_fixed_basis(ctx):
                assert convolve(u, s).trace().is_zero()


def test_anti_self_adjointness_untwisted():
    # rho(u)^T D + D rho(u) = 0 with D = diag(alpha(g)), tau = id
    for spec, label in [("symmetric:3", "sign"), ("cyclic:4", "lin1")]:
        g = parse_group_spec(spec)
        alpha = find_character(g, label)
        ctx = make_context(g, alpha)
        n = g.order
        zero = context(g.exponent).zero
        for u in lie_basis(ctx).vectors:
            for a in range(n):
                for b in range(n):
                    # rho(u)[b][a] is the delta_b coefficient of u * delta_a
                    lhs = u.terms.get(g.mult[b][g.inverse[a]], zero) * alpha.value(b)
                    rhs = alpha.value(a) * u.terms.get(g.mult[a][g.inverse[b]], zero)
                    assert (lhs + rhs).is_zero()


def test_lie_basis_checks_the_census_without_assert(monkeypatch):
    # a typed error, so the check survives python -O
    import grouplie.liealg as liealg_mod

    ctx = make_context(S3, find_character(S3, "sign"))
    monkeypatch.setattr(liealg_mod, "census_dimension", lambda c: 0)
    with pytest.raises(InvariantViolated):
        lie_basis(ctx)


# ---------------------------------------------------------------------------
# vectors written by lookup against the arithmetic construction


def oracle_orbit_vectors(ctx, sign):
    """Reference: (g, delta_g + sign * alpha(g) delta_sigma(g)) by group
    algebra arithmetic, one per sigma-orbit where it is nonzero."""
    group, seen, out = ctx.group, set(), []
    for g in group.elements():
        if g in seen:
            continue
        s = ctx.sigma[g]
        seen.update((g, s))
        v = (GroupAlgebraElement.delta(group, g)
             + GroupAlgebraElement.delta(group, s).scaled(sign * ctx.alpha.value(g)))
        if not v.is_zero():
            out.append((g, v))
    return out


def oracle_center_candidates(ctx):
    """Reference: (c, sigma(c), T_c - alpha(c) T_sigma(c)) by class-sum
    arithmetic, skipping sigma-fixed classes with alpha(c) = 1."""
    group = ctx.group
    cd = conjugacy_data(group)
    sig = sigma_class_map(ctx)
    out = []
    for c in range(cd.num_classes):
        alpha_c = ctx.alpha.value(cd.representatives[c])
        if sig[c] == c and alpha_c == 1:
            continue
        out.append((c, sig[c], class_sum(group, cd.classes[c])
                    - class_sum(group, cd.classes[sig[c]]).scaled(alpha_c)))
    return out


def test_lookup_vectors_equal_the_arithmetic_construction():
    contexts = 0
    for group in (g for g in default_catalog() if g.order <= 24):
        for tau in curated_taus(group):
            for alpha in linear_characters(group):
                if not alpha_tau_compatible(alpha, tau):
                    continue
                contexts += 1
                ctx = make_context(group, alpha, tau)
                minus = oracle_orbit_vectors(ctx, -1)
                basis = lie_basis(ctx)
                assert basis.vectors == tuple(v for _, v in minus)
                assert [min(v.terms) for v in basis.vectors] == [g for g, _ in minus]
                assert plus_fixed_basis(ctx) == [v for _, v in oracle_orbit_vectors(ctx, 1)]
                assert list(center_candidates(ctx)) == oracle_center_candidates(ctx)
    assert contexts == 406


def test_lookup_vectors_at_fixed_points_and_fixed_classes():
    z4 = catalog("cyclic", 4)
    one, two = context(4).one, context(4).from_fraction(2)
    # tau = inv fixes every g under sigma(g) = tau(g)^-1: one vector 1 -+ alpha(g) per g
    ctx = make_context(z4, find_character(z4, "sign"), inversion_automorphism(z4))
    minus_one = [g for g in z4.elements() if ctx.alpha.exponents[g]]
    # 1 - alpha(g) is 2 where alpha(g) = -1 and 0 (skipped) where alpha(g) = 1
    assert lie_basis(ctx).vectors == tuple(GroupAlgebraElement(z4, {g: two})
                                           for g in minus_one)
    # 1 + alpha(g) is 2 where alpha(g) = 1 and 0 (skipped) where alpha(g) = -1
    assert plus_fixed_basis(ctx) == [GroupAlgebraElement(z4, {g: two})
                                     for g in z4.elements() if g not in minus_one]
    # every class is sigma-fixed: alpha(c) = 1 is skipped, alpha(c) = -1 gives 2 T_c
    cd = conjugacy_data(z4)
    assert [(c, sc, v.terms) for c, sc, v in center_candidates(ctx)] == [
        (c, c, dict.fromkeys(cd.classes[c], two)) for c in range(cd.num_classes)
        if cd.representatives[c] in minus_one]

    # a moved pair (g, g^-1) under tau = id: delta_g - alpha(g) delta_(g^-1)
    lin1 = find_character(z4, "lin1")
    ctx = make_context(z4, lin1)
    g = next(g for g in z4.elements() if z4.inverse[g] != g)
    vec = next(v for v in lie_basis(ctx).vectors if min(v.terms) == g)
    assert vec.terms == {g: one, z4.inverse[g]: -lin1.value(g)}
    # a sigma-fixed class with alpha(c) != 1: (1 - alpha(c)) T_c
    c, _, v = next(cand for cand in center_candidates(ctx) if cand[0] == cand[1])
    alpha_c = lin1.value(cd.representatives[c])
    assert alpha_c != 1
    assert v.terms == dict.fromkeys(cd.classes[c], one - alpha_c)


def test_context_refuses_an_alpha_of_another_conductor():
    from grouplie.errors import ConductorMismatch
    from grouplie.groups import LinearCharacter

    z4 = catalog("cyclic", 4)
    doubled = LinearCharacter(8, tuple(2 * e for e in find_character(z4, "lin1").exponents), "x")
    with pytest.raises(ConductorMismatch, match="conductor 8"):
        make_context(z4, doubled)


def test_context_refuses_a_character_or_tau_of_another_order():
    v4 = catalog("direct_product", catalog("cyclic", 2), catalog("cyclic", 2))
    v8 = catalog("direct_product", v4, catalog("cyclic", 2))
    sign = find_character(catalog("cyclic", 2), "sign")
    with pytest.raises(GroupMismatch, match="sign is defined on a group of order 2, "
                                            "not on Z/2xZ/2 of order 4"):
        make_context(v4, sign)
    with pytest.raises(GroupMismatch, match="lin1 is defined on a group of order 8"):
        make_context(v4, linear_characters(v8)[1])
    with pytest.raises(GroupMismatch, match="id is defined on a group of order 8"):
        make_context(v4, find_character(v4, "trivial"), identity_automorphism(v8))
