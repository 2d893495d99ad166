import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie.chartable import character_table
from grouplie.errors import (
    BadParameters,
    GroupLieError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotHomomorphism,
    NotInvolutive,
    OrderCapExceeded,
    UnknownName,
)
from grouplie.groups import (
    _greedy_generators,
    _permutation_group,
    alpha_tau_compatible,
    catalog,
    conjugacy_data,
    conjugation_map,
    direct_product,
    from_mult_table,
    from_permutation_generators,
    group_from_json,
    identity_automorphism,
    inversion_automorphism,
    kernel_subgroup,
    linear_characters,
    parse_group_spec,
    semidirect_product,
    subgroup_table,
    validate_automorphism,
)
from grouplie.verify import default_catalog


def brute_force_classes(group):
    """Naive conjugation-orbit partition, used as the oracle."""
    remaining = set(group.elements())
    classes = []
    while remaining:
        g = min(remaining)
        orbit = {group.mult[group.mult[h][g]][group.inverse[h]] for h in group.elements()}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return classes


def test_trivial_group():
    g = from_mult_table([[0]], "1")
    assert g.order == 1 and g.exponent == 1 and g.identity == 0


def test_z2_from_table():
    g = from_mult_table([[0, 1], [1, 0]], "Z2")
    assert g.order == 2 and g.exponent == 2
    assert g.inverse == (0, 1)


def test_identity_normalization():
    # Z/2 written with the identity at index 1
    g = from_mult_table([[1, 0], [0, 1]])
    assert g.identity == 0
    assert g.mult[0][1] == 1 and g.mult[1][1] == 0


def test_non_associative_table_names_triple():
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    table[2][3] = (table[2][3] + 1) % 6
    if table[2][3] == 0:
        table[2][3] = 1
    with pytest.raises(NotAssociative) as err:
        from_mult_table(table)
    assert len(err.value.triple) == 3


def _corrupted_cyclic_512():
    table = [[(a + b) % 512 for b in range(512)] for a in range(512)]
    table[300][200] = 7  # should be 500; row 0 and column 0 stay intact
    return table


def test_associativity_exact_above_former_sampling_cap():
    # A single wrong entry of an order-512 table lies in about 3 * 512^2 of the
    # 512^3 triples; a sampled check of 20000 triples misses it.
    with pytest.raises(NotAssociative) as err:
        from_mult_table(_corrupted_cyclic_512())
    x, a, y = err.value.triple
    table = _corrupted_cyclic_512()
    assert table[table[x][a]][y] != table[x][table[a][y]]


@pytest.mark.parametrize("spec", ["symmetric:3", "quaternion8", "dihedral:5",
                                  "alternating:4", "product:cyclic:2,cyclic:4"])
def test_associativity_agrees_with_exhaustive_check(spec):
    g = parse_group_spec(spec)
    n = g.order
    rng = random.Random(spec)
    for _ in range(20):
        table = g.mult.tolist()
        x, y = rng.randrange(1, n), rng.randrange(1, n)
        table[x][y] = rng.randrange(n)
        associative = all(
            table[table[a][b]][c] == table[a][table[b][c]]
            for a in range(n) for b in range(n) for c in range(n)
        )
        if associative:
            try:
                from_mult_table(table)
            except NotAssociative:
                pytest.fail("associative table rejected")
            except GroupLieError:
                pass
        else:
            with pytest.raises(NotAssociative):
                from_mult_table(table)


def test_monoid_without_inverses():
    # multiplication on {0, 1} with absorbing 0; identity is 1
    with pytest.raises(NoInverse):
        from_mult_table([[0, 0], [0, 1]])


def test_no_identity():
    with pytest.raises(NoIdentity):
        from_mult_table([[0, 0], [0, 0]])


def test_malformed_tables():
    with pytest.raises(BadParameters):
        from_mult_table([[0, 1], [1]])
    with pytest.raises(BadParameters):
        from_mult_table([[0, 5], [5, 0]])
    # JSON booleans and floats are not integers, even where they equal one
    with pytest.raises(BadParameters, match="row 0 holds True, which is not an integer"):
        from_mult_table([[True, False], [False, True]])
    with pytest.raises(BadParameters, match="row 1 holds 0.0, which is not an integer"):
        from_mult_table([[0, 1], [1, 0.0]])


def test_permutation_generators_z2():
    g = from_permutation_generators([[1, 0]], "swap")
    assert g.order == 2


def test_permutation_generators_s3():
    g = from_permutation_generators([[1, 0, 2], [1, 2, 0]], "S3")
    assert g.order == 6  # 3! by closure


def test_permutation_generators_s5():
    g = from_permutation_generators([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], "S5")
    assert g.order == 120  # 5!


@pytest.mark.parametrize("perms", [
    sorted(itertools.permutations(range(4))),
    # the dihedral group of order 40 on 20 points: its codes need renumbering
    [tuple((i + x) % 20 for x in range(20)) for i in range(20)]
    + [tuple((i - x) % 20 for x in range(20)) for i in range(20)],
])
def test_permutation_group_composes_pointwise(perms):
    g = _permutation_group(perms, "G")
    index = {p: i for i, p in enumerate(perms)}
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            assert g.mult[a][b] == index[tuple(p[x] for x in q)]


def test_permutation_group_rejects_a_list_that_is_not_closed():
    with pytest.raises(BadParameters, match=r"\(1, 2, 0\) o \(1, 2, 0\)"):
        _permutation_group([(0, 1, 2), (1, 2, 0)], "G")


@pytest.mark.parametrize("spec", ["symmetric:4", "alternating:5", "dihedral:6",
                                  "quaternion8", "frobenius21", "cyclic:12"])
def test_commutator_subgroup_matches_pairwise_commutators(spec):
    # the common kernel of the linear characters is the commutator subgroup,
    # the closure of the pairwise commutators; a missing character leaves it larger
    g = parse_group_spec(spec)
    inv, mult = g.inverse, g.mult
    commutators = {mult[mult[inv[x]][inv[y]]][mult[x][y]]
                   for x in range(g.order) for y in range(g.order)}
    closure = {g.identity}
    while (grown := closure | {mult[x][c] for x in closure for c in commutators}) != closure:
        closure = grown
    kernels = [set(c.kernel_elements()) for c in linear_characters(g)]
    assert set.intersection(*kernels) == closure


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        # S7 (order 5040) from a 7-cycle and a transposition
        from_permutation_generators([[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]])


def test_catalog_cyclic():
    g = catalog("cyclic", 3)
    assert g.order == 3 and g.exponent == 3


def order_census(g):
    return Counter(g.element_order(x) for x in g.elements())


def power(g, x, k):
    """x^k by repeated multiplication."""
    out = g.identity
    for _ in range(k):
        out = g.mult[out][x]
    return out


def test_catalog_quaternion_census():
    q8 = catalog("quaternion8")
    assert q8.order == 8
    census = order_census(q8)
    assert census == {1: 1, 2: 1, 4: 6}  # exactly one element of order 2


def test_catalog_semidirect_inversion_is_s3_like():
    z3 = catalog("cyclic", 3)
    g = catalog("semidirect_product", z3, inversion_automorphism(z3))
    assert g.order == 6
    assert order_census(g)[2] == 3
    assert not g.is_abelian()


def test_semidirect_with_identity_is_direct_product():
    z5 = catalog("cyclic", 5)
    twisted = catalog("semidirect_product", z5, identity_automorphism(z5))
    straight = catalog("direct_product", z5, catalog("cyclic", 2))
    assert order_census(twisted) == order_census(straight)


def test_catalog_errors():
    with pytest.raises(UnknownName):
        catalog("nonsense")
    with pytest.raises(BadParameters):
        catalog("symmetric", 6)
    with pytest.raises(BadParameters):
        catalog("dihedral", 2)
    with pytest.raises(BadParameters):
        catalog("cyclic", "x")
    with pytest.raises(BadParameters):
        catalog("cyclic")
    with pytest.raises(BadParameters):
        catalog("quaternion8", 3)


def test_conjugacy_s3_against_oracle():
    s3 = catalog("symmetric", 3)
    cd = conjugacy_data(s3)
    assert sorted(cd.sizes) == [1, 2, 3]
    assert list(cd.classes) == brute_force_classes(s3)


def test_conjugacy_q8_against_oracle():
    q8 = catalog("quaternion8")
    cd = conjugacy_data(q8)
    assert sorted(cd.sizes) == [1, 1, 2, 2, 2]
    assert list(cd.classes) == brute_force_classes(q8)


def test_conjugacy_abelian_singletons():
    g = catalog("cyclic", 12)
    cd = conjugacy_data(g)
    assert cd.num_classes == 12
    assert all(s == 1 for s in cd.sizes)


@pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:6", "symmetric:4",
                                  "quaternion8", "frobenius21"])
def test_class_size_sums_and_divisibility(spec):
    g = parse_group_spec(spec)
    cd = conjugacy_data(g)
    assert sum(cd.sizes) == g.order
    assert all(g.order % s == 0 for s in cd.sizes)
    assert all(cd.inverse_class[cd.inverse_class[c]] == c
               for c in range(cd.num_classes))
    assert g.order % g.exponent == 0
    assert all(power(g, x, g.exponent) == 0 for x in g.elements())


def test_square_class_well_defined():
    g = parse_group_spec("dihedral:6")
    cd = conjugacy_data(g)
    rng = random.Random(3)
    for _ in range(100):
        x = rng.randrange(g.order)
        h = rng.randrange(g.order)
        y = conjugation_map(g, h)[x]
        assert cd.class_of[g.mult[x][x]] == cd.class_of[g.mult[y][y]]


def test_linear_characters_s3():
    s3 = catalog("symmetric", 3)
    chars = linear_characters(s3)
    assert [c.label for c in chars] == ["trivial", "sign"]
    sign = chars[1]
    transposition = next(g for g in s3.elements() if s3.element_order(g) == 2)
    assert sign.value(transposition) == -1
    assert sign.value(0) == 1
    # constant on conjugacy classes
    cd = conjugacy_data(s3)
    for chi in chars:
        for cls in cd.classes:
            assert len({chi.exponents[g] for g in cls}) == 1


def test_linear_characters_z4():
    z4 = catalog("cyclic", 4)
    chars = linear_characters(z4)
    assert len(chars) == 4
    m = z4.exponent
    # distinct, class-constant, closed under pointwise product
    seen = {c.exponents for c in chars}
    assert len(seen) == 4
    for a in chars:
        for b in chars:
            assert tuple((x + y) % m for x, y in zip(a.exponents, b.exponents)) in seen
    # homomorphism property
    for c in chars:
        for g in z4.elements():
            for h in z4.elements():
                lhs = (c.exponents[g] + c.exponents[h]) % m
                assert c.exponents[z4.mult[g][h]] == lhs


def test_linear_characters_q8():
    q8 = catalog("quaternion8")
    assert len(linear_characters(q8)) == 4  # abelianization (Z/2)^2


def test_linear_characters_frobenius21():
    assert len(linear_characters(catalog("frobenius21"))) == 3


def _assert_homomorphisms(group, chars):
    """Every character is a homomorphism into Z/m on all pairs, and no two
    are equal."""
    exps = np.array([c.exponents for c in chars])
    m = group.exponent
    assert ((exps[:, group.mult] - exps[:, :, None] - exps[:, None, :]) % m == 0).all()
    assert len({c.exponents for c in chars}) == len(chars)


def _assert_all_linear_characters(group):
    chars = linear_characters(group)
    _assert_homomorphisms(group, chars)
    # as many as the degree-1 rows of the character table
    assert len(chars) == character_table(group).degrees.count(1)


SUITE_LARGE = ["symmetric:5", "alternating:5", "product:alternating:5,cyclic:2",
               "product:symmetric:3,alternating:4", "product:symmetric:4,cyclic:2",
               "product:symmetric:4,cyclic:3", "product:symmetric:3,symmetric:3", "dihedral:30"]


@pytest.mark.parametrize("group", [g for g in default_catalog() if g.order <= 24]
                         + [parse_group_spec(s) for s in SUITE_LARGE],
                         ids=lambda g: g.name)
def test_linear_characters_are_every_homomorphism(group):
    _assert_all_linear_characters(group)


SMALL = [parse_group_spec(s) for s in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
                                       "dihedral:3", "dihedral:4", "quaternion8")]


@st.composite
def small_products(draw):
    """A direct product of two small groups, or a small group, extended by
    the identity, the inversion or the conjugation by an involution."""
    group = draw(st.sampled_from(SMALL))
    if draw(st.booleans()):
        group = direct_product(group, draw(st.sampled_from(SMALL)))
    taus = [None, identity_automorphism(group)]
    taus += [validate_automorphism(group, conjugation_map(group, h), f"conj{h}")
             for h in group.elements() if h and group.mult[h][h] == 0]
    if group.is_abelian():
        taus.append(inversion_automorphism(group))
    tau = draw(st.sampled_from(taus))
    return group if tau is None else semidirect_product(group, tau)


@settings(max_examples=25, deadline=None)
@given(small_products())
def test_linear_characters_of_products_are_every_homomorphism(group):
    _assert_all_linear_characters(group)


def test_linear_characters_with_ten_generators():
    group = parse_group_spec("product:" + ",".join(["cyclic:2"] * 10))
    assert group.order == 1024 and len(_greedy_generators(group.mult)) == 10
    chars = linear_characters(group)
    # an abelian group has as many characters as elements
    assert len({c.exponents for c in chars}) == 1024
    _assert_homomorphisms(group, random.Random(0).sample(chars, 8))


def test_linear_character_labels_match_the_exponent_scan():
    # oracle: the real nontrivial characters found by scanning every
    # exponent of every character; `sign` names the only one, if one
    groups = list(default_catalog()) + [parse_group_spec("product:" + ",".join(["cyclic:2"] * 10))]
    signs = 0
    for group in groups:
        chars = linear_characters(group)
        m = group.exponent
        real = [c.exponents for c in chars
                if any(c.exponents) and all(2 * x % m == 0 for x in c.exponents)]
        lin = iter(range(1, len(chars) + 1))
        expected = ["trivial" if not any(c.exponents)
                    else "sign" if len(real) == 1 and c.exponents == real[0]
                    else f"lin{next(lin)}" for c in chars]
        assert [c.label for c in chars] == expected, group.name
        signs += "sign" in expected
    assert signs >= 10


def test_validate_automorphism_identity_and_inversion():
    z5 = catalog("cyclic", 5)
    assert identity_automorphism(z5).is_identity()
    inv = inversion_automorphism(z5)
    assert inv.mapping == tuple(z5.inverse)


def test_inversion_on_s3_fails():
    s3 = catalog("symmetric", 3)
    with pytest.raises(NotHomomorphism) as err:
        inversion_automorphism(s3)
    g, h = err.value.pair
    assert s3.inverse[s3.mult[g][h]] != s3.mult[s3.inverse[g]][s3.inverse[h]]


def test_non_involutive_map():
    z5 = catalog("cyclic", 5)
    doubling = tuple((2 * g) % 5 for g in range(5))  # order 4 automorphism
    with pytest.raises(NotInvolutive):
        validate_automorphism(z5, doubling)


def test_alpha_tau_compatibility():
    z4 = catalog("cyclic", 4)
    inv = inversion_automorphism(z4)
    chars = linear_characters(z4)
    compatible = [c for c in chars if alpha_tau_compatible(c, inv)]
    assert len(compatible) == 2  # the two order <= 2 characters


def test_subgroups_and_kernel():
    q8 = catalog("quaternion8")
    elems, x = [0], 2
    while x:  # the powers of i: {1, -1, i, -i}
        elems.append(x)
        x = q8.mult[x][2]
    assert sorted(elems) == [0, 1, 2, 3]
    sub, embed = subgroup_table(q8, elems)
    assert sub.order == 4 and sub.exponent == 4
    assert embed == (0, 1, 2, 3)

    s3 = catalog("symmetric", 3)
    sign = linear_characters(s3)[1]
    ker, embed = kernel_subgroup(s3, sign)
    assert ker.order == 3 and ker.exponent == 3


def test_group_json_round_trip(tmp_path):
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"name": "Z3", "table": table}))
    g = parse_group_spec(str(path))
    assert g.order == 3 and g.name == "Z3"

    gens = {"name": "S3gen", "generators": [[1, 0, 2], [1, 2, 0]]}
    path2 = tmp_path / "s3.json"
    path2.write_text(json.dumps(gens))
    g2 = parse_group_spec(f"@{path2}")
    assert g2.order == 6

    assert group_from_json({"name": "Z2", "table": [[0, 1], [1, 0]]}).order == 2


def test_parse_group_specs():
    assert parse_group_spec("cyclic:12").order == 12
    assert parse_group_spec("product:cyclic:2,cyclic:4").order == 8
    assert parse_group_spec("semidirect:cyclic:7,inv").order == 14
    with pytest.raises(UnknownName):
        parse_group_spec("whatever:3")
    assert parse_group_spec("quaternion8").name == "Q8"
    assert parse_group_spec("frobenius21").order == 21
    assert parse_group_spec("alternating:4").order == 12
    with pytest.raises(BadParameters):
        parse_group_spec("dihedral:six")
    with pytest.raises(BadParameters):
        parse_group_spec("frobenius21:2")


def test_parse_semidirect_with_tau_file(tmp_path):
    path = tmp_path / "tau7.json"
    path.write_text(json.dumps([0, 6, 5, 4, 3, 2, 1]))
    g = parse_group_spec(f"semidirect:cyclic:7,auto:@{path}")
    assert g.order == 14
    assert order_census(g)[2] == 7  # dihedral of order 14


def test_power_and_element_order():
    z6 = catalog("cyclic", 6)
    assert z6.element_order(2) == 3
    assert z6.element_order(0) == 1
    # the order of x is the least k >= 1 with x^k = e
    for g in (z6, catalog("symmetric", 3), catalog("quaternion8")):
        for x in g.elements():
            k = g.element_order(x)
            assert power(g, x, k) == g.identity
            assert all(power(g, x, j) != g.identity for j in range(1, k))
