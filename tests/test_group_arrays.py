"""The array-built groups against the list-built oracles.

Every catalog builder writes its multiplication table as one int64 array,
from_mult_table validates it in numpy, and the group holds it as its only
table; conjugacy data, automorphism checks and commutativity compare
arrays.  The oracles below are the element-by-element versions of each,
on the table as lists: list-comprehension builders, a list-based
from_mult_table, a conjugation loop for the classes, double loops for
automorphisms and commutativity, and the depth-first walks of the greedy
generators and of linear_characters' words.  Both routes must agree on
every table, inverse map, exponent, generator, class partition, character
and refusal witness.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplie import groups
from grouplie.errors import (
    BadParameters,
    GroupMismatch,
    NotHomomorphism,
    NotInvolutive,
)
from grouplie.groups import (
    ConjugacyData,
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    catalog,
    conjugacy_data,
    conjugation_map,
    cyclic_group,
    direct_product,
    from_mult_table,
    identity_automorphism,
    inversion_automorphism,
    linear_characters,
    parse_group_spec,
    semidirect_product,
    validate_automorphism,
)
from grouplie.verify import curated_taus, default_catalog

# ---------------------------------------------------------------------------
# oracles: the element-by-element route


def oracle_table(table, name):
    """A valid group table of lists as a GroupTable: the first two-sided
    identity moved to 0, each inverse the first two-sided one, the exponent
    the lcm of the element orders found by repeated products."""
    n = len(table)
    rows = [list(r) for r in table]
    identity = next(e for e in range(n)
                    if all(rows[e][x] == x and rows[x][e] == x for x in range(n)))
    if identity:
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        rows = [[perm[rows[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    inverse = tuple(next(h for h in range(n) if rows[g][h] == 0 and rows[h][g] == 0)
                    for g in range(n))
    exponent = 1
    for g in range(n):
        k, x = 1, g
        while x:
            x, k = rows[x][g], k + 1
        exponent = math.lcm(exponent, k)
    return GroupTable(name, n, np.array(rows, dtype=np.int64), inverse, exponent)


def oracle_generators(group):
    """_greedy_generators on the table as lists: a depth-first walk of the
    left-normed products, one element at a time."""
    rows = group.mult.tolist()
    n = len(rows)
    gens, reached, frontier = [], [True] + [False] * (n - 1), [0]
    while True:
        while frontier:
            x = frontier.pop()
            for a in gens:
                y = rows[x][a]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
        if all(reached):
            return tuple(gens)
        gens.append(reached.index(False))
        frontier = [x for x in range(n) if reached[x]]


def oracle_cyclic(n):
    return oracle_table([[(a + b) % n for b in range(n)] for a in range(n)], f"Z/{n}")


def oracle_dihedral(n):
    def mul(a, b):
        i1, j1 = a % n, a // n
        i2, j2 = b % n, b // n
        return (i1 + (i2 if j1 == 0 else -i2)) % n + n * ((j1 + j2) % 2)

    return oracle_table([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)], f"D{n}")


def oracle_quaternion():
    units = {0: (1, "e"), 1: (-1, "e"), 2: (1, "i"), 3: (-1, "i"),
             4: (1, "j"), 5: (-1, "j"), 6: (1, "k"), 7: (-1, "k")}
    prod = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    encode = {u: idx for idx, u in units.items()}

    def mul(a, b):
        (sa, ba), (sb, bb) = units[a], units[b]
        s, base = prod[(ba, bb)]
        return encode[(sa * sb * s, base)]

    return oracle_table([[mul(a, b) for b in range(8)] for a in range(8)], "Q8")


def oracle_frobenius21():
    def mul(x, y):
        a1, b1 = x % 7, x // 7
        a2, b2 = y % 7, y // 7
        return (a1 + pow(2, b1, 7) * a2) % 7 + 7 * ((b1 + b2) % 3)

    return oracle_table([[mul(x, y) for y in range(21)] for x in range(21)], "Z/7:Z/3")


def oracle_permutations(perms, name):
    index = {p: i for i, p in enumerate(perms)}
    return oracle_table([[index[tuple(p[x] for x in q)] for q in perms] for p in perms], name)


def oracle_symmetric(n):
    return oracle_permutations(sorted(itertools.permutations(range(n))), f"S{n}")


def oracle_alternating(n):
    def even(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    perms = sorted(p for p in itertools.permutations(range(n)) if even(p))
    return oracle_permutations(perms, f"A{n}")


def oracle_direct(g1, g2):
    n1, n2 = g1.order, g2.order
    rows1, rows2 = g1.mult.tolist(), g2.mult.tolist()
    table = [[rows1[a1][b1] * n2 + rows2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
             for a1 in range(n1) for a2 in range(n2)]
    return oracle_table(table, f"{g1.name}x{g2.name}")


def oracle_semidirect(g, tau):
    n, rows = g.order, g.mult.tolist()

    def mul(x, y):
        a, i = x % n, x // n
        b, j = y % n, y // n
        return rows[a][b if i == 0 else tau.mapping[b]] + n * ((i + j) % 2)

    return oracle_table([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)],
                        f"{g.name}:<{tau.label}>")


def oracle_automorphism(group, mapping, label):
    """The first failing pair (g, h) in row order, then the first g with
    tau(tau(g)) != g."""
    n, rows = group.order, group.mult.tolist()
    for g in range(n):
        for h in range(n):
            if mapping[rows[g][h]] != rows[mapping[g]][mapping[h]]:
                raise NotHomomorphism((g, h), label)
    for g in range(n):
        if mapping[mapping[g]] != g:
            raise NotInvolutive(g, label)
    return InvolutiveAutomorphism(tuple(mapping), label)


def oracle_is_abelian(group):
    rows = group.mult.tolist()
    return all(rows[a][b] == rows[b][a]
               for a in range(group.order) for b in range(a + 1, group.order))


_ORACLE_FAMILIES = {"cyclic": oracle_cyclic, "dihedral": oracle_dihedral,
                    "symmetric": oracle_symmetric, "alternating": oracle_alternating}


def oracle_group(spec):
    """parse_group_spec's grammar on the oracle builders; tau is id or inv."""
    if spec.startswith("product:"):
        factors = [oracle_group(p) for p in spec[len("product:"):].split(",")]
        out = factors[0]
        for h in factors[1:]:
            out = oracle_direct(out, h)
        return out
    if spec.startswith("semidirect:"):
        gspec, tspec = spec[len("semidirect:"):].rsplit(",", 1)
        g = oracle_group(gspec)
        mapping = g.inverse if tspec == "inv" else tuple(range(g.order))
        return oracle_semidirect(g, oracle_automorphism(g, mapping, tspec))
    if spec == "quaternion8":
        return oracle_quaternion()
    if spec == "frobenius21":
        return oracle_frobenius21()
    name, _, arg = spec.partition(":")
    return _ORACLE_FAMILIES[name](int(arg))


def oracle_conjugacy(group):
    n, rows = group.order, group.mult.tolist()
    class_of = [-1] * n
    classes = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = sorted({rows[rows[h][g]][group.inverse[h]] for h in range(n)})
        for x in orbit:
            class_of[x] = len(classes)
        classes.append(tuple(orbit))
    reps = tuple(c[0] for c in classes)
    return ConjugacyData(classes=tuple(classes), class_of=tuple(class_of),
                         inverse_class=tuple(class_of[group.inverse[r]] for r in reps),
                         sizes=tuple(len(c) for c in classes), representatives=reps)


def oracle_linear_characters(group):
    """linear_characters with words found depth first, one element at a time."""
    m, n, rows = group.exponent, group.order, group.mult.tolist()
    gens = list(oracle_generators(group))
    k = len(gens)
    unit = np.eye(k, dtype=np.int64)
    words = np.zeros((n, k), dtype=np.int64)
    reached = [True] + [False] * (n - 1)
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for j, s in enumerate(gens):
            y = rows[x][s]
            if not reached[y]:
                reached[y] = True
                words[y] = words[x] + unit[j]
                frontier.append(y)
    relations = (words[group.mult[:, gens]] - words[:, None, :] - unit) % m
    distinct = set(map(tuple, relations.reshape(n * k, k).tolist()))
    relations = np.array(list(distinct), dtype=np.int64).reshape(len(distinct), k)
    last = ((relations != 0) * np.arange(1, k + 1)).max(axis=1, initial=0) - 1
    tuples = np.zeros((1, 0), dtype=np.int64)
    for j, s in enumerate(gens):
        values = np.arange(0, m, m // group.element_order(s))
        tuples = np.hstack([np.repeat(tuples, len(values), axis=0),
                            np.tile(values, len(tuples))[:, None]])
        held = (tuples @ relations[last == j, : j + 1].T) % m == 0
        tuples = tuples[held.all(axis=1)]
    values = (words @ tuples.T) % m
    pulled = sorted(map(tuple, values.T.tolist()))
    real = np.flatnonzero((2 * tuples % m == 0).all(axis=1) & tuples.any(axis=1))
    sign = tuple(values[:, real[0]].tolist()) if len(real) == 1 else None
    chars, lin = [], 0
    for e in pulled:
        if not any(e):
            label = "trivial"
        elif e == sign:
            label = "sign"
        else:
            lin += 1
            label = f"lin{lin}"
        chars.append(LinearCharacter(m, e, label))
    return tuple(chars)


# ---------------------------------------------------------------------------
# the groups compared

DEFAULT_SPECS = ([f"cyclic:{k}" for k in range(2, 25)] + [f"dihedral:{k}" for k in range(3, 13)]
                 + ["symmetric:3", "symmetric:4", "alternating:4", "quaternion8",
                    "product:cyclic:2,cyclic:4", "product:cyclic:2,cyclic:2,cyclic:2",
                    "product:cyclic:3,cyclic:3", "frobenius21", "alternating:5", "symmetric:5"])
SUITE_LARGE = ["symmetric:5", "alternating:5", "product:alternating:5,cyclic:2",
               "product:symmetric:3,alternating:4", "product:symmetric:4,cyclic:2",
               "product:symmetric:4,cyclic:3", "product:symmetric:3,symmetric:3", "dihedral:30"]
# the inputs of the benchmark's tables workload (symmetric:5 is computed twice there)
TABLE_SPECS = ["cyclic:48", "cyclic:60", "product:cyclic:4,cyclic:12", "dihedral:60",
               "product:quaternion8,cyclic:6", "product:dihedral:4,cyclic:6",
               "semidirect:cyclic:30,inv", "symmetric:5", "symmetric:5"]


def _kawanaka_specs():
    """The extensions the order-24 suite checks: G by each tau other than id."""
    specs = []
    for spec, group in zip(DEFAULT_SPECS, default_catalog()):
        if group.order <= 24:
            specs += [f"semidirect:{spec},{tau.label}" for tau in curated_taus(group)
                      if not tau.is_identity() and 2 * group.order <= 256]
    return specs


KAWANAKA_SPECS = _kawanaka_specs()


def assert_same_group(new, old):
    assert (new.name, new.order, new.identity) == (old.name, old.order, old.identity)
    assert new.mult.tolist() == old.mult.tolist() and new.inverse == old.inverse
    assert new == old and new.exponent == old.exponent
    assert new.mult.dtype == np.int64 and not new.mult.flags.writeable
    assert new.generators() == oracle_generators(old)
    assert new.is_abelian() == oracle_is_abelian(old)
    assert conjugacy_data(new) == oracle_conjugacy(old)
    assert linear_characters(new) == oracle_linear_characters(old)


def test_the_listed_specs_are_the_default_catalog_and_its_extensions():
    catalog_groups = default_catalog()
    assert len(catalog_groups) == len(DEFAULT_SPECS) and len(KAWANAKA_SPECS) == 24
    for group, old in zip(catalog_groups, map(oracle_group, DEFAULT_SPECS)):
        assert group == old


@pytest.mark.parametrize("spec", sorted(set(DEFAULT_SPECS + SUITE_LARGE + TABLE_SPECS
                                            + KAWANAKA_SPECS)))
def test_every_array_built_group_equals_its_list_built_oracle(spec):
    assert_same_group(parse_group_spec(spec), oracle_group(spec))


SMALL = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "dihedral:3", "dihedral:4",
         "quaternion8", "frobenius21"]


@st.composite
def small_extensions(draw):
    """(new, oracle) pairs: a small group or a direct product of two, maybe
    extended by id, inv (on an abelian group) or conjugation by an involution."""
    specs = [draw(st.sampled_from(SMALL)) for _ in range(draw(st.integers(1, 2)))]
    new, old = parse_group_spec(specs[0]), oracle_group(specs[0])
    for spec in specs[1:]:
        new, old = direct_product(new, parse_group_spec(spec)), oracle_direct(old, oracle_group(spec))
    choices = [None, "id"] + (["inv"] if new.is_abelian() else [])
    choices += [h for h in new.elements() if h and new.mult[h][h] == 0]
    choice = draw(st.sampled_from(choices))
    if choice is None:
        return new, old
    if choice == "id":
        return (semidirect_product(new, identity_automorphism(new)),
                oracle_semidirect(old, oracle_automorphism(old, tuple(range(old.order)), "id")))
    if choice == "inv":
        return (semidirect_product(new, inversion_automorphism(new)),
                oracle_semidirect(old, oracle_automorphism(old, old.inverse, "inv")))
    mapping = conjugation_map(new, choice)
    tau = validate_automorphism(new, mapping, f"conj{choice}")
    assert tau == oracle_automorphism(old, mapping, f"conj{choice}")
    return semidirect_product(new, tau), oracle_semidirect(old, tau)


@settings(max_examples=40, deadline=None)
@given(small_extensions())
def test_small_products_and_extensions_equal_their_oracles(pair):
    assert_same_group(*pair)


def _refusal(check, *args):
    try:
        return check(*args)
    except (NotHomomorphism, NotInvolutive) as exc:
        return type(exc), str(exc), getattr(exc, "pair", None), getattr(exc, "element", None)


def test_automorphism_witnesses_follow_the_loop_order():
    outcomes = {NotHomomorphism: 0, NotInvolutive: 0, InvolutiveAutomorphism: 0}
    for spec in ("cyclic:7", "cyclic:12", "dihedral:6", "symmetric:4", "quaternion8",
                 "frobenius21", "product:cyclic:2,dihedral:4"):
        group, old = parse_group_spec(spec), oracle_group(spec)
        rng = random.Random(spec)
        maps = [tuple(rng.sample(range(group.order), group.order)) for _ in range(10)]
        # automorphisms, some not involutive: conjugations, and g -> g^u on Z/n
        autos = [conjugation_map(group, h) for h in group.elements()]
        if spec.startswith("cyclic"):
            autos += [tuple(u * g % group.order for g in group.elements())
                      for u in range(2, group.order) if math.gcd(u, group.order) == 1]
        maps += autos
        # near misses, whose first failing pair lies off the identity's row
        # and column: permutations fixing 0, and automorphisms with two
        # images swapped
        for _ in range(20):
            maps.append((0, *rng.sample(range(1, group.order), group.order - 1)))
            near = list(rng.choice(autos))
            a, b = rng.sample(range(1, group.order), 2)
            near[a], near[b] = near[b], near[a]
            maps.append(tuple(near))
        for mapping in maps:
            new = _refusal(validate_automorphism, group, list(mapping), "tau")
            assert new == _refusal(oracle_automorphism, old, mapping, "tau"), (spec, mapping)
            outcomes[new[0] if isinstance(new, tuple) else type(new)] += 1
    assert outcomes[NotHomomorphism] >= 7 * 30
    assert min(outcomes.values()) >= 10


def test_inversion_witness_follows_the_loop_order():
    for spec in ("symmetric:3", "dihedral:5", "quaternion8", "frobenius21"):
        group, old = parse_group_spec(spec), oracle_group(spec)
        assert (_refusal(inversion_automorphism, group)
                == _refusal(oracle_automorphism, old, old.inverse, "inv"))


# ---------------------------------------------------------------------------
# refusals, the order cap and the counts


@pytest.mark.parametrize("table", [
    np.array([[True, False], [False, True]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.zeros((2, 3), dtype=np.int64),
    np.array([[0, 1], [1, 2]]),
    np.array([[0, 1], [-1, 0]]),
    np.array([[0, 1], [1, 0]], dtype=np.uint8) + np.array([[0, 0], [0, 9]], dtype=np.uint8),
    np.arange(4),
    np.arange(8).reshape(2, 2, 2) % 2,
], ids=["bool", "float", "non-square", "too-large", "negative", "uint8", "flat", "3-d"])
def test_an_array_table_is_refused_as_its_rows_are(table):
    with pytest.raises(BadParameters) as from_array:
        from_mult_table(table)
    with pytest.raises(BadParameters) as from_lists:
        from_mult_table(table.tolist())
    assert str(from_array.value) == str(from_lists.value)
    assert "row" in str(from_array.value)


def test_an_array_table_is_validated_as_a_list_is():
    array = np.array([[1, 0], [0, 1]], dtype=np.int32)  # Z/2 with its identity at 1
    group = from_mult_table(array, "Z2")
    assert group == from_mult_table(array.tolist(), "Z2")
    assert group.mult.tolist() == [[0, 1], [1, 0]]
    assert array.tolist() == [[1, 0], [0, 1]] and array.flags.writeable
    with pytest.raises(BadParameters, match="empty"):
        from_mult_table(np.zeros((0, 0), dtype=np.int64))


def test_groups_at_the_order_cap_have_their_class_counts_and_exponents():
    q8 = catalog("quaternion8")
    cases = [(catalog("cyclic", 1024), 1024, 1024), (catalog("dihedral", 512), 259, 512),
             (catalog("direct_product", q8, q8, q8, catalog("cyclic", 2)), 250, 4)]
    for group, classes, exponent in cases:
        assert group.order == 1024, group.name
        assert (conjugacy_data(group).num_classes, group.exponent) == (classes, exponent)


def test_semidirect_product_refuses_an_automorphism_of_another_group():
    z3 = catalog("cyclic", 3)
    with pytest.raises(GroupMismatch, match="inv is defined on a group of order 4"):
        semidirect_product(z3, inversion_automorphism(catalog("cyclic", 4)))
    with pytest.raises(GroupMismatch, match="id is defined on a group of order 5"):
        semidirect_product(z3, identity_automorphism(catalog("cyclic", 5)))


def test_the_tables_inputs_make_no_entry_check(monkeypatch):
    entries = 0
    index_list = groups._index_list

    def counted_index_list(data, *args, **kwargs):
        nonlocal entries
        entries += len(data)
        return index_list(data, *args, **kwargs)

    monkeypatch.setattr(groups, "_index_list", counted_index_list)
    for spec in TABLE_SPECS:
        conjugacy_data(parse_group_spec(spec))
    assert entries == 0
    # a JSON table still has every entry checked
    from_mult_table([[0, 1], [1, 0]])
    assert entries == 4


# ---------------------------------------------------------------------------
# the one table


def test_mult_is_the_one_read_only_table():
    group = catalog("dihedral", 5)
    conjugacy_data(group), linear_characters(group), group.is_abelian()  # fill the caches
    table = group.mult
    assert table.dtype == np.int64 and table.shape == (10, 10)
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # the group's only array is mult, and none of its fields or caches holds rows
    held = vars(group)
    assert [k for k, v in held.items() if isinstance(v, np.ndarray)] == ["mult"]
    assert not any(isinstance(v, (tuple, list)) and v and isinstance(v[0], (tuple, list))
                   for v in held.values())


def test_an_order_1024_group_holds_its_table_once():
    tracemalloc.start()
    try:
        group = cyclic_group(1024)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the int64 table alone is 8 MiB; a second copy as Python ints was 32 MiB more
    assert group.order == 1024 and retained <= 12 * 2**20


@pytest.mark.parametrize("spec", ["symmetric:3", "quaternion8"])
def test_conjugation_maps_are_accepted_as_automorphisms(spec):
    group = parse_group_spec(spec)
    accepted = 0
    for h in group.elements():
        mapping = conjugation_map(group, h)
        assert all(type(x) is int for x in mapping)
        # conjugation by h is an involution exactly when h^2 is central
        if conjugation_map(group, group.mult[h, h]) == tuple(group.elements()):
            assert validate_automorphism(group, mapping, "conj").mapping == mapping
            accepted += 1
        else:
            with pytest.raises(NotInvolutive):
                validate_automorphism(group, mapping, "conj")
    assert all(type(group.element_order(g)) is int for g in group.elements())
    assert all(type(g) is int for g in group.generators())
    assert accepted == {"symmetric:3": 4, "quaternion8": 8}[spec]


def test_groups_compare_by_name_order_and_table():
    d5 = catalog("dihedral", 5)
    assert d5 == catalog("dihedral", 5) == from_mult_table(d5.mult.tolist(), "D5")
    assert hash(d5) == hash(catalog("dihedral", 5))
    z4 = cyclic_group(4)
    klein = parse_group_spec("product:cyclic:2,cyclic:2")
    assert z4 != from_mult_table(z4.mult, "Z4")  # another name
    assert z4 != from_mult_table(klein.mult, "Z/4")  # another table
    assert z4 != cyclic_group(5) and d5 != catalog("symmetric", 3)
    assert not z4 == "Z/4"
