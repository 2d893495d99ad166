"""Finite groups as dense multiplication tables.

Elements are indices 0..n-1 with the identity normalized to 0.  The module
provides validated constructors, a catalog of standard groups, conjugacy
data, linear characters (as homomorphisms into Z/m, fixed by their values
on a generating set) and validated involutive automorphisms.  A group
holds its multiplication table once, as the read-only (n, n) int64 array
that from_mult_table validated; every catalog builder writes its table as
one such array, and every reader indexes it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cyclo
from .errors import (
    AlphaNotReal,
    BadParameters,
    ConductorMismatch,
    GroupMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotHomomorphism,
    NotInvolutive,
    OrderCapExceeded,
    UnknownName,
)

ORDER_CAP = 1024


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group: its multiplication table, the read-only (n, n) int64
    array from_mult_table validated, plus derived element data.  Two groups
    are equal when their names, orders and tables are."""

    name: str
    order: int
    mult: np.ndarray
    inverse: tuple[int, ...]
    exponent: int
    identity: int = 0

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        column, k, x = self.mult[:, g].tolist(), 1, g
        while x != self.identity:
            x, k = column[x], k + 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mult, self.mult.T))

    def generators(self) -> tuple[int, ...]:
        """_greedy_generators of the table: the ones from_mult_table checked
        associativity on, or built on first use, and shared."""
        cached = self.__dict__.get("_generators")
        if cached is None:
            cached = tuple(_greedy_generators(self.mult))
            object.__setattr__(self, "_generators", cached)
        return cached

    def __eq__(self, other):
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self is other or ((self.name, self.order) == (other.name, other.order)
                                 and np.array_equal(self.mult, other.mult))

    def __hash__(self):
        return hash((self.name, self.order))

    def __repr__(self):
        return f"GroupTable({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes with the inverse-class map."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    inverse_class: tuple[int, ...]
    sizes: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class LinearCharacter:
    """Group homomorphism into the m-th roots of unity, alpha(g) = zeta^exp[g]."""

    conductor: int
    exponents: tuple[int, ...]
    label: str

    def value(self, g: int) -> cyclo.CycloScalar:
        return cyclo.context(self.conductor).zeta(self.exponents[g])

    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def real_sign(self, g: int) -> int:
        """alpha(g) as +1 or -1; AlphaNotReal where alpha(g) is not real."""
        e = self.exponents[g]
        if 2 * e % self.conductor:
            raise AlphaNotReal(f"alpha({g}) = zeta_{self.conductor}^{e} is not real")
        return -1 if e else 1

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(g for g, e in enumerate(self.exponents) if e == 0)


@dataclass(frozen=True)
class InvolutiveAutomorphism:
    """Group automorphism tau with tau o tau = id, stored extensionally."""

    mapping: tuple[int, ...]
    label: str

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.mapping))


# ---------------------------------------------------------------------------
# constructors


def _index_list(data, n: int, what: str, *, permutation: bool = False) -> list[int]:
    """`data`, index data that may come from a JSON file, as a list of n
    integers in [0, n), and with `permutation` a permutation of 0..n-1.

    Anything else raises BadParameters naming `what`: a non-list, a wrong
    length, an entry that is not an int (JSON booleans and floats included)
    or one out of range.
    """
    if not isinstance(data, (list, tuple)):
        raise BadParameters(f"{what} must be a list of integers, not {type(data).__name__}")
    if len(data) != n:
        raise BadParameters(f"{what} has {len(data)} entries, expected {n}")
    if not set(map(type, data)) <= {int}:  # type(True) is bool, so booleans are refused
        bad = next(x for x in data if type(x) is not int)
        raise BadParameters(f"{what} holds {bad!r}, which is not an integer")
    if data and not 0 <= min(data) <= max(data) < n:
        bad = next(x for x in data if not 0 <= x < n)
        raise BadParameters(f"{what} holds {bad}, out of range [0, {n})")
    if permutation and len(set(data)) != n:
        raise BadParameters(f"{what} is not a permutation of 0..{n - 1}")
    return list(data)


def from_mult_table(table, name: str = "G") -> GroupTable:
    """Validate a multiplication table, a list of rows or an (n, n) integer
    array, and normalize the identity to index 0.

    A list has each row checked by _index_list; an array whose dtype, shape
    or range is off is refused through its rows as lists, so both name the
    same row.  Every group axiom is then checked on one int64 array.
    """
    if isinstance(table, np.ndarray) and not (
            table.dtype.kind in "iu" and table.ndim == 2 and table.size
            and len(table) == table.shape[1] and 0 <= table.min() and table.max() < len(table)):
        table = table.tolist()
    if not isinstance(table, (list, tuple, np.ndarray)):
        raise BadParameters(f"multiplication table must be a list of rows, "
                            f"not {type(table).__name__}")
    n = len(table)
    if n == 0:
        raise BadParameters("empty multiplication table")
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"order {n} exceeds cap {ORDER_CAP}")
    rows = table if isinstance(table, np.ndarray) else [
        _index_list(r, n, f"multiplication table row {a}") for a, r in enumerate(table)]
    arr = np.array(rows, dtype=np.int64)

    elements = np.arange(n)
    found = np.flatnonzero((arr == elements).all(axis=1) & (arr == elements[:, None]).all(axis=0))
    if not len(found):
        raise NoIdentity("no two-sided identity element")
    if found[0]:
        perm = elements.copy()
        perm[[0, found[0]]] = found[0], 0
        arr = perm[arr[np.ix_(perm, perm)]]

    generators = tuple(_greedy_generators(arr))
    for a in generators:
        left = arr[arr[:, a]]           # left[x, y] = (x*a)*y
        right = arr[:, arr[a]]          # right[x, y] = x*(a*y)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise NotAssociative((x, a, y))

    both = (arr == 0) & (arr.T == 0)
    has = both.any(axis=1)
    if not has.all():
        raise NoInverse(int(np.argmin(has)))
    # powers[k, g] = g^(k+1), doubling the rows until every column holds e
    powers = elements[None]
    while not (powers == 0).any(axis=0).all():
        powers = np.vstack([powers, arr[powers[-1], powers]])
    orders = set(((powers == 0).argmax(axis=0) + 1).tolist())
    arr.setflags(write=False)
    group = GroupTable(name, n, arr, tuple(both.argmax(axis=1).tolist()), math.lcm(*orders))
    object.__setattr__(group, "_generators", generators)
    return group


def _greedy_generators(mult: np.ndarray) -> list[int]:
    """Elements whose left-normed products (((e*a1)*a2)*...) reach every
    element of the (n, n) table `mult`.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1.2): the a with (x*a)*y == x*(a*y) for all x, y are closed under the
    product, so checking a generating set decides associativity exactly.  Each
    new generator lies outside the current closure, which in a group at least
    doubles it, so a group of order n takes at most log2(n) of them.  A
    closure step reads the column x -> x*a of each generator a off `mult`.
    """
    n = len(mult)
    gens, columns = [], []  # columns[j][x] = x * gens[j]
    reached = [True] + [False] * (n - 1)
    frontier = [0]
    while True:
        while frontier:
            x = frontier.pop()
            for column in columns:
                y = column[x]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
        if all(reached):
            return gens
        gens.append(reached.index(False))
        columns.append(mult[:, gens[-1]].tolist())
        frontier = [x for x in range(n) if reached[x]]


def from_permutation_generators(generators, name: str = "G") -> GroupTable:
    """Breadth-first closure of permutations of {0..k-1} under composition.

    Composition is (p * q)(x) = p(q(x)).
    """
    if not isinstance(generators, (list, tuple)) or not generators:
        raise BadParameters("at least one generator required, as a list of permutations")
    k = len(generators[0]) if isinstance(generators[0], (list, tuple)) else 0
    gens = [tuple(_index_list(g, k, f"generator {i}", permutation=True))
            for i, g in enumerate(generators)]
    ident = tuple(range(k))
    index = {ident: 0}
    elems = [ident]
    queue = [ident]
    while queue:
        p = queue.pop(0)
        for g in gens:
            q = tuple(p[g[i]] for i in range(k))  # p o g
            if q not in index:
                if len(elems) >= ORDER_CAP:
                    raise OrderCapExceeded(f"closure exceeds cap {ORDER_CAP}")
                index[q] = len(elems)
                elems.append(q)
                queue.append(q)
    return _permutation_group(elems, name)


def _permutation_group(perms, name: str) -> GroupTable:
    """Composition table (p * q)(x) = p(q(x)) of a list of distinct
    permutations that is closed under composition."""
    p = np.array(perms, dtype=np.int64)
    n, k = p.shape
    # integer codes, one digit per point: of every listed permutation, and at
    # (a, b) of perms[a] o perms[b]; renumbered densely before a digit could
    # leave int64
    codes = np.zeros(n, dtype=np.int64)
    composite = np.zeros((n, n), dtype=np.int64)
    top = 1  # every code is below top
    for i in range(k):
        if top * k >= 2**62:
            _, dense = np.unique(np.append(codes, composite), return_inverse=True)
            codes, composite = dense[:n], dense[n:].reshape(n, n)
            top = n * (n + 1)
        codes = codes * k + p[:, i]
        composite = composite * k + p[:, p[:, i]]
        top *= k
    order = np.argsort(codes)
    known = codes[order]
    pos = np.minimum(np.searchsorted(known, composite), n - 1)
    outside = np.argwhere(known[pos] != composite)
    if len(outside):
        a, b = map(int, outside[0])
        raise BadParameters(f"permutations are not closed under composition: "
                            f"{tuple(perms[a])} o {tuple(perms[b])} is not in the list")
    return from_mult_table(order[pos], name)


def cyclic_group(n: int) -> GroupTable:
    if not 1 <= n <= ORDER_CAP:
        raise BadParameters(f"cyclic order {n} out of range")
    x = np.arange(n)
    return from_mult_table((x[:, None] + x) % n, f"Z/{n}")


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n; element i + n*j is r^i s^j."""
    if n < 3 or 2 * n > ORDER_CAP:
        raise BadParameters(f"dihedral parameter {n} out of range (need 3 <= n)")
    x = np.arange(2 * n)
    i, j = x % n, x // n
    # r^i1 s^j1 r^i2 s^j2 = r^(i1 +- i2) s^(j1 + j2), with - when j1 = 1
    table = (i[:, None] + (1 - 2 * j)[:, None] * i) % n + n * ((j[:, None] + j) % 2)
    return from_mult_table(table, f"D{n}")


def symmetric_group(n: int) -> GroupTable:
    if not 1 <= n <= 5:
        raise BadParameters("symmetric groups supported for n <= 5")
    perms = sorted(itertools.permutations(range(n)))
    return _permutation_group(perms, f"S{n}")


def alternating_group(n: int) -> GroupTable:
    if not 3 <= n <= 5:
        raise BadParameters("alternating groups supported for 3 <= n <= 5")

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    perms = sorted(p for p in itertools.permutations(range(n)) if sign(p) == 1)
    return _permutation_group(perms, f"A{n}")


def quaternion_group() -> GroupTable:
    """Unit quaternions {1,-1,i,-i,j,-j,k,-k}, indexed in that order."""
    # element 2*b + s is (-1)^s times unit b of (1, i, j, k); the units
    # multiply as b1 XOR b2 with the sign flipped where flips[b1, b2]
    flips = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    b, s = np.arange(8) // 2, np.arange(8) % 2
    table = 2 * (b[:, None] ^ b) + (s[:, None] ^ s ^ flips[b[:, None], b])
    return from_mult_table(table, "Q8")


def frobenius21_group() -> GroupTable:
    """The nonabelian group of order 21: Z/7 twisted by the order-3 action a -> 2a."""
    a, b = np.arange(21) % 7, np.arange(21) // 7
    table = (a[:, None] + (2 ** b)[:, None] * a) % 7 + 7 * ((b[:, None] + b) % 3)
    return from_mult_table(table, "Z/7:Z/3")


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    n1, n2 = g1.order, g2.order
    if n1 * n2 > ORDER_CAP:
        raise OrderCapExceeded(f"product order {n1 * n2} exceeds cap {ORDER_CAP}")
    # (a1, a2)(b1, b2) at row a1*n2 + a2, column b1*n2 + b2
    table = g1.mult[:, None, :, None] * n2 + g2.mult[None, :, None, :]
    return from_mult_table(table.reshape(n1 * n2, n1 * n2), f"{g1.name}x{g2.name}")


def semidirect_product(g: GroupTable, tau: InvolutiveAutomorphism) -> GroupTable:
    """Extension of g by the order-2 group acting through tau; order 2*#g.

    Element g + i*#g is the pair (g, tau^i); (g, i)(h, j) = (g*tau^i(h), i+j).
    """
    check_order(g, tau)
    n = g.order
    if 2 * n > ORDER_CAP:
        raise OrderCapExceeded(f"extension order {2 * n} exceeds cap {ORDER_CAP}")
    mult = g.mult
    twisted = mult[:, tau.mapping]  # twisted[a, b] = a * tau(b)
    table = np.block([[mult, mult + n], [twisted + n, twisted]])
    return from_mult_table(table, f"{g.name}:<{tau.label}>")


# named families: those taking one integer parameter, then the parameterless ones
_FAMILIES = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "symmetric": symmetric_group,
    "alternating": alternating_group,
}
_SINGLE = {"quaternion8": quaternion_group, "frobenius21": frobenius21_group}


def catalog(name: str, *params) -> GroupTable:
    """Construct a named group: cyclic n, dihedral n, symmetric n, alternating n,
    quaternion8, frobenius21, direct_product(groups...), semidirect_product(G, tau)."""
    try:
        if name in _FAMILIES:
            try:
                n = int(params[0])
            except ValueError:
                raise BadParameters(f"bad parameter {params[0]!r} for {name}") from None
            return _FAMILIES[name](n)
        if name in _SINGLE:
            if params:
                raise BadParameters(f"{name} takes no parameter")
            return _SINGLE[name]()
        if name == "direct_product":
            groups = list(params)
            if len(groups) < 2:
                raise BadParameters("direct_product needs at least two factors")
            out = groups[0]
            for h in groups[1:]:
                out = direct_product(out, h)
            return out
        if name == "semidirect_product":
            return semidirect_product(params[0], params[1])
    except IndexError:
        raise BadParameters(f"missing parameters for catalog name {name!r}") from None
    raise UnknownName(f"unknown catalog name {name!r}")


# ---------------------------------------------------------------------------
# conjugacy data


def conjugacy_data(group: GroupTable) -> ConjugacyData:
    cached = group.__dict__.get("_conjugacy")
    if cached is not None:
        return cached
    mult, inverse = group.mult, np.array(group.inverse)
    # column g of mult[mult, inverse[:, None]] holds h g h^-1 for every h:
    # the class of g, numbered by its least element and then in that order
    least = mult[mult, inverse[:, None]].min(axis=0)
    is_rep = least == np.arange(group.order)
    reps, class_of = np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[least]
    sizes = np.bincount(class_of).tolist()
    members, ends = np.argsort(class_of, kind="stable").tolist(), np.cumsum(sizes).tolist()
    data = ConjugacyData(
        classes=tuple(tuple(members[e - size:e]) for e, size in zip(ends, sizes)),
        class_of=tuple(class_of.tolist()),
        inverse_class=tuple(class_of[inverse[reps]].tolist()),
        sizes=tuple(sizes),
        representatives=tuple(reps.tolist()),
    )
    object.__setattr__(group, "_conjugacy", data)
    return data


# ---------------------------------------------------------------------------
# linear characters


def subgroup_table(group: GroupTable, elements, name: str | None = None):
    """Reindexed GroupTable on a subgroup plus the embedding into the parent.

    Returns (subgroup, embed) where embed[i] is the parent index of element i.
    """
    embed = tuple(sorted(elements))
    idx = np.array(embed, dtype=np.int64)
    pos = np.full(group.order, -1)
    pos[idx] = np.arange(len(idx))
    table = pos[group.mult[np.ix_(idx, idx)]]
    if (table < 0).any():
        raise BadParameters("element set is not closed under multiplication")
    return from_mult_table(table, name or f"{group.name}|{len(embed)}"), embed


def kernel_subgroup(group: GroupTable, alpha: LinearCharacter):
    return subgroup_table(group, alpha.kernel_elements(), name=f"Ker({alpha.label})")


def linear_characters(group: GroupTable) -> tuple[LinearCharacter, ...]:
    """All homomorphisms into Q(zeta_m)^x, m the group exponent: the
    homomorphisms f: G -> Z/m, alpha(g) = zeta^f(g).

    Every element x is a positive word in the generators s_j of
    _greedy_generators, so f(x) = words[x] . e, where words[x] counts each s_j
    in one such word and e_j = f(s_j).  A tuple e gives a homomorphism exactly
    when f(x s_j) = f(x) + e_j for every x and j (Schreier's lemma; Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005).  The tuples are
    built one generator at a time: e_j runs over the multiples of m / ord(s_j),
    and a partial tuple is kept while every relation on its generators holds.
    """
    cached = group.__dict__.get("_linear_characters")
    if cached is not None:
        return cached
    m, n = group.exponent, group.order
    gens = list(group.generators())
    k = len(gens)
    unit = np.eye(k, dtype=np.int64)
    words = np.zeros((n, k), dtype=np.int64)
    words[gens] = unit
    known = np.zeros(n, dtype=bool)
    known[[0, *gens]] = True
    frontier = np.array(gens, dtype=np.int64)
    # each round takes x f for every known x and every f first reached in the
    # round before; this doubles the length of the words reached, and a new
    # element takes the word of any x f it is
    while len(frontier):
        reach = np.flatnonzero(known)
        products = group.mult[np.ix_(reach, frontier)].ravel()
        source = np.full(n, -1)
        source[products] = np.arange(len(products))
        fresh = np.flatnonzero((source >= 0) & ~known)
        x, f = np.divmod(source[fresh], len(frontier))
        words[fresh] = words[reach[x]] + words[frontier[f]]
        known[fresh] = True
        frontier = fresh
    # the relation r of (x, j) is words[x s_j] - words[x] - unit[j], and r . e = 0
    # (mod m); each is checked once its last generator has a value (a zero one never)
    relations = (words[group.mult[:, gens]] - words[:, None, :] - unit) % m
    # distinct rows through a set: np.unique(axis=0) would import numpy.ma
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
    # a character is real exactly when its values on the generators are
    real = np.flatnonzero((2 * tuples % m == 0).all(axis=1) & tuples.any(axis=1))
    sign = tuple(values[:, real[0]].tolist()) if len(real) == 1 else None
    chars = []
    lin_idx = 0
    for e in pulled:
        if not any(e):
            label = "trivial"
        elif e == sign:
            label = "sign"
        else:
            lin_idx += 1
            label = f"lin{lin_idx}"
        chars.append(LinearCharacter(m, e, label))
    result = tuple(chars)
    object.__setattr__(group, "_linear_characters", result)
    return result


def trivial_character(group: GroupTable) -> LinearCharacter:
    return LinearCharacter(group.exponent, (0,) * group.order, "trivial")


def find_character(group: GroupTable, label: str) -> LinearCharacter:
    chars = linear_characters(group)
    for c in chars:
        if c.label == label:
            return c
    available = ", ".join(c.label for c in chars)
    raise UnknownName(f"no linear character {label!r} on {group.name}; available: {available}")


# ---------------------------------------------------------------------------
# automorphisms


def validate_automorphism(group: GroupTable, mapping, label: str = "tau") -> InvolutiveAutomorphism:
    return _involutive(group, tuple(_index_list(mapping, group.order, label, permutation=True)),
                       label)


def _involutive(group: GroupTable, mapping: tuple[int, ...], label: str) -> InvolutiveAutomorphism:
    """`mapping`, a permutation of the elements, as an InvolutiveAutomorphism;
    NotHomomorphism names the first pair (g, h) in row order where it fails,
    NotInvolutive the first g."""
    f, mult = np.array(mapping), group.mult
    wrong = f[mult] != mult[np.ix_(f, f)]
    if wrong.any():
        raise NotHomomorphism(tuple(np.argwhere(wrong)[0].tolist()), label)
    moved = np.flatnonzero(f[f] != np.arange(group.order))
    if len(moved):
        raise NotInvolutive(int(moved[0]), label)
    return InvolutiveAutomorphism(mapping, label)


def identity_automorphism(group: GroupTable) -> InvolutiveAutomorphism:
    return InvolutiveAutomorphism(tuple(range(group.order)), "id")


def inversion_automorphism(group: GroupTable) -> InvolutiveAutomorphism:
    """g -> g^-1; a homomorphism exactly when the group is abelian."""
    return _involutive(group, group.inverse, "inv")


def conjugation_map(group: GroupTable, h: int) -> tuple[int, ...]:
    """g -> h g h^-1 for every g."""
    return tuple(group.mult[group.mult[h], group.inverse[h]].tolist())


def check_order(group: GroupTable, *maps: LinearCharacter | InvolutiveAutomorphism) -> None:
    """Raise GroupMismatch unless every character or automorphism of `maps`
    is defined on the elements of `group`."""
    for f in maps:
        n = len(f.exponents if isinstance(f, LinearCharacter) else f.mapping)
        if n != group.order:
            raise GroupMismatch(f"{f.label} is defined on a group of order {n}, "
                                f"not on {group.name} of order {group.order}")


def check_character(group: GroupTable, alpha: LinearCharacter) -> None:
    """Raise unless `alpha` is a linear character of `group`: GroupMismatch
    for another order, ConductorMismatch for a conductor other than the group
    exponent, and NotHomomorphism, naming a pair (x, s), where f(x s) !=
    f(x) + f(s) (mod m) for some s of group.generators().  Every element is a
    positive word in those, so n * k lookups decide it exactly."""
    check_order(group, alpha)
    if alpha.conductor != group.exponent:
        raise ConductorMismatch(f"alpha has conductor {alpha.conductor}, the group exponent "
                                f"{group.exponent}")
    gens = list(group.generators())
    f = np.array(alpha.exponents)
    wrong = (f[group.mult[:, gens]] - f[:, None] - f[gens]) % group.exponent
    if wrong.any():
        x, j = np.argwhere(wrong)[0].tolist()
        raise NotHomomorphism((x, gens[j]), alpha.label)


def alpha_tau_compatible(alpha: LinearCharacter, tau: InvolutiveAutomorphism) -> bool:
    return all(alpha.exponents[tau.mapping[g]] == alpha.exponents[g]
               for g in range(len(tau.mapping)))


# ---------------------------------------------------------------------------
# parsing / IO


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BadParameters(f"{path}: invalid JSON ({exc})") from None


def group_from_json(data: dict) -> GroupTable:
    if not isinstance(data, dict):
        raise BadParameters("group JSON must be an object with a 'table' or 'generators' field")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise BadParameters(f"group JSON 'name' must be a string, got {type(name).__name__}")
    if "table" in data:
        return from_mult_table(data["table"], name)
    if "generators" in data:
        return from_permutation_generators(data["generators"], name)
    raise BadParameters("group JSON needs a 'table' or 'generators' field")


def load_tau(group: GroupTable, spec: str) -> InvolutiveAutomorphism:
    """Resolve a tau spec: id, inv, or a JSON file (optionally prefixed with
    @ or auto:) listing the image of every element, labelled by its stem."""
    if spec == "id":
        return identity_automorphism(group)
    if spec == "inv":
        return inversion_automorphism(group)
    path = spec[1:] if spec.startswith("@") else spec
    if spec.startswith("auto:"):
        path = spec[len("auto:"):].lstrip("@")
    return validate_automorphism(group, _read_json(path), label=Path(path).stem)


def parse_group_spec(spec: str) -> GroupTable:
    """Resolve a CLI group spec: catalog names, product/semidirect syntax, or
    a JSON file (path ending in .json, optionally prefixed with @)."""
    spec = spec.strip()
    if spec.startswith("product:"):
        parts = spec[len("product:"):].split(",")
        return catalog("direct_product", *[parse_group_spec(p) for p in parts])
    if spec.startswith("semidirect:"):
        body = spec[len("semidirect:"):]
        if "," not in body:
            raise BadParameters("semidirect spec needs '<group>,<tau>'")
        gspec, tspec = body.rsplit(",", 1)
        g = parse_group_spec(gspec)
        return semidirect_product(g, load_tau(g, tspec))
    if spec.startswith("@") or spec.endswith(".json"):
        path = spec[1:] if spec.startswith("@") else spec
        return group_from_json(_read_json(path))
    name, _, arg = spec.partition(":")
    if name in _FAMILIES or name in _SINGLE:
        return catalog(name, *([arg] if arg else []))
    raise UnknownName(f"unrecognized group spec {spec!r}")
