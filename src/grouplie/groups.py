"""Finite groups as dense multiplication tables.

Elements are indices 0..n-1 with the identity normalized to 0.  The module
provides validated constructors, a catalog of standard groups, conjugacy
data, linear characters (as homomorphisms into Z/m, fixed by their values
on a generating set) and validated involutive automorphisms.
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


@dataclass(frozen=True)
class GroupTable:
    """A finite group: multiplication table plus derived element data."""

    name: str
    order: int
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    exponent: int
    identity: int = 0

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mult[self.mult[h][g]][self.inverse[h]]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mult[x][g]
            k += 1
        return k

    def is_abelian(self) -> bool:
        cached = self.__dict__.get("_abelian")
        if cached is None:
            cached = all(
                self.mult[a][b] == self.mult[b][a]
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
            object.__setattr__(self, "_abelian", cached)
        return cached

    def mult_array(self) -> np.ndarray:
        """The multiplication table as one read-only int64 array, built on
        first use and shared."""
        cached = self.__dict__.get("_mult_array")
        if cached is None:
            cached = np.array(self.mult, dtype=np.int64).reshape(self.order, self.order)
            cached.setflags(write=False)
            object.__setattr__(self, "_mult_array", cached)
        return cached

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
    """Validate a multiplication table and normalize the identity to index 0."""
    if not isinstance(table, (list, tuple)):
        raise BadParameters(f"multiplication table must be a list of rows, "
                            f"not {type(table).__name__}")
    n = len(table)
    if n == 0:
        raise BadParameters("empty multiplication table")
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"order {n} exceeds cap {ORDER_CAP}")
    rows = [_index_list(r, n, f"multiplication table row {a}") for a, r in enumerate(table)]

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    if identity != 0:
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        rows = [[perm[rows[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
        identity = 0

    arr = np.array(rows, dtype=np.int64)
    for a in _greedy_generators(rows):
        left = arr[arr[:, a]]           # left[x, y] = (x*a)*y
        right = arr[:, arr[a]]          # right[x, y] = x*(a*y)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise NotAssociative((x, a, y))

    inverse = []
    for g in range(n):
        inv = next((h for h in range(n) if rows[g][h] == 0 and rows[h][g] == 0), None)
        if inv is None:
            raise NoInverse(g)
        inverse.append(inv)

    mult = tuple(tuple(r) for r in rows)
    group = GroupTable(name, n, mult, tuple(inverse), 1)
    exponent = 1
    for g in range(n):
        exponent = math.lcm(exponent, group.element_order(g))
    return GroupTable(name, n, mult, tuple(inverse), exponent)


def _greedy_generators(rows) -> list[int]:
    """Elements whose left-normed products (((e*a1)*a2)*...) reach every element.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    1.2): the a with (x*a)*y == x*(a*y) for all x, y are closed under the
    product, so checking a generating set decides associativity exactly.  Each
    new generator lies outside the current closure, which in a group at least
    doubles it, so a group of order n takes at most log2(n) of them.
    """
    n = len(rows)
    gens: list[int] = []
    reached = [True] + [False] * (n - 1)
    frontier = [0]
    while True:
        while frontier:
            x = frontier.pop()
            for a in gens:
                y = rows[x][a]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
        if all(reached):
            return gens
        gens.append(reached.index(False))
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
    return from_mult_table(order[pos].tolist(), name)


def cyclic_group(n: int) -> GroupTable:
    if not 1 <= n <= ORDER_CAP:
        raise BadParameters(f"cyclic order {n} out of range")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return from_mult_table(table, f"Z/{n}")


def dihedral_group(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n; element i + n*j is r^i s^j."""
    if n < 3 or 2 * n > ORDER_CAP:
        raise BadParameters(f"dihedral parameter {n} out of range (need 3 <= n)")
    size = 2 * n

    def mul(a, b):
        i1, j1 = a % n, a // n
        i2, j2 = b % n, b // n
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return i + n * ((j1 + j2) % 2)

    table = [[mul(a, b) for b in range(size)] for a in range(size)]
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
    encode = {(s, b): idx for idx, (s, b) in units.items()}

    def mul(a, b):
        sa, ba = units[a]
        sb, bb = units[b]
        s, base = prod[(ba, bb)]
        return encode[(sa * sb * s, base)]

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return from_mult_table(table, "Q8")


def frobenius21_group() -> GroupTable:
    """The nonabelian group of order 21: Z/7 twisted by the order-3 action a -> 2a."""
    def mul(x, y):
        a1, b1 = x % 7, x // 7
        a2, b2 = y % 7, y // 7
        return (a1 + pow(2, b1, 7) * a2) % 7 + 7 * ((b1 + b2) % 3)

    table = [[mul(x, y) for y in range(21)] for x in range(21)]
    return from_mult_table(table, "Z/7:Z/3")


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    n1, n2 = g1.order, g2.order
    if n1 * n2 > ORDER_CAP:
        raise OrderCapExceeded(f"product order {n1 * n2} exceeds cap {ORDER_CAP}")
    table = [
        [g1.mult[a1][b1] * n2 + g2.mult[a2][b2]
         for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1) for a2 in range(n2)
    ]
    return from_mult_table(table, f"{g1.name}x{g2.name}")


def semidirect_product(g: GroupTable, tau: InvolutiveAutomorphism) -> GroupTable:
    """Extension of g by the order-2 group acting through tau; order 2*#g.

    Element g + i*#g is the pair (g, tau^i); (g, i)(h, j) = (g*tau^i(h), i+j).
    """
    n = g.order
    if 2 * n > ORDER_CAP:
        raise OrderCapExceeded(f"extension order {2 * n} exceeds cap {ORDER_CAP}")

    def mul(x, y):
        a, i = x % n, x // n
        b, j = y % n, y // n
        bb = b if i == 0 else tau.mapping[b]
        return g.mult[a][bb] + n * ((i + j) % 2)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
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
    n = group.order
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = sorted({group.conjugate(h, g) for h in range(n)})
        idx = len(classes)
        for x in orbit:
            class_of[x] = idx
        classes.append(tuple(orbit))
    reps = tuple(c[0] for c in classes)
    inverse_class = tuple(class_of[group.inverse[r]] for r in reps)
    sizes = tuple(len(c) for c in classes)
    data = ConjugacyData(
        classes=tuple(classes),
        class_of=tuple(class_of),
        inverse_class=inverse_class,
        sizes=sizes,
        representatives=reps,
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
    pos = {g: i for i, g in enumerate(embed)}
    table = []
    for a in embed:
        row = []
        for b in embed:
            c = group.mult[a][b]
            if c not in pos:
                raise BadParameters("element set is not closed under multiplication")
            row.append(pos[c])
        table.append(row)
    sub = from_mult_table(table, name or f"{group.name}|{len(embed)}")
    return sub, embed


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
    gens = _greedy_generators(group.mult)
    k = len(gens)
    unit = np.eye(k, dtype=np.int64)
    words = np.zeros((n, k), dtype=np.int64)
    reached = [True] + [False] * (n - 1)
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for j, s in enumerate(gens):
            y = group.mult[x][s]
            if not reached[y]:
                reached[y] = True
                words[y] = words[x] + unit[j]
                frontier.append(y)
    # the relation r of (x, j) is words[x s_j] - words[x] - unit[j], and r . e = 0
    # (mod m); each is checked once its last generator has a value (a zero one never)
    relations = (words[group.mult_array()[:, gens]] - words[:, None, :] - unit) % m
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
    n = group.order
    mapping = tuple(_index_list(mapping, n, label, permutation=True))
    for g in range(n):
        for h in range(n):
            if mapping[group.mult[g][h]] != group.mult[mapping[g]][mapping[h]]:
                raise NotHomomorphism((g, h), label)
    for g in range(n):
        if mapping[mapping[g]] != g:
            raise NotInvolutive(g, label)
    return InvolutiveAutomorphism(mapping, label)


def identity_automorphism(group: GroupTable) -> InvolutiveAutomorphism:
    return InvolutiveAutomorphism(tuple(range(group.order)), "id")


def inversion_automorphism(group: GroupTable) -> InvolutiveAutomorphism:
    """g -> g^-1; a homomorphism exactly when the group is abelian."""
    return validate_automorphism(group, group.inverse, "inv")


def conjugation_map(group: GroupTable, h: int) -> tuple[int, ...]:
    return tuple(group.conjugate(h, g) for g in group.elements())


def check_order(group: GroupTable, *maps: LinearCharacter | InvolutiveAutomorphism) -> None:
    """Raise GroupMismatch unless every character or automorphism of `maps`
    is defined on the elements of `group`."""
    for f in maps:
        n = len(f.exponents if isinstance(f, LinearCharacter) else f.mapping)
        if n != group.order:
            raise GroupMismatch(f"{f.label} is defined on a group of order {n}, "
                                f"not on {group.name} of order {group.order}")


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
