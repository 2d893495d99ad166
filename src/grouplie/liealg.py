"""Group algebra arithmetic over Q(zeta_m) and the twisted skew subalgebra.

The involutive antiautomorphism g -> alpha(g) tau(g)^-1 extends linearly to
the group algebra; its -1 eigenspace is a Lie subalgebra, spanned by the
elements g - alpha(g) tau(g)^-1.  This module builds that basis exactly,
together with the +1 eigenspace and the center generators.

An element is the dict {g: coefficient} of its nonzero coefficients.  The
products iterate over these terms only, so they cost what the supports
cost, not what |G| costs.  bracket forms each a_x b_y once, and
trace_of_product reads only the identity coefficient of a product.

Every coefficient of a spanning vector, a +1 eigenvector or a skew class-sum
combination is 1, +-zeta^e or 1 +- zeta^e, so these vectors are written
directly with values read from the per-conductor tuples
CycloContext.root_values, with no scalar arithmetic.

Every row whose rank or membership the verifier decides lies in one orbit
block of sigma: g -> tau(g)^-1, the pair {g, sigma(g)} for a spanning,
Clifford or kernel vector and the pair of classes {c, sigma(c)} for a
center candidate.  So block_spans, the one rank and membership kernel,
groups the rows by block (Blocks) and decides each block of at most two
rows by one 2x2 minor u_a v_b - u_b v_a, an exact sum of monomial products
with no division and no scalar arithmetic; linalg.RowSpace is its test
oracle.

The verifier's pair checks (closure, centrality, trace-form orthogonality)
run as one exact integer kernel, skew_checks, with bracket,
trace_of_product and RowSpace.contains as its oracles; closure reduces each
bracket against the basis row of every block it touches.  Each coefficient
becomes monomials c*zeta^k.  A value +-zeta^k, which is every coefficient of
those vectors except 1 -+ alpha(g) at a fixed point, is one monomial, looked
up in CycloContext.signed_roots; any other algebraic integer expands into
its power-basis terms.  A product of two monomials is a multiplication-table
lookup and a sum of exponents; the kernel sums the products per (pair,
position) in int64, in batches of about BATCH_SIZE products, and checks
that every sum is zero in Q(zeta_m); block_spans tests its minors with the
same zero test (_Batch).  Every sum is bounded below 2^63 before it is
formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import cyclo
from .errors import (
    BadParameters,
    ConductorMismatch,
    GroupMismatch,
    IncompatiblePair,
    InvariantViolated,
    OrbitBlockViolated,
)
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    alpha_tau_compatible,
    check_character,
    check_order,
    conjugacy_data,
    identity_automorphism,
)


class GroupAlgebraElement:
    """Element of the group algebra as {g: coefficient}; a missing key is
    zero, and the constructor drops zero values, so equal elements have
    equal dicts."""

    __slots__ = ("group", "terms")

    def __init__(self, group: GroupTable, terms: dict):
        self.group = group
        self.terms = {g: c for g, c in terms.items() if c}

    @classmethod
    def delta(cls, group: GroupTable, g: int) -> "GroupAlgebraElement":
        return cls(group, {g: cyclo.context(group.exponent).one})

    def _check(self, other: "GroupAlgebraElement"):
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatch("elements live over different groups")

    def support(self):
        return sorted(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for g, b in other.terms.items():
            a = out.get(g)
            out[g] = b if a is None else a + b
        return GroupAlgebraElement(self.group, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return GroupAlgebraElement(self.group, {g: -c for g, c in self.terms.items()})

    def scaled(self, s) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.group, {g: c * s for g, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def trace(self) -> cyclo.CycloScalar:
        """Coefficient of the identity."""
        return self.terms.get(self.group.identity, cyclo.context(self.group.exponent).zero)

    def __repr__(self):
        terms = [f"({self.terms[g]})*d{g}" for g in self.support()]
        return " + ".join(terms) if terms else "0"


def convolve(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """The product a*b, summed over the terms a_x and b_y only."""
    a._check(b)
    mult = a.group.mult
    zero = cyclo.context(a.group.exponent).zero
    out = {}
    b_terms = b.terms.items()
    for x, ax in a.terms.items():
        row = mult[x]
        for y, by in b_terms:
            z = row[y]
            out[z] = out.get(z, zero) + ax * by
    return GroupAlgebraElement(a.group, out)


def bracket(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """[a, b] = a*b - b*a in one pass: each a_x b_y is formed once, added at
    xy and subtracted at yx; a commuting pair (xy == yx) contributes nothing."""
    a._check(b)
    mult = a.group.mult
    zero = cyclo.context(a.group.exponent).zero
    out = {}
    b_terms = b.terms.items()
    for x, ax in a.terms.items():
        row = mult[x]
        for y, by in b_terms:
            xy = row[y]
            yx = mult[y][x]
            if xy != yx:
                p = ax * by
                out[xy] = out.get(xy, zero) + p
                out[yx] = out.get(yx, zero) - p
    return GroupAlgebraElement(a.group, out)


def trace_of_product(a: GroupAlgebraElement, b: GroupAlgebraElement) -> cyclo.CycloScalar:
    """The identity coefficient of a*b, sum over x of a_x b_(x^-1), without
    forming the product."""
    a._check(b)
    inverse = a.group.inverse
    b_terms = b.terms
    total = cyclo.context(a.group.exponent).zero
    for x, ax in a.terms.items():
        by = b_terms.get(inverse[x])
        if by is not None:
            total = total + ax * by
    return total


@dataclass(frozen=True)
class LieContext:
    """Validated (group, alpha, tau) triple; alpha must absorb tau."""

    group: GroupTable
    alpha: LinearCharacter
    tau: InvolutiveAutomorphism

    def __post_init__(self):
        check_character(self.group, self.alpha)
        check_order(self.group, self.tau)
        if not alpha_tau_compatible(self.alpha, self.tau):
            raise IncompatiblePair(
                f"alpha({self.alpha.label}) o tau({self.tau.label}) != alpha; "
                "the antiautomorphism would not be involutive"
            )
        # sigma(g) = tau(g)^-1 is the basis involution underlying the star map
        sigma = tuple(self.group.inverse[t] for t in self.tau.mapping)
        object.__setattr__(self, "sigma", sigma)

    def __str__(self):
        return f"({self.group.name}, {self.alpha.label}, {self.tau.label})"


def make_context(group: GroupTable, alpha: LinearCharacter,
                 tau: InvolutiveAutomorphism | None = None) -> LieContext:
    return LieContext(group, alpha, tau if tau is not None else identity_automorphism(group))


def star(ctx: LieContext, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The involutive antiautomorphism delta_g -> alpha(g) delta_(tau(g)^-1)."""
    sigma = ctx.sigma
    value = ctx.alpha.value
    return GroupAlgebraElement(ctx.group, {sigma[g]: value(g) * c for g, c in a.terms.items()})


def census_dimension(ctx: LieContext) -> int:
    """Dimension of the skew subalgebra by counting orbits of g -> tau(g)^-1:

    half the moved points, plus fixed points where alpha(g) != 1.
    """
    moved = sum(1 for g in ctx.group.elements() if ctx.sigma[g] != g)
    fixed_nontrivial = sum(
        1 for g in ctx.group.elements()
        if ctx.sigma[g] == g and ctx.alpha.exponents[g] != 0
    )
    if moved % 2:
        raise InvariantViolated(f"g -> tau(g)^-1 moves an odd number ({moved}) of elements")
    return moved // 2 + fixed_nontrivial


@dataclass(frozen=True)
class LieBasis:
    """Spanning vectors g - alpha(g) tau(g)^-1, one per orbit of the star map."""

    context: LieContext
    vectors: tuple[GroupAlgebraElement, ...]

    @cached_property
    def blocks(self) -> "Blocks":
        """The vectors grouped by sigma-orbit block, built on first use."""
        return Blocks([v.terms for v in self.vectors], self.context.sigma)

    @cached_property
    def independent(self) -> tuple[bool, ...]:
        """Per vector, whether it is nonzero and outside the span of the
        earlier vectors of its block; decided by block_spans' kernel on first
        use."""
        flags, _ = _independent([self.blocks], cyclo.context(self.context.group.exponent))
        return tuple(flags[0])

    @property
    def rank(self) -> int:
        return sum(self.independent)


def _orbit_vectors(ctx: LieContext, sign: int):
    """Yield delta_g + sign * alpha(g) delta_sigma(g), one per orbit of sigma
    on which it is nonzero, with g the orbit's least element; the partner's
    vector is proportional.

    Every coefficient is 1, sign * zeta^e or, at a fixed point,
    1 + sign * zeta^e, read from CycloContext.root_values."""
    group = ctx.group
    sigma = ctx.sigma
    exponents = ctx.alpha.exponents
    values = cyclo.context(group.exponent)
    one, moved, fixed = values.one, values.root_values[0, sign], values.root_values[1, sign]
    seen = set()
    for g in group.elements():
        if g in seen:
            continue
        s = sigma[g]
        seen.update((g, s))
        e = exponents[g]
        v = GroupAlgebraElement(group, {g: fixed[e]} if s == g else {g: one, s: moved[e]})
        if v.terms:  # empty only at a fixed point with alpha(g) = -sign
            yield v


def lie_basis(ctx: LieContext) -> LieBasis:
    vectors = tuple(_orbit_vectors(ctx, -1))
    census = census_dimension(ctx)
    if len(vectors) != census:
        raise InvariantViolated(f"{len(vectors)} spanning vectors but census dimension {census}")
    return LieBasis(ctx, vectors)


def plus_fixed_basis(ctx: LieContext) -> list[GroupAlgebraElement]:
    """Basis of the +1 eigenspace of the star map."""
    return list(_orbit_vectors(ctx, 1))


def sigma_class_map(ctx: LieContext) -> tuple[int, ...]:
    """Class-level involution c -> class of tau(rep)^-1."""
    cd = conjugacy_data(ctx.group)
    return tuple(cd.class_of[ctx.sigma[r]] for r in cd.representatives)


def center_candidates(ctx: LieContext):
    """Yield (c, sigma(c), T_c - alpha(c) T_(sigma c)) for every class c where
    the combination can be nonzero, i.e. unless c is sigma-fixed with alpha(c) = 1.

    A sigma-orbit {c, sigma(c)} yields proportional candidates.  The terms
    are written directly: 1 on c and -alpha(c) on sigma(c), or 1 - alpha(c)
    on a sigma-fixed c, read from CycloContext.root_values.
    """
    group = ctx.group
    cd = conjugacy_data(group)
    sig = sigma_class_map(ctx)
    values = cyclo.context(group.exponent)
    one, moved, fixed = values.one, values.root_values[0, -1], values.root_values[1, -1]
    for c in range(cd.num_classes):
        sc = sig[c]
        e = ctx.alpha.exponents[cd.representatives[c]]
        if sc == c:
            if e == 0:
                continue
            terms = dict.fromkeys(cd.classes[c], fixed[e])
        else:
            terms = dict.fromkeys(cd.classes[c], one)
            terms.update(dict.fromkeys(cd.classes[sc], moved[e]))
        yield c, sc, GroupAlgebraElement(group, terms)


def center_basis(candidates) -> list[GroupAlgebraElement]:
    """Skew class-sum combinations T_c - alpha(c) T_(sigma c), one per orbit,
    from the center_candidates of a context."""
    seen = set()
    out = []
    for c, sc, v in candidates:
        if c not in seen:
            seen.update((c, sc))
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# closure, centrality and orthogonality as one exact integer kernel

# products per batch: the batches bound the kernel's memory on large contexts
BATCH_SIZE = 1000


class SkewChecks(NamedTuple):
    """The verdicts of skew_checks."""

    closure: bool
    centrality: bool
    orthogonality: bool


def monomials(owned_terms, ctx: cyclo.CycloContext) -> np.ndarray:
    """int64 array (4, t), one column (owner, g, c, k) per monomial c*zeta^k
    of x, for every (owner, {g: x}) of `owned_terms`.

    A value +-zeta^k is one monomial, looked up in ctx.signed_roots; any other
    value expands into its power-basis terms, which must be integers.
    """
    roots = ctx.signed_roots
    out = []
    big = 1
    for owner, terms in owned_terms:
        for g, x in terms.items():
            if x.ctx is not ctx and x.ctx.m != ctx.m:
                raise ConductorMismatch(f"mixed conductors {ctx.m} and {x.ctx.m}")
            hit = roots.get(x.coeffs)
            if hit is not None:
                out += (owner, g, *hit)
                continue
            for k, a in enumerate(x.coeffs):
                if a:
                    if type(a) is not int:
                        if a.denominator != 1:
                            raise InvariantViolated(
                                f"coefficient {x!r} of vector {owner} at {g} is not an algebraic integer")
                        a = a.numerator
                    big = max(big, abs(a))
                    out += (owner, g, a, k)
    cyclo.check_int64_bound(big, "monomial coefficients")
    return np.array(out, dtype=np.int64).reshape(-1, 4).T


def _runs(owner: np.ndarray, size: int) -> list[slice]:
    """Slices of a nondecreasing `owner` of at most `size` entries each,
    except a single longer run, that never split a run of equal owners."""
    n = len(owner)
    out, lo, prev = [], 0, 0
    if n > size:
        for cut in (np.flatnonzero(np.diff(owner)) + 1).tolist() + [n]:
            if cut - lo > size and prev > lo:
                out.append(slice(lo, prev))
                lo = prev
            prev = cut
    out.append(slice(lo, n))
    return out


def _starts(x: np.ndarray) -> np.ndarray:
    """The indices where a sorted `x` starts a run of equal values."""
    new = np.empty(len(x), dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return np.flatnonzero(new)


class _Batch:
    """Terms c*zeta^k at (slot, column) gathered over several checks; each
    check owns a range of slots, and fails when the sum at one of its
    (slot, column) pairs is not zero in Q(zeta_m).  `nonzero` marks every
    slot with such a sum, and `failed` every check that owns one.

    For even m, zeta^(m/2) = -1, so a term is first folded to an exponent
    below m/2 with its sign flipped when it wraps; a sum that cancels only
    through that relation then cancels before the reduction.
    """

    def __init__(self, ctx: cyclo.CycloContext, order: int, slots: list[int]):
        self.m = ctx.m
        self.period = ctx.m // 2 if ctx.m % 2 == 0 else ctx.m
        self.order = order
        self.powers = ctx.power_array[:self.period]
        self.offsets = np.cumsum([0] + slots)
        self.failed = [False] * len(slots)
        self.nonzero = np.zeros(self.offsets[-1], dtype=bool)
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []
        self.size = 0

    def add(self, check: int, slot, column, c, k) -> None:
        k = k % self.m
        if self.period < self.m:
            c = np.where(k < self.period, c, -c)
            k = k % self.period
        key = ((slot + self.offsets[check]) * self.order + column) * self.period + k
        self.keys.append(key)
        self.values.append(c)
        self.size += len(key)
        if self.size >= BATCH_SIZE:
            self.flush()

    def flush(self) -> None:
        if not self.size:
            return
        keys = np.concatenate(self.keys)
        values = np.concatenate(self.values)
        self.keys, self.values, self.size = [], [], 0
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
        # the sum per (slot, column, power of zeta), then its nonzero ones
        # per (slot, column) in canonical coordinates
        first = _starts(keys)
        sums = np.add.reduceat(values, first)
        nonzero = np.flatnonzero(sums)
        if not nonzero.size:
            return
        position, power = np.divmod(keys[first[nonzero]], self.period)
        coords = sums[nonzero, None] * self.powers[power]
        first = _starts(position)
        bad = np.add.reduceat(coords, first, axis=0).any(axis=1)
        slots = position[first[bad]] // self.order
        self.nonzero[slots] = True
        for check in set(np.searchsorted(self.offsets, slots, side="right").tolist()):
            self.failed[check - 1] = True


def _sum_bound(left: np.ndarray, right: np.ndarray, factor: int, what: str) -> None:
    """Raise IntegerBoundExceeded unless `factor` times the largest sum of
    |products| of one left and one right vector's monomials stays below
    2^63; `factor` covers the products per monomial pair, the closure's
    pivot rows and the reduction to canonical coordinates."""
    def most(x):
        return int(np.bincount(x[0]).max()) * cyclo.max_abs(x[2]) if x.size else 0
    cyclo.check_int64_bound(factor * most(left) * most(right), what)


# ---------------------------------------------------------------------------
# rank and membership per sigma-orbit block


class Blocks:
    """Sparse rows {column: value} grouped by the orbit {z, sigma[z]} of the
    involution `sigma` that holds each row's nonzero entries: `groups` maps
    the least column of each orbit to the indices of its nonzero rows.  A
    row that crosses two orbits raises OrbitBlockViolated.

    Blocks of one sigma add up to the blocks of both row lists, the rows of
    the second numbered after those of the first, with no row regrouped.
    """

    __slots__ = ("rows", "sigma", "groups")

    def __init__(self, rows, sigma, groups: dict[int, list[int]] | None = None):
        self.rows = list(rows)
        self.sigma = sigma
        if groups is None:
            groups = {}
            for r, row in enumerate(self.rows):
                blocks = {min(z, sigma[z]) for z, x in row.items() if x}
                if len(blocks) == 1:
                    groups.setdefault(blocks.pop(), []).append(r)
                elif blocks:
                    _block(row, sigma, "row", r)
        self.groups = groups

    def __add__(self, other: "Blocks") -> "Blocks":
        if other.sigma != self.sigma:
            raise BadParameters("blocks of two different involutions do not add")
        n = len(self.rows)
        groups = {b: list(g) for b, g in self.groups.items()}
        for b, g in other.groups.items():
            groups.setdefault(b, []).extend(r + n for r in g)
        return Blocks(self.rows + other.rows, self.sigma, groups)


class BlockSpans(NamedTuple):
    """The answers of block_spans."""

    ranks: list[int]
    contains: list[bool]


def _name(z: int, sigma) -> str:
    return f"{{{z}}}" if sigma[z] == z else f"{{{z}, {sigma[z]}}}"


def _block(row: dict, sigma, kind: str, index: int):
    """The least column of the orbit {z, sigma[z]} that holds every nonzero
    entry of `row`, or None for a zero row; `kind` and `index` name the row."""
    blocks = {min(z, sigma[z]) for z, x in row.items() if x}
    if len(blocks) > 1:
        a, b = sorted(blocks)[:2]
        raise OrbitBlockViolated(f"{kind} {index} crosses the blocks {_name(a, sigma)} and "
                                 f"{_name(b, sigma)}")
    return blocks.pop() if blocks else None


def _nonzero_minors(pairs, ctx: cyclo.CycloContext) -> list[bool]:
    """Whether u_a v_b - u_b v_a != 0 in Q(zeta_m), for each (u, v, a) of
    `pairs`: two sparse rows on one orbit {a, b} of columns, a its least.
    On an orbit of one column the minor is 0.

    Each minor is the sum of the products of the monomials (`monomials`) of
    u_a and v_b, minus those of u_b and v_a, and _Batch tells which sums are
    not zero; every sum is bounded below 2^63 before it is formed.  A row
    that several pairs share is encoded once.
    """
    if not pairs:
        return []
    index: dict[int, int] = {}
    rows, at = [], []
    for pair in pairs:
        for row in pair[:2]:
            r = index.get(id(row))
            if r is None:
                r = index[id(row)] = len(rows)
                rows.append(row)
            at.append(r)
    mono = monomials(enumerate(rows), ctx)
    batch = _Batch(ctx, 1, [len(pairs)])
    _sum_bound(mono, mono, cyclo.max_abs(batch.powers), "block minor")
    # every monomial of u against every monomial of v, per pair
    start = np.searchsorted(mono[0], np.arange(len(rows) + 1))
    at = np.array(at)
    u, v, low = at[0::2], at[1::2], np.array([p[2] for p in pairs])
    nv = start[v + 1] - start[v]
    size = (start[u + 1] - start[u]) * nv
    pair = np.repeat(np.arange(len(pairs)), size)
    offset = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size)
    i = start[u][pair] + offset // nv[pair]
    j = start[v][pair] + offset % nv[pair]
    # u_a v_b counts +, u_b v_a counts -, and u_a v_a, u_b v_b not at all
    u_low = mono[1, i] == low[pair]
    keep = u_low != (mono[1, j] == low[pair])
    i, j = i[keep], j[keep]
    c = np.where(u_low[keep], mono[2, i], -mono[2, i]) * mono[2, j]
    batch.add(0, pair[keep], 0, c, mono[3, i] + mono[3, j])
    batch.flush()
    return batch.nonzero.tolist()


def _independent(spaces: list[Blocks], ctx: cyclo.CycloContext, queries=()):
    """(per row of each space, whether it is nonzero and outside the span of
    the earlier rows of its block; per query (i, row), whether row is
    nonzero and outside the span of the rows of spaces[i] in its block).

    A block holds at most two rows, a query counted as one, so the second
    row (or the query) is outside the span of the first exactly when their
    minor is not zero (_nonzero_minors); a fuller block raises
    OrbitBlockViolated.
    """
    flags = [[False] * len(space.rows) for space in spaces]
    tests = []
    for i, space in enumerate(spaces):
        for b, group in space.groups.items():
            if len(group) > 2:
                raise OrbitBlockViolated(f"block {_name(b, space.sigma)} of space {i} holds "
                                         f"{len(group)} rows: {group}")
            flags[i][group[0]] = True
            if len(group) == 2:
                rows = space.rows
                tests.append((flags[i], group[1], rows[group[0]], rows[group[1]], b))
    found = []
    for q, (i, row) in enumerate(queries):
        space = spaces[i]
        b = _block(row, space.sigma, "query", q)
        group = space.groups.get(b, ())
        if len(group) > 1:
            raise OrbitBlockViolated(f"block {_name(b, space.sigma)} of space {i} holds rows "
                                     f"{group} and query {q}")
        found.append(b is not None and not group)
        if group:
            tests.append((found, q, space.rows[group[0]], row, b))
    minors = _nonzero_minors([test[2:] for test in tests], ctx)
    for (target, index, *_), nonzero in zip(tests, minors):
        target[index] = nonzero
    return flags, found


def block_spans(spaces: list[Blocks], ctx: cyclo.CycloContext, queries=()) -> BlockSpans:
    """The rank of each space of `spaces`, sparse rows over Q(zeta_m) grouped
    into Blocks, and for each query (i, row) whether row lies in the span of
    spaces[i], all decided exactly, per orbit block, in one array pass.

    Every row lies in one orbit of its space's involution sigma: a Lie
    basis vector, a Clifford or kernel row in {g, sigma(g)}, a center
    candidate in class coordinates in {c, sigma(c)}.  The rank of a space is
    the sum of its blocks' ranks, and a block of two rows u, v on columns
    a < b has rank 2 exactly when u_a v_b - u_b v_a != 0; a query lies in a
    space when it is zero or adds nothing to the rank of its block.  There
    is no division and no scalar arithmetic.  A row that crosses two blocks,
    or a block with more than two rows (a query counted as one), raises
    OrbitBlockViolated.
    """
    flags, found = _independent(spaces, ctx, queries)
    return BlockSpans([sum(f) for f in flags], [not f for f in found])


def _pivot_map(lie: np.ndarray, independent: np.ndarray, sigma):
    """What reducing by the basis rows does to one term at each column z,
    per sigma-orbit block, as the monomials (target column, c, k) in
    columns start[z]:start[z + 1] of the returned array; `lie` holds the
    basis monomials and `independent` the flags of its rows (_independent).

    In a block {a, b}, a < b, with one independent row r, a vector w lies in
    the span exactly when the minor r_a w_b - r_b w_a is zero, and that
    minor goes to column b: a term at b is multiplied by r_a, and a term at
    a by -r_b.  For a Lie basis r_a = 1, so this is the row reduction that
    clears pivot a.  A block that its rows span (two independent rows, or
    one on a fixed column) clears its terms, and a term in a block with no
    row stays, times 1.
    """
    order = len(sigma)
    sig = np.array(sigma, dtype=np.int64)
    cols = np.arange(order)
    low = np.minimum(cols, sig)
    rows = lie[:, independent[lie[0]]]
    # the independent rows of each column's block
    count = np.bincount(low[rows[1, _starts(rows[0])]], minlength=order)[low]
    kept = cols[count == 0]
    kept = np.stack([kept, kept, np.ones_like(kept), np.zeros_like(kept)])
    one = rows[:, (count[rows[1]] == 1) & (sig[rows[1]] != rows[1])]
    at, other = one[1], sig[one[1]]
    moved = np.stack([other, np.maximum(at, other), np.where(at < other, one[2], -one[2]),
                      one[3]])
    both = np.concatenate([kept, moved], axis=1)
    both = both[:, np.argsort(both[0], kind="stable")]
    return np.searchsorted(both[0], np.arange(order + 1)), both[1:]


def _bracket_terms(left: np.ndarray, right: np.ndarray, a: np.ndarray, b: np.ndarray,
                   mult: np.ndarray):
    """(left owner, right owner, column, c, k) of the terms of [x, y] for the
    monomial pairs (a, b), whose elements must not commute: c*zeta^k at xy
    and -c*zeta^k at yx."""
    x, y = left[1, a], right[1, b]
    c = left[2, a] * right[2, b]
    k = left[3, a] + right[3, b]
    return (np.tile(left[0, a], 2), np.tile(right[0, b], 2),
            np.concatenate([mult[x, y], mult[y, x]]), np.concatenate([c, -c]), np.tile(k, 2))


def skew_checks(basis: LieBasis, center, plus) -> SkewChecks:
    """The closure, centrality and orthogonality checks of one context as one
    exact integer batch:

    - closure: every bracket of two basis vectors lies in their span;
    - centrality: [v, u] = 0 for every v in `center` and u in the basis;
    - orthogonality: t(u*s) = 0 for every u in the basis and s in `plus`.

    Every coefficient becomes integer monomials c*zeta^k (`monomials`).  A
    product of two monomials is a lookup in the multiplication table and a
    sum of exponents; a pair with xy == yx contributes nothing to a bracket.
    A closure term is reduced against the basis row of its sigma-orbit
    block (_pivot_map), so a bracket lies in the span exactly when every
    reduced sum is zero; a basis that is not block-shaped raises
    OrbitBlockViolated.  The terms are summed per (pair, position, power of
    zeta), and the nonzero sums are reduced to canonical coordinates with
    one gather from power_array (see _Batch); a check passes when every sum
    is zero.  Every sum is bounded below 2^63 before it is formed.
    """
    group = basis.context.group
    ctx = cyclo.context(group.exponent)
    mult = group.mult_array()
    lie = monomials(enumerate(v.terms for v in basis.vectors), ctx)
    independent = np.array(basis.independent, dtype=bool)
    cen = monomials(enumerate(v.terms for v in center), ctx)
    pls = monomials(enumerate(v.terms for v in plus), ctx)
    nv, nc, nplus = len(basis.vectors), len(center), len(plus)
    batch = _Batch(ctx, group.order, [nv * nv, nc * nv, nv * nplus])
    reach = cyclo.max_abs(batch.powers)

    # the monomial pairs to bracket: their elements x, y must not commute
    moving = mult != mult.T
    closure_pairs = np.nonzero((lie[0][:, None] < lie[0][None, :])
                               & moving[lie[1][:, None], lie[1][None, :]])
    center_pairs = np.nonzero(moving[cen[1][:, None], lie[1][None, :]])
    if closure_pairs[0].size:
        start, moves = _pivot_map(lie, independent, basis.context.sigma)
        spread = int(np.diff(start).max()) * cyclo.max_abs(moves[1])
        _sum_bound(lie, lie, 2 * reach * spread, "closure sum")
        for part in _runs(lie[0][closure_pairs[0]], BATCH_SIZE // 2):
            if batch.failed[0]:
                break
            i, j, col, c, k = _bracket_terms(lie, lie, closure_pairs[0][part],
                                             closure_pairs[1][part], mult)
            count = start[col + 1] - start[col]
            term = np.repeat(np.arange(len(col)), count)
            at = np.arange(len(term)) + np.repeat(start[col] - np.cumsum(count) + count, count)
            batch.add(0, i[term] * nv + j[term], moves[0, at], c[term] * moves[1, at],
                      k[term] + moves[2, at])
    if center_pairs[0].size:
        _sum_bound(cen, lie, 2 * reach, "centrality sum")
        for part in _runs(cen[0][center_pairs[0]], BATCH_SIZE // 2):
            if batch.failed[1]:
                break
            v, u, col, c, k = _bracket_terms(cen, lie, center_pairs[0][part],
                                             center_pairs[1][part], mult)
            batch.add(1, v * nv + u, col, c, k)
    # t(u*s) sums the products u_x s_y with y = x^-1
    a, b = np.nonzero(np.array(group.inverse)[lie[1]][:, None] == pls[1][None, :])
    if a.size:
        _sum_bound(lie, pls, reach, "orthogonality sum")
        for part in _runs(lie[0][a], BATCH_SIZE):
            if batch.failed[2]:
                break
            ap, bp = a[part], b[part]
            batch.add(2, lie[0, ap] * nplus + pls[0, bp], 0, lie[2, ap] * pls[2, bp],
                      lie[3, ap] + pls[3, bp])
    batch.flush()
    return SkewChecks(*(not f for f in batch.failed))
