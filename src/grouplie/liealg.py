"""Group algebra arithmetic over Q(zeta_m) and the twisted skew subalgebra.

The involutive antiautomorphism g -> alpha(g) tau(g)^-1 extends linearly to
the group algebra; its -1 eigenspace is a Lie subalgebra, spanned by the
elements g - alpha(g) tau(g)^-1.  This module builds that basis exactly,
together with the +1 eigenspace and the center generators.

An element is the dict {g: coefficient} of its nonzero coefficients.  The
products iterate over these terms only, so they cost what the supports
cost, not what |G| costs.  bracket forms each a_x b_y once, and
trace_of_product reads only the identity coefficient of a product.

A spanning vector, a +1 eigenvector and a center candidate are one
construction, the row delta_z + sign * alpha(z) delta_sigma(z) on an orbit
of an involution: sigma: g -> tau(g)^-1 on elements for the first two, and
sigma on classes, with sign -1, for the candidate T_c - alpha(c) T_sigma(c),
kept in class coordinates.  One writer, _orbit_rows, yields them all; every
coefficient is 1, +-zeta^e or 1 +- zeta^e, read from the per-conductor
tuples CycloContext.root_values, with no scalar arithmetic.

Every row whose rank or membership the verifier decides lies in one orbit
block of sigma: the pair {g, sigma(g)} for a spanning, Clifford or kernel
vector and the pair of classes {c, sigma(c)} for a center candidate.  So an
OrbitSpan of a row list keeps the independent rows of each block, at most
two, and answers its rank, a membership and the span of a sum block by
block with ratio keys: every two-entry row it compares has entries
+-zeta^k, so two such rows are proportional exactly when the ratios of
their entries agree, read as (sign, exponent) from
CycloContext.signed_roots, with no product and no scalar arithmetic;
linalg.RowSpace is its test oracle.

The verifier's pair checks (closure, centrality, trace-form orthogonality)
run as one exact integer kernel, skew_checks, with bracket,
trace_of_product and RowSpace.contains as its oracles; closure reduces each
bracket against the basis row of every block it touches.  Each coefficient
becomes monomials c*zeta^k.  A value +-zeta^k, which is every coefficient of
those vectors except 1 -+ alpha(g) at a fixed point, is one monomial, looked
up in CycloContext.signed_roots; any other algebraic integer expands into
its power-basis terms.  A product of two monomials is a multiplication-table
lookup and a sum of exponents; the kernel sums the products per (pair,
position) in int64, in batches of about BATCH_SIZE = 4096 products (a
larger batch saves little time and raises the peak memory), and checks
that every sum is zero in Q(zeta_m) (_Batch).  Every sum is bounded below
2^63 before it is formed.
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

    @cached_property
    def class_sigma(self) -> tuple[int, ...]:
        """sigma on classes: c -> the class of tau(rep)^-1, built on first use."""
        cd = conjugacy_data(self.group)
        return tuple(cd.class_of[self.sigma[r]] for r in cd.representatives)

    @cached_property
    def census(self) -> int:
        """census_dimension of the context, computed on first use."""
        return census_dimension(self)

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
    def span(self) -> "OrbitSpan":
        """The OrbitSpan of the vectors, decided on first use."""
        return OrbitSpan([v.terms for v in self.vectors], self.context.sigma,
                         cyclo.context(self.context.group.exponent))

    @property
    def rank(self) -> int:
        return self.span.rank


def _orbit_rows(sigma, exponents, sign: int, values: cyclo.CycloContext):
    """Yield (z, sigma(z), row) for every point z of the involution `sigma`
    where the row delta_z + sign * zeta^exponents[z] delta_sigma(z) is
    nonzero; the rows of z and sigma(z) are proportional.

    Every coefficient is 1, sign * zeta^e or, at a fixed point,
    1 + sign * zeta^e, read from values.root_values; a fixed point's row is
    zero only where zeta^e = -sign."""
    one, moved, fixed = values.one, values.root_values[0, sign], values.root_values[1, sign]
    for z, s in enumerate(sigma):
        e = exponents[z]
        if s != z:
            yield z, s, {z: one, s: moved[e]}
        elif fixed[e]:
            yield z, z, {z: fixed[e]}


def _orbit_vectors(ctx: LieContext, sign: int) -> list[GroupAlgebraElement]:
    """delta_g + sign * alpha(g) delta_sigma(g), one per orbit of sigma on
    which it is nonzero, with g the orbit's least element."""
    rows = _orbit_rows(ctx.sigma, ctx.alpha.exponents, sign, cyclo.context(ctx.group.exponent))
    return [GroupAlgebraElement(ctx.group, row) for g, s, row in rows if g <= s]


def lie_basis(ctx: LieContext) -> LieBasis:
    vectors = tuple(_orbit_vectors(ctx, -1))
    if len(vectors) != ctx.census:
        raise InvariantViolated(
            f"{len(vectors)} spanning vectors but census dimension {ctx.census}")
    return LieBasis(ctx, vectors)


def plus_fixed_basis(ctx: LieContext) -> list[GroupAlgebraElement]:
    """Basis of the +1 eigenspace of the star map."""
    return _orbit_vectors(ctx, 1)


def center_candidates(ctx: LieContext):
    """Yield (c, sigma(c), row) for every class c where T_c - alpha(c) T_(sigma c)
    is nonzero, i.e. unless c is sigma-fixed with alpha(c) = 1: row is the
    combination in class coordinates, {c: 1, sigma(c): -alpha(c)}, or
    {c: 1 - alpha(c)} on a sigma-fixed c (_orbit_rows on classes).

    A sigma-orbit {c, sigma(c)} yields proportional candidates."""
    reps = conjugacy_data(ctx.group).representatives
    exponents = [ctx.alpha.exponents[r] for r in reps]
    return _orbit_rows(ctx.class_sigma, exponents, -1, cyclo.context(ctx.group.exponent))


def center_basis(group: GroupTable, candidates) -> list[GroupAlgebraElement]:
    """Skew class-sum combinations T_c - alpha(c) T_(sigma c), one per orbit:
    the first of the center_candidates of a context on each orbit, expanded
    into class sums of `group`."""
    classes = conjugacy_data(group).classes
    seen = set()
    out = []
    for c, sc, row in candidates:
        if c not in seen:
            seen.update((c, sc))
            out.append(GroupAlgebraElement(
                group, {g: x for d, x in row.items() for g in classes[d]}))
    return out


# ---------------------------------------------------------------------------
# closure, centrality and orthogonality as one exact integer kernel

# products per batch: the batches bound the kernel's memory on large contexts
BATCH_SIZE = 4096


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
    (slot, column) pairs is not zero in Q(zeta_m); `failed` marks every
    check that owns such a sum.

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


def _name(z: int, sigma) -> str:
    return f"{{{z}}}" if sigma[z] == z else f"{{{z}, {sigma[z]}}}"


def _what(index) -> str:
    return "query" if index is None else f"row {index}"


def _block(row: dict, sigma, index):
    """The least column of the orbit {z, sigma[z]} that holds every nonzero
    entry of `row`, or None for a zero row; `index` names the row, None a
    query."""
    blocks = {min(z, sigma[z]) for z, x in row.items() if x}
    if len(blocks) > 1:
        a, b = sorted(blocks)[:2]
        raise OrbitBlockViolated(f"{_what(index)} crosses the blocks {_name(a, sigma)} and "
                                 f"{_name(b, sigma)}")
    return blocks.pop() if blocks else None


def _ratio(row: dict, b: int, sigma, ctx: cyclo.CycloContext, index):
    """The key of a nonzero `row` on the orbit block {b, sigma[b]}, b its
    least column: () on a fixed column, the column of a one-entry row, and
    for a two-entry row the ratio x_sigma(b) / x_b of its entries, both
    +-zeta^k, as (sign, k mod m) read off ctx.signed_roots, which gives each
    +-zeta^k one (sign, k).  Two nonzero rows of one block are proportional
    exactly when their keys are equal.  A two-entry row with another entry
    raises InvariantViolated; `index` names the row, None a query."""
    if sigma[b] == b:
        return ()
    x, y = row.get(b), row.get(sigma[b])
    if not (x and y):
        return b if x else sigma[b]
    keys = [ctx.signed_roots.get(v.coeffs) if v.ctx.m == ctx.m else None for v in (x, y)]
    if None in keys:
        raise InvariantViolated(f"{_what(index)} has the entry {(x, y)[keys.index(None)]!r} "
                                f"in block {_name(b, sigma)}, not +-zeta^k in Q(zeta_{ctx.m})")
    (s, i), (t, j) = keys
    return s * t, (j - i) % ctx.m


class OrbitSpan:
    """The span over Q(zeta_m) of sparse rows {column: value}, each with its
    nonzero entries in one orbit block {z, sigma[z]} of the involution
    `sigma`, decided exactly per block with no product: a Lie basis vector,
    a Clifford or kernel row in {g, sigma(g)}, a center candidate in class
    coordinates in {c, sigma(c)}.  A row that crosses two blocks raises
    OrbitBlockViolated.

    `blocks` maps the least column of each block to the indices of its
    independent rows, the nonzero rows outside the span of the earlier rows
    of their block: at most two on a moved orbit and one on a fixed column,
    which then span their block.  A block with one independent row on a
    moved orbit spans a nonzero row exactly when the two rows' ratio keys
    (_ratio) agree; a key is read only for such a comparison.

    Spans of one sigma add up to the span of both row lists, the rows of
    the second numbered after those of the first.
    """

    __slots__ = ("rows", "sigma", "ctx", "blocks")

    def __init__(self, rows, sigma, ctx: cyclo.CycloContext):
        self.rows = list(rows)
        self.sigma = sigma
        self.ctx = ctx
        self.blocks: dict[int, list[int]] = {}
        # every row's block first, so a row across two blocks is refused
        # before any key is read
        blocks = [_block(row, sigma, r) for r, row in enumerate(self.rows)]
        for r, b in enumerate(blocks):
            if b is not None:
                self._add(b, r)

    def _outside(self, b: int, row: dict, index) -> bool:
        """Whether the nonzero `row` of block b lies outside the span of the
        block's independent rows; `index` names the row, None a query."""
        held = self.blocks.get(b, ())
        if len(held) == 1 and self.sigma[b] != b:
            return (_ratio(self.rows[held[0]], b, self.sigma, self.ctx, held[0])
                    != _ratio(row, b, self.sigma, self.ctx, index))
        return not held

    def _add(self, b: int, r: int) -> None:
        if self._outside(b, self.rows[r], r):
            self.blocks.setdefault(b, []).append(r)

    @property
    def independent(self) -> list[bool]:
        """Per row, whether it is nonzero and outside the span of the earlier
        rows of its block."""
        held = {r for rows in self.blocks.values() for r in rows}
        return [r in held for r in range(len(self.rows))]

    @property
    def rank(self) -> int:
        return sum(map(len, self.blocks.values()))

    def contains(self, row: dict) -> bool:
        b = _block(row, self.sigma, None)
        return b is None or not self._outside(b, row, None)

    def __add__(self, other: "OrbitSpan") -> "OrbitSpan":
        if other.sigma != self.sigma or other.ctx.m != self.ctx.m:
            raise BadParameters("spans of two different involutions or conductors do not add")
        out = OrbitSpan((), self.sigma, self.ctx)
        out.rows = self.rows + other.rows
        out.blocks = {b: list(held) for b, held in self.blocks.items()}
        n = len(self.rows)
        for b, held in other.blocks.items():
            for r in held:
                out._add(b, r + n)
        return out


def _pivot_map(lie: np.ndarray, independent: np.ndarray, sigma):
    """What reducing by the basis rows does to one term at each column z,
    per sigma-orbit block, as the monomials (target column, c, k) in
    columns start[z]:start[z + 1] of the returned array; `lie` holds the
    basis monomials and `independent` the flags of its rows (OrbitSpan).

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
    independent = np.array(basis.span.independent, dtype=bool)
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
