"""Group algebra arithmetic over Q(zeta_m) and the twisted skew subalgebra.

The involutive antiautomorphism g -> alpha(g) tau(g)^-1 extends linearly to
the group algebra; its -1 eigenspace is a Lie subalgebra, spanned by the
elements g - alpha(g) tau(g)^-1.  This module builds that basis exactly,
together with the +1 eigenspace and the center generators.

An element is the dict {g: coefficient} of its nonzero coefficients, the
same sparse format as a RowSpace row, so a spanning vector (at most 2 terms)
or a bracket of two of them (at most 8) goes into an elimination as it is.
The products iterate over these terms only, so they cost what the supports
cost, not what |G| costs.  bracket forms each a_x b_y once, and
trace_of_product reads only the identity coefficient of a product.

Every coefficient of a spanning vector, a +1 eigenvector or a skew class-sum
combination is 1, +-zeta^e or 1 +- zeta^e, so these vectors are written
directly with values read from the per-conductor tuples
CycloContext.root_values, with no scalar arithmetic.

The verifier's pair checks (closure, centrality, trace-form orthogonality)
run as one exact integer kernel, skew_checks, with bracket,
trace_of_product and RowSpace.contains as its oracles.  Each coefficient
becomes monomials c*zeta^k.  A value +-zeta^k, which is every coefficient of
those vectors except 1 -+ alpha(g) at a fixed point, is one monomial, looked
up in CycloContext.signed_roots; any other algebraic integer expands into
its power-basis terms.  A product of two monomials is a multiplication-table
lookup and a sum of exponents; the kernel sums the products per (pair,
position) in int64, in batches of about BATCH_SIZE products, and checks
that every sum is zero in Q(zeta_m).  Every sum is bounded below 2^63
before it is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

import numpy as np

from . import cyclo
from .errors import (
    ConductorMismatch,
    GroupMismatch,
    IncompatiblePair,
    InvariantViolated,
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
from .linalg import RowSpace


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

    def row_space(self) -> RowSpace:
        """The reduced span of the vectors, built on first use and shared;
        callers must not add to it."""
        cached = self.__dict__.get("_row_space")
        if cached is None:
            group = self.context.group
            cached = RowSpace(cyclo.context(group.exponent), group.order,
                              [v.terms for v in self.vectors])
            object.__setattr__(self, "_row_space", cached)
        return cached


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


def monomials(owned_terms, ctx: cyclo.CycloContext, scale: int = 1) -> np.ndarray:
    """int64 array (4, t), one column (owner, g, c, k) per monomial c*zeta^k
    of scale * x, for every (owner, {g: x}) of `owned_terms`.

    A value +-zeta^k is one monomial, looked up in ctx.signed_roots; any other
    value expands into its power-basis terms, which must be integers once
    scaled.
    """
    roots = ctx.signed_roots
    out = []
    big = abs(scale)
    for owner, terms in owned_terms:
        for g, x in terms.items():
            if x.ctx.m != ctx.m:
                raise ConductorMismatch(f"mixed conductors {ctx.m} and {x.ctx.m}")
            hit = roots.get(x.coeffs)
            if hit is not None:
                out += (owner, g, hit[0] * scale, hit[1])
                continue
            for k, a in enumerate(x.coeffs):
                if a:
                    a *= scale
                    if type(a) is not int:
                        if a.denominator != 1:
                            raise InvariantViolated(
                                f"coefficient {x!r} of vector {owner} at {g} is not an algebraic integer")
                        a = a.numerator
                    big = max(big, abs(a))
                    out += (owner, g, a, k)
    cyclo.check_int64_bound(big, "monomial coefficients")
    return np.array(out, dtype=np.int64).reshape(-1, 4).T


def _pivot_map(space: RowSpace, order: int):
    """What RowSpace.reduce does to one term at each column z, as the
    monomials (target column, c, k) in columns start[z]:start[z + 1] of the
    returned array.

    A term at a non-pivot column stays, times D; a term at pivot p moves
    along p's row: it becomes -D times the row's entries off p.  D is the
    least common denominator of the rows' coefficients (1 for a Lie basis);
    it scales the whole reduced vector, so whether that vanishes is kept.
    """
    rows = space.rows
    scale = 1
    for row in rows.values():
        for x in row.values():
            for a in x.coeffs:
                if type(a) is not int:
                    scale = lcm(scale, a.denominator)
    moved = monomials(rows.items(), space.ctx, -scale)
    moved = moved[:, moved[0] != moved[1]]
    kept = np.array([z for z in range(order) if z not in rows], dtype=np.int64)
    kept = np.stack([kept, kept, np.full_like(kept, scale), np.zeros_like(kept)])
    both = np.concatenate([kept, moved], axis=1)
    both = both[:, np.argsort(both[0], kind="stable")]
    return np.searchsorted(both[0], np.arange(order + 1)), both[1:]


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


class _Batch:
    """Terms c*zeta^k at (slot, column) gathered over several checks; each
    check owns a range of slots, and fails when the sum at one of its
    (slot, column) pairs is not zero in Q(zeta_m).

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
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(values, first)
        nonzero = np.flatnonzero(sums)
        if not nonzero.size:
            return
        position, power = np.divmod(keys[first[nonzero]], self.period)
        coords = sums[nonzero, None] * self.powers[power]
        first = np.flatnonzero(np.diff(position, prepend=-1))
        bad = np.add.reduceat(coords, first, axis=0).any(axis=1)
        slots = position[first[bad]] // self.order
        for check in np.unique(np.searchsorted(self.offsets, slots, side="right") - 1):
            self.failed[check] = True


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


def _sum_bound(left: np.ndarray, right: np.ndarray, factor: int, what: str) -> None:
    """Raise IntegerBoundExceeded unless `factor` times the largest sum of
    |products| of one left and one right vector's monomials stays below
    2^63; `factor` covers the products per monomial pair, the closure's
    pivot rows and the reduction to canonical coordinates."""
    def most(x):
        return int(np.bincount(x[0]).max()) * cyclo.max_abs(x[2]) if x.size else 0
    cyclo.check_int64_bound(factor * most(left) * most(right), what)


def skew_checks(basis: LieBasis, center, plus) -> SkewChecks:
    """The closure, centrality and orthogonality checks of one context as one
    exact integer batch:

    - closure: every bracket of two basis vectors lies in basis.row_space();
    - centrality: [v, u] = 0 for every v in `center` and u in the basis;
    - orthogonality: t(u*s) = 0 for every u in the basis and s in `plus`.

    Every coefficient becomes integer monomials c*zeta^k (`monomials`).  A
    product of two monomials is a lookup in the multiplication table and a
    sum of exponents; a pair with xy == yx contributes nothing to a bracket.
    A closure term at a pivot column moves along that pivot row, as
    RowSpace.reduce clears each pivot once.  The terms are summed per (pair,
    position, power of zeta), and the nonzero sums are reduced to canonical
    coordinates with one gather from power_array (see _Batch); a check
    passes when every sum is zero.  Every sum is bounded below 2^63 before
    it is formed.
    """
    group = basis.context.group
    ctx = cyclo.context(group.exponent)
    mult = group.mult_array()
    lie = monomials(enumerate(v.terms for v in basis.vectors), ctx)
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
        start, moves = _pivot_map(basis.row_space(), group.order)
        _sum_bound(lie, lie, 2 * reach * cyclo.max_abs(moves[1]), "closure sum")
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
