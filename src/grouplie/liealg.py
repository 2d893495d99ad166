"""Group algebra arithmetic over Q(zeta_m) and the twisted skew subalgebra.

The involutive antiautomorphism g -> alpha(g) tau(g)^-1 extends linearly to
the group algebra; its -1 eigenspace is a Lie subalgebra, spanned by the
elements g - alpha(g) tau(g)^-1.  This module alone writes and ranks the
rows of that basis, the +1 eigenspace, the center and H = L(Ker alpha).

An element is the dict {g: coefficient} of its nonzero coefficients; its
products (convolve, bracket, trace_of_product) are library API and oracles.

A spanning vector, a +1 eigenvector and a center candidate are one
construction, the row delta_z + sign * alpha(z) delta_sigma(z) on an orbit
of an involution: sigma: g -> tau(g)^-1 on elements for the first two, and
sigma on classes, with sign -1, for the candidate T_c - alpha(c) T_sigma(c),
kept in class coordinates.  One writer, _orbit_rows, writes each row list
as one int64 array (4, t) of monomials (row, column, c, k) meaning c*zeta^k,
from sigma and alpha's exponents.  Its rows are numbered 0, 1, ... in order,
each with at least one monomial, and every reader counts them with
row_count, which refuses any other array; LieBasis.vectors builds elements
only when asked.

Every row whose rank or membership the verifier decides lies in one orbit
block of sigma: {g, sigma(g)} for a spanning, Clifford or kernel vector and
{c, sigma(c)} for a center candidate.  So an OrbitSpan of a row list keeps
the independent rows of each block, at most two, and compares two rows by
the ratio of their entries +-zeta^k, read off the monomials as (sign,
exponent); linalg.RowSpace is its test oracle.

The pair checks (closure, centrality, trace-form orthogonality) run as one
exact integer kernel, skew_checks, with bracket, trace_of_product and
RowSpace.contains as its oracles: a product of two monomials is a
multiplication-table lookup and a sum of exponents, and each check sums
its products in int64 in parts of under BATCH_SIZE = 4096 terms plus one
vector's, never splitting a vector (_runs), every sum below 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import cyclo
from .errors import (
    BadParameters,
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
    zero = cyclo.context(a.group.exponent).zero
    out = {}
    # the rows x y over the terms y of b, for every term x of a
    products = a.group.mult[np.ix_(list(a.terms), list(b.terms))].tolist()
    for ax, row in zip(a.terms.values(), products):
        for z, by in zip(row, b.terms.values()):
            out[z] = out.get(z, zero) + ax * by
    return GroupAlgebraElement(a.group, out)


def bracket(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """[a, b] = a*b - b*a in one pass: each a_x b_y is formed once, added at
    xy and subtracted at yx; a commuting pair (xy == yx) contributes nothing."""
    a._check(b)
    zero = cyclo.context(a.group.exponent).zero
    out = {}
    xs, ys = list(a.terms), list(b.terms)
    # the rows x y and y x over the terms y of b, for every term x of a
    forward = a.group.mult[np.ix_(xs, ys)].tolist()
    backward = a.group.mult[np.ix_(ys, xs)].T.tolist()
    for ax, row, back in zip(a.terms.values(), forward, backward):
        for xy, yx, by in zip(row, back, b.terms.values()):
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


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Spanning vectors g - alpha(g) tau(g)^-1 as monomial rows, one per star-map orbit."""

    context: LieContext
    rows: np.ndarray

    @cached_property
    def vectors(self) -> tuple[GroupAlgebraElement, ...]:
        """The rows as group algebra elements, built on first read."""
        return tuple(as_elements(self.context.group, self.rows))

    @cached_property
    def span(self) -> "OrbitSpan":
        """The OrbitSpan of the rows, decided on first use."""
        return OrbitSpan(self.rows, self.context.sigma, self.context.group.exponent)

    @property
    def rank(self) -> int:
        return self.span.rank


def row_count(rows: np.ndarray) -> int:
    """The number of rows of a monomial array: an int64 array (4, t) whose
    rows are numbered 0, 1, ... in order, each with at least one monomial,
    so a zero row is written as one monomial with c = 0.  Every reader
    counts its rows here, and anything else raises InvariantViolated."""
    dtype, shape = getattr(rows, "dtype", type(rows).__name__), getattr(rows, "shape", ())
    if dtype != np.int64 or len(shape) != 2 or shape[0] != 4:
        raise InvariantViolated(f"a monomial array is int64 of shape (4, t), not {dtype} "
                                f"of shape {shape}")
    r = rows[0]
    # a step from one monomial's row to the next's other than 0 or 1
    steps = (r[1:] - r[:-1]).view(np.uint64) > 1
    if r.size and (r[0] or np.count_nonzero(steps)):
        i = 0 if r[0] else int(np.flatnonzero(steps)[0]) + 1
        raise InvariantViolated(f"monomial {i} is in row {r[i]}, but rows are numbered "
                                "0, 1, ... in order, each with at least one monomial")
    return int(r[-1]) + 1 if r.size else 0


def as_elements(group: GroupTable, rows: np.ndarray) -> list[GroupAlgebraElement]:
    """Row r of a monomial array as the element sum c*zeta^k delta_g over
    its monomials (r, g, c, k)."""
    ctx = cyclo.context(group.exponent)
    terms = [{} for _ in range(row_count(rows))]
    for r, g, c, k in zip(*rows.tolist()):
        terms[r][g] = terms[r].get(g, ctx.zero) + ctx.zeta(k) * c
    return [GroupAlgebraElement(group, t) for t in terms]


def _orbit_rows(sigma, exponents, sign: int, m: int, points) -> np.ndarray:
    """The rows delta_z + sign * zeta^e delta_sigma(z), e = exponents[z], of
    the points z of the involution `sigma` listed in `points`, as one int64
    array (4, t) of monomials (row, column, c, k) meaning c*zeta^k: row r is
    (r, z, 1, 0) and (r, sigma(z), sign, e), numbered in the order of
    `points`.  A fixed point's row 1 + sign * zeta^e is dropped exactly
    where sign * zeta^e = -1, and is the one monomial (r, z, 2, 0) where
    sign * zeta^e = 1."""
    out, r = [], 0
    for z in points:
        s, e = sigma[z], exponents[z] % m
        real = sign if e == 0 else -sign if 2 * e == m else 0  # sign * zeta^e if +-1
        if s == z and real == -1:
            continue
        out += (r, z, 2, 0) if s == z and real == 1 else (r, z, 1, 0, r, s, sign, e)
        r += 1
    return np.array(out, dtype=np.int64).reshape(-1, 4).T


def _orbit_basis(ctx: LieContext, sign: int) -> np.ndarray:
    """delta_g + sign * alpha(g) delta_sigma(g), g least in its sigma-orbit, where nonzero."""
    return _orbit_rows(ctx.sigma, ctx.alpha.exponents, sign, ctx.group.exponent,
                       (g for g, s in enumerate(ctx.sigma) if g <= s))


def lie_basis(ctx: LieContext) -> LieBasis:
    rows = _orbit_basis(ctx, -1)
    if row_count(rows) != ctx.census:
        raise InvariantViolated(
            f"{row_count(rows)} spanning vectors but census dimension {ctx.census}")
    return LieBasis(ctx, rows)


def plus_fixed_basis(ctx: LieContext) -> np.ndarray:
    """Basis of the +1 eigenspace of the star map, as monomial rows."""
    return _orbit_basis(ctx, 1)


class KernelSpace(NamedTuple):
    """H = L(Ker alpha, trivial), embedded in the group algebra of G."""

    order: int  # |Ker alpha|
    rows: np.ndarray  # the Lie basis of H as monomial rows over the elements of G
    rank: int


def kernel_space(group: GroupTable, alpha: LinearCharacter) -> KernelSpace:
    """The KernelSpace of Ker alpha; it depends on alpha only through its
    kernel.  Its rows delta_h - delta_(h^-1) are those _orbit_rows writes on
    G's inverse map for the orbits {h, h^-1}, h < h^-1, in the kernel.  A
    character of another order raises GroupMismatch."""
    check_order(group, alpha)
    kernel, inverse = alpha.kernel_elements(), group.inverse
    rows = _orbit_rows(inverse, (0,) * group.order, -1, group.exponent,
                       (h for h in kernel if h < inverse[h]))
    return KernelSpace(len(kernel), rows, OrbitSpan(rows, inverse, group.exponent).rank)


def center_candidates(ctx: LieContext) -> np.ndarray:
    """The rows T_c - alpha(c) T_(sigma c) in class coordinates for every
    class c where it is nonzero, i.e. unless c is sigma-fixed with
    alpha(c) = 1, written by _orbit_rows on classes; a row's first monomial
    is at its class c.  A sigma-orbit {c, sigma(c)} yields proportional
    candidates."""
    reps = conjugacy_data(ctx.group).representatives
    exponents = [ctx.alpha.exponents[r] for r in reps]
    return _orbit_rows(ctx.class_sigma, exponents, -1, ctx.group.exponent,
                       range(len(reps)))


class CenterData(NamedTuple):
    """The skew class-sum generators of a context's center, and the exact
    rank of all its center candidates (center_basis)."""

    context: LieContext
    generators: np.ndarray
    rank: int


def center_basis(ctx: LieContext) -> CenterData:
    """The CenterData of `ctx`: the rank of all its center_candidates,
    written once in class coordinates, where each lies in the orbit block
    {c, sigma(c)}, and as generators the candidates of the classes
    c <= sigma(c), one per orbit, renumbered, each class monomial repeated
    over the elements of its class."""
    candidates = center_candidates(ctx)
    classes, sigma = conjugacy_data(ctx.group).classes, ctx.class_sigma
    out, row, r = [], -1, -1
    for i, d, c, k in zip(*candidates.tolist()):
        if i != row:  # a row's first monomial is at its class
            row, keep = i, d <= sigma[d]
            r += keep
        if keep:
            out += [x for g in classes[d] for x in (r, g, c, k)]
    generators = np.array(out, dtype=np.int64).reshape(-1, 4).T
    return CenterData(ctx, generators, OrbitSpan(candidates, sigma, ctx.group.exponent).rank)


# ---------------------------------------------------------------------------
# closure, centrality and orthogonality as one exact integer kernel

# terms per summed part beyond its first vector's, to bound the kernel's memory
BATCH_SIZE = 4096


class SkewChecks(NamedTuple):
    """The verdicts of skew_checks."""

    closure: bool
    centrality: bool
    orthogonality: bool


def _runs(owner: np.ndarray, size: int) -> list[slice]:
    """Slices of a nondecreasing `owner`, cut once where the run of one owner
    that holds each multiple of `size` starts: a slice holds fewer than
    `size` entries plus those of its first run, and no run is split."""
    bounds = np.append(np.searchsorted(owner, owner[::size]), len(owner))
    keep = bounds[1:] > bounds[:-1]
    return list(map(slice, bounds[:-1][keep], bounds[1:][keep]))


def _starts(x: np.ndarray) -> np.ndarray:
    """The indices where a sorted `x` starts a run of equal values."""
    new = np.empty(len(x), dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return np.flatnonzero(new)


def _sums_vanish(slot, column, c, k, ctx: cyclo.CycloContext, order: int) -> bool:
    """Whether the terms c*zeta^k sum to zero in Q(zeta_m) at every
    (slot, column) pair, each column below `order`.

    For even m, zeta^(m/2) = -1, so a term is first folded to an exponent
    below m/2 with its sign flipped when it wraps; a sum that cancels only
    through that relation then cancels before the reduction.
    """
    period = ctx.m // 2 if ctx.m % 2 == 0 else ctx.m
    k = k % ctx.m
    if period < ctx.m:
        c = np.where(k < period, c, -c)
        k = k % period
    keys = (slot * order + column) * period + k
    at = np.argsort(keys)
    keys, c = keys[at], c[at]
    # the sum per (slot, column, power of zeta), then its nonzero ones
    # per (slot, column) in canonical coordinates
    first = _starts(keys)
    sums = np.add.reduceat(c, first)
    nonzero = np.flatnonzero(sums)
    if not nonzero.size:
        return True
    position, power = np.divmod(keys[first[nonzero]], period)
    coords = sums[nonzero, None] * ctx.power_array[power]
    return not np.add.reduceat(coords, _starts(position), axis=0).any()


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


def _entries(rows: np.ndarray, sigma, what: str):
    """Per row of a monomial array, its entries {column: [(c, k), ...]} of
    monomials c*zeta^k, c != 0, and the least column of the orbit block
    {z, sigma[z]} that holds them, None for a zero row; a row across two
    blocks raises OrbitBlockViolated, named `what` and its index."""
    entries = [{} for _ in range(row_count(rows))]
    blocks = [None] * len(entries)
    for r, z, c, k in zip(*rows.tolist()):
        if c:
            entries[r].setdefault(z, []).append((c, k))
            b = min(z, sigma[z])
            if blocks[r] is None:
                blocks[r] = b
            elif blocks[r] != b:
                lo, hi = sorted((blocks[r], b))
                raise OrbitBlockViolated(f"{what} {r} crosses the blocks {_name(lo, sigma)} "
                                         f"and {_name(hi, sigma)}")
    return entries, blocks


def _ratio(row: dict, b: int, sigma, m: int, what: str, index: int):
    """The key of a nonzero `row` on the orbit block {b, sigma[b]}, b its
    least column: () on a fixed column, the column of a one-entry row, and
    for a two-entry row, whose entries must be one monomial +-zeta^k each
    (else InvariantViolated, naming the row as `what` `index`), their ratio
    x_sigma(b) / x_b as (sign product, exponent difference mod m), where at
    even m -zeta^k is read as zeta^(k + m/2).  So each +-zeta^k has one key,
    and two nonzero rows of a block are proportional exactly when their
    keys are equal."""
    if sigma[b] == b:
        return ()
    x, y = row.get(b), row.get(sigma[b])
    if not (x and y):
        return b if x else sigma[b]
    for terms in (x, y):
        if len(terms) != 1 or terms[0][0] not in (1, -1):
            raise InvariantViolated(f"{what} {index} has the entry {terms} in block "
                                    f"{_name(b, sigma)}, not +-zeta^k as one monomial")
    (s, i), (t, j) = x[0], y[0]
    if s * t < 0 and m % 2 == 0:
        return 1, (j - i + m // 2) % m
    return s * t, (j - i) % m


class OrbitSpan:
    """The span over Q(zeta_m) of the rows of a monomial array (4, t), each
    with its entries in one orbit block {z, sigma[z]} of the involution
    `sigma` (a row across two raises OrbitBlockViolated), decided exactly
    per block with no product.  The monomials at one column of a row must
    not sum to zero; _orbit_rows writes no zero entry.

    `rows` holds each row's entries (_entries), and `blocks` maps the least
    column of each block to the indices of its independent rows, the
    nonzero rows outside the span of the earlier rows of their block: at
    most two on a moved orbit and one on a fixed column, which then span
    their block.  A block with one independent row on a moved orbit spans a
    nonzero row exactly when the two rows' ratio keys (_ratio) agree; a key
    is read only for such a comparison.  Spans of one sigma add up to the
    span of both row lists, the rows of the second numbered after those of
    the first.
    """

    __slots__ = ("rows", "sigma", "m", "blocks")

    def __init__(self, rows: np.ndarray, sigma, m: int):
        self.rows, blocks = _entries(rows, sigma, "row")
        self.sigma, self.m = sigma, m
        self.blocks: dict[int, list[int]] = {}
        for r, b in enumerate(blocks):
            if b is not None:
                self._add(b, r)

    def _outside(self, b: int, row: dict, what: str, index: int) -> bool:
        """Whether the nonzero `row` of block b lies outside the span of the
        block's independent rows; `what` and `index` name the row."""
        held = self.blocks.get(b, ())
        if len(held) == 1 and self.sigma[b] != b:
            return (_ratio(self.rows[held[0]], b, self.sigma, self.m, "row", held[0])
                    != _ratio(row, b, self.sigma, self.m, what, index))
        return not held

    def _add(self, b: int, r: int) -> None:
        if self._outside(b, self.rows[r], "row", r):
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

    def contains(self, rows: np.ndarray) -> list[bool]:
        """Per row of the monomial array `rows`, whether it lies in the span."""
        queries, blocks = _entries(rows, self.sigma, "query")
        return [b is None or not self._outside(b, q, "query", i)
                for i, (q, b) in enumerate(zip(queries, blocks))]

    def __add__(self, other: "OrbitSpan") -> "OrbitSpan":
        if other.sigma != self.sigma or other.m != self.m:
            raise BadParameters("spans of two different involutions or conductors do not add")
        out = OrbitSpan.__new__(OrbitSpan)
        out.rows, out.sigma, out.m = self.rows + other.rows, self.sigma, self.m
        out.blocks = {b: list(held) for b, held in self.blocks.items()}
        n = len(self.rows)
        for b, held in other.blocks.items():
            for r in held:
                out._add(b, r + n)
        return out


def _pivot_map(lie: np.ndarray, independent: np.ndarray, sigma):
    """What reducing by the basis rows does to a term c'*zeta^k' at each
    column z: it becomes c' * c[z] * zeta^(k' + k[z]) at target[z], for the
    three arrays (target, c, k) returned; `lie` holds the basis monomials and
    `independent` the flags of its rows (OrbitSpan).

    In a block {a, b}, a < b, with one independent row r, a vector w lies in
    the span exactly when the minor r_a w_b - r_b w_a is zero, and that
    minor goes to column b: a term at b is multiplied by r_a, and a term at
    a by -r_b, each of which must be one monomial (else InvariantViolated).
    For a Lie basis r_a = 1, so this is the row reduction that clears pivot
    a.  A block that its rows span (two independent rows, or one on a fixed
    column) clears its terms (c = 0); a term in a block with no row stays.
    """
    order = len(sigma)
    sig = np.array(sigma, dtype=np.int64)
    cols = np.arange(order)
    low = np.minimum(cols, sig)
    rows = lie[:, independent[lie[0]]]
    # the independent rows of each column's block
    count = np.bincount(low[rows[1, _starts(rows[0])]], minlength=order)[low]
    one = rows[:, (count[rows[1]] == 1) & (sig[rows[1]] != rows[1])]
    repeated = np.flatnonzero(np.bincount(one[1], minlength=order) > 1)
    if repeated.size:
        z = int(repeated[0])
        raise InvariantViolated(f"the basis row of block {_name(int(low[z]), sigma)} has "
                                f"more than one monomial at column {z}")
    target, c, k = cols, (count == 0).astype(np.int64), np.zeros(order, dtype=np.int64)
    at, other = one[1], sig[one[1]]
    target[other] = np.maximum(at, other)
    c[other] = np.where(at < other, one[2], -one[2])
    k[other] = one[3]
    return target, c, k


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


def skew_checks(basis: LieBasis, center: np.ndarray, plus: np.ndarray) -> SkewChecks:
    """The closure, centrality and orthogonality checks of one context as one
    exact integer kernel:

    - closure: every bracket of two basis vectors lies in their span;
    - centrality: [v, u] = 0 for every v in `center` and u in the basis;
    - orthogonality: t(u*s) = 0 for every u in the basis and s in `plus`.

    The basis, `center` and `plus` are monomial rows over the elements.  A
    product of two monomials is a lookup in the multiplication table and a
    sum of exponents; a pair with xy == yx contributes nothing to a bracket.
    A closure term is reduced against the basis row of its sigma-orbit
    block (_pivot_map), so a bracket lies in the span exactly when every
    reduced sum is zero; a basis that is not block-shaped raises
    OrbitBlockViolated, and one whose reducing row has an entry of two
    monomials InvariantViolated.  A check passes when every sum of its terms
    is zero; it sums them in parts (_runs, _sums_vanish), stops at the first
    nonzero one, and bounds every sum below 2^63 before it is formed.
    """
    group = basis.context.group
    ctx = cyclo.context(group.exponent)
    mult, order = group.mult, group.order
    lie, cen, pls = basis.rows, center, plus
    independent = np.array(basis.span.independent, dtype=bool)
    row_count(center)  # the format check, before any monomial is read
    nv, nplus = len(independent), row_count(plus)
    reach = cyclo.max_abs(ctx.power_array)
    closure = centrality = orthogonality = True

    # the monomial pairs to bracket: their elements x, y must not commute
    moving = mult != mult.T
    closure_pairs = np.nonzero((lie[0][:, None] < lie[0][None, :])
                               & moving[lie[1][:, None], lie[1][None, :]])
    center_pairs = np.nonzero(moving[cen[1][:, None], lie[1][None, :]])
    if closure_pairs[0].size:
        target, factor, shift = _pivot_map(lie, independent, basis.context.sigma)
        _sum_bound(lie, lie, 2 * reach * cyclo.max_abs(factor), "closure sum")

        def reduced(part):
            i, j, col, c, k = _bracket_terms(lie, lie, closure_pairs[0][part],
                                             closure_pairs[1][part], mult)
            kept = np.flatnonzero(factor[col])
            col = col[kept]
            return (i[kept] * nv + j[kept], target[col], c[kept] * factor[col],
                    k[kept] + shift[col])

        closure = all(_sums_vanish(*reduced(part), ctx, order)
                      for part in _runs(lie[0][closure_pairs[0]], BATCH_SIZE // 2))
    if center_pairs[0].size:
        _sum_bound(cen, lie, 2 * reach, "centrality sum")

        def brackets(part):
            v, u, col, c, k = _bracket_terms(cen, lie, center_pairs[0][part],
                                             center_pairs[1][part], mult)
            return v * nv + u, col, c, k

        centrality = all(_sums_vanish(*brackets(part), ctx, order)
                         for part in _runs(cen[0][center_pairs[0]], BATCH_SIZE // 2))
    # t(u*s) sums the products u_x s_y with y = x^-1
    a, b = np.nonzero(np.array(group.inverse)[lie[1]][:, None] == pls[1][None, :])
    if a.size:
        _sum_bound(lie, pls, reach, "orthogonality sum")

        def products(part):
            ap, bp = a[part], b[part]
            return (lie[0, ap] * nplus + pls[0, bp], 0, lie[2, ap] * pls[2, bp],
                    lie[3, ap] + pls[3, bp])

        orthogonality = all(_sums_vanish(*products(part), ctx, order)
                            for part in _runs(lie[0][a], BATCH_SIZE))
    return SkewChecks(closure, centrality, orthogonality)
