"""Group algebra arithmetic over Q(zeta_m) and the twisted skew subalgebra.

The involutive antiautomorphism g -> alpha(g) tau(g)^-1 extends linearly to
the group algebra; its -1 eigenspace is a Lie subalgebra, spanned by the
elements g - alpha(g) tau(g)^-1.  This module builds that basis exactly,
together with the center generators, the class-averaging projection and
the derived algebra.

An element is the dict {g: coefficient} of its nonzero coefficients, the
same sparse format as a RowSpace row, so a spanning vector (at most 2 terms)
or a bracket of two of them (at most 8) goes into an elimination as it is.
The products iterate over these terms only, so they cost what the supports
cost, not what |G| costs.  bracket forms each a_x b_y once, and
trace_of_product reads only the identity coefficient of a product, which is
all the trace-form orthogonality check needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cyclo
from .errors import BadParameters, GroupMismatch, IncompatiblePair, InvariantViolated
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    alpha_tau_compatible,
    conjugacy_data,
    identity_automorphism,
)
from .linalg import CycloMatrix, RowSpace


class GroupAlgebraElement:
    """Element of the group algebra as {g: coefficient}; a missing key is
    zero, and the constructor drops zero values, so equal elements have
    equal dicts."""

    __slots__ = ("group", "terms")

    def __init__(self, group: GroupTable, terms: dict):
        self.group = group
        self.terms = {g: c for g, c in terms.items() if c}

    @classmethod
    def zero(cls, group: GroupTable) -> "GroupAlgebraElement":
        return cls(group, {})

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

    def to_json_dict(self) -> dict:
        return {str(g): self.terms[g].to_json() for g in self.support()}

    @classmethod
    def from_json_dict(cls, group: GroupTable, data: dict) -> "GroupAlgebraElement":
        m = group.exponent
        terms = {int(key): cyclo.CycloScalar.from_json(m, coeffs) for key, coeffs in data.items()}
        outside = sorted(g for g in terms if not 0 <= g < group.order)
        if outside:
            raise BadParameters(f"element indices {outside} outside 0..{group.order - 1}")
        return cls(group, terms)

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
        if len(self.tau.mapping) != self.group.order:
            raise IncompatiblePair("tau does not match the group order")
        if not alpha_tau_compatible(self.alpha, self.tau):
            raise IncompatiblePair(
                f"alpha({self.alpha.label}) o tau({self.tau.label}) != alpha; "
                "the antiautomorphism would not be involutive"
            )
        # sigma(g) = tau(g)^-1 is the basis involution underlying the star map
        sigma = tuple(self.group.inverse[t] for t in self.tau.mapping)
        object.__setattr__(self, "sigma", sigma)


def make_context(group: GroupTable, alpha: LinearCharacter,
                 tau: InvolutiveAutomorphism | None = None) -> LieContext:
    return LieContext(group, alpha, tau if tau is not None else identity_automorphism(group))


def star(ctx: LieContext, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The involutive antiautomorphism delta_g -> alpha(g) delta_(tau(g)^-1)."""
    sigma = ctx.sigma
    value = ctx.alpha.value
    return GroupAlgebraElement(ctx.group, {sigma[g]: value(g) * c for g, c in a.terms.items()})


def skew_project(ctx: LieContext, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Projection (a - star(a)) / 2 onto the -1 eigenspace."""
    half = Fraction(1, 2)
    return (a - star(ctx, a)).scaled(half)


def skew_projector_trace(ctx: LieContext) -> Fraction:
    """Trace of the projection as a linear map on the group algebra."""
    zero = cyclo.context(ctx.group.exponent).zero
    total = zero
    for g in ctx.group.elements():
        image = skew_project(ctx, GroupAlgebraElement.delta(ctx.group, g))
        total = total + image.terms.get(g, zero)
    return total.as_fraction()


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
    generators_meta: tuple[int, ...]
    dim: int

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
    """Yield (g, delta_g + sign * alpha(g) delta_sigma(g)), one per orbit of
    sigma on which it is nonzero; the partner's vector is proportional."""
    group = ctx.group
    sigma = ctx.sigma
    one = cyclo.context(group.exponent).one
    seen = set()
    for g in group.elements():
        if g in seen:
            continue
        s = sigma[g]
        seen.update((g, s))
        c = sign * ctx.alpha.value(g)
        v = GroupAlgebraElement(group, {g: one + c} if s == g else {g: one, s: c})
        if v.terms:  # empty only at a fixed point with alpha(g) = -sign
            yield g, v


def lie_basis(ctx: LieContext) -> LieBasis:
    pairs = list(_orbit_vectors(ctx, -1))
    census = census_dimension(ctx)
    if len(pairs) != census:
        raise InvariantViolated(f"{len(pairs)} spanning vectors but census dimension {census}")
    return LieBasis(ctx, tuple(v for _, v in pairs), tuple(g for g, _ in pairs), len(pairs))


def plus_fixed_basis(ctx: LieContext) -> list[GroupAlgebraElement]:
    """Basis of the +1 eigenspace of the star map."""
    return [v for _, v in _orbit_vectors(ctx, 1)]


def class_sum(group: GroupTable, class_elements) -> GroupAlgebraElement:
    return GroupAlgebraElement(group, dict.fromkeys(class_elements,
                                                    cyclo.context(group.exponent).one))


def sigma_class_map(ctx: LieContext) -> tuple[int, ...]:
    """Class-level involution c -> class of tau(rep)^-1."""
    cd = conjugacy_data(ctx.group)
    return tuple(cd.class_of[ctx.sigma[r]] for r in cd.representatives)


def center_candidates(ctx: LieContext):
    """Yield (c, sigma(c), T_c - alpha(c) T_(sigma c)) for every class c where
    the combination can be nonzero, i.e. unless c is sigma-fixed with alpha(c) = 1.

    A sigma-orbit {c, sigma(c)} yields proportional candidates.
    """
    group = ctx.group
    cd = conjugacy_data(group)
    sig = sigma_class_map(ctx)
    for c in range(cd.num_classes):
        sc = sig[c]
        alpha_c = ctx.alpha.value(cd.representatives[c])
        if sc == c and alpha_c == 1:
            continue
        yield c, sc, (class_sum(group, cd.classes[c])
                      - class_sum(group, cd.classes[sc]).scaled(alpha_c))


def center_basis(ctx: LieContext, *, candidates=None) -> list[GroupAlgebraElement]:
    """Skew class-sum combinations T_c - alpha(c) T_(sigma c), one per orbit;
    `candidates` (the list of center_candidates(ctx)) is built here unless
    the caller already has it."""
    if candidates is None:
        candidates = center_candidates(ctx)
    seen = set()
    out = []
    for c, sc, v in candidates:
        if c not in seen:
            seen.update((c, sc))
            out.append(v)
    return out


def class_projection(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Class-averaging projection onto the center of the group algebra."""
    group = a.group
    cd = conjugacy_data(group)
    zero = cyclo.context(group.exponent).zero
    sums = {}
    for g, x in a.terms.items():
        c = cd.class_of[g]
        sums[c] = sums.get(c, zero) + x
    out = {}
    for c, total in sums.items():
        if total:
            out.update(dict.fromkeys(cd.classes[c], total * Fraction(1, cd.sizes[c])))
    return GroupAlgebraElement(group, out)


def derived_algebra_dim(group: GroupTable) -> int:
    """Exact rank of the span of all delta-basis brackets: #G - #classes."""
    ctx = cyclo.context(group.exponent)
    rs = RowSpace(ctx, group.order)
    one = ctx.one
    minus_one = ctx.minus_one
    seen_pairs = set()
    for g in group.elements():
        for h in group.elements():
            gh = group.mult[g][h]
            hg = group.mult[h][g]
            if gh == hg or (gh, hg) in seen_pairs:
                continue
            seen_pairs.add((gh, hg))
            seen_pairs.add((hg, gh))
            rs.add({gh: one, hg: minus_one})
    return rs.rank


def left_multiplication_matrix(a: GroupAlgebraElement) -> CycloMatrix:
    """Matrix of x -> a * x in the delta basis (column g is a * delta_g)."""
    group = a.group
    ctx = cyclo.context(group.exponent)
    cols = [convolve(a, GroupAlgebraElement.delta(group, g)).terms for g in group.elements()]
    entries = [[col.get(h, ctx.zero) for col in cols] for h in group.elements()]
    return CycloMatrix(ctx, entries)
