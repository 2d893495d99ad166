"""Group algebra arithmetic over Q(zeta_m) and the twisted skew subalgebra.

The involutive antiautomorphism g -> alpha(g) tau(g)^-1 extends linearly to
the group algebra; its -1 eigenspace is a Lie subalgebra, spanned by the
elements g - alpha(g) tau(g)^-1.  This module builds that basis exactly,
together with the center generators, the class-averaging projection and
the derived algebra.

Elements are dense coefficient vectors, but the products iterate over the
supports of their operands only, so they cost what the supports cost, not
what |G| costs: a spanning vector has at most 2 nonzero coefficients and a
bracket of two of them at most 8.  bracket forms each a_x b_y once, and
trace_of_product reads only the identity coefficient of a product, which is
all the trace-form orthogonality check needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import cyclo
from .errors import GroupMismatch, IncompatiblePair, InvariantViolated
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
    """Dense coefficient vector over the delta basis of the group algebra."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupTable, coeffs):
        self.group = group
        self.coeffs = list(coeffs)

    @classmethod
    def zero(cls, group: GroupTable) -> "GroupAlgebraElement":
        z = cyclo.context(group.exponent).zero
        return cls(group, [z] * group.order)

    @classmethod
    def delta(cls, group: GroupTable, g: int) -> "GroupAlgebraElement":
        out = cls.zero(group)
        out.coeffs[g] = cyclo.context(group.exponent).one
        return out

    def _check(self, other: "GroupAlgebraElement"):
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatch("elements live over different groups")

    def support(self):
        return [g for g, c in enumerate(self.coeffs) if c]

    def __add__(self, other):
        self._check(other)
        return GroupAlgebraElement(
            self.group, [a + b if b else a for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return GroupAlgebraElement(
            self.group, [a - b if b else a for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return GroupAlgebraElement(self.group, [-a for a in self.coeffs])

    def scaled(self, s) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.group, [a * s if a else a for a in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def trace(self) -> cyclo.CycloScalar:
        """Coefficient of the identity."""
        return self.coeffs[self.group.identity]

    def to_json_dict(self) -> dict:
        return {str(g): self.coeffs[g].to_json() for g in self.support()}

    @classmethod
    def from_json_dict(cls, group: GroupTable, data: dict) -> "GroupAlgebraElement":
        out = cls.zero(group)
        m = group.exponent
        for key, coeffs in data.items():
            out.coeffs[int(key)] = cyclo.CycloScalar.from_json(m, coeffs)
        return out

    def __repr__(self):
        terms = [f"({self.coeffs[g]})*d{g}" for g in self.support()]
        return " + ".join(terms) if terms else "0"


def convolve(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """The product a*b, summed over the nonzero a_x and b_y only."""
    a._check(b)
    out = GroupAlgebraElement.zero(a.group)
    mult = a.group.mult
    coeffs = out.coeffs
    b_terms = cyclo.nonzero_terms(b.coeffs)
    for x, ax in cyclo.nonzero_terms(a.coeffs):
        row = mult[x]
        for y, by in b_terms:
            z = row[y]
            coeffs[z] = coeffs[z] + ax * by
    return out


def bracket(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """[a, b] = a*b - b*a in one pass: each a_x b_y is formed once, added at
    xy and subtracted at yx; a commuting pair (xy == yx) contributes nothing."""
    a._check(b)
    out = GroupAlgebraElement.zero(a.group)
    mult = a.group.mult
    coeffs = out.coeffs
    b_terms = cyclo.nonzero_terms(b.coeffs)
    for x, ax in cyclo.nonzero_terms(a.coeffs):
        row = mult[x]
        for y, by in b_terms:
            xy = row[y]
            yx = mult[y][x]
            if xy != yx:
                p = ax * by
                coeffs[xy] = coeffs[xy] + p
                coeffs[yx] = coeffs[yx] - p
    return out


def trace_of_product(a: GroupAlgebraElement, b: GroupAlgebraElement) -> cyclo.CycloScalar:
    """The identity coefficient of a*b, sum over x of a_x b_(x^-1), without
    forming the product."""
    a._check(b)
    inverse = a.group.inverse
    bc = b.coeffs
    total = cyclo.context(a.group.exponent).zero
    for x, ax in cyclo.nonzero_terms(a.coeffs):
        by = bc[inverse[x]]
        if by:
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
    out = GroupAlgebraElement.zero(ctx.group)
    sigma = ctx.sigma
    for g, c in enumerate(a.coeffs):
        if c:
            out.coeffs[sigma[g]] = out.coeffs[sigma[g]] + ctx.alpha.value(g) * c
    return out


def skew_project(ctx: LieContext, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Projection (a - star(a)) / 2 onto the -1 eigenspace."""
    half = Fraction(1, 2)
    return (a - star(ctx, a)).scaled(half)


def skew_projector_trace(ctx: LieContext) -> Fraction:
    """Trace of the projection as a linear map on the group algebra."""
    total = cyclo.context(ctx.group.exponent).zero
    for g in ctx.group.elements():
        total = total + skew_project(ctx, GroupAlgebraElement.delta(ctx.group, g)).coeffs[g]
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

    def matrix(self) -> CycloMatrix:
        """The spanning vectors as rows, built once so its reduction is shared."""
        cached = self.__dict__.get("_matrix")
        if cached is None:
            ctx = cyclo.context(self.context.group.exponent)
            cached = CycloMatrix(
                ctx, [v.coeffs for v in self.vectors], cols=self.context.group.order
            )
            object.__setattr__(self, "_matrix", cached)
        return cached

    def row_space(self) -> RowSpace:
        return self.matrix().row_space()


def _orbit_vectors(ctx: LieContext, sign: int):
    """Yield (g, delta_g + sign * alpha(g) delta_sigma(g)), one per orbit of
    sigma on which it is nonzero; the partner's vector is proportional."""
    group = ctx.group
    sigma = ctx.sigma
    seen = [False] * group.order
    for g in group.elements():
        if seen[g]:
            continue
        s = sigma[g]
        seen[g] = seen[s] = True
        v = GroupAlgebraElement.delta(group, g)
        v.coeffs[s] = v.coeffs[s] + sign * ctx.alpha.value(g)
        if v.coeffs[s]:  # zero only at a fixed point with alpha(g) = -sign
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
    out = GroupAlgebraElement.zero(group)
    one = cyclo.context(group.exponent).one
    for g in class_elements:
        out.coeffs[g] = one
    return out


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


def center_basis(ctx: LieContext) -> list[GroupAlgebraElement]:
    """Skew class-sum combinations T_c - alpha(c) T_(sigma c), one per orbit."""
    seen = set()
    out = []
    for c, sc, v in center_candidates(ctx):
        if c not in seen:
            seen.update((c, sc))
            out.append(v)
    return out


def class_projection(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Class-averaging projection onto the center of the group algebra."""
    group = a.group
    cd = conjugacy_data(group)
    out = GroupAlgebraElement.zero(group)
    for c, elems in enumerate(cd.classes):
        acc = cyclo.context(group.exponent).zero
        for g in elems:
            if a.coeffs[g]:
                acc = acc + a.coeffs[g]
        if acc:
            avg = acc * Fraction(1, len(elems))
            for g in elems:
                out.coeffs[g] = avg
    return out


def derived_algebra_dim(group: GroupTable) -> int:
    """Exact rank of the span of all delta-basis brackets: #G - #classes."""
    ctx = cyclo.context(group.exponent)
    rs = RowSpace(ctx, group.order)
    one = ctx.one
    zero = ctx.zero
    seen_pairs = set()
    for g in group.elements():
        for h in group.elements():
            gh = group.mult[g][h]
            hg = group.mult[h][g]
            if gh == hg or (gh, hg) in seen_pairs:
                continue
            seen_pairs.add((gh, hg))
            seen_pairs.add((hg, gh))
            vec = [zero] * group.order
            vec[gh] = one
            vec[hg] = -one
            rs.add(vec)
    return rs.rank


def left_multiplication_matrix(a: GroupAlgebraElement) -> CycloMatrix:
    """Matrix of x -> a * x in the delta basis (column g is a * delta_g)."""
    group = a.group
    ctx = cyclo.context(group.exponent)
    n = group.order
    cols = []
    for g in group.elements():
        cols.append(convolve(a, GroupAlgebraElement.delta(group, g)).coeffs)
    entries = [[cols[g][h] for g in range(n)] for h in range(n)]
    return CycloMatrix(ctx, entries)
