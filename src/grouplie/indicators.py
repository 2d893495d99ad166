"""Character indicators and the predicted block decomposition.

Three indicator sums drive everything:

  weighted:  (1/#G) sum_g chi(g^2) conj(alpha(g))
  twisted:   (1/#G) sum_g chi(g tau(g))
  joint:     (1/#G) sum_g conj(alpha(g)) chi(g tau(g))

The joint form specializes to the other two and its sign picks the
orthogonal / symplectic factor type on self-paired irreps.  For irreducible
characters each value is asserted to land in {-1, 0, 1}; anything else
raises IndicatorOutOfRange rather than guessing.

The sums run on the table's int64 coefficient array: the per-class weights
become a coefficient array too, and cyclo.class_sums forms #G times every
irrep's indicator at once.

Every report comes from indicator_reports, which takes LieContexts over
the table's group and keeps each in its report: one class_sums call forms
every distinct joint, weighted and twisted sum of them from one stacked
weight array (keys, classes, phi(m)), and one times_roots einsum per tau, in
blocks of alphas, forms every partner target.  indicator_report is the batch
of one context; joint_indicator, pairing, weighted_fs_indicator and
kawanaka_indicator are one-context calls into the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclo
from .chartable import CharacterTable
from .errors import BadParameters, ConductorMismatch, IndicatorOutOfRange, PartnerNotFound
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    check_order,
    conjugacy_data,
    identity_automorphism,
    trivial_character,
)
from .liealg import LieContext, census_dimension, make_context


@dataclass(frozen=True)
class PairingClass:
    """Orbit of an irrep under V -> conj(V) x alpha o tau: size 1 or 2."""

    members: tuple[int, ...]
    kind: str  # "osp" when self-paired, "gl" for swapped pairs


@dataclass(frozen=True)
class Factor:
    kind: str  # "so" | "sp" | "gl"
    n: int     # dimension of the underlying irrep
    dim: int   # contributed Lie algebra dimension

    def render(self) -> str:
        return f"{self.kind}({self.n})"


@dataclass(frozen=True)
class IndicatorReport:
    context: LieContext
    degrees: tuple[int, ...]
    f_alpha: tuple[int, ...]
    c_tau: tuple[int, ...]
    nu: tuple[int, ...]
    partner: tuple[int, ...]
    parity: tuple[str, ...]
    classes: tuple[PairingClass, ...]
    factors: tuple[Factor, ...]  # one per pairing class, in the same order
    involutions_plus: int   # |{g : tau(g) = g^-1, alpha(g) = 1}|
    involutions_minus: int  # |{g : tau(g) = g^-1, alpha(g) = -1}|
    dim_m: int
    dim_l_formula: int
    center_dim: int

    def to_json_dict(self) -> dict:
        factor = {i: fac for pc, fac in zip(self.classes, self.factors) for i in pc.members}
        return {
            "group": self.context.group.name,
            "order": self.context.group.order,
            "alpha": self.context.alpha.label,
            "tau": self.context.tau.label,
            "irreps": [
                {
                    "degree": self.degrees[i],
                    "F_alpha": self.f_alpha[i],
                    "c_tau": self.c_tau[i],
                    "nu": self.nu[i],
                    "partner": self.partner[i],
                    "parity": self.parity[i],
                    "factor": factor[i].render(),
                    "factor_dim": factor[i].dim,
                }
                for i in range(len(self.degrees))
            ],
            "I": self.involutions_plus,
            "J": self.involutions_minus,
            "dim_M": self.dim_m,
            "dim_L_formula": self.dim_l_formula,
            "center_dim": self.center_dim,
        }


def _as_indicators(scaled: np.ndarray, n: int, ctx: cyclo.CycloContext, labels) -> np.ndarray:
    """Read off v from the coefficients (irreps, keys, phi(m)) of n*v with v
    in {-1, 0, 1}; sums stay integral this way.  The int array (irreps,
    keys) of the v; the first entry outside, in key order, raises
    IndicatorOutOfRange, named after `labels[key]`."""
    ok = ~scaled[:, :, 1:].any(axis=2) & np.isin(scaled[:, :, 0], (-n, 0, n))
    if not ok.all():
        key, i = np.argwhere(~ok.T)[0].tolist()
        raise IndicatorOutOfRange(
            f"{n} * {labels[key]}(irrep {i}) = {cyclo.scalar_of(scaled[i, key], ctx)!r} "
            "is outside {-n, 0, n}"
        )
    return scaled[:, :, 0] // n


def _check_character(group: GroupTable, alpha: LinearCharacter, ctx: cyclo.CycloContext) -> None:
    check_order(group, alpha)
    if alpha.conductor != ctx.m:
        raise ConductorMismatch(f"mixed conductors {alpha.conductor} and {ctx.m}")


def stacked_weights(group: GroupTable, keys, ctx: cyclo.CycloContext) -> np.ndarray:
    """Per-class sums of conj(alpha(g)) over g with g*tau(g) in the class
    (the integer counts when alpha is None), for every (alpha, tau) of
    `keys`, as canonical coefficients (keys, classes, phi(m)) from one
    matmul."""
    cd = conjugacy_data(group)
    class_of = np.array(cd.class_of)
    mult = group.mult_array()
    counts = np.zeros((len(keys), cd.num_classes, ctx.m), dtype=np.int64)
    for w, (alpha, tau) in enumerate(keys):
        check_order(group, tau)
        if alpha is not None:
            _check_character(group, alpha, ctx)
        # the class of g*tau(g) and the exponent of conj(alpha(g)), for every g
        classes = class_of[mult[group.elements(), tau.mapping]]
        e = 0 if alpha is None else -np.array(alpha.exponents) % ctx.m
        np.add.at(counts[w], (classes, e), 1)
    return counts @ ctx.power_array[:ctx.m]


def scaled_sums(weights: np.ndarray, rows: np.ndarray, ctx: cyclo.CycloContext) -> np.ndarray:
    """sum_c weights[w, c] * rows[r, c] for every class-function row r and
    every stacked weight w, as canonical coefficients (rows, weights,
    phi(m)): #G times the indicators, kept integral, from one class_sums
    call."""
    unit = np.ones(weights.shape[1], dtype=np.int64)
    return cyclo.class_sums(rows, weights, unit, ctx)


def _joint_indicators(table: CharacterTable, keys) -> np.ndarray:
    """The joint indicators (irreps, keys) of every (alpha, tau) of `keys`."""
    ctx = table.context()
    sums = scaled_sums(stacked_weights(table.group, keys, ctx), table.values, ctx)
    labels = [f"nu_({alpha.label},{tau.label})" for alpha, tau in keys]
    return _as_indicators(sums, table.group.order, ctx, labels)


def joint_indicator(table: CharacterTable, alpha: LinearCharacter,
                    tau: InvolutiveAutomorphism) -> tuple[int, ...]:
    """Joint indicator: (1/#G) sum_g conj(alpha(g)) chi(g tau(g)).

    Specializes to the weighted indicator at tau = id and to the twisted one
    at alpha = trivial.
    """
    return tuple(_joint_indicators(table, [(alpha, tau)])[:, 0].tolist())


def weighted_fs_indicator(table: CharacterTable, alpha: LinearCharacter) -> tuple[int, ...]:
    """Weighted indicator per irrep: (1/#G) sum_g chi(g^2) conj(alpha(g))."""
    return joint_indicator(table, alpha, identity_automorphism(table.group))


def kawanaka_indicator(table: CharacterTable, tau: InvolutiveAutomorphism) -> tuple[int, ...]:
    """Twisted indicator per irrep: (1/#G) sum_g chi(g tau(g))."""
    return joint_indicator(table, trivial_character(table.group), tau)


def _alphas_per_block(per_alpha: int) -> int:
    """How many alphas one partner einsum takes, for block arrays of
    `per_alpha` entries per alpha."""
    return max(1, cyclo._SUMS_BLOCK // per_alpha)


def _partner_maps(table: CharacterTable, tau: InvolutiveAutomorphism,
                  alphas) -> list[tuple[int, ...]]:
    """The partner map of (alpha, tau) for every alpha of `alphas`.

    The targets alpha * conj(chi) o tau of all alphas come from one
    times_roots einsum per block of alphas; no block array exceeds
    cyclo._SUMS_BLOCK entries unless one alpha alone does.
    """
    cd = table.class_data
    ctx = table.context()
    check_order(table.group, tau)
    for alpha in alphas:
        _check_character(table.group, alpha, ctx)
    x = table.values
    # conj(chi(y)) = chi(y^-1), so conj(chi) o tau is read at the inverse class
    conj_tau = x[:, [cd.inverse_class[cd.class_of[tau.mapping[r]]] for r in cd.representatives]]
    exponents = np.array([[alpha.exponents[r] for r in cd.representatives] for alpha in alphas])
    rows = {row.tobytes(): i for i, row in enumerate(x)}
    d = ctx.degree
    step = _alphas_per_block(x.shape[1] * d * max(x.shape[0], d))
    out = []
    for lo in range(0, len(alphas), step):
        for targets in cyclo.times_roots(conj_tau, exponents[lo:lo + step], ctx):
            partner = []
            for i, target in enumerate(targets):
                j = rows.get(target.tobytes())
                if j is None:
                    raise PartnerNotFound(
                        f"no irrep matches alpha * conj(chi_{i}) o tau; table inconsistency"
                    )
                partner.append(j)
            for i, j in enumerate(partner):
                if partner[j] != i:
                    raise PartnerNotFound("partner map is not an involution")
            out.append(tuple(partner))
    return out


def _pairing_classes(partner: tuple[int, ...]) -> tuple[PairingClass, ...]:
    classes = []
    seen = set()
    for i, j in enumerate(partner):
        if i in seen:
            continue
        seen.add(i)
        if j == i:
            classes.append(PairingClass((i,), "osp"))
        else:
            seen.add(j)
            classes.append(PairingClass((i, j), "gl"))
    return tuple(classes)


def pairing(table: CharacterTable, alpha: LinearCharacter,
            tau: InvolutiveAutomorphism) -> tuple[tuple[int, ...], tuple[PairingClass, ...]]:
    """Partner map V -> unique irrep with character alpha * conj(chi) o tau.

    Returns (partner, classes); partner is an involution on irrep indices.
    """
    partner = _partner_maps(table, tau, [alpha])[0]
    return partner, _pairing_classes(partner)


def involution_counts(group: GroupTable, alpha: LinearCharacter,
                      tau: InvolutiveAutomorphism) -> tuple[int, int]:
    """Counts of g with tau(g) = g^-1 split by alpha(g) = +1 / -1."""
    signs = [alpha.real_sign(g) for g in group.elements() if tau.mapping[g] == group.inverse[g]]
    return signs.count(1), signs.count(-1)


def _factor(pc: PairingClass, nu: tuple[int, ...], degrees: tuple[int, ...]) -> Factor:
    """Self-paired irreps contribute an orthogonal block n(n-1)/2 when the
    joint indicator is +1 and a symplectic block n(n+1)/2 when it is -1;
    swapped pairs contribute a diagonally embedded gl block of dimension n^2.
    """
    i = pc.members[0]
    n = degrees[i]
    if pc.kind == "gl":
        if any(nu[j] != 0 for j in pc.members):
            raise IndicatorOutOfRange(
                f"swapped pair {pc.members} has nonvanishing joint indicator"
            )
        return Factor("gl", n, n * n)
    if nu[i] == 1:
        return Factor("so", n, n * (n - 1) // 2)
    if nu[i] == -1:
        return Factor("sp", n, n * (n + 1) // 2)
    raise IndicatorOutOfRange(f"self-paired irrep {i} has vanishing joint indicator")


def _report(ctx: LieContext, table: CharacterTable, nu: tuple[int, ...],
            f_alpha: tuple[int, ...], c_tau: tuple[int, ...],
            partner: tuple[int, ...], classes: tuple[PairingClass, ...]) -> IndicatorReport:
    """The report of one context from its indicators and partner map."""
    factors = tuple(_factor(pc, nu, table.degrees) for pc in classes)
    plus, minus = involution_counts(ctx.group, ctx.alpha, ctx.tau)
    return IndicatorReport(
        context=ctx,
        degrees=table.degrees,
        f_alpha=f_alpha,
        c_tau=c_tau,
        nu=nu,
        partner=partner,
        parity=tuple("even" if j == i else "odd" for i, j in enumerate(partner)),
        classes=classes,
        factors=factors,
        involutions_plus=plus,
        involutions_minus=minus,
        dim_m=sum(fac.dim for fac in factors),
        dim_l_formula=census_dimension(ctx),
        center_dim=sum(1 for pc in classes if pc.kind == "gl"),
    )


def indicator_report(table: CharacterTable, alpha: LinearCharacter,
                     tau: InvolutiveAutomorphism | None = None) -> IndicatorReport:
    """Indicators, pairing and the predicted decomposition of the context
    (table.group, alpha, tau): the batch of one, so an incompatible (alpha,
    tau) raises IncompatiblePair before any sum is formed."""
    return indicator_reports(table, [make_context(table.group, alpha, tau)])[0]


def indicator_reports(table: CharacterTable, contexts) -> list[IndicatorReport]:
    """The IndicatorReport of every LieContext of `contexts`, in order, with
    the work shared across them; a context over another group than
    table.group raises BadParameters.

    One class_sums call gives every distinct joint, weighted and twisted
    indicator of the contexts, and one partner einsum per tau (in blocks of
    alphas) every partner map.
    """
    group = table.group
    for ctx in contexts:
        if ctx.group != group:
            raise BadParameters(f"context {ctx} handed with the character table of {group.name}")
    identity = identity_automorphism(group)
    trivial = trivial_character(group)
    keys = {}  # (alpha.exponents, tau.mapping) -> (alpha, tau), in first-use order
    for ctx in contexts:
        for alpha, tau in ((ctx.alpha, ctx.tau), (ctx.alpha, identity), (trivial, ctx.tau)):
            keys.setdefault((alpha.exponents, tau.mapping), (alpha, tau))
    columns = _joint_indicators(table, list(keys.values())).T.tolist()
    indicator = {key: tuple(col) for key, col in zip(keys, columns)}

    same_tau = {}  # tau.mapping -> the indices of its contexts
    for i, ctx in enumerate(contexts):
        same_tau.setdefault(ctx.tau.mapping, []).append(i)
    partners = [None] * len(contexts)
    for at in same_tau.values():
        maps = _partner_maps(table, contexts[at[0]].tau, [contexts[i].alpha for i in at])
        for i, partner in zip(at, maps):
            partners[i] = partner

    return [
        _report(ctx, table,
                indicator[ctx.alpha.exponents, ctx.tau.mapping],
                indicator[ctx.alpha.exponents, identity.mapping],
                indicator[trivial.exponents, ctx.tau.mapping],
                partner, _pairing_classes(partner))
        for ctx, partner in zip(contexts, partners)
    ]


def render_factors(factors) -> str:
    """Compact pretty form, e.g. 'so(1)^4 (+) sp(2)'."""
    counts: list[tuple[str, int]] = []
    for fac in factors:
        key = fac.render()
        if counts and counts[-1][0] == key:
            counts[-1] = (key, counts[-1][1] + 1)
        else:
            counts.append((key, 1))
    parts = [key if mult == 1 else f"{key}^{mult}" for key, mult in counts]
    return " ⊕ ".join(parts) if parts else "0"
