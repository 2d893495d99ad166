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
weight array (keys, classes, phi(m)), and each partner map composes row
permutations (_partner_maps).  indicator_report is the batch of one context;
joint_indicator, pairing, weighted_fs_indicator and kawanaka_indicator are
one-context calls into the same kernels.  The kernels take alpha and tau as
validated: a LieContext checks them once, and each one-context call checks
its own pair (_check_pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclo
from .chartable import CharacterTable
from .errors import BadParameters, IndicatorOutOfRange, PartnerNotFound
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    check_character,
    check_order,
    conjugacy_data,
    identity_automorphism,
    trivial_character,
)
from .liealg import LieContext, make_context


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


def _check_pair(group: GroupTable, alpha: LinearCharacter, tau: InvolutiveAutomorphism) -> None:
    """Refuse a tau of another order, then an alpha that is no linear
    character of `group`, before any sum is formed."""
    check_order(group, tau)
    check_character(group, alpha)


def stacked_weights(group: GroupTable, keys, ctx: cyclo.CycloContext) -> np.ndarray:
    """Per-class sums of conj(alpha(g)) over g with g*tau(g) in the class,
    for every (alpha, tau) of `keys`, as canonical coefficients
    (keys, classes, phi(m)) from one matmul.  Every alpha and tau must
    already be validated for `group`."""
    cd = conjugacy_data(group)
    class_of = np.array(cd.class_of)
    counts = np.zeros((len(keys), cd.num_classes, ctx.m), dtype=np.int64)
    for w, (alpha, tau) in enumerate(keys):
        # the class of g*tau(g) and the exponent of conj(alpha(g)), for every g
        classes = class_of[group.mult[group.elements(), tau.mapping]]
        np.add.at(counts[w], (classes, -np.array(alpha.exponents) % ctx.m), 1)
    return counts @ ctx.power_array[:ctx.m]


def _joint_indicators(table: CharacterTable, keys) -> np.ndarray:
    """The joint indicators (irreps, keys) of every (alpha, tau) of `keys`."""
    ctx = table.context()
    # #G times every indicator, kept integral, from one class_sums call
    unit = [1] * table.class_data.num_classes
    sums = cyclo.class_sums(table.values, stacked_weights(table.group, keys, ctx), unit, ctx)
    labels = [f"nu_({alpha.label},{tau.label})" for alpha, tau in keys]
    return _as_indicators(sums, table.group.order, ctx, labels)


def joint_indicator(table: CharacterTable, alpha: LinearCharacter,
                    tau: InvolutiveAutomorphism) -> tuple[int, ...]:
    """Joint indicator: (1/#G) sum_g conj(alpha(g)) chi(g tau(g)).

    Specializes to the weighted indicator at tau = id and to the twisted one
    at alpha = trivial.
    """
    _check_pair(table.group, alpha, tau)
    return tuple(_joint_indicators(table, [(alpha, tau)])[:, 0].tolist())


def weighted_fs_indicator(table: CharacterTable, alpha: LinearCharacter) -> tuple[int, ...]:
    """Weighted indicator per irrep: (1/#G) sum_g chi(g^2) conj(alpha(g))."""
    return joint_indicator(table, alpha, identity_automorphism(table.group))


def kawanaka_indicator(table: CharacterTable, tau: InvolutiveAutomorphism) -> tuple[int, ...]:
    """Twisted indicator per irrep: (1/#G) sum_g chi(g tau(g))."""
    return joint_indicator(table, trivial_character(table.group), tau)


def _partner_maps(table: CharacterTable, pairs) -> list[tuple[int, ...]]:
    """The partner map of every validated (alpha, tau) of `pairs`, as
    mu_alpha o rho_tau.  rho_tau(i) is the row equal to the column gather
    conj(chi_i) o tau, found by lookup.  mu_alpha(j) is the row equal to
    alpha * chi_j: times_roots forms it only for an alpha outside the group
    the earlier alphas generate, keyed by its exponents on the class
    representatives, and mu_(alpha beta) = mu_alpha o mu_beta gives the rest.
    """
    cd = table.class_data
    ctx = table.context()
    x = table.values
    rows = {row.tobytes(): i for i, row in enumerate(x)}

    def find(targets, names) -> np.ndarray:
        found = [rows.get(t.tobytes()) for t in targets]
        if None in found:
            raise PartnerNotFound(f"no irrep matches alpha * conj(chi_{names[found.index(None)]}) "
                                  "o tau; table inconsistency")
        return np.array(found)

    rho = {}  # tau.mapping -> rho_tau
    mu = {(0,) * len(cd.representatives): np.arange(len(x))}
    out = []
    for alpha, tau in pairs:
        if tau.mapping not in rho:
            # conj(chi(y)) = chi(y^-1), so conj(chi) o tau is read at the inverse class
            gather = [cd.inverse_class[cd.class_of[tau.mapping[c]]] for c in cd.representatives]
            rho[tau.mapping] = find(x[:, gather], range(len(x)))
        r = rho[tau.mapping]
        key = tuple(alpha.exponents[c] % ctx.m for c in cd.representatives)
        if key not in mu:
            # conj o tau is an involution, so alpha * chi_j = alpha * conj(chi_r[j]) o tau
            gen = find(cyclo.times_roots(x, np.array([key]), ctx)[0], r)
            known = list(mu.items())
            while known:
                h, perm = known.pop()
                e = tuple((a + b) % ctx.m for a, b in zip(h, key))
                if e not in mu:
                    mu[e] = gen[perm]
                    known.append((e, mu[e]))
        partner = mu[key][r].tolist()
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
    _check_pair(table.group, alpha, tau)
    partner = _partner_maps(table, [(alpha, tau)])[0]
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
        dim_l_formula=ctx.census,
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
    indicator of the contexts, and one _partner_maps call every partner map.
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

    partners = _partner_maps(table, [(ctx.alpha, ctx.tau) for ctx in contexts])
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
