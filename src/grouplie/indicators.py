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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclo
from .chartable import CharacterTable
from .errors import ConductorMismatch, IndicatorOutOfRange, PartnerNotFound
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    conjugacy_data,
    identity_automorphism,
    trivial_character,
)
from .liealg import census_dimension, make_context


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
    group_name: str
    order: int
    alpha_label: str
    tau_label: str
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
            "group": self.group_name,
            "order": self.order,
            "alpha": self.alpha_label,
            "tau": self.tau_label,
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


def _as_indicator(scaled: np.ndarray, n: int, ctx: cyclo.CycloContext, what: str) -> int:
    """Read off v from the coefficients of n*v with v in {-1, 0, 1}; sums
    stay integral this way."""
    if not scaled.any():
        return 0
    if not scaled[1:].any() and scaled[0] in (-n, n):
        return int(scaled[0]) // n
    raise IndicatorOutOfRange(
        f"{n} * {what} = {cyclo.scalar_of(scaled, ctx)!r} is outside {{-n, 0, n}}"
    )


def _check_conductor(alpha: LinearCharacter, ctx: cyclo.CycloContext) -> None:
    if alpha.conductor != ctx.m:
        raise ConductorMismatch(f"mixed conductors {alpha.conductor} and {ctx.m}")


def twist_weights(group: GroupTable, alpha: LinearCharacter | None,
                  tau: InvolutiveAutomorphism, ctx: cyclo.CycloContext) -> np.ndarray:
    """Per-class sums of conj(alpha(g)) over g with g*tau(g) in the class, as
    canonical coefficients (classes, phi(m)) in `ctx`.

    With alpha None the weights are the integer counts, stored in coefficient
    0 of an array in `ctx`.
    """
    if alpha is not None:
        _check_conductor(alpha, ctx)
    cd = conjugacy_data(group)
    # the class of g*tau(g) and the exponent of conj(alpha(g)), for every g
    classes = np.array(cd.class_of)[group.mult_array()[group.elements(), tau.mapping]]
    e = 0 if alpha is None else -np.array(alpha.exponents) % ctx.m
    counts = np.zeros((cd.num_classes, ctx.m), dtype=np.int64)
    np.add.at(counts, (classes, e), 1)
    return counts @ ctx.power_array[:ctx.m]


def scaled_sums(weights: np.ndarray, rows: np.ndarray, ctx: cyclo.CycloContext) -> np.ndarray:
    """sum_c weights[c] * rows[r, c] for every class-function row r, as
    canonical coefficients (rows, phi(m)): #G times the indicator, kept
    integral."""
    unit = np.ones(weights.shape[0], dtype=np.int64)
    return cyclo.class_sums(rows, weights[None], unit, ctx)[:, 0]


def joint_indicator(table: CharacterTable, alpha: LinearCharacter,
                    tau: InvolutiveAutomorphism) -> tuple[int, ...]:
    """Joint indicator: (1/#G) sum_g conj(alpha(g)) chi(g tau(g)).

    Specializes to the weighted indicator at tau = id and to the twisted one
    at alpha = trivial.
    """
    n = table.group.order
    ctx = table.context()
    sums = scaled_sums(twist_weights(table.group, alpha, tau, ctx), table.coeff_array, ctx)
    return tuple(
        _as_indicator(s, n, ctx, f"nu_({alpha.label},{tau.label})(irrep {i})")
        for i, s in enumerate(sums)
    )


def weighted_fs_indicator(table: CharacterTable, alpha: LinearCharacter) -> tuple[int, ...]:
    """Weighted indicator per irrep: (1/#G) sum_g chi(g^2) conj(alpha(g))."""
    return joint_indicator(table, alpha, identity_automorphism(table.group))


def kawanaka_indicator(table: CharacterTable, tau: InvolutiveAutomorphism) -> tuple[int, ...]:
    """Twisted indicator per irrep: (1/#G) sum_g chi(g tau(g))."""
    return joint_indicator(table, trivial_character(table.group), tau)


def pairing(table: CharacterTable, alpha: LinearCharacter,
            tau: InvolutiveAutomorphism) -> tuple[tuple[int, ...], tuple[PairingClass, ...]]:
    """Partner map V -> unique irrep with character alpha * conj(chi) o tau.

    Returns (partner, classes); partner is an involution on irrep indices.
    """
    cd = table.class_data
    ctx = table.context()
    _check_conductor(alpha, ctx)
    x = table.coeff_array
    # conj(chi(y)) = chi(y^-1), so conj(chi) o tau is read at the inverse class
    conj_tau = x[:, [cd.inverse_class[cd.class_of[tau.mapping[r]]] for r in cd.representatives]]
    targets = cyclo.times_roots(conj_tau, [alpha.exponents[r] for r in cd.representatives], ctx)
    rows = {row.tobytes(): i for i, row in enumerate(x)}
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
    return tuple(partner), tuple(classes)


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


def indicator_report(group: GroupTable, table: CharacterTable,
                     alpha: LinearCharacter,
                     tau: InvolutiveAutomorphism | None = None) -> IndicatorReport:
    """Indicators, pairing and the predicted decomposition of one context.

    The context is validated first, so an incompatible (alpha, tau) raises
    IncompatiblePair instead of failing inside the pairing.
    """
    ctx = make_context(group, alpha, tau)
    tau = ctx.tau
    nu = joint_indicator(table, alpha, tau)
    # nu is f_alpha at tau = id and c_tau at trivial alpha
    f_alpha = nu if tau.is_identity() else weighted_fs_indicator(table, alpha)
    c_tau = nu if alpha.is_trivial() else kawanaka_indicator(table, tau)
    partner, classes = pairing(table, alpha, tau)
    factors = tuple(_factor(pc, nu, table.degrees) for pc in classes)
    plus, minus = involution_counts(group, alpha, tau)
    return IndicatorReport(
        group_name=group.name,
        order=group.order,
        alpha_label=alpha.label,
        tau_label=tau.label,
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


def predicted_decomposition(table: CharacterTable, alpha: LinearCharacter,
                            tau: InvolutiveAutomorphism):
    """(factors, predicted dimension, center dimension, nu, partner)."""
    r = indicator_report(table.group, table, alpha, tau)
    return r.factors, r.dim_m, r.center_dim, r.nu, r.partner


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
