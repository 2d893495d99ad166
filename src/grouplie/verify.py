"""Theorem-checking pipeline.

For each (group, alpha, tau) context the exact construction of the skew
subalgebra is compared against the character-theoretic prediction:

  1. dimension by exact rank = dimension by element census = predicted sum
     of factor dimensions;
  2. Lie closure of the constructed basis: every bracket of two basis
     vectors lies in the span of the basis;
  3. the skew class-sum generators are central (their bracket with every
     basis vector is 0), independent, and count exactly the predicted
     center dimension;
  4. #G - 2 dim = I - J (the signed count of twisted involutions);
  5. the class-side and irrep-side fixed-point counts of the star map agree:
     |{c : alpha(c) = 1, c* = c}| - |{c : alpha(c) = -1, c* = c}|
       = |{V : V = partner(V)}|.

liealg alone writes and ranks the rows, as int64 monomials c*zeta^k, each
rank and membership decided per sigma-orbit block with no field arithmetic;
this module reads only their spans, ranks and counts.  The brackets of
checks 2 and 3, and the trace-form orthogonality of the basis to the +1
eigenspace, are one call of liealg.skew_checks per context: an exact int64
kernel, every sum bounded below 2^63 before it is formed.

For each nontrivial linear character alpha of a group (tau = id) the
Clifford identity L(Ker alpha) = L(G) & L_alpha(G) is checked as well.  With
H = L(Ker alpha), A = L(G, trivial) and B = L(G, alpha), H = A & B exactly
when every row of H lies in A and in B and rank H = dim A + dim B - dim(A + B)
(Grassmann's formula).  A Lie basis decides its span once, so the Clifford
check reads dim A and dim B from the spans the theorem check already decided.

The checks take their inputs and return their verdicts; run_suite builds
the inputs of a suite and shares per-group work between the checks.  It
builds the tau = id basis of trivial and of each selected character once and
hands it to the theorem and Clifford checks, builds one kernel_space per
distinct kernel, and builds the indicator reports of all the group's
contexts, and the (trivial, tau) report of each Kawanaka check that is not
one of them, as one indicator_reports batch.

A failing check is reported as an implementation bug: the underlying
identities are theorems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cyclo
from .chartable import CharacterTable, character_table
from .errors import BadParameters, LiftInconsistent
from .groups import (
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    alpha_tau_compatible,
    catalog,
    conjugacy_data,
    identity_automorphism,
    inversion_automorphism,
    linear_characters,
    semidirect_product,
    trivial_character,
    validate_automorphism,
)
from .indicators import (
    Factor,
    IndicatorReport,
    indicator_reports,
    stacked_weights,
    weighted_fs_indicator,
)
from .liealg import (
    CenterData,
    KernelSpace,
    LieBasis,
    LieContext,
    center_basis,
    kernel_space,
    lie_basis,
    make_context,
    plus_fixed_basis,
    row_count,
    skew_checks,
)


# check names in reporting order; each is stored in the LieReport field <name>_ok
CHECKS = ("dims", "closure", "centrality", "orthogonality", "bookkeeping",
          "class_count")


@dataclass(frozen=True)
class LieReport:
    group_name: str
    order: int
    alpha_label: str
    tau_label: str
    dim_l_rank: int
    dim_l_formula: int
    dim_m_predicted: int
    center_dim_exact: int
    center_dim_predicted: int
    closure_ok: bool
    centrality_ok: bool
    orthogonality_ok: bool
    dims_ok: bool
    bookkeeping_ok: bool
    class_count_ok: bool
    factors: tuple[Factor, ...]
    seconds: float

    @property
    def all_ok(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> str | None:
        """The first check that did not pass."""
        return next((f"{c}_ok" for c in CHECKS if not getattr(self, f"{c}_ok")), None)

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "group": self.group_name,
            "order": self.order,
            "alpha": self.alpha_label,
            "tau": self.tau_label,
            "dim_L_rank": self.dim_l_rank,
            "dim_L_formula": self.dim_l_formula,
            "dim_M_predicted": self.dim_m_predicted,
            "center_dim_exact": self.center_dim_exact,
            "center_dim_predicted": self.center_dim_predicted,
            # the Clifford and Kawanaka verdicts live in SuiteResult
            "checks": {**{c: getattr(self, f"{c}_ok") for c in CHECKS},
                       "clifford": None, "kawanaka": None},
            "factors": [[f.kind, f.n, f.dim] for f in self.factors],
            "all_ok": self.all_ok,
        }
        if include_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


def _class_count_ok(ctx: LieContext, report: IndicatorReport) -> bool:
    """The signed count of sigma-fixed classes equals the count of
    self-paired irreps."""
    cd = conjugacy_data(ctx.group)
    sig = ctx.class_sigma
    fixed = sum(ctx.alpha.real_sign(r) for c, r in enumerate(cd.representatives) if sig[c] == c)
    self_paired = sum(1 for i, p in enumerate(report.partner) if p == i)
    return fixed == self_paired


def verify_theorem(basis: LieBasis, report: IndicatorReport, center: CenterData) -> LieReport:
    """Check the context of `basis`, its lie_basis, against `report`, its
    indicator report, and `center`, its center_basis; a report or center
    data of another context raises BadParameters."""
    t0 = time.perf_counter()
    ctx = basis.context
    if report.context != ctx:
        raise BadParameters(f"indicator report of {report.context} handed to the basis of "
                            f"another context, {ctx}")
    if center.context != ctx:
        raise BadParameters(f"center data of {center.context} handed to the basis of "
                            f"another context, {ctx}")
    group, alpha, tau = ctx.group, ctx.alpha, ctx.tau

    dim_rank = basis.rank
    dims_ok = dim_rank == report.dim_l_formula == report.dim_m
    gens = center.generators
    checks = skew_checks(basis, gens, plus_fixed_basis(ctx))
    center_ok = checks.centrality and center.rank == row_count(gens) == report.center_dim
    bookkeeping = (group.order - 2 * dim_rank) == (
        report.involutions_plus - report.involutions_minus
    )

    return LieReport(
        group_name=group.name,
        order=group.order,
        alpha_label=alpha.label,
        tau_label=tau.label,
        dim_l_rank=dim_rank,
        dim_l_formula=report.dim_l_formula,
        dim_m_predicted=report.dim_m,
        center_dim_exact=center.rank,
        center_dim_predicted=report.center_dim,
        closure_ok=checks.closure,
        centrality_ok=center_ok,
        orthogonality_ok=checks.orthogonality,
        dims_ok=dims_ok,
        bookkeeping_ok=bookkeeping,
        class_count_ok=_class_count_ok(ctx, report),
        factors=report.factors,
        seconds=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class CliffordResult:
    group_name: str
    alpha_label: str
    kernel_order: int
    dim_kernel: int
    dim_intersection: int
    ok: bool

    def to_json_dict(self) -> dict:
        return {"group": self.group_name, "alpha": self.alpha_label,
                "kernel_order": self.kernel_order, "dim_kernel": self.dim_kernel,
                "dim_intersection": self.dim_intersection, "ok": self.ok}


def verify_clifford(trivial_basis: LieBasis, alpha_basis: LieBasis,
                    kernel: KernelSpace) -> CliffordResult:
    """Exact subspace equality of H = L(Ker alpha) and A & B, where
    A = L(G, trivial) and B = L(G, alpha), both with tau = id.

    H = A & B exactly when every row of H lies in A and in B and
    rank H = dim A + dim B - dim(A + B), by Grassmann's formula.
    `trivial_basis` is the lie_basis of A, `alpha_basis` that of B, and
    `kernel` the kernel_space of alpha.  dim A and dim B are the ranks of
    the bases' spans, decided once per basis, and dim(A + B) is the rank of
    their sum: the rows of A, B and H lie in the orbits {g, g^-1}.  Inputs
    of another context raise BadParameters.
    """
    a, b = trivial_basis.context, alpha_basis.context
    group, alpha = b.group, b.alpha
    if alpha.is_trivial():
        raise BadParameters("clifford check needs a nontrivial character")
    if a.group != group or not (a.alpha.is_trivial() and a.tau.is_identity()
                                and b.tau.is_identity()):
        raise BadParameters(f"bases of {a} and {b} handed to the clifford check, "
                            f"which needs (G, trivial, id) and (G, alpha, id)")
    in_kernel = set(alpha.kernel_elements())
    if kernel.order != len(in_kernel) or not in_kernel.issuperset(kernel.rows[1].tolist()):
        raise BadParameters(f"kernel space of order {kernel.order} does not fit "
                            f"Ker({alpha.label}) of order {len(in_kernel)} in {group.name}")
    span_a, span_b = trivial_basis.span, alpha_basis.span
    dim_intersection = span_a.rank + span_b.rank - (span_a + span_b).rank
    contained = all(span_a.contains(kernel.rows)) and all(span_b.contains(kernel.rows))
    return CliffordResult(
        group_name=a.group.name,
        alpha_label=alpha.label,
        kernel_order=kernel.order,
        dim_kernel=kernel.rank,
        dim_intersection=dim_intersection,
        ok=kernel.rank == dim_intersection and contained,
    )


@dataclass(frozen=True)
class KawanakaResult:
    group_name: str
    tau_label: str
    extension_name: str
    rows: tuple[dict, ...]
    ok: bool

    def to_json_dict(self) -> dict:
        return {"group": self.group_name, "tau": self.tau_label,
                "extension": self.extension_name, "ok": self.ok}


def verify_kawanaka(table: CharacterTable, report: IndicatorReport, *,
                    seed: int) -> KawanakaResult:
    """Check 2 F_eps(chi) = F_1(Res chi) - c_tau(Res chi) on the tau-extension.

    G = table.group is extended by the order-2 group acting through tau;
    eps is its order-2 character with kernel the embedded copy of G.  Split
    restrictions additionally satisfy c_tau(chi+) = c_tau(chi-) and
    F(chi+) = F(chi-), with c_tau and F = F_1 of G read from `report`, the
    indicator report of (G, trivial, tau); any other raises BadParameters.
    `seed` drives the eigenspace split of the extension's table.
    """
    group, tau = table.group, report.context.tau
    if report.context.group != group or not report.context.alpha.is_trivial():
        raise BadParameters(f"indicator report of {report.context} handed to the kawanaka "
                            f"check of {group.name}, which needs (G, trivial, tau)")
    ext = semidirect_product(group, tau)
    table_ext = character_table(ext, seed=seed)
    cd_ext = conjugacy_data(ext)
    n = group.order

    # element g + i*n of the extension is (g, tau^i), so eps(g + i*n) = (-1)^i
    half = ext.exponent // 2
    eps = LinearCharacter(ext.exponent, (0,) * n + (half,) * n, "eps")
    f_eps = weighted_fs_indicator(table_ext, eps)

    cd = conjugacy_data(group)
    ctx_ext = table_ext.context()

    # restrictions to G of the extension's irreps, as class functions of G
    res = table_ext.values[:, [cd_ext.class_of[r] for r in cd.representatives]]
    # n * F_1 and n * c_tau of each restriction, kept integral; restrictions
    # are reducible, so these are not read off as indicators
    pairs = [(trivial_character(group), t) for t in (identity_automorphism(group), tau)]
    weights = stacked_weights(group, pairs, ctx_ext)
    sums = cyclo.class_sums(res, weights, [1] * cd.num_classes, ctx_ext)
    nf1, nctau = sums[:, 0], sums[:, 1]

    # decompose every restriction into irreducibles of G: n * <Res chi_i, chi_j>
    gconj_emb = cyclo.galois_array(table.values, -1, table.context(), ctx_ext)
    inner = cyclo.class_sums(res, gconj_emb, cd.sizes, ctx_ext)
    for i in range(len(res)):
        irrational = np.flatnonzero(inner[i, :, 1:].any(axis=1))
        if irrational.size:
            j = int(irrational[0])
            raise LiftInconsistent(
                f"restriction of irrep {i} of {ext.name} has a non-rational inner product "
                f"{cyclo.scalar_of(inner[i, j], ctx_ext)!r} with irrep {j} of {group.name}"
            )
        if (inner[i, :, 0] % n).any() or (inner[i, :, 0] < 0).any():
            mults = [Fraction(int(v), n) for v in inner[i, :, 0]]
            raise LiftInconsistent(
                f"restriction of irrep {i} of {ext.name} has multiplicities {mults}"
            )
    multiplicities = (inner[:, :, 0] // n).tolist()

    ctau_g, f1_g = report.c_tau, report.f_alpha
    rows = []
    ok = True
    identity_gap = nf1 - nctau
    for i, mults in enumerate(multiplicities):
        identity_ok = bool(identity_gap[i, 0] == 2 * f_eps[i] * n
                           and not identity_gap[i, 1:].any())
        components = [j for j, mu in enumerate(mults) if mu]
        split_ok = True
        if len(components) == 2 and all(mults[j] == 1 for j in components):
            jp, jm = components
            split_ok = ctau_g[jp] == ctau_g[jm] and f1_g[jp] == f1_g[jm]
        row_ok = identity_ok and split_ok
        ok = ok and row_ok
        rows.append({
            "irrep": i,
            "degree": table_ext.degrees[i],
            "F_eps": f_eps[i],
            "identity_ok": identity_ok,
            "split_components": components,
            "split_ok": split_ok,
        })

    return KawanakaResult(group.name, tau.label, ext.name, tuple(rows), ok)


# ---------------------------------------------------------------------------
# catalog and suite


def default_catalog() -> list[GroupTable]:
    """The stock verification targets (orders 2..120)."""
    groups: list[GroupTable] = []
    for k in range(2, 25):
        groups.append(catalog("cyclic", k))
    for k in range(3, 13):
        groups.append(catalog("dihedral", k))
    groups.append(catalog("symmetric", 3))
    groups.append(catalog("symmetric", 4))
    groups.append(catalog("alternating", 4))
    groups.append(catalog("quaternion8"))
    groups.append(catalog("direct_product", catalog("cyclic", 2), catalog("cyclic", 4)))
    groups.append(catalog("direct_product", catalog("cyclic", 2),
                          catalog("cyclic", 2), catalog("cyclic", 2)))
    groups.append(catalog("direct_product", catalog("cyclic", 3), catalog("cyclic", 3)))
    groups.append(catalog("frobenius21"))
    groups.append(catalog("alternating", 5))
    groups.append(catalog("symmetric", 5))
    return groups


def curated_taus(group: GroupTable) -> list[InvolutiveAutomorphism]:
    """Identity everywhere; inversion wherever it is an automorphism."""
    taus = [identity_automorphism(group)]
    if group.is_abelian() and group.exponent > 2:
        taus.append(inversion_automorphism(group))
    return taus


# the named tau policies of run_suite
TAU_POLICIES = {
    "all": curated_taus,
    "id": lambda group: [identity_automorphism(group)],
    "inv": lambda group: [inversion_automorphism(group)] if group.is_abelian() else [],
}


@dataclass
class SuiteResult:
    reports: list[LieReport] = field(default_factory=list)
    clifford: list[CliffordResult] = field(default_factory=list)
    kawanaka: list[KawanakaResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            all(r.all_ok for r in self.reports)
            and all(r.ok for r in self.clifford)
            and all(r.ok for r in self.kawanaka)
        )

    @property
    def contexts(self) -> int:
        return len(self.reports)


def run_suite(groups: list[GroupTable] | None = None, *,
              max_order: int | None = None,
              alpha_labels: str | list[str] = "all",
              tau_policy: str | list[InvolutiveAutomorphism] = "all",
              seed: int = 0) -> SuiteResult:
    """Verify every selected context; failures are collected, not raised.

    alpha_labels: "all" or a list of character labels.  tau_policy: "all"
    (identity plus inversion where valid), "id", "inv" (on abelian groups),
    or a list of automorphisms, each validated against every group, so a map
    that is no involutive automorphism of one raises NotHomomorphism or
    NotInvolutive, and one of another order BadParameters.
    """
    if isinstance(alpha_labels, str) and alpha_labels != "all":
        raise BadParameters(f"alpha_labels must be 'all' or a list, got {alpha_labels!r}")
    if not isinstance(tau_policy, list) and tau_policy not in TAU_POLICIES:
        raise BadParameters(f"tau_policy must be one of {sorted(TAU_POLICIES)} or a list of "
                            f"automorphisms, got {tau_policy!r}")
    if groups is None:
        groups = default_catalog()
    if max_order is not None:
        groups = [g for g in groups if g.order <= max_order]
    result = SuiteResult()
    for group in groups:
        table = character_table(group, seed=seed)
        if isinstance(tau_policy, list):
            taus = [validate_automorphism(group, tau.mapping, tau.label) for tau in tau_policy]
        else:
            taus = TAU_POLICIES[tau_policy](group)
        trivial = trivial_character(group)
        linear = linear_characters(group)
        chars = [c for c in linear if alpha_labels == "all" or c.label in alpha_labels]
        # the tau = id basis of trivial and of every selected character, for the
        # Clifford checks and its own context's (not inv's on exponent 2)
        ident = identity_automorphism(group)
        bases = {c.exponents: lie_basis(make_context(group, c, ident))
                 for c in linear if c.is_trivial() or c in chars}
        contexts = [bases[alpha.exponents].context if tau == ident
                    else make_context(group, alpha, tau)
                    for tau in taus for alpha in chars if alpha_tau_compatible(alpha, tau)]
        kawanaka_taus = [tau for tau in taus
                         if not tau.is_identity() and 2 * group.order <= 256]
        # the indicator reports of all the group's contexts and the
        # (trivial, tau) report of each Kawanaka check, one of those contexts
        # when trivial is selected, as one batch
        extra = [] if trivial in chars else [make_context(group, trivial, t) for t in kawanaka_taus]
        reports = indicator_reports(table, contexts + extra)
        for report in reports[:len(contexts)]:
            ctx = report.context
            basis = bases[ctx.alpha.exponents] if ctx.tau == ident else lie_basis(ctx)
            result.reports.append(verify_theorem(basis, report, center_basis(ctx)))
        for report in reports:
            if report.context.alpha.is_trivial() and report.context.tau in kawanaka_taus:
                result.kawanaka.append(verify_kawanaka(table, report, seed=seed))
        # H = L(Ker alpha) depends on alpha only through its kernel
        nontrivial = [alpha for alpha in chars if not alpha.is_trivial()]
        by_kernel = {alpha.kernel_elements(): alpha for alpha in nontrivial}
        kernels = {key: kernel_space(group, alpha) for key, alpha in by_kernel.items()}
        result.clifford += [verify_clifford(bases[trivial.exponents], bases[alpha.exponents],
                                            kernels[alpha.kernel_elements()])
                            for alpha in nontrivial]
    result.reports.sort(key=lambda r: (r.group_name, r.alpha_label, r.tau_label))
    result.clifford.sort(key=lambda r: (r.group_name, r.alpha_label))
    result.kawanaka.sort(key=lambda r: (r.group_name, r.tau_label))
    return result
